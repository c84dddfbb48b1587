(* flow_small / flow_mtu: 8 long-lived Per_flow sessions from one host in
   the source edge AS to one host in the destination edge AS. Packets go
   round-robin over the sessions, one in flight: each is sent and the
   network run until it is delivered (closed loop; links are simulated in
   engine time, so a wall-clock open loop would measure the generator).
   Latency runs from the [Host.send] call to the receiver's [on_data]. *)

open Apna
open Common

let sessions = 8
let warmup_per_session = 16

(* Wire bytes of a data packet around its application payload: APNA
   header, protocol shim, frame tag + conn_id + seq, AEAD tag. *)
let overhead = Apna_net.Apna_header.size + 1 + 17 + Apna_crypto.Aead.tag_size

(* The default link MTU: Fig. 8's largest point, a 1518-byte Ethernet
   frame, carries a 1500-byte packet. *)
let mtu = 1500

type env = {
  w : world;
  client : Host.t;
  server : Host.t;
  mutable sess : Session.t array;
  mutable conn_delta : snapshot;  (** counters over the connection steps *)
  (* the delivery the receiver must see next *)
  mutable expect_conn : int64;
  mutable expect_data : string;
  mutable got : int;
  mutable ok : bool;
  mutable t_deliver : int;
}

let expect e conn data =
  e.expect_conn <- conn;
  e.expect_data <- data;
  e.got <- 0;
  e.ok <- true

(* Exactly the expected payload arrived once, on the expected session. *)
let delivered e = e.got = 1 && e.ok

(* Sends [data] on session [i] and runs the network to quiescence; the
   [Host.send] call and the whole send-to-deliver latency in ns, or [None]
   on a failed delivery. *)
let send_one e i data =
  let s = e.sess.(i) in
  expect e (Session.conn_id s) data;
  let t0 = now_ns () in
  (match Host.send e.client s data with Ok () -> () | Error _ -> e.ok <- false);
  let t1 = now_ns () in
  Network.run e.w.net;
  if delivered e then Some (t1 - t0, e.t_deliver - t0) else None

(* Set-up: build, bootstrap, issuance, one step per session, warm-up; each
   step its own calibration block, durations in [steps]. Each session's
   establishment (connect to the server's on_data of the 0-RTT data) goes
   to [conns], the [Host.connect] call alone to [calls]. *)
let setup ~seed ~wire calib ~steps ~conns ~calls =
  let step f = timed calib steps f in
  let rng = Apna_sim.Rng.create (Int64.of_int (seed + 1)) in
  let w = step (fun () -> build_world ~seed) in
  let client, server =
    step (fun () ->
        let c = add_host w ~as_number:src_as "client" in
        let s = add_host w ~as_number:dst_as "server" in
        (* Long-lived flows use long-lived EphIDs (§VIII-G1): a run spans
           thousands of simulated seconds. *)
        Host.set_ephid_lifetime c Lifetime.Long;
        (c, s))
  in
  let eps =
    step (fun () ->
        let eps = ref [] in
        for _ = 1 to sessions do
          Host.request_ephid server ~lifetime:Lifetime.Long (fun ep -> eps := ep :: !eps)
        done;
        Network.run w.net;
        if List.length !eps <> sessions then fail "server EphID issuance";
        Array.of_list (List.rev !eps))
  in
  let e =
    {
      w;
      client;
      server;
      sess = [||];
      conn_delta = snapshot w;
      expect_conn = 0L;
      expect_data = "";
      got = 0;
      ok = true;
      t_deliver = 0;
    }
  in
  Host.on_data server (fun ~session ~data ->
      e.t_deliver <- now_ns ();
      e.got <- e.got + 1;
      if
        not
          (Int64.equal (Session.conn_id session) e.expect_conn
          && String.equal data e.expect_data)
      then e.ok <- false);
  let before = snapshot w in
  e.sess <-
    Array.map
      (fun (ep : Host.endpoint) ->
        let data = random_string rng 32 in
        step (fun () ->
            let got = ref None in
            expect e 0L data;
            let t0 = now_ns () in
            Host.connect client ~remote:ep.cert ~data0:data (fun s ->
                e.expect_conn <- Session.conn_id s;
                got := Some s);
            Tbuf.push calls (float (now_ns () - t0));
            Network.run w.net;
            match !got with
            | Some s when delivered e ->
                Tbuf.push conns (float (e.t_deliver - t0));
                s
            | _ -> fail "session establishment"))
      eps;
  e.conn_delta <- delta before (snapshot w);
  step (fun () ->
      let sizes = ref [] in
      Network.set_tap w.net (fun ~from:_ ~to_:_ pkt ->
          if pkt.Apna_net.Packet.proto = Apna_net.Packet.Data then
            sizes := Apna_net.Packet.wire_size pkt :: !sizes);
      let data = random_string rng (wire - overhead) in
      for i = 0 to (sessions * warmup_per_session) - 1 do
        if send_one e (i mod sessions) data = None then fail "warm-up delivery"
      done;
      Network.set_tap w.net (fun ~from:_ ~to_:_ _ -> ());
      if List.exists (fun s -> s <> wire) !sizes then
        fail "data packets are not %d wire bytes" wire);
  e

(* Seeded payloads: a pool of distinct payloads and the pick of each
   packet. *)
let inputs ~seed ~wire ~n =
  let rng = Apna_sim.Rng.create (Int64.of_int (seed + 2)) in
  let pool = Array.init 64 (fun _ -> random_string rng (wire - overhead)) in
  (pool, Array.init n (fun _ -> Apna_sim.Rng.int rng 64))

(* The traced run: a fresh world, the same packets, each followed by a
   layer-by-layer replay; control-plane replays once per block. *)
let traced_run ~seed ~wire ~n ~block calib ~pool ~pick =
  let sp = Ledger.spans calib in
  let calls = Tbuf.create calib in
  let e =
    setup ~seed ~wire calib ~steps:(Tbuf.create calib) ~conns:(Tbuf.create calib)
      ~calls
  in
  Hashtbl.replace sp.bufs "host.connect_ns" calls;
  let ctx =
    Ledger.make ~net:e.w.net ~from_node:e.w.src ~sender:e.client
      ~transit:e.w.transit ~to_node:e.w.dst ~receiver:e.server
  in
  Gc.full_major ();
  let replay_failed = ref 0 in
  let failed =
    blocks calib (Tbuf.create calib) ~block ~n ~op:(fun j ->
        let data = pool.(pick.(j)) in
        let t0 = now_ns () in
        let r = send_one e (j mod sessions) data in
        let t1 = now_ns () in
        (match r with
        | Some (send_ns, _) ->
            Ledger.add sp "host.send_ns" send_ns;
            Ledger.add sp "network.run_ns" (t1 - t0 - send_ns);
            Ledger.add sp "outer_ns" (t1 - t0)
        | None -> ());
        if not (Ledger.replay_packet ctx sp data) then incr replay_failed;
        if j mod block = 0 && not (Ledger.replay_control ctx sp) then
          incr replay_failed;
        r <> None)
  in
  (e, sp, failed, !replay_failed)

let run ~name ~wire ~seed ~n ~block ~alpha ~setups ~trace =
  let calib = Calib.start () in
  let setup_steps = Array.init setups (fun _ -> Tbuf.create calib) in
  let conns = Tbuf.create calib in
  let env = ref None in
  Array.iter
    (fun steps ->
      env := Some (setup ~seed ~wire calib ~steps ~conns ~calls:(Tbuf.create calib)))
    setup_steps;
  let e = Option.get !env in
  let pool, pick = inputs ~seed ~wire ~n in
  (* Untraced timed phase. *)
  Gc.full_major ();
  let s0 = snapshot e.w in
  let lat = Tbuf.create calib and times = Tbuf.create calib in
  let failed =
    blocks calib times ~block ~n ~op:(fun j ->
        match send_one e (j mod sessions) pool.(pick.(j)) with
        | Some (_, l) ->
            Tbuf.push lat (float l);
            true
        | None -> false)
  in
  let d = delta s0 (snapshot e.w) in
  let heap = peak_heap_mb () in
  let problems = health e.w in
  let cd = e.conn_delta and retries = rpc_retries e.w in
  let traced =
    if trace then Some (traced_run ~seed ~wire ~n ~block calib ~pool ~pick) else None
  in
  (* Every block is closed: calibrate. *)
  let factors = Calib.factors calib ~alpha in
  let delivered = n - failed in
  (* The flow timed phase opens no connection: the connection figures are
     those of the set-ups' session establishments. *)
  let x =
    {
      kernel = Calib.kernel_ns_per_kib calib;
      setup_raw = Array.map Tbuf.total setup_steps;
      setup_cal = Array.map (fun t -> Tbuf.total_cal t factors) setup_steps;
      pkts = delivered;
      bytes = delivered * (wire - overhead);
      pkt_raw = Tbuf.total times;
      pkt_cal = Tbuf.total_cal times factors;
      deliver_raw = Tbuf.raw lat;
      deliver_cal = Tbuf.cal lat factors;
      conns = Tbuf.length conns;
      conn_raw = Tbuf.total conns;
      conn_cal = Tbuf.total_cal conns factors;
      conn_lat_raw = Tbuf.raw conns;
      conn_lat_cal = Tbuf.cal conns factors;
    }
  in
  out "%s: seed %d, %d packets of %d wire bytes (%d payload), %d set-ups\n" name
    seed n wire (wire - overhead) setups;
  let end_to_end = end_to_end x ~heap in
  let pkts = float (max 1 delivered) in
  let counts =
    work_counts ~n ~failed ~heap ~per:("gc.minor_words_per_pkt", delivered) d
  in
  match traced with
  | None -> { attempted = n; failed; problems; end_to_end; per_layer = []; counts }
  | Some (te, sp, traced_failed, replay_failed) ->
      let med = Ledger.med sp factors in
      let outer = med "host.send_ns" +. med "network.run_ns" in
      let coverage = Ledger.print_table ~workload:name med ~outer in
      let per_conn c = float c /. float sessions in
      let per_layer =
        Ledger.timings med
        @ [
            m "border_router.ephid_cache.hit_ratio" "ratio" (hit_ratio d);
            m "gc.minor_words_per_pkt" "words" (d.minor_words /. pkts);
            m "gc.major_collections_per_kpkt" "1/kpkt"
              (float d.major_collections *. 1000.0 /. pkts);
            m "ledger.coverage" "ratio" coverage;
            m "management.grants_per_conn" "1/conn" (per_conn cd.issued);
            m "revocation.revokes_per_conn" "1/conn" (per_conn cd.revocations);
            m "border_router.ephid_cache.invalidations_per_conn" "1/conn"
              (per_conn cd.invalidations);
            m "host.rpc_retries" "count" (float retries);
            m "gc.minor_words_per_conn" "words" (cd.minor_words /. float sessions);
            m "calib.kernel_ns_per_kib" "ns/KiB" x.kernel;
            m "raw.pkts_per_s" "1/s" (float delivered /. (x.pkt_raw /. 1e9));
            m "raw.conns_per_s" "1/s" (float x.conns /. (x.conn_raw /. 1e9));
            m "trace.overhead" "ratio" (med "outer_ns" /. quantile x.deliver_cal 0.5);
          ]
        @ tails x
      in
      let problems = problems @ health te.w @ Ledger.replay_problems replay_failed in
      {
        attempted = 2 * n;
        failed = failed + traced_failed;
        problems;
        end_to_end;
        per_layer;
        counts;
      }
