(* web_churn: 8 servers in the destination edge AS publish receive-only
   EphIDs in its DNS zone; 4 clients in the source edge AS resolve every
   name once during set-up. Then, one connection at a time (closed loop):
   [Host.connect ~expect_accept ~data0:request]; the server answers with an
   Accept from a fresh serving EphID plus 4 responses sized by
   [Packet_mix.Imix] (a 1518-byte frame becomes a packet of the 1500-byte
   link MTU, a 64-byte one the smallest data packet); the client verifies
   them and closes. Each close releases the per-flow EphIDs into
   [Revocation], which moves its generation and so invalidates the border
   routers' EphID caches. *)

open Apna
open Common

let servers = 8
let clients = 4
let responses = 4

(* Every connection's inputs, drawn from the seed. *)
type conn = { client : int; server : int; request : string; replies : string array }

(* Response frame sizes come in rounds of 12 holding exactly the IMIX
   7:4:1 mix of 64-, 570- and 1518-byte frames, each round in a seeded
   order: every seed sends the same bytes, so goodput does not vary with
   the draw. *)
let imix_round = Array.concat [ Array.make 7 64; Array.make 4 570; [| 1518 |] ]

let schedule ~seed ~n =
  let rng = Apna_sim.Rng.create (Int64.of_int (seed + 3)) in
  let frames = Array.make (n * responses) 0 in
  let round = Array.copy imix_round in
  Array.iteri
    (fun i _ ->
      let k = i mod Array.length round in
      if k = 0 then Apna_sim.Rng.shuffle rng round;
      frames.(i) <- round.(k))
    frames;
  Array.init n (fun j ->
      let request = random_string rng (32 + Apna_sim.Rng.int rng 224) in
      let replies =
        Array.init responses (fun k ->
            let frame = frames.((j * responses) + k) in
            random_string rng (max 1 (min frame Flow.mtu - Flow.overhead)))
      in
      { client = j mod clients; server = Apna_sim.Rng.int rng servers; request; replies })

type env = {
  w : world;
  cli : Host.t array;
  srv : Host.t array;
  records : Dns_service.Record.t array array;  (** [client][server] *)
  mutable cur : conn;
  mutable session : Session.t option;
  mutable server_got : int;
  mutable client_got : int;
  mutable ok : bool;
  sent_at : int array;  (** when each response was handed to [Host.send] *)
  mutable t_last : int;
  mutable resp : Tbuf.t;  (** response send-to-deliver latencies *)
  mutable sends : Ledger.spans option;  (** traced: time the server's sends *)
}

let on_server e i ~session ~data =
  if i <> e.cur.server || e.server_got > 0 || not (String.equal data e.cur.request)
  then e.ok <- false;
  e.server_got <- e.server_got + 1;
  Array.iteri
    (fun k reply ->
      let t0 = now_ns () in
      e.sent_at.(k) <- t0;
      (match Host.send e.srv.(i) session reply with
      | Ok () -> ()
      | Error _ -> e.ok <- false);
      match e.sends with
      | Some sp -> Ledger.add sp "host.send_ns" (now_ns () - t0)
      | None -> ())
    e.cur.replies

let on_client e i ~session ~data =
  let t = now_ns () in
  let k = e.client_got in
  let expected =
    i = e.cur.client && k < responses
    && (match e.session with
       | Some s -> Int64.equal (Session.conn_id s) (Session.conn_id session)
       | None -> false)
    && String.equal data e.cur.replies.(k)
  in
  if expected then Tbuf.push e.resp (float (t - e.sent_at.(k)))
  else e.ok <- false;
  e.client_got <- k + 1;
  if e.client_got = responses then e.t_last <- t

(* One connection; [Some (connect_ns, run_ns, latency_ns)] when the client
   got exactly the 4 expected responses and the close went out. *)
let connect_one e c =
  e.cur <- c;
  e.session <- None;
  e.server_got <- 0;
  e.client_got <- 0;
  e.ok <- true;
  let record = e.records.(c.client).(c.server) in
  let t0 = now_ns () in
  Host.connect e.cli.(c.client) ~remote:record.cert ~data0:c.request
    ~expect_accept:true (fun s -> e.session <- Some s);
  let t1 = now_ns () in
  Network.run e.w.net;
  let t2 = now_ns () in
  let closed =
    match e.session with
    | Some s -> Result.is_ok (Host.close e.cli.(c.client) s)
    | None -> false
  in
  Network.run e.w.net;
  if e.ok && closed && e.server_got = 1 && e.client_got = responses then
    Some (t1 - t0, t2 - t1, e.t_last - t0)
  else None

(* Set-up: build, bootstrap, publish, resolve, warm-up; each step its own
   calibration block, durations in [steps]. *)
let setup ~seed calib ~steps =
  let step f = timed calib steps f in
  let w = step (fun () -> build_world ~seed) in
  let srv, cli =
    step (fun () ->
        let srv =
          Array.init servers (fun i -> add_host w ~as_number:dst_as (Printf.sprintf "srv%d" i))
        in
        let cli =
          Array.init clients (fun i -> add_host w ~as_number:src_as (Printf.sprintf "cli%d" i))
        in
        (srv, cli))
  in
  let name i = Printf.sprintf "svc%d.%s" i zone in
  step (fun () ->
      let published = ref 0 in
      Array.iteri (fun i h -> Host.publish h ~name:(name i) (fun () -> incr published)) srv;
      Network.run w.net;
      if !published <> servers then fail "publish");
  let dns =
    match As_node.dns w.dst with
    | Some d -> Dns_service.cert d
    | None -> fail "no DNS service"
  in
  let records =
    step (fun () ->
        let found = Array.make_matrix clients servers None in
        Array.iteri
          (fun c h ->
            for s = 0 to servers - 1 do
              Host.dns_lookup h ~name:(name s) ~dns (fun r -> found.(c).(s) <- r)
            done)
          cli;
        Network.run w.net;
        Array.map
          (Array.map (function
            | Some (r : Dns_service.Record.t) when r.receive_only -> r
            | _ -> fail "DNS resolution"))
          found)
  in
  let e =
    {
      w;
      cli;
      srv;
      records;
      cur = { client = 0; server = 0; request = ""; replies = [||] };
      session = None;
      server_got = 0;
      client_got = 0;
      ok = true;
      sent_at = Array.make responses 0;
      t_last = 0;
      resp = Tbuf.create calib;
      sends = None;
    }
  in
  Array.iteri (fun i h -> Host.on_data h (on_server e i)) srv;
  Array.iteri (fun i h -> Host.on_data h (on_client e i)) cli;
  step (fun () ->
      Array.iter
        (fun c -> if connect_one e c = None then fail "warm-up connection")
        (schedule ~seed:(seed + 100) ~n:servers));
  e.resp <- Tbuf.create calib;
  e

(* The traced run: a fresh world and the same connections; each is
   followed by one control-plane replay and one packet-path replay per
   response. *)
let traced_run ~seed ~block calib ~conns =
  let e = setup ~seed calib ~steps:(Tbuf.create calib) in
  let ctx =
    Ledger.make ~net:e.w.net ~from_node:e.w.dst ~sender:e.srv.(0)
      ~transit:e.w.transit ~to_node:e.w.src ~receiver:e.cli.(0)
  in
  let sp = Ledger.spans calib in
  e.sends <- Some sp;
  Gc.full_major ();
  let replay_failed = ref 0 in
  let failed =
    blocks calib (Tbuf.create calib) ~block ~n:(Array.length conns) ~op:(fun j ->
        let c = conns.(j) in
        let r = connect_one e c in
        (match r with
        | Some (connect_ns, run_ns, _) ->
            Ledger.add sp "host.connect_ns" connect_ns;
            Ledger.add sp "network.run_ns" run_ns;
            Ledger.add sp "outer_ns" (connect_ns + run_ns)
        | None -> ());
        if not (Ledger.replay_control ctx sp) then incr replay_failed;
        Array.iter
          (fun reply -> if not (Ledger.replay_packet ctx sp reply) then incr replay_failed)
          c.replies;
        r <> None)
  in
  (e, sp, failed, !replay_failed)

let run ~seed ~n ~block ~alpha ~setups ~trace =
  let name = "web_churn" in
  let calib = Calib.start () in
  let setup_steps = Array.init setups (fun _ -> Tbuf.create calib) in
  let env = ref None in
  Array.iter (fun steps -> env := Some (setup ~seed calib ~steps)) setup_steps;
  let e = Option.get !env in
  let conns = schedule ~seed ~n in
  Gc.full_major ();
  let s0 = snapshot e.w in
  let lat = Tbuf.create calib and times = Tbuf.create calib in
  let failed =
    blocks calib times ~block ~n ~op:(fun j ->
        match connect_one e conns.(j) with
        | Some (_, _, l) ->
            Tbuf.push lat (float l);
            true
        | None -> false)
  in
  let d = delta s0 (snapshot e.w) in
  let heap = peak_heap_mb () in
  let problems = health e.w in
  let retries = rpc_retries e.w in
  let traced = if trace then Some (traced_run ~seed ~block calib ~conns) else None in
  (* Every block is closed: calibrate. *)
  let factors = Calib.factors calib ~alpha in
  let ok = n - failed in
  let x =
    {
      kernel = Calib.kernel_ns_per_kib calib;
      setup_raw = Array.map Tbuf.total setup_steps;
      setup_cal = Array.map (fun t -> Tbuf.total_cal t factors) setup_steps;
      pkts = ok * responses;
      bytes =
        Array.fold_left
          (fun acc c -> acc + Array.fold_left (fun a r -> a + String.length r) 0 c.replies)
          0 conns;
      pkt_raw = Tbuf.total times;
      pkt_cal = Tbuf.total_cal times factors;
      deliver_raw = Tbuf.raw e.resp;
      deliver_cal = Tbuf.cal e.resp factors;
      conns = ok;
      conn_raw = Tbuf.total times;
      conn_cal = Tbuf.total_cal times factors;
      conn_lat_raw = Tbuf.raw lat;
      conn_lat_cal = Tbuf.cal lat factors;
    }
  in
  out "%s: seed %d, %d connections x %d responses, %d set-ups\n" name seed n
    responses setups;
  let end_to_end = end_to_end x ~heap in
  let per_conn v = float v /. float (max 1 ok) in
  let counts = work_counts ~n ~failed ~heap ~per:("gc.minor_words_per_conn", ok) d in
  match traced with
  | None -> { attempted = n; failed; problems; end_to_end; per_layer = []; counts }
  | Some (te, sp, traced_failed, replay_failed) ->
      let med = Ledger.med sp factors in
      let grants = per_conn d.issued in
      (* Per connection: 3 certificate checks (the server's receive-only
         cert at connect, the client cert at the server, the serving cert
         in the Accept), 4 session-key derivations (client, server,
         serving session, client rekey on the Accept), the grants counted
         above, and 6 data packets (Init, Accept, 4 responses). *)
      let parts =
        [
          ("trust.verify_cert_ns", 3.0 *. med "trust.verify_cert_ns");
          ("management.issue_ns", grants *. med "management.issue_ns");
          ("session.create_ns", 4.0 *. med "session.create_ns");
          ("data packets (6 x path)", 6.0 *. Ledger.path_sum med);
        ]
      in
      let outer = med "host.connect_ns" +. med "network.run_ns" in
      let inner = List.fold_left (fun a (_, v) -> a +. v) 0.0 parts in
      out "ledger (%s, traced run, calibrated median ns per connection):\n" name;
      List.iter
        (fun (k, v) -> out "  %-28s %12.0f  %5.1f%%\n" k v (100.0 *. v /. outer))
        parts;
      out "  %-28s %12.0f\n" "sum of layers" inner;
      out "  %-28s %12.0f  (host.connect + network.run)\n" "measured" outer;
      let coverage = inner /. outer in
      if coverage < 0.9 || coverage > 1.1 then
        out
          "  ledger.coverage %.3f OUTSIDE 0.9-1.1: %.0f ns per connection \
           unmeasured (EphID key generation, control-message sealing and \
           codecs, RPC bookkeeping, GC)\n"
          coverage (outer -. inner)
      else out "  ledger.coverage %.3f\n" coverage;
      let per_layer =
        Ledger.timings med
        @ [
            m "border_router.ephid_cache.hit_ratio" "ratio" (hit_ratio d);
            m "gc.minor_words_per_pkt" "words" (d.minor_words /. float (max 1 x.pkts));
            m "gc.major_collections_per_kpkt" "1/kpkt"
              (float d.major_collections *. 1000.0 /. float (max 1 x.pkts));
            m "ledger.coverage" "ratio" coverage;
            m "management.grants_per_conn" "1/conn" grants;
            m "revocation.revokes_per_conn" "1/conn" (per_conn d.revocations);
            m "border_router.ephid_cache.invalidations_per_conn" "1/conn"
              (per_conn d.invalidations);
            m "host.rpc_retries" "count" (float retries);
            m "gc.minor_words_per_conn" "words" (d.minor_words /. float (max 1 ok));
            m "calib.kernel_ns_per_kib" "ns/KiB" x.kernel;
            m "raw.pkts_per_s" "1/s" (float x.pkts /. (x.pkt_raw /. 1e9));
            m "raw.conns_per_s" "1/s" (float ok /. (x.conn_raw /. 1e9));
            m "trace.overhead" "ratio" (med "outer_ns" /. quantile x.conn_lat_cal 0.5);
          ]
        @ tails x
      in
      let problems = problems @ health te.w @ Ledger.replay_problems replay_failed in
      { attempted = 2 * n; failed = failed + traced_failed; problems; end_to_end; per_layer; counts }
