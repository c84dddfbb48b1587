(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§V) plus the ablations indexed in DESIGN.md.

     E1  MS-EPHID-GENERATION   §V-A3 in-text results
     E2  BR-FORWARDING         Fig. 8(a) packet-rate, Fig. 8(b) bit-rate
     E3  HEADER-OVERHEAD       Fig. 7 accounting
     E4  CONN-ESTABLISH-RTT    §VII-C latency discussion
     E5  CRYPTO-MICRO          §V-A1 primitive decomposition (Bechamel)
     E6  REVOCATION-SCALING    §VIII-G2
     E7  GRANULARITY-ABLATION  §VIII-A
     E8  REPLAY-WINDOW         §VIII-D
     E9  APIP-COMPARISON       §IX related-work contrast

   Absolute numbers are not expected to match the paper (pure OCaml vs
   AES-NI + DPDK); the shapes are. See EXPERIMENTS.md.

   Every run also emits one machine-readable BENCH_results.json next to
   the tables (schema apna-bench/2 in docs/OBSERVABILITY.md): each
   experiment's section, one row per acceptance gate, the telemetry
   timelines, and a dump of the default metrics registry.

   Run all:        dune exec bench/main.exe
   Run a subset:   dune exec bench/main.exe -- E1 E2
   Smoke run:      dune exec bench/main.exe -- --quick [E13 ...]
   Anything else on the command line is a usage error (exit 2). *)

open Apna
open Apna_crypto
module J = Apna_obs.Json
module M = Apna_obs.Metrics

let line fmt = Printf.printf (fmt ^^ "\n%!")

(* --quick: reduced iteration counts and, with no experiment ids, only the
   experiments that feed the JSON export — the CI smoke target. *)
let quick = ref false

let iters n = if !quick then max 20 (n / 20) else n

(* Sections accumulated by experiments as they run; flushed to
   BENCH_results.json at exit. *)
let json_sections : (string * J.t) list ref = ref []
let add_json name section = json_sections := (name, section) :: !json_sections

(* Acceptance gates. [gate] is the only place a verdict is decided into
   the run: it prints one "gate ok:" / "GATE FAIL:" line and records one
   row for the [gates] array of BENCH_results.json. [ok] is the caller's
   pass rule over [measured] and [bound]; any failed row makes the process
   exit 1 so CI turns red. *)
type gate_row = {
  experiment : string;
  name : string;
  measured : float;
  bound : float;
  ok : bool;
}

let gates : gate_row list ref = ref []

let gate ?(alert = false) experiment name ~measured ~bound ok fmt =
  Printf.ksprintf
    (fun detail ->
      if ok then line "  %sgate ok: %s" (if alert then "alert " else "") detail
      else line "GATE FAIL: %s" detail;
      gates := { experiment; name; measured; bound; ok } :: !gates)
    fmt

(* The [tier] section of a recorded baseline file, as a reader of its
   numeric fields; [None] (after saying so) when the file or the tier is
   missing, in which case the caller skips its regression gate. *)
let load_baseline path tier =
  let section =
    try
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match J.parse text with Ok doc -> J.member tier doc | Error _ -> None
    with Sys_error _ -> None
  in
  match section with
  | None ->
      line "  baseline: %s has no '%s' tier -- regression gate skipped" path
        tier;
      None
  | Some t -> Some (fun k -> Option.bind (J.member k t) J.number)

(* Telemetry timelines (sampler + alert engine) accumulated by the
   experiments that attach the sampler; flushed into the [telemetry] object
   of BENCH_results.json at exit (schema in docs/OBSERVABILITY.md). *)
let telemetry_sections : (string * J.t) list ref = ref []

let add_telemetry name section =
  telemetry_sections := (name, section) :: !telemetry_sections

let fired_json fired = J.List (List.map (fun r -> J.Str r) (List.sort String.compare fired))

let banner id title paper_ref =
  line "";
  line "================================================================";
  line "%s  %s" id title;
  line "    paper reference: %s" paper_ref;
  line "================================================================"

(* CPU-time per operation; iteration counts are chosen so each measurement
   runs for well above the Sys.time resolution. *)
let time_per_op ?(warmup = 3) ~iters f =
  for _ = 1 to warmup do
    f ()
  done;
  let t0 = Sys.time () in
  for _ = 1 to iters do
    f ()
  done;
  (Sys.time () -. t0) /. float_of_int iters

let median samples =
  let s = Array.copy samples in
  Array.sort compare s;
  s.(Array.length s / 2)

(* ------------------------------------------------------------------ *)
(* Shared fixtures *)

let rng = Drbg.create ~seed:"bench"
let now0 = 1_750_000_000

type br_fixture = {
  keys : Keys.as_keys;
  br : Border_router.t;
  host_kha : Keys.host_as;
  host_ephid : Ephid.t;
  host_info : Host_info.t;
  hid : Apna_net.Addr.hid;
  topology : Apna_net.Topology.t;
}

(* [ephid_cache] defaults to 0 (disabled) so the headline Fig. 8 rows keep
   measuring the full per-packet pipeline; the cache comparison below
   builds its own cached fixture. *)
let make_br_fixture ?(ephid_cache = 0) () =
  let topology = Apna_net.Topology.create () in
  let a = Apna_net.Addr.aid_of_int 64500 and b = Apna_net.Addr.aid_of_int 64501 in
  Apna_net.Topology.connect topology a b (Apna_net.Link.make ());
  let keys = Keys.make_as rng ~aid:a in
  let host_info = Host_info.create () in
  let revoked = Revocation.create () in
  let hid = Apna_net.Addr.hid_of_int 0x0a000001 in
  let host_kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
  Host_info.register host_info hid host_kha;
  let host_ephid = Ephid.issue_random keys rng ~hid ~expiry:(now0 + 86_400) in
  let br = Border_router.create ~keys ~host_info ~revoked ~topology ~ephid_cache () in
  { keys; br; host_kha; host_ephid; host_info; hid; topology }

(* A data packet whose wire size is exactly [frame] bytes, with a valid
   host MAC — what the egress pipeline sees. *)
let make_packet fx ~frame =
  let payload_len = frame - Apna_net.Apna_header.size - 1 in
  if payload_len < 0 then invalid_arg "frame too small";
  let header =
    Apna_net.Apna_header.make ~src_aid:fx.keys.aid
      ~src_ephid:(Ephid.to_bytes fx.host_ephid)
      ~dst_aid:(Apna_net.Addr.aid_of_int 64501)
      ~dst_ephid:(Ephid.to_bytes fx.host_ephid)
      ()
  in
  let pkt =
    Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data
      ~payload:(String.make payload_len 'x')
  in
  Pkt_auth.seal ~auth_key:fx.host_kha.auth pkt

(* ------------------------------------------------------------------ *)
(* E1: MS EphID generation (§V-A3) *)

let e1 () =
  banner "E1" "MS-EPHID-GENERATION" "§V-A3 (in-text table)";
  (* Workload side: reproduce the trace aggregates the paper reports. *)
  let cfg = Apna_workload.Trace.paper_config in
  let wrng = Apna_sim.Rng.create 42L in
  let peak = Apna_workload.Trace.peak_rate_measured wrng cfg ~bucket_s:1.0 in
  line "trace: %d hosts, configured peak %.0f flows/s, measured peak %.0f flows/s"
    cfg.hosts cfg.peak_rate peak;

  (* Full issuance pipeline: EphID construction + certificate signature. *)
  let keys = Keys.make_as rng ~aid:(Apna_net.Addr.aid_of_int 64500) in
  let host_info = Host_info.create () in
  let hid = Apna_net.Addr.hid_of_int 0x0a000001 in
  let kha = Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32) in
  Host_info.register host_info hid kha;
  let aa_ephid = Ephid.issue_random keys rng ~hid ~expiry:(now0 + 86_400) in
  let ms = Management.create ~keys ~host_info ~rng ~aa_ephid () in
  let ephid_keys = Keys.make_ephid_keys rng in
  let sig_pub = Ed25519.public_key ephid_keys.sig_keypair in

  let requests = 20_000 in
  let t0 = Sys.time () in
  for _ = 1 to requests do
    match
      Management.issue_direct ms ~now:now0 ~hid ~kx_pub:ephid_keys.kx_public
        ~sig_pub ~lifetime:Lifetime.Medium
    with
    | Ok _ -> ()
    | Error e -> failwith (Error.to_string e)
  done;
  let elapsed = Sys.time () -. t0 in
  let per_op_us = elapsed /. float_of_int requests *. 1e6 in
  let rate = float_of_int requests /. elapsed in

  (* The wrapped path adds control-EphID validation and AEAD. *)
  let wrapped_requests = 5_000 in
  let ctrl = Ephid.issue_random keys rng ~hid ~expiry:(now0 + 86_400) in
  let request =
    Management.Client.make_request ~rng ~corr:1L ~kha ~keys:ephid_keys
      ~lifetime:Lifetime.Medium
  in
  let t0 = Sys.time () in
  for _ = 1 to wrapped_requests do
    match
      Management.handle_request ms ~now:now0 ~src_ephid:(Ephid.to_bytes ctrl)
        request
    with
    | Ok _ -> ()
    | Error e -> failwith (Error.to_string e)
  done;
  let wrapped_us = (Sys.time () -. t0) /. float_of_int wrapped_requests *. 1e6 in

  line "";
  line "%-38s %12s %14s %10s" "configuration" "us/EphID" "EphIDs/sec" "headroom";
  line "%-38s %12.1f %14.0f %9.1fx" "this repo: issue (EphID+cert)" per_op_us
    rate (rate /. cfg.peak_rate);
  line "%-38s %12.1f %14.0f %9.1fx" "this repo: full request handling"
    wrapped_us (1e6 /. wrapped_us)
    (1e6 /. wrapped_us /. cfg.peak_rate);
  (* Issuance needs no coordination between processes (paper §V-A2); the
     paper ran 4 parallel workers, so scale the same way. *)
  line "%-38s %12.1f %14.0f %9.1fx" "this repo: issue x4 processes"
    (per_op_us /. 4.0) (rate *. 4.0)
    (rate *. 4.0 /. cfg.peak_rate);
  line "%-38s %12.1f %14.0f %9.1fx" "paper (C + AES-NI, 4 cores)" 13.7 72_800.0
    (72_800.0 /. 3_888.0);
  line "";
  line "shape check: generation rate exceeds the trace's peak demand";
  line "(%0.0f/s): single-core headroom %.1fx, matched-parallelism headroom %.1fx."
    cfg.peak_rate (rate /. cfg.peak_rate) (rate *. 4.0 /. cfg.peak_rate)

(* ------------------------------------------------------------------ *)
(* E2: border router forwarding (Fig. 8) *)

(* Per-op latency samples: batches timed with the monotonic clock, so the
   distribution (not just the mean) is visible. One sample = mean ns over
   [batch] back-to-back calls. *)
let latency_samples ~samples ~batch f =
  for _ = 1 to 3 do
    f ()
  done;
  Array.init samples (fun _ ->
      let t0 = Monotonic_clock.now () in
      for _ = 1 to batch do
        f ()
      done;
      let t1 = Monotonic_clock.now () in
      Int64.to_float (Int64.sub t1 t0) /. float_of_int batch)

(* Summarize samples through an observability histogram registered as
   apna_bench_stage_ns{stage=...} — the same machinery `apnad stats`
   scrapes — and return the JSON fields. *)
let stage_summary_json name samples =
  let hi = 1.25 *. Array.fold_left Float.max 1.0 samples in
  let h =
    M.Histogram.register M.default
      ~labels:[ ("stage", name) ]
      ~help:"Per-stage single-packet latency sampled by the bench harness"
      ~buckets:512 ~lo:0.0 ~hi "apna_bench_stage_ns"
  in
  let was = M.enabled M.default in
  M.set_enabled M.default true;
  Array.iter (M.Histogram.observe h) samples;
  M.set_enabled M.default was;
  J.Obj
    [
      ("count", J.Int (M.Histogram.count h));
      ("mean_ns", J.Float (M.Histogram.mean h));
      ("p50_ns", J.Float (M.Histogram.percentile h 0.5));
      ("p90_ns", J.Float (M.Histogram.percentile h 0.9));
      ("p99_ns", J.Float (M.Histogram.percentile h 0.99));
    ]

(* The egress pipeline stages of Fig. 4, timed in isolation plus end to
   end: 1 EphID decrypt, host-info + route lookups, 1 MAC verify. *)
let pipeline_stages fx pkt =
  let raw = Ephid.to_bytes fx.host_ephid in
  [
    ( "ephid_parse",
      fun () ->
        match Ephid.of_bytes raw with
        | Ok e -> ignore (Ephid.parse fx.keys e)
        | Error _ -> () );
    ("host_lookup", fun () -> ignore (Host_info.find fx.host_info fx.hid));
    ( "mac_verify",
      fun () -> ignore (Pkt_auth.verify ~auth_key:fx.host_kha.auth pkt) );
    ( "route_lookup",
      fun () ->
        ignore
          (Apna_net.Topology.next_hop fx.topology ~src:fx.keys.aid
             ~dst:(Apna_net.Addr.aid_of_int 64501)) );
    ("egress_total", fun () -> ignore (Border_router.egress_check fx.br ~now:now0 pkt));
  ]

let e2 () =
  banner "E2" "BR-FORWARDING" "Fig. 8(a) packet-rate / Fig. 8(b) bit-rate";
  let fx = make_br_fixture () in
  (* Baseline: plain IPv4 forwarding with a 100k-route LPM table. *)
  let baseline = Apna_baseline.Ipv4_router.create () in
  Apna_baseline.Ipv4_router.synthetic_table baseline ~seed:7L ~routes:100_000;
  Apna_baseline.Ipv4_router.add_route baseline ~prefix:0 ~len:0 ~next_hop:1;
  (* The paper's testbed: 2x Xeon E5-2680 (16 cores), 6 x 2 x 10 GbE =
     120 Gbps. We model the same aggregate with per-core measured costs. *)
  let cores = 16.0 in
  let line_gbps = 120.0 in
  line "";
  line "%-7s | %11s %11s | %9s %9s %9s | %9s %9s" "size" "APNA ns/pkt"
    "IPv4 ns/pkt" "APNA Mpps" "IPv4 Mpps" "line Mpps" "APNA Gbps" "line Gbps";
  line "%s" (String.make 96 '-');
  let results =
    List.map
      (fun size ->
        let pkt = make_packet fx ~frame:size in
        let apna_ns =
          time_per_op ~iters:(iters 20_000) (fun () ->
              match Border_router.egress_check fx.br ~now:now0 pkt with
              | Ok _ -> ()
              | Error e -> failwith (Error.to_string e))
          *. 1e9
        in
        let ip_pkt =
          Apna_net.Ipv4_header.to_bytes
            (Apna_net.Ipv4_header.make ~protocol:17
               ~src:(Apna_net.Addr.hid_of_int 0x0a000001)
               ~dst:(Apna_net.Addr.hid_of_int 0x08080808)
               ~payload_len:(size - Apna_net.Ipv4_header.size)
               ())
          ^ String.make (size - Apna_net.Ipv4_header.size) 'x'
        in
        let ipv4_ns =
          time_per_op ~iters:(iters 100_000) (fun () ->
              match Apna_baseline.Ipv4_router.forward baseline ip_pkt with
              | Apna_baseline.Ipv4_router.Forwarded _ -> ()
              | Apna_baseline.Ipv4_router.Dropped e -> failwith e)
          *. 1e9
        in
        let apna_mpps = cores /. apna_ns *. 1e3 in
        let ipv4_mpps = cores /. ipv4_ns *. 1e3 in
        let line_mpps = line_gbps *. 1e9 /. (8.0 *. float_of_int size) /. 1e6 in
        let apna_deliverable = Float.min apna_mpps line_mpps in
        let apna_gbps =
          apna_deliverable *. 1e6 *. 8.0 *. float_of_int size /. 1e9
        in
        line "%5dB | %11.0f %11.0f | %9.2f %9.2f %9.2f | %9.1f %9.1f" size
          apna_ns ipv4_ns apna_mpps ipv4_mpps line_mpps apna_gbps line_gbps;
        (size, apna_ns, ipv4_ns, apna_mpps, apna_gbps))
      Apna_workload.Packet_mix.paper_sizes
  in
  line "";
  line "shape check (paper): pps falls as size grows; bit-rate rises with size";
  let _, _, _, mpps_first, gbps_first = List.hd results in
  let _, _, _, mpps_last, gbps_last = List.nth results (List.length results - 1) in
  line "  Mpps monotone decreasing: %b   Gbps increasing: %b"
    (mpps_first > mpps_last) (gbps_last > gbps_first);
  (* Substrate-scaled line rate: at what aggregate capacity would this
     implementation saturate the wire at every size, as the paper's
     hardware does at 120 Gbps? *)
  let min_gbps_capacity =
    List.fold_left
      (fun acc (size, apna_ns, _, _, _) ->
        Float.min acc (cores /. apna_ns *. 8.0 *. float_of_int size))
      infinity results
  in
  line "substrate-scaled line rate: with <= %.1f Gbps provisioned, this OCaml"
    min_gbps_capacity;
  line "router is line-rate at every packet size (the paper's Fig. 8 regime).";

  (* Per-stage latency percentiles (the paper's 1 decrypt + 2 lookups +
     1 MAC decomposition), via the observability histograms. *)
  let pkt = make_packet fx ~frame:512 in
  let samples = if !quick then 100 else 500 in
  line "";
  line "per-stage latency (512B packet, %d samples of 32-op batches):" samples;
  line "%-14s %10s %10s %10s %10s" "stage" "mean ns" "p50 ns" "p90 ns" "p99 ns";
  let stages_json =
    List.map
      (fun (name, f) ->
        let s = latency_samples ~samples ~batch:32 f in
        let j = stage_summary_json name s in
        let get k = match J.member k j with Some v -> Option.get (J.number v) | None -> nan in
        line "%-14s %10.0f %10.0f %10.0f %10.0f" name (get "mean_ns")
          (get "p50_ns") (get "p90_ns") (get "p99_ns");
        (name, j))
      (pipeline_stages fx pkt)
  in

  (* Acceptance check for the observability layer itself: with the default
     registry and flight recorder off (the default), the instrumented egress
     path must cost the same as before instrumentation; the two enabled
     rungs price metrics alone, then metrics plus the recorder. *)
  let egress () =
    match Border_router.egress_check fx.br ~now:now0 pkt with
    | Ok _ -> ()
    | Error e -> failwith (Error.to_string e)
  in
  let off_ns = time_per_op ~iters:(iters 20_000) egress *. 1e9 in
  M.set_enabled M.default true;
  let on_ns = time_per_op ~iters:(iters 20_000) egress *. 1e9 in
  (* Third rung: the packet flight recorder on top of metrics. *)
  Apna_obs.Event.set_enabled Apna_obs.Event.default true;
  let events_ns = time_per_op ~iters:(iters 20_000) egress *. 1e9 in
  Apna_obs.Event.set_enabled Apna_obs.Event.default false;
  Apna_obs.Event.clear Apna_obs.Event.default;
  M.set_enabled M.default false;
  line "";
  line "observability overhead on egress: disabled %.0f ns/pkt, metrics %.0f"
    off_ns on_ns;
  line "ns/pkt (metrics only): %+.1f%%" ((on_ns -. off_ns) /. off_ns *. 100.0);
  line "with the flight recorder too: %.0f ns/pkt (%+.1f%% vs disabled)"
    events_ns
    ((events_ns -. off_ns) /. off_ns *. 100.0);

  (* Validated-EphID cache: steady-state cost of a flow's 2nd..Nth packet
     (cache hit skips AES-CTR decrypt + CBC-MAC verify, the revocation-list
     probe and the host_info lookup) against the full Fig. 4 pipeline on
     the cache-disabled fixture. The saving is a fixed ~per-packet amount,
     so it weighs most at small frames where the (unavoidable, size-
     proportional) packet-MAC verify is cheapest. Medians of monotonic
     batch samples keep the comparison out of timer noise. *)
  let fxc = make_br_fixture ~ephid_cache:8192 () in
  let mpps ns = cores /. ns *. 1e3 in
  let cache_rows =
    List.map
      (fun frame ->
        let run fx_ pkt () =
          match Border_router.egress_check fx_.br ~now:now0 pkt with
          | Ok _ -> ()
          | Error e -> failwith (Error.to_string e)
        in
        let uncached = run fx (make_packet fx ~frame) in
        let cached = run fxc (make_packet fxc ~frame) in
        let u = median (latency_samples ~samples ~batch:32 uncached) in
        let c = median (latency_samples ~samples ~batch:32 cached) in
        (frame, u, c))
      [ 64; 512 ]
  in
  let cs = Border_router.ephid_cache_stats fxc.br in
  line "";
  line "validated-EphID cache (steady-state flow, p50 of %d batches):" samples;
  line "%-7s | %12s %12s | %10s %10s | %8s" "size" "uncached ns" "cached ns"
    "unc Mpps" "cache Mpps" "speedup";
  line "%s" (String.make 72 '-');
  List.iter
    (fun (frame, u, c) ->
      line "%5dB | %12.0f %12.0f | %10.2f %10.2f | %7.2fx" frame u c (mpps u)
        (mpps c) (u /. c))
    cache_rows;
  line "cache: %d hits, %d misses, %d invalidations, %d entries" cs.hits
    cs.misses cs.invalidations
    (Border_router.ephid_cache_size fxc.br);

  add_json "br_forwarding"
    (J.Obj
       [
         ( "frames",
           J.List
             (List.map
                (fun (size, apna_ns, ipv4_ns, apna_mpps, apna_gbps) ->
                  J.Obj
                    [
                      ("size_bytes", J.Int size);
                      ("apna_ns_per_pkt", J.Float apna_ns);
                      ("ipv4_ns_per_pkt", J.Float ipv4_ns);
                      ("apna_mpps", J.Float apna_mpps);
                      ("apna_gbps", J.Float apna_gbps);
                    ])
                results) );
         ("stages_ns", J.Obj stages_json);
         ( "obs_overhead",
           J.Obj
             [
               ("egress_ns_disabled", J.Float off_ns);
               ("egress_ns_enabled", J.Float on_ns);
               ("egress_ns_events_enabled", J.Float events_ns);
             ] );
         ( "ephid_cache",
           J.Obj
             [
               ( "frames",
                 J.List
                   (List.map
                      (fun (frame, u, c) ->
                        J.Obj
                          [
                            ("size_bytes", J.Int frame);
                            ("uncached_ns_per_pkt", J.Float u);
                            ("cached_ns_per_pkt", J.Float c);
                            ("uncached_mpps", J.Float (mpps u));
                            ("cached_mpps", J.Float (mpps c));
                            ("speedup", J.Float (u /. c));
                          ])
                      cache_rows) );
               ("hits", J.Int cs.hits);
               ("misses", J.Int cs.misses);
               ("invalidations", J.Int cs.invalidations);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* E3: header overhead (Fig. 7) *)

let e3 () =
  banner "E3" "HEADER-OVERHEAD" "Fig. 7 (header accounting)";
  line "APNA header fields: src AID 4B + src EphID 16B + dst EphID 16B";
  line "+ dst AID 4B + MAC 8B = %dB; EphID = IV 4B + ciphertext 8B + tag 4B"
    Apna_net.Apna_header.size;
  line "";
  line "%-7s | %12s %12s | %12s %12s" "frame" "APNA hdr+enc" "IPv4 hdr"
    "APNA goodput" "IPv4 goodput";
  line "%s" (String.make 64 '-');
  List.iter
    (fun size ->
      (* APNA per-packet cost: header 48 + protocol shim 1 + session frame
         (type 1 + conn 8 + seq 8) + AEAD tag 16. *)
      let apna_over = Apna_net.Apna_header.size + 1 + 17 + Aead.tag_size in
      let ipv4_over = Apna_net.Ipv4_header.size in
      let gp o = float_of_int (size - o) /. float_of_int size *. 100.0 in
      line "%5dB | %11dB %11dB | %11.1f%% %11.1f%%" size apna_over ipv4_over
        (gp apna_over) (gp ipv4_over))
    Apna_workload.Packet_mix.paper_sizes

(* ------------------------------------------------------------------ *)
(* E4: connection establishment latency (§VII-C) *)

let e4 () =
  banner "E4" "CONN-ESTABLISH-RTT" "§VII-C (latency discussion)";
  let run_case name setup =
    let net = Network.create ~seed:("e4-" ^ name) () in
    let _ = Network.add_as net 64500 ~dns_zone:"z" () in
    let _ = Network.add_as net 64502 () in
    Network.connect_as net 64500 64502 ();
    let server =
      Network.add_host net ~as_number:64500 ~name:"srv" ~credential:"s" ()
    in
    let client =
      Network.add_host net ~as_number:64502 ~name:"cli" ~credential:"c" ()
    in
    (match (Host.bootstrap server, Host.bootstrap client) with
    | Ok (), Ok () -> ()
    | _ -> failwith "bootstrap");
    setup net server client
  in
  (* Reference RTT from ping between prewarmed endpoints. *)
  let base_rtt =
    run_case "rtt" (fun net server client ->
        let sep = ref None in
        Host.request_ephid server (fun ep -> sep := Some ep);
        Network.run net;
        let sep = Option.get !sep in
        (* Warm the client's EphID pool so we time the wire, not issuance. *)
        let warmed = ref None in
        Host.request_ephid client (fun ep -> warmed := Some ep);
        Network.run net;
        let rtt = ref nan in
        Host.ping client
          ~dst_aid:(Apna_net.Addr.aid_of_int 64500)
          ~dst_ephid:sep.cert.ephid
          (fun r -> rtt := r);
        Network.run net;
        !rtt)
  in
  (* Case A: host-to-host, data on the first packet (0-RTT, §VII-C). *)
  let first_byte_0rtt =
    run_case "0rtt" (fun net server client ->
        let sep = ref None in
        Host.request_ephid server (fun ep -> sep := Some ep);
        Network.run net;
        let sep = Option.get !sep in
        let t_arrive = ref nan in
        Host.on_data server (fun ~session:_ ~data:_ ->
            t_arrive := Network.now_f net);
        let t0 = Network.now_f net in
        Host.connect client ~remote:sep.cert ~data0:"x" (fun _ -> ());
        Network.run net;
        !t_arrive -. t0)
  in
  (* Case B: client-server via a receive-only EphID, 0-RTT data. *)
  let cs_first_byte, cs_first_reply =
    run_case "cs" (fun net server client ->
        Host.publish server ~name:"svc.z" (fun () -> ());
        Network.run net;
        let dns_cert =
          Dns_service.cert
            (Option.get (As_node.dns (Network.node_exn net 64500)))
        in
        let record = ref None in
        Host.dns_lookup client ~name:"svc.z" ~dns:dns_cert (fun r -> record := r);
        Network.run net;
        let record = Option.get !record in
        let t_arrive = ref nan and t_reply = ref nan in
        Host.on_data server (fun ~session ~data:_ ->
            if Float.is_nan !t_arrive then t_arrive := Network.now_f net;
            ignore (Host.send server session "reply"));
        Host.on_data client (fun ~session:_ ~data:_ ->
            if Float.is_nan !t_reply then t_reply := Network.now_f net);
        let t0 = Network.now_f net in
        Host.connect client ~remote:record.cert ~data0:"request"
          ~expect_accept:record.receive_only (fun _ -> ());
        Network.run net;
        (!t_arrive -. t0, !t_reply -. t0))
  in
  (* Case C: client-server, no 0-RTT (privacy-conservative, 0.5 RTT more):
     data is queued until the server's Accept. *)
  let cs_no0rtt =
    run_case "cs-no0" (fun net server client ->
        Host.publish server ~name:"svc.z" (fun () -> ());
        Network.run net;
        let dns_cert =
          Dns_service.cert
            (Option.get (As_node.dns (Network.node_exn net 64500)))
        in
        let record = ref None in
        Host.dns_lookup client ~name:"svc.z" ~dns:dns_cert (fun r -> record := r);
        Network.run net;
        let record = Option.get !record in
        let t_arrive = ref nan in
        Host.on_data server (fun ~session:_ ~data:_ ->
            if Float.is_nan !t_arrive then t_arrive := Network.now_f net);
        let t0 = Network.now_f net in
        Host.connect client ~remote:record.cert ~data0:""
          ~expect_accept:record.receive_only (fun session ->
            ignore (Host.send client session "request"));
        Network.run net;
        !t_arrive -. t0)
  in
  line "";
  line "%-46s %10s %10s" "scenario" "seconds" "RTTs";
  line "%-46s %10.4f %10.2f" "reference ping RTT" base_rtt 1.0;
  let row name v = line "%-46s %10.4f %10.2f" name v (v /. base_rtt) in
  row "host-to-host, 0-RTT data (first byte at peer)" first_byte_0rtt;
  row "client-server via recv-only, 0-RTT (at server)" cs_first_byte;
  row "client-server, 0-RTT (first reply at client)" cs_first_reply;
  row "client-server, no 0-RTT (first byte at server)" cs_no0rtt;
  line "";
  line "paper: basic 1 RTT (0 with data on first packet); client-server 1.5";
  line "RTT, reducible to 0.5 (no 0-RTT data) or ~0 (0-RTT under the";
  line "recv-only key). EphID issuance round trips inside the source AS are";
  line "included in the rows above."

(* ------------------------------------------------------------------ *)
(* E5: crypto microbenchmarks (Bechamel) *)

let e5 () =
  banner "E5" "CRYPTO-MICRO" "§V-A1 (primitive decomposition)";
  let open Bechamel in
  let open Bechamel.Toolkit in
  let fx = make_br_fixture () in
  let block = String.make 16 'b' in
  let msg1k = String.make 1024 'm' in
  let aes_key = Aes.expand (String.make 16 'k') in
  let aead_key = Aead.of_secret (String.make 32 'K') in
  let nonce = String.make 16 'n' in
  let kp = Ed25519.keypair_of_seed (String.make 32 's') in
  let signature = Ed25519.sign kp "msg" in
  let x_secret = Drbg.generate rng 32 in
  let x_peer = X25519.public_of_secret (Drbg.generate rng 32) in
  let sealed = Aead.seal ~key:aead_key ~nonce msg1k in
  let pkt = make_packet fx ~frame:512 in
  let tests =
    Test.make_grouped ~name:"crypto"
      [
        Test.make ~name:"aes128-block"
          (Staged.stage (fun () -> Aes.encrypt_block aes_key block));
        Test.make ~name:"sha256-1KiB"
          (Staged.stage (fun () -> Sha256.digest msg1k));
        Test.make ~name:"hmac-sha256-1KiB"
          (Staged.stage (fun () -> Hmac.Sha256.mac ~key:"k" msg1k));
        Test.make ~name:"ephid-issue"
          (Staged.stage (fun () ->
               Ephid.issue fx.keys
                 ~hid:(Apna_net.Addr.hid_of_int 1)
                 ~expiry:now0 ~iv:"\x00\x01\x02\x03"));
        Test.make ~name:"ephid-parse"
          (Staged.stage (fun () -> Ephid.parse fx.keys fx.host_ephid));
        Test.make ~name:"aead-seal-1KiB"
          (Staged.stage (fun () -> Aead.seal ~key:aead_key ~nonce msg1k));
        Test.make ~name:"aead-open-1KiB"
          (Staged.stage (fun () -> Aead.open_ ~key:aead_key ~nonce sealed));
        (let gcm_key = Aead.of_secret ~scheme:Aead.Gcm (String.make 32 'K') in
         Test.make ~name:"aead-gcm-seal-1KiB"
           (Staged.stage (fun () -> Aead.seal ~key:gcm_key ~nonce msg1k)));
        Test.make ~name:"pkt-mac-verify-512B"
          (Staged.stage (fun () -> Pkt_auth.verify ~auth_key:fx.host_kha.auth pkt));
        Test.make ~name:"x25519-shared"
          (Staged.stage (fun () -> X25519.scalar_mult ~scalar:x_secret ~point:x_peer));
        Test.make ~name:"ed25519-sign"
          (Staged.stage (fun () -> Ed25519.sign kp "msg"));
        Test.make ~name:"ed25519-verify"
          (Staged.stage (fun () ->
               Ed25519.verify ~pub:(Ed25519.public_key kp) ~msg:"msg" ~signature));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  line "";
  line "%-36s %14s" "primitive" "ns/op";
  line "%s" (String.make 52 '-');
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some (t :: _) -> line "%-36s %14.0f" name t
         | _ -> line "%-36s %14s" name "n/a");
  line "";
  line "paper's decomposition target: EphID issue/parse are a handful of AES";
  line "operations; certificates cost one ed25519 signature; forwarding";
  line "touches only symmetric primitives."

(* ------------------------------------------------------------------ *)
(* E6: revocation list scaling (§VIII-G2) *)

let e6 () =
  banner "E6" "REVOCATION-SCALING" "§VIII-G2 (managing revoked EphIDs)";
  let keys = Keys.make_as rng ~aid:(Apna_net.Addr.aid_of_int 64500) in
  line "";
  line "%-10s | %14s %14s | %12s" "entries" "hit ns" "miss ns" "gc removes/s";
  line "%s" (String.make 58 '-');
  List.iter
    (fun n ->
      let rev = Revocation.create () in
      let samples =
        Array.init 256 (fun i ->
            Ephid.issue_random keys rng
              ~hid:(Apna_net.Addr.hid_of_int (i + 1))
              ~expiry:(now0 + 60))
      in
      for i = 1 to n do
        Revocation.revoke rev
          (Ephid.issue_random keys rng
             ~hid:(Apna_net.Addr.hid_of_int (i land 0xffffff))
             ~expiry:(now0 + 60))
          ~expiry:(now0 + 60)
      done;
      Array.iter (fun e -> Revocation.revoke rev e ~expiry:(now0 + 60)) samples;
      let i = ref 0 in
      let hit_ns =
        time_per_op ~iters:200_000 (fun () ->
            incr i;
            ignore (Revocation.is_revoked rev samples.(!i land 255)))
        *. 1e9
      in
      let miss =
        Ephid.issue_random keys rng ~hid:(Apna_net.Addr.hid_of_int 99)
          ~expiry:now0
      in
      let miss_ns =
        time_per_op ~iters:200_000 (fun () ->
            ignore (Revocation.is_revoked rev miss))
        *. 1e9
      in
      (* All entries expire at now0+60: GC at now0+61 empties the list. *)
      let t0 = Sys.time () in
      let removed = Revocation.gc rev ~now:(now0 + 61) in
      let gc_rate = float_of_int removed /. Float.max 1e-9 (Sys.time () -. t0) in
      line "%-10d | %14.0f %14.0f | %12.2e" n hit_ns miss_ns gc_rate)
    [ 1_000; 10_000; 100_000; 1_000_000 ];
  line "";
  line "shape check: O(1) lookups regardless of list size; expiry-driven GC";
  line "keeps the list bounded, as §VIII-G2 prescribes."

(* ------------------------------------------------------------------ *)
(* E7: EphID granularity ablation (§VIII-A) *)

let e7 () =
  banner "E7" "GRANULARITY-ABLATION" "§VIII-A (four granularities)";
  let flows = 12 and packets_per_flow = 4 in
  let run_granularity granularity =
    let net = Network.create ~seed:"e7" () in
    let _ = Network.add_as net 64500 () in
    let _ = Network.add_as net 64501 () in
    let _ = Network.add_as net 64502 () in
    Network.connect_as net 64500 64501 ();
    Network.connect_as net 64501 64502 ();
    let sender =
      Network.add_host net ~as_number:64500 ~name:"sender" ~credential:"s"
        ~granularity ()
    in
    let receiver =
      Network.add_host net ~as_number:64502 ~name:"recv" ~credential:"r" ()
    in
    (match (Host.bootstrap sender, Host.bootstrap receiver) with
    | Ok (), Ok () -> ()
    | _ -> failwith "bootstrap");
    let rep = ref None in
    Host.request_ephid receiver (fun ep -> rep := Some ep);
    Network.run net;
    let rep = Option.get !rep in
    (* The adversary observes all inter-AS packets (tap at the transit
       link) and records source EphIDs per connection. *)
    let observed : (int64, string list ref) Hashtbl.t = Hashtbl.create 64 in
    Network.set_tap net (fun ~from:_ ~to_:_ pkt ->
        if pkt.proto = Apna_net.Packet.Data then begin
          match Session.Frame.of_bytes pkt.payload with
          | Ok frame ->
              let conn =
                match frame with
                | Session.Frame.Init { conn_id; _ }
                | Session.Frame.Accept { conn_id; _ }
                | Session.Frame.Data { conn_id; _ }
                | Session.Frame.Fin { conn_id; _ }
                | Session.Frame.Rekey { conn_id; _ }
                | Session.Frame.Rekey_ack { conn_id; _ } ->
                    conn_id
              in
              let l =
                match Hashtbl.find_opt observed conn with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.replace observed conn l;
                    l
              in
              l := pkt.header.src_ephid :: !l
          | Error _ -> ()
        end);
    let app_of i = Printf.sprintf "app-%d" (i mod 3) in
    for i = 1 to flows do
      Host.connect sender ~remote:rep.cert ~data0:"p0" ~app:(app_of i)
        (fun session ->
          for p = 1 to packets_per_flow - 1 do
            ignore (Host.send sender session (Printf.sprintf "p%d" p))
          done)
    done;
    Network.run net;
    let conns =
      Hashtbl.fold
        (fun c l acc -> (c, List.sort_uniq compare !l) :: acc)
        observed []
    in
    (* Inter-flow linkability: fraction of connection pairs sharing any
       source EphID (the adversary's flow-correlation success). *)
    let pairs = ref 0 and linked = ref 0 in
    List.iteri
      (fun i (_, ea) ->
        List.iteri
          (fun j (_, eb) ->
            if j > i then begin
              incr pairs;
              if List.exists (fun e -> List.mem e eb) ea then incr linked
            end)
          conns)
      conns;
    let intra =
      (* Intra-flow: can the adversary even group one flow's packets by
         source EphID? *)
      let multi = List.filter (fun (_, e) -> List.length e > 1) conns in
      float_of_int (List.length multi)
      /. float_of_int (max 1 (List.length conns))
    in
    ( Host.ephid_requests_sent sender,
      Management.issued_count (As_node.management (Network.node_exn net 64500)),
      float_of_int !linked /. float_of_int (max 1 !pairs),
      intra,
      List.length conns )
  in
  line "";
  line "%-22s | %10s %9s | %12s %14s" "granularity" "host reqs" "MS load"
    "flow-linkage" "pkt-unlinkable";
  line "%s" (String.make 78 '-');
  List.iter
    (fun (name, g) ->
      let reqs, ms_load, inter, intra, conns = run_granularity g in
      line "%-22s | %10d %9d | %11.0f%% %13.0f%%  (%d flows observed)" name
        reqs ms_load (inter *. 100.0) (intra *. 100.0) conns)
    [
      ("per-flow", Granularity.Per_flow);
      ("per-host", Granularity.Per_host);
      ("per-application", Granularity.Per_application "default");
      ("per-packet", Granularity.Per_packet);
    ];
  line "";
  line "shape check (§VIII-A): per-flow and per-packet defeat flow";
  line "correlation (0%% linkage); per-host is cheapest but fully linkable;";
  line "per-packet additionally splinters flows (packets unlinkable) at the";
  line "price of MS load."

(* ------------------------------------------------------------------ *)
(* E8: replay window (§VIII-D) *)

let e8 () =
  banner "E8" "REPLAY-WINDOW" "§VIII-D (handling replay attacks)";
  let wrng = Apna_sim.Rng.create 99L in
  let stream = 20_000 and jitter = 24 in
  line "";
  line "%-8s | %14s %16s" "window" "legit dropped" "replays accepted";
  line "%s" (String.make 44 '-');
  List.iter
    (fun size ->
      let w = Replay_window.create ~size () in
      (* Reordered delivery: each packet is delayed by a uniform jitter and
         the stream re-sorted by arrival time, which bounds displacement by
         the jitter horizon. A replayed duplicate is injected every 10
         packets. *)
      let keyed =
        Array.init stream (fun i -> (i + Apna_sim.Rng.int wrng jitter, i))
      in
      Array.sort compare keyed;
      let seqs = Array.map snd keyed in
      let legit_dropped = ref 0 and replay_accepted = ref 0 in
      Array.iteri
        (fun i s ->
          if not (Replay_window.check_and_update w (Int64.of_int s)) then
            incr legit_dropped;
          if i mod 10 = 0 then
            if Replay_window.check_and_update w (Int64.of_int s) then
              incr replay_accepted)
        seqs;
      line "%-8d | %13.2f%% %16d" size
        (float_of_int !legit_dropped /. float_of_int stream *. 100.0)
        !replay_accepted)
    [ 1; 8; 32; 64; 256 ];
  line "";
  line "shape check: duplicates are never accepted at any window size; a";
  line "window >= the reordering horizon (%d here) also never drops legit" jitter;
  line "traffic — the paper's nonce-based dedup with bounded state."

(* ------------------------------------------------------------------ *)
(* E9: APIP contrast (§IX) *)

let e9 () =
  banner "E9" "APIP-COMPARISON" "§IX (related work: APIP)";
  let n_packets = 10_000 and whitelist_after = 32 in
  let delegate = Apna_baseline.Apip_sketch.create () in
  let honest_briefs = ref 0 in
  for i = 1 to n_packets do
    (* APIP: the sender briefs until the flow is whitelisted; after that a
       malicious sender can stop (the recursive-verification gap). *)
    if i <= whitelist_after then begin
      Apna_baseline.Apip_sketch.brief delegate ~sender:1
        ~packet:(string_of_int i);
      incr honest_briefs
    end
  done;
  Apna_baseline.Apip_sketch.whitelist delegate ~flow:1;
  let apip_unattributable = n_packets - !honest_briefs in
  line "";
  line "%-44s %14s %16s" "metric (flow of 10,000 packets)" "APIP" "APNA";
  line "%-44s %14s %16s" "in-packet accountability bytes" "0"
    (Printf.sprintf "%dB/pkt" Apna_net.Apna_header.mac_size);
  line "%-44s %14s %16s" "control messages to delegate/AS"
    (Printf.sprintf "%d briefs" !honest_briefs)
    "0";
  line "%-44s %14s %16s" "delegate storage"
    (Printf.sprintf "%dB" (Apna_baseline.Apip_sketch.brief_bytes delegate))
    "0B (stateless)";
  line "%-44s %14d %16d" "packets unattributable if sender cheats"
    apip_unattributable 0;
  line "%-44s %14s %16s" "data privacy" "out of scope" "AEAD + PFS";
  line "";
  line "APNA's per-packet MAC keeps every packet attributable with no";
  line "delegate state — the gap the paper identifies in APIP (§IX)."

(* ------------------------------------------------------------------ *)
(* E10: path-proof shutoff strengthening (§VIII-C) *)

let e10 () =
  banner "E10" "PATH-PROOF" "§VIII-C (strengthening the shutoff protocol)";
  let fx = make_br_fixture () in
  let pkt = make_packet fx ~frame:512 in
  line "";
  line "%-12s | %14s %14s %14s | %16s" "path length" "cold ns/pkt"
    "cached ns/pkt" "bytes/pkt" "verify-claim ns";
  line "%s" (String.make 80 '-');
  List.iter
    (fun hops ->
      let path =
        List.init hops (fun i ->
            let k = Keys.make_as rng ~aid:(Apna_net.Addr.aid_of_int (64501 + i)) in
            (k.aid, k.dh_public))
      in
      let attest_ns =
        time_per_op ~iters:200 (fun () ->
            match Path_proof.attest ~src_keys:fx.keys ~path pkt with
            | Ok _ -> ()
            | Error e -> failwith (Error.to_string e))
        *. 1e9
      in
      (* Steady state: AS-pair keys derived once, cached by the router. *)
      let cached_keys =
        List.map
          (fun (aid, dh_pub) ->
            match Path_proof.pairwise_key fx.keys ~peer_dh_pub:dh_pub with
            | Ok k -> (aid, k)
            | Error e -> failwith (Error.to_string e))
          path
      in
      let cached_ns =
        time_per_op ~iters:10_000 (fun () ->
            ignore (Path_proof.attest_cached ~keys:cached_keys pkt))
        *. 1e9
      in
      let attestations =
        match Path_proof.attest ~src_keys:fx.keys ~path pkt with
        | Ok a -> a
        | Error e -> failwith (Error.to_string e)
      in
      let bytes = String.length (Path_proof.to_bytes attestations) in
      let claimant_aid, claimant_pub = List.hd path in
      let attestation = List.hd attestations in
      let verify_ns =
        time_per_op ~iters:5_000 (fun () ->
            match
              Path_proof.verify_claim ~src_keys:fx.keys ~claimant:claimant_aid
                ~claimant_dh_pub:claimant_pub ~attestation pkt
            with
            | Ok () -> ()
            | Error e -> failwith (Error.to_string e))
        *. 1e9
      in
      line "%-12d | %14.0f %14.0f %14d | %16.0f" hops attest_ns cached_ns bytes
        verify_ns)
    [ 1; 2; 4; 8 ];
  line "";
  line "cost grows linearly with path length (one X25519+HKDF-derived";
  line "pairwise key and one MAC per on-path AS); AS-pair keys are cacheable,";
  line "making the steady-state per-packet cost one MAC per hop."

(* ------------------------------------------------------------------ *)
(* E11: in-network replay filter (§VIII-D future work) *)

let e11 () =
  banner "E11" "REPLAY-FILTER" "§VIII-D (in-network replay detection)";
  line "";
  line "%-12s | %12s | %12s %14s" "bits/gen" "memory" "ns/packet" "fp at 100k";
  line "%s" (String.make 58 '-');
  List.iter
    (fun bits_log2 ->
      let f = Apna.Replay_filter.create ~bits_log2 ~rotate_every_s:1e9 () in
      let i = ref 0 in
      let check_ns =
        time_per_op ~iters:200_000 (fun () ->
            incr i;
            ignore
              (Apna.Replay_filter.check_and_insert f ~now:0.0
                 (string_of_int !i)))
        *. 1e9
      in
      (* FP probe on a filter loaded with 100k entries. *)
      let f2 = Apna.Replay_filter.create ~bits_log2 ~rotate_every_s:1e9 () in
      for j = 0 to 99_999 do
        ignore (Apna.Replay_filter.check_and_insert f2 ~now:0.0 ("l" ^ string_of_int j))
      done;
      let fp = ref 0 in
      let probes = 10_000 in
      for j = 0 to probes - 1 do
        if
          Apna.Replay_filter.check_and_insert f2 ~now:0.0 ("p" ^ string_of_int j)
          = Apna.Replay_filter.Replayed
        then incr fp
      done;
      line "%-12d | %9d KiB | %12.0f %13.2f%%" (1 lsl bits_log2)
        (Apna.Replay_filter.memory_bytes f / 1024)
        check_ns
        (float_of_int !fp /. float_of_int probes *. 100.0))
    [ 18; 20; 22; 24 ];
  line "";
  line "a few hundred ns of constant-time work per packet buys in-network";
  line "replay suppression; sizing the filter for packets-per-rotation";
  line "keeps the false-positive rate negligible — the practicality question";
  line "the paper leaves as future work."

(* ------------------------------------------------------------------ *)
(* E12: whole-network scale simulation *)

let e12 () =
  banner "E12" "NETWORK-SCALE" "end-to-end: all components under load";
  (* A 10-AS topology: 2 transit ASes in a core, 8 edge ASes, 6 hosts per
     edge AS, flows drawn from the calibrated workload model. *)
  let net = Network.create ~seed:"e12" () in
  let core = [ 64500; 64501 ] in
  let edges = List.init 8 (fun i -> 64510 + i) in
  List.iter (fun a -> ignore (Network.add_as net a ())) (core @ edges);
  Network.connect_as net 64500 64501 ();
  List.iteri
    (fun i e -> Network.connect_as net (List.nth core (i mod 2)) e ())
    edges;
  let wrng = Apna_sim.Rng.create 2026L in
  let hosts =
    List.concat_map
      (fun asn ->
        List.init 6 (fun i ->
            let name = Printf.sprintf "h%d-%d" asn i in
            let h = Network.add_host net ~as_number:asn ~name ~credential:name () in
            (match Host.bootstrap h with
            | Ok () -> ()
            | Error e -> failwith (Error.to_string e));
            h))
      edges
  in
  let host_arr = Array.of_list hosts in
  line "topology: %d ASes, %d hosts, %d inter-AS links" (2 + List.length edges)
    (Array.length host_arr)
    (1 + List.length edges);
  (* Every host publishes one data endpoint. *)
  let endpoints = Hashtbl.create 64 in
  Array.iter
    (fun h -> Host.request_ephid h (fun ep -> Hashtbl.replace endpoints (Host.name h) ep))
    host_arr;
  Network.run net;

  let flows = 300 in
  let setup_hist = Apna_obs.Accum.Hist.create ~lo:0.0 ~hi:0.2 () in
  let delivered = ref 0 and established = ref 0 in
  let wall0 = Sys.time () in
  for _ = 1 to flows do
    let src = host_arr.(Apna_sim.Rng.int wrng (Array.length host_arr)) in
    let dst = host_arr.(Apna_sim.Rng.int wrng (Array.length host_arr)) in
    if Host.name src <> Host.name dst then begin
      let (ep : Host.endpoint) = Hashtbl.find endpoints (Host.name dst) in
      let t0 = Network.now_f net in
      let before = List.length (Host.received dst) in
      Host.connect src ~remote:ep.cert ~data0:"payload" (fun _ -> incr established);
      Network.run net;
      if List.length (Host.received dst) > before then begin
        incr delivered;
        Apna_obs.Accum.Hist.add setup_hist (Network.now_f net -. t0)
      end
    end
  done;
  let wall = Sys.time () -. wall0 in
  line "";
  line "flows attempted            : %d" flows;
  line "sessions established       : %d" !established;
  line "first payloads delivered   : %d" !delivered;
  line "time-to-first-byte p50/p99 : %.1f ms / %.1f ms"
    (Apna_obs.Accum.Hist.percentile setup_hist 0.5 *. 1e3)
    (Apna_obs.Accum.Hist.percentile setup_hist 0.99 *. 1e3);
  line "wall time                  : %.2f s (%.0f flows/s simulated)" wall
    (float_of_int flows /. wall);
  (* Aggregate router activity across all ASes. *)
  let fwd = ref 0 and dropped = ref 0 and ok = ref 0 in
  List.iter
    (fun asn ->
      let c = Border_router.counters (As_node.border_router (Network.node_exn net asn)) in
      fwd := !fwd + c.ingress_forwarded;
      dropped := !dropped + c.dropped;
      ok := !ok + c.egress_ok)
    (core @ edges);
  line "router egress accepted     : %d packets" !ok;
  line "router transit forwards    : %d packets" !fwd;
  line "router drops               : %d" !dropped;
  line "";
  line "every flow bootstrapped, acquired EphIDs, established a key and";
  line "delivered encrypted data across a shared 10-AS core with zero drops."

(* ------------------------------------------------------------------ *)
(* E13: control-plane convergence under injected link faults *)

let e13 () =
  banner "E13" "FAULT-SWEEP"
    "loss tolerance of the retransmitting control plane";
  let open Apna_net in
  let losses = [ 0.0; 0.02; 0.05; 0.10; 0.15; 0.20 ] in
  let requests = if !quick then 10 else 40 in
  line "";
  line "%6s %5s %8s %8s %8s %9s %7s %10s" "loss" "conv" "ephid-ok" "ephid-to"
    "retries" "timeouts" "lost" "dup/reord";
  let rows =
    List.map
      (fun loss ->
        let faults =
          Link.make_faults ~loss ~duplicate:(loss /. 2.0) ~reorder:0.1
            ~jitter_ms:1.0 ()
        in
        (* Flight recorder on for the sweep: each row's journeys feed the
           "journeys" JSON section. Cleared per row so counts don't mix. *)
        let ev = Apna_obs.Event.default in
        Apna_obs.Event.clear ev;
        Apna_obs.Event.set_enabled ev true;
        let net =
          Network.create ~seed:(Printf.sprintf "e13-%.2f" loss) ()
        in
        ignore (Network.add_as net 100 ());
        ignore (Network.add_as net 200 ());
        ignore (Network.add_as net 300 ~dns_zone:"example.net" ());
        Network.connect_as net 100 200 ~link:(Link.make ~faults ()) ();
        Network.connect_as net 200 300 ~link:(Link.make ~faults ()) ();
        if loss > 0.0 then
          Network.set_host_faults net (Some (Link.make_faults ~loss ()));
        let alice =
          Network.add_host net ~as_number:100 ~name:"alice" ~credential:"a" ()
        in
        let bob =
          Network.add_host net ~as_number:300 ~name:"bob" ~credential:"b" ()
        in
        (match (Host.bootstrap alice, Host.bootstrap bob) with
        | Ok (), Ok () -> ()
        | _ -> failwith "bootstrap");
        Network.run net;
        (* Server publish, client resolve, session establishment — the
           acceptance flow — plus a batch of EphID issuances. *)
        let published = ref false in
        Host.publish bob ~name:"svc.example.net" (fun () -> published := true);
        Network.run net;
        let dns_cert =
          Dns_service.cert (Option.get (As_node.dns (Network.node_exn net 300)))
        in
        let record = ref None in
        Host.dns_lookup alice ~name:"svc.example.net" ~dns:dns_cert (fun r ->
            record := r);
        Network.run net;
        (match !record with
        | Some r ->
            Host.connect alice ~remote:r.Dns_service.Record.cert
              ~data0:"probe" ~expect_accept:true (fun _ -> ())
        | None -> ());
        let ok = ref 0 and timed_out = ref 0 in
        for _ = 1 to requests do
          Host.request_ephid_r alice (fun result ->
              match result with
              | Ok _ -> incr ok
              | Error _ -> incr timed_out)
        done;
        Network.run net;
        let established =
          List.exists Session.established (Host.sessions alice)
        in
        let retries = Host.rpc_retries alice + Host.rpc_retries bob in
        let timeouts = Host.rpc_timeouts alice + Host.rpc_timeouts bob in
        let link_stats a b =
          Option.get (Network.link_fault_stats net a b)
        in
        let sum f =
          f (link_stats 100 200) + f (link_stats 200 300)
          + f (Network.host_fault_stats net)
        in
        let lost = sum (fun s -> s.Link.lost) in
        let duplicated = sum (fun s -> s.Link.duplicated) in
        let reordered = sum (fun s -> s.Link.reordered) in
        let converged =
          !published
          && !record <> None
          && established
          && !ok + !timed_out = requests
          && Host.pending_rpc_count alice = 0
          && Host.pending_rpc_count bob = 0
        in
        line "%5.0f%% %5s %8d %8d %8d %9d %7d %6d/%-3d" (loss *. 100.0)
          (if converged then "yes" else "NO")
          !ok !timed_out retries timeouts lost duplicated reordered;
        Apna_obs.Event.set_enabled ev false;
        let journeys = Apna_obs.Journey.assemble ev in
        let delivered =
          List.length
            (List.filter
               (fun (j : Apna_obs.Journey.t) ->
                 j.outcome = Apna_obs.Journey.Delivered)
               journeys)
        in
        if Apna_obs.Event.evicted ev > 0 then
          line "        (%d flight-recorder events evicted at %.0f%% loss)"
            (Apna_obs.Event.evicted ev) (loss *. 100.0);
        let journeys_json =
          J.Obj
            [
              ("loss", J.Float loss);
              ("total", J.Int (List.length journeys));
              ("delivered", J.Int delivered);
              ("not_delivered", J.Int (List.length journeys - delivered));
              ("events_recorded", J.Int (Apna_obs.Event.recorded ev));
              ("events_evicted", J.Int (Apna_obs.Event.evicted ev));
              ( "outcomes",
                J.Obj
                  (List.map
                     (fun (label, n) -> (label, J.Int n))
                     (Apna_obs.Journey.summary journeys)) );
            ]
        in
        (* Telemetry phase: with the convergence row measured and its
           journeys banked, pace a data flood through the same faulted
           links with the sampler + alert engine attached. Duplicated
           frames hit the session replay windows (replay-flood), lost
           frames feed the link-loss rate rule — the live-detection
           demonstration of ROADMAP item 4. *)
        let telemetry =
          if loss <= 0.0 then None
          else
            match
              List.find_opt Session.established (Host.sessions alice)
            with
            | None -> None
            | Some s ->
                let tel = Telemetry.attach net in
                let eng = Network.engine net in
                let msgs = 2000 and span_s = 3.0 in
                for i = 0 to msgs - 1 do
                  Apna_sim.Engine.schedule_in eng
                    ~delay:(span_s *. float_of_int i /. float_of_int msgs)
                    (fun () ->
                      ignore (Host.send alice s (Printf.sprintf "f%04d" i)))
                done;
                Network.run net;
                Telemetry.stop tel;
                Some
                  ( Apna_obs.Alert.fired_rules (Telemetry.alerts tel),
                    Telemetry.export tel )
        in
        ( loss,
          J.Obj
            [
              ("loss", J.Float loss);
              ("converged", J.Bool converged);
              ("ephids_ok", J.Int !ok);
              ("ephids_timeout", J.Int !timed_out);
              ("rpc_retries", J.Int retries);
              ("rpc_timeouts", J.Int timeouts);
              ("frames_lost", J.Int lost);
              ("frames_duplicated", J.Int duplicated);
              ("frames_reordered", J.Int reordered);
            ],
          journeys_json,
          converged,
          telemetry ))
      losses
  in
  Apna_obs.Event.clear Apna_obs.Event.default;
  let converged_at p =
    List.exists (fun (l, _, _, c, _) -> l = p && c) rows
  in
  line "";
  if converged_at 0.10 then
    line "acceptance: full control plane converges at 10%% loss via retries"
  else line "ACCEPTANCE FAILURE: control plane did not converge at 10%% loss";
  (* Alert gate: the 10% row's flood must trip both attack signatures. *)
  let fired_at p =
    match List.find_opt (fun (l, _, _, _, _) -> l = p) rows with
    | Some (_, _, _, _, Some (fired, _)) -> fired
    | _ -> []
  in
  let fired10 = fired_at 0.10 in
  List.iter
    (fun (l, _, _, _, t) ->
      match t with
      | Some (fired, _) ->
          line "  telemetry at %2.0f%% loss: rules fired: %s" (l *. 100.0)
            (match List.sort String.compare fired with
            | [] -> "(none)"
            | fs -> String.concat ", " fs)
      | None -> ())
    rows;
  let fired_both =
    List.filter (fun r -> List.mem r fired10) [ "replay-flood"; "link-loss" ]
  in
  let ok = List.length fired_both = 2 in
  gate ~alert:true "E13" "alert.replay-flood+link-loss"
    ~measured:(float_of_int (List.length fired_both))
    ~bound:2.0 ok "replay-flood + link-loss %s at 10%% loss"
    (if ok then "fired" else "did not both fire");
  add_telemetry "fault_sweep"
    (J.Obj
       [
         ( "rows",
           J.List
             (List.filter_map
                (fun (l, _, _, _, t) ->
                  Option.map
                    (fun (fired, _) ->
                      J.Obj
                        [
                          ("loss", J.Float l);
                          ("rules_fired", fired_json fired);
                        ])
                    t)
                rows) );
         ( "timeline_10pct_loss",
           match
             List.find_opt (fun (l, _, _, _, t) -> l = 0.10 && t <> None) rows
           with
           | Some (_, _, _, _, Some (_, export)) -> export
           | _ -> J.Null );
       ]);
  add_json "fault_sweep"
    (J.List (List.map (fun (_, j, _, _, _) -> j) rows));
  add_json "journeys"
    (J.List (List.map (fun (_, _, jj, _, _) -> jj) rows))

(* ------------------------------------------------------------------ *)
(* E14: session survivability across EphID lifetime boundaries *)

let e14 () =
  banner "E14" "LIFETIME-SWEEP"
    "goodput of long sessions across Short (60 s) EphID expiries";
  let open Apna_net in
  let rough =
    Link.make_faults ~loss:0.10 ~duplicate:0.05 ~reorder:0.2 ~jitter_ms:2.0 ()
  in
  (* 3x the Short lifetime of traffic in the full run, ~1x in --quick;
     each unique message goes out 4 times, 600 ms apart, against the loss. *)
  let n = if !quick then 30 else 85 in
  let copies = 4 in
  line "";
  line "%8s %8s %10s %10s %10s %9s %8s" "faults" "goodput" "migrations"
    "recoveries" "brownouts" "breaker" "retries";
  let rows =
    List.map
      (fun (label, link_faults) ->
        let net =
          Network.create ~seed:(Printf.sprintf "e14-%s" label) ()
        in
        ignore (Network.add_as net 100 ());
        ignore (Network.add_as net 200 ());
        ignore (Network.add_as net 300 ());
        let link () =
          match link_faults with
          | Some faults -> Link.make ~faults ()
          | None -> Link.make ()
        in
        Network.connect_as net 100 200 ~link:(link ()) ();
        Network.connect_as net 200 300 ~link:(link ()) ();
        let alice =
          Network.add_host net ~as_number:100 ~name:"alice" ~credential:"a" ()
        in
        let bob =
          Network.add_host net ~as_number:300 ~name:"bob" ~credential:"b" ()
        in
        (match (Host.bootstrap alice, Host.bootstrap bob) with
        | Ok (), Ok () -> ()
        | _ -> failwith "bootstrap");
        Host.set_ephid_lifetime alice Lifetime.Short;
        Network.run net;
        let bep = ref None in
        Host.request_ephid bob ~lifetime:Lifetime.Long ~receive_only:true
          (fun e -> bep := Some e);
        Network.run net;
        (* Receive-only remote: the Init retransmits until bob's Accept, so
           establishment itself survives the injected loss. *)
        let session = ref None in
        Host.connect alice ~remote:(Option.get !bep).Host.cert
          ~expect_accept:true (fun s -> session := Some s);
        Network.run net;
        let session = Option.get !session in
        let eng = Network.engine net in
        for i = 0 to n - 1 do
          let data = Printf.sprintf "m%03d" i in
          for c = 0 to copies - 1 do
            Apna_sim.Engine.schedule_in eng
              ~delay:(10.0 +. (2.0 *. float_of_int i) +. (0.6 *. float_of_int c))
              (fun () -> ignore (Host.send alice session data))
          done
        done;
        Network.run net;
        let got = List.map snd (Host.received bob) in
        let delivered = ref 0 in
        for i = 0 to n - 1 do
          if List.mem (Printf.sprintf "m%03d" i) got then incr delivered
        done;
        let goodput = float_of_int !delivered /. float_of_int n in
        let migrations = Host.migrations alice + Host.migrations bob in
        let recoveries = Host.recoveries alice + Host.recoveries bob in
        let brownouts = Host.brownout_sends alice + Host.brownout_sends bob in
        let opens = Breaker.opens (Host.issuance_breaker alice) in
        let retries = Host.rpc_retries alice + Host.rpc_retries bob in
        line "%8s %7.1f%% %10d %10d %10d %9s %8d" label (goodput *. 100.0)
          migrations recoveries brownouts
          (Breaker.state_label (Breaker.state (Host.issuance_breaker alice)))
          retries;
        ( goodput,
          migrations,
          J.Obj
            [
              ("faults", J.Str label);
              ("messages", J.Int n);
              ("copies", J.Int copies);
              ("delivered", J.Int !delivered);
              ("goodput", J.Float goodput);
              ("migrations", J.Int migrations);
              ("recoveries", J.Int recoveries);
              ("brownout_sends", J.Int brownouts);
              ("breaker_opens", J.Int opens);
              ("stale_prefetch_discards",
               J.Int (Host.stale_prefetch_discards alice));
              ("rpc_retries", J.Int retries);
            ] ))
      [ ("none", None); ("rough", Some rough) ]
  in
  line "";
  (match rows with
  | [ (g0, m0, _); (g1, m1, _) ] ->
      if g0 = 1.0 && g1 = 1.0 && m0 >= 2 && m1 >= 2 then
        line
          "acceptance: sessions crossed >=2 expiry boundaries with zero \
           delivery failures"
      else
        line
          "ACCEPTANCE FAILURE: goodput %.2f/%.2f, migrations %d/%d \
           (want 1.0/1.0 and >=2)"
          g0 g1 m0 m1
  | _ -> ());
  add_json "lifetime_sweep" (J.List (List.map (fun (_, _, j) -> j) rows))

(* ------------------------------------------------------------------ *)
(* E15: warrant storm — bulk lawful intercept racing live traffic.

   A retention-enabled ISP faces a flood of brokered linkage requests
   (deanonymize / bindings-of / attribute-packet, from an LE principal and
   a peer AS) while customer traffic keeps flowing. Sweeps budget capacity
   against a fixed request count and reports broker throughput, refusal
   breakdown, journal growth + chain verification, and the data-plane
   cost of carrying an attached-but-idle broker (gated at +10%). *)

let e15 () =
  banner "E15" "WARRANT-STORM" "brokered linkage under bulk lawful intercept";
  let module B = Apna_broker.Broker in
  let module Budget = Apna_broker.Budget in
  let module Journal = Apna_broker.Journal in
  let le_key = "le-storm-key" and peer_key = "peer-storm-key" in

  (* A retention ISP with one local and one remote customer, plus a pile
     of directly-issued EphIDs so the retention log has real depth. *)
  let build_net () =
    let net = Network.create ~seed:"warrant-storm" () in
    let isp = Network.add_as net 100 ~retention:true () in
    let _ = Network.add_as net 300 () in
    Network.connect_as net 100 300 ();
    let alice =
      Network.add_host net ~as_number:100 ~name:"alice"
        ~credential:"alice@isp" ()
    in
    let bob =
      Network.add_host net ~as_number:300 ~name:"bob" ~credential:"bob" ()
    in
    (match (Host.bootstrap alice, Host.bootstrap bob) with
    | Ok (), Ok () -> ()
    | _ -> failwith "bootstrap failed");
    let bep = ref None in
    Host.request_ephid bob (fun e -> bep := Some e);
    Network.run net;
    (* Live session whose packets race the storm. *)
    let session = ref None in
    Host.connect alice ~remote:(Option.get !bep).cert ~data0:"live"
      (fun s -> session := Some s);
    Network.run net;
    (net, isp, alice, Option.get !session)
  in

  let populate isp ~subscribers ~per_subscriber =
    let mgmt = As_node.management isp in
    let now = now0 in
    let issued = ref [] in
    for s = 0 to subscribers - 1 do
      let hid = Apna_net.Addr.hid_of_int (0x0a100000 + s) in
      for _ = 1 to per_subscriber do
        let ek = Keys.make_ephid_keys rng in
        match
          Management.issue_direct mgmt ~now ~hid ~kx_pub:ek.kx_public
            ~sig_pub:(Ed25519.public_key ek.sig_keypair)
            ~lifetime:Lifetime.Long
        with
        | Ok cert -> issued := (hid, cert.Cert.ephid) :: !issued
        | Error e -> failwith (Error.to_string e)
      done
    done;
    let audit = Option.get (As_node.audit isp) in
    (* Egress evidence for half the issued EphIDs. *)
    List.iteri
      (fun i (_, ephid) ->
        if i mod 2 = 0 then
          Audit.record_egress audit ~now ~ephid
            ~digest:(Printf.sprintf "digest-%d" i))
      !issued;
    Array.of_list (List.rev !issued)
  in

  (* One storm at a given budget capacity: [requests] broker calls (80%
     LE, 20% peer AS) interleaved with live data-plane traffic. *)
  let run_storm ~net ~isp ~alice ~session ~issued ~capacity ~requests =
    let broker =
      B.for_node isp
        ~budget:
          (Budget.create ~epoch_s:3600 ~capacity
             ~refill:(max 1 (capacity / 10)) ())
    in
    let now = Network.now_unix net in
    B.register_requester broker ~id:"le" ~role:B.Law_enforcement ~key:le_key
      ~now;
    B.register_requester broker ~id:"peer" ~role:B.Peer_as ~key:peer_key ~now;
    let pick = Apna_sim.Rng.create (Int64.of_int (0x5702 + capacity)) in
    let n_issued = Array.length issued in
    let grants = ref 0 in
    let refusals = Hashtbl.create 8 in
    let live_sent = ref 0 in
    let t0 = Monotonic_clock.now () in
    for i = 0 to requests - 1 do
      let le = Apna_sim.Rng.float pick < 0.8 in
      let id = if le then "le" else "peer" in
      let key = if le then le_key else peer_key in
      let query =
        let r = Apna_sim.Rng.float pick in
        if le && r < 0.5 then
          B.Request.Deanonymize (snd issued.(Apna_sim.Rng.int pick n_issued))
        else if le && r < 0.7 then
          B.Request.Bindings_of (fst issued.(Apna_sim.Rng.int pick n_issued))
        else
          (* Half the attribution probes name digests that were never
             retained — failed queries are charged too. *)
          B.Request.Attribute_packet
            (Printf.sprintf "digest-%d" (Apna_sim.Rng.int pick (2 * n_issued)))
      in
      let req =
        B.Request.sign ~key ~corr:(Int64.of_int i) ~requester:id ~query
      in
      (match B.handle broker ~now:(Network.now_unix net) req with
      | B.Response.Granted _ -> incr grants
      | B.Response.Refused { reason; _ } ->
          let k = Error.kind_label reason in
          Hashtbl.replace refusals k
            (1 + Option.value ~default:0 (Hashtbl.find_opt refusals k)));
      (* Live traffic races the storm: one data frame per 50 requests. *)
      if i mod 50 = 0 then begin
        (match Host.send alice session (Printf.sprintf "live-%d" i) with
        | Ok () -> incr live_sent
        | Error _ -> ());
        Network.run net
      end
    done;
    let elapsed_ns = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
    let throughput = float_of_int requests /. (elapsed_ns /. 1e9) in
    let j = B.journal broker in
    let verified = Result.is_ok (B.verify_journal broker) in
    gate "E15"
      (Printf.sprintf "journal_chain_verified.cap%d" capacity)
      ~measured:(if verified then 1.0 else 0.0) ~bound:1.0 verified
      "journal chain %s at capacity %d"
      (if verified then "verified" else "broken")
      capacity;
    let refusal_total = Hashtbl.fold (fun _ n a -> n + a) refusals 0 in
    ( capacity, requests, !grants, refusal_total,
      Hashtbl.fold (fun k n a -> (k, n) :: a) refusals [],
      throughput, Journal.appended j, Journal.length j, verified, !live_sent )
  in

  let capacities = if !quick then [ 50; 500 ] else [ 50; 500; 5000 ] in
  let requests = if !quick then 600 else 1500 in
  let net, isp, alice, session = build_net () in
  let issued =
    populate isp
      ~subscribers:(if !quick then 100 else 400)
      ~per_subscriber:5
  in
  line "retention log: %d issuance / %d egress entries, storm of %d requests"
    (Audit.issuance_count (Option.get (As_node.audit isp)))
    (Audit.egress_count (Option.get (As_node.audit isp)))
    requests;
  line "";
  line "%8s | %8s %8s %8s | %10s | %16s %8s | %5s" "capacity" "requests"
    "grants" "refused" "req/s" "journal app/kept" "live" "ok";
  line "%s" (String.make 92 '-');
  let rows =
    List.map
      (fun capacity ->
        let ( cap, reqs, grants, refused, breakdown, rps, appended, kept,
              verified, live ) =
          run_storm ~net ~isp ~alice ~session ~issued ~capacity ~requests
        in
        line "%8d | %8d %8d %8d | %10.0f | %8d %7d | %5d %5s" cap reqs grants
          refused rps appended kept live
          (if verified then "ok" else "BROKEN");
        List.iter (fun (k, n) -> line "%25s- %s: %d" "" k n) breakdown;
        (cap, reqs, grants, refused, breakdown, rps, appended, kept, verified)
      )
      capacities
  in

  (* Data-plane gate: an attached-but-idle broker must not tax the ingress
     path. Same packet, same node, measured with the broker installed
     (above) vs a twin network that never attached one. *)
  let ingress_samples net isp =
    let node300 = Network.node_exn net 300 in
    ignore node300;
    let alice_host =
      List.find (fun h -> Host.name h = "alice") (As_node.hosts isp)
    in
    let kha = Option.get (Host.kha alice_host) in
    let ep = List.hd (Host.endpoints alice_host) in
    let header =
      Apna_net.Apna_header.make
        ~src_aid:(Apna_net.Addr.aid_of_int 300)
        ~src_ephid:(Ephid.to_bytes ep.Host.cert.Cert.ephid)
        ~dst_aid:(Apna_net.Addr.aid_of_int 100)
        ~dst_ephid:(Ephid.to_bytes ep.Host.cert.Cert.ephid)
        ()
    in
    let pkt =
      Pkt_auth.seal ~auth_key:kha.auth
        (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data
           ~payload:(String.make 64 'x'))
    in
    let br = As_node.border_router isp in
    let now = Network.now_unix net in
    latency_samples
      ~samples:(if !quick then 100 else 400)
      ~batch:32
      (fun () -> ignore (Border_router.ingress_check br ~now pkt))
  in
  let p99 samples =
    let s = Array.copy samples in
    Array.sort compare s;
    s.(min (Array.length s - 1) (Array.length s * 99 / 100))
  in
  let with_broker = ingress_samples net isp in
  let net2, isp2, _alice2, _session2 = build_net () in
  ignore net2;
  let without_broker = ingress_samples net2 isp2 in
  let b50 = median without_broker and w50 = median with_broker in
  let b99 = p99 without_broker and w99 = p99 with_broker in
  line "";
  line "data-plane ingress, 64B frames (broker idle vs absent):";
  line "  p50 %.0f ns vs %.0f ns (%+.1f%%), p99 %.0f ns vs %.0f ns" w50 b50
    ((w50 -. b50) /. b50 *. 100.0)
    w99 b99;
  (* 10% gate with a small absolute floor so sub-microsecond timer jitter
     cannot flip CI. *)
  let added = w50 -. b50 and allowed = Float.max (0.10 *. b50) 150.0 in
  gate "E15" "idle_broker_ingress_p50_added_ns" ~measured:added ~bound:allowed
    (not (added > allowed))
    "idle broker added %.0f ns to the cached ingress path (bound max(10%%, 150 ns) = %.0f ns)"
    added allowed;

  (* Telemetry phase: one more storm, this time paced on the event engine
     with the sampler + alert engine attached, against a deliberately tiny
     budget — the broker-budget-drain signature must fire as the budget
     empties (ROADMAP item 4 live detection). *)
  let tel = Telemetry.attach net in
  let drain_broker =
    B.for_node isp ~budget:(Budget.create ~capacity:8 ~refill:1 ())
  in
  B.register_requester drain_broker ~id:"le-drain" ~role:B.Law_enforcement
    ~key:le_key ~now:(Network.now_unix net);
  let eng = Network.engine net in
  let n_issued = Array.length issued in
  let drain_requests = 40 and drain_span = 4.0 in
  for i = 0 to drain_requests - 1 do
    Apna_sim.Engine.schedule_in eng
      ~delay:(drain_span *. float_of_int i /. float_of_int drain_requests)
      (fun () ->
        ignore
          (B.handle drain_broker ~now:(Network.now_unix net)
             (B.Request.sign ~key:le_key
                ~corr:(Int64.of_int (100_000 + i))
                ~requester:"le-drain"
                ~query:
                  (B.Request.Deanonymize (snd issued.(i mod n_issued))))))
  done;
  Network.run net;
  Telemetry.stop tel;
  let drain_fired = Apna_obs.Alert.fired_rules (Telemetry.alerts tel) in
  line "";
  line "telemetry drain storm (%d requests over %.0f s, capacity 8): rules fired: %s"
    drain_requests drain_span
    (match List.sort String.compare drain_fired with
    | [] -> "(none)"
    | fs -> String.concat ", " fs);
  let drained =
    Apna_obs.Alert.has_fired (Telemetry.alerts tel) "broker-budget-drain"
  in
  gate ~alert:true "E15" "alert.broker-budget-drain"
    ~measured:(if drained then 1.0 else 0.0) ~bound:1.0 drained
    "broker-budget-drain %s during the drain"
    (if drained then "fired" else "did not fire");
  add_telemetry "warrant_storm"
    (J.Obj
       [
         ("rules_fired", fired_json drain_fired);
         ("timeline", Telemetry.export tel);
       ]);

  add_json "warrant_storm"
    (J.Obj
       [
         ( "storms",
           J.List
             (List.map
                (fun ( cap, reqs, grants, refused, breakdown, rps, appended,
                       kept, verified ) ->
                  J.Obj
                    [
                      ("budget_capacity", J.Int cap);
                      ("requests", J.Int reqs);
                      ("grants", J.Int grants);
                      ("refusals", J.Int refused);
                      ( "refusals_by_reason",
                        J.Obj
                          (List.map (fun (k, n) -> (k, J.Int n)) breakdown) );
                      ("broker_rps", J.Float rps);
                      ("journal_appended", J.Int appended);
                      ("journal_retained", J.Int kept);
                      ("journal_verified", J.Bool verified);
                    ])
                rows) );
         ( "data_plane",
           J.Obj
             [
               ("idle_broker_p50_ns", J.Float w50);
               ("no_broker_p50_ns", J.Float b50);
               ("idle_broker_p99_ns", J.Float w99);
               ("no_broker_p99_ns", J.Float b99);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* E16: TRACE-SCALE — the §V-A3 claim made measurable (ROADMAP item 1).

   Replays the full 1,266,598-host diurnal trace, time-compressed
   (Trace.compress), through the real stack: every host enters host_info
   via the Registry's bulk-admission path, issuance latency is measured on
   the real encrypted MS wire path (single and batched), and every flow's
   first packet runs the complete border-router egress pipeline at the
   source AS plus the ingress pipeline at the destination AS. A pair of
   full Host.t endpoints (whose prefetcher uses the batch issuance RPC)
   keeps a live session exchanging data frames throughout the replay, and
   periodic checkpoints advance simulated time, revoke a trickle of
   EphIDs and run the Revocation/Audit gcs that PR 7 made O(changes).

   Two deliberate stand-ins keep the replay honest about what it measures:
   the bulk population's data EphIDs are minted directly with the AS keys
   (same wire format, same per-packet pipeline cost; the MS issuance cost
   is measured separately on real sampled requests rather than paid
   1.27 M times), and flows between bulk hosts carry one packet each (the
   per-flow marginal cost; sustained per-packet forwarding is E2's
   measurement).

   Gates: wall-clock flows/s over the peak window must beat the paper's
   3,888 flows/s arrival peak, and p99 per-grant issuance latency plus
   peak live words must stay within 10% of the recorded baseline
   (bench/trace_scale_baseline.json). *)

let g_scale_population =
  M.Gauge.register M.default "apna_scale_population"
    ~help:"Hosts admitted into host_info by the E16 trace replay"

let g_scale_peak_live_words =
  M.Gauge.register M.default "apna_scale_peak_live_words"
    ~help:"Peak live heap words observed during the E16 trace replay"

let g_scale_peak_flows_per_s =
  M.Gauge.register M.default "apna_scale_peak_flows_per_s"
    ~help:"Wall-clock flows/s sustained over the E16 peak window"

let c_scale_flows =
  M.Counter.register M.default "apna_scale_flows_replayed_total"
    ~help:"Flows replayed end-to-end by E16 (egress + ingress checked)"

let trace_scale_baseline_path = "bench/trace_scale_baseline.json"

let e16 () =
  banner "E16" "TRACE-SCALE" "§V-A3: 1,266,598 hosts, 3,888 flows/s peak";
  M.set_enabled M.default true;
  let paper = Apna_workload.Trace.paper_config in
  (* Full tier: the whole paper population, the day compressed 2000x
     (~43 s of simulated time, ~100k flows). Smoke tier: a 40k-host
     slice, the day compressed into 3 s. *)
  let population = if !quick then 40_000 else paper.hosts in
  let factor = if !quick then 28_800.0 else 2_000.0 in
  let cfg =
    Apna_workload.Trace.compress { paper with hosts = population } ~factor
  in
  line "population %d hosts, day compressed %.0fx -> %.1f s window, peak at %.1f s"
    population factor cfg.duration_s cfg.peak_at_s;

  let net = Network.create ~seed:"trace-scale" () in
  let src_as = Network.add_as net 100 ~retention:true ~expected_hosts:population () in
  let dst_as = Network.add_as net 300 () in
  Network.connect_as net 100 300 ();
  let epoch0 = Network.now_unix net in

  (* Phase 1 — bulk admission: the whole population enters the sharded
     registry/host_info through Registry.admit, then gets a data-plane
     EphID minted with the AS keys. Keeping [admissions] and [data_ephids]
     live is what the peak-live-words gauge measures. *)
  let reg = As_node.registry src_as in
  let as_keys = As_node.keys src_as in
  let t0 = Monotonic_clock.now () in
  let admissions =
    Array.init population (fun i ->
        Registry.admit reg ~now:epoch0
          ~credential:(Printf.sprintf "h%d" i)
          ~shared_secret:(Drbg.generate rng 32))
  in
  let admit_s =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
  in
  let data_expiry = epoch0 + (2 * 86_400) in
  let t0 = Monotonic_clock.now () in
  let data_ephids =
    Array.map
      (fun (a : Registry.admission) ->
        Ephid.to_bytes (Ephid.issue_random as_keys rng ~hid:a.hid ~expiry:data_expiry))
      admissions
  in
  let mint_s =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
  in
  M.Gauge.set g_scale_population (float_of_int population);
  Gc.full_major ();
  let live_after_admit = (Gc.stat ()).live_words in
  line "admitted %d hosts in %.1f s (%.0f hosts/s), data EphIDs in %.1f s"
    population admit_s (float_of_int population /. admit_s) mint_s;
  line "live heap after admission: %d words (%.1f words/host)"
    live_after_admit
    (float_of_int live_after_admit /. float_of_int population);
  line "registry shards: %d, customer lookup cost: O(1) (last_lookup_cost=%d)"
    (Host_info.shard_count (As_node.host_info src_as))
    (ignore (Registry.credential_of_hid reg admissions.(0).hid);
     Registry.last_lookup_cost reg);

  (* Phase 2 — issuance latency on the real encrypted wire path, single
     vs batched, over a sample of admitted hosts. Client key generation
     (X25519 + Ed25519 keygen) happens ahead of need in real hosts — the
     prefetcher — so it is excluded from the timed request round. *)
  let ms = As_node.management src_as in
  let batch_size = 8 in
  let samples = if !quick then 40 else 400 in
  let time_round f =
    let t0 = Monotonic_clock.now () in
    f ();
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)
  in
  let single_ns = Array.make samples 0.0 in
  let batch_ns = Array.make samples 0.0 in
  for i = 0 to samples - 1 do
    let a = admissions.(i) in
    let src_ephid = Ephid.to_bytes a.ctrl_ephid in
    let keys1 = Keys.make_ephid_keys rng in
    single_ns.(i) <-
      time_round (fun () ->
          let req =
            Management.Client.make_request ~rng ~corr:(Int64.of_int i)
              ~kha:a.kha ~keys:keys1 ~lifetime:Lifetime.Medium
          in
          match Management.handle_request ms ~now:epoch0 ~src_ephid req with
          | Ok reply -> (
              match Management.Client.read_reply ~kha:a.kha reply with
              | Ok _ -> ()
              | Error e -> failwith (Error.to_string e))
          | Error e -> failwith (Error.to_string e));
    let keys_n = List.init batch_size (fun _ -> Keys.make_ephid_keys rng) in
    batch_ns.(i) <-
      time_round (fun () ->
          let req =
            Management.Client.make_batch_request ~rng ~corr:(Int64.of_int i)
              ~kha:a.kha ~keys:keys_n ~lifetime:Lifetime.Medium
          in
          match Management.handle_request ms ~now:epoch0 ~src_ephid req with
          | Ok reply -> (
              match Management.Client.read_batch_reply ~kha:a.kha reply with
              | Ok certs when List.length certs = batch_size -> ()
              | Ok _ -> failwith "batch reply count mismatch"
              | Error e -> failwith (Error.to_string e))
          | Error e -> failwith (Error.to_string e))
  done;
  let pct arr p =
    let s = Array.copy arr in
    Array.sort compare s;
    s.(min (samples - 1) (samples * p / 100))
  in
  let per_grant arr p = pct arr p /. float_of_int batch_size /. 1e3 in
  let single_p50 = pct single_ns 50 /. 1e3
  and single_p99 = pct single_ns 99 /. 1e3 in
  let grant_p50 = per_grant batch_ns 50 and grant_p99 = per_grant batch_ns 99 in
  line "";
  line "issuance latency over %d sampled requests (encrypted wire path):" samples;
  line "  single grant:              p50 %8.0f us   p99 %8.0f us" single_p50
    single_p99;
  line "  batched, per grant (n=%d): p50 %8.0f us   p99 %8.0f us" batch_size
    grant_p50 grant_p99;
  line "  batch requests served: %d (amortizes envelope + DRBG across %d grants)"
    (Management.batch_request_count ms)
    batch_size;

  (* Live endpoints: a full Host.t pair whose prefetcher refills over the
     batch RPC, with a session that exchanges data frames at every
     checkpoint of the replay. *)
  let alice =
    Network.add_host net ~as_number:100 ~name:"alice" ~credential:"alice@scale" ()
  in
  let bob = Network.add_host net ~as_number:300 ~name:"bob" ~credential:"bob@scale" () in
  (match (Host.bootstrap alice, Host.bootstrap bob) with
  | Ok (), Ok () -> ()
  | _ -> failwith "bootstrap failed");
  let bep = ref None in
  Host.request_ephid bob (fun e -> bep := Some e);
  Network.run net;
  let session = ref None in
  Host.connect alice ~remote:(Option.get !bep).cert ~data0:"scale-live"
    (fun s -> session := Some s);
  Network.run net;
  let session = Option.get !session in
  (* Telemetry rides the replay's checkpoints: each one advances simulated
     time (the sampler ticks through the advance) and re-arms the tick for
     the next stretch. The exported timeline shows the revocation-list
     growth and live-session indicators across the compressed day. *)
  let tel = Telemetry.attach net in

  (* Destination side: a small rack of admitted servers at AS 300 the
     bulk flows address; the ingress pipeline resolves and delivers to
     their HIDs. *)
  let n_servers = 16 in
  let dst_reg = As_node.registry dst_as in
  let dst_keys = As_node.keys dst_as in
  let server_ephids =
    Array.init n_servers (fun i ->
        let a =
          Registry.admit dst_reg ~now:epoch0
            ~credential:(Printf.sprintf "srv%d" i)
            ~shared_secret:(Drbg.generate rng 32)
        in
        Ephid.to_bytes
          (Ephid.issue_random dst_keys rng ~hid:a.hid ~expiry:data_expiry))
  in

  (* Phase 3 — the replay. One packet per flow: header build + host MAC
     seal + egress pipeline at AS 100 + ingress pipeline at AS 300.
     Checkpoints every 1/32 of the window advance simulated time, revoke
     a trickle of data EphIDs, gc the revocation list and the retention
     log, and push a live data frame through the real session. The peak
     window [peak-10%, peak+10%] is timed separately (checkpoints
     deferred while inside it) and gated against the paper's 3,888/s. *)
  let src_br = As_node.border_router src_as in
  let dst_br = As_node.border_router dst_as in
  let audit = Option.get (As_node.audit src_as) in
  let revoked = As_node.revoked src_as in
  let src_aid = Apna_net.Addr.aid_of_int 100 in
  let dst_aid = Apna_net.Addr.aid_of_int 300 in
  let wrng = Apna_sim.Rng.create 1616L in
  let cp_every = cfg.duration_s /. 32.0 in
  let win_lo = cfg.peak_at_s -. (0.10 *. cfg.duration_s)
  and win_hi = cfg.peak_at_s +. (0.10 *. cfg.duration_s) in
  let flows = ref 0
  and drops = ref 0
  and delivered = ref 0
  and live_frames = ref 0
  and revoked_n = ref 0
  and gc_removed = ref 0
  and audit_gc_removed = ref 0 in
  let peak_flows = ref 0 and peak_ns = ref 0.0 and peak_t0 = ref Int64.zero in
  let in_window = ref false in
  let peak_live_words = ref live_after_admit in
  let next_cp = ref cp_every in
  let sim_advanced = ref 0.0 in
  let checkpoint at =
    (* Keep the network clock abreast of trace time for the live pair. *)
    Network.advance_time net (at -. !sim_advanced);
    sim_advanced := at;
    let now = Network.now_unix net in
    (* A trickle of revocations with short expiries: later checkpoints'
       gcs collect them, proving the sweep runs against live load. *)
    for _ = 1 to 2 do
      let v = Apna_sim.Rng.int wrng population in
      Revocation.revoke revoked
        (Result.get_ok (Ephid.of_bytes data_ephids.(v)))
        ~expiry:(now + int_of_float (2.0 *. cp_every) + 1);
      incr revoked_n
    done;
    gc_removed := !gc_removed + Revocation.gc revoked ~now;
    audit_gc_removed := !audit_gc_removed + Audit.gc audit ~now;
    (match Host.send alice session (Printf.sprintf "live-%d" now) with
    | Ok () -> incr live_frames
    | Error _ -> ());
    Telemetry.kick tel;
    Network.run net
  in
  let t_replay = Monotonic_clock.now () in
  Apna_workload.Trace.iter wrng cfg (fun flow ->
      (* Peak-window bracketing (flows arrive in start order). *)
      if (not !in_window) && flow.start >= win_lo && flow.start < win_hi
      then begin
        in_window := true;
        peak_t0 := Monotonic_clock.now ()
      end
      else if !in_window && flow.start >= win_hi then begin
        in_window := false;
        peak_ns :=
          Int64.to_float (Int64.sub (Monotonic_clock.now ()) !peak_t0);
        (* Live-words sample right after the hottest part of the day. *)
        Gc.full_major ();
        peak_live_words := max !peak_live_words (Gc.stat ()).live_words
      end;
      if (not !in_window) && flow.start >= !next_cp then begin
        checkpoint flow.start;
        next_cp := !next_cp +. cp_every
      end;
      let a = admissions.(flow.host) in
      let header =
        Apna_net.Apna_header.make ~src_aid ~src_ephid:data_ephids.(flow.host)
          ~dst_aid
          ~dst_ephid:server_ephids.(flow.host mod n_servers)
          ()
      in
      let pkt =
        Pkt_auth.seal ~auth_key:a.kha.auth
          (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data
             ~payload:"trace-scale flow")
      in
      let now = epoch0 + int_of_float flow.start in
      (match Border_router.egress_check src_br ~now pkt with
      | Ok _ -> (
          match Border_router.ingress_check dst_br ~now pkt with
          | Ok (Border_router.Deliver _) -> incr delivered
          | Ok (Border_router.Forward _) -> failwith "unexpected transit"
          | Error _ -> incr drops)
      | Error _ -> incr drops);
      incr flows;
      if !in_window then incr peak_flows;
      M.Counter.incr c_scale_flows);
  let replay_ns =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t_replay)
  in
  let replay_s = replay_ns /. 1e9 in
  let overall_fps = float_of_int !flows /. replay_s in
  let peak_fps = float_of_int !peak_flows /. (!peak_ns /. 1e9) in
  Gc.full_major ();
  peak_live_words := max !peak_live_words (Gc.stat ()).live_words;
  M.Gauge.set g_scale_peak_live_words (float_of_int !peak_live_words);
  M.Gauge.set g_scale_peak_flows_per_s peak_fps;
  line "";
  line "replayed %d flows in %.1f s wall (%.0f flows/s overall)" !flows
    replay_s overall_fps;
  line "  delivered %d, dropped %d (%d EphIDs revoked mid-replay)" !delivered
    !drops !revoked_n;
  line "  revocation gc removed %d, audit gc removed %d (cost: last sweep %d/%d probes)"
    !gc_removed !audit_gc_removed
    (Revocation.last_gc_cost revoked)
    (Audit.last_gc_cost audit);
  line "  live session: %d data frames interleaved" !live_frames;
  line "  peak window [%.1f, %.1f): %d flows in %.2f s wall = %.0f flows/s"
    win_lo win_hi !peak_flows (!peak_ns /. 1e9) peak_fps;
  line "  peak live heap: %d words (%.1f words/host)" !peak_live_words
    (float_of_int !peak_live_words /. float_of_int population);
  (* Drain: jump past the §VIII-H retention window and the revocation
     expiries, then gc both — the heap-driven sweeps must reclaim a full
     day of retained state in one pass, at a cost proportional to what
     they remove, and the heap must shrink back. *)
  let drain_now = Network.now_unix net + (8 * 86_400) in
  let t0 = Monotonic_clock.now () in
  let drain_audit = Audit.gc audit ~now:drain_now in
  let drain_revoked = Revocation.gc revoked ~now:drain_now in
  let drain_ms =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6
  in
  let audit_drain_cost = Audit.last_gc_cost audit in
  Gc.full_major ();
  let live_after_drain = (Gc.stat ()).live_words in
  (* The population and network must stay live across the stat, or the
     collector reclaims them and the number measures nothing. *)
  ignore (Sys.opaque_identity (net, admissions, data_ephids, server_ephids));
  line "  drain (+8 days): audit gc removed %d (%d probes), revocation gc removed %d, %.1f ms"
    drain_audit audit_drain_cost drain_revoked drain_ms;
  line "  live heap after drain: %d words" live_after_drain;
  let paper_peak = paper.peak_rate in
  gate "E16" "peak_flows_per_s" ~measured:peak_fps ~bound:paper_peak
    (peak_fps >= paper_peak)
    "peak %.0f flows/s vs paper peak %.0f flows/s (%.1fx headroom)" peak_fps
    paper_peak (peak_fps /. paper_peak);

  (* Baseline regression gate: p99 per-grant issuance latency and peak
     live words vs the recorded baseline, 10% tolerance. *)
  let tier = if !quick then "quick" else "full" in
  (match load_baseline trace_scale_baseline_path tier with
  | None -> ()
  | Some num ->
      List.iter
        (fun (key, measured) ->
          Option.iter
            (fun b ->
              gate "E16" ("baseline." ^ key) ~measured ~bound:(1.10 *. b)
                (measured <= 1.10 *. b)
                "%s %.0f vs baseline %.0f (%+.1f%%, bound +10%%)" key measured
                b
                ((measured -. b) /. b *. 100.0))
            (num key))
        [
          ("p99_issuance_us_per_grant", grant_p99);
          ("peak_live_words", float_of_int !peak_live_words);
        ]);

  let section =
    J.Obj
      [
        ("tier", J.Str tier);
        ("population", J.Int population);
        ("compression_factor", J.Float factor);
        ("window_s", J.Float cfg.duration_s);
        ( "admission",
          J.Obj
            [
              ("seconds", J.Float admit_s);
              ("hosts_per_s", J.Float (float_of_int population /. admit_s));
              ("live_words_after", J.Int live_after_admit);
            ] );
        ( "issuance",
          J.Obj
            [
              ("samples", J.Int samples);
              ("batch_size", J.Int batch_size);
              ("single_p50_us", J.Float single_p50);
              ("single_p99_us", J.Float single_p99);
              ("batch_per_grant_p50_us", J.Float grant_p50);
              ("batch_per_grant_p99_us", J.Float grant_p99);
            ] );
        ( "replay",
          J.Obj
            [
              ("flows", J.Int !flows);
              ("wall_s", J.Float replay_s);
              ("flows_per_s", J.Float overall_fps);
              ("delivered", J.Int !delivered);
              ("dropped", J.Int !drops);
              ("revoked_mid_replay", J.Int !revoked_n);
              ("revocation_gc_removed", J.Int !gc_removed);
              ("audit_gc_removed", J.Int !audit_gc_removed);
              ("live_session_frames", J.Int !live_frames);
              ( "drain",
                J.Obj
                  [
                    ("audit_removed", J.Int drain_audit);
                    ("audit_probes", J.Int audit_drain_cost);
                    ("revocation_removed", J.Int drain_revoked);
                    ("wall_ms", J.Float drain_ms);
                    ("live_words_after", J.Int live_after_drain);
                  ] );
            ] );
        ( "peak",
          J.Obj
            [
              ("window_lo_s", J.Float win_lo);
              ("window_hi_s", J.Float win_hi);
              ("flows", J.Int !peak_flows);
              ("wall_s", J.Float (!peak_ns /. 1e9));
              ("flows_per_s", J.Float peak_fps);
              ("paper_peak_flows_per_s", J.Float paper_peak);
            ] );
        ( "memory",
          J.Obj
            [
              ("peak_live_words", J.Int !peak_live_words);
              ( "words_per_host",
                J.Float
                  (float_of_int !peak_live_words /. float_of_int population) );
            ] );
      ]
  in
  Telemetry.tick_now tel;
  Telemetry.stop tel;
  add_telemetry "trace_scale"
    (J.Obj
       [
         ( "rules_fired",
           fired_json (Apna_obs.Alert.fired_rules (Telemetry.alerts tel)) );
         ("timeline", Telemetry.export tel);
       ]);
  add_json "trace_scale" section;
  M.set_enabled M.default false

(* ------------------------------------------------------------------ *)
(* E17: batched fast path — burst vs packet-at-a-time egress at 64B
   (where per-packet overhead weighs most, the Fig. 8 worst case). The
   cached burst row is the allocation headline: steady state must run at
   ~0 GC minor words per packet. Gated in-run (allocs, burst no slower
   than single) and against bench/burst_baseline.json (10%). *)

let burst_baseline_path = "bench/burst_baseline.json"

let e17 () =
  banner "E17" "BURST-PIPELINE" "batched allocation-free egress (DESIGN.md, Batched fast path)";
  M.set_enabled M.default false;
  Apna_obs.Event.set_enabled Apna_obs.Event.default false;
  let n = Border_router.max_burst in
  let frame = 64 in
  let cores = 16.0 in
  let samples = if !quick then 100 else 400 in
  let build ~cached =
    let fx = make_br_fixture ~ephid_cache:(if cached then 8192 else 0) () in
    let pkts = Array.init n (fun _ -> make_packet fx ~frame) in
    (fx, pkts)
  in
  let cached = build ~cached:true and uncached = build ~cached:false in
  let store = Border_router.Burst.create () in
  let run_single (fx, pkts) () =
    for i = 0 to n - 1 do
      match Border_router.egress_check fx.br ~now:now0 pkts.(i) with
      | Ok _ -> ()
      | Error e -> failwith (Error.to_string e)
    done
  in
  let run_burst (fx, pkts) () =
    Border_router.egress_burst fx.br ~now:now0 pkts ~n store;
    for i = 0 to n - 1 do
      match Border_router.Burst.error store i with
      | None -> ()
      | Some e -> failwith (Error.to_string e)
    done
  in
  (* One f () = n packets; median of monotonic batch samples, like E2's
     cache comparison. *)
  let ns_per_pkt f =
    median (latency_samples ~samples ~batch:4 f) /. float_of_int n
  in
  let allocs_per_pkt f =
    f () (* warm: caches filled, burst store grown *);
    let rounds = if !quick then 50 else 200 in
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int (rounds * n)
  in
  let rows =
    [
      ("single cached", run_single cached);
      ("burst  cached", run_burst cached);
      ("single uncached", run_single uncached);
      ("burst  uncached", run_burst uncached);
    ]
    |> List.map (fun (name, f) -> (name, ns_per_pkt f, allocs_per_pkt f))
  in
  let mpps ns = cores /. ns *. 1e3 in
  line "";
  line "%dB frames, bursts of %d, p50 of %d batches:" frame n samples;
  line "%-16s | %10s %10s | %10s" "path" "ns/pkt" "Mpps (16c)" "allocs/pkt";
  line "%s" (String.make 56 '-');
  List.iter
    (fun (name, ns, a) ->
      line "%-16s | %10.0f %10.2f | %10.2f" name ns (mpps ns) a)
    rows;
  let get name =
    let _, ns, a = List.find (fun (r, _, _) -> r = name) rows in
    (ns, a)
  in
  let single_cached_ns, _ = get "single cached" in
  let burst_cached_ns, burst_cached_allocs = get "burst  cached" in
  let single_uncached_ns, _ = get "single uncached" in
  line "";
  line "burst speedup: %.2fx vs single cached, %.2fx vs single uncached (the E2 full pipeline)"
    (single_cached_ns /. burst_cached_ns)
    (single_uncached_ns /. burst_cached_ns);

  (* The allocs-per-packet gauge, demonstrated live: one instrumented
     burst, then read the series back through the registry. *)
  M.set_enabled M.default true;
  run_burst cached ();
  let gauge =
    M.Gauge.register M.default
      ~labels:
        [ ("aid", string_of_int (Apna_net.Addr.aid_to_int (fst cached).keys.aid)) ]
      "apna_br_allocs_per_packet"
  in
  let gauge_v = M.Gauge.value gauge in
  M.set_enabled M.default false;
  line "gauge apna_br_allocs_per_packet after one instrumented burst: %.1f w/pkt" gauge_v;
  line "  (includes what the enabled instrumentation itself allocates)";

  (* In-run gates: the cached burst steady state is allocation-free, and
     batching never costs throughput. *)
  gate "E17" "burst_cached_allocs_per_pkt" ~measured:burst_cached_allocs
    ~bound:0.5
    (not (burst_cached_allocs > 0.5))
    "cached burst allocs/pkt %.2f (bound 0.5)" burst_cached_allocs;
  gate "E17" "burst_vs_single_cached_ns_per_pkt" ~measured:burst_cached_ns
    ~bound:(1.10 *. single_cached_ns)
    (not (burst_cached_ns > 1.10 *. single_cached_ns))
    "burst %.0f ns/pkt vs single-packet %.0f ns/pkt (bound +10%%)"
    burst_cached_ns single_cached_ns;

  (* Regression gate vs the recorded baseline, 10% tolerance on time and
     an absolute margin on the (near-zero) allocation count. *)
  let tier = if !quick then "quick" else "full" in
  (match load_baseline burst_baseline_path tier with
  | None -> ()
  | Some num ->
      Option.iter
        (fun b ->
          gate "E17" "baseline.burst_cached_ns_per_pkt"
            ~measured:burst_cached_ns ~bound:(1.10 *. b)
            (not (burst_cached_ns > 1.10 *. b))
            "cached burst %.0f ns/pkt vs baseline %.0f (%+.1f%%, bound +10%%)"
            burst_cached_ns b
            ((burst_cached_ns -. b) /. b *. 100.0))
        (num "burst_cached_ns_per_pkt");
      Option.iter
        (fun b ->
          gate "E17" "baseline.burst_cached_allocs_per_pkt"
            ~measured:burst_cached_allocs ~bound:(b +. 0.5)
            (not (burst_cached_allocs > b +. 0.5))
            "cached burst allocs/pkt %.2f vs baseline %.2f (bound +0.5)"
            burst_cached_allocs b)
        (num "burst_cached_allocs_per_pkt"));
  let section =
    J.Obj
      [
        ("tier", J.Str tier);
        ("frame_bytes", J.Int frame);
        ("burst_size", J.Int n);
        ( "paths",
          J.Obj
            (List.map
               (fun (name, ns, a) ->
                 ( String.concat "_"
                     (List.filter
                        (fun s -> s <> "")
                        (String.split_on_char ' ' name)),
                   J.Obj
                     [
                       ("ns_per_pkt", J.Float ns);
                       ("mpps_16core", J.Float (mpps ns));
                       ("allocs_per_pkt", J.Float a);
                     ] ))
               rows) );
        ("burst_cached_ns_per_pkt", J.Float burst_cached_ns);
        ("burst_cached_allocs_per_pkt", J.Float burst_cached_allocs);
        ( "speedup_vs_single_cached",
          J.Float (single_cached_ns /. burst_cached_ns) );
        ( "speedup_vs_single_uncached",
          J.Float (single_uncached_ns /. burst_cached_ns) );
        ("allocs_gauge_one_instrumented_burst", J.Float gauge_v);
      ]
  in
  add_json "burst_pipeline" section

(* ------------------------------------------------------------------ *)
(* E18: adversarial-scale accountability (§IV-E, §VIII-G2 under attack) *)

(* One tier of the misbehavior-campaign sweep: a {!Apna_workload.Campaign}
   schedule turns [fraction] of the population malicious, and the four
   behaviors hit the live network simultaneously —

     unwanted-traffic   real bot hosts flood victim endpoints, whose
                        on_data auto-shutoff drives the revocation storm
                        (per-packet bot EphIDs make every grant a fresh
                        revocation-list entry);
     replay-flood       frames the victims already accepted, re-submitted
                        at the attacker border router;
     ephid-bruteforce   random 16-byte EphID guesses at the same router;
     shutoff-spam       forged / duplicate-evidence / expired-evidence
                        requests injected straight into the AA's bounded
                        admission queue.

   The accountability agent runs with deliberately tight limits so the
   storm exercises every hardening layer: the token buckets refuse, the
   bounded queue sheds spam before evidence, drains are budgeted, and
   revocations propagate as batches. Telemetry rides the run; the 1%%
   tier is the acceptance tier (ISSUE: ≥99%% legit delivery, bounded
   backlog with shed > 0, propagation p99 reported, every AA request and
   every border-router drop accounted by reason, shutoff-stall +
   revocation-storm alerts fired and resolved). *)

let e18_tier ~fraction ~acceptance =
  let module W = Apna_workload in
  let aid_of = Apna_net.Addr.aid_of_int in
  let population = 9_000 in
  let trace_cfg =
    {
      W.Trace.paper_config with
      W.Trace.hosts = population;
      peak_rate = 100.0;
      duration_s = 10.0;
      peak_at_s = 5.0;
    }
  in
  let cfg =
    {
      (W.Campaign.default ~trace:trace_cfg ~fraction) with
      W.Campaign.events_per_host = 2.0;
      volume_mean = 10.0;
    }
  in
  let events =
    W.Campaign.generate ~seed:(Printf.sprintf "e18-%.4f" fraction) cfg
  in
  let n_bots = W.Campaign.malicious_count cfg in
  line "";
  line "tier %.1f%%: %d/%d hosts malicious, %d campaign events" (fraction *. 100.0)
    n_bots population (List.length events);
  List.iter
    (fun (label, n) -> line "    %-24s %d events" label n)
    (W.Campaign.count_by_behavior events);
  (* AA policy tuned so the storm lands on the bounded queue rather than
     the token buckets: requester buckets are generous enough that victim
     evidence floods the admission queue, and the budgeted drain (budget /
     interval = 40/s) becomes the bottleneck — grants then run at drain
     speed, which sits above the 25/s revocation-storm threshold, while
     the queue pegs past the 8-deep shutoff-stall threshold. *)
  let aa_limits =
    {
      Accountability.default_limits with
      rate_burst = 128;
      rate_per_s = 32.0;
      queue_cap = 16;
      drain_budget = 12;
      drain_interval_s = 0.25;
    }
  in
  let net =
    Network.create ~seed:(Printf.sprintf "e18-%.4f" fraction) ()
  in
  let n500 = Network.add_as net 64500 ~aa_limits () in
  let n501 = Network.add_as net 64501 ~aa_limits () in
  Network.connect_as net 64500 64501 ();
  let boot h =
    match Host.bootstrap h with
    | Ok () -> h
    | Error e -> failwith ("e18 bootstrap: " ^ Error.to_string e)
  in
  (* Legitimate population: clients in the attacker AS (their traffic
     shares the stormed egress pipeline) talking to servers across the
     inter-AS link — the ≥99% delivery gate. *)
  let n_clients = 10 and n_servers = 3 and n_victims = 4 in
  let clients =
    List.init n_clients (fun i ->
        boot
          (Network.add_host net ~as_number:64500
             ~name:(Printf.sprintf "c%d" i)
             ~credential:(Printf.sprintf "c%d" i) ()))
  in
  let servers =
    List.init n_servers (fun i ->
        boot
          (Network.add_host net ~as_number:64501
             ~name:(Printf.sprintf "s%d" i)
             ~credential:(Printf.sprintf "s%d" i) ()))
  in
  let victims =
    List.init n_victims (fun i ->
        boot
          (Network.add_host net ~as_number:64501
             ~name:(Printf.sprintf "v%d" i)
             ~credential:(Printf.sprintf "v%d" i) ()))
  in
  Network.run net;
  let endpoint_of h =
    let ep = ref None in
    Host.request_ephid h ~lifetime:Lifetime.Long (fun e -> ep := Some e);
    Network.run net;
    match !ep with
    | Some e -> e
    | None -> failwith "e18: endpoint issuance failed"
  in
  let server_eps = List.map endpoint_of servers in
  let victim_eps = List.map endpoint_of victims in
  (* Victim defence + replay capture: every decrypted frame becomes
     shutoff evidence, and a copy feeds the attacker's replay pool (the
     replayed frames are ones the victims really accepted, so their
     session replay windows are the last line of defence). *)
  let shutoff_built = ref 0 in
  let replay_pool : Apna_net.Packet.t list ref = ref [] in
  List.iter
    (fun v ->
      Host.on_data v (fun ~session ~data:_ ->
          match Host.last_packet v session with
          | Some evidence -> (
              replay_pool := evidence :: !replay_pool;
              match Host.request_shutoff v ~session ~evidence with
              | Ok () -> incr shutoff_built
              | Error _ -> ())
          | None -> ()))
    victims;
  (* Real bot hosts only for the unwanted-traffic behavior; replay,
     bruteforce and AA spam are injected at the infrastructure seams the
     way a real attacker would (no cooperating host required). *)
  let bot_tbl : (int, Host.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : W.Campaign.event) ->
      if e.behavior = W.Campaign.Unwanted_traffic
         && not (Hashtbl.mem bot_tbl e.host)
      then
        let b =
          boot
            (Network.add_host net ~as_number:64500
               ~name:(Printf.sprintf "bot%d" e.host)
               ~credential:(Printf.sprintf "bot%d" e.host)
               ~granularity:Granularity.Per_packet ())
        in
        Hashtbl.add bot_tbl e.host b)
    events;
  Network.run net;
  (* Synthetic spam material, prepared up front so injection is cheap.
     Forged requests reuse one spammer cert (burning its token bucket is
     what demotes the tail to the shed-first low-priority queue);
     duplicate spam replays one once-valid request; expired spam quotes
     a source EphID whose validity window has passed. *)
  let rng = Network.rng net in
  let now_setup = Network.now_unix net in
  let keys500 = As_node.keys n500 and keys501 = As_node.keys n501 in
  let spam_victim i =
    let keys = Keys.make_ephid_keys rng in
    let ephid =
      Ephid.issue_random keys501 rng
        ~hid:(Apna_net.Addr.hid_of_int (0x0bf0_0000 + i))
        ~expiry:(now_setup + 3_600)
    in
    let cert =
      Cert.issue keys501 ~ephid ~expiry:(now_setup + 3_600)
        ~kx_pub:keys.kx_public
        ~sig_pub:(Ed25519.public_key keys.sig_keypair)
        ~aa_ephid:ephid
    in
    (cert, keys)
  in
  let spam_evidence ~spam_hid ~spam_kha ~(dst_cert : Cert.t) ~expiry ~payload =
    let src = Ephid.issue_random keys500 rng ~hid:spam_hid ~expiry in
    let header =
      Apna_net.Apna_header.make ~src_aid:(aid_of 64500)
        ~src_ephid:(Ephid.to_bytes src)
        ~dst_aid:(aid_of 64501)
        ~dst_ephid:(Ephid.to_bytes dst_cert.ephid)
        ()
    in
    Pkt_auth.seal
      ~auth_key:(spam_kha : Keys.host_as).auth
      (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload)
  in
  let spam_requests =
    (* host index -> per-event request batches, built in schedule order. *)
    let tbl : (int * int, Msgs.t list) Hashtbl.t = Hashtbl.create 32 in
    let seq = ref 0 in
    List.iter
      (fun (e : W.Campaign.event) ->
        match e.behavior with
        | W.Campaign.Shutoff_spam kind ->
            incr seq;
            let i = !seq in
            let spam_hid = Apna_net.Addr.hid_of_int (0x0af0_0000 + i) in
            let spam_kha =
              Keys.derive_host_as ~shared_secret:(Drbg.generate rng 32)
            in
            Host_info.register (As_node.host_info n500) spam_hid spam_kha;
            let dst_cert, dst_keys = spam_victim i in
            let batch =
              match kind with
              | W.Campaign.Forged ->
                  let rogue = Keys.make_ephid_keys rng in
                  List.init e.volume (fun k ->
                      let pkt =
                        spam_evidence ~spam_hid ~spam_kha ~dst_cert
                          ~expiry:(now_setup + 3_600)
                          ~payload:(Printf.sprintf "forged-%d-%d" i k)
                      in
                      let bytes = Apna_net.Packet.to_bytes pkt in
                      Msgs.Shutoff_request
                        {
                          packet = bytes;
                          signature = Ed25519.sign rogue.sig_keypair bytes;
                          cert = Cert.to_bytes dst_cert;
                        })
              | W.Campaign.Duplicate_evidence ->
                  let pkt =
                    spam_evidence ~spam_hid ~spam_kha ~dst_cert
                      ~expiry:(now_setup + 3_600)
                      ~payload:(Printf.sprintf "dup-%d" i)
                  in
                  let req =
                    Shutoff.make_request ~packet:pkt ~dst_cert ~dst_keys
                  in
                  List.init e.volume (fun _ -> req)
              | W.Campaign.Expired_evidence ->
                  List.init e.volume (fun k ->
                      let pkt =
                        spam_evidence ~spam_hid ~spam_kha ~dst_cert
                          ~expiry:(now_setup - 10)
                          ~payload:(Printf.sprintf "stale-%d-%d" i k)
                      in
                      Shutoff.make_request ~packet:pkt ~dst_cert ~dst_keys)
            in
            Hashtbl.replace tbl (e.host, int_of_float (e.at *. 1_000.0)) batch
        | _ -> ())
      events;
    tbl
  in
  (* Baselines before the storm so every reported number is a delta. *)
  let drop_base =
    List.map
      (fun n -> (n, Border_router.drop_reasons (As_node.border_router n)))
      [ n500; n501 ]
  in
  let dropped_base =
    List.map
      (fun n -> (n, (Border_router.counters (As_node.border_router n)).dropped))
      [ n500; n501 ]
  in
  let m_replay_rejected =
    M.Counter.register M.default "apna_host_replay_rejected_total"
  in
  let replay_rejected_base = M.Counter.value m_replay_rejected in
  let cache0 = Border_router.ephid_cache_stats (As_node.border_router n500) in
  let cache_base = (cache0.hits, cache0.misses, cache0.invalidations) in
  (* Flight recorder on for the campaign: drop forensics by reason. *)
  let ev = Apna_obs.Event.default in
  Apna_obs.Event.clear ev;
  Apna_obs.Event.set_enabled ev true;
  let tel = Telemetry.attach net in
  let eng = Network.engine net in
  (* Legit workload paced across the campaign window. *)
  let legit_sent = ref 0 and msgs_per_client = 25 in
  let window = trace_cfg.W.Trace.duration_s in
  List.iteri
    (fun i c ->
      let ep = List.nth server_eps (i mod n_servers) in
      let session = ref None in
      Host.connect c ~remote:(ep : Host.endpoint).cert
        ~data0:(Printf.sprintf "L-%d-0" i) (fun s -> session := Some s);
      incr legit_sent;
      for k = 1 to msgs_per_client - 1 do
        Apna_sim.Engine.schedule_in eng
          ~delay:(window *. float_of_int k /. float_of_int msgs_per_client)
          (fun () ->
            match !session with
            | Some s -> (
                match Host.send c s (Printf.sprintf "L-%d-%d" i k) with
                | Ok () -> incr legit_sent
                | Error _ -> ())
            | None -> ())
      done)
    clients;
  (* The campaign itself. *)
  let unwanted_sent = ref 0
  and replayed = ref 0
  and bruteforce_sent = ref 0
  and spam_injected = ref 0 in
  let replay_cursor = ref 0 in
  let aa500 = As_node.accountability n500 in
  List.iter
    (fun (e : W.Campaign.event) ->
      match e.behavior with
      | W.Campaign.Unwanted_traffic ->
          let bot = Hashtbl.find bot_tbl e.host in
          let vep = List.nth victim_eps (e.host mod n_victims) in
          Apna_sim.Engine.schedule_in eng ~delay:e.at (fun () ->
              let session = ref None in
              Host.connect bot ~remote:(vep : Host.endpoint).cert
                ~data0:(Printf.sprintf "FLOOD-%d-0" e.host) (fun s ->
                  session := Some s);
              incr unwanted_sent;
              for k = 1 to e.volume - 1 do
                Apna_sim.Engine.schedule_in eng
                  ~delay:(0.03 *. float_of_int k)
                  (fun () ->
                    match !session with
                    | Some s -> (
                        match
                          Host.send bot s (Printf.sprintf "FLOOD-%d-%d" e.host k)
                        with
                        | Ok () -> incr unwanted_sent
                        | Error _ -> ())
                    | None -> ())
              done)
      | W.Campaign.Replay_flood ->
          Apna_sim.Engine.schedule_in eng ~delay:e.at (fun () ->
              let pool = Array.of_list !replay_pool in
              if Array.length pool > 0 then
                for _ = 1 to e.volume do
                  let pkt = pool.(!replay_cursor mod Array.length pool) in
                  incr replay_cursor;
                  As_node.submit n500 pkt;
                  incr replayed
                done)
      | W.Campaign.Ephid_bruteforce ->
          Apna_sim.Engine.schedule_in eng ~delay:e.at (fun () ->
              for _ = 1 to e.volume do
                let header =
                  Apna_net.Apna_header.make ~src_aid:(aid_of 64500)
                    ~src_ephid:(Drbg.generate rng 16)
                    ~dst_aid:(aid_of 64501)
                    ~dst_ephid:(Drbg.generate rng 16)
                    ()
                in
                As_node.submit n500
                  (Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data
                     ~payload:"guess");
                incr bruteforce_sent
              done)
      | W.Campaign.Shutoff_spam _ ->
          let batch =
            try
              Hashtbl.find spam_requests
                (e.host, int_of_float (e.at *. 1_000.0))
            with Not_found -> []
          in
          List.iteri
            (fun k req ->
              Apna_sim.Engine.schedule_in eng
                ~delay:(e.at +. (0.01 *. float_of_int k))
                (fun () ->
                  incr spam_injected;
                  ignore
                    (Accountability.enqueue aa500 ~now:(Network.now_unix net)
                       ~at:(Network.now_f net) req)))
            batch)
    events;
  Network.run net;
  (* Quiet tail: drain the AA queue to empty and keep the sampler
     ticking so the fired alerts can resolve. *)
  for _ = 1 to 6 do
    let grants =
      Accountability.drain aa500 ~now:(Network.now_unix net)
        ~at:(Network.now_f net)
    in
    ignore grants;
    Telemetry.kick tel;
    Network.advance_time net 1.0
  done;
  Telemetry.tick_now tel;
  Telemetry.stop tel;
  Apna_obs.Event.set_enabled ev false;
  (* ---- Measurements ---------------------------------------------- *)
  let legit_delivered =
    List.concat_map (fun s -> List.map snd (Host.received s)) servers
    |> List.filter (fun d -> String.length d > 0 && d.[0] = 'L')
    |> List.length
  in
  let delivery_ratio =
    if !legit_sent = 0 then 1.0
    else float_of_int legit_delivered /. float_of_int !legit_sent
  in
  let unwanted_delivered =
    List.fold_left (fun acc v -> acc + List.length (Host.received v)) 0 victims
  in
  let drop_delta =
    List.map
      (fun (n, base) ->
        let current = Border_router.drop_reasons (As_node.border_router n) in
        List.filter_map
          (fun (reason, count) ->
            let before =
              Option.value ~default:0 (List.assoc_opt reason base)
            in
            if count - before > 0 then Some (reason, count - before) else None)
          current)
      drop_base
  in
  let drops_by_reason =
    (* Merge the two routers' per-reason deltas. *)
    let tbl = Hashtbl.create 8 in
    List.iter
      (List.iter (fun (reason, n) ->
           Hashtbl.replace tbl reason
             (n + Option.value ~default:0 (Hashtbl.find_opt tbl reason))))
      drop_delta;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  let drops_total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 drops_by_reason
  in
  let dropped_counter_delta =
    List.fold_left
      (fun acc (n, base) ->
        acc
        + (Border_router.counters (As_node.border_router n)).dropped
        - base)
      0
      (List.map
         (fun (n, d) -> (n, d))
         dropped_base)
  in
  let replay_rejected =
    M.Counter.value m_replay_rejected - replay_rejected_base
  in
  let granted = Accountability.granted_count aa500
  and refused = Accountability.refused_count aa500
  and shed = Accountability.shed_count aa500
  and queue_end = Accountability.queue_depth aa500
  and queue_peak = Accountability.queue_peak aa500 in
  let aa_requests = !shutoff_built + !spam_injected in
  let aa_accounted = granted + refused + shed + queue_end in
  let samples = List.sort compare (Accountability.propagation_samples aa500) in
  let pctl p =
    match samples with
    | [] -> nan
    | _ ->
        let n = List.length samples in
        List.nth samples
          (min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))
  in
  let cache = Border_router.ephid_cache_stats (As_node.border_router n500) in
  let b_hits, b_misses, b_inval = cache_base in
  let hits = cache.hits - b_hits
  and misses = cache.misses - b_misses
  and invalidations = cache.invalidations - b_inval in
  let hit_ratio =
    if hits + misses = 0 then nan
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let revoked_size = Revocation.size (As_node.revoked n500) in
  let journeys = Apna_obs.Journey.assemble ev in
  let drop_report = Apna_obs.Journey.drop_report journeys in
  let alerts = Telemetry.alerts tel in
  let fired = Apna_obs.Alert.fired_rules alerts in
  let fired_and_resolved name =
    Apna_obs.Alert.has_fired alerts name
    && List.for_all
         (fun i ->
           (Apna_obs.Alert.rule i).Apna_obs.Alert.name <> name
           ||
           match Apna_obs.Alert.state i with
           | Apna_obs.Alert.Firing _ -> false
           | _ -> true)
         (Apna_obs.Alert.instances alerts)
  in
  (* ---- Report ----------------------------------------------------- *)
  line "  legit delivery        %d/%d (%.2f%%)" legit_delivered !legit_sent
    (delivery_ratio *. 100.0);
  line "  malicious injected    %d unwanted, %d replayed, %d bruteforce, %d AA spam"
    !unwanted_sent !replayed !bruteforce_sent !spam_injected;
  line "  evidence delivered    %d frames to victims -> %d shutoff requests built"
    unwanted_delivered !shutoff_built;
  line "  AA ledger             %d requests = %d granted + %d refused + %d shed (queue end %d, peak %d/%d)"
    aa_requests granted refused shed queue_end queue_peak
    aa_limits.Accountability.queue_cap;
  List.iter
    (fun (reason, n) -> line "    refused %-18s %d" reason n)
    (Accountability.refusal_reasons aa500);
  line "  BR drops              %d total" drops_total;
  List.iter
    (fun (reason, n) -> line "    dropped %-18s %d" reason n)
    drops_by_reason;
  line "  replay-window rejects %d" replay_rejected;
  line "  shutoff propagation   p50 %.3f s, p99 %.3f s (%d samples)"
    (pctl 0.50) (pctl 0.99) (List.length samples);
  line "  revocation list       %d entries; EphID cache %.1f%% hit (%d/%d, %d invalidations)"
    revoked_size
    (hit_ratio *. 100.0)
    hits (hits + misses) invalidations;
  line "  alerts fired          %s"
    (match List.sort String.compare fired with
    | [] -> "(none)"
    | fs -> String.concat ", " fs);
  if Apna_obs.Event.evicted ev > 0 then
    line "  (flight recorder evicted %d events; journey forensics cover the newest window)"
      (Apna_obs.Event.evicted ev);
  (match drop_report with
  | [] -> ()
  | report ->
      line "  journey drop forensics (last good hop / reason / journeys):";
      List.iteri
        (fun i ((hop, reason), n) ->
          if i < 6 then line "    %-28s %-16s %d" hop reason n)
        report);
  (* ---- Acceptance gates (1% tier) --------------------------------- *)
  if acceptance then begin
    let queue_cap = aa_limits.Accountability.queue_cap in
    let injected = !bruteforce_sent + !replayed
    and contained = drops_total + replay_rejected in
    gate "E18" "legit_delivery_ratio" ~measured:delivery_ratio ~bound:0.99
      (delivery_ratio >= 0.99)
      "legit cross-AS delivery %.2f%% under attack (bound >= 99%%)"
      (delivery_ratio *. 100.0);
    gate "E18" "aa_queue_peak" ~measured:(float_of_int queue_peak)
      ~bound:(float_of_int queue_cap)
      (shed > 0 && queue_peak <= queue_cap)
      "AA backlog peak %d vs cap %d, %d shed (bound: peak <= cap, shed > 0)"
      queue_peak queue_cap shed;
    gate "E18" "aa_ledger_accounted" ~measured:(float_of_int aa_accounted)
      ~bound:(float_of_int aa_requests)
      (aa_requests = aa_accounted)
      "AA ledger: %d requests vs %d granted+refused+shed+queued"
      aa_requests aa_accounted;
    gate "E18" "br_drops_typed" ~measured:(float_of_int drops_total)
      ~bound:(float_of_int dropped_counter_delta)
      (drops_total = dropped_counter_delta)
      "%d BR drops, %d carry a typed reason" dropped_counter_delta drops_total;
    gate "E18" "bruteforce_replay_contained" ~measured:(float_of_int contained)
      ~bound:(float_of_int injected) (contained >= injected)
      "bruteforce+replay: %d injected, %d dropped/rejected" injected contained;
    gate "E18" "shutoff_propagation_samples"
      ~measured:(float_of_int (List.length samples))
      ~bound:1.0 (samples <> [])
      "shutoff propagation: %d samples, p99 %.3f s" (List.length samples)
      (pctl 0.99);
    List.iter
      (fun rule ->
        let ok = fired_and_resolved rule in
        gate ~alert:true "E18" ("alert." ^ rule)
          ~measured:(if ok then 1.0 else 0.0) ~bound:1.0 ok "%s %s" rule
          (if ok then "fired and resolved"
           else
             Printf.sprintf "did not fire and resolve (fired=%b)"
               (Apna_obs.Alert.has_fired alerts rule)))
      [ "shutoff-stall"; "revocation-storm" ]
  end;
  let row =
    J.Obj
      [
        ("fraction", J.Float fraction);
        ("population", J.Int population);
        ("bots", J.Int n_bots);
        ( "events_by_behavior",
          J.Obj
            (List.map
               (fun (l, n) -> (l, J.Int n))
               (W.Campaign.count_by_behavior events)) );
        ( "injected",
          J.Obj
            [
              ("unwanted", J.Int !unwanted_sent);
              ("replayed", J.Int !replayed);
              ("bruteforce", J.Int !bruteforce_sent);
              ("aa_spam", J.Int !spam_injected);
            ] );
        ( "legit",
          J.Obj
            [
              ("sent", J.Int !legit_sent);
              ("delivered", J.Int legit_delivered);
              ("delivery_ratio", J.Float delivery_ratio);
            ] );
        ( "aa",
          J.Obj
            [
              ("requests", J.Int aa_requests);
              ("granted", J.Int granted);
              ("refused", J.Int refused);
              ("shed", J.Int shed);
              ("queue_peak", J.Int queue_peak);
              ("queue_cap", J.Int aa_limits.Accountability.queue_cap);
              ( "refusals_by_reason",
                J.Obj
                  (List.map
                     (fun (r, n) -> (r, J.Int n))
                     (Accountability.refusal_reasons aa500)) );
            ] );
        ( "propagation_s",
          J.Obj
            [
              ("p50", J.Float (pctl 0.50));
              ("p99", J.Float (pctl 0.99));
              ("samples", J.Int (List.length samples));
            ] );
        ( "forensics",
          J.Obj
            [
              ("evidence_delivered", J.Int unwanted_delivered);
              ( "br_drops_by_reason",
                J.Obj
                  (List.map (fun (r, n) -> (r, J.Int n)) drops_by_reason) );
              ("br_drops_total", J.Int drops_total);
              ("replay_window_rejects", J.Int replay_rejected);
              ( "journey_drop_report",
                J.List
                  (List.map
                     (fun ((hop, reason), n) ->
                       J.Obj
                         [
                           ("last_good_hop", J.Str hop);
                           ("reason", J.Str reason);
                           ("journeys", J.Int n);
                         ])
                     drop_report) );
            ] );
        ( "revocation",
          J.Obj
            [
              ("list_size", J.Int revoked_size);
              ("cache_hit_ratio", J.Float hit_ratio);
              ("cache_hits", J.Int hits);
              ("cache_misses", J.Int misses);
              ("cache_invalidations", J.Int invalidations);
            ] );
        ("rules_fired", fired_json fired);
        ( "rules_resolved",
          J.List
            (List.filter_map
               (fun r -> if fired_and_resolved r then Some (J.Str r) else None)
               fired) );
      ]
  in
  Apna_obs.Event.clear ev;
  (row, fired, Telemetry.export tel)

let e18 () =
  banner "E18" "ATTACK-CAMPAIGN"
    "§IV-E shutoff and §VIII-G2 escalation under misbehavior storms";
  let tiers = if !quick then [ 0.01 ] else [ 0.001; 0.01; 0.05 ] in
  let rows =
    List.map
      (fun fraction ->
        let row, fired, export = e18_tier ~fraction ~acceptance:(fraction = 0.01) in
        (fraction, row, fired, export))
      tiers
  in
  add_json "attack_campaign"
    (J.List (List.map (fun (_, row, _, _) -> row) rows));
  add_telemetry "attack_campaign"
    (J.Obj
       [
         ( "rows",
           J.List
             (List.map
                (fun (fraction, _, fired, _) ->
                  J.Obj
                    [
                      ("fraction", J.Float fraction);
                      ("rules_fired", fired_json fired);
                    ])
                rows) );
         ( "timeline_1pct",
           match List.find_opt (fun (f, _, _, _) -> f = 0.01) rows with
           | Some (_, _, _, export) -> export
           | None -> J.Null );
       ]);
  M.set_enabled M.default false

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1);
    ("E2", e2);
    ("E3", e3);
    ("E4", e4);
    ("E5", e5);
    ("E6", e6);
    ("E7", e7);
    ("E8", e8);
    ("E9", e9);
    ("E10", e10);
    ("E11", e11);
    ("E12", e12);
    ("E13", e13);
    ("E14", e14);
    ("E15", e15);
    ("E16", e16);
    ("E17", e17);
    ("E18", e18);
  ]

let json_path = "BENCH_results.json"

(* The one results document (schema apna-bench/2): every experiment's
   section, every gate row, the telemetry timelines and the metrics
   registry. *)
let write_json selected =
  let doc =
    J.Obj
      [
        ("schema", J.Str "apna-bench/2");
        ("quick", J.Bool !quick);
        ("experiments_run", J.List (List.map (fun id -> J.Str id) selected));
        ("experiments", J.Obj (List.rev !json_sections));
        ( "gates",
          J.List
            (List.rev_map
               (fun g ->
                 J.Obj
                   [
                     ("experiment", J.Str g.experiment);
                     ("name", J.Str g.name);
                     ("measured", J.Float g.measured);
                     ("bound", J.Float g.bound);
                     ("ok", J.Bool g.ok);
                   ])
               !gates) );
        ("telemetry", J.Obj (List.rev !telemetry_sections));
        ("metrics", M.to_json M.default);
      ]
  in
  let text = J.to_string ~pretty:true doc in
  let oc = open_out json_path in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  (* Self-check: the file we just wrote must parse back. *)
  let ic = open_in_bin json_path in
  let read_back = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match J.parse read_back with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "%s does not parse: %s" json_path e));
  line "";
  line "wrote %s (%d bytes, parse-checked)" json_path (String.length read_back)

let usage bad =
  Printf.eprintf "unknown argument %s\nusage: main.exe [--quick] [%s ...]\n"
    bad
    (String.concat "|" (List.map fst experiments));
  exit 2

let () =
  Logs.set_level (Some Logs.Error);
  let args = List.tl (Array.to_list Sys.argv) in
  quick := List.mem "--quick" args;
  let ids = List.filter (( <> ) "--quick") args in
  List.iter (fun a -> if not (List.mem_assoc a experiments) then usage a) ids;
  let selected =
    match ids with
    | _ :: _ -> ids
    | [] -> if !quick then [ "E2" ] else List.map fst experiments
  in
  line "APNA benchmark harness (one section per paper table/figure)";
  List.iter (fun id -> (List.assoc id experiments) ()) selected;
  write_json selected;
  if List.exists (fun g -> not g.ok) !gates then begin
    line "one or more bench gates FAILED";
    exit 1
  end
