(* Shared machinery: the clock, sample buffers, kernel calibration, the
   3-AS world every workload runs on, and the run result. *)

open Apna

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable unboxed float buffer: pushing a sample allocates nothing. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let length b = b.n
  let to_array b = Array.sub b.a 0 b.n
end

(* Nearest-rank quantile. *)
let quantile xs q =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median xs = quantile xs 0.5

(* ------------------------------------------------------------------ *)
(* Calibration.

   Host contention on a shared machine moves raw timings by tens of
   percent within and between runs. The frozen SHA-256 kernel slows down
   with it, so kernel samples taken between fixed-count blocks of work
   measure how fast the host is running right then. Every time-based
   sample is scaled by [(k_ref / k) ** alpha], with [k] the median of the
   kernel samples within [Calib.window] blocks of the block that produced
   it: single samples are noisy, and a factor that jumps from block to
   block would widen the latency tails it scales. *)

(* Kernel ns per KiB on the reference host (2-vCPU x86-64 VM, OCaml 5.1,
   no flambda); set once, never re-tuned per run. *)
let k_ref = 25000.0

(* About 2 ms of kernel work per slice on the reference host. *)
let slice_kib = 96

let kernel_sink = ref 0

let kernel_slice () =
  let t0 = now_ns () in
  kernel_sink := !kernel_sink lxor Perfbench_kernel.Kernel.run ~kib:slice_kib;
  float (now_ns () - t0) /. float slice_kib

(* Median of three slices: a stall hitting one slice does not count. *)
let kernel_sample () =
  let a = kernel_slice () in
  let b = kernel_slice () in
  let c = kernel_slice () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

module Calib = struct
  type t = { ks : Fbuf.t; mutable block : int }

  (* Kernel sample [b] precedes block [b]; [tick] closes the current
     block with the sample that follows it. *)
  let start () =
    let ks = Fbuf.create () in
    Fbuf.push ks (kernel_sample ());
    { ks; block = 0 }

  let tick c =
    Fbuf.push c.ks (kernel_sample ());
    c.block <- c.block + 1

  let kernel_ns_per_kib c = median (Fbuf.to_array c.ks)

  (* Kernel samples a factor is smoothed over on each side: blocks last
     ~50 ms, so the window spans ~0.5 s. *)
  let window = 5

  (* One factor per closed block: [(k_ref / k) ** alpha], where [alpha]
     is how strongly the workload's own speed follows the kernel's. *)
  let factors c ~alpha =
    let ks = Fbuf.to_array c.ks in
    let n = Array.length ks in
    Array.init (max 0 (n - 1)) (fun b ->
        let lo = max 0 (b - window) and hi = min (n - 1) (b + 1 + window) in
        (k_ref /. median (Array.sub ks lo (hi - lo + 1))) ** alpha)
end

(* Timed samples, each tagged with the calibration block it fell in (block
   numbers are stored as floats, exact far beyond any run's count). *)
module Tbuf = struct
  type t = { calib : Calib.t; v : Fbuf.t; blk : Fbuf.t }

  let create calib = { calib; v = Fbuf.create (); blk = Fbuf.create () }

  let push t x =
    Fbuf.push t.v x;
    Fbuf.push t.blk (float t.calib.Calib.block)

  let length t = Fbuf.length t.v
  let raw t = Fbuf.to_array t.v

  let cal t factors =
    Array.init (Fbuf.length t.v) (fun i ->
        t.v.Fbuf.a.(i) *. factors.(int_of_float t.blk.Fbuf.a.(i)))

  let sum = Array.fold_left ( +. ) 0.0
  let total t = sum (raw t)
  let total_cal t factors = sum (cal t factors)
end

(* Runs [f] as one calibration block and records its duration. *)
let timed calib (times : Tbuf.t) f =
  let t0 = now_ns () in
  let r = f () in
  Tbuf.push times (float (now_ns () - t0));
  Calib.tick calib;
  r

(* Runs [n] operations in blocks of [block], each block its own
   calibration block; [op i] runs operation [i] and returns [false] if it
   failed. Block durations go to [times]; returns the failure count. *)
let blocks calib times ~block ~n ~op =
  let failed = ref 0 and i = ref 0 in
  while !i < n do
    let stop = min n (!i + block) in
    timed calib times (fun () ->
        for j = !i to stop - 1 do
          if not (op j) then incr failed
        done);
    i := stop
  done;
  !failed

(* ------------------------------------------------------------------ *)
(* The world: a 3-AS line (source edge, transit, destination edge) with
   default 10 Gbps / 5 ms links, no faults, observability off. *)

let src_as = 64500
let transit_as = 64501
let dst_as = 64502
let zone = "bench.example"

type world = {
  net : Network.t;
  src : As_node.t;
  transit : As_node.t;
  dst : As_node.t;
  mutable hosts : Host.t list;
}

let build_world ~seed =
  let net = Network.create ~seed:(Printf.sprintf "perfbench/%d" seed) () in
  let src = Network.add_as net src_as () in
  let transit = Network.add_as net transit_as () in
  let dst = Network.add_as net dst_as ~dns_zone:zone () in
  Network.connect_as net src_as transit_as ();
  Network.connect_as net transit_as dst_as ();
  { net; src; transit; dst; hosts = [] }

let fail fmt = Printf.ksprintf failwith fmt

let add_host w ~as_number name =
  let h = Network.add_host w.net ~as_number ~name ~credential:name () in
  (match Host.bootstrap h with
  | Ok () -> ()
  | Error e -> fail "bootstrap %s: %s" name (Error.to_string e));
  w.hosts <- h :: w.hosts;
  h

let nodes w = [ w.src; w.transit; w.dst ]

(* The HID behind a host, recovered from its control EphID. *)
let host_hid node h =
  match Host.ctrl_ephid h with
  | None -> fail "%s has no control EphID" (Host.name h)
  | Some e -> (
      match Ephid.parse (As_node.keys node) e with
      | Ok info -> info.Ephid.hid
      | Error e -> fail "control EphID: %s" (Error.to_string e))

(* Counters read through public accessors, before and after a phase. *)
type snapshot = {
  hits : int;
  misses : int;
  invalidations : int;
  issued : int;
  revocations : int;
  minor_words : float;
  major_collections : int;
}

let snapshot w =
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 (nodes w) in
  let cache n = Border_router.ephid_cache_stats (As_node.border_router n) in
  let minor_words = Gc.minor_words () in
  {
    hits = sum (fun n -> (cache n).hits);
    misses = sum (fun n -> (cache n).misses);
    invalidations = sum (fun n -> (cache n).invalidations);
    issued = sum (fun n -> Management.issued_count (As_node.management n));
    revocations = sum (fun n -> Revocation.generation (As_node.revoked n));
    minor_words;
    major_collections = (Gc.quick_stat ()).major_collections;
  }

let delta a b =
  {
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    invalidations = b.invalidations - a.invalidations;
    issued = b.issued - a.issued;
    revocations = b.revocations - a.revocations;
    minor_words = b.minor_words -. a.minor_words;
    major_collections = b.major_collections - a.major_collections;
  }

let hit_ratio d =
  float d.hits /. float (max 1 (d.hits + d.misses + d.invalidations))

(* The work counts a seed must reproduce exactly; [per] names the
   allocation ratio and its denominator. *)
let work_counts ~n ~failed ~heap ~per:(name, ops) d =
  [
    ("attempted", float n);
    ("failed", float failed);
    (name, d.minor_words /. float (max 1 ops));
    ("peak_heap_mb", heap);
    ("cache.hits", float d.hits);
    ("cache.misses", float d.misses);
    ("cache.invalidations", float d.invalidations);
    ("management.issued", float d.issued);
    ("revocation.changes", float d.revocations);
  ]

let rpc_retries w = List.fold_left (fun a h -> a + Host.rpc_retries h) 0 w.hosts

(* On these fault-free workloads any drop, retry, timeout, unreachable or
   dangling round trip is a defect. *)
let health w =
  let drops =
    List.concat_map
      (fun n ->
        List.map
          (fun (reason, c) ->
            Printf.sprintf "AS%d border router dropped %d (%s)"
              (Apna_net.Addr.aid_to_int (As_node.aid n)) c reason)
          (Border_router.drop_reasons (As_node.border_router n)))
      (nodes w)
  in
  let host h =
    List.filter_map
      (fun (what, v) ->
        if v = 0 then None else Some (Printf.sprintf "%s: %s = %d" (Host.name h) what v))
      [
        ("rpc_retries", Host.rpc_retries h);
        ("rpc_timeouts", Host.rpc_timeouts h);
        ("unreachable_total", Host.unreachable_total h);
        ("pending_rpc_count", Host.pending_rpc_count h);
      ]
  in
  drops @ List.concat_map host w.hosts

let peak_heap_mb () =
  float ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Seeded input bytes. *)
let random_string rng len =
  String.init len (fun _ -> Char.chr (Apna_sim.Rng.int rng 256))

(* ------------------------------------------------------------------ *)
(* Run results *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  problems : string list;  (** correctness defects; empty when correct *)
  end_to_end : metric list;
  per_layer : metric list;
  counts : (string * float) list;
      (** values that must repeat exactly for a given seed *)
}

(* The human-readable report; the caller prints it ahead of the JSON
   line. *)
let report = Buffer.create 4096
let out fmt = Printf.bprintf report fmt

(* What an untraced run measured, raw and calibrated (times in ns). *)
type measured = {
  kernel : float;  (** median kernel ns per KiB over the run *)
  setup_raw : float array;  (** one total per set-up *)
  setup_cal : float array;
  pkts : int;  (** data packets delivered to applications *)
  bytes : int;  (** their application payload bytes *)
  pkt_raw : float;  (** time the packets took *)
  pkt_cal : float;
  deliver_raw : float array;  (** send-to-deliver latency per packet *)
  deliver_cal : float array;
  conns : int;  (** connections completed *)
  conn_raw : float;  (** time the connections took *)
  conn_cal : float;
  conn_lat_raw : float array;  (** connect-to-done latency per connection *)
  conn_lat_cal : float array;
}

(* The end-to-end metrics: prints each raw figure next to its calibrated
   one and the kernel speed they were scaled by, and returns the
   calibrated ones. *)
let end_to_end (x : measured) ~heap =
  let us q a = quantile a q /. 1e3 in
  let rate count t = float count /. (t /. 1e9) in
  let mbps t = float (x.bytes * 8) /. (t /. 1e9) /. 1e6 in
  let metrics =
    [
      ("setup_s", "s", median x.setup_raw /. 1e9, median x.setup_cal /. 1e9);
      ("pkts_per_s", "1/s", rate x.pkts x.pkt_raw, rate x.pkts x.pkt_cal);
      ("goodput_mbps", "Mbit/s", mbps x.pkt_raw, mbps x.pkt_cal);
      ("deliver_p50_us", "us", us 0.5 x.deliver_raw, us 0.5 x.deliver_cal);
      ("conns_per_s", "1/s", rate x.conns x.conn_raw, rate x.conns x.conn_cal);
      ("conn_p50_us", "us", us 0.5 x.conn_lat_raw, us 0.5 x.conn_lat_cal);
    ]
  in
  List.iter
    (fun (name, unit_, raw, cal) ->
      out "  %-22s raw %12.2f  calibrated %12.2f %-7s (kernel %.1f ns/KiB)\n"
        name raw cal unit_ x.kernel)
    metrics;
  m "peak_heap_mb" "MB" heap
  :: List.map (fun (name, unit_, _, cal) -> m name unit_ cal) metrics

(* Latency tails, calibrated. Host preemption puts them 6-30% apart
   between runs even calibrated, more than any end-to-end bound may allow,
   so they are reported as unbounded per-layer figures. *)
let tails (x : measured) =
  [
    m "tail.deliver_p99_us" "us" (quantile x.deliver_cal 0.99 /. 1e3);
    m "tail.conn_p90_us" "us" (quantile x.conn_lat_cal 0.9 /. 1e3);
  ]
