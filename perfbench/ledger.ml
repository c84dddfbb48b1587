(* The traced run's per-layer spans. Nothing is traced inside lib/: each
   span is taken here, around a call into one layer's public function,
   replaying the stages one data packet goes through on its way from the
   sending host to the receiving host. The replay packet carries its own
   ledger EphIDs (issued to the same two hosts by their own ASes), so it
   takes the same border-router path as the live packets. *)

open Apna
open Common

(* Span names, in packet order. The first group adds up to the packet's
   send-to-deliver cost; [children] are stages inside the border router's
   egress check, timed apart and not added. *)
let path =
  [
    "session.seal_ns";
    "packet.codec_ns";
    "pkt_auth.seal_ns";
    "border_router.egress_ns";
    "topology.next_hop_ns";
    "border_router.transit_ns";
    "border_router.ingress_ns";
    "engine.event_ns";
    "session.open_ns";
  ]

let children = [ "pkt_auth.verify_ns"; "ephid.parse_ns"; "host_info.find_ns" ]

let control =
  [ "trust.verify_cert_ns"; "management.issue_ns"; "session.create_ns" ]

(* Engine events one flow packet schedules: host-to-router access hop and
   two inter-AS links (delivery to the host is synchronous). *)
let events_per_pkt = 3

type spans = { calib : Calib.t; bufs : (string, Tbuf.t) Hashtbl.t }

let spans calib = { calib; bufs = Hashtbl.create 32 }

let add s name ns =
  let b =
    match Hashtbl.find_opt s.bufs name with
    | Some b -> b
    | None ->
        let b = Tbuf.create s.calib in
        Hashtbl.replace s.bufs name b;
        b
  in
  Tbuf.push b (float ns)

(* Calibrated median of a span, given the run's block factors. *)
let med s factors name =
  match Hashtbl.find_opt s.bufs name with
  | Some b -> median (Tbuf.cal b factors)
  | None -> nan

type ctx = {
  net : Network.t;
  from_node : As_node.t;
  transit : As_node.t;
  to_node : As_node.t;
  sender_hid : Apna_net.Addr.hid;
  receiver_hid : Apna_net.Addr.hid;
  auth_key : string;
  tx : Session.t;
  rx : Session.t;
  conn_id : int64;
  src_ephid : string;
  dst_ephid : string;
  tx_keys : Keys.ephid_keys;
  tx_cert : Cert.t;
  rx_cert : Cert.t;
  engine : Apna_sim.Engine.t;
}

let issue node ~now ~hid keys =
  match
    Management.issue_direct (As_node.management node) ~now ~hid
      ~kx_pub:keys.Keys.kx_public
      ~sig_pub:(Apna_crypto.Ed25519.public_key keys.Keys.sig_keypair)
      ~lifetime:Lifetime.Long
  with
  | Ok c -> c
  | Error e -> fail "ledger issuance: %s" (Error.to_string e)

let get what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Error.to_string e)

(* A replay context for packets from [sender] (attached to [from_node]) to
   [receiver] (attached to [to_node]). *)
let make ~net ~from_node ~sender ~transit ~to_node ~receiver =
  let rng = Apna_crypto.Drbg.create ~seed:"perfbench/ledger" in
  let now = Network.now_unix net in
  let sender_hid = host_hid from_node sender in
  let receiver_hid = host_hid to_node receiver in
  let tx_keys = Keys.make_ephid_keys rng and rx_keys = Keys.make_ephid_keys rng in
  let tx_cert = issue from_node ~now ~hid:sender_hid tx_keys in
  let rx_cert = issue to_node ~now ~hid:receiver_hid rx_keys in
  let conn_id = 0x5eedL in
  let tx =
    get "ledger session"
      (Session.create ~conn_id ~initiator:true ~local_cert:tx_cert
         ~local_keys:tx_keys ~remote_cert:rx_cert ())
  in
  let rx =
    get "ledger session"
      (Session.create ~conn_id ~initiator:false ~local_cert:rx_cert
         ~local_keys:rx_keys ~remote_cert:tx_cert ())
  in
  let auth_key =
    match Host.kha sender with
    | Some k -> k.Keys.auth
    | None -> fail "%s has no kHA" (Host.name sender)
  in
  {
    net;
    from_node;
    transit;
    to_node;
    sender_hid;
    receiver_hid;
    auth_key;
    tx;
    rx;
    conn_id;
    src_ephid = Ephid.to_bytes tx_cert.Cert.ephid;
    dst_ephid = Ephid.to_bytes rx_cert.Cert.ephid;
    tx_keys;
    tx_cert;
    rx_cert;
    engine = Apna_sim.Engine.create ();
  }

let noop () = ()

(* Replays one data packet's life layer by layer; [false] if any stage
   gave another verdict than the live path must. *)
let replay_packet c (s : spans) payload =
  let src_aid = As_node.aid c.from_node and dst_aid = As_node.aid c.to_node in
  let now = Network.now_unix c.net in
  let t0 = now_ns () in
  let seq, sealed = Session.seal c.tx payload in
  let t1 = now_ns () in
  let frame =
    Session.Frame.to_bytes (Session.Frame.Data { conn_id = c.conn_id; seq; sealed })
  in
  let header =
    Apna_net.Apna_header.make ~src_aid ~src_ephid:c.src_ephid ~dst_aid
      ~dst_ephid:c.dst_ephid ()
  in
  let pkt = Apna_net.Packet.make ~header ~proto:Apna_net.Packet.Data ~payload:frame in
  let t2 = now_ns () in
  let pkt = Pkt_auth.seal ~auth_key:c.auth_key pkt in
  let t3 = now_ns () in
  let egress = Border_router.egress_check (As_node.border_router c.from_node) ~now pkt in
  let t4 = now_ns () in
  let hop =
    Apna_net.Topology.next_hop (Network.topology c.net) ~src:src_aid ~dst:dst_aid
  in
  let t5 = now_ns () in
  let transit = Border_router.ingress_check (As_node.border_router c.transit) ~now pkt in
  let t6 = now_ns () in
  let ingress = Border_router.ingress_check (As_node.border_router c.to_node) ~now pkt in
  let t7 = now_ns () in
  let decoded = Session.Frame.of_bytes pkt.Apna_net.Packet.payload in
  let t8 = now_ns () in
  let opened =
    match decoded with
    | Ok (Session.Frame.Data { seq; sealed; _ }) -> Session.open_sealed c.rx ~seq ~sealed
    | _ -> Error (Error.Malformed "ledger frame")
  in
  let t9 = now_ns () in
  for _ = 1 to events_per_pkt do
    Apna_sim.Engine.schedule_in c.engine ~delay:0.0002 noop;
    ignore (Apna_sim.Engine.step c.engine)
  done;
  let t10 = now_ns () in
  let verified = Pkt_auth.verify ~auth_key:c.auth_key pkt in
  let t11 = now_ns () in
  let parsed = Ephid.parse_bytes (As_node.keys c.from_node) c.src_ephid in
  let t12 = now_ns () in
  let found = Host_info.find (As_node.host_info c.from_node) c.sender_hid in
  let t13 = now_ns () in
  add s "session.seal_ns" (t1 - t0);
  add s "packet.codec_ns" (t2 - t1 + (t8 - t7));
  add s "pkt_auth.seal_ns" (t3 - t2);
  add s "border_router.egress_ns" (t4 - t3);
  add s "topology.next_hop_ns" (t5 - t4);
  add s "border_router.transit_ns" (t6 - t5);
  add s "border_router.ingress_ns" (t7 - t6);
  add s "session.open_ns" (t9 - t8);
  add s "engine.event_ns" ((t10 - t9) / events_per_pkt);
  add s "pkt_auth.verify_ns" (t11 - t10);
  add s "ephid.parse_ns" (t12 - t11);
  add s "host_info.find_ns" (t13 - t12);
  let hid_ok h = Apna_net.Addr.hid_equal h in
  (match egress with Ok h -> hid_ok h c.sender_hid | Error _ -> false)
  && Option.equal Apna_net.Addr.aid_equal hop (Some (As_node.aid c.transit))
  && (match transit with
     | Ok (Border_router.Forward a) -> Apna_net.Addr.aid_equal a dst_aid
     | _ -> false)
  && (match ingress with
     | Ok (Border_router.Deliver h) -> hid_ok h c.receiver_hid
     | _ -> false)
  && (match opened with Ok d -> String.equal d payload | Error _ -> false)
  && verified && Result.is_ok parsed && Result.is_ok found

(* Replays the control-plane work one connection pays: certificate
   verification, EphID issuance and session-key derivation. *)
let replay_control c (s : spans) =
  let now = Network.now_unix c.net in
  let t0 = now_ns () in
  let verified = Trust.verify_cert (Network.trust c.net) ~now c.rx_cert in
  let t1 = now_ns () in
  let issued =
    Management.issue_direct (As_node.management c.from_node) ~now
      ~hid:c.sender_hid ~kx_pub:c.tx_keys.Keys.kx_public
      ~sig_pub:(Apna_crypto.Ed25519.public_key c.tx_keys.Keys.sig_keypair)
      ~lifetime:Lifetime.Long
  in
  let t2 = now_ns () in
  let session =
    Session.create ~conn_id:c.conn_id ~initiator:true ~local_cert:c.tx_cert
      ~local_keys:c.tx_keys ~remote_cert:c.rx_cert ()
  in
  let t3 = now_ns () in
  add s "trust.verify_cert_ns" (t1 - t0);
  add s "management.issue_ns" (t2 - t1);
  add s "session.create_ns" (t3 - t2);
  Result.is_ok verified && Result.is_ok issued && Result.is_ok session

(* Every span as a per-layer metric, given a span's calibrated median. *)
let timings med =
  List.map
    (fun name -> m name "ns" (med name))
    ([ "host.send_ns"; "network.run_ns" ] @ path @ children @ control
   @ [ "host.connect_ns" ])

let replay_problems failed =
  if failed = 0 then []
  else [ Printf.sprintf "%d ledger replays gave a wrong verdict" failed ]

(* A path stage's cost per packet: a span's median times how often one
   packet pays it. *)
let per_packet med name =
  if name = "engine.event_ns" then float events_per_pkt *. med name else med name

let path_sum med = List.fold_left (fun acc name -> acc +. per_packet med name) 0.0 path

(* ns per layer and its share of the measured send-to-deliver cost; flags
   a coverage outside 0.9-1.1 and names what the gap holds. A report, not
   a gate. *)
let print_table ~workload med ~outer =
  out "ledger (%s, traced run, calibrated median ns per packet):\n" workload;
  List.iter
    (fun name ->
      let v = per_packet med name in
      out "  %-28s %10.0f  %5.1f%%\n" name v (100.0 *. v /. outer))
    path;
  List.iter
    (fun name ->
      out "    inside egress: %-17s %10.0f\n" name (med name))
    children;
  let inner = path_sum med in
  out "  %-28s %10.0f\n" "sum of layers" inner;
  out "  %-28s %10.0f  (host.send + network.run)\n" "measured" outer;
  let coverage = inner /. outer in
  if coverage < 0.9 || coverage > 1.1 then
    out
      "  ledger.coverage %.3f OUTSIDE 0.9-1.1: %.0f ns per packet %s\n" coverage
      (Float.abs (outer -. inner))
      (if coverage < 1.0 then
         "unmeasured (host frame dispatch and session tables, link \
          bookkeeping in Network, the receiver's on_data path, GC)"
       else "over-counted (replayed stages cost more in isolation than inline)")
  else out "  ledger.coverage %.3f\n" coverage;
  coverage
