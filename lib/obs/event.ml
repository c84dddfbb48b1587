(* Packet flight recorder: typed lifecycle events in a bounded ring
   (default-off, fixed ring, global seq counter). A stage is an event
   that also carries its start time. *)

type fate = Delivered | Lost | Duplicated | Reordered | Queue_drop

type egress_outcome = Egress_ok | Egress_drop of string

type ingress_outcome =
  | Ingress_deliver
  | Ingress_forward of int
  | Ingress_drop of string

type kind =
  | Host_send of { aid : int; host : string }
  | Br_egress of { aid : int; outcome : egress_outcome }
  | Link_transit of { src : int; dst : int; fate : fate }
  | Br_ingress of { aid : int; outcome : ingress_outcome }
  | Deliver of { aid : int; hid : int }
  | Gw_encap of { gateway : string }
  | Gw_decap of { gateway : string }
  | Shutoff of { aid : int }
  | Migrate of { aid : int; host : string; reason : string }
  | Broker_decision of { aid : int; granted : bool; query : string }
  | Alert_state of { rule : string; series : string; state : string }
  | Rpc_retransmit of { host : string; what : string; attempt : int }

type record = {
  key : int64;
  time : float;
  start : float option;
  seq : int;
  kind : kind;
}

let dummy =
  { key = 0L; time = 0.0; start = None; seq = -1; kind = Shutoff { aid = 0 } }

type sink = {
  mutable on : bool;
  mutable clock : unit -> float;
  ring : record array;
  mutable written : int;
}

let create_sink ?(capacity = 16384) ?(enabled = false) () =
  if capacity <= 0 then invalid_arg "Event.create_sink: capacity must be > 0";
  { on = enabled; clock = Sys.time; ring = Array.make capacity dummy; written = 0 }

let default = create_sink ()
let set_enabled t on = t.on <- on
let enabled t = t.on
let set_clock t clock = t.clock <- clock

let start t = if t.on then t.clock () else Float.nan

let record t ?(start = Float.nan) ~key kind =
  if t.on then begin
    let start = if Float.is_nan start then None else Some start in
    let r = { key; time = t.clock (); start; seq = t.written; kind } in
    t.ring.(t.written mod Array.length t.ring) <- r;
    t.written <- t.written + 1
  end

(* FNV-1a, 64-bit. *)
let key_of_string s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let recorded t = t.written
let capacity t = Array.length t.ring
let evicted t = max 0 (t.written - Array.length t.ring)

let to_list t =
  let cap = Array.length t.ring in
  let retained = min t.written cap in
  List.init retained (fun i ->
      (* oldest retained record first *)
      t.ring.((t.written - retained + i) mod cap))

let by_key t key = List.filter (fun r -> Int64.equal r.key key) (to_list t)

let clear t =
  t.written <- 0;
  Array.fill t.ring 0 (Array.length t.ring) dummy

let fate_label = function
  | Delivered -> "delivered"
  | Lost -> "lost"
  | Duplicated -> "duplicated"
  | Reordered -> "reordered"
  | Queue_drop -> "queue-drop"

let stage_label = function
  | Host_send _ -> "host.send"
  | Br_egress _ -> "br.egress"
  | Link_transit _ -> "link.transit"
  | Br_ingress _ -> "br.ingress"
  | Deliver _ -> "deliver"
  | Gw_encap _ -> "gw.encap"
  | Gw_decap _ -> "gw.decap"
  | Shutoff _ -> "shutoff"
  | Migrate _ -> "host.migrate"
  | Broker_decision _ -> "broker.decide"
  | Alert_state _ -> "alert"
  | Rpc_retransmit _ -> "host.rpc.retransmit"

let where = function
  | Host_send { aid; _ }
  | Br_egress { aid; _ }
  | Br_ingress { aid; _ }
  | Deliver { aid; _ }
  | Shutoff { aid }
  | Migrate { aid; _ }
  | Broker_decision { aid; _ } ->
      Printf.sprintf "AS%d" aid
  | Link_transit { src; dst; _ } -> Printf.sprintf "AS%d->AS%d" src dst
  | Gw_encap { gateway } | Gw_decap { gateway } -> "gw:" ^ gateway
  | Alert_state { series; _ } -> "alerts:" ^ series
  | Rpc_retransmit { host; _ } -> "host:" ^ host

let describe = function
  | Host_send { aid; host } -> Printf.sprintf "host %s @ AS%d" host aid
  | Br_egress { aid; outcome = Egress_ok } -> Printf.sprintf "ok @ AS%d" aid
  | Br_egress { aid; outcome = Egress_drop reason } ->
      Printf.sprintf "DROP [%s] @ AS%d" reason aid
  | Link_transit { src; dst; fate } ->
      Printf.sprintf "AS%d -> AS%d %s" src dst (fate_label fate)
  | Br_ingress { aid; outcome = Ingress_deliver } ->
      Printf.sprintf "deliver-local @ AS%d" aid
  | Br_ingress { aid; outcome = Ingress_forward next } ->
      Printf.sprintf "forward -> AS%d @ AS%d" next aid
  | Br_ingress { aid; outcome = Ingress_drop reason } ->
      Printf.sprintf "DROP [%s] @ AS%d" reason aid
  | Deliver { aid; hid } -> Printf.sprintf "to host %#x @ AS%d" hid aid
  | Gw_encap { gateway } -> Printf.sprintf "encap @ gw:%s" gateway
  | Gw_decap { gateway } -> Printf.sprintf "decap @ gw:%s" gateway
  | Shutoff { aid } -> Printf.sprintf "shutoff executed @ AS%d" aid
  | Migrate { aid; host; reason } ->
      Printf.sprintf "session migrated by host %s [%s] @ AS%d" host reason aid
  | Broker_decision { aid; granted; query } ->
      Printf.sprintf "broker %s [%s] @ AS%d"
        (if granted then "grant" else "refusal")
        query aid
  | Alert_state { rule; series; state } ->
      Printf.sprintf "alert %s -> %s on %s" rule state series
  | Rpc_retransmit { host; what; attempt } ->
      Printf.sprintf "host %s resent %s (attempt %d)" host what attempt

let stage_summary t =
  let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r.start with
      | None -> ()
      | Some t0 ->
          let stage = stage_label r.kind in
          let n, total =
            match Hashtbl.find_opt tbl stage with
            | Some cell -> cell
            | None ->
                let cell = (ref 0, ref 0.0) in
                Hashtbl.replace tbl stage cell;
                cell
          in
          incr n;
          total := !total +. (r.time -. t0))
    (to_list t);
  Hashtbl.fold
    (fun stage (n, total) acc -> (stage, !n, !total /. float_of_int !n) :: acc)
    tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
