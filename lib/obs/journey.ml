type outcome =
  | Delivered
  | Dropped_at of { stage : string; reason : string }
  | Lost_on_link of { src : int; dst : int; fate : Event.fate }
  | In_flight

type t = { key : int64; events : Event.record list; outcome : outcome }

(* An event that terminates (this copy of) the packet. *)
let failed (r : Event.record) =
  match r.kind with
  | Event.Br_egress { outcome = Event.Egress_drop _; _ }
  | Event.Br_ingress { outcome = Event.Ingress_drop _; _ }
  | Event.Link_transit { fate = Event.Lost | Event.Queue_drop; _ } ->
      true
  | _ -> false

let classify events =
  let reached =
    List.exists
      (fun (r : Event.record) ->
        match r.kind with Event.Deliver _ | Event.Gw_decap _ -> true | _ -> false)
      events
  in
  if reached then Delivered
  else
    match List.rev events with
    | [] -> In_flight
    | last :: _ -> (
        match last.Event.kind with
        | Event.Br_egress { outcome = Event.Egress_drop reason; _ } ->
            Dropped_at { stage = "br.egress"; reason }
        | Event.Br_ingress { outcome = Event.Ingress_drop reason; _ } ->
            Dropped_at { stage = "br.ingress"; reason }
        | Event.Link_transit
            { src; dst; fate = (Event.Lost | Event.Queue_drop) as fate } ->
            Lost_on_link { src; dst; fate }
        | _ -> In_flight)

let of_events events =
  let tbl : (int64, Event.record list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (r : Event.record) ->
      match (r.kind, Hashtbl.find_opt tbl r.Event.key) with
      | Event.Rpc_retransmit _, _ -> ()
      | _, Some acc -> acc := r :: !acc
      | _, None ->
          Hashtbl.replace tbl r.Event.key (ref [ r ]);
          order := r.Event.key :: !order)
    events;
  List.rev_map
    (fun key ->
      let events =
        List.sort
          (fun (a : Event.record) (b : Event.record) -> compare a.seq b.seq)
          (List.rev !(Hashtbl.find tbl key))
      in
      { key; events; outcome = classify events })
    !order

let assemble sink = of_events (Event.to_list sink)
let find journeys key = List.find_opt (fun j -> Int64.equal j.key key) journeys

let outcome_label = function
  | Delivered -> "delivered"
  | Dropped_at { stage; reason } ->
      Printf.sprintf "dropped at %s [%s]" stage reason
  | Lost_on_link { src; dst; fate } ->
      Printf.sprintf "%s on link AS%d->AS%d" (Event.fate_label fate) src dst
  | In_flight -> "in-flight"

let summary journeys =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun j ->
      let label = outcome_label j.outcome in
      Hashtbl.replace tbl label (1 + Option.value ~default:0 (Hashtbl.find_opt tbl label)))
    journeys;
  Hashtbl.fold (fun label n acc -> (label, n) :: acc) tbl []
  |> List.sort (fun (la, na) (lb, nb) ->
         match compare nb na with 0 -> compare la lb | c -> c)

let last_good_hop j =
  let rec scan acc = function
    | [] -> acc
    | r :: rest -> scan (if failed r then acc else Some r) rest
  in
  match scan None j.events with
  | None -> "(origin)"
  | Some (r : Event.record) ->
      Printf.sprintf "%s @ %s" (Event.stage_label r.kind) (Event.where r.kind)

let drop_report journeys =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun j ->
      let reason =
        match j.outcome with
        | Delivered | In_flight -> None
        | Dropped_at { reason; _ } -> Some reason
        | Lost_on_link { fate; _ } -> Some (Event.fate_label fate)
      in
      match reason with
      | None -> ()
      | Some reason ->
          let key = (last_good_hop j, reason) in
          (match Hashtbl.find_opt tbl key with
          | Some n -> Hashtbl.replace tbl key (n + 1)
          | None ->
              Hashtbl.replace tbl key 1;
              order := key :: !order))
    journeys;
  List.rev_map (fun key -> (key, Hashtbl.find tbl key)) !order
  |> List.sort (fun (ka, na) (kb, nb) ->
         match compare nb na with 0 -> compare ka kb | c -> c)

let render j =
  let b = Buffer.create 256 in
  let t0 = match j.events with [] -> 0.0 | r :: _ -> r.Event.time in
  let tn = match List.rev j.events with [] -> t0 | r :: _ -> r.Event.time in
  Buffer.add_string b
    (Printf.sprintf "packet %016Lx — %s (%d events, %.6fs)\n" j.key
       (outcome_label j.outcome) (List.length j.events) (tn -. t0));
  List.iter
    (fun (r : Event.record) ->
      Buffer.add_string b
        (Printf.sprintf "  +%10.6fs  %-12s %s\n" (r.time -. t0)
           (Event.stage_label r.kind) (Event.describe r.kind)))
    j.events;
  Buffer.contents b
