(* Flight-recorder acceptance (Issue 4): a cross-AS data packet under the
   E13 topology yields a journey whose hop sequence is exactly
   host → egress → link → ingress → … → deliver, a packet killed by
   injected loss yields the same prefix ending in a tagged loss event,
   and the Chrome-trace export of a live run parses as trace-event JSON
   with the router and delivery stages as complete ("X") events. *)

open Apna
open Apna_net
module Event = Apna_obs.Event
module Journey = Apna_obs.Journey
module Json = Apna_obs.Json
module Chrome_trace = Apna_obs.Chrome_trace

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

(* The e2e line topology — alice@AS100, transit AS200, bob@AS300 — with an
   optional fault model on the first inter-AS link only, so the control
   plane (all intra-AS) bootstraps cleanly even under total loss. *)
let make_world ?first_hop_faults () =
  let net = Network.create ~seed:"flight" () in
  let _ = Network.add_as net 100 () in
  let _ = Network.add_as net 200 () in
  let _ = Network.add_as net 300 () in
  let first_link =
    match first_hop_faults with
    | Some faults -> Link.make ~faults ()
    | None -> Link.make ()
  in
  Network.connect_as net 100 200 ~link:first_link ();
  Network.connect_as net 200 300 ();
  let alice =
    Network.add_host net ~as_number:100 ~name:"alice" ~credential:"alice-tok" ()
  in
  let bob =
    Network.add_host net ~as_number:300 ~name:"bob" ~credential:"bob-tok" ()
  in
  ok_or_fail "alice bootstrap" (Host.bootstrap alice);
  ok_or_fail "bob bootstrap" (Host.bootstrap bob);
  let ep = ref None in
  Host.request_ephid bob (fun e -> ep := Some e);
  Network.run net;
  let ep =
    match !ep with
    | Some e -> e
    | None -> Alcotest.fail "bob got no EphID"
  in
  (net, alice, ep)

(* Record only the scenario under test: the world above is built with the
   recorder off, so bootstrap and EphID traffic leave no events behind. *)
let with_recorder f =
  Event.clear Event.default;
  Event.set_enabled Event.default true;
  Fun.protect
    ~finally:(fun () ->
      Event.set_enabled Event.default false;
      Event.clear Event.default)
    f

let stages (j : Journey.t) =
  List.map (fun (r : Event.record) -> Event.stage_label r.kind) j.events

(* The packet under test is the only cross-AS one recorded: any control
   traffic the data plane triggers stays inside one AS and never produces
   a [Link_transit] event. *)
let cross_as_journey journeys =
  match
    List.filter
      (fun (j : Journey.t) ->
        List.exists
          (fun (r : Event.record) ->
            match r.kind with Event.Link_transit _ -> true | _ -> false)
          j.events)
      journeys
  with
  | [ j ] -> j
  | js -> Alcotest.failf "expected one cross-AS journey, got %d" (List.length js)

let flight_tests =
  [
    Alcotest.test_case "fault-free cross-AS packet records every hop" `Quick
      (fun () ->
        let net, alice, ep = make_world () in
        with_recorder (fun () ->
            Host.connect alice ~remote:ep.cert ~data0:"probe" (fun _ -> ());
            Network.run net;
            let journeys = Journey.assemble Event.default in
            let j = cross_as_journey journeys in
            Alcotest.(check (list string))
              "hop sequence"
              [
                "host.send"; "br.egress"; "link.transit"; "br.ingress";
                "link.transit"; "br.ingress"; "deliver";
              ]
              (stages j);
            (match List.map (fun (r : Event.record) -> r.kind) j.events with
            | [
             Event.Host_send { aid = 100; host = "alice" };
             Event.Br_egress { aid = 100; outcome = Event.Egress_ok };
             Event.Link_transit { src = 100; dst = 200; fate = Event.Delivered };
             Event.Br_ingress { aid = 200; outcome = Event.Ingress_forward 300 };
             Event.Link_transit { src = 200; dst = 300; fate = Event.Delivered };
             Event.Br_ingress { aid = 300; outcome = Event.Ingress_deliver };
             Event.Deliver { aid = 300; _ };
            ] ->
                ()
            | ks ->
                Alcotest.failf "unexpected hop details: %s"
                  (String.concat " -> " (List.map Event.describe ks)));
            (match j.outcome with
            | Journey.Delivered -> ()
            | o -> Alcotest.failf "outcome: %s" (Journey.outcome_label o));
            (* Causal order is also temporal order. *)
            ignore
              (List.fold_left
                 (fun prev (r : Event.record) ->
                   if r.time < prev then
                     Alcotest.failf "time went backwards at %s"
                       (Event.stage_label r.kind);
                   r.time)
                 0.0 j.events)));
    Alcotest.test_case "loss on the first link tags the journey" `Quick
      (fun () ->
        let net, alice, ep =
          make_world ~first_hop_faults:(Link.make_faults ~loss:1.0 ()) ()
        in
        with_recorder (fun () ->
            Host.connect alice ~remote:ep.cert ~data0:"probe" (fun _ -> ());
            Network.run net;
            let j = cross_as_journey (Journey.assemble Event.default) in
            Alcotest.(check (list string))
              "prefix ends at the lossy link"
              [ "host.send"; "br.egress"; "link.transit" ]
              (stages j);
            match j.outcome with
            | Journey.Lost_on_link { src = 100; dst = 200; fate = Event.Lost }
              ->
                ()
            | o -> Alcotest.failf "outcome: %s" (Journey.outcome_label o)));
    Alcotest.test_case "chrome-trace export of a live run parses" `Quick
      (fun () ->
        let net, alice, ep = make_world () in
        with_recorder (fun () ->
            Host.connect alice ~remote:ep.cert ~data0:"probe" (fun _ -> ());
            Network.run net;
            let text = Chrome_trace.to_string Event.default in
            match Json.parse text with
            | Error e -> Alcotest.failf "trace does not parse: %s" e
            | Ok (Json.List entries) ->
                if entries = [] then Alcotest.fail "trace is empty";
                (* The egress, ingress and delivery stages each export as a
                   complete event carrying a duration. *)
                List.iter
                  (fun stage ->
                    let is_stage entry =
                      Json.member "name" entry = Some (Json.Str stage)
                      && Json.member "ph" entry = Some (Json.Str "X")
                      && Option.bind (Json.member "dur" entry) Json.number
                         <> None
                    in
                    if not (List.exists is_stage entries) then
                      Alcotest.failf "no \"X\" entry for %s" stage)
                  [ "br.egress"; "br.ingress"; "deliver" ];
                List.iter
                  (fun entry ->
                    (match Json.member "name" entry with
                    | Some (Json.Str _) -> ()
                    | _ -> Alcotest.fail "entry without string name");
                    (match Json.member "ph" entry with
                    | Some (Json.Str ("X" | "i")) -> ()
                    | _ -> Alcotest.fail "entry without X/i phase");
                    match Option.bind (Json.member "ts" entry) Json.number with
                    | Some ts when ts >= 0.0 -> ()
                    | _ -> Alcotest.fail "entry without numeric ts")
                  entries
            | Ok _ -> Alcotest.fail "trace is not a JSON array"));
  ]

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Error);
  Alcotest.run "flight" [ ("journeys", flight_tests) ]
