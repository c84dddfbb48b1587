(* The pending-request table in isolation, driven by a fake scheduler that
   records every armed timer and fires them on demand: the retransmission
   ladder, the single timeout, settled requests and orphan replies. The
   last case runs a real host whose echo request is never answered. *)

open Apna

(* Timers in arming order; [fire] runs the oldest. *)
let fake_scheduler () =
  let armed = Queue.create () in
  let schedule ~delay f = Queue.add (delay, f) armed in
  let fire () =
    let _, f = Queue.pop armed in
    f ()
  in
  (armed, schedule, fire)

type probe = { mutable sends : int; mutable timeouts : int; mutable replies : string list }

let probe () = { sends = 0; timeouts = 0; replies = [] }

let start rpc schedule key p =
  Rpc.start rpc (Some schedule) key ~what:"test request"
    ~on_reply:(fun r -> p.replies <- r :: p.replies)
    ~resend:(fun () -> p.sends <- p.sends + 1)
    ~on_timeout:(fun () -> p.timeouts <- p.timeouts + 1)
    ()

let drain armed fire =
  while not (Queue.is_empty armed) do
    fire ()
  done

let rpc_tests =
  [
    Alcotest.test_case "retransmit delays are 0.25/0.5/1/2 s" `Quick (fun () ->
        let rpc = Rpc.create ~owner:"test" in
        let armed, schedule, fire = fake_scheduler () in
        let p = probe () in
        start rpc schedule (Rpc.Corr (Rpc.fresh_corr rpc)) p;
        let delays = ref [] in
        while not (Queue.is_empty armed) do
          delays := fst (Queue.peek armed) :: !delays;
          fire ()
        done;
        (* Four retransmissions at doubling intervals, then 4 s for the last
           attempt's reply before the request is abandoned. *)
        Alcotest.(check (list (float 1e-9)))
          "armed delays" [ 0.25; 0.5; 1.0; 2.0; 4.0 ] (List.rev !delays);
        Alcotest.(check int) "retransmissions" 4 (Rpc.retries rpc));
    Alcotest.test_case "on_timeout fires exactly once after 5 attempts" `Quick
      (fun () ->
        let rpc = Rpc.create ~owner:"test" in
        let armed, schedule, fire = fake_scheduler () in
        let p = probe () in
        start rpc schedule (Rpc.Ping (Rpc.fresh_ping rpc)) p;
        drain armed fire;
        Alcotest.(check int) "attempts sent" 5 p.sends;
        Alcotest.(check int) "one timeout" 1 p.timeouts;
        Alcotest.(check int) "counted" 1 (Rpc.timeouts rpc);
        Alcotest.(check int) "nothing pending" 0 (Rpc.pending rpc);
        (* A reply after the timeout is too late: no continuation runs. *)
        Alcotest.(check bool) "late reply unmatched" false
          (Rpc.reply rpc (Rpc.Ping 1) "late");
        Alcotest.(check (list string)) "no reply delivered" [] p.replies);
    Alcotest.test_case "a request settled before its timer leaves that timer a no-op"
      `Quick (fun () ->
        let rpc = Rpc.create ~owner:"test" in
        let armed, schedule, fire = fake_scheduler () in
        let p = probe () in
        start rpc schedule (Rpc.Accept 42L) p;
        Rpc.settle rpc (Rpc.Accept 42L);
        Alcotest.(check int) "settled" 0 (Rpc.pending rpc);
        Alcotest.(check int) "one timer armed" 1 (Queue.length armed);
        fire ();
        Alcotest.(check int) "no resend" 1 p.sends;
        Alcotest.(check int) "no retry" 0 (Rpc.retries rpc);
        Alcotest.(check int) "no timeout" 0 p.timeouts;
        Alcotest.(check int) "not re-armed" 0 (Queue.length armed));
    Alcotest.test_case "a reply with no pending request counts as an orphan"
      `Quick (fun () ->
        let rpc = Rpc.create ~owner:"test" in
        let _armed, schedule, _fire = fake_scheduler () in
        let p = probe () in
        Rpc.dispatch_reply rpc ~what:"test" (Rpc.Corr 7L) "stray";
        Alcotest.(check int) "stray reply" 1 (Rpc.orphans rpc);
        let corr = Rpc.fresh_corr rpc in
        start rpc schedule (Rpc.Corr corr) p;
        (* Keys of different kinds never answer each other. *)
        Rpc.dispatch_reply rpc ~what:"test" (Rpc.Rekey corr) "wrong kind";
        Alcotest.(check int) "wrong kind is an orphan" 2 (Rpc.orphans rpc);
        Rpc.dispatch_reply rpc ~what:"test" (Rpc.Corr corr) "answer";
        Rpc.dispatch_reply rpc ~what:"test" (Rpc.Corr corr) "duplicate";
        Alcotest.(check (list string)) "answered once" [ "answer" ] p.replies;
        Alcotest.(check int) "duplicate is an orphan" 3 (Rpc.orphans rpc);
        Alcotest.(check int) "nothing pending" 0 (Rpc.pending rpc));
    Alcotest.test_case "a ping that times out leaves pending_rpc_count = 0"
      `Quick (fun () ->
        let net = Network.create ~seed:"rpc-ping" () in
        let _ = Network.add_as net 100 () in
        let _ = Network.add_as net 300 () in
        Network.connect_as net 100 300 ();
        let alice =
          Network.add_host net ~as_number:100 ~name:"alice" ~credential:"a" ()
        in
        (match Host.bootstrap alice with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Error.to_string e));
        (* A genuine AS300 EphID of no registered host: the echo request
           is dropped at AS300 and no reply ever comes. *)
        let ghost =
          Ephid.issue_random
            (As_node.keys (Network.node_exn net 300))
            (Apna_crypto.Drbg.create ~seed:"rpc-ghost")
            ~hid:(Apna_net.Addr.hid_of_int 0x0a00ffff)
            ~expiry:(Network.now_unix net + 900)
        in
        let answered = ref false in
        Host.ping alice ~dst_aid:(Apna_net.Addr.aid_of_int 300)
          ~dst_ephid:ghost (fun _ -> answered := true);
        Network.run net;
        Alcotest.(check bool) "never answered" false !answered;
        Alcotest.(check int) "ping timed out" 1 (Host.rpc_timeouts alice);
        Alcotest.(check int) "four retransmissions" 4 (Host.rpc_retries alice);
        Alcotest.(check int) "nothing pending" 0 (Host.pending_rpc_count alice));
  ]

let () =
  Logs.set_level (Some Logs.Error);
  Alcotest.run "apna_rpc" [ ("rpc", rpc_tests) ]
