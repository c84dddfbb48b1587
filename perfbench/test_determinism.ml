(* Runs a small run of each workload twice, each in a process of its own
   as the benchmark runs it, and requires identical work counts: the same
   seed must give the same operation counts, allocation per operation,
   peak heap, EphID-cache counters and management counts. Timings differ
   between the runs; the work must not. With a workload argument, prints
   that workload's counts. *)

open Perfbench

let print name (r : Common.result) =
  List.iter (fun (k, v) -> Printf.printf "%s %s %.17g\n" name k v) r.counts

let () =
  if not (Perfbench_kernel.Kernel.self_check ()) then begin
    prerr_endline "calibration kernel fails the FIPS 180-4 vectors";
    exit 1
  end;
  match Sys.argv with
  | [| _; "flow" |] ->
      print "flow_small"
        (Flow.run ~name:"flow_small" ~wire:128 ~seed:7 ~n:1500 ~block:500 ~alpha:1.0 ~setups:1
           ~trace:false)
  | [| _; "web" |] -> print "web_churn" (Web.run ~seed:7 ~n:12 ~block:2 ~alpha:1.0 ~setups:1 ~trace:false)
  | [| exe |] ->
      let counts w i =
        let file = Printf.sprintf "determinism-%s-%d.txt" w i in
        if Sys.command (Filename.quote_command exe [ w ] ~stdout:file) <> 0 then
          exit 1;
        In_channel.with_open_text file In_channel.input_all
      in
      List.iter
        (fun w ->
          let a = counts w 1 and b = counts w 2 in
          if a <> b then begin
            Printf.printf "%s: two runs of one seed did different work:\n%s---\n%s" w a b;
            exit 1
          end)
        [ "flow"; "web" ]
  | _ ->
      prerr_endline "usage: test_determinism.exe [flow|web]";
      exit 2
