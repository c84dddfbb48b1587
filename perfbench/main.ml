(* The APNA benchmark: one workload per run, inputs drawn from --seed,
   operation counts fixed by --seconds (never a duration-bound loop).
   Prints a report, then one JSON line with the end-to-end metrics
   (--trace 0) or the per-layer metrics of a separate traced run
   (--trace 1). See README.md in this directory. *)

open Perfbench

type workload = {
  rate : float;
      (** operations per measured second on the reference host: a run's
          work is [seconds * rate] operations, the same on every host *)
  alpha : float;
      (** how strongly the workload's speed follows the calibration
          kernel's, set once from the block times of 5 runs on the
          reference host: between the slope of log block time on log
          kernel time and the value that made calibrated run totals spread
          least *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
}

let workloads =
  [
    ("flow_small", { rate = 22_000.0; alpha = 0.9; setups = 9 });
    ("flow_mtu", { rate = 3_500.0; alpha = 0.75; setups = 9 });
    ("web_churn", { rate = 40.0; alpha = 0.7; setups = 5 });
  ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_line (r : Common.result) ~metrics =
  let correct = r.problems = [] && r.failed = 0
    && List.for_all (fun (x : Common.metric) -> Float.is_finite x.value) metrics in
  let fields =
    List.map
      (fun (x : Common.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
          x.unit_)
      metrics
  in
  ( correct,
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct r.attempted r.failed (String.concat ", " fields) )

let run ~workload ~seed ~seconds ~trace =
  match List.assoc_opt workload workloads with
  | None -> Error (Printf.sprintf "unknown workload %S" workload)
  | Some { rate; alpha; setups } -> (
      let n = max 1 (int_of_float (float seconds *. rate)) in
      (* Calibration blocks of ~50 ms of work on the reference host. *)
      let block = max 1 (int_of_float (rate *. 0.05)) in
      match workload with
      | "flow_small" -> Ok (Flow.run ~name:workload ~wire:128 ~seed ~n ~block ~alpha ~setups ~trace)
      | "flow_mtu" -> Ok (Flow.run ~name:workload ~wire:Flow.mtu ~seed ~n ~block ~alpha ~setups ~trace)
      | _ -> Ok (Web.run ~seed ~n ~block ~alpha ~setups ~trace))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " flow_small | flow_mtu | web_churn");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds on the reference host");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (Perfbench_kernel.Kernel.self_check ()) then begin
    prerr_endline "calibration kernel fails the FIPS 180-4 SHA-256 vectors";
    exit 3
  end;
  match run ~workload:!workload ~seed:!seed ~seconds:(max 1 !seconds) ~trace:(!trace = 1) with
  | Error msg ->
      prerr_endline msg;
      exit 2
  | exception Failure msg ->
      prerr_endline ("benchmark set-up failed: " ^ msg);
      exit 2
  | Ok r ->
      print_string (Buffer.contents Common.report);
      List.iter (fun p -> Printf.printf "DEFECT: %s\n" p) r.problems;
      if r.failed > 0 then Printf.printf "FAILED: %d of %d operations\n" r.failed r.attempted;
      let correct, line =
        json_line r ~metrics:(if !trace = 1 then r.per_layer else r.end_to_end)
      in
      print_endline line;
      if not correct then exit 1
