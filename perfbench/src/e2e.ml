(* The end-to-end benchmark of the verifier (perfbench/README.md).

   Usage, from the root of a checkout:
     bash perfbench/run.sh --workload suite|ai2|serve|dverify \
       --seed N --seconds S --trace 0|1 [--table FILE]

   Prints one line per metric, then, as the last line, one JSON object
   with [correct], [attempted], [failed] and [metrics]: the end-to-end
   metrics with [--trace 0], the per-layer metrics with [--trace 1].
   [--table FILE] also writes the workload's deterministic verdict
   table (problem, verdict, region count) as TSV. *)

(* Re-exec modes: the dverify worker fleet, the serve daemon and the
   one-off network training all run this executable again. *)
let () =
  match Array.to_list Sys.argv with
  | _ :: flag :: rest when String.equal flag W_dverify.worker_flag ->
      exit (W_dverify.worker_main rest)
  | _ :: flag :: store :: dump :: _ when String.equal flag W_serve.daemon_flag ->
      exit (W_serve.daemon_main ~store ~dump)
  | _ :: "--train" :: dir :: _ ->
      Harness.train_into dir;
      exit 0
  | _ -> ()

let usage () =
  prerr_endline
    "usage: e2e --workload suite|ai2|serve|dverify --seed N --seconds S \
     --trace 0|1 [--table FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = List.assoc_opt k opts in
  let int k = Option.bind (get k) int_of_string_opt in
  if not (Sys.file_exists "BENCHMARK.json") then begin
    prerr_endline "e2e: run from the root of a checkout";
    exit 2
  end;
  let spec = Spec.load "BENCHMARK.json" in
  (* [serve] is not among BENCHMARK.json's workloads (see
     perfbench/README.md) but runs the same way. *)
  let workloads =
    [ ("suite", W_suite.run); ("ai2", W_ai2.run); ("serve", W_serve.run);
      ("dverify", W_dverify.run) ]
  in
  let workload, run, seed, seconds, trace =
    match (get "--workload", int "--seed", int "--seconds", int "--trace") with
    | Some w, Some s, Some secs, Some t
      when List.mem_assoc w workloads && secs >= 1 && (t = 0 || t = 1) ->
        (w, List.assoc w workloads, s, float_of_int secs, t = 1)
    | _ -> usage ()
  in
  Harness.mkdir_p Harness.cache_dir;
  let ledger = Checks.create () in
  Checks.load ledger Harness.ledger_path;
  let result, table = run ~seed ~seconds ~traced:trace ~ledger in
  Checks.save ledger Harness.ledger_path;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter
            (fun (r : Harness.table_row) ->
              Printf.fprintf oc "%s\t%s\t%d\n" r.Harness.problem r.Harness.verdict
                r.Harness.nodes)
            table))
    (get "--table");
  let metrics = Spec.arrange spec ~traced:trace result.Harness.metrics in
  List.iter
    (fun (mt : Harness.metric) ->
      Printf.printf "%-8s %-32s %14s %s\n" workload mt.Harness.name
        (Printf.sprintf "%.6g" mt.Harness.value)
        mt.Harness.unit)
    metrics;
  Printf.printf "%-8s %-32s %14d\n%-8s %-32s %14d\n" workload "ops"
    result.Harness.attempted workload "ops_failed" result.Harness.failed;
  print_endline
    (Harness.result_line
       ~correct:(result.Harness.failed = 0)
       { result with Harness.metrics })
