(* Per-layer read-outs.  The benchmark adds no instrument of its own
   inside the program: it reads the counters and span histograms the
   libraries already keep, either live in this process or from the
   summary events at the end of a JSONL trace written by another
   process (dverify workers, the serve daemon). *)

module J = Telemetry.Jsonw

type hist = { count : int; sum : int; max : int; p90 : int }

type snapshot = {
  counters : (string * int) list;
  hists : (string * hist) list;
}

let empty = { counters = []; hists = [] }

(* This process's instruments right now.  The scratch arena's
   high-water mark is read from the arena itself: its counter only
   moves while telemetry is on, so it would miss growth that happened
   in an earlier, untraced unit. *)
let live () =
  {
    counters =
      ("kernel.scratch.highwater_words", Linalg.Scratch.highwater_words ())
      :: List.remove_assoc "kernel.scratch.highwater_words"
           (Telemetry.Metrics.counters ());
    hists =
      List.map
        (fun (h : Telemetry.Metrics.histogram_stats) ->
          ( h.Telemetry.Metrics.name,
            {
              count = h.Telemetry.Metrics.count;
              sum = h.Telemetry.Metrics.sum;
              max = h.Telemetry.Metrics.max;
              p90 = h.Telemetry.Metrics.p90;
            } ))
        (Telemetry.Metrics.histograms ());
  }

(* Processes add up: counts and sums add, maxima and p90 take the
   larger value (the p90 of a union is at most the larger p90 of the
   parts' bucket bounds, which is what the histograms report). *)
let merge a b =
  let add_assoc f xs ys =
    List.fold_left
      (fun acc (k, v) ->
        match List.assoc_opt k acc with
        | Some w -> (k, f v w) :: List.remove_assoc k acc
        | None -> (k, v) :: acc)
      xs ys
  in
  {
    counters = add_assoc ( + ) a.counters b.counters;
    hists =
      add_assoc
        (fun x y ->
          {
            count = x.count + y.count;
            sum = x.sum + y.sum;
            max = Stdlib.max x.max y.max;
            p90 = Stdlib.max x.p90 y.p90;
          })
        a.hists b.hists;
  }

(* The counter/histogram summary events of a trace file, in the schema
   of docs/telemetry.md; every other event is skipped. *)
let of_trace_file path =
  let int_field k j = Option.bind (J.member k j) J.to_int_opt in
  let str_field k j = Option.bind (J.member k j) J.to_string_opt in
  let counters = ref [] and hists = ref [] in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (match J.parse line with
            | j -> (
                match (str_field "kind" j, str_field "name" j) with
                | Some "counter", Some name ->
                    counters :=
                      (name, Option.value ~default:0 (int_field "value" j))
                      :: !counters
                | Some "histogram", Some name ->
                    let f k = Option.value ~default:0 (int_field k j) in
                    hists :=
                      ( name,
                        {
                          count = f "count";
                          sum = f "sum";
                          max = f "max";
                          p90 = f "p90";
                        } )
                      :: !hists
                | _ -> ())
            | exception J.Parse_error _ -> ());
            go ()
      in
      go ());
  { counters = !counters; hists = !hists }

(* Write [s] as summary events that {!of_trace_file} reads back. *)
let to_file path s =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (name, v) ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("kind", J.Str "counter");
                    ("name", J.Str name);
                    ("value", J.Int v);
                  ]));
          output_char oc '\n')
        s.counters;
      List.iter
        (fun (name, h) ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("kind", J.Str "histogram");
                    ("name", J.Str name);
                    ("count", J.Int h.count);
                    ("sum", J.Int h.sum);
                    ("max", J.Int h.max);
                    ("p90", J.Int h.p90);
                  ]));
          output_char oc '\n')
        s.hists)

let counter s name = float_of_int (Option.value ~default:0 (List.assoc_opt name s.counters))

let hist s name =
  Option.value (List.assoc_opt name s.hists)
    ~default:{ count = 0; sum = 0; max = 0; p90 = 0 }

let span_s s name = float_of_int (hist s name).sum /. 1e9

let m = Harness.m

(* The optim, absint/domains/linalg and core blocks of the per-layer
   metrics.  [run_s] is the wall time the benchmark itself measured
   around the verifier entry points covered by [s];
   [analyze_calls]/[proved] override the verifier's own counts for
   direct [Analyzer.analyze] calls (ai2), which no verifier counter
   sees. *)
let verifier ?analyze_calls ?proved ~run_s s =
  let pgd_s = span_s s "optim.pgd" in
  let absint_s = span_s s "absint.layer" in
  let region_s = span_s s "verify.region" in
  let pgd_calls = counter s "optim.pgd.calls" in
  let analyze_calls =
    Option.value analyze_calls ~default:(counter s "verify.analyze_calls")
  in
  let proved = Option.value proved ~default:(counter s "verify.proved_regions") in
  let core_s = Stats.core_self ~region:region_s ~pgd:pgd_s ~absint:absint_s in
  let lookups = counter s "proofcache.lookups" in
  [
    m "optim.pgd.self_s" "s" pgd_s;
    m "optim.pgd.calls" "count" pgd_calls;
    m "optim.pgd.steps_per_call" "count"
      (Stats.share (counter s "optim.pgd.steps") pgd_calls);
    m "optim.pgd.refute_share" "share"
      (Stats.share (counter s "verify.refuted_regions") pgd_calls);
    m "absint.self_s" "s" absint_s;
    m "absint.transformer_calls" "count" (counter s "absint.transformer_calls");
    m "absint.analyze_calls" "count" analyze_calls;
    m "absint.proved_share" "share" (Stats.share proved analyze_calls);
    m "absint.out_of_budget" "count" (counter s "absint.out_of_budget");
    m "domains.generators_p90" "count" (float_of_int (hist s "absint.generators").p90);
    m "linalg.gemm_parallel_calls" "count" (counter s "kernel.gemm.parallel_calls");
    m "linalg.scratch_highwater_words" "words"
      (counter s "kernel.scratch.highwater_words");
    m "core.self_s" "s" (if region_s = 0.0 then 0.0 else core_s);
    m "core.unaccounted_share" "share"
      (if region_s = 0.0 then 0.0
       else 1.0 -. Stats.share (pgd_s +. absint_s +. core_s) run_s);
    m "core.regions" "count" (counter s "verify.regions");
    m "core.splits" "count" (counter s "verify.splits");
    m "core.peak_depth" "count" (float_of_int (hist s "verify.region_depth").max);
    m "core.proofcache.lookups" "count" lookups;
    m "core.proofcache.hit_share" "share"
      (Stats.share (counter s "proofcache.hits") lookups);
  ]
