(* Shared plumbing of the end-to-end benchmark: the checkout-local
   cache, the trained suite networks, clocks, memory high-water marks,
   the metric record every workload returns, and the result line. *)

(* Everything the benchmark writes lives here, relative to the
   checkout root it runs from. *)
let cache_dir = Filename.concat "perfbench" "_cache"

(* The suite networks are always the ones trained from the paper
   seed; the workload seed picks what is run on them. *)
let suite_seed = 2019

let nets_dir = Filename.concat cache_dir (Printf.sprintf "nets-%d" suite_seed)

let ledger_path = Filename.concat cache_dir "verdicts.tsv"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* ------------------------------------------------------------------ *)
(* Child processes *)

let self_exe = Sys.executable_name

let wait_child pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + abs s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Run this executable again with [args] and wait for it. *)
let run_self args =
  let pid =
    Unix.create_process self_exe
      (Array.append [| self_exe |] args)
      Unix.stdin Unix.stderr Unix.stderr
  in
  wait_child pid

(* ------------------------------------------------------------------ *)
(* Suite networks: trained once, seeded, into the benchmark's cache by
   a child process, so neither training time nor its heap shows in any
   measured number. *)

let train_into dir =
  mkdir_p dir;
  ignore (Datasets.Suite.build ~cache_dir:dir ~seed:suite_seed ())

let networks_ready () =
  List.for_all
    (fun n -> Sys.file_exists (Filename.concat nets_dir (n ^ ".net")))
    Datasets.Suite.network_names

let ensure_networks () =
  if not (networks_ready ()) then begin
    let tmp = Printf.sprintf "%s.tmp-%d" nets_dir (Unix.getpid ()) in
    if run_self [| "--train"; tmp |] <> 0 then
      failwith "training the suite networks failed";
    if Sys.file_exists nets_dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat nets_dir f))
        (Sys.readdir nets_dir);
      Sys.rmdir nets_dir
    end;
    Sys.rename tmp nets_dir
  end

let load_networks () =
  Datasets.Suite.build ~cache_dir:nets_dir ~seed:suite_seed ()

(* ------------------------------------------------------------------ *)
(* Memory *)

let self_hwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
        | Some _ -> go ()
      in
      go ())

(* Peak resident set of this process, or of the largest of its helper
   processes ([others_kb]: the lane processes, the serve daemon, the
   dverify workers) when that is larger. *)
let peak_rss_mb ?(others_kb = 0) () =
  float_of_int (max (self_hwm_kb ()) others_kb) /. 1024.0

(* ------------------------------------------------------------------ *)
(* Measurement loop *)

(* Run [unit i] for i = 0, 1, ... while another unit of average length
   still fits in [seconds], and at least [min_units] times; returns the
   results in order. *)
let repeat_for ~seconds ~min_units unit =
  let t0 = now () in
  let rec go i acc =
    let elapsed = now () -. t0 in
    let fits = i = 0 || elapsed +. (elapsed /. float_of_int i) <= seconds in
    if i >= min_units && not fits then List.rev acc
    else go (i + 1) (unit i :: acc)
  in
  go 0 []

(* Problems of a pass run in [lanes] child processes forked for the
   pass, one problem at a time in each, so a pass takes both cores of a
   2-core machine and its time averages their speeds: on a shared host
   the speed of one core swings by up to 1.5x over periods of 5 to 30 s,
   and a pass on one core followed those swings (16% spread over five
   runs of 50 s).  The lanes are processes, not domains: every minor
   collection stops all domains of a process, so with two domains a
   pause of either core stalled both, and the passes of one run
   differed by up to 60%. *)
let lanes = 2

(* [f x] for every element of [xs], element [i] in lane [i mod lanes]:
   the split is fixed rather than first-come, so each lane does the same
   work on every pass.  Each lane process calls [start] before its first
   element and [finish] after its last.  Returns the results in input
   order and the [finish] results of the lanes; [lane_hwm_kb] keeps the
   largest [VmHWM] any lane reported. *)
let lane_hwm_kb = ref 0

let in_lanes ~start ~finish f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  flush stdout;
  flush stderr;
  let spawn k =
    let r, w = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        let code =
          try
            start ();
            let out = ref [] in
            let i = ref k in
            while !i < n do
              out := (!i, f xs.(!i)) :: !out;
              i := !i + lanes
            done;
            let oc = Unix.out_channel_of_descr w in
            let fin = finish () in
            Marshal.to_channel oc (!out, fin, self_hwm_kb ()) [];
            close_out oc;
            0
          with e ->
            prerr_endline ("lane: " ^ Printexc.to_string e);
            1
        in
        Unix._exit code
    | pid ->
        Unix.close w;
        (pid, r)
  in
  let children = List.init lanes spawn in
  let collected =
    List.map
      (fun (pid, r) ->
        let ic = Unix.in_channel_of_descr r in
        let v = try Some (Marshal.from_channel ic) with End_of_file -> None in
        close_in ic;
        match (v, wait_child pid) with
        | Some (rs, fin, hwm), 0 ->
            lane_hwm_kb := max !lane_hwm_kb hwm;
            (rs, fin)
        | _ -> failwith "a lane process failed")
      children
  in
  let out = Array.make n None in
  List.iter (fun (rs, _) -> List.iter (fun (i, r) -> out.(i) <- Some r) rs) collected;
  (Array.to_list (Array.map Option.get out), List.map snd collected)

(* One timing of a set-up, per run of [f].  A set-up too short to time
   on its own runs [batch] times and is reported per run. *)
let setup_sample ?(batch = 1) f =
  let t, r =
    time (fun () ->
        for _ = 2 to batch do
          ignore (Sys.opaque_identity (f ()))
        done;
        f ())
  in
  (t /. float_of_int batch, r)

(* Set-up samples of a run.  They are taken before the first unit and
   after every unit, so that their median follows the machine's speed
   over the whole run, as [wall_s] does, rather than its speed at the
   start: samples taken only at the start moved by up to 2x from run to
   run. *)
type setup_samples = { mutable samples : float list }

let setup_reps = 5

let reps_per_unit = 3

(* Take [n] samples of [f] and return the last result. *)
let sample_setup ?batch s n f =
  let last = ref None in
  for _ = 1 to n do
    let t, r = setup_sample ?batch f in
    s.samples <- t :: s.samples;
    last := Some r
  done;
  Option.get !last

(* The first [setup_reps] samples of a run and the set-up's result. *)
let start_setup ?batch f =
  let s = { samples = [] } in
  let r = sample_setup ?batch s setup_reps f in
  (s, r)

let setup_s s = Stats.median s.samples

(* ------------------------------------------------------------------ *)
(* What a workload returns *)

type metric = Spec.metric = { name : string; value : float; unit : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
      (** end-to-end metrics on an untraced run, per-layer metrics on a
          traced one *)
}

let m = Spec.metric

(* The per-layer metric of each traced unit, reported as the median
   over traced units. *)
let median_metrics (units : metric list list) =
  match units with
  | [] -> []
  | first :: _ ->
      List.map
        (fun mt ->
          let vs =
            List.map
              (fun u -> (List.find (fun x -> String.equal x.name mt.name) u).value)
              units
          in
          { mt with value = Stats.median vs })
        first

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct r =
  let metrics =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
          (fmt_float mt.value) mt.unit)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.attempted r.failed
    (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* Workloads made of repeated units of fixed work (suite, ai2,
   dverify) *)

type unit_run = {
  wall : float;  (** seconds for the unit's fixed work *)
  solved : int;
  layers : metric list option;  (** [Some] on a traced unit *)
}

(* A traced run alternates untraced and traced units, so both see the
   same machine state; its per-layer numbers are medians over the
   traced units and the tracing overhead compares the two medians. *)
let traced_unit ~traced i = traced && i mod 2 = 1

let min_units ~traced = if traced then 4 else 2

(* [wall_s] is the median unit; [latency.samples] says how many
   untraced units it rests on. *)
let summarize ?others_kb ~traced ~setup_s units =
  let plain = List.filter (fun u -> u.layers = None) units in
  let med f us = Stats.median (List.map f us) in
  if traced then
    let traced_units = List.filter (fun u -> u.layers <> None) units in
    median_metrics (List.filter_map (fun u -> u.layers) traced_units)
    @ [
        m "telemetry.overhead_share" "share"
          ((med (fun u -> u.wall) traced_units /. med (fun u -> u.wall) plain)
          -. 1.0);
        m "latency.samples" "count" (float_of_int (List.length plain));
      ]
  else
    [
      m "setup_s" "s" setup_s;
      m "wall_s" "s" (med (fun u -> u.wall) plain);
      m "solved" "count" (med (fun u -> float_of_int u.solved) plain);
      m "peak_rss_mb" "MB" (peak_rss_mb ?others_kb ());
    ]

(* One row of a workload's deterministic verdict table: what a
   refactor must leave unchanged.  [nodes] is the region count (suite)
   or transformer-call count (ai2); -1 where the path does not repeat
   it exactly (serve, whose shared proof cache depends on job order,
   and dverify). *)
type table_row = { problem : string; verdict : string; nodes : int }

let by_problem a b = String.compare a.problem b.problem
