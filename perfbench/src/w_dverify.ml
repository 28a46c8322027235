(* dverify: [Server.Coordinator.run] with two worker processes on one
   fixed hard problem that always verifies — the staircase family of
   bench/distributed.ml at dimension [dim], about 4 s per run on a
   2-core machine.  One unit is one distributed run; the seed is the
   job's PGD seed. *)

module Mat = Linalg.Mat
module Vec = Linalg.Vec

let dim = 9

let workers = 2

let guard_s = 120.0

(* Margin >= eps everywhere, but interval and zonotope proofs only
   land after splitting essentially every input dimension.  The run
   time grows in steps, not smoothly: with bench/distributed.ml's
   eps = 0.05 a run takes about 1 s at dimension 7, 35 s at 8 and more
   than 120 s at 9. *)
let eps = 0.15

let staircase () =
  let w1 =
    Mat.init (2 * dim) dim (fun r c -> if r = c || r - dim = c then 1.0 else 0.0)
  in
  let b1 = Vec.init (2 * dim) (fun r -> if r < dim then 0.0 else -1.0) in
  let w2 =
    Mat.init 2 (2 * dim) (fun r c ->
        if r = 1 then 0.0 else if c < dim then 1.0 else -1.0)
  in
  Nn.Network.create ~input_dim:dim
    [
      Nn.Layer.affine w1 b1; Nn.Layer.Relu; Nn.Layer.affine w2 [| 0.0; -.eps |];
    ]

let problem_name = Printf.sprintf "staircase-d%d-eps%g" dim eps

let spec ~seed () =
  {
    Server.Protocol.name = problem_name;
    network = Nn.Serial.to_string (staircase ());
    box = Domains.Box.of_center_radius (Vec.create dim 0.25) 1.25;
    target = 0;
    delta = Charon.Verify.default_config.Charon.Verify.delta;
    timeout = Some guard_s;
    max_steps = None;
    seed;
  }

let worker_flag = "--charon-dverify-worker"

(* A worker of the fleet: [Server.Worker.main], then, when it was given
   a directory, its peak resident set in kB written there under its pid,
   so that a run can take the largest worker of each unit. *)
let worker_main args =
  let code = Server.Worker.main () in
  (match args with
  | dir :: _ ->
      Out_channel.with_open_text
        (Filename.concat dir (string_of_int (Unix.getpid ())))
        (fun oc -> Printf.fprintf oc "%d\n" (Harness.self_hwm_kb ()))
  | [] -> ());
  code

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let trace_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.map (Filename.concat dir)

(* The largest peak the workers of one unit wrote to [dir], which is
   emptied for the next unit. *)
let take_worker_peak_kb dir =
  Sys.readdir dir
  |> Array.fold_left
       (fun acc f ->
         let path = Filename.concat dir f in
         let kb =
           In_channel.with_open_text path (fun ic ->
               Scanf.sscanf (In_channel.input_all ic) " %d" Fun.id)
         in
         Sys.remove path;
         max acc kb)
       0

let run ~seed ~seconds ~traced ~ledger =
  (* Building the job takes under 200 us, too short to time one at a
     time, so a sample times 200 builds. *)
  let setup, job = Harness.start_setup ~batch:200 (spec ~seed) in
  let scratch name =
    Filename.concat Harness.cache_dir
      (Printf.sprintf "dverify-%s-%d" name (Unix.getpid ()))
  in
  let trace_dir = scratch "trace" and hwm_dir = scratch "hwm" in
  Harness.mkdir_p hwm_dir;
  (* The largest worker of each unit; [peak_rss_mb] takes their median,
     which holds steadier than the largest worker of the whole run. *)
  let worker_peaks = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let unit i =
    let tr = Harness.traced_unit ~traced i in
    if tr then begin
      Harness.mkdir_p trace_dir;
      List.iter Sys.remove (trace_files trace_dir)
    end;
    let config =
      {
        (Server.Coordinator.default_config ~workers) with
        Server.Coordinator.trace_dir = (if tr then Some trace_dir else None);
      }
    in
    incr attempted;
    let cpu0 = children_cpu () in
    let wall, r =
      Harness.time (fun () ->
          Server.Coordinator.run
            ~worker_cmd:[| Harness.self_exe; worker_flag; hwm_dir |]
            ~config job)
    in
    (match take_worker_peak_kb hwm_dir with
    | 0 -> ()
    | kb -> worker_peaks := float_of_int kb :: !worker_peaks);
    let cpu = children_cpu () -. cpu0 in
    let label = Common.Outcome.label r.Server.Coordinator.outcome in
    (* The staircase always verifies: anything else is a wrong answer
       or a guard expiry. *)
    let ok =
      String.equal label "verified"
      && Checks.record ledger ~path:"dverify" ~problem:problem_name label
    in
    if not ok then begin
      incr failed;
      Printf.eprintf "dverify: %s ended %s\n%!" problem_name label
    end;
    let s = r.Server.Coordinator.stats in
    let layers =
      if tr then begin
        let snap =
          List.fold_left
            (fun acc f -> Layers.merge acc (Layers.of_trace_file f))
            Layers.empty (trace_files trace_dir)
        in
        let busy =
          List.fold_left (fun acc (_, w) -> acc +. w) 0.0
            s.Server.Coordinator.shard_walls
        in
        let m = Harness.m in
        Some
          (Layers.verifier ~run_s:(Layers.span_s snap "verify.region") snap
          @ [
              m "dverify.splits.dealt" "count"
                (float_of_int s.Server.Coordinator.dealt);
              m "dverify.splits.stolen" "count"
                (float_of_int s.Server.Coordinator.stolen);
              m "dverify.splits.escalated" "count"
                (float_of_int s.Server.Coordinator.escalated);
              m "dverify.splits.reassigned" "count"
                (float_of_int s.Server.Coordinator.reassigned);
              m "dverify.worker_cpu_s" "s" cpu;
              m "dverify.busy_share" "share"
                (Stats.share busy (float_of_int workers *. wall));
            ])
      end
      else None
    in
    ignore
      (Harness.sample_setup ~batch:200 setup Harness.reps_per_unit (spec ~seed));
    {
      Harness.wall;
      solved = (if String.equal label "verified" then 1 else 0);
      layers;
    }
  in
  let units =
    Harness.repeat_for ~seconds ~min_units:(Harness.min_units ~traced) unit
  in
  if Sys.file_exists trace_dir then begin
    List.iter Sys.remove (trace_files trace_dir);
    Sys.rmdir trace_dir
  end;
  ignore (take_worker_peak_kb hwm_dir);
  Sys.rmdir hwm_dir;
  let others_kb =
    if !worker_peaks = [] then 0 else int_of_float (Stats.median !worker_peaks)
  in
  ( { Harness.attempted = !attempted; failed = !failed;
      metrics =
        Harness.summarize ~others_kb ~traced
          ~setup_s:(Harness.setup_s setup) units },
    [ { Harness.problem = problem_name; verdict = "verified"; nodes = -1 } ] )
