open Linalg
open Domains

(* ------------------------------------------------------------------ *)
(* Objective *)

let test_objective_value_definition () =
  Util.repeat ~seed:90 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let x = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      let scores = Nn.Network.eval net x in
      let best_other = ref neg_infinity in
      Array.iteri
        (fun j s -> if j <> k && s > !best_other then best_other := s)
        scores;
      Util.check_close ~eps:1e-9 "F = s_k - max_other"
        (scores.(k) -. !best_other)
        (Optim.Objective.value obj x))

let test_objective_sign_matches_classification () =
  Util.repeat ~seed:91 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let x = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      let predicted = Nn.Network.classify net x in
      let obj = Optim.Objective.create net ~k:predicted in
      Util.check_true "argmax class has F >= 0"
        (Optim.Objective.value obj x >= 0.0))

let test_objective_grad_matches_finite_diff () =
  Util.repeat ~seed:92 ~count:15 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let x =
        Vec.init net.Nn.Network.input_dim (fun _ ->
            Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let g = Optim.Objective.grad obj x in
      let fd =
        Nn.Grad.finite_diff (fun y -> Optim.Objective.value obj y) x ~eps:1e-5
      in
      (* Finite differences can disagree exactly at a runner-up tie or a
         ReLU kink; tolerate by checking closeness of the directional
         derivative along a random direction instead of each component. *)
      let d = Vec.init (Vec.dim x) (fun _ -> Rng.gaussian rng) in
      Util.check_close ~eps:1e-3 "directional derivative" (Vec.dot fd d)
        (Vec.dot g d))

let test_objective_delta_counterexample () =
  let net = Nn.Init.example_2_2 () in
  let obj = Optim.Objective.create net ~k:1 in
  (* At x = 2, F = 6 - 8 = -2: a true counterexample. *)
  Util.check_true "true cex" (Optim.Objective.is_counterexample obj [| 2.0 |]);
  Util.check_true "also a delta cex"
    (Optim.Objective.is_delta_counterexample obj ~delta:0.1 [| 2.0 |]);
  (* At x = 0, F = 1 > 0.1: not even a delta counterexample. *)
  Util.check_true "not a cex"
    (not (Optim.Objective.is_delta_counterexample obj ~delta:0.1 [| 0.0 |]))

let test_objective_rejects_bad_class () =
  let net = Nn.Init.xor () in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Objective.create: class out of range") (fun () ->
      ignore (Optim.Objective.create net ~k:2))

(* ------------------------------------------------------------------ *)
(* PGD *)

let test_pgd_stays_inside () =
  Util.repeat ~seed:93 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let x, v = Optim.Pgd.minimize ~rng obj box in
      Util.check_true "inside region" (Box.contains box x);
      Util.check_close ~eps:1e-9 "reported value is F(x)" (Optim.Objective.value obj x) v)

let test_pgd_finds_known_counterexample () =
  (* Example 2.2 on [-1, 2]: the violating set [x > 5/3] is large, PGD
     must find it. *)
  let net = Nn.Init.example_2_2 () in
  let obj = Optim.Objective.create net ~k:1 in
  let box = Box.create ~lo:[| -1.0 |] ~hi:[| 2.0 |] in
  let rng = Rng.create 94 in
  let x, v = Optim.Pgd.minimize ~rng obj box in
  Util.check_true "found violation" (v <= 0.0);
  Util.check_true "witness misclassified" (Nn.Network.classify net x <> 1)

let test_pgd_beats_center_value () =
  Util.repeat ~seed:95 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let _, v = Optim.Pgd.minimize ~rng obj box in
      Util.check_true "no worse than the center start"
        (v <= Optim.Objective.value obj (Box.center box) +. 1e-9))

let test_pgd_early_stop () =
  let net = Nn.Init.example_2_2 () in
  let obj = Optim.Objective.create net ~k:1 in
  let box = Box.create ~lo:[| -1.0 |] ~hi:[| 2.0 |] in
  let config =
    { Optim.Pgd.default_config with Optim.Pgd.early_stop = Some 0.0 }
  in
  let _, v = Optim.Pgd.minimize ~config ~rng:(Rng.create 96) obj box in
  Util.check_true "stopped at a violation" (v <= 0.0)

let test_pgd_point_region () =
  (* A degenerate region: PGD must return the point itself. *)
  let net = Nn.Init.xor () in
  let obj = Optim.Objective.create net ~k:1 in
  let p = [| 0.4; 0.6 |] in
  let x, v = Optim.Pgd.minimize ~rng:(Rng.create 97) obj (Box.of_point p) in
  Util.check_vec "returns the point" p x;
  Util.check_close ~eps:1e-9 "value at point" (Optim.Objective.value obj p) v

(* ------------------------------------------------------------------ *)
(* PGD bit-identity oracle *)

(* The three-pass PGD step as it stood before the step was fused: each
   step ran [Network.eval] for a value it discarded, a second forward
   pass inside [Grad.vjp], and a third evaluation of the next point.
   Kept verbatim (telemetry counters swapped for local counts) as the
   reference [Pgd.minimize] must reproduce exactly. *)
module Three_pass = struct
  let runner_up k scores =
    let best = ref (if k = 0 then 1 else 0) in
    Array.iteri
      (fun j s -> if j <> k && s > scores.(!best) then best := j)
      scores;
    !best

  let value_grad obj x =
    let net = Optim.Objective.network obj in
    let k = Optim.Objective.target_class obj in
    let scores = Nn.Network.eval net x in
    let j = runner_up k scores in
    let v = scores.(k) -. scores.(j) in
    let dout =
      Vec.init (Vec.dim scores) (fun i ->
          if i = k then 1.0 else if i = j then -1.0 else 0.0)
    in
    (v, Nn.Grad.vjp net ~x ~dout)

  let run_from ~steps:c_steps ~(config : Optim.Pgd.config) obj region x0 =
    let base_step = config.step_scale *. Box.mean_width region in
    let best_x = ref (Box.clamp region x0) in
    let best_v = ref (Optim.Objective.value obj !best_x) in
    let x = ref !best_x in
    let stop = ref false in
    let step = ref 0 in
    while (not !stop) && !step < config.steps do
      incr step;
      let _, g = value_grad obj !x in
      let gnorm = Vec.norm2 g in
      if gnorm <= 1e-12 then stop := true
      else begin
        let eta = base_step /. sqrt (float_of_int !step) in
        let next =
          Box.clamp region (Vec.sub !x (Vec.scale (eta /. gnorm) g))
        in
        let v = Optim.Objective.value obj next in
        if v < !best_v then begin
          best_v := v;
          best_x := next
        end;
        x := next;
        match config.early_stop with
        | Some threshold when !best_v <= threshold -> stop := true
        | Some _ | None -> ()
      end
    done;
    c_steps := !c_steps + !step;
    (!best_x, !best_v)

  (* [(x_best, f_best, steps, restarts)]. *)
  let minimize ~(config : Optim.Pgd.config) ~rng obj region =
    let c_steps = ref 0 in
    let starts =
      Array.init (Stdlib.max 1 config.restarts) (fun i ->
          if i = 0 then Box.center region else Box.sample rng region)
    in
    let best = ref None in
    let restarts_used = ref 0 in
    Array.iter
      (fun x0 ->
        let stop_now =
          match (config.early_stop, !best) with
          | Some threshold, Some (_, v) -> v <= threshold
          | _ -> false
        in
        if not stop_now then begin
          incr restarts_used;
          let x, v = run_from ~steps:c_steps ~config obj region x0 in
          match !best with
          | Some (_, bv) when bv <= v -> ()
          | Some _ | None -> best := Some (x, v)
        end)
      starts;
    let x, v = Option.get !best in
    (x, v, !c_steps, !restarts_used)
end

let c_steps = Telemetry.Metrics.counter "optim.pgd.steps"

let c_restarts = Telemetry.Metrics.counter "optim.pgd.restarts"

(* Runs [Pgd.minimize] and the oracle from equal RNG states and checks
   x*, f*, the step and restart counts, and the next RNG draw, all bit
   for bit.  Returns the oracle's [(steps, restarts)]. *)
let check_matches_oracle ?(config = Optim.Pgd.default_config) ~seed obj region
    =
  let rng_new = Rng.create seed and rng_old = Rng.create seed in
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      let steps0 = Telemetry.Metrics.value c_steps in
      let restarts0 = Telemetry.Metrics.value c_restarts in
      let x, v = Optim.Pgd.minimize ~config ~rng:rng_new obj region in
      let steps = Telemetry.Metrics.value c_steps - steps0 in
      let restarts = Telemetry.Metrics.value c_restarts - restarts0 in
      let ox, ov, osteps, orestarts =
        Three_pass.minimize ~config ~rng:rng_old obj region
      in
      Util.check_vec_bits "x*" ox x;
      Util.check_bits "f*" ov v;
      Alcotest.(check int) "optim.pgd.steps delta" osteps steps;
      Alcotest.(check int) "optim.pgd.restarts delta" orestarts restarts;
      Util.check_bits "next rng draw" (Rng.float rng_old 1.0)
        (Rng.float rng_new 1.0);
      (osteps, orestarts))

let random_problem rng i =
  let net = if i mod 2 = 0 then Util.mixed_net rng else Util.small_net rng in
  let k = Rng.int rng net.Nn.Network.output_dim in
  let dim = net.Nn.Network.input_dim in
  let center = Vec.init dim (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:1.0) in
  let region = Box.of_center_radius center (0.02 +. Rng.float rng 0.3) in
  (Optim.Objective.create net ~k, region)

let test_value_grad_matches_three_pass () =
  Util.repeat ~seed:101 ~count:20 (fun rng i ->
      let obj, region = random_problem rng i in
      let x = Box.sample rng region in
      let ov, og = Three_pass.value_grad obj x in
      let v, g = Optim.Objective.value_grad obj x in
      Util.check_bits "value" ov v;
      Util.check_vec_bits "grad" og g)

let test_pgd_oracle_full_budget () =
  Util.repeat ~seed:102 ~count:16 (fun rng i ->
      let obj, region = random_problem rng i in
      ignore (check_matches_oracle ~seed:(Rng.int rng 1_000_000) obj region))

(* A threshold halfway between the center's value and the first
   restart's result stops that restart early and skips the other four. *)
let test_pgd_oracle_early_stop () =
  let skipped = ref 0 in
  Util.repeat ~seed:103 ~count:16 (fun rng i ->
      let obj, region = random_problem rng i in
      let v_center = Optim.Objective.value obj (Box.center region) in
      let _, v_first =
        Three_pass.run_from ~steps:(ref 0) ~config:Optim.Pgd.default_config
          obj region (Box.center region)
      in
      let config =
        {
          Optim.Pgd.default_config with
          early_stop = Some ((v_center +. v_first) /. 2.0);
        }
      in
      let _, restarts =
        check_matches_oracle ~config ~seed:(Rng.int rng 1_000_000) obj region
      in
      if v_first < v_center then begin
        Alcotest.(check int) "later restarts skipped" 1 restarts;
        incr skipped
      end);
  Util.check_true "some cases stopped early" (!skipped > 0)

(* A network whose ReLU layer is dead everywhere has a zero gradient, so
   every restart exits on [gnorm <= 1e-12] after one step; Example 2.2
   is flat only below x = 1, so its restarts mix both exits. *)
let test_pgd_oracle_zero_gradient () =
  let dead =
    Nn.Network.create ~input_dim:3
      [
        Nn.Layer.affine (Mat.zeros 4 3) (Vec.create 4 (-1.0));
        Nn.Layer.Relu;
        Nn.Layer.affine (Mat.init 2 4 (fun i j -> float_of_int (i + j))) [| 0.5; 0.0 |];
      ]
  in
  let obj = Optim.Objective.create dead ~k:0 in
  let region = Box.of_center_radius [| 0.1; 0.2; 0.3 |] 0.5 in
  let steps, restarts = check_matches_oracle ~seed:104 obj region in
  Alcotest.(check int) "five restarts" 5 restarts;
  Alcotest.(check int) "one step each" restarts steps;
  let obj = Optim.Objective.create (Nn.Init.example_2_2 ()) ~k:1 in
  let region = Box.create ~lo:[| -1.0 |] ~hi:[| 2.0 |] in
  ignore (check_matches_oracle ~seed:105 obj region)

(* Exact ties keep the earlier point.  On F(x) = |x| the first step
   (0.5) from 0.25 lands on -0.25 with the same value, so the within-restart
   [v < best_v] keeps 0.25.  On F(x) = x0 every restart ends at x0 = 0
   with F = 0 exactly but its own x1, so the restart tie-break keeps the
   center's. *)
let test_pgd_oracle_ties () =
  let abs_net =
    Nn.Network.create ~input_dim:1
      [
        Nn.Layer.affine (Mat.of_rows [| [| 1.0 |]; [| -1.0 |] |]) (Vec.zeros 2);
        Nn.Layer.Relu;
        Nn.Layer.affine (Mat.of_rows [| [| 1.0; 1.0 |]; [| 0.0; 0.0 |] |]) (Vec.zeros 2);
      ]
  in
  let config =
    { Optim.Pgd.default_config with steps = 1; restarts = 1; step_scale = 0.5 }
  in
  let obj = Optim.Objective.create abs_net ~k:0 in
  let region = Box.create ~lo:[| -0.25 |] ~hi:[| 0.75 |] in
  ignore (check_matches_oracle ~config ~seed:107 obj region);
  let x, _ = Optim.Pgd.minimize ~config ~rng:(Rng.create 107) obj region in
  Util.check_vec_bits "first of two equal values" [| 0.25 |] x;
  let x0_net =
    Nn.Network.create ~input_dim:2
      [ Nn.Layer.affine (Mat.of_rows [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |]) (Vec.zeros 2) ]
  in
  let obj = Optim.Objective.create x0_net ~k:0 in
  let region = Box.create ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |] in
  ignore (check_matches_oracle ~seed:108 obj region);
  let x, v = Optim.Pgd.minimize ~rng:(Rng.create 108) obj region in
  Util.check_bits "f* = 0" 0.0 v;
  Util.check_vec_bits "center restart wins the tie" [| 0.0; 0.5 |] x

let test_pgd_oracle_point_region () =
  Util.repeat ~seed:106 ~count:6 (fun rng i ->
      let obj, region = random_problem rng i in
      let point = Box.of_point (Box.sample rng region) in
      ignore (check_matches_oracle ~seed:(Rng.int rng 1_000_000) obj point))

(* ------------------------------------------------------------------ *)
(* FGSM *)

let test_fgsm_stays_inside () =
  Util.repeat ~seed:98 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let x, v = Optim.Fgsm.attack_center obj box in
      Util.check_true "inside" (Box.contains box x);
      Util.check_close ~eps:1e-9 "value" (Optim.Objective.value obj x) v)

let test_fgsm_moves_to_faces () =
  (* On a linear objective FGSM reaches the exact minimizing corner. *)
  let w = Mat.of_rows [| [| 1.0; -1.0 |]; [| 0.0; 0.0 |] |] in
  let net = Nn.Network.create ~input_dim:2 [ Nn.Layer.affine w (Vec.zeros 2) ] in
  let obj = Optim.Objective.create net ~k:0 in
  let box = Box.create ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |] in
  let x, _ = Optim.Fgsm.attack_center obj box in
  (* F = y0 - y1 = x0 - x1; minimized at (0, 1). *)
  Util.check_vec "exact corner" [| 0.0; 1.0 |] x

(* ------------------------------------------------------------------ *)
(* MI-FGSM *)

let test_mifgsm_stays_inside () =
  Util.repeat ~seed:99 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let x, v = Optim.Mifgsm.attack_center obj box in
      Util.check_true "inside" (Box.contains box x);
      Util.check_close ~eps:1e-9 "value" (Optim.Objective.value obj x) v)

let test_mifgsm_finds_known_counterexample () =
  (* Start where the objective has a slope (F is flat below x = 1, so a
     center start at 0.5 sees zero gradient and stays put — momentum is
     not a global optimizer). *)
  let net = Nn.Init.example_2_2 () in
  let obj = Optim.Objective.create net ~k:1 in
  let box = Box.create ~lo:[| -1.0 |] ~hi:[| 2.0 |] in
  let _, v = Optim.Mifgsm.attack obj box ~from:[| 1.2 |] in
  Util.check_true "found violation" (v <= 0.0)

let test_mifgsm_no_worse_than_start () =
  Util.repeat ~seed:100 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let box = Util.small_box rng net.Nn.Network.input_dim in
      let start = Box.sample rng box in
      let _, v = Optim.Mifgsm.attack obj box ~from:start in
      Util.check_true "no worse than start"
        (v <= Optim.Objective.value obj start +. 1e-9))

let () =
  Alcotest.run "optim"
    [
      ( "objective",
        [
          Util.case "value definition" test_objective_value_definition;
          Util.case "sign matches classification" test_objective_sign_matches_classification;
          Util.case "gradient vs finite diff" test_objective_grad_matches_finite_diff;
          Util.case "delta counterexamples" test_objective_delta_counterexample;
          Util.case "rejects bad class" test_objective_rejects_bad_class;
        ] );
      ( "pgd",
        [
          Util.case "stays inside region" test_pgd_stays_inside;
          Util.case "finds known counterexample" test_pgd_finds_known_counterexample;
          Util.case "beats center value" test_pgd_beats_center_value;
          Util.case "early stop" test_pgd_early_stop;
          Util.case "degenerate region" test_pgd_point_region;
        ] );
      ( "pgd-oracle",
        [
          Util.case "value_grad = three-pass value_grad"
            test_value_grad_matches_three_pass;
          Util.case "full budget" test_pgd_oracle_full_budget;
          Util.case "early stop skips restarts" test_pgd_oracle_early_stop;
          Util.case "zero-gradient exit" test_pgd_oracle_zero_gradient;
          Util.case "point region" test_pgd_oracle_point_region;
          Util.case "ties keep the earlier point" test_pgd_oracle_ties;
        ] );
      ( "fgsm",
        [
          Util.case "stays inside region" test_fgsm_stays_inside;
          Util.case "reaches minimizing corner" test_fgsm_moves_to_faces;
        ] );
      ( "mifgsm",
        [
          Util.case "stays inside region" test_mifgsm_stays_inside;
          Util.case "finds known counterexample" test_mifgsm_finds_known_counterexample;
          Util.case "no worse than start" test_mifgsm_no_worse_than_start;
        ] );
    ]
