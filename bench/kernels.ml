(* Kernel microbenchmark harness.

   Times the dense kernels that dominate the abstract interpreter —
   [Mat.gemm], the batched zonotope affine transformer, and im2col
   convolution — at several sizes, and one PGD step on two suite
   network shapes, and writes [BENCH_kernels.json] records (shape,
   ns/op, GFLOP/s, workers, cores) so later PRs have a perf trajectory
   to regress against.

   Usage:
     dune exec bench/kernels.exe                  # full sweep -> BENCH_kernels.json
     dune exec bench/kernels.exe -- --out FILE    # custom output path
     dune exec bench/kernels.exe -- --quick       # subset of the sweep's
                                                  # shapes, shorter quota;
                                                  # CI's regression probe
     dune exec bench/kernels.exe -- --smoke       # tiny sizes, correctness
                                                  # gates only, no JSON *)

open Linalg

type result = {
  group : string;
  name : string;
  shape : string;
  workers : int;  (** kernel worker count for this row; 1 = sequential *)
  ns_per_op : float;
  gflops : float;  (** 0.0 when a FLOP count is not meaningful *)
  speedup : float;  (** vs the group's reference kernel; 0.0 if none *)
}

(* Best-of-repeats timing: run [f] in batches sized to take ~[quota]
   seconds, repeat, report the best batch (least scheduler noise). *)
let batch_size ~quota f =
  (* Warm up and estimate a batch size. *)
  f ();
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Stdlib.max 1e-9 (Unix.gettimeofday () -. t0) in
  Stdlib.max 1 (int_of_float (quota /. once))

let run_batch batch f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to batch do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int batch

(* Time a (reference, candidate) pair with interleaved repeats —
   ref, cand, ref, cand, ... — so the reported speedup ratio is robust
   against frequency / scheduler drift on a shared machine, which would
   otherwise skew two back-to-back measurements in the same direction. *)
let time_pair_ns ?(quota = 0.2) ?(repeats = 5) fref fcand =
  let bref = batch_size ~quota fref and bcand = batch_size ~quota fcand in
  let best_ref = ref infinity and best_cand = ref infinity in
  for _ = 1 to repeats do
    let r = run_batch bref fref in
    if r < !best_ref then best_ref := r;
    let c = run_batch bcand fcand in
    if c < !best_cand then best_cand := c
  done;
  (!best_ref *. 1e9, !best_cand *. 1e9)

let results : result list ref = ref []

let record ~group ~name ~shape ?(workers = 1) ~flops ?(speedup = 0.0) ns =
  let gflops = if flops <= 0.0 then 0.0 else flops /. ns in
  results :=
    { group; name; shape; workers; ns_per_op = ns; gflops; speedup }
    :: !results;
  Printf.printf "  %-24s %-18s w%d %12.0f ns/op %8.2f GFLOP/s%s\n%!" name shape
    workers ns gflops
    (if speedup > 0.0 then Printf.sprintf "  %5.2fx" speedup else "")

let rng = Rng.create 2019

let random_mat r c = Mat.init r c (fun _ _ -> Rng.gaussian rng)

let random_vec n = Vec.init n (fun _ -> Rng.gaussian rng)

(* ------------------------------------------------------------------ *)
(* GEMM *)

let bench_gemm ?(jobs_sweep = []) ~sizes () =
  Printf.printf "== gemm ==\n%!";
  List.concat_map
    (fun n ->
      let a = random_mat n n and b = random_mat n n in
      let c = Mat.zeros n n in
      let flops = 2.0 *. float_of_int (n * n * n) in
      let shape = Printf.sprintf "%dx%dx%d" n n n in
      let naive_ns, gemm_ns =
        time_pair_ns
          (fun () ->
            (* Row-at-a-time reference: the seed repo's matmul loop. *)
            Array.fill c.Mat.data 0 (n * n) 0.0;
            for i = 0 to n - 1 do
              for k = 0 to n - 1 do
                let aik = Mat.get a i k in
                if aik <> 0.0 then begin
                  let base_b = k * n and base_c = i * n in
                  for j = 0 to n - 1 do
                    c.Mat.data.(base_c + j) <-
                      c.Mat.data.(base_c + j) +. (aik *. b.Mat.data.(base_b + j))
                  done
                end
              done
            done)
          (fun () -> Mat.gemm a b c)
      in
      record ~group:"gemm" ~name:"matmul-naive" ~shape ~flops naive_ns;
      record ~group:"gemm" ~name:"gemm" ~shape ~flops
        ~speedup:(naive_ns /. gemm_ns) gemm_ns;
      (* Workers sweep: the same product on the kernel-helper team,
         interleaved against the sequential kernel so the parallel
         speedup survives frequency drift.  Results must stay
         bit-identical to the sequential output — that is the whole
         contract of the row-panel split. *)
      let seq = Mat.zeros n n in
      Mat.gemm ~jobs:1 a b seq;
      List.map
        (fun j ->
          let seq_ns, par_ns =
            time_pair_ns
              (fun () -> Mat.gemm ~jobs:1 a b c)
              (fun () -> Mat.gemm ~jobs:j a b c)
          in
          let speedup = seq_ns /. par_ns in
          record ~group:"gemm" ~name:"gemm" ~shape ~workers:j ~flops ~speedup
            par_ns;
          Mat.gemm ~jobs:j a b c;
          if c.Mat.data <> seq.Mat.data then
            failwith
              (Printf.sprintf
                 "bench/kernels: gemm jobs=%d result differs from sequential \
                  at %s"
                 j shape);
          ((n, j), speedup))
        jobs_sweep)
    sizes

(* ------------------------------------------------------------------ *)
(* Zonotope affine: batched generator matrix vs per-generator matvec *)

(* The seed implementation: one matvec per generator plus the
   list-round-trip prune, kept verbatim as the reference kernel. *)
let per_gen_affine w b ~center ~gens =
  let tiny = 1e-300 in
  let norm1 g = Array.fold_left (fun acc x -> acc +. abs_float x) 0.0 g in
  let prune gens =
    Array.of_list (List.filter (fun g -> norm1 g > tiny) (Array.to_list gens))
  in
  ( Vec.add (Mat.matvec w center) b,
    prune (Array.map (fun g -> Mat.matvec w g) gens) )

let bench_zonotope ~configs () =
  Printf.printf "== zonotope affine ==\n%!";
  List.map
    (fun (gens, dim) ->
      let w = random_mat dim dim and b = random_vec dim in
      let center = random_vec dim in
      let gvecs = Array.init gens (fun _ -> random_vec dim) in
      let z = Domains.Zonotope.create ~center ~gens:gvecs in
      let flops = 2.0 *. float_of_int (gens * dim * dim) in
      let shape = Printf.sprintf "%dgens x %ddim" gens dim in
      let ref_ns, batched_ns =
        time_pair_ns
          (fun () -> ignore (per_gen_affine w b ~center ~gens:gvecs))
          (fun () -> ignore (Domains.Zonotope.affine w b z))
      in
      record ~group:"zonotope-affine" ~name:"per-gen-matvec" ~shape ~flops
        ref_ns;
      let speedup = ref_ns /. batched_ns in
      record ~group:"zonotope-affine" ~name:"batched-gemm" ~shape ~flops
        ~speedup batched_ns;
      (* Correctness gate: both paths must agree bitwise-closely. *)
      let rc, rg = per_gen_affine w b ~center ~gens:gvecs in
      let out = Domains.Zonotope.affine w b z in
      if not (Vec.approx_equal ~eps:1e-9 rc (Domains.Zonotope.center out)) then
        failwith "bench/kernels: zonotope affine center mismatch";
      let og = Domains.Zonotope.generators out in
      if Array.length og <> Array.length rg then
        failwith "bench/kernels: zonotope affine generator count mismatch";
      Array.iteri
        (fun i g ->
          if not (Vec.approx_equal ~eps:1e-9 g og.(i)) then
            failwith "bench/kernels: zonotope affine generator mismatch")
        rg;
      ((gens, dim), speedup))
    configs

(* ------------------------------------------------------------------ *)
(* Convolution: im2col + gemm vs the direct nested loop *)

let bench_conv ~configs () =
  Printf.printf "== conv forward ==\n%!";
  List.iter
    (fun (channels, hw, out_channels, kernel) ->
      let input = Nn.Shape.create ~channels ~height:hw ~width:hw in
      let wcount =
        Nn.Conv.weight_count ~out_channels ~in_channels:channels ~kernel
      in
      let conv =
        Nn.Conv.create ~input ~out_channels ~kernel ~stride:1 ~padding:1
          ~weights:(Array.init wcount (fun _ -> Rng.gaussian rng))
          ~bias:(random_vec out_channels)
      in
      let x = random_vec (Nn.Shape.size input) in
      let out = Nn.Conv.output_shape conv in
      let flops =
        2.0
        *. float_of_int
             (Nn.Shape.size out * channels * kernel * kernel)
      in
      let shape =
        Printf.sprintf "%dx%dx%d k%d oc%d" channels hw hw kernel out_channels
      in
      let direct_ns, im2col_ns =
        time_pair_ns
          (fun () -> ignore (Nn.Conv.forward_direct conv x))
          (fun () -> ignore (Nn.Conv.forward conv x))
      in
      record ~group:"conv-forward" ~name:"direct" ~shape ~flops direct_ns;
      record ~group:"conv-forward" ~name:"im2col-gemm" ~shape ~flops
        ~speedup:(direct_ns /. im2col_ns) im2col_ns;
      if
        not
          (Vec.approx_equal ~eps:1e-9
             (Nn.Conv.forward conv x)
             (Nn.Conv.forward_direct conv x))
      then failwith "bench/kernels: conv im2col/direct mismatch")
    configs

(* ------------------------------------------------------------------ *)
(* End-to-end deep propagation: a deep affine/ReLU stack pushed through
   the abstract interpreter with the zonotope domain, at several kernel
   worker counts.  This is the verifier's actual hot loop — generator
   GEMMs wrapped in prune/relu bookkeeping — so it shows how much of
   the raw GEMM speedup survives end to end. *)

let bench_deep_propagate ~jobs_list () =
  Printf.printf "== deep-propagate ==\n%!";
  let dim = 192 and pairs = 6 in
  (* 6 x (affine 192x192 + relu) = 12 layers.  Weights are scaled like
     Xavier init so activations neither explode nor die. *)
  let scale = 1.0 /. sqrt (float_of_int dim) in
  let layers =
    List.concat
      (List.init pairs (fun _ ->
           let w =
             Mat.init dim dim (fun _ _ -> scale *. Rng.gaussian rng)
           in
           [ Nn.Layer.affine w (random_vec dim); Nn.Layer.Relu ]))
  in
  let net = Nn.Network.create ~input_dim:dim layers in
  let center = random_vec dim in
  let box =
    Domains.Box.create
      ~lo:(Vec.init dim (fun i -> center.(i) -. 0.05))
      ~hi:(Vec.init dim (fun i -> center.(i) +. 0.05))
  in
  let shape = Printf.sprintf "%dL x %d" (Nn.Network.num_layers net) dim in
  let propagate jobs () =
    ignore
      (Absint.Analyzer.propagate
         (module Domains.Zonotope)
         ~jobs net
         (Domains.Zonotope.of_box box))
  in
  let base_out =
    Absint.Analyzer.propagate
      (module Domains.Zonotope)
      ~jobs:1 net
      (Domains.Zonotope.of_box box)
  in
  List.iter
    (fun jobs ->
      let seq_ns, par_ns = time_pair_ns (propagate 1) (propagate jobs) in
      let ns = if jobs = 1 then seq_ns else par_ns in
      let speedup = if jobs = 1 then 0.0 else seq_ns /. par_ns in
      record ~group:"deep-propagate" ~name:"analyzer-zonotope" ~shape
        ~workers:jobs ~flops:0.0 ~speedup ns;
      (* Determinism gate: the abstract output must be bit-identical to
         the sequential pass at every worker count. *)
      let out =
        Absint.Analyzer.propagate
          (module Domains.Zonotope)
          ~jobs net
          (Domains.Zonotope.of_box box)
      in
      if
        Domains.Zonotope.center out <> Domains.Zonotope.center base_out
        || Domains.Zonotope.generators out
           <> Domains.Zonotope.generators base_out
      then
        failwith
          (Printf.sprintf
             "bench/kernels: deep propagate jobs=%d differs from sequential"
             jobs))
    jobs_list

(* ------------------------------------------------------------------ *)
(* One PGD step: the work of each iteration of Algorithm 1's
   counterexample search ([Optim.Pgd]) — one [Objective.evaluate]
   (a forward trace) plus one [grad_at] (a backward sweep over it) — on
   the layer shapes of two suite networks with random weights.  It
   exercises the one-row GEMM edges (dense layers) and the im2col tap
   tables and pooling windows (LeNet) together. *)

(* Best-of-repeats time of [f] alone, in ns. *)
let time_ns ?(quota = 0.2) ?(repeats = 5) f =
  let b = batch_size ~quota f in
  let best = ref infinity in
  for _ = 1 to repeats do
    best := Stdlib.min !best (run_batch b f)
  done;
  !best *. 1e9

let bench_pgd_step () =
  Printf.printf "== pgd-step ==\n%!";
  let mnist = Nn.Shape.create ~channels:1 ~height:10 ~width:10 in
  let lenet = Nn.Shape.create ~channels:1 ~height:8 ~width:8 in
  let nets =
    [
      ( "mnist-9x200",
        mnist,
        Nn.Init.dense rng
          ~layer_sizes:
            ((Nn.Shape.size mnist :: List.init 8 (fun _ -> 48)) @ [ 10 ]) );
      ("conv-lenet", lenet, Nn.Init.lenet_like rng ~input:lenet ~classes:10);
    ]
  in
  List.iter
    (fun (shape, input, net) ->
      let obj = Optim.Objective.create net ~k:0 in
      let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.float rng 1.0) in
      let ns =
        time_ns (fun () ->
            ignore (Optim.Objective.grad_at obj (Optim.Objective.evaluate obj x)))
      in
      record ~group:"pgd-step" ~name:"evaluate+grad_at" ~shape ~flops:0.0 ns)
    nets

(* ------------------------------------------------------------------ *)
(* JSON output *)

let write_json path rs =
  let open Telemetry.Jsonw in
  let cores = Domain.recommended_domain_count () in
  let row r =
    Obj
      [
        ("group", Str r.group);
        ("name", Str r.name);
        ("shape", Str r.shape);
        ("workers", Int r.workers);
        ("cores", Int cores);
        ("ns_per_op", Float r.ns_per_op);
        ("gflops", Float r.gflops);
        ("speedup", Float r.speedup);
      ]
  in
  (* [cores] records the machine the numbers came from: parallel rows
     measured on fewer cores than workers are expected to show no
     speedup, and bin/benchdiff.exe compares rows like-for-like on the
     per-row [workers] field.  Each row repeats it, so rows appended to
     a baseline recorded on another machine keep their own. *)
  let doc =
    Obj
      [
        ("benchmark", Str "kernels");
        ("cores", Int cores);
        ("results", Arr (List.map row rs));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ~pretty:true doc ^ "\n"));
  Printf.printf "wrote %s (%d records)\n%!" path (List.length rs)

let () =
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let out_path =
    let rec find = function
      | "--out" :: v :: _ -> v
      | _ :: rest -> find rest
      | [] -> "BENCH_kernels.json"
    in
    find (Array.to_list Sys.argv)
  in
  if smoke then begin
    (* Tiny sizes: exercises every kernel path and the correctness
       gates — including the parallel row-panel bit-identity and the
       deep-propagate determinism gate — used as the tier-1 regression
       smoke under `dune runtest`. *)
    ignore (bench_gemm ~jobs_sweep:[ 2; 4 ] ~sizes:[ 17 ] ());
    ignore (bench_zonotope ~configs:[ (9, 13) ] ());
    bench_conv ~configs:[ (2, 6, 3, 3) ] ();
    Printf.printf "kernel smoke ok\n%!"
  end
  else if quick then begin
    (* CI regression probe: a mid-size shape per group, chosen to
       overlap the full sweep so bin/benchdiff.exe can compare the
       output against the committed BENCH_kernels.json baseline
       (like-for-like on the per-row workers field). *)
    ignore (bench_gemm ~jobs_sweep:[ 2; 4 ] ~sizes:[ 64 ] ());
    ignore (bench_zonotope ~configs:[ (64, 128) ] ());
    bench_conv ~configs:[ (4, 16, 8, 3) ] ();
    bench_deep_propagate ~jobs_list:[ 1; 4 ] ();
    bench_pgd_step ();
    write_json out_path (List.rev !results)
  end
  else begin
    let gemm_speedups =
      bench_gemm ~jobs_sweep:[ 2; 4 ] ~sizes:[ 32; 64; 128; 256 ] ()
    in
    let zono = bench_zonotope ~configs:[ (32, 64); (64, 128); (128, 256); (256, 256) ] () in
    bench_conv ~configs:[ (1, 16, 4, 3); (4, 16, 8, 3); (8, 28, 16, 3) ] ();
    bench_deep_propagate ~jobs_list:[ 1; 2; 4 ] ();
    bench_pgd_step ();
    write_json out_path (List.rev !results);
    (* The acceptance gate of the batching PR: batched zonotope affine
       must beat the per-generator path by >= 3x at 128 gens x 256 dims. *)
    (match List.assoc_opt (128, 256) zono with
    | Some s when s < 3.0 ->
        Printf.eprintf
          "WARNING: batched zonotope affine speedup %.2fx < 3x at 128x256\n" s
    | _ -> ());
    (* The acceptance gate of the parallel-GEMM PR: >= 2.5x at 4 workers
       on 256x256x256.  Only meaningful on a machine that actually has
       the cores — a 1-core container runs all panels on one domain and
       the sweep documents that honestly (speedup ~1x, cores field in
       the JSON). *)
    let cores = Domain.recommended_domain_count () in
    match List.assoc_opt (256, 4) gemm_speedups with
    | Some s when cores >= 4 && s < 2.5 ->
        Printf.eprintf
          "WARNING: parallel gemm speedup %.2fx < 2.5x at 256^3 with 4 \
           workers on %d cores\n"
          s cores
    | Some s when cores < 4 ->
        Printf.printf
          "note: %d core(s) available; 4-worker gemm speedup %.2fx is \
           core-bound, not a regression\n%!"
          cores s
    | _ -> ()
  end
