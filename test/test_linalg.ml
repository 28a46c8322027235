open Linalg

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let x = Rng.bits64 child and y = Rng.bits64 parent in
  Alcotest.(check bool) "different streams" true (x <> y)

let test_rng_int_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Util.check_true "in range" (v >= 0 && v < 10)
  done

let test_rng_float_range () =
  let rng = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.5 in
    Util.check_true "in range" (v >= 0.0 && v < 3.5)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 3 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.uniform rng ~lo:2.0 ~hi:4.0
  done;
  Util.check_close ~eps:0.05 "mean near 3" 3.0 (!acc /. float_of_int n)

let test_rng_gaussian_moments () =
  let rng = Rng.create 4 in
  let n = 50_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian rng in
    sum := !sum +. g;
    sq := !sq +. (g *. g)
  done;
  Util.check_close ~eps:0.05 "mean 0" 0.0 (!sum /. float_of_int n);
  Util.check_close ~eps:0.1 "variance 1" 1.0 (!sq /. float_of_int n)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 6 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  Util.check_vec "add" [| 5.0; 7.0; 9.0 |] (Vec.add a b);
  Util.check_vec "sub" [| -3.0; -3.0; -3.0 |] (Vec.sub a b);
  Util.check_vec "mul" [| 4.0; 10.0; 18.0 |] (Vec.mul a b);
  Util.check_vec "scale" [| 2.0; 4.0; 6.0 |] (Vec.scale 2.0 a);
  Util.check_float "dot" 32.0 (Vec.dot a b);
  Util.check_float "sum" 6.0 (Vec.sum a);
  Util.check_float "mean" 2.0 (Vec.mean a)

let test_vec_norms () =
  let v = [| 3.0; -4.0 |] in
  Util.check_float "norm2" 5.0 (Vec.norm2 v);
  Util.check_float "norm_inf" 4.0 (Vec.norm_inf v);
  Util.check_float "dist2" 5.0 (Vec.dist2 [| 0.0; 0.0 |] v)

let test_vec_argmax_first_tie () =
  Alcotest.(check int) "first on ties" 1 (Vec.argmax [| 0.0; 5.0; 5.0 |]);
  Alcotest.(check int) "argmin" 0 (Vec.argmin [| -1.0; 5.0; 5.0 |])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy 2.0 [| 3.0; 4.0 |] y;
  Util.check_vec "axpy" [| 7.0; 9.0 |] y

let test_vec_clamp () =
  let lo = [| 0.0; 0.0 |] and hi = [| 1.0; 1.0 |] in
  Util.check_vec "clamp" [| 0.0; 1.0 |] (Vec.clamp ~lo ~hi [| -5.0; 2.0 |])

let test_vec_relu () =
  Util.check_vec "relu" [| 0.0; 0.0; 2.0 |] (Vec.relu [| -1.0; 0.0; 2.0 |])

let test_vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.add [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

(* ------------------------------------------------------------------ *)
(* Mat *)

let test_mat_matvec () =
  let m = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Util.check_vec "matvec" [| 5.0; 11.0 |] (Mat.matvec m [| 1.0; 2.0 |])

let test_mat_matvec_t_is_transpose () =
  Util.repeat ~seed:10 (fun rng _ ->
      let r = 1 + Rng.int rng 5 and c = 1 + Rng.int rng 5 in
      let m = Mat.init r c (fun _ _ -> Rng.gaussian rng) in
      let x = Vec.init r (fun _ -> Rng.gaussian rng) in
      Util.check_vec ~eps:1e-9 "matvec_t = (m^T) v"
        (Mat.matvec (Mat.transpose m) x)
        (Mat.matvec_t m x))

let test_mat_matmul_identity () =
  Util.repeat ~seed:11 (fun rng _ ->
      let n = 1 + Rng.int rng 5 in
      let m = Mat.init n n (fun _ _ -> Rng.gaussian rng) in
      Util.check_true "m * I = m"
        (Mat.approx_equal m (Mat.matmul m (Mat.identity n))))

let test_mat_matmul_associative_with_vector () =
  Util.repeat ~seed:12 (fun rng _ ->
      let a = Mat.init 3 4 (fun _ _ -> Rng.gaussian rng) in
      let b = Mat.init 4 2 (fun _ _ -> Rng.gaussian rng) in
      let x = Vec.init 2 (fun _ -> Rng.gaussian rng) in
      Util.check_vec ~eps:1e-9 "(ab)x = a(bx)"
        (Mat.matvec a (Mat.matvec b x))
        (Mat.matvec (Mat.matmul a b) x))

let test_mat_abs_row_sums () =
  let m = Mat.of_rows [| [| 1.0; -2.0 |]; [| -3.0; 4.0 |] |] in
  Util.check_vec "abs row sums" [| 3.0; 7.0 |] (Mat.abs_row_sums m)

let random_spd rng n =
  let a = Mat.init n n (fun _ _ -> Rng.gaussian rng) in
  let ata = Mat.matmul (Mat.transpose a) a in
  (* Regularise to keep the matrix well-conditioned. *)
  Mat.add ata (Mat.scale (0.1 *. float_of_int n) (Mat.identity n))

let test_cholesky_factorizes () =
  Util.repeat ~seed:13 (fun rng _ ->
      let n = 1 + Rng.int rng 6 in
      let a = random_spd rng n in
      let l = Mat.cholesky a in
      Util.check_true "L L^T = A"
        (Mat.approx_equal ~eps:1e-7 a (Mat.matmul l (Mat.transpose l))))

let test_cholesky_solve () =
  Util.repeat ~seed:14 (fun rng _ ->
      let n = 1 + Rng.int rng 6 in
      let a = random_spd rng n in
      let x_true = Vec.init n (fun _ -> Rng.gaussian rng) in
      let b = Mat.matvec a x_true in
      let l = Mat.cholesky a in
      let x = Mat.cholesky_solve l b in
      Util.check_vec ~eps:1e-6 "solves A x = b" x_true x)

let test_cholesky_rejects_indefinite () =
  let m = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "not PD"
    (Failure "Mat.cholesky: matrix not positive definite") (fun () ->
      ignore (Mat.cholesky m))

(* ------------------------------------------------------------------ *)
(* GEMM and in-place kernels *)

(* Triple-loop oracle for [c <- alpha * op(a) * op(b) + beta * c],
   deliberately naive so the blocked kernel is checked against
   independently written arithmetic. *)
let naive_gemm ~transa ~transb ~alpha ~beta a b c =
  let opa = if transa then Mat.transpose a else a in
  let opb = if transb then Mat.transpose b else b in
  Mat.init opa.Mat.rows opb.Mat.cols (fun i j ->
      let acc = ref 0.0 in
      for p = 0 to opa.Mat.cols - 1 do
        acc := !acc +. (Mat.get opa i p *. Mat.get opb p j)
      done;
      (alpha *. !acc) +. (beta *. Mat.get c i j))

let check_gemm_case ~transa ~transb ~alpha ~beta ~m ~n ~k rng =
  let a = if transa then Mat.init k m (fun _ _ -> Rng.gaussian rng)
          else Mat.init m k (fun _ _ -> Rng.gaussian rng) in
  let b = if transb then Mat.init n k (fun _ _ -> Rng.gaussian rng)
          else Mat.init k n (fun _ _ -> Rng.gaussian rng) in
  let c = Mat.init m n (fun _ _ -> Rng.gaussian rng) in
  let expected = naive_gemm ~transa ~transb ~alpha ~beta a b c in
  let got = Mat.copy c in
  Mat.gemm ~transa ~transb ~alpha ~beta a b got;
  Util.check_true
    (Printf.sprintf "gemm %dx%dx%d ta=%b tb=%b alpha=%g beta=%g" m n k transa
       transb alpha beta)
    (Mat.approx_equal ~eps:1e-9 expected got)

let test_gemm_matches_naive () =
  Util.repeat ~seed:21 ~count:30 (fun rng _ ->
      (* Sizes straddle the 4x4 tile: remainders in every dimension. *)
      let m = 1 + Rng.int rng 13
      and n = 1 + Rng.int rng 13
      and k = 1 + Rng.int rng 17 in
      let alpha = [| 1.0; -0.5; 2.0 |].(Rng.int rng 3)
      and beta = [| 0.0; 1.0; -0.25 |].(Rng.int rng 3) in
      List.iter
        (fun (transa, transb) ->
          check_gemm_case ~transa ~transb ~alpha ~beta ~m ~n ~k rng)
        [ (false, false); (false, true); (true, false); (true, true) ])

let test_gemm_crosses_blocking () =
  (* One shape wider than [block_n] and deeper than a single tile pass,
     so the panel loops and their edges are all exercised. *)
  let rng = Rng.create 22 in
  List.iter
    (fun (transa, transb) ->
      check_gemm_case ~transa ~transb ~alpha:1.0 ~beta:1.0 ~m:9 ~n:133 ~k:70
        rng)
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_gemm_alpha_zero_is_beta_scale () =
  let rng = Rng.create 23 in
  let a = Mat.init 5 4 (fun _ _ -> Rng.gaussian rng) in
  let b = Mat.init 4 6 (fun _ _ -> Rng.gaussian rng) in
  let c = Mat.init 5 6 (fun _ _ -> Rng.gaussian rng) in
  let got = Mat.copy c in
  Mat.gemm ~alpha:0.0 ~beta:(-2.0) a b got;
  Util.check_true "alpha=0 leaves beta*c"
    (Mat.approx_equal ~eps:0.0 (Mat.scale (-2.0) c) got)

let test_gemm_rejects_mismatch () =
  let a = Mat.zeros 2 3 and b = Mat.zeros 4 5 in
  Alcotest.check_raises "inner mismatch"
    (Invalid_argument "Mat.gemm: inner dimension mismatch (3 vs 4)")
    (fun () -> Mat.gemm a b (Mat.zeros 2 5));
  let b = Mat.zeros 3 5 in
  Alcotest.check_raises "output shape"
    (Invalid_argument "Mat.gemm: output is 2x4, expected 2x5") (fun () ->
      Mat.gemm a b (Mat.zeros 2 4))

let test_mat_matmul_is_gemm () =
  Util.repeat ~seed:24 (fun rng _ ->
      let m = 1 + Rng.int rng 9
      and n = 1 + Rng.int rng 9
      and k = 1 + Rng.int rng 9 in
      let a = Mat.init m k (fun _ _ -> Rng.gaussian rng) in
      let b = Mat.init k n (fun _ _ -> Rng.gaussian rng) in
      Util.check_true "matmul = oracle"
        (Mat.approx_equal ~eps:1e-9
           (naive_gemm ~transa:false ~transb:false ~alpha:1.0 ~beta:0.0 a b
              (Mat.zeros m n))
           (Mat.matmul a b)))

let test_mat_inplace_ops () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_rows [| [| 0.5; -1.0 |]; [| 2.0; 0.0 |] |] in
  let into = Mat.zeros 2 2 in
  Mat.add_into a b ~into;
  Util.check_true "add_into" (Mat.approx_equal ~eps:0.0 (Mat.add a b) into);
  (* Aliasing: accumulate into one of the operands. *)
  let acc = Mat.copy a in
  Mat.add_into acc b ~into:acc;
  Util.check_true "add_into aliased"
    (Mat.approx_equal ~eps:0.0 (Mat.add a b) acc);
  let s = Mat.copy a in
  Mat.scale_inplace (-3.0) s;
  Util.check_true "scale_inplace"
    (Mat.approx_equal ~eps:0.0 (Mat.scale (-3.0) a) s);
  let y = Mat.copy b in
  Mat.axpy 2.0 a y;
  Util.check_true "axpy"
    (Mat.approx_equal ~eps:0.0 (Mat.add (Mat.scale 2.0 a) b) y)

(* ------------------------------------------------------------------ *)
(* Parallel GEMM: the determinism contract of [Mat.gemm ?jobs] *)

(* Every parallel schedule must produce the exact float array the
   sequential kernel does (docs/algorithms.md), so the check below is
   structural equality on [data] — not approx_equal. *)
let check_gemm_jobs_identical ~transa ~transb ~m ~n ~k rng =
  let a = if transa then Mat.init k m (fun _ _ -> Rng.gaussian rng)
          else Mat.init m k (fun _ _ -> Rng.gaussian rng) in
  let b = if transb then Mat.init n k (fun _ _ -> Rng.gaussian rng)
          else Mat.init k n (fun _ _ -> Rng.gaussian rng) in
  let c = Mat.init m n (fun _ _ -> Rng.gaussian rng) in
  let reference = Mat.copy c in
  Mat.gemm ~transa ~transb ~alpha:1.5 ~beta:(-0.5) ~jobs:1 a b reference;
  List.iter
    (fun jobs ->
      let got = Mat.copy c in
      Mat.gemm ~transa ~transb ~alpha:1.5 ~beta:(-0.5) ~jobs a b got;
      Util.check_true
        (Printf.sprintf "gemm %dx%dx%d ta=%b tb=%b jobs=%d bit-identical" m n
           k transa transb jobs)
        (got.Mat.data = reference.Mat.data))
    [ 2; 4 ]

let all_transposes =
  [ (false, false); (false, true); (true, false); (true, true) ]

let test_gemm_jobs_bit_identical () =
  let rng = Rng.create 26 in
  (* Sizes straddle the 4-row panel granularity: a multiple of 4, a
     remainder in every dimension, and a shape wide enough that the
     panel split is non-trivial at 4 jobs. *)
  List.iter
    (fun (m, n, k) ->
      List.iter
        (fun (transa, transb) ->
          check_gemm_jobs_identical ~transa ~transb ~m ~n ~k rng)
        all_transposes)
    [ (9, 133, 70); (64, 64, 64); (33, 17, 29); (8, 8, 8) ]

let test_gemm_jobs_degenerate_shapes () =
  let rng = Rng.create 27 in
  (* Single-row, single-column, and empty operands: the parallel driver
     must neither crash on an empty panel split nor diverge from the
     sequential result (empty products reduce to the beta scaling). *)
  List.iter
    (fun (m, n, k) ->
      List.iter
        (fun (transa, transb) ->
          check_gemm_jobs_identical ~transa ~transb ~m ~n ~k rng)
        all_transposes)
    [ (1, 50, 20); (50, 1, 20); (3, 3, 1); (0, 5, 5); (5, 0, 5); (5, 5, 0) ]

let qcheck_gemm_jobs_identical =
  let gen =
    QCheck2.Gen.(
      pair
        (triple (int_range 0 40) (int_range 0 40) (int_range 0 48))
        (triple (int_range 2 8) bool bool))
  in
  Util.qtest "gemm ?jobs bit-identical on random shapes" ~count:60 gen
    (fun ((m, n, k), (jobs, transa, transb)) ->
      (* Operands derive deterministically from the generated shape so a
         failure reproduces from the printed counterexample alone. *)
      let rng =
        Rng.create (1 + m + (41 * n) + (1681 * k) + (79_507 * jobs))
      in
      let a = if transa then Mat.init k m (fun _ _ -> Rng.gaussian rng)
              else Mat.init m k (fun _ _ -> Rng.gaussian rng) in
      let b = if transb then Mat.init n k (fun _ _ -> Rng.gaussian rng)
              else Mat.init k n (fun _ _ -> Rng.gaussian rng) in
      let c = Mat.init m n (fun _ _ -> Rng.gaussian rng) in
      let reference = Mat.copy c in
      Mat.gemm ~transa ~transb ~beta:1.0 ~jobs:1 a b reference;
      let got = Mat.copy c in
      Mat.gemm ~transa ~transb ~beta:1.0 ~jobs a b got;
      got.Mat.data = reference.Mat.data)

let test_gemm_ambient_jobs_scoped () =
  (* [with_default_jobs] must set the ambient width only inside its
     scope, and an ambient width must not change results. *)
  Alcotest.(check int) "default ambient" 1 (Mat.default_jobs ());
  let rng = Rng.create 28 in
  let a = Mat.init 24 24 (fun _ _ -> Rng.gaussian rng) in
  let b = Mat.init 24 24 (fun _ _ -> Rng.gaussian rng) in
  let seq = Mat.zeros 24 24 in
  Mat.gemm a b seq;
  let amb =
    Mat.with_default_jobs 4 (fun () ->
        Alcotest.(check int) "ambient in scope" 4 (Mat.default_jobs ());
        let c = Mat.zeros 24 24 in
        Mat.gemm a b c;
        c)
  in
  Alcotest.(check int) "ambient restored" 1 (Mat.default_jobs ());
  Util.check_true "ambient width is bit-identical"
    (amb.Mat.data = seq.Mat.data)

(* ------------------------------------------------------------------ *)
(* Edge kernels against the one-output-at-a-time loops.

   The edge kernels handle every cell outside the 4x4 tiles — all of a
   one-row product.  The [gemm_nt] edge interleaves four columns and the
   [gemm_nn] edge folds up to four nonzero [a] entries per pass over
   [c]; both must make exactly the float operations, in exactly the
   order, of the straightforward loops below (the previous kernels),
   which therefore serve as bit-exact oracles.  Each is applied over
   the whole matrix, k-block by k-block, and compared on the cells the
   edge owns. *)

let oracle_block_k = 512

let oracle_block_n = 128

let oracle_edge_nt ~n ~k ~alpha ad bd cd i_lo i_hi j_lo j_hi p_lo p_hi =
  for i = i_lo to i_hi - 1 do
    let abase = i * k and cbase = i * n in
    for j = j_lo to j_hi - 1 do
      let bbase = j * k in
      let acc = ref 0.0 in
      for p = p_lo to p_hi - 1 do
        acc := !acc +. (ad.(abase + p) *. bd.(bbase + p))
      done;
      cd.(cbase + j) <- cd.(cbase + j) +. (alpha *. !acc)
    done
  done

let oracle_edge_nn ~n ~k ~alpha ad bd cd i_lo i_hi j_lo j_hi p_lo p_hi =
  for i = i_lo to i_hi - 1 do
    let abase = i * k and cbase = i * n in
    for p = p_lo to p_hi - 1 do
      let av = alpha *. ad.(abase + p) in
      if av <> 0.0 then begin
        let bbase = p * n in
        for j = j_lo to j_hi - 1 do
          cd.(cbase + j) <- cd.(cbase + j) +. (av *. bd.(bbase + j))
        done
      end
    done
  done

(* Whether [Mat.gemm] computes cell [(i, j)] of an [m x n] output with
   the edge kernel: rows past the last 4-row group, or columns past
   the last 4-column group of their [block_n] panel. *)
let edge_cell ~m ~n i j =
  let jj = j / oracle_block_n * oracle_block_n in
  let j_hi = Stdlib.min n (jj + oracle_block_n) in
  i >= m / 4 * 4 || j >= jj + ((j_hi - jj) / 4 * 4)

(* An [m x k] [a] whose row [i] holds [i mod 6] nonzeros (so 0 to 5)
   at random columns, with some stored [-0.0] entries that the [gemm_nn]
   edge must skip like [0.0]; or, when [dense], mostly nonzero. *)
let edge_test_a rng ~dense ~m ~k =
  let a = Mat.zeros m k in
  for i = 0 to m - 1 do
    if dense then
      for p = 0 to k - 1 do
        Mat.set a i p
          (match Rng.int rng 8 with
          | 0 -> 0.0
          | 1 -> -0.0
          | _ -> Rng.gaussian rng)
      done
    else begin
      for _ = 1 to i mod 6 do
        Mat.set a i (Rng.int rng k) (Rng.gaussian rng)
      done;
      Mat.set a i (Rng.int rng k) (-0.0)
    end
  done;
  a

let edge_test_b rng ~transb ~n ~k =
  if transb then Mat.init n k (fun _ _ -> Rng.gaussian rng)
  else Mat.init k n (fun _ _ -> Rng.gaussian rng)

let check_edges_match_oracle rng ~transb ~dense ~m ~n ~k ~alpha ~beta b =
  let a = edge_test_a rng ~dense ~m ~k in
  (* Some [-0.0] cells: adding a zero product that the [gemm_nn] edge
     must skip would turn them into [+0.0]. *)
  let c0 =
    Mat.init m n (fun _ _ -> if Rng.int rng 4 = 0 then -0.0 else Rng.gaussian rng)
  in
  let got = Mat.copy c0 in
  Mat.gemm ~transb ~alpha ~beta a b got;
  let expected = Mat.copy c0 in
  if beta = 0.0 then Array.fill expected.Mat.data 0 (m * n) 0.0;
  let edge = if transb then oracle_edge_nt else oracle_edge_nn in
  let pp = ref 0 in
  while !pp < k do
    let p_hi = Stdlib.min k (!pp + oracle_block_k) in
    edge ~n ~k ~alpha a.Mat.data b.Mat.data expected.Mat.data 0 m 0 n !pp p_hi;
    pp := p_hi
  done;
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let e = Mat.get expected i j and g = Mat.get got i j in
      if edge_cell ~m ~n i j && not (Util.same_bits e g) then
        Alcotest.failf "%s m=%d n=%d k=%d alpha=%g beta=%g dense=%b (%d,%d): %h vs %h"
          (if transb then "nt" else "nn")
          m n k alpha beta dense i j e g
    done
  done

let test_gemm_edges_bit_identical () =
  let rng = Rng.create 29 in
  List.iter
    (fun transb ->
      List.iter
        (fun n ->
          List.iter
            (fun k ->
              let b = edge_test_b rng ~transb ~n ~k in
              List.iter
                (fun m ->
                  List.iter
                    (fun dense ->
                      List.iter
                        (fun (alpha, beta) ->
                          check_edges_match_oracle rng ~transb ~dense ~m ~n ~k
                            ~alpha ~beta b)
                        [ (1.0, 0.0); (1.0, 1.0); (-0.5, 0.0); (-0.5, 1.0) ])
                    [ false; true ])
                [ 1; 3; 5 ])
            [ 1; 511; 512; 513; 1100 ])
        [ 8; 9; 10; 11; 133 ])
    [ true; false ]

(* The one-row shapes of the suite's dense layers (forward is [gemm_nt],
   backward [gemm_nn]), which the edge kernels cover completely. *)
let test_gemm_one_row_matches_oracle () =
  let rng = Rng.create 30 in
  List.iter
    (fun (n, k) ->
      List.iter
        (fun transb ->
          edge_test_b rng ~transb ~n ~k
          |> check_edges_match_oracle rng ~transb ~dense:true ~m:1 ~n ~k
               ~alpha:1.0 ~beta:1.0)
        [ true; false ])
    [ (200, 784); (10, 200); (784, 200) ]

(* ------------------------------------------------------------------ *)
(* Scratch arena *)

let test_scratch_zero_filled_and_reused () =
  Scratch.trim ();
  (* The escaping reference below is only compared for physical
     identity, never read or written outside the scope. *)
  let first = ref [||] in
  Scratch.with_floats 64 (fun buf ->
      Alcotest.(check int) "requested size" 64 (Array.length buf);
      Util.check_true "fresh buffer is zero"
        (Array.for_all (fun x -> x = 0.0) buf);
      Array.fill buf 0 64 7.0;
      first := buf);
  Scratch.with_floats 64 (fun buf ->
      Util.check_true "same-size borrow is physically reused" (buf == !first);
      Util.check_true "recycled buffer is re-zeroed"
        (Array.for_all (fun x -> x = 0.0) buf))

let test_scratch_nested_borrows_distinct () =
  Scratch.with_floats 32 (fun outer ->
      Scratch.with_floats 32 (fun inner ->
          Util.check_true "nested same-size borrows are distinct"
            (not (inner == outer))))

let test_scratch_reclaims_on_raise () =
  Scratch.trim ();
  let first = ref [||] in
  (try
     Scratch.with_floats 48 (fun buf ->
         first := buf;
         failwith "boom")
   with Failure _ -> ());
  Scratch.with_floats 48 (fun buf ->
      Util.check_true "buffer reclaimed across raise" (buf == !first))

let test_scratch_trim_and_accounting () =
  Scratch.trim ();
  Alcotest.(check int) "empty after trim" 0 (Scratch.live_words ());
  Scratch.with_floats 128 (fun _ ->
      Util.check_true "borrowed words counted"
        (Scratch.live_words () >= 128));
  Util.check_true "arena retains the freed buffer"
    (Scratch.live_words () >= 128);
  Util.check_true "highwater covers the borrow"
    (Scratch.highwater_words () >= 128);
  Scratch.trim ();
  Alcotest.(check int) "trim drops free buffers" 0 (Scratch.live_words ())

(* ------------------------------------------------------------------ *)
(* Stats and Special *)

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Util.check_float "mean" 2.5 (Stats.mean xs);
  Util.check_close "variance" (5.0 /. 3.0) (Stats.variance xs);
  Util.check_float "median" 2.5 (Stats.median xs);
  Util.check_float "p0" 1.0 (Stats.percentile xs 0.0);
  Util.check_float "p100" 4.0 (Stats.percentile xs 100.0);
  Util.check_close "geomean" (sqrt (sqrt 24.0)) (Stats.geometric_mean xs)

let test_stats_median_odd () =
  Util.check_float "odd median" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_special_erf () =
  Util.check_close ~eps:1e-6 "erf 0" 0.0 (Special.erf 0.0);
  Util.check_close ~eps:1e-4 "erf 1" 0.8427 (Special.erf 1.0);
  Util.check_close ~eps:1e-4 "erf -1" (-0.8427) (Special.erf (-1.0));
  Util.check_close ~eps:1e-6 "erf inf" 1.0 (Special.erf 10.0)

let test_special_normal_cdf () =
  Util.check_close ~eps:1e-6 "cdf 0" 0.5 (Special.normal_cdf 0.0);
  Util.check_close ~eps:1e-4 "cdf 1.96" 0.975 (Special.normal_cdf 1.96);
  Util.check_true "monotone"
    (Special.normal_cdf (-1.0) < Special.normal_cdf 1.0)

let test_special_pdf_symmetric () =
  Util.check_close "symmetric" (Special.normal_pdf 1.3) (Special.normal_pdf (-1.3));
  Util.check_close ~eps:1e-9 "peak" (1.0 /. sqrt (2.0 *. Float.pi))
    (Special.normal_pdf 0.0)

let () =
  Alcotest.run "linalg"
    [
      ( "rng",
        [
          Util.case "deterministic streams" test_rng_deterministic;
          Util.case "split independence" test_rng_split_independent;
          Util.case "int range" test_rng_int_range;
          Util.case "float range" test_rng_float_range;
          Util.case "uniform mean" test_rng_uniform_mean;
          Util.case "gaussian moments" test_rng_gaussian_moments;
          Util.case "shuffle is permutation" test_rng_shuffle_permutation;
          Util.case "int rejects bad bound" test_rng_int_rejects_nonpositive;
        ] );
      ( "vec",
        [
          Util.case "basic ops" test_vec_basic_ops;
          Util.case "norms" test_vec_norms;
          Util.case "argmax ties" test_vec_argmax_first_tie;
          Util.case "axpy" test_vec_axpy;
          Util.case "clamp" test_vec_clamp;
          Util.case "relu" test_vec_relu;
          Util.case "dimension mismatch" test_vec_dim_mismatch;
        ] );
      ( "mat",
        [
          Util.case "matvec" test_mat_matvec;
          Util.case "matvec_t" test_mat_matvec_t_is_transpose;
          Util.case "matmul identity" test_mat_matmul_identity;
          Util.case "matmul composition" test_mat_matmul_associative_with_vector;
          Util.case "abs row sums" test_mat_abs_row_sums;
          Util.case "cholesky factorization" test_cholesky_factorizes;
          Util.case "cholesky solve" test_cholesky_solve;
          Util.case "cholesky rejects indefinite" test_cholesky_rejects_indefinite;
        ] );
      ( "gemm",
        [
          Util.case "matches naive oracle" test_gemm_matches_naive;
          Util.case "crosses blocking boundaries" test_gemm_crosses_blocking;
          Util.case "alpha zero scales by beta" test_gemm_alpha_zero_is_beta_scale;
          Util.case "rejects shape mismatch" test_gemm_rejects_mismatch;
          Util.case "matmul routes through gemm" test_mat_matmul_is_gemm;
          Util.case "in-place ops" test_mat_inplace_ops;
        ] );
      ( "gemm-jobs",
        [
          Util.case "bit-identical across jobs" test_gemm_jobs_bit_identical;
          Util.case "degenerate shapes" test_gemm_jobs_degenerate_shapes;
          qcheck_gemm_jobs_identical;
          Util.case "ambient jobs scoped" test_gemm_ambient_jobs_scoped;
        ] );
      ( "gemm-edges",
        [
          Util.case "edges bit-identical to one-output loops"
            test_gemm_edges_bit_identical;
          Util.case "one-row products bit-identical"
            test_gemm_one_row_matches_oracle;
        ] );
      ( "scratch",
        [
          Util.case "zero-filled and reused" test_scratch_zero_filled_and_reused;
          Util.case "nested borrows distinct" test_scratch_nested_borrows_distinct;
          Util.case "reclaims on raise" test_scratch_reclaims_on_raise;
          Util.case "trim and accounting" test_scratch_trim_and_accounting;
        ] );
      ( "stats-special",
        [
          Util.case "stats basics" test_stats_basics;
          Util.case "median odd" test_stats_median_odd;
          Util.case "erf" test_special_erf;
          Util.case "normal cdf" test_special_normal_cdf;
          Util.case "normal pdf" test_special_pdf_symmetric;
        ] );
    ]
