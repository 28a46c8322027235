open Linalg

(* ------------------------------------------------------------------ *)
(* Shape *)

let test_shape_size_index () =
  let s = Nn.Shape.create ~channels:2 ~height:3 ~width:4 in
  Alcotest.(check int) "size" 24 (Nn.Shape.size s);
  Alcotest.(check int) "index 0" 0 (Nn.Shape.index s ~c:0 ~i:0 ~j:0);
  Alcotest.(check int) "index last" 23 (Nn.Shape.index s ~c:1 ~i:2 ~j:3);
  Alcotest.(check int) "chw layout" 12 (Nn.Shape.index s ~c:1 ~i:0 ~j:0)

let test_shape_conv_output () =
  let s = Nn.Shape.create ~channels:1 ~height:8 ~width:8 in
  let o = Nn.Shape.conv_output s ~kernel:3 ~stride:1 ~padding:1 ~out_channels:4 in
  Util.check_true "same spatial"
    (Nn.Shape.equal o (Nn.Shape.create ~channels:4 ~height:8 ~width:8));
  let p = Nn.Shape.conv_output s ~kernel:2 ~stride:2 ~padding:0 ~out_channels:1 in
  Util.check_true "pooling halves"
    (Nn.Shape.equal p (Nn.Shape.create ~channels:1 ~height:4 ~width:4))

let test_shape_bad_geometry () =
  let s = Nn.Shape.create ~channels:1 ~height:5 ~width:5 in
  Alcotest.check_raises "stride does not tile"
    (Invalid_argument "Shape.conv_output: stride does not tile the input")
    (fun () ->
      ignore (Nn.Shape.conv_output s ~kernel:2 ~stride:2 ~padding:0 ~out_channels:1))

(* ------------------------------------------------------------------ *)
(* Conv *)

let random_conv rng ~input ~out_channels ~kernel ~stride ~padding =
  let in_channels = input.Nn.Shape.channels in
  let count = out_channels * in_channels * kernel * kernel in
  Nn.Conv.create ~input ~out_channels ~kernel ~stride ~padding
    ~weights:(Array.init count (fun _ -> Rng.gaussian rng))
    ~bias:(Vec.init out_channels (fun _ -> Rng.gaussian rng))

let test_conv_forward_matches_affine_lowering () =
  Util.repeat ~seed:20 ~count:20 (fun rng _ ->
      let input =
        Nn.Shape.create ~channels:(1 + Rng.int rng 2) ~height:4 ~width:4
      in
      let c =
        random_conv rng ~input ~out_channels:(1 + Rng.int rng 3) ~kernel:3
          ~stride:1 ~padding:1
      in
      let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
      let w, b = Nn.Conv.to_affine c in
      Util.check_vec ~eps:1e-9 "direct = lowered"
        (Vec.add (Mat.matvec w x) b)
        (Nn.Conv.forward c x))

let test_conv_strided_matches_lowering () =
  Util.repeat ~seed:21 ~count:10 (fun rng _ ->
      let input = Nn.Shape.create ~channels:2 ~height:6 ~width:6 in
      let c = random_conv rng ~input ~out_channels:3 ~kernel:2 ~stride:2 ~padding:0 in
      let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
      let w, b = Nn.Conv.to_affine c in
      Util.check_vec ~eps:1e-9 "strided direct = lowered"
        (Vec.add (Mat.matvec w x) b)
        (Nn.Conv.forward c x))

let test_conv_backward_is_transpose () =
  Util.repeat ~seed:22 ~count:20 (fun rng _ ->
      let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
      let c = random_conv rng ~input ~out_channels:2 ~kernel:3 ~stride:1 ~padding:1 in
      let out = Nn.Conv.output_shape c in
      let dout = Vec.init (Nn.Shape.size out) (fun _ -> Rng.gaussian rng) in
      let w, _ = Nn.Conv.to_affine c in
      Util.check_vec ~eps:1e-9 "backward = W^T dout"
        (Mat.matvec_t w dout)
        (Nn.Conv.backward c ~dout))

let test_conv_grad_params_finite_diff () =
  let rng = Rng.create 23 in
  let input = Nn.Shape.create ~channels:1 ~height:3 ~width:3 in
  let c = random_conv rng ~input ~out_channels:1 ~kernel:2 ~stride:1 ~padding:0 in
  let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
  let out_dim = Nn.Shape.size (Nn.Conv.output_shape c) in
  let dout = Vec.create out_dim 1.0 in
  let dw, db = Nn.Conv.grad_params c ~x ~dout in
  (* loss = sum of outputs; finite-difference each parameter. *)
  let loss weights bias =
    let c' =
      Nn.Conv.create ~input ~out_channels:1 ~kernel:2 ~stride:1 ~padding:0
        ~weights ~bias
    in
    Vec.sum (Nn.Conv.forward c' x)
  in
  let eps = 1e-5 in
  Array.iteri
    (fun i g ->
      let bump s =
        let w = Array.copy c.Nn.Conv.weights in
        w.(i) <- w.(i) +. s;
        loss w c.Nn.Conv.bias
      in
      Util.check_close ~eps:1e-4 "dweight"
        ((bump eps -. bump (-.eps)) /. (2.0 *. eps))
        g)
    dw;
  Array.iteri
    (fun i g ->
      let bump s =
        let b = Vec.copy c.Nn.Conv.bias in
        b.(i) <- b.(i) +. s;
        loss c.Nn.Conv.weights b
      in
      Util.check_close ~eps:1e-4 "dbias"
        ((bump eps -. bump (-.eps)) /. (2.0 *. eps))
        g)
    db

(* The im2col + GEMM kernels against the direct nested-loop oracles,
   over varied geometry (padding, stride, channel counts). *)
let test_conv_gemm_matches_direct_oracles () =
  Util.repeat ~seed:24 ~count:15 (fun rng _ ->
      let channels = 1 + Rng.int rng 3 in
      let stride = 1 + Rng.int rng 2 in
      let padding = Rng.int rng 2 in
      let kernel = if stride = 2 then 2 else 2 + Rng.int rng 2 in
      let hw = if stride = 2 then 6 else 5 + Rng.int rng 3 in
      let input = Nn.Shape.create ~channels ~height:hw ~width:hw in
      let c =
        random_conv rng ~input ~out_channels:(1 + Rng.int rng 3) ~kernel
          ~stride ~padding
      in
      let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
      let out_dim = Nn.Shape.size (Nn.Conv.output_shape c) in
      let dout = Vec.init out_dim (fun _ -> Rng.gaussian rng) in
      Util.check_vec ~eps:1e-9 "forward = direct"
        (Nn.Conv.forward_direct c x)
        (Nn.Conv.forward c x);
      Util.check_vec ~eps:1e-9 "backward = direct"
        (Nn.Conv.backward_direct c ~dout)
        (Nn.Conv.backward c ~dout);
      let dw, db = Nn.Conv.grad_params c ~x ~dout in
      let dw', db' = Nn.Conv.grad_params_direct c ~x ~dout in
      Util.check_vec ~eps:1e-9 "dweights = direct" dw' dw;
      Util.check_vec ~eps:1e-9 "dbias = direct" db' db)

(* ------------------------------------------------------------------ *)
(* Tap and window tables.

   [Conv] gathers im2col and scatters col2im through a tap table built
   once by [create]; [Pool] and [Avgpool] keep their windows from
   [create].  The oracles below are the per-call versions those tables
   replaced — the closure-driven patch-cell enumeration, and the window
   list rebuilt on every pass — and every result must match them bit
   for bit. *)

let oracle_iter_patch_cells (t : Nn.Conv.t) f =
  let out = Nn.Conv.output_shape t in
  let ow = out.Nn.Shape.width in
  let ohow = out.Nn.Shape.height * ow in
  let k = t.Nn.Conv.kernel in
  for ic = 0 to t.Nn.Conv.input.Nn.Shape.channels - 1 do
    for ki = 0 to k - 1 do
      for kj = 0 to k - 1 do
        let row = (((ic * k) + ki) * k) + kj in
        let base = row * ohow in
        for oi = 0 to out.Nn.Shape.height - 1 do
          let ii = (oi * t.Nn.Conv.stride) + ki - t.Nn.Conv.padding in
          if ii >= 0 && ii < t.Nn.Conv.input.Nn.Shape.height then
            for oj = 0 to ow - 1 do
              let ij = (oj * t.Nn.Conv.stride) + kj - t.Nn.Conv.padding in
              if ij >= 0 && ij < t.Nn.Conv.input.Nn.Shape.width then
                f ~cell:(base + (oi * ow) + oj)
                  ~input_idx:(Nn.Shape.index t.Nn.Conv.input ~c:ic ~i:ii ~j:ij)
            done
        done
      done
    done
  done

let oracle_patch_shape (t : Nn.Conv.t) =
  let out = Nn.Conv.output_shape t in
  let k = t.Nn.Conv.kernel in
  ( t.Nn.Conv.input.Nn.Shape.channels * k * k,
    out.Nn.Shape.height * out.Nn.Shape.width )

let oracle_im2col t x =
  let rows, ohow = oracle_patch_shape t in
  let p = Mat.zeros rows ohow in
  oracle_iter_patch_cells t (fun ~cell ~input_idx ->
      p.Mat.data.(cell) <- x.(input_idx));
  p

let oracle_weight_mat (t : Nn.Conv.t) =
  let rows, _ = oracle_patch_shape t in
  { Mat.rows = t.Nn.Conv.out_channels; cols = rows; data = t.Nn.Conv.weights }

let oracle_conv_forward t x =
  let _, ohow = oracle_patch_shape t in
  let y = Mat.zeros t.Nn.Conv.out_channels ohow in
  Mat.gemm (oracle_weight_mat t) (oracle_im2col t x) y;
  let yd = y.Mat.data in
  for oc = 0 to t.Nn.Conv.out_channels - 1 do
    let base = oc * ohow and b = t.Nn.Conv.bias.(oc) in
    for s = 0 to ohow - 1 do
      yd.(base + s) <- yd.(base + s) +. b
    done
  done;
  yd

let oracle_conv_backward (t : Nn.Conv.t) ~dout =
  let rows, ohow = oracle_patch_shape t in
  let dy = { Mat.rows = t.Nn.Conv.out_channels; cols = ohow; data = dout } in
  let dx = Array.make (Nn.Shape.size t.Nn.Conv.input) 0.0 in
  let dp = Mat.zeros rows ohow in
  Mat.gemm ~transa:true (oracle_weight_mat t) dy dp;
  oracle_iter_patch_cells t (fun ~cell ~input_idx ->
      dx.(input_idx) <- dx.(input_idx) +. dp.Mat.data.(cell));
  dx

let oracle_conv_dweights (t : Nn.Conv.t) ~x ~dout =
  let rows, ohow = oracle_patch_shape t in
  let dy = { Mat.rows = t.Nn.Conv.out_channels; cols = ohow; data = dout } in
  let dw = Mat.zeros t.Nn.Conv.out_channels rows in
  Mat.gemm ~transb:true dy (oracle_im2col t x) dw;
  dw.Mat.data

let oracle_windows ~(input : Nn.Shape.t) ~kernel ~stride =
  let out =
    Nn.Shape.conv_output input ~kernel ~stride ~padding:0
      ~out_channels:input.Nn.Shape.channels
  in
  let result = Array.make (Nn.Shape.size out) [||] in
  for c = 0 to out.Nn.Shape.channels - 1 do
    for oi = 0 to out.Nn.Shape.height - 1 do
      for oj = 0 to out.Nn.Shape.width - 1 do
        let members = ref [] in
        for ki = kernel - 1 downto 0 do
          for kj = kernel - 1 downto 0 do
            let ii = (oi * stride) + ki and ij = (oj * stride) + kj in
            members := Nn.Shape.index input ~c ~i:ii ~j:ij :: !members
          done
        done;
        result.(Nn.Shape.index out ~c ~i:oi ~j:oj) <- Array.of_list !members
      done
    done
  done;
  result

let oracle_pool_forward wins x =
  Array.map
    (fun window ->
      Array.fold_left (fun acc i -> Stdlib.max acc x.(i)) x.(window.(0)) window)
    wins

let oracle_pool_backward ~input wins ~x ~dout =
  let dx = Array.make (Nn.Shape.size input) 0.0 in
  Array.iteri
    (fun o window ->
      let best = ref window.(0) in
      Array.iter (fun i -> if x.(i) > x.(!best) then best := i) window;
      dx.(!best) <- dx.(!best) +. dout.(o))
    wins;
  dx

(* A random geometry that tiles: stride 1 or 2, kernel 2 or 3, and (for
   convolutions) padding 0 or 1, with the side chosen so the stride
   divides the padded span. *)
let random_geometry rng ~padding =
  let stride = 1 + Rng.int rng 2 in
  let kernel = 2 + Rng.int rng 2 in
  let side = ref (4 + Rng.int rng 5) in
  while (!side + (2 * padding) - kernel) mod stride <> 0 do
    incr side
  done;
  let input =
    Nn.Shape.create ~channels:(1 + Rng.int rng 3) ~height:!side ~width:!side
  in
  (input, kernel, stride)

(* Inputs with repeated values, so max-pool ties (and their first-index
   routing) actually occur, plus signed zeros. *)
let tie_heavy_vec rng n =
  Vec.init n (fun _ ->
      match Rng.int rng 6 with
      | 0 -> 0.5
      | 1 -> -0.0
      | 2 -> 0.0
      | _ -> Rng.gaussian rng)

let test_conv_tap_table_matches_enumeration () =
  Util.repeat ~seed:28 ~count:40 (fun rng _ ->
      let padding = Rng.int rng 2 in
      let input, kernel, stride = random_geometry rng ~padding in
      let c =
        random_conv rng ~input ~out_channels:(1 + Rng.int rng 5) ~kernel
          ~stride ~padding
      in
      let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
      let dout =
        Vec.init (Nn.Shape.size (Nn.Conv.output_shape c)) (fun _ ->
            Rng.gaussian rng)
      in
      Util.check_vec_bits "forward" (oracle_conv_forward c x)
        (Nn.Conv.forward c x);
      Util.check_vec_bits "backward" (oracle_conv_backward c ~dout)
        (Nn.Conv.backward c ~dout);
      let dw, _ = Nn.Conv.grad_params c ~x ~dout in
      Util.check_vec_bits "grad_params dweights"
        (oracle_conv_dweights c ~x ~dout) dw;
      (* The table itself: the enumeration's cells, in its order. *)
      let cells = ref [] and inputs = ref [] in
      oracle_iter_patch_cells c (fun ~cell ~input_idx ->
          cells := cell :: !cells;
          inputs := input_idx :: !inputs);
      Util.check_true "tap cells in enumeration order"
        (Array.of_list (List.rev !cells) = c.Nn.Conv.tap_cells);
      Util.check_true "tap inputs in enumeration order"
        (Array.of_list (List.rev !inputs) = c.Nn.Conv.tap_inputs))

let test_pool_window_table_matches_enumeration () =
  Util.repeat ~seed:29 ~count:40 (fun rng _ ->
      let input, kernel, stride = random_geometry rng ~padding:0 in
      let p = Nn.Pool.create ~input ~kernel ~stride in
      let wins = oracle_windows ~input ~kernel ~stride in
      Util.check_true "Pool.windows = fresh enumeration"
        (Nn.Pool.windows p = wins);
      let x = tie_heavy_vec rng (Nn.Shape.size input) in
      let dout = Vec.init (Array.length wins) (fun _ -> Rng.gaussian rng) in
      Util.check_vec_bits "maxpool forward" (oracle_pool_forward wins x)
        (Nn.Pool.forward p x);
      Util.check_vec_bits "maxpool backward"
        (oracle_pool_backward ~input wins ~x ~dout)
        (Nn.Pool.backward p ~x ~dout);
      let a = Nn.Avgpool.create ~input ~kernel ~stride in
      Util.check_true "Avgpool windows = fresh enumeration"
        (a.Nn.Avgpool.windows = wins))

(* The tables survive the two ways a layer is rebuilt: a [Serial] round
   trip (which calls [create] again) and a [Conv.update] step (which
   copies the record with new weights). *)
let test_tables_survive_rebuild () =
  let rng = Rng.create 30 in
  let input = Nn.Shape.create ~channels:1 ~height:8 ~width:8 in
  let net = Nn.Init.lenet_like rng ~input ~classes:3 in
  let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.float rng 1.0) in
  let net' = Nn.Serial.of_string (Nn.Serial.to_string net) in
  Util.check_vec_bits "serial round trip" (Nn.Network.eval net x)
    (Nn.Network.eval net' x);
  List.iter
    (function
      | Nn.Layer.Conv c ->
          let dout =
            Vec.init (Nn.Shape.size (Nn.Conv.output_shape c)) (fun _ ->
                Rng.gaussian rng)
          in
          let cx = Vec.init (Nn.Shape.size c.Nn.Conv.input) (fun _ -> Rng.gaussian rng) in
          let dweights, dbias = Nn.Conv.grad_params c ~x:cx ~dout in
          let c' = Nn.Conv.update c ~dweights ~dbias ~lr:0.1 in
          let fresh =
            Nn.Conv.create ~input:c'.Nn.Conv.input
              ~out_channels:c'.Nn.Conv.out_channels ~kernel:c'.Nn.Conv.kernel
              ~stride:c'.Nn.Conv.stride ~padding:c'.Nn.Conv.padding
              ~weights:c'.Nn.Conv.weights ~bias:c'.Nn.Conv.bias
          in
          Util.check_vec_bits "update keeps a valid tap table"
            (Nn.Conv.forward fresh cx) (Nn.Conv.forward c' cx);
          Util.check_vec_bits "updated forward = oracle"
            (oracle_conv_forward c' cx) (Nn.Conv.forward c' cx)
      | _ -> ())
    net.Nn.Network.layers

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_forward () =
  let input = Nn.Shape.create ~channels:1 ~height:2 ~width:2 in
  let p = Nn.Pool.create ~input ~kernel:2 ~stride:2 in
  Util.check_vec "max of window" [| 4.0 |]
    (Nn.Pool.forward p [| 1.0; 4.0; 2.0; 3.0 |])

let test_pool_windows_cover_input () =
  let input = Nn.Shape.create ~channels:2 ~height:4 ~width:4 in
  let p = Nn.Pool.create ~input ~kernel:2 ~stride:2 in
  let seen = Array.make (Nn.Shape.size input) false in
  Array.iter
    (fun w -> Array.iter (fun i -> seen.(i) <- true) w)
    (Nn.Pool.windows p);
  Util.check_true "every input in some window" (Array.for_all Fun.id seen)

let test_pool_backward_routes_to_argmax () =
  let input = Nn.Shape.create ~channels:1 ~height:2 ~width:2 in
  let p = Nn.Pool.create ~input ~kernel:2 ~stride:2 in
  let x = [| 1.0; 4.0; 2.0; 3.0 |] in
  Util.check_vec "grad to max input" [| 0.0; 5.0; 0.0; 0.0 |]
    (Nn.Pool.backward p ~x ~dout:[| 5.0 |])

let test_avgpool_forward () =
  let input = Nn.Shape.create ~channels:1 ~height:2 ~width:2 in
  let p = Nn.Avgpool.create ~input ~kernel:2 ~stride:2 in
  Util.check_vec "mean of window" [| 2.5 |]
    (Nn.Avgpool.forward p [| 1.0; 4.0; 2.0; 3.0 |])

let test_avgpool_matches_lowering () =
  Util.repeat ~seed:25 ~count:10 (fun rng _ ->
      let input = Nn.Shape.create ~channels:2 ~height:4 ~width:4 in
      let p = Nn.Avgpool.create ~input ~kernel:2 ~stride:2 in
      let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.gaussian rng) in
      let w, b = Nn.Avgpool.to_affine p in
      Util.check_vec ~eps:1e-9 "direct = lowered"
        (Vec.add (Mat.matvec w x) b)
        (Nn.Avgpool.forward p x))

let test_avgpool_backward_is_transpose () =
  let rng = Rng.create 26 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let p = Nn.Avgpool.create ~input ~kernel:2 ~stride:2 in
  let dout = Vec.init 4 (fun _ -> Rng.gaussian rng) in
  let w, _ = Nn.Avgpool.to_affine p in
  Util.check_vec ~eps:1e-9 "backward = W^T dout" (Mat.matvec_t w dout)
    (Nn.Avgpool.backward p ~dout)

let test_avgpool_lenet_end_to_end () =
  (* The avg-pooling LeNet variant works through serialization,
     gradients, and (because pooling is affine) the complete checker's
     encoding. *)
  let rng = Rng.create 27 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let net = Nn.Init.lenet_like ~pooling:`Avg rng ~input ~classes:3 in
  let x = Vec.init 16 (fun _ -> Rng.float rng 1.0) in
  let net' = Nn.Serial.of_string (Nn.Serial.to_string net) in
  Util.check_vec ~eps:0.0 "serial roundtrip" (Nn.Network.eval net x)
    (Nn.Network.eval net' x);
  let g = Nn.Grad.grad_output net ~x ~k:0 in
  let fd =
    Nn.Grad.finite_diff (fun y -> (Nn.Network.eval net y).(0)) x ~eps:1e-5
  in
  Util.check_vec ~eps:1e-3 "gradient" fd g;
  (* Encodes for the complete checker, unlike the max-pooling LeNet. *)
  let region = Domains.Box.of_center_radius x 0.01 in
  ignore (Reluplex.Encoding.build net region)

(* ------------------------------------------------------------------ *)
(* Network: the paper's example networks *)

let test_xor_truth_table () =
  let net = Nn.Init.xor () in
  List.iter
    (fun ((a, b), expected) ->
      Alcotest.(check int)
        (Printf.sprintf "xor %g %g" a b)
        expected
        (Nn.Network.classify net [| a; b |]))
    [ ((0.0, 0.0), 0); ((0.0, 1.0), 1); ((1.0, 0.0), 1); ((1.0, 1.0), 0) ]

let test_example_2_2_outputs () =
  let net = Nn.Init.example_2_2 () in
  (* N(x) = [a+1; a+2] with a = relu(2x+1) on [-1, 1] (the paper's
     N(0) = [1 3] is a typo; its own closed form gives [2 3]). *)
  Util.check_vec "N(0)" [| 2.0; 3.0 |] (Nn.Network.eval net [| 0.0 |]);
  (* N(2) = [8; 6] per the paper, so 2 is classified as class 0. *)
  Util.check_vec "N(2)" [| 8.0; 6.0 |] (Nn.Network.eval net [| 2.0 |]);
  Alcotest.(check int) "class of 0" 1 (Nn.Network.classify net [| 0.0 |]);
  Alcotest.(check int) "class of 2" 0 (Nn.Network.classify net [| 2.0 |])

let test_example_2_3_class_b_inside () =
  let net = Nn.Init.example_2_3 () in
  let rng = Rng.create 31 in
  for _ = 1 to 500 do
    let x = [| Rng.float rng 1.0; Rng.float rng 1.0 |] in
    Alcotest.(check int) "class B on [0,1]^2" 1 (Nn.Network.classify net x)
  done

let test_network_dimension_check () =
  Alcotest.check_raises "mismatched layers"
    (Invalid_argument
       "Network.create: layer 'affine 2x3' expects input dim 3, got 2")
    (fun () ->
      ignore
        (Nn.Network.create ~input_dim:2
           [ Nn.Layer.affine (Mat.zeros 2 3) (Vec.zeros 2) ]))

let test_forward_trace_shape () =
  let net = Nn.Init.xor () in
  let trace = Nn.Network.forward_trace net [| 0.0; 1.0 |] in
  Alcotest.(check int) "trace length" 4 (Array.length trace);
  Util.check_vec "last is output" (Nn.Network.eval net [| 0.0; 1.0 |])
    trace.(3)

let test_num_relu_units () =
  let net = Util.random_dense (Rng.create 1) [ 4; 7; 5; 3 ] in
  Alcotest.(check int) "relu units" 12 (Nn.Network.num_relu_units net)

let test_lipschitz_bound_holds () =
  Util.repeat ~seed:32 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let l = Nn.Network.lipschitz_upper net in
      let x = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      let y = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      let dx = Vec.norm_inf (Vec.sub x y) in
      let dy =
        Vec.norm_inf (Vec.sub (Nn.Network.eval net x) (Nn.Network.eval net y))
      in
      Util.check_true "|N(x)-N(y)| <= L |x-y|" (dy <= (l *. dx) +. 1e-9))

(* ------------------------------------------------------------------ *)
(* Grad: backprop vs finite differences *)

let test_grad_matches_finite_diff_dense () =
  Util.repeat ~seed:33 ~count:20 (fun rng _ ->
      let net = Util.small_net rng in
      let x =
        Vec.init net.Nn.Network.input_dim (fun _ ->
            Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let g = Nn.Grad.grad_output net ~x ~k in
      let fd =
        Nn.Grad.finite_diff (fun y -> (Nn.Network.eval net y).(k)) x ~eps:1e-5
      in
      Util.check_vec ~eps:1e-4 "backprop = finite diff" fd g)

let test_grad_matches_finite_diff_conv () =
  let rng = Rng.create 34 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let net = Nn.Init.lenet_like rng ~input ~classes:3 in
  let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:1.0) in
  let g = Nn.Grad.grad_output net ~x ~k:1 in
  let fd =
    Nn.Grad.finite_diff (fun y -> (Nn.Network.eval net y).(1)) x ~eps:1e-5
  in
  Util.check_vec ~eps:1e-3 "conv net gradient" fd g

let test_vjp_linearity () =
  Util.repeat ~seed:35 ~count:10 (fun rng _ ->
      let net = Util.small_net rng in
      let x = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      let m = net.Nn.Network.output_dim in
      let u = Vec.init m (fun _ -> Rng.gaussian rng) in
      let v = Vec.init m (fun _ -> Rng.gaussian rng) in
      Util.check_vec ~eps:1e-9 "vjp is linear in the cotangent"
        (Vec.add (Nn.Grad.vjp net ~x ~dout:u) (Nn.Grad.vjp net ~x ~dout:v))
        (Nn.Grad.vjp net ~x ~dout:(Vec.add u v)))

(* [backward] over a given trace is the reverse half of [vjp]: the same
   result bit for bit, on dense nets and on nets using every layer kind. *)
let test_backward_matches_vjp () =
  Util.repeat ~seed:36 ~count:20 (fun rng i ->
      let net = if i mod 2 = 0 then Util.mixed_net rng else Util.small_net rng in
      let x =
        Vec.init net.Nn.Network.input_dim (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:1.0)
      in
      let dout = Vec.init net.Nn.Network.output_dim (fun _ -> Rng.gaussian rng) in
      let trace = Nn.Network.forward_trace net x in
      Util.check_vec_bits "backward = vjp" (Nn.Grad.vjp net ~x ~dout)
        (Nn.Grad.backward net ~trace ~dout))

let test_backward_rejects_short_trace () =
  let net = Nn.Init.xor () in
  let trace = Nn.Network.forward_trace net [| 0.0; 1.0 |] in
  Alcotest.check_raises "trace length"
    (Invalid_argument "Grad.backward: trace length mismatch") (fun () ->
      ignore
        (Nn.Grad.backward net
           ~trace:(Array.sub trace 0 (Array.length trace - 1))
           ~dout:(Vec.create net.Nn.Network.output_dim 1.0)))

(* The single-trace [value_grad] agrees bit for bit with [value] (one
   [Network.eval]) and [grad]. *)
let test_objective_value_grad_single_trace () =
  Util.repeat ~seed:37 ~count:20 (fun rng i ->
      let net = if i mod 2 = 0 then Util.mixed_net rng else Util.small_net rng in
      let k = Rng.int rng net.Nn.Network.output_dim in
      let obj = Optim.Objective.create net ~k in
      let x =
        Vec.init net.Nn.Network.input_dim (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:1.0)
      in
      let v, g = Optim.Objective.value_grad obj x in
      Util.check_bits "value" (Optim.Objective.value obj x) v;
      Util.check_vec_bits "grad" (Optim.Objective.grad obj x) g)

(* ------------------------------------------------------------------ *)
(* Batched layer application *)

let test_layer_batch_matches_per_sample () =
  let rng = Rng.create 31 in
  let input = Nn.Shape.create ~channels:2 ~height:4 ~width:4 in
  let in_dim = Nn.Shape.size input in
  let layers =
    [
      Nn.Layer.affine
        (Mat.init 5 in_dim (fun _ _ -> Rng.gaussian rng))
        (Vec.init 5 (fun _ -> Rng.gaussian rng));
      Nn.Layer.Relu;
      Nn.Layer.Conv
        (random_conv rng ~input ~out_channels:3 ~kernel:3 ~stride:1 ~padding:1);
      Nn.Layer.Maxpool (Nn.Pool.create ~input ~kernel:2 ~stride:2);
    ]
  in
  List.iter
    (fun layer ->
      let batch = 6 in
      let out_dim = Nn.Layer.output_dim ~given:in_dim layer in
      let x = Mat.init batch in_dim (fun _ _ -> Rng.gaussian rng) in
      let y = Nn.Layer.forward_batch layer x in
      Alcotest.(check int) "output cols" out_dim y.Mat.cols;
      for r = 0 to batch - 1 do
        Util.check_vec ~eps:1e-9 "forward row"
          (Nn.Layer.forward layer (Mat.row x r))
          (Mat.row y r)
      done;
      let dout = Mat.init batch out_dim (fun _ _ -> Rng.gaussian rng) in
      let dx = Nn.Layer.backward_batch layer ~x ~dout in
      for r = 0 to batch - 1 do
        Util.check_vec ~eps:1e-9 "backward row"
          (Nn.Layer.backward layer ~x:(Mat.row x r) ~dout:(Mat.row dout r))
          (Mat.row dx r)
      done)
    layers

(* ------------------------------------------------------------------ *)
(* Train *)

let test_softmax_properties () =
  let s = Nn.Train.softmax [| 1.0; 2.0; 3.0 |] in
  Util.check_close ~eps:1e-9 "sums to one" 1.0 (Vec.sum s);
  Util.check_true "monotone" (s.(0) < s.(1) && s.(1) < s.(2));
  let s' = Nn.Train.softmax [| 101.0; 102.0; 103.0 |] in
  Util.check_vec ~eps:1e-9 "shift invariant" s s'

let test_cross_entropy_positive () =
  let scores = [| 0.5; -0.2; 1.0 |] in
  for label = 0 to 2 do
    Util.check_true "nonnegative" (Nn.Train.cross_entropy_loss scores label >= 0.0)
  done

let test_training_improves_accuracy () =
  let rng = Rng.create 40 in
  let spec = Datasets.Synth_images.tiny in
  let data = Datasets.Synth_images.dataset rng spec ~per_class:30 in
  let net =
    Util.random_dense rng
      [ Nn.Shape.size spec.Datasets.Synth_images.shape; 12; 3 ]
  in
  let before = Nn.Train.accuracy net data in
  let config =
    {
      Nn.Train.epochs = 20;
      batch_size = 16;
      learning_rate = 0.05;
      weight_decay = 0.0;
      momentum = 0.9;
    }
  in
  let trained = Nn.Train.train ~config ~rng net data in
  let after = Nn.Train.accuracy trained data in
  Util.check_true
    (Printf.sprintf "accuracy improves (%.2f -> %.2f)" before after)
    (after > before && after > 0.9)

let test_training_reduces_loss () =
  let rng = Rng.create 41 in
  let spec = Datasets.Synth_images.tiny in
  let data = Datasets.Synth_images.dataset rng spec ~per_class:20 in
  let net =
    Util.random_dense rng [ Nn.Shape.size spec.Datasets.Synth_images.shape; 8; 3 ]
  in
  let before = Nn.Train.mean_loss net data in
  let trained = Nn.Train.train ~rng net data in
  Util.check_true "loss decreases" (Nn.Train.mean_loss trained data < before)

let test_training_conv_net () =
  let rng = Rng.create 42 in
  let spec = Datasets.Synth_images.tiny in
  let data = Datasets.Synth_images.dataset rng spec ~per_class:20 in
  let net =
    Nn.Init.lenet_like rng ~input:spec.Datasets.Synth_images.shape ~classes:3
  in
  let config =
    {
      Nn.Train.epochs = 30;
      batch_size = 16;
      learning_rate = 0.02;
      weight_decay = 0.0;
      momentum = 0.9;
    }
  in
  let trained = Nn.Train.train ~config ~rng net data in
  Util.check_true "conv net learns" (Nn.Train.accuracy trained data > 0.8)

(* ------------------------------------------------------------------ *)
(* Serial *)

let test_serial_roundtrip_dense () =
  Util.repeat ~seed:43 ~count:10 (fun rng _ ->
      let net = Util.small_net rng in
      let net' = Nn.Serial.of_string (Nn.Serial.to_string net) in
      let x = Vec.init net.Nn.Network.input_dim (fun _ -> Rng.gaussian rng) in
      Util.check_vec ~eps:0.0 "exact roundtrip" (Nn.Network.eval net x)
        (Nn.Network.eval net' x))

let test_serial_roundtrip_conv () =
  let rng = Rng.create 44 in
  let input = Nn.Shape.create ~channels:1 ~height:4 ~width:4 in
  let net = Nn.Init.lenet_like rng ~input ~classes:3 in
  let net' = Nn.Serial.of_string (Nn.Serial.to_string net) in
  let x = Vec.init (Nn.Shape.size input) (fun _ -> Rng.float rng 1.0) in
  Util.check_vec ~eps:0.0 "conv roundtrip" (Nn.Network.eval net x)
    (Nn.Network.eval net' x)

let test_serial_rejects_garbage () =
  Alcotest.check_raises "bad header"
    (Failure "Serial: expected \"network\", got \"garbage\"") (fun () ->
      ignore (Nn.Serial.of_string "garbage 3"))

let test_serial_file_roundtrip () =
  let net = Nn.Init.xor () in
  let path = Filename.temp_file "charon_test" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Nn.Serial.save path net;
      let net' = Nn.Serial.load path in
      Util.check_vec ~eps:0.0 "file roundtrip"
        (Nn.Network.eval net [| 1.0; 0.0 |])
        (Nn.Network.eval net' [| 1.0; 0.0 |]))

let () =
  Alcotest.run "nn"
    [
      ( "shape",
        [
          Util.case "size and index" test_shape_size_index;
          Util.case "conv output" test_shape_conv_output;
          Util.case "bad geometry" test_shape_bad_geometry;
        ] );
      ( "conv",
        [
          Util.case "forward matches lowering" test_conv_forward_matches_affine_lowering;
          Util.case "strided matches lowering" test_conv_strided_matches_lowering;
          Util.case "backward is transpose" test_conv_backward_is_transpose;
          Util.case "param grads vs finite diff" test_conv_grad_params_finite_diff;
          Util.case "gemm kernels match direct oracles"
            test_conv_gemm_matches_direct_oracles;
        ] );
      ( "tables",
        [
          Util.case "conv tap table = per-call enumeration"
            test_conv_tap_table_matches_enumeration;
          Util.case "pool windows = per-call enumeration"
            test_pool_window_table_matches_enumeration;
          Util.case "tables survive serial and update" test_tables_survive_rebuild;
        ] );
      ( "pool",
        [
          Util.case "forward" test_pool_forward;
          Util.case "windows cover input" test_pool_windows_cover_input;
          Util.case "backward routes to argmax" test_pool_backward_routes_to_argmax;
          Util.case "avgpool forward" test_avgpool_forward;
          Util.case "avgpool matches lowering" test_avgpool_matches_lowering;
          Util.case "avgpool backward" test_avgpool_backward_is_transpose;
          Util.case "avgpool lenet end-to-end" test_avgpool_lenet_end_to_end;
        ] );
      ( "network",
        [
          Util.case "xor truth table" test_xor_truth_table;
          Util.case "example 2.2" test_example_2_2_outputs;
          Util.case "example 2.3 classifies B" test_example_2_3_class_b_inside;
          Util.case "dimension check" test_network_dimension_check;
          Util.case "forward trace" test_forward_trace_shape;
          Util.case "relu unit count" test_num_relu_units;
          Util.case "lipschitz bound" test_lipschitz_bound_holds;
        ] );
      ( "grad",
        [
          Util.case "dense vs finite diff" test_grad_matches_finite_diff_dense;
          Util.case "conv vs finite diff" test_grad_matches_finite_diff_conv;
          Util.case "vjp linearity" test_vjp_linearity;
          Util.case "backward over a trace = vjp" test_backward_matches_vjp;
          Util.case "backward rejects short trace" test_backward_rejects_short_trace;
          Util.case "objective value_grad single trace"
            test_objective_value_grad_single_trace;
        ] );
      ( "train",
        [
          Util.case "batched layers match per-sample" test_layer_batch_matches_per_sample;
          Util.case "softmax" test_softmax_properties;
          Util.case "cross entropy positive" test_cross_entropy_positive;
          Util.case "accuracy improves" test_training_improves_accuracy;
          Util.case "loss decreases" test_training_reduces_loss;
          Util.case "conv net trains" test_training_conv_net;
        ] );
      ( "serial",
        [
          Util.case "dense roundtrip" test_serial_roundtrip_dense;
          Util.case "conv roundtrip" test_serial_roundtrip_conv;
          Util.case "rejects garbage" test_serial_rejects_garbage;
          Util.case "file roundtrip" test_serial_file_roundtrip;
        ] );
    ]
