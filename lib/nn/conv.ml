type t = {
  input : Shape.t;
  out_channels : int;
  kernel : int;
  stride : int;
  padding : int;
  weights : float array;
  bias : Linalg.Vec.t;
  tap_cells : int array;
  tap_inputs : int array;
}

let weight_count ~out_channels ~in_channels ~kernel =
  out_channels * in_channels * kernel * kernel

let output_shape t =
  Shape.conv_output t.input ~kernel:t.kernel ~stride:t.stride
    ~padding:t.padding ~out_channels:t.out_channels

let widx t ~oc ~ic ~ki ~kj =
  let k = t.kernel in
  (((((oc * t.input.Shape.channels) + ic) * k) + ki) * k) + kj

let weight t ~oc ~ic ~ki ~kj = t.weights.(widx t ~oc ~ic ~ki ~kj)

(* Iterate over every (output element, contributing input element) pair.
   [f ~oc ~oi ~oj ~ic ~ii ~ij ~ki ~kj] is called only for in-bounds input
   coordinates; padded positions contribute zero and are skipped. *)
let iter_taps t f =
  let out = output_shape t in
  for oc = 0 to out.Shape.channels - 1 do
    for oi = 0 to out.Shape.height - 1 do
      for oj = 0 to out.Shape.width - 1 do
        for ic = 0 to t.input.Shape.channels - 1 do
          for ki = 0 to t.kernel - 1 do
            for kj = 0 to t.kernel - 1 do
              let ii = (oi * t.stride) + ki - t.padding in
              let ij = (oj * t.stride) + kj - t.padding in
              if Shape.in_bounds t.input ~i:ii ~j:ij then
                f ~oc ~oi ~oj ~ic ~ii ~ij ~ki ~kj
            done
          done
        done
      done
    done
  done

(* Direct nested-loop kernels, kept as the reference oracle for the
   im2col + GEMM implementations below (and exercised by tests and the
   kernel benchmark harness). *)

let forward_direct t x =
  if Array.length x <> Shape.size t.input then
    invalid_arg "Conv.forward: input dimension mismatch";
  let out = output_shape t in
  let y = Array.make (Shape.size out) 0.0 in
  for oc = 0 to out.Shape.channels - 1 do
    for oi = 0 to out.Shape.height - 1 do
      for oj = 0 to out.Shape.width - 1 do
        y.(Shape.index out ~c:oc ~i:oi ~j:oj) <- t.bias.(oc)
      done
    done
  done;
  iter_taps t (fun ~oc ~oi ~oj ~ic ~ii ~ij ~ki ~kj ->
      let o = Shape.index out ~c:oc ~i:oi ~j:oj in
      let i = Shape.index t.input ~c:ic ~i:ii ~j:ij in
      y.(o) <- y.(o) +. (t.weights.(widx t ~oc ~ic ~ki ~kj) *. x.(i)));
  y

let backward_direct t ~dout =
  let out = output_shape t in
  if Array.length dout <> Shape.size out then
    invalid_arg "Conv.backward: output gradient dimension mismatch";
  let dx = Array.make (Shape.size t.input) 0.0 in
  iter_taps t (fun ~oc ~oi ~oj ~ic ~ii ~ij ~ki ~kj ->
      let o = Shape.index out ~c:oc ~i:oi ~j:oj in
      let i = Shape.index t.input ~c:ic ~i:ii ~j:ij in
      dx.(i) <- dx.(i) +. (t.weights.(widx t ~oc ~ic ~ki ~kj) *. dout.(o)));
  dx

let grad_params_direct t ~x ~dout =
  let out = output_shape t in
  if Array.length x <> Shape.size t.input then
    invalid_arg "Conv.grad_params: input dimension mismatch";
  if Array.length dout <> Shape.size out then
    invalid_arg "Conv.grad_params: output gradient dimension mismatch";
  let dw = Array.make (Array.length t.weights) 0.0 in
  let db = Array.make t.out_channels 0.0 in
  iter_taps t (fun ~oc ~oi ~oj ~ic ~ii ~ij ~ki ~kj ->
      let o = Shape.index out ~c:oc ~i:oi ~j:oj in
      let i = Shape.index t.input ~c:ic ~i:ii ~j:ij in
      let w = widx t ~oc ~ic ~ki ~kj in
      dw.(w) <- dw.(w) +. (x.(i) *. dout.(o)));
  for oc = 0 to out.Shape.channels - 1 do
    for oi = 0 to out.Shape.height - 1 do
      for oj = 0 to out.Shape.width - 1 do
        db.(oc) <- db.(oc) +. dout.(Shape.index out ~c:oc ~i:oi ~j:oj)
      done
    done
  done;
  (dw, db)

(* ------------------------------------------------------------------ *)
(* im2col lowering.

   The patch matrix [P] has one row per (input channel, kernel offset)
   triple — row [((ic*K)+ki)*K + kj] — and one column per output
   spatial position [oi*OW + oj]; padded taps stay zero.  The weight
   array, reinterpreted as an [OC x (IC*K*K)] row-major matrix, then
   turns the convolution into [Y = W_mat * P], whose row-major result
   is exactly the CHW-flattened output.  Backward and the weight
   gradient reuse the same lowering: [dP = W^T dY] (scattered back with
   col2im) and [dW = dY P^T]. *)

let patch_rows t = t.input.Shape.channels * t.kernel * t.kernel

(* Iterate the in-bounds taps of the lowering: calls [f ~cell ~input_idx]
   for every nonzero cell of [P], [cell] being its row-major index. *)
let iter_patch_cells t f =
  let out = output_shape t in
  let ow = out.Shape.width in
  let ohow = out.Shape.height * ow in
  let k = t.kernel in
  for ic = 0 to t.input.Shape.channels - 1 do
    for ki = 0 to k - 1 do
      for kj = 0 to k - 1 do
        let row = (((ic * k) + ki) * k) + kj in
        let base = row * ohow in
        for oi = 0 to out.Shape.height - 1 do
          let ii = (oi * t.stride) + ki - t.padding in
          if ii >= 0 && ii < t.input.Shape.height then
            for oj = 0 to ow - 1 do
              let ij = (oj * t.stride) + kj - t.padding in
              if ij >= 0 && ij < t.input.Shape.width then
                f ~cell:(base + (oi * ow) + oj)
                  ~input_idx:(Shape.index t.input ~c:ic ~i:ii ~j:ij)
            done
        done
      done
    done
  done

(* The tap table: [iter_patch_cells]'s cells, in its order, as parallel
   [(cell, input_idx)] arrays.  It depends on geometry only, so [create]
   builds it once and [update]'s [{ t with weights; bias }] keeps it
   valid. *)
let build_taps t =
  let count = ref 0 in
  iter_patch_cells t (fun ~cell:_ ~input_idx:_ -> incr count);
  let cells = Array.make !count 0 and inputs = Array.make !count 0 in
  let q = ref 0 in
  iter_patch_cells t (fun ~cell ~input_idx ->
      cells.(!q) <- cell;
      inputs.(!q) <- input_idx;
      incr q);
  (cells, inputs)

let create ~input ~out_channels ~kernel ~stride ~padding ~weights ~bias =
  (* Validate geometry eagerly so malformed layers fail at construction. *)
  ignore
    (Shape.conv_output input ~kernel ~stride ~padding ~out_channels);
  let expected =
    weight_count ~out_channels ~in_channels:input.Shape.channels ~kernel
  in
  if Array.length weights <> expected then
    invalid_arg
      (Printf.sprintf "Conv.create: expected %d weights, got %d" expected
         (Array.length weights));
  if Array.length bias <> out_channels then
    invalid_arg "Conv.create: bias length must equal out_channels";
  let t =
    {
      input;
      out_channels;
      kernel;
      stride;
      padding;
      weights;
      bias;
      tap_cells = [||];
      tap_inputs = [||];
    }
  in
  let tap_cells, tap_inputs = build_taps t in
  { t with tap_cells; tap_inputs }

(* Scratch-backed im2col for the hot paths: the patch matrix of a given
   layer has the same shape on every call, so the per-domain arena
   serves the same buffer back instead of allocating megabytes of
   short-lived garbage per propagation.  The buffer never escapes [f]. *)
let with_im2col t x f =
  let out = output_shape t in
  let ohow = out.Shape.height * out.Shape.width in
  Linalg.Mat.with_scratch (patch_rows t) ohow (fun p ->
      let pd = p.Linalg.Mat.data in
      let cells = t.tap_cells and inputs = t.tap_inputs in
      for q = 0 to Array.length cells - 1 do
        pd.(cells.(q)) <- x.(inputs.(q))
      done;
      f p)

(* The weight array viewed as an [OC x (IC*K*K)] matrix (shares the
   underlying storage; treat as read-only). *)
let weight_mat t =
  { Linalg.Mat.rows = t.out_channels; cols = patch_rows t; data = t.weights }

let forward t x =
  if Array.length x <> Shape.size t.input then
    invalid_arg "Conv.forward: input dimension mismatch";
  let out = output_shape t in
  let ohow = out.Shape.height * out.Shape.width in
  let y = Linalg.Mat.zeros t.out_channels ohow in
  with_im2col t x (fun p -> Linalg.Mat.gemm (weight_mat t) p y);
  let yd = y.Linalg.Mat.data in
  for oc = 0 to t.out_channels - 1 do
    let base = oc * ohow and b = t.bias.(oc) in
    for s = 0 to ohow - 1 do
      yd.(base + s) <- yd.(base + s) +. b
    done
  done;
  yd

let backward t ~dout =
  let out = output_shape t in
  if Array.length dout <> Shape.size out then
    invalid_arg "Conv.backward: output gradient dimension mismatch";
  let ohow = out.Shape.height * out.Shape.width in
  let dy = { Linalg.Mat.rows = t.out_channels; cols = ohow; data = dout } in
  let dx = Array.make (Shape.size t.input) 0.0 in
  Linalg.Mat.with_scratch (patch_rows t) ohow (fun dp ->
      Linalg.Mat.gemm ~transa:true (weight_mat t) dy dp;
      (* col2im: scatter-add the patch gradient back onto the input, in
         tap-table order. *)
      let dpd = dp.Linalg.Mat.data in
      let cells = t.tap_cells and inputs = t.tap_inputs in
      for q = 0 to Array.length cells - 1 do
        let i = inputs.(q) in
        dx.(i) <- dx.(i) +. dpd.(cells.(q))
      done);
  dx

let grad_params t ~x ~dout =
  let out = output_shape t in
  if Array.length x <> Shape.size t.input then
    invalid_arg "Conv.grad_params: input dimension mismatch";
  if Array.length dout <> Shape.size out then
    invalid_arg "Conv.grad_params: output gradient dimension mismatch";
  let ohow = out.Shape.height * out.Shape.width in
  let dy = { Linalg.Mat.rows = t.out_channels; cols = ohow; data = dout } in
  let dw = Linalg.Mat.zeros t.out_channels (patch_rows t) in
  with_im2col t x (fun p -> Linalg.Mat.gemm ~transb:true dy p dw);
  let db = Array.make t.out_channels 0.0 in
  for oc = 0 to t.out_channels - 1 do
    let base = oc * ohow in
    let acc = ref 0.0 in
    for s = 0 to ohow - 1 do
      acc := !acc +. dout.(base + s)
    done;
    db.(oc) <- !acc
  done;
  (dw.Linalg.Mat.data, db)

let update t ~dweights ~dbias ~lr =
  {
    t with
    weights = Array.mapi (fun i w -> w -. (lr *. dweights.(i))) t.weights;
    bias = Array.mapi (fun i b -> b -. (lr *. dbias.(i))) t.bias;
  }

let to_affine t =
  let out = output_shape t in
  let w = Linalg.Mat.zeros (Shape.size out) (Shape.size t.input) in
  let b = Array.make (Shape.size out) 0.0 in
  for oc = 0 to out.Shape.channels - 1 do
    for oi = 0 to out.Shape.height - 1 do
      for oj = 0 to out.Shape.width - 1 do
        b.(Shape.index out ~c:oc ~i:oi ~j:oj) <- t.bias.(oc)
      done
    done
  done;
  iter_taps t (fun ~oc ~oi ~oj ~ic ~ii ~ij ~ki ~kj ->
      let o = Shape.index out ~c:oc ~i:oi ~j:oj in
      let i = Shape.index t.input ~c:ic ~i:ii ~j:ij in
      Linalg.Mat.set w o i
        (Linalg.Mat.get w o i +. t.weights.(widx t ~oc ~ic ~ki ~kj)));
  (w, b)
