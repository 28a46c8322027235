type t = {
  input : Shape.t;
  kernel : int;
  stride : int;
  windows : int array array;
}

(* Shares the window enumeration with max pooling, made once here. *)
let create ~input ~kernel ~stride =
  let windows = Pool.windows (Pool.create ~input ~kernel ~stride) in
  { input; kernel; stride; windows }

let output_shape t =
  Shape.conv_output t.input ~kernel:t.kernel ~stride:t.stride ~padding:0
    ~out_channels:t.input.Shape.channels

let forward t x =
  if Array.length x <> Shape.size t.input then
    invalid_arg "Avgpool.forward: input dimension mismatch";
  Array.map
    (fun window ->
      Array.fold_left (fun acc i -> acc +. x.(i)) 0.0 window
      /. float_of_int (Array.length window))
    t.windows

let backward t ~dout =
  let wins = t.windows in
  if Array.length dout <> Array.length wins then
    invalid_arg "Avgpool.backward: output gradient dimension mismatch";
  let dx = Array.make (Shape.size t.input) 0.0 in
  Array.iteri
    (fun o window ->
      let share = dout.(o) /. float_of_int (Array.length window) in
      Array.iter (fun i -> dx.(i) <- dx.(i) +. share) window)
    wins;
  dx

let to_affine t =
  let wins = t.windows in
  let out_dim = Array.length wins in
  let w = Linalg.Mat.zeros out_dim (Shape.size t.input) in
  Array.iteri
    (fun o window ->
      let share = 1.0 /. float_of_int (Array.length window) in
      Array.iter
        (fun i -> Linalg.Mat.set w o i (Linalg.Mat.get w o i +. share))
        window)
    wins;
  (w, Linalg.Vec.zeros out_dim)
