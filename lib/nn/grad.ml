open Linalg

let backward net ~trace ~dout =
  if Vec.dim dout <> net.Network.output_dim then
    invalid_arg "Grad.backward: cotangent dimension mismatch";
  let layers = Array.of_list net.Network.layers in
  if Array.length trace <> Array.length layers + 1 then
    invalid_arg "Grad.backward: trace length mismatch";
  let g = ref dout in
  for i = Array.length layers - 1 downto 0 do
    g := Layer.backward layers.(i) ~x:trace.(i) ~dout:!g
  done;
  !g

let vjp net ~x ~dout =
  if Vec.dim dout <> net.Network.output_dim then
    invalid_arg "Grad.vjp: cotangent dimension mismatch";
  backward net ~trace:(Network.forward_trace net x) ~dout

let grad_output net ~x ~k =
  if k < 0 || k >= net.Network.output_dim then
    invalid_arg "Grad.grad_output: class index out of range";
  let dout = Vec.init net.Network.output_dim (fun i -> if i = k then 1.0 else 0.0) in
  vjp net ~x ~dout

let grad_norm net x =
  let dout = Vec.create net.Network.output_dim 1.0 in
  Vec.norm2 (vjp net ~x ~dout)

let finite_diff f x ~eps =
  Vec.init (Vec.dim x) (fun i ->
      let bump s =
        let y = Vec.copy x in
        y.(i) <- y.(i) +. s;
        f y
      in
      (bump eps -. bump (-.eps)) /. (2.0 *. eps))
