open Linalg

type t = { net : Nn.Network.t; k : int }

let create net ~k =
  let m = net.Nn.Network.output_dim in
  if m < 2 then invalid_arg "Objective.create: need at least two classes";
  if k < 0 || k >= m then invalid_arg "Objective.create: class out of range";
  { net; k }

let network t = t.net

let target_class t = t.k

let runner_up t scores =
  let best = ref (if t.k = 0 then 1 else 0) in
  Array.iteri
    (fun j s -> if j <> t.k && s > scores.(!best) then best := j)
    scores;
  !best

let value t x =
  let scores = Nn.Network.eval t.net x in
  scores.(t.k) -. scores.(runner_up t scores)

type point = { value : float; trace : Vec.t array; runner_up : int }

let evaluate t x =
  let trace = Nn.Network.forward_trace t.net x in
  let scores = trace.(Array.length trace - 1) in
  let j = runner_up t scores in
  { value = scores.(t.k) -. scores.(j); trace; runner_up = j }

let grad_at t p =
  let dout =
    Vec.init t.net.Nn.Network.output_dim (fun i ->
        if i = t.k then 1.0 else if i = p.runner_up then -1.0 else 0.0)
  in
  Nn.Grad.backward t.net ~trace:p.trace ~dout

let value_grad t x =
  let p = evaluate t x in
  (p.value, grad_at t p)

let grad t x = grad_at t (evaluate t x)

let is_counterexample t x = value t x <= 0.0

let is_delta_counterexample t ~delta x = value t x <= delta
