(** Gradients of network outputs by reverse-mode differentiation.

    Networks are piecewise-linear, so gradients exist almost everywhere;
    at kinks we use the standard subgradient conventions documented in
    {!Layer.backward}. *)

val vjp : Network.t -> x:Linalg.Vec.t -> dout:Linalg.Vec.t -> Linalg.Vec.t
(** [vjp n ~x ~dout] is the vector-Jacobian product
    [dout^T . J_N(x)], i.e. the gradient of [dout . N(x)] with respect
    to [x].  It is {!Network.forward_trace} followed by {!backward}. *)

val backward :
  Network.t -> trace:Linalg.Vec.t array -> dout:Linalg.Vec.t -> Linalg.Vec.t
(** [backward n ~trace ~dout] is the reverse sweep of {!vjp} over a trace
    already computed by [Network.forward_trace n x]: the same result as
    [vjp n ~x ~dout], bit for bit, without a second forward pass.
    @raise Invalid_argument if [dout] or [trace] has the wrong size. *)

val grad_output : Network.t -> x:Linalg.Vec.t -> k:int -> Linalg.Vec.t
(** Gradient of the single output score [N(x)_k]. *)

val grad_norm : Network.t -> Linalg.Vec.t -> float
(** Euclidean norm of the full output-sum gradient at a point; this is
    the "magnitude of the gradient of the network" feature from §6. *)

val finite_diff : (Linalg.Vec.t -> float) -> Linalg.Vec.t -> eps:float -> Linalg.Vec.t
(** Central finite-difference gradient of a scalar function; used by
    tests to validate backprop. *)
