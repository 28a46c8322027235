(** The adversarial objective of Eq. 1–2.

    [F(x) = N(x)_K − max_{j≠K} N(x)_j] measures how far [x] is from
    violating the robustness property [(I, K)]: a non-positive value
    means [x] is a true counterexample, and a value at most [δ] makes it
    a δ-counterexample (Definition 5.3). *)

type t

val create : Nn.Network.t -> k:int -> t
(** @raise Invalid_argument if [k] is out of range or the network has
    fewer than two classes. *)

val network : t -> Nn.Network.t

val target_class : t -> int

val value : t -> Linalg.Vec.t -> float
(** [F(x)]. *)

val grad : t -> Linalg.Vec.t -> Linalg.Vec.t
(** Gradient of [F] at [x] (subgradient at ties: the runner-up class is
    the first argmax among [j ≠ K]). *)

val value_grad : t -> Linalg.Vec.t -> float * Linalg.Vec.t
(** Both at once, sharing the forward pass: [grad_at t (evaluate t x)]
    with its value. *)

type point = {
  value : float;  (** [F(x)], bit-identical to [value t x] *)
  trace : Linalg.Vec.t array;
      (** [Nn.Network.forward_trace] at [x]; element 0 is [x] itself *)
  runner_up : int;  (** the class [j ≠ K] whose score [F] subtracts *)
}
(** One evaluation of [F], kept so the gradient at the same point needs
    no second forward pass. *)

val evaluate : t -> Linalg.Vec.t -> point
(** One [forward_trace] at [x]. *)

val grad_at : t -> point -> Linalg.Vec.t
(** The gradient of {!grad} at the evaluated point: one backward sweep
    over its trace, no forward pass. *)

val is_counterexample : t -> Linalg.Vec.t -> bool
(** [F(x) <= 0]. *)

val is_delta_counterexample : t -> delta:float -> Linalg.Vec.t -> bool
(** [F(x) <= delta]; Definition 5.3. *)
