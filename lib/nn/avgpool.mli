(** Average-pooling layers.

    Unlike max pooling, average pooling is a linear map, so it lowers to
    an affine transformation and every abstract domain handles it
    exactly (the original LeNet used average pooling; the paper's conv
    benchmark uses max pooling, and we support both). *)

type t = private {
  input : Shape.t;
  kernel : int;  (** square window side *)
  stride : int;
  windows : int array array;
      (** the pooling windows, enumerated once by [create] (as
          {!Pool.windows}) *)
}

val create : input:Shape.t -> kernel:int -> stride:int -> t
(** @raise Invalid_argument if the window geometry does not tile. *)

val output_shape : t -> Shape.t

val forward : t -> Linalg.Vec.t -> Linalg.Vec.t

val backward : t -> dout:Linalg.Vec.t -> Linalg.Vec.t
(** Gradient with respect to the input: each output gradient spreads
    uniformly over its window. *)

val to_affine : t -> Linalg.Mat.t * Linalg.Vec.t
(** Dense lowering: [(w, b)] with [b = 0] such that
    [forward t x = w x]. *)
