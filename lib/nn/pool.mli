(** Max-pooling layers.

    Unlike convolutions, max pooling is piecewise-linear but not affine,
    so abstract domains need the structured window description; this
    module exposes window enumeration for that purpose. *)

type t = private {
  input : Shape.t;
  kernel : int;  (** square window side *)
  stride : int;
  windows : int array array;
      (** enumerated once by [create]; see {!val-windows} *)
}

val create : input:Shape.t -> kernel:int -> stride:int -> t
(** @raise Invalid_argument if the window geometry does not tile. *)

val output_shape : t -> Shape.t

val windows : t -> int array array
(** [windows t] has one entry per output element (in flattened CHW
    order); entry [o] lists the flattened input indices feeding output
    [o].  Every window is non-empty.  The table is computed once by
    [create] and shared by every call: do not mutate it. *)

val forward : t -> Linalg.Vec.t -> Linalg.Vec.t

val backward : t -> x:Linalg.Vec.t -> dout:Linalg.Vec.t -> Linalg.Vec.t
(** Routes each output gradient to the argmax input of its window (first
    index on ties), the standard subgradient choice. *)
