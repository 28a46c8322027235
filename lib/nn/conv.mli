(** 2-D convolution layers.

    A convolution is stored in structured form (kernel weights indexed by
    output channel, input channel and kernel position) and can be lowered
    to a dense affine transformation [(W, b)], which is how the abstract
    interpreter consumes it (the paper, following AI2, treats both dense
    and convolutional layers as affine transformations). *)

type t = private {
  input : Shape.t;
  out_channels : int;
  kernel : int;  (** square kernel side *)
  stride : int;
  padding : int;
  weights : float array;
      (** indexed \[oc\]\[ic\]\[ki\]\[kj\] flattened in that order *)
  bias : Linalg.Vec.t;  (** length [out_channels] *)
  tap_cells : int array;
  tap_inputs : int array;
      (** The im2col tap table, built by [create] from the geometry
          alone: tap [q] copies input element [tap_inputs.(q)] into cell
          [tap_cells.(q)] of the row-major patch matrix.  The type is
          private so that only [create] builds one; [update]'s copy with
          new weights keeps a valid table. *)
}

val create :
  input:Shape.t ->
  out_channels:int ->
  kernel:int ->
  stride:int ->
  padding:int ->
  weights:float array ->
  bias:Linalg.Vec.t ->
  t
(** Validates geometry and weight/bias lengths. *)

val output_shape : t -> Shape.t

val weight_count : out_channels:int -> in_channels:int -> kernel:int -> int
(** Number of kernel weights for the given geometry. *)

val weight : t -> oc:int -> ic:int -> ki:int -> kj:int -> float

val forward : t -> Linalg.Vec.t -> Linalg.Vec.t
(** Convolution of a flattened CHW input, lowered to im2col + GEMM. *)

val backward : t -> dout:Linalg.Vec.t -> Linalg.Vec.t
(** Vector-Jacobian product: gradient with respect to the input given the
    gradient [dout] with respect to the output ([W^T dY] on the patch
    matrix, scattered back with col2im). *)

val grad_params : t -> x:Linalg.Vec.t -> dout:Linalg.Vec.t -> float array * Linalg.Vec.t
(** [(dweights, dbias)] for SGD training, with the same layouts as
    [weights] and [bias] ([dW = dY P^T] over the im2col patch matrix). *)

val forward_direct : t -> Linalg.Vec.t -> Linalg.Vec.t
(** Direct nested-loop convolution: the reference oracle for [forward]. *)

val backward_direct : t -> dout:Linalg.Vec.t -> Linalg.Vec.t
(** Direct nested-loop oracle for [backward]. *)

val grad_params_direct :
  t -> x:Linalg.Vec.t -> dout:Linalg.Vec.t -> float array * Linalg.Vec.t
(** Direct nested-loop oracle for [grad_params]. *)

val update : t -> dweights:float array -> dbias:Linalg.Vec.t -> lr:float -> t
(** Gradient-descent step returning a new layer. *)

val to_affine : t -> Linalg.Mat.t * Linalg.Vec.t
(** Dense lowering: [(w, b)] such that [forward t x = w x + b] for every
    [x].  The matrix has [size (output_shape t)] rows. *)
