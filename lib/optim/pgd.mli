(** Projected gradient descent over a box region (the [Minimize] call of
    Algorithm 1).

    Minimises the adversarial objective with a diminishing step schedule
    and several random restarts, projecting back into the region after
    every step.  PGD is exactly the method named in §3; FGSM lives in
    {!Fgsm}. *)

type config = {
  steps : int;  (** gradient steps per restart *)
  restarts : int;  (** independent starts (first is the region center) *)
  step_scale : float;
      (** initial step as a fraction of the region's mean width *)
  early_stop : float option;
      (** stop as soon as the objective falls to this value or below
          (e.g. [Some delta]); [None] runs the full budget *)
}

val default_config : config
(** 40 steps, 5 restarts, step 0.25, no early stop. *)

val minimize :
  ?config:config ->
  rng:Linalg.Rng.t ->
  Objective.t ->
  Domains.Box.t ->
  Linalg.Vec.t * float
(** [(x_best, f_best)]: the best point found and its objective value.
    The returned point always lies inside the region.

    Cost: each restart evaluates its (clamped) start once, and each step
    then costs one [Nn.Network.forward_trace] and one backward sweep.
    The evaluation of the step's new point (best-point tracking, early
    stop) is carried into the next step, whose gradient comes from that
    trace; no point is evaluated twice.  A restart ends early when the
    gradient norm is at most [1e-12], or once its best value reaches the
    [early_stop] threshold, in which case the remaining restarts are
    skipped as well.

    RNG: all [restarts - 1] random starts are drawn from [rng] up front,
    before any descent, so the draws consumed by one call do not depend
    on when it stops.  Callers that thread one [rng] across regions
    (Algorithm 1) rely on this. *)
