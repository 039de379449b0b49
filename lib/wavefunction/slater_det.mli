open Oqmc_containers

(** Slater determinant component for one spin group, storing the
    transposed inverse B = M⁻ᵀ so the PbyP ratio is a contiguous row dot
    (Eq. 6).  Acceptance uses the Sherman–Morrison BLAS2 update or the
    delayed Woodbury scheme of Sec. 8.4; [evaluate_log] is the periodic
    double-precision recompute that anchors mixed-precision accuracy.

    [R] is the walker/positions precision, [I] the inverse-matrix storage
    precision (the [precision_inv] knob): B, the Slater matrix and the
    delayed-update panel storage narrow through [I] while all dots and
    updates accumulate in double.

    The state also keeps each electron's orbital row (φ, ∇φ, ∇²φ at its
    current position; QMCPACK's psiM/dpsiM/d2psiM).  An accepted move
    stores the proposal's SPO result, so drift gradients and the
    measurement are row dots with no SPO call; a full recompute or a
    buffer restore invalidates the rows, and the next reader rebuilds
    them in one batched evaluation. *)

module Make (R : Precision.REAL) (I : Precision.REAL) : sig
  module W : module type of Wfc.Make (R)
  module Ps = W.Ps

  type scheme = Sherman_morrison | Delayed of int

  val create :
    ?timers:Timers.t ->
    ?scheme:scheme ->
    spo:Spo.t ->
    first:int ->
    count:int ->
    Ps.t ->
    W.t
  (** Determinant over electrons [first, first + count); moves of
      electrons outside the group have ratio 1.  Kernel timing keys:
      Bspline-v (value-only SPO) and Bspline-vgh (SPO with derivatives
      at a proposed position), plus SPO-vgl (batched rebuild of the stored
      rows after a recompute or restore) and DetUpdate (ratio dots and
      inverse updates).
      @raise Invalid_argument on an empty group, an out-of-range window,
      or fewer orbitals than electrons. *)

  type state
  (** The determinant working state, exposed so crowd drivers can run the
      batched move pipeline directly; [component] wraps it as the usual
      {!W.t} (and [create] = [make] + [component]).  The scalar closures
      and the crowd entry points share the same ratio/dot routines, so
      batched sweeps are bit-identical to the scalar path. *)

  val make :
    ?timers:Timers.t ->
    ?scheme:scheme ->
    spo:Spo.t ->
    first:int ->
    count:int ->
    Ps.t ->
    state

  val component : state -> W.t

  val grad_into :
    state -> int -> s:int -> gx:float array -> gy:float array ->
    gz:float array -> unit
  (** [grad_into st k ~s ...]: accumulate ∇ log D at the current
      position of electron [k] into slot [s] from the stored row; a no-op
      (exactly +0.) for out-of-group electrons.  Untimed — crowd drivers
      take one timer window per batched stage — except for a row rebuild,
      which times SPO-vgl. *)

  val ratio_grad_into :
    state -> Spo.vgl -> int -> s:int -> ratio:float array ->
    gx:float array -> gy:float array -> gz:float array -> unit
  (** Proposed-position ratio and gradient: multiplies [ratio.(s)] by the
      determinant ratio (factor exactly 1. out of group) and accumulates
      the gradient, staging the move for {!accept_move}.  [vgl] is the SPO
      result at the proposed position; it must stay untouched until the
      move is accepted or rejected.  Untimed. *)

  val accept_move : state -> int -> unit
  (** Commit the move proposed by the last [ratio_grad_into]/[ratio] for
      this electron (Sherman–Morrison row update or delayed Woodbury
      enqueue), bump the stored log |det| and store the proposal's SPO
      result as the electron's row (after a value-only [ratio] the rows
      are rebuilt on next use instead).  Allocates nothing.  Untimed. *)
end
