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
    current position; QMCPACK's psiM/dpsiM/d2psiM), narrowed to [I].
    Each row is a pure function of the stored position: an accepted move
    narrows the proposal's SPO result (proposals are rounded to [R] by
    [Particle_set.propose]) and [evaluate_log] builds every row, and the
    Slater matrix from them, in one batched evaluation.  Drift gradients
    and the measurement are row dots with no SPO call.  The engine
    carries the rows in the walker ({!save_rows} / {!load_rows}); a
    buffer restore without them invalidates the rows, and the next reader
    rebuilds them in one batched evaluation — bit-identical to the rows
    it would have carried. *)

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
      at a proposed position), plus SPO-vgl (the batched build of the
      stored rows in a recompute, or after a restore without carried
      rows) and DetUpdate (ratio dots and inverse updates).
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
    ?batch:Spo.vgl_batch ->
    spo:Spo.t ->
    first:int ->
    count:int ->
    Ps.t ->
    state
  (** [batch] is the whole-determinant evaluation context (a fresh one of
      capacity [count] by default).  It is scratch: the determinants of
      one engine may share one, but never across domains.
      @raise Invalid_argument as {!create}, or if [batch] holds fewer
      than [count] slots. *)

  val component : state -> W.t

  val row_words : state -> int
  (** Length of the stored rows, 5·n·n. *)

  val rows_valid : state -> bool
  (** False only between a buffer restore without carried rows (or an
      accept after a value-only [ratio]) and the rebuild. *)

  val save_rows :
    state -> (float, I.elt, Bigarray.c_layout) Bigarray.Array1.t ->
    pos:int -> unit
  (** [save_rows st dst ~pos]: copy the stored rows (valid ones) into
      [dst] at [pos .. pos + row_words st - 1]. *)

  val load_rows :
    state -> (float, I.elt, Bigarray.c_layout) Bigarray.Array1.t ->
    pos:int -> unit
  (** Inverse of {!save_rows}; marks the rows valid.  Must follow the
      buffer restore of the same walker. *)

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
      result, narrowed to [I], as the electron's row (after a value-only
      [ratio] the rows are rebuilt on next use instead).  Allocates
      nothing.  Untimed. *)
end
