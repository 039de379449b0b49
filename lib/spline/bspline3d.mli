open Oqmc_containers

(** Periodic tricubic B-spline tables holding all single-particle orbitals
    on one shared grid — the paper's Bspline-v / Bspline-vgh kernels.
    All orbitals share one grid-major coefficient array with the orbital
    index innermost (einspline's flat multi-spline table).  Coefficients
    live at the build's storage precision; accumulation is in double.
    Positions are fractional supercell coordinates [s ∈ [0,1)³] and
    derivatives are with respect to [s]; the SPO layer applies the
    lattice metric.

    Every evaluation runs one vectorized C accumulation per position;
    the scalar and batched entry points return the same doubles.  Any
    position is safe: the stencil origin is clamped to the grid, and
    buffer lengths are checked before the C code writes. *)

module Make (R : Precision.REAL) : sig
  module A : module type of Aligned.Make (R)

  type t

  type vgh_buf = {
    v : float array;
    gx : float array;
    gy : float array;
    gz : float array;
    hxx : float array;
    hxy : float array;
    hxz : float array;
    hyy : float array;
    hyz : float array;
    hzz : float array;
  }

  val create : nx:int -> ny:int -> nz:int -> n_orb:int -> unit -> t
  (** Zero table of [n_orb] orbitals on an [nx × ny × nz] periodic grid.
      @raise Invalid_argument if any dimension is below 4 or
      [n_orb < 1]. *)

  val n_orb : t -> int

  val bytes : t -> int
  (** Allocated coefficient storage. *)

  val make_vgh_buf : t -> vgh_buf
  (** Double-precision result buffers sized for this table. *)

  val set_base : t -> orb:int -> i:int -> j:int -> k:int -> float -> unit
  (** Write one base coefficient, maintaining the periodic wrap layers.
      @raise Invalid_argument outside the base grid or the orbital
      range. *)

  val get_base : t -> orb:int -> i:int -> j:int -> k:int -> float

  val fill : t -> (orb:int -> i:int -> j:int -> k:int -> float) -> unit
  (** Set every base coefficient directly (synthetic tables). *)

  val fit_periodic :
    t -> samples:(orb:int -> ix:int -> iy:int -> iz:int -> float) -> unit
  (** Prefilter so the spline interpolates the given grid samples
      (separable cyclic-tridiagonal solves per dimension). *)

  val eval_v : t -> u0:float -> u1:float -> u2:float -> float array -> unit
  (** Bspline-v: values of all orbitals into a caller array of length
      [>= n_orb].  Writes only the caller's array, so concurrent calls on
      one table are safe.
      @raise Invalid_argument if the array is shorter than [n_orb]. *)

  val eval_vgh : t -> u0:float -> u1:float -> u2:float -> vgh_buf -> unit
  (** Bspline-vgh: values, fractional-coordinate gradients and Hessian
      components of all orbitals; same safety as {!eval_v}.
      @raise Invalid_argument if any of the ten arrays is shorter than
      [n_orb]. *)

  type vgh_batch
  (** Crowd-sized result arena for {!eval_vgh_batch}: one result buffer
      per slot.  Allocate once per domain, reuse forever. *)

  type v_batch

  val make_vgh_batch : t -> cap:int -> vgh_batch
  (** @raise Invalid_argument if [cap < 1]. *)

  val make_v_batch : t -> cap:int -> v_batch

  val outs : vgh_batch -> vgh_buf array
  (** The per-slot result buffers of {!eval_vgh_batch}. *)

  val vouts : v_batch -> float array array
  (** The per-slot result rows of {!eval_v_batch}. *)

  val eval_vgh_batch :
    t ->
    vgh_batch ->
    n:int ->
    u0:float array ->
    u1:float array ->
    u2:float array ->
    unit
  (** Batched Bspline-vgh over the first [n] fractional positions into
      [outs.(0..n-1)], with zero allocation.  Each slot is one
      {!eval_vgh}, so the results are the scalar ones bit for bit.
      @raise Invalid_argument if [n > cap] or a slot's buffer is shorter
      than [n_orb]. *)

  val eval_v_batch :
    t ->
    v_batch ->
    n:int ->
    u0:float array ->
    u1:float array ->
    u2:float array ->
    unit
  (** Batched Bspline-v into [vouts.(0..n-1)]; same contract as
      {!eval_vgh_batch}. *)

  val table_bytes :
    nx:int -> ny:int -> nz:int -> n_orb:int -> elt_bytes:int -> int
  (** Analytic table size used by the memory-footprint accounting for
      workloads too large to allocate. *)
end
