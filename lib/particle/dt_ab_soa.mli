open Oqmc_containers

(** Electron-ion (AB) distance table, optimized design: one padded
    SIMD-aligned row of ion distances per electron, streamed from the
    fixed ions' SoA container.  Ions never move, so there are no column
    updates and no staleness: acceptance is a single row copy.

    [R] is the walker/positions precision, [D] the table storage
    precision (the [precision_dt] knob); see {!Dt_aa_soa}. *)

module Make (R : Precision.REAL) (D : Precision.REAL) : sig
  module A : module type of Aligned.Make (D)
  module M : module type of Matrix.Make (D)
  module Ps : module type of Particle_set.Make (R)

  type t

  val create : sources:Ps.t -> Ps.t -> t
  (** [create ~sources targets]: [sources] are the fixed ions.  Their
      positions are read once, here: moving them afterwards does not
      reach the table. *)

  val n : t -> int
  val n_sources : t -> int

  val evaluate : t -> Ps.t -> unit
  val move : t -> Vec3.t -> unit
  val accept : t -> int -> unit
  (** Rebuild every row, fill the temporary row at a proposed position,
      copy it into row [k].  None of them allocates. *)

  val dist : t -> int -> int -> float
  val displ : t -> int -> int -> Vec3.t

  val row_dist : t -> int -> A.t
  val row_dx : t -> int -> A.t
  val row_dy : t -> int -> A.t
  val row_dz : t -> int -> A.t

  val temp_dist : t -> A.t
  val temp_dx : t -> A.t
  val temp_dy : t -> A.t
  val temp_dz : t -> A.t

  val dist_data : t -> A.t
  val dx_data : t -> A.t
  val dy_data : t -> A.t
  val dz_data : t -> A.t

  val row_stride : t -> int
  (** Backing storage + row stride for offset-based (allocation-free)
      row reads. *)

  type batch
  (** Crowd batch context (ions never move, so there is no prepare
      stage); zero allocation per call, bit-identical rows. *)

  val make_batch : t array -> batch
  (** @raise Invalid_argument on an empty array. *)

  val batch_cap : batch -> int

  val move_batch :
    batch -> px:float array -> py:float array -> pz:float array -> m:int ->
    unit

  val accept_batch : batch -> k:int -> acc:bool array -> m:int -> unit

  val bytes : t -> int
end
