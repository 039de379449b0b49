open Oqmc_containers

(** Electron-electron (AA) distance table, optimized (Current) design:
    full padded N × Nᵖ row storage with compute-on-the-fly updates
    (Fig. 6b of the paper, after removal of the column updates).  The
    protocol per move of electron [k] is {!Make.prepare} (refresh row [k]
    at the current position), {!Make.move} (fill the temporary row at the
    proposed position), then {!Make.accept} (contiguous row copy) or
    nothing on rejection.  {!Make.evaluate} rebuilds the whole table for
    measurements.  All of them run one staged kernel on scratch the
    table owns and allocate nothing when passed the particle set the
    table was created on (another set rebinds the kernel to it first).

    [R] is the walker/positions precision, [D] the table storage
    precision (the [precision_dt] knob): rows and temporaries live at
    [D] while distances are computed in double from the [R]-precision
    positions and rounded once at the row commit. *)

module Make (R : Precision.REAL) (D : Precision.REAL) : sig
  module A : module type of Aligned.Make (D)
  module M : module type of Matrix.Make (D)
  module Ps : module type of Particle_set.Make (R)

  type t

  val create : Ps.t -> t
  val n : t -> int

  val evaluate : t -> Ps.t -> unit
  (** Recompute every row (used at load and before measurements). *)

  val prepare : t -> Ps.t -> int -> unit
  (** Refresh row [k] from the current positions — the compute-on-the-fly
      replacement for forward column updates. *)

  val move : t -> Ps.t -> int -> Vec3.t -> unit
  (** Fill the temporary row with distances from the proposed position. *)

  val accept : t -> int -> unit
  (** Copy the temporary row into row [k] (contiguous, SIMD-aligned). *)

  val dist : t -> int -> int -> float
  (** d(k,i); the self entry is 0. *)

  val displ : t -> int -> int -> Vec3.t
  (** dr(k,i) = r_i − r_k under minimum image. *)

  val row_dist : t -> int -> A.t
  val row_dx : t -> int -> A.t
  val row_dy : t -> int -> A.t
  val row_dz : t -> int -> A.t
  (** Unit-stride row views (shared storage, padded length). *)

  val temp_dist : t -> A.t
  val temp_dx : t -> A.t
  val temp_dy : t -> A.t
  val temp_dz : t -> A.t

  val dist_data : t -> A.t
  val dx_data : t -> A.t
  val dy_data : t -> A.t
  val dz_data : t -> A.t

  val row_stride : t -> int
  (** Backing storage and common row stride: row [k] of each matrix
      starts at offset [k * row_stride] — offset-based reads avoid the
      bigarray-proxy allocation of [row_*] in hot loops. *)

  type batch
  (** Crowd batch context over the tables' own kernel slots, all
      scratch preallocated.  [prepare_batch]/[move_batch]/[accept_batch]
      run the scalar per-move protocol for every slot in one batched
      kernel call each, with zero allocation and bit-identical rows. *)

  val make_batch : (t * Ps.t) array -> batch
  (** One (table, particle set) pair per crowd slot; the sets must all
      share the slot-0 lattice (a uniform crowd).
      @raise Invalid_argument on an empty array or a size mismatch. *)

  val batch_cap : batch -> int
  val batch_table : batch -> int -> t

  val prepare_batch : batch -> k:int -> m:int -> unit
  (** Refresh row [k] of slots [0..m-1] at their current positions. *)

  val move_batch :
    batch -> k:int -> px:float array -> py:float array -> pz:float array ->
    m:int -> unit
  (** Fill each slot's temporary row against its proposed position
      [(px.(s), py.(s), pz.(s))]. *)

  val accept_batch : batch -> k:int -> acc:bool array -> m:int -> unit
  (** Commit the temporary row of every slot with [acc.(s) = true]. *)

  val bytes : t -> int
end
