open Oqmc_containers

(** Sherman–Morrison rank-1 determinant update — the paper's BLAS2
    [DetUpdate] kernel.  Operates on the transposed inverse [B = M⁻ᵀ] so
    that both the acceptance ratio and the update stream contiguous rows.
    The ratio and the update run in C (det_kernels_stubs.c). *)

module Make (R : Precision.REAL) : sig
  module A : module type of Aligned.Make (R)
  module M : module type of Matrix.Make (R)

  type workspace

  val make_workspace : int -> workspace
  (** Scratch vectors for an [n × n] problem; reusable across updates. *)

  val ratio : M.t -> int -> A.t -> float
  (** [ratio binv k v] is [det M' / det M] when row [k] of the Slater matrix
      is replaced by the orbital values [v]. *)

  val ratio_into : M.t -> int -> A.t -> float array -> int -> unit
  (** [ratio_into binv k v dst j] stores [ratio binv k v] in [dst.(j)]
      without boxing it. *)

  val dots : M.t -> int -> A.t -> pos:int -> float array -> unit
  (** [dots binv k src ~pos out]: [out.(c) <- B[k]·v_c] for every cell of
      [out], where [v_c] is [src] from element [pos + c·n] — a stored
      orbital row's components in one call.  Allocates nothing.
      @raise Invalid_argument on a row out of range or a short [src]. *)

  val update_row : M.t -> int -> A.t -> ratio:float -> ws:workspace -> unit
  (** Apply the accepted replacement to [binv] in place.  [ratio] must be
      the value returned by {!ratio} for the same [(k, v)].
      @raise Invalid_argument if [ratio] is (numerically) zero. *)

  val update_row_at :
    M.t -> int -> A.t -> ratio:float array -> ri:int -> ws:workspace -> unit
  (** {!update_row} with the ratio read from [ratio.(ri)]: allocates
      nothing. *)
end
