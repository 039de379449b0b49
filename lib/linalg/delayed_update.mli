open Oqmc_containers

(** Delayed determinant updates via the Woodbury identity — the paper's
    future-work DetUpdate scheme.  Acceptances are queued and applied to
    the stored inverse in blocks of [delay], trading the per-move O(N²)
    Sherman–Morrison update for O(kN) ratios plus an O(kN²) BLAS3-style
    flush.  The ratios, the queue and the flush run in C
    (det_kernels_stubs.c). *)

module Make (R : Precision.REAL) : sig
  module A : module type of Aligned.Make (R)
  module M : module type of Matrix.Make (R)

  type t

  val create : ?delay:int -> M.t -> t
  (** Wrap an inverse-transpose matrix [B = M⁻ᵀ].  The matrix is owned by
      the wrapper: it must only be mutated through {!accept}/{!flush}.
      [delay] (default 16, clamped to [n]) is the queue capacity.  The
      flush applies through the blocked GEMM-shaped {!Blas.rank_update}.
      @raise Invalid_argument if the matrix is not square or [delay < 1]. *)

  val binv : t -> M.t
  (** The stored inverse.  Only current after {!flush}. *)

  val pending : t -> int
  (** Number of queued (unapplied) acceptances. *)

  val delay : t -> int

  val ratio : t -> int -> A.t -> float
  (** [ratio t r v] — determinant ratio for replacing row [r] with orbital
      values [v], correct with respect to all queued acceptances. *)

  val dots : t -> int -> A.t -> pos:int -> float array -> unit
  (** [dots t r src ~pos out]: [out.(c) <- ratio t r v_c] for every cell
      of [out], where [v_c] is [src] from element [pos + c·n] — the
      ratio-style dots of one row against several vectors (a stored
      orbital row's components), with the queue's correction computed
      once.  Allocates nothing.
      @raise Invalid_argument on a row out of range or a short [src]. *)

  val accept : t -> int -> A.t -> unit
  (** Queue an accepted replacement; flushes automatically when the queue
      is full or when [r] repeats a queued row. *)

  val flush : t -> unit
  (** Apply all queued acceptances to {!binv}. *)
end
