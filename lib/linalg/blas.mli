open Oqmc_containers

(** Hand-rolled BLAS-1/2/3 kernels at a fixed storage precision with
    double-precision accumulation — the substrate of the determinant update
    (Sherman–Morrison, BLAS2) and the delayed-update flush (BLAS3). *)

module Make (R : Precision.REAL) : sig
  module A : module type of Aligned.Make (R)
  module M : module type of Matrix.Make (R)

  val dot : A.t -> A.t -> int -> float
  val scal : float -> A.t -> int -> unit
  val axpy : float -> A.t -> A.t -> int -> unit
  (** [axpy alpha x y n] : [y := y + alpha x] over the first [n] entries. *)

  val copy : A.t -> A.t -> int -> unit
  val asum : A.t -> int -> float
  val nrm2 : A.t -> int -> float

  val gemv : M.t -> A.t -> A.t -> unit
  (** [gemv a x y] : [y := A x]. *)

  val gemv_t : M.t -> A.t -> A.t -> unit
  (** [gemv_t a x y] : [y := Aᵀ x]. *)

  val ger : float -> A.t -> A.t -> M.t -> unit
  (** [ger alpha x y a] : [A := A + alpha x yᵀ]. *)

  val gemm : ?alpha:float -> ?beta:float -> M.t -> M.t -> M.t -> unit
  (** [gemm a b c] : [C := alpha A B + beta C].
      @raise Invalid_argument on shape mismatch. *)

  val row_dot : M.t -> int -> A.t -> float
  (** Dot of matrix row [i] with a vector — the determinant-ratio kernel. *)

  val mul_vt :
    M.t -> vs:float array -> k:int -> y:float array -> ystride:int -> unit
  (** [mul_vt b ~vs ~k ~y ~ystride] :
      [y.(a·ystride + i) <- B[a]·v_i] for [i < k], where [v_i] is the
      [cols b] entries of [vs] from [i·cols b] — the blocked Y := B·Vᵀ
      panel of the delayed-update flush, in C.  Row-blocked so B streams
      through memory once per flush; each output element is a single
      in-order summation chain (bit-identical to the unblocked
      reference).
      @raise Invalid_argument if [vs] or [y] is too short. *)

  val rank_update :
    M.t -> y:float array -> ystride:int -> tm:float array -> k:int -> unit
  (** [rank_update b ~y ~ystride ~tm ~k] : [B := B − Y·T] with Y as laid
      out by {!mul_vt} and T's row [i] the [cols b] entries of [tm] from
      [i·cols b] — the BLAS-3 rank-k apply, in C.  Column-blocked (512
      columns) so the T panel stays L1-resident at large n, row
      segments staged once and written back once; per-element
      accumulation order matches the unblocked reference, so the f64
      result is bit-identical.
      @raise Invalid_argument if [tm] or [y] is too short. *)
end
