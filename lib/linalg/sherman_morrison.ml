open Oqmc_containers

(* Rank-1 Slater-determinant update (DetUpdate).

   The engine stores B = M⁻ᵀ, the transposed inverse of the Slater matrix
   M(i,j) = φⱼ(rᵢ).  Moving electron k replaces row k of M by the orbital
   vector v, so by the matrix-determinant lemma the acceptance ratio is the
   contiguous row dot  ρ = B[k]·v,  and on acceptance B is refreshed with a
   Sherman–Morrison rank-1 update:

     y  = B v − e_k            (gemv)
     B ← B − (1/ρ) y ⊗ B[k]    (ger)

   which is the BLAS2 O(N²) DetUpdate kernel of the paper.  The workspace
   is plain [float array] scratch: rows of B cross the precision functor
   once per row through the bulk primitives and every inner loop runs
   monomorphically (see Precision.REAL). *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module M = Matrix.Make (R)
  module B = Blas.Make (R)

  type workspace = { y : float array; rk : float array; xv : float array }

  let make_workspace n =
    { y = Array.make n 0.; rk = Array.make n 0.; xv = Array.make n 0. }

  let ratio (binv : M.t) k (v : A.t) = B.row_dot binv k v

  (* [ratio] into unboxed scratch, the same dot as [B.row_dot]. *)
  let ratio_into (binv : M.t) k (v : A.t) (dst : float array) j =
    A.dot_into ~a:(M.data binv) ~apos:(k * M.ld binv) ~b:v ~bpos:0
      ~n:(M.cols binv) dst j

  (* The ratio is read from scratch at [ratio.(ri)] so that no boxed float
     crosses the call on the per-move path. *)
  let update_row_at (binv : M.t) k (v : A.t) ~(ratio : float array) ~ri
      ~(ws : workspace) =
    let ratio = ratio.(ri) in
    let n = M.rows binv in
    if abs_float ratio < 1e-300 then
      invalid_arg "Sherman_morrison.update_row: zero ratio";
    let data = M.data binv and ld = M.ld binv in
    A.read_into v ~pos:0 ws.xv ~n;
    (* y := B v − e_k, one staged row dot per element. *)
    for i = 0 to n - 1 do
      A.dot_arr_into data ~pos:(i * ld) ws.xv ~n ws.y i
    done;
    ws.y.(k) <- ws.y.(k) -. 1.;
    (* Save the pre-update row k, then apply the rank-1 correction with
       the per-row coefficient read from scratch (no boxed crossing). *)
    A.read_into data ~pos:(k * ld) ws.rk ~n;
    let c = -1. /. ratio in
    for i = 0 to n - 1 do
      ws.y.(i) <- c *. ws.y.(i)
    done;
    for i = 0 to n - 1 do
      if Array.unsafe_get ws.y i <> 0. then
        A.axpy_from ws.y ~ci:i ws.rk data ~pos:(i * ld) ~n
    done

  let update_row binv k v ~ratio ~ws =
    update_row_at binv k v ~ratio:[| ratio |] ~ri:0 ~ws
end
