open Oqmc_containers

(* Rank-1 Slater-determinant update (DetUpdate).

   The engine stores B = M⁻ᵀ, the transposed inverse of the Slater matrix
   M(i,j) = φⱼ(rᵢ).  Moving electron k replaces row k of M by the orbital
   vector v, so by the matrix-determinant lemma the acceptance ratio is the
   contiguous row dot  ρ = B[k]·v,  and on acceptance B is refreshed with a
   Sherman–Morrison rank-1 update:

     y  = B v − e_k            (gemv)
     B ← B − (1/ρ) y ⊗ B[k]    (ger)

   which is the BLAS2 O(N²) DetUpdate kernel of the paper.  Both run in C
   (det_kernels_stubs.c, built like the distance-table rows): the ratio is
   [oqmc_sm_ratio], the update [oqmc_sm_update], which reads B in place,
   does all arithmetic in double and narrows each updated entry once.
   The OCaml loops they replaced are the bit-for-bit test oracles
   ([test/det_oracle.ml]). *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module M = Matrix.Make (R)

  (* det_kernels_stubs.c reads the fields by index: keep the order in
     step with it. *)
  type workspace = {
    y : float array;
    rk : float array;
    xv : float array;
    ratio_cell : float array; (* the accepted move's ratio *)
  }

  let make_workspace n =
    {
      y = Array.make n 0.;
      rk = Array.make n 0.;
      xv = Array.make n 0.;
      ratio_cell = [| 1. |];
    }

  external c_ratio : M.t -> int -> A.t -> float array -> int -> unit
    = "oqmc_sm_ratio"
  [@@noalloc]

  external c_update : M.t -> int -> A.t -> workspace -> unit
    = "oqmc_sm_update"
  [@@noalloc]

  external c_dots : M.t -> int -> A.t -> int -> float array -> unit
    = "oqmc_sm_dots"
  [@@noalloc]

  let check binv k (v : A.t) =
    if k < 0 || k >= M.rows binv || A.length v < M.cols binv then
      invalid_arg "Sherman_morrison: row or vector out of range"

  (* [ratio] into unboxed scratch. *)
  let ratio_into (binv : M.t) k (v : A.t) (dst : float array) j =
    check binv k v;
    if j < 0 || j >= Array.length dst then
      invalid_arg "Sherman_morrison.ratio_into: destination";
    c_ratio binv k v dst j

  (* [out.(c)] = B[k]·src[pos + c·n ..] for every cell of [out]. *)
  let dots (binv : M.t) k (src : A.t) ~pos (out : float array) =
    if k < 0 || k >= M.rows binv then invalid_arg "Sherman_morrison: row";
    if pos < 0 || A.length src < pos + (Array.length out * M.cols binv) then
      invalid_arg "Sherman_morrison.dots: source too short";
    c_dots binv k src pos out

  let ratio binv k v =
    let pad = [| 0. |] in
    ratio_into binv k v pad 0;
    pad.(0)

  (* The ratio is read from scratch at [ratio.(ri)] so that no boxed float
     crosses the call on the per-move path. *)
  let update_row_at (binv : M.t) k (v : A.t) ~(ratio : float array) ~ri
      ~(ws : workspace) =
    check binv k v;
    if M.rows binv <> M.cols binv || Array.length ws.y < M.rows binv then
      invalid_arg "Sherman_morrison.update_row: shape";
    if abs_float ratio.(ri) < 1e-300 then
      invalid_arg "Sherman_morrison.update_row: zero ratio";
    ws.ratio_cell.(0) <- ratio.(ri);
    c_update binv k v ws

  let update_row binv k v ~ratio ~ws =
    update_row_at binv k v ~ratio:[| ratio |] ~ri:0 ~ws
end
