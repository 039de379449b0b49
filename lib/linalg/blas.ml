open Oqmc_containers

(* Hand-rolled BLAS-1/2/3 kernels over precision-fixed aligned storage.

   Accumulation is always in double; only loads/stores happen at the
   storage precision, matching the paper's mixed-precision policy.

   The two kernels on the hot path are the blocked flush of the
   delayed-update scheme, [mul_vt] (Y = B·Vᵀ) and [rank_update]
   (B −= Y·T).  They are C (det_kernels_stubs.c, the DetUpdate stubs,
   built like the distance-table rows): they read B in place and take the
   queued vectors as flat [float array]s.  Their OCaml loops are the
   bit-for-bit test oracles ([test/det_oracle.ml]).

   The classic BLAS entry points (dot, gemv, ger, gemm, ...) are OCaml:
   without flambda, per-element access through the precision functor
   boxes a float, so they cross the functor boundary through the bulk row
   primitives (Aligned.dot_into / dot_arr_into / axpy_from / read_into /
   write_from), once per row, and allocate their own small pads.  They
   serve the cold paths and the tests. *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module M = Matrix.Make (R)

  let dot (x : A.t) (y : A.t) n =
    let pad = [| 0. |] in
    A.dot_into ~a:x ~apos:0 ~b:y ~bpos:0 ~n pad 0;
    pad.(0)

  let scal alpha (x : A.t) n =
    for i = 0 to n - 1 do
      A.unsafe_set x i (alpha *. A.unsafe_get x i)
    done

  let axpy alpha (x : A.t) (y : A.t) n =
    let c = [| alpha |] in
    let src = Array.make n 0. in
    A.read_into x ~pos:0 src ~n;
    A.axpy_from c ~ci:0 src y ~pos:0 ~n

  let copy (x : A.t) (y : A.t) n =
    A.copy_within ~src:x ~spos:0 ~dst:y ~dpos:0 ~n

  let asum (x : A.t) n =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. abs_float (A.unsafe_get x i)
    done;
    !acc

  let nrm2 (x : A.t) n = sqrt (dot x x n)

  (* y := A x, A is rows×cols (row-major, leading dimension honored). *)
  let gemv (a : M.t) (x : A.t) (y : A.t) =
    let rows = M.rows a and cols = M.cols a and ld = M.ld a in
    let data = M.data a in
    let xs = Array.make cols 0. and ys = Array.make rows 0. in
    A.read_into x ~pos:0 xs ~n:cols;
    for i = 0 to rows - 1 do
      A.dot_arr_into data ~pos:(i * ld) xs ~n:cols ys i
    done;
    A.write_from ys y ~pos:0 ~n:rows

  (* y := Aᵀ x — accumulate in a plain-scratch mirror of y, then one
     narrowing write-back. *)
  let gemv_t (a : M.t) (x : A.t) (y : A.t) =
    let rows = M.rows a and cols = M.cols a and ld = M.ld a in
    let data = M.data a in
    let acc = Array.make cols 0. and xs = Array.make rows 0. in
    let row = Array.make cols 0. in
    A.read_into x ~pos:0 xs ~n:rows;
    for i = 0 to rows - 1 do
      let xi = Array.unsafe_get xs i in
      if xi <> 0. then begin
        A.read_into data ~pos:(i * ld) row ~n:cols;
        for j = 0 to cols - 1 do
          Array.unsafe_set acc j
            (Array.unsafe_get acc j +. (xi *. Array.unsafe_get row j))
        done
      end
    done;
    A.write_from acc y ~pos:0 ~n:cols

  (* A := A + alpha · x yᵀ (rank-1 update): y staged once, one axpy_from
     per row with the coefficient read from scratch. *)
  let ger alpha (x : A.t) (y : A.t) (a : M.t) =
    let rows = M.rows a and cols = M.cols a and ld = M.ld a in
    let data = M.data a in
    let c = Array.make rows 0. and ys = Array.make cols 0. in
    A.read_into x ~pos:0 c ~n:rows;
    for i = 0 to rows - 1 do
      c.(i) <- alpha *. c.(i)
    done;
    A.read_into y ~pos:0 ys ~n:cols;
    for i = 0 to rows - 1 do
      if Array.unsafe_get c i <> 0. then
        A.axpy_from c ~ci:i ys data ~pos:(i * ld) ~n:cols
    done

  (* C := alpha · A B + beta · C — row-staged: each row of C accumulates in
     plain scratch across the k rank-1 contributions of A's row, preserving
     the unblocked per-element accumulation order. *)
  let gemm ?(alpha = 1.) ?(beta = 0.) (a : M.t) (b : M.t) (c : M.t) =
    if M.cols a <> M.rows b || M.rows a <> M.rows c || M.cols b <> M.cols c
    then invalid_arg "Blas.gemm: shape mismatch";
    let n = M.rows a and k = M.cols a and m = M.cols b in
    let arow = Array.make k 0.
    and brow = Array.make m 0.
    and crow = Array.make m 0. in
    let ad = M.data a and bd = M.data b and cd = M.data c in
    let ald = M.ld a and bld = M.ld b and cld = M.ld c in
    for i = 0 to n - 1 do
      A.read_into cd ~pos:(i * cld) crow ~n:m;
      for j = 0 to m - 1 do
        crow.(j) <- beta *. crow.(j)
      done;
      A.read_into ad ~pos:(i * ald) arow ~n:k;
      for p = 0 to k - 1 do
        let aip = alpha *. Array.unsafe_get arow p in
        if aip <> 0. then begin
          A.read_into bd ~pos:(p * bld) brow ~n:m;
          for j = 0 to m - 1 do
            Array.unsafe_set crow j
              (Array.unsafe_get crow j +. (aip *. Array.unsafe_get brow j))
          done
        end
      done;
      A.write_from crow cd ~pos:(i * cld) ~n:m
    done

  let row_dot (a : M.t) i (x : A.t) =
    let pad = [| 0. |] in
    A.dot_into ~a:(M.data a) ~apos:(i * M.ld a) ~b:x ~bpos:0 ~n:(M.cols a)
      pad 0;
    pad.(0)

  (* ---- Blocked GEMM-shaped kernels for the delayed-update flush ---- *)

  (* Both run in C (det_kernels_stubs.c), reading B in place; the OCaml
     loops they replaced are the test oracles ([test/det_oracle.ml]). *)

  external c_mul_vt : M.t -> float array -> float array -> int -> int -> unit
    = "oqmc_blas_mul_vt"
  [@@noalloc]

  external c_rank_update :
    M.t -> float array -> float array -> int -> int -> unit
    = "oqmc_blas_rank_update"
  [@@noalloc]

  let check_panel what (bm : M.t) ~(rows : float array) ~k ~(y : float array)
      ~ystride =
    if
      k < 0 || ystride < k
      || Array.length rows < k * M.cols bm
      || Array.length y < M.rows bm * ystride
    then invalid_arg ("Blas." ^ what ^ ": panel shorter than k rows")

  (* Y := B Vᵀ : y.(a·ystride + i) = B[a]·v_i for i < k, v_i the [cols b]
     entries of [vs] from i·cols b.

     Row-blocked: row a of B is staged once and dotted against all k
     (cache-resident) v rows, four chains side by side, so B streams
     through memory once per flush instead of once per queued column.
     Each Y element is a single in-order summation chain over the row,
     which keeps the result bit-identical to the unblocked reference. *)
  let mul_vt (bm : M.t) ~(vs : float array) ~k ~(y : float array) ~ystride =
    check_panel "mul_vt" bm ~rows:vs ~k ~y ~ystride;
    if k > 0 then c_mul_vt bm vs y k ystride

  (* B := B − Y T : the rank-k flush apply, T's row i the [cols b]
     entries of [tm] from i·cols b.

     Blocked over 512 columns so the k rows of T being broadcast stay
     L1-resident even when k·n outgrows the cache; each row segment of B
     is staged once in double, receives all k rank-1 corrections (four,
     then two, then one at a time, each element one left-to-right chain
     (((s − c₀t₀) − c₁t₁) − c₂t₂) − c₃t₃ — the sequential rank-at-a-time
     order, bit-identical at f64 to the unblocked reference) and is
     written back with one narrowing store per element.  At f32 that
     rounds once per element per flush instead of once per rank, which
     only tightens the error. *)
  let rank_update (bm : M.t) ~(y : float array) ~ystride ~(tm : float array)
      ~k =
    check_panel "rank_update" bm ~rows:tm ~k ~y ~ystride;
    if k > 0 then c_rank_update bm y tm k ystride
end
