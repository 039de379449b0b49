open Oqmc_containers

(* Hand-rolled BLAS-1/2/3 kernels over precision-fixed aligned storage.

   These are the building blocks of DetUpdate (BLAS2 Sherman–Morrison) and
   of the delayed-update scheme (BLAS3 flush).  Accumulation is always in
   double; only loads/stores happen at the storage precision, matching the
   paper's mixed-precision policy.

   Without flambda, per-element access through the precision functor boxes
   a float on every call, so the kernels here cross the functor boundary
   through the bulk row primitives (Aligned.dot_into / dot_arr_into /
   axpy_from / read_into / write_from) — once per row, never per element —
   and run their inner loops monomorphically.  The zero-alloc hot paths
   (determinant ratios and the delayed flush) take caller-owned scratch;
   the classic BLAS entry points below allocate their own small pads and
   are kept for the cold paths and tests. *)

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

  (* Y := B Vᵀ : y.(a·ystride + i) = B[a]·vs.(i) for i < k.

     Row-blocked: row a of B is staged into [scratch] once and dotted
     against all k (cache-resident) v rows, so B streams through memory
     once per flush instead of once per queued column.  Each Y element is
     a single in-order summation chain over the row, which keeps the
     result bit-identical to the unblocked reference. *)
  let mul_vt (bm : M.t) ~(vs : float array array) ~k ~(y : float array)
      ~ystride ~(scratch : float array) =
    let n = M.rows bm and cols = M.cols bm and ld = M.ld bm in
    let data = M.data bm in
    for a = 0 to n - 1 do
      A.read_into data ~pos:(a * ld) scratch ~n:cols;
      let yb = a * ystride in
      (* 4-way unroll over the rank dimension: one scratch load feeds four
         accumulators, the BLAS3 register reuse a rank-1 kernel can't
         have.  Each accumulator is still a single in-order chain over
         [b], so results are bit-identical to the rolled loop. *)
      let i = ref 0 in
      while !i + 4 <= k do
        let v0 = Array.unsafe_get vs !i
        and v1 = Array.unsafe_get vs (!i + 1)
        and v2 = Array.unsafe_get vs (!i + 2)
        and v3 = Array.unsafe_get vs (!i + 3) in
        let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
        for b = 0 to cols - 1 do
          let s = Array.unsafe_get scratch b in
          a0 := !a0 +. (s *. Array.unsafe_get v0 b);
          a1 := !a1 +. (s *. Array.unsafe_get v1 b);
          a2 := !a2 +. (s *. Array.unsafe_get v2 b);
          a3 := !a3 +. (s *. Array.unsafe_get v3 b)
        done;
        Array.unsafe_set y (yb + !i) !a0;
        Array.unsafe_set y (yb + !i + 1) !a1;
        Array.unsafe_set y (yb + !i + 2) !a2;
        Array.unsafe_set y (yb + !i + 3) !a3;
        i := !i + 4
      done;
      if !i + 2 <= k then begin
        let v0 = Array.unsafe_get vs !i and v1 = Array.unsafe_get vs (!i + 1) in
        let a0 = ref 0. and a1 = ref 0. in
        for b = 0 to cols - 1 do
          let s = Array.unsafe_get scratch b in
          a0 := !a0 +. (s *. Array.unsafe_get v0 b);
          a1 := !a1 +. (s *. Array.unsafe_get v1 b)
        done;
        Array.unsafe_set y (yb + !i) !a0;
        Array.unsafe_set y (yb + !i + 1) !a1;
        i := !i + 2
      end;
      while !i < k do
        let v = Array.unsafe_get vs !i in
        let acc = ref 0. in
        for b = 0 to cols - 1 do
          acc := !acc +. (Array.unsafe_get scratch b *. Array.unsafe_get v b)
        done;
        Array.unsafe_set y (yb + !i) !acc;
        i := !i + 1
      done
    done

  (* B := B − Y T : the rank-k flush apply.

     Blocked over columns so the k rows of T being broadcast stay
     L1-resident even when k·n outgrows the cache, and row-blocked within
     a column block: the
     row segment of B is staged once, receives all k rank-1 corrections in
     scratch (double accumulation), and is written back with one narrowing
     store per element.  Per-element accumulation order over i = 0..k−1 is
     identical to the unblocked reference, so the f64 result is
     bit-identical; at f32 the blocked path rounds once per element per
     flush instead of once per rank, which only tightens the error. *)
  let col_block = 512

  let rank_update (bm : M.t) ~(y : float array) ~ystride
      ~(tm : float array array) ~k ~(scratch : float array) =
    let n = M.rows bm and cols = M.cols bm and ld = M.ld bm in
    let data = M.data bm in
    let b0 = ref 0 in
    while !b0 < cols do
      let len = min col_block (cols - !b0) in
      for a = 0 to n - 1 do
        let pos = (a * ld) + !b0 in
        A.read_into data ~pos scratch ~n:len;
        let yb = a * ystride in
        (* 4-way unroll over the rank dimension: each staged element takes
           four corrections per load/store round trip.  OCaml's [-.] is
           left-associative, so the per-element chain
           (((s − c₀t₀) − c₁t₁) − c₂t₂) − c₃t₃ is exactly the sequential
           rank-at-a-time order — bit-identical at f64 to the unblocked
           reference. *)
        let i = ref 0 in
        while !i + 4 <= k do
          let c0 = Array.unsafe_get y (yb + !i)
          and c1 = Array.unsafe_get y (yb + !i + 1)
          and c2 = Array.unsafe_get y (yb + !i + 2)
          and c3 = Array.unsafe_get y (yb + !i + 3) in
          let t0 = Array.unsafe_get tm !i
          and t1 = Array.unsafe_get tm (!i + 1)
          and t2 = Array.unsafe_get tm (!i + 2)
          and t3 = Array.unsafe_get tm (!i + 3) in
          for b = 0 to len - 1 do
            let o = !b0 + b in
            Array.unsafe_set scratch b
              (Array.unsafe_get scratch b
              -. (c0 *. Array.unsafe_get t0 o)
              -. (c1 *. Array.unsafe_get t1 o)
              -. (c2 *. Array.unsafe_get t2 o)
              -. (c3 *. Array.unsafe_get t3 o))
          done;
          i := !i + 4
        done;
        if !i + 2 <= k then begin
          let c0 = Array.unsafe_get y (yb + !i)
          and c1 = Array.unsafe_get y (yb + !i + 1) in
          let t0 = Array.unsafe_get tm !i
          and t1 = Array.unsafe_get tm (!i + 1) in
          for b = 0 to len - 1 do
            let o = !b0 + b in
            Array.unsafe_set scratch b
              (Array.unsafe_get scratch b
              -. (c0 *. Array.unsafe_get t0 o)
              -. (c1 *. Array.unsafe_get t1 o))
          done;
          i := !i + 2
        end;
        while !i < k do
          let c = Array.unsafe_get y (yb + !i) in
          if c <> 0. then begin
            let t = Array.unsafe_get tm !i in
            for b = 0 to len - 1 do
              Array.unsafe_set scratch b
                (Array.unsafe_get scratch b
                -. (c *. Array.unsafe_get t (!b0 + b)))
            done
          end;
          i := !i + 1
        done;
        A.write_from scratch data ~pos ~n:len
      done;
      b0 := !b0 + len
    done
end
