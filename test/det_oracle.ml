open Oqmc_containers

(* The OCaml determinant kernels the C of det_kernels_stubs.c replaced,
   kept as the references the tests and the SIMD ablation bench compare
   against bit for bit: the Sherman–Morrison ratio and rank-1 update, the
   delayed (Woodbury) queue with its per-call correction, bordered
   extension and flush, the blocked flush kernels [mul_vt] and
   [rank_update] over row arrays, and the determinant's proposal dots
   (the ratio, then the gradient dots, whose components are narrowed to
   the inverse precision only while a queue is pending).  Rows of the
   inverse cross the precision functor once per row; every sum is one
   left-to-right chain in index order. *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module M = Matrix.Make (R)

  (* ---- blocked flush kernels ---- *)


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

  (* ---- Sherman–Morrison ---- *)

  type workspace = { y : float array; rk : float array; xv : float array }

  let make_workspace n =
    { y = Array.make n 0.; rk = Array.make n 0.; xv = Array.make n 0. }

  let sm_ratio (binv : M.t) k (v : A.t) =
    let pad = [| 0. |] in
    A.dot_into ~a:(M.data binv) ~apos:(k * M.ld binv) ~b:v ~bpos:0
      ~n:(M.cols binv) pad 0;
    pad.(0)

  let sm_update (binv : M.t) k (v : A.t) ~ratio ~(ws : workspace) =
    let n = M.rows binv in
    let data = M.data binv and ld = M.ld binv in
    A.read_into v ~pos:0 ws.xv ~n;
    for i = 0 to n - 1 do
      A.dot_arr_into data ~pos:(i * ld) ws.xv ~n ws.y i
    done;
    ws.y.(k) <- ws.y.(k) -. 1.;
    A.read_into data ~pos:(k * ld) ws.rk ~n;
    let c = -1. /. ratio in
    for i = 0 to n - 1 do
      ws.y.(i) <- c *. ws.y.(i)
    done;
    for i = 0 to n - 1 do
      if Array.unsafe_get ws.y i <> 0. then
        A.axpy_from ws.y ~ci:i ws.rk data ~pos:(i * ld) ~n
    done

  (* ---- delayed update ---- *)

  let dotf (x : float array) (y : float array) n =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
    done;
    !acc

  type du = {
    binv : M.t;
    n : int;
    delay : int;
    vs : float array array;
    brows : float array array;
    rows : int array;
    sinv : float array array;
    mutable k : int;
    p : float array;
    q : float array;
    eb : float array;
    ec : float array;
    esb : float array;
    ecs : float array;
    ypanel : float array;
    tm : float array array;
    rscr : float array;
    vscr : float array;
  }

  let du_create ~delay (binv : M.t) =
    let n = M.rows binv in
    let delay = min delay n in
    {
      binv;
      n;
      delay;
      vs = Array.init delay (fun _ -> Array.make n 0.);
      brows = Array.init delay (fun _ -> Array.make n 0.);
      rows = Array.make delay (-1);
      sinv = Array.make_matrix delay delay 0.;
      k = 0;
      p = Array.make delay 0.;
      q = Array.make delay 0.;
      eb = Array.make delay 0.;
      ec = Array.make delay 0.;
      esb = Array.make delay 0.;
      ecs = Array.make delay 0.;
      ypanel = Array.make (n * delay) 0.;
      tm = Array.init delay (fun _ -> Array.make n 0.);
      rscr = Array.make n 0.;
      vscr = Array.make n 0.;
    }

  let pending t = t.k

  (* ρ(r, v) against the implicit inverse, the correction recomputed on
     every call. *)
  let du_ratio t r (v : A.t) =
    let n = t.n in
    A.read_into (M.data t.binv) ~pos:(r * M.ld t.binv) t.rscr ~n;
    A.read_into v ~pos:0 t.vscr ~n;
    let base = dotf t.rscr t.vscr n in
    if t.k = 0 then base
    else begin
      let k = t.k in
      for j = 0 to k - 1 do
        t.p.(j) <- dotf t.brows.(j) t.vscr n
      done;
      for i = 0 to k - 1 do
        let qi = dotf t.vs.(i) t.rscr n in
        t.q.(i) <- (if t.rows.(i) = r then qi -. 1. else qi)
      done;
      let corr = ref 0. in
      for j = 0 to k - 1 do
        let acc = ref 0. in
        for i = 0 to k - 1 do
          acc := !acc +. (t.sinv.(j).(i) *. t.q.(i))
        done;
        corr := !corr +. (t.p.(j) *. !acc)
      done;
      base -. !corr
    end

  let du_flush t =
    if t.k > 0 then begin
      let k = t.k and n = t.n in
      for i = 0 to k - 1 do
        let ti = t.tm.(i) in
        Array.fill ti 0 n 0.;
        for j = 0 to k - 1 do
          let c = t.sinv.(j).(i) in
          if c <> 0. then begin
            let w = t.brows.(j) in
            for b = 0 to n - 1 do
              Array.unsafe_set ti b
                (Array.unsafe_get ti b +. (c *. Array.unsafe_get w b))
            done
          end
        done
      done;
      mul_vt t.binv ~vs:t.vs ~k ~y:t.ypanel ~ystride:t.delay ~scratch:t.rscr;
      for i = 0 to k - 1 do
        let yi = (t.rows.(i) * t.delay) + i in
        t.ypanel.(yi) <- t.ypanel.(yi) -. 1.
      done;
      rank_update t.binv ~y:t.ypanel ~ystride:t.delay ~tm:t.tm ~k
        ~scratch:t.rscr;
      t.k <- 0
    end

  let extend_sinv t =
    let k = t.k in
    let b = t.eb and c = t.ec in
    for i = 0 to k - 1 do
      b.(i) <- dotf t.brows.(k) t.vs.(i) t.n;
      c.(i) <- dotf t.brows.(i) t.vs.(k) t.n
    done;
    let d = dotf t.brows.(k) t.vs.(k) t.n in
    let sb = t.esb and cs = t.ecs in
    for i = 0 to k - 1 do
      let acc = ref 0. in
      for j = 0 to k - 1 do
        acc := !acc +. (t.sinv.(i).(j) *. b.(j))
      done;
      sb.(i) <- !acc
    done;
    for j = 0 to k - 1 do
      let acc = ref 0. in
      for i = 0 to k - 1 do
        acc := !acc +. (c.(i) *. t.sinv.(i).(j))
      done;
      cs.(j) <- !acc
    done;
    let schur = ref d in
    for i = 0 to k - 1 do
      schur := !schur -. (c.(i) *. sb.(i))
    done;
    if abs_float !schur < 1e-300 then
      invalid_arg "Delayed_update: singular Schur complement";
    let inv_s = 1. /. !schur in
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        t.sinv.(i).(j) <- t.sinv.(i).(j) +. (sb.(i) *. cs.(j) *. inv_s)
      done
    done;
    for i = 0 to k - 1 do
      t.sinv.(i).(k) <- -.sb.(i) *. inv_s;
      t.sinv.(k).(i) <- -.cs.(i) *. inv_s
    done;
    t.sinv.(k).(k) <- inv_s

  let du_accept t r (v : A.t) =
    let repeat = ref false in
    for i = 0 to t.k - 1 do
      if t.rows.(i) = r then repeat := true
    done;
    if !repeat then du_flush t;
    let k = t.k in
    t.rows.(k) <- r;
    A.read_into v ~pos:0 t.vs.(k) ~n:t.n;
    A.read_into (M.data t.binv) ~pos:(r * M.ld t.binv) t.brows.(k) ~n:t.n;
    extend_sinv t;
    t.k <- k + 1;
    if t.k = t.delay then du_flush t

  (* ---- the determinant's proposal dots ---- *)

  (* For a proposal (v, gx, gy, gz) of row [kl]: [psiv] receives v
     narrowed, and the result is (ratio, B[kl]·∂x, B[kl]·∂y, B[kl]·∂z)
     with the queue's correction when [du] has pending rows (then each
     component is narrowed through [tmp] first); with no queue or none
     pending the gradient dots are plain row dots against the double
     components. *)
  let proposal_dots ?du (binv : M.t) kl ~(psiv : A.t) ~(tmp : A.t)
      (v : float array) (g : float array array) =
    let n = M.cols binv in
    A.write_from v psiv ~pos:0 ~n;
    let ratio =
      match du with Some d -> du_ratio d kl psiv | None -> sm_ratio binv kl psiv
    in
    let dot comp =
      match du with
      | Some d when d.k > 0 ->
          A.write_from comp tmp ~pos:0 ~n;
          du_ratio d kl tmp
      | _ ->
          let pad = [| 0. |] in
          A.dot_arr_into (M.data binv) ~pos:(kl * M.ld binv) comp ~n pad 0;
          pad.(0)
    in
    (ratio, dot g.(0), dot g.(1), dot g.(2))
end
