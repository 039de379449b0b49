open Oqmc_containers

(* Delayed determinant updates (Woodbury identity), the paper's proposed
   future-work DetUpdate scheme (Sec. 8.4, McDaniel et al. 2016).

   Instead of applying an O(N²) Sherman–Morrison update on every accepted
   move, accepted rows are queued; ratios against the implicit, partially
   updated inverse cost O(kN) via a k×k Schur system, and every [delay]
   acceptances the queue is flushed into the stored inverse with BLAS3
   O(kN²) work.  With distinct replaced rows (guaranteed by the ordered
   PbyP sweep; enforced here by flushing on a repeat) the correction reads

     ρ(r, v) = B₀[r]·v − p S⁻¹ q
     p_j = B₀[r_j]·v        q_i = (B₀ v_i)[r] − δ_{r_i r}
     S(i,j) = B₀[r_j]·v_i

   where B₀ = M⁻ᵀ is the last flushed inverse, r_i the queued rows and v_i
   the queued orbital vectors.  S⁻¹ is maintained incrementally by bordered
   (Schur-complement) extension, O(k²) per acceptance.

   Queue state (v_i, captured B₀ rows) lives in plain [float array]s:
   storage rows cross the precision functor once per row through the bulk
   primitives, and every O(kN)/O(kN²) loop runs monomorphically on plain
   scratch — this plus the blocked flush kernels in {!Blas} is what makes
   k > 1 *cheaper* per move than rank-1, instead of paying a boxed
   indirect call per element.  The flush applies through the blocked
   GEMM-shaped [Blas.mul_vt] / [Blas.rank_update] kernels, bit-identical
   at f64 to an unblocked per-rank apply (the test suite's reference). *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module M = Matrix.Make (R)
  module B = Blas.Make (R)

  let dotf (x : float array) (y : float array) n =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
    done;
    !acc

  type t = {
    binv : M.t; (* B₀ = M⁻ᵀ, updated only at flush *)
    n : int;
    delay : int;
    vs : float array array; (* queued orbital vectors, row i = v_i *)
    brows : float array array; (* row i = B₀[r_i] captured at acceptance *)
    rows : int array; (* queued replaced-row indices *)
    sinv : float array array; (* inverse of the k×k Schur matrix S *)
    mutable k : int;
    (* scratch *)
    p : float array;
    q : float array;
    eb : float array; (* bordered-extension column/row/projection pads *)
    ec : float array;
    esb : float array;
    ecs : float array;
    y : float array; (* n × delay flush panel, row-major *)
    tm : float array array; (* delay rows of n: T = S⁻ᵀ W *)
    rscr : float array; (* staged B₀ row / flush row I/O *)
    vscr : float array; (* staged proposal row *)
  }

  let create ?(delay = 16) (binv : M.t) =
    let n = M.rows binv in
    if M.cols binv <> n then invalid_arg "Delayed_update.create: not square";
    if delay < 1 then invalid_arg "Delayed_update.create: delay < 1";
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
      y = Array.make (n * delay) 0.;
      tm = Array.init delay (fun _ -> Array.make n 0.);
      rscr = Array.make n 0.;
      vscr = Array.make n 0.;
    }

  let binv t = t.binv
  let pending t = t.k
  let delay t = t.delay

  (* ρ(r,v) against the implicit inverse: two staged rows (B₀[r] and v),
     then O(kN) plain-scratch dots. *)
  let ratio t r (v : A.t) =
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

  (* Flush the queue: B₀ ← B₀ − Y S⁻ᵀ W with Y = B₀Vᵀ − E and W = brows. *)
  let flush t =
    if t.k > 0 then begin
      let k = t.k and n = t.n in
      (* T := S⁻ᵀ W, i.e. T(i,:) = Σ_j S⁻¹(j,i) · brows(j,:). *)
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
      (* Y(a,i) = B₀[a]·v_i − δ_{a,r_i} — blocked panel, B₀ streamed once. *)
      B.mul_vt t.binv ~vs:t.vs ~k ~y:t.y ~ystride:t.delay ~scratch:t.rscr;
      for i = 0 to k - 1 do
        let yi = (t.rows.(i) * t.delay) + i in
        t.y.(yi) <- t.y.(yi) -. 1.
      done;
      (* B₀ −= Y T *)
      B.rank_update t.binv ~y:t.y ~ystride:t.delay ~tm:t.tm ~k
        ~scratch:t.rscr;
      t.k <- 0
    end

  (* Extend S⁻¹ by one bordered row/column via the Schur complement. *)
  let extend_sinv t =
    let k = t.k in
    (* New S entries: column b_i = S(i,k) = brows[k]·v_i,
       row c_j = S(k,j) = brows[j]·v_k, corner d = brows[k]·v_k. *)
    let b = t.eb and c = t.ec in
    for i = 0 to k - 1 do
      b.(i) <- dotf t.brows.(k) t.vs.(i) t.n;
      c.(i) <- dotf t.brows.(i) t.vs.(k) t.n
    done;
    let d = dotf t.brows.(k) t.vs.(k) t.n in
    (* sb = S⁻¹ b, cs = c S⁻¹, schur = d − c S⁻¹ b *)
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

  let accept t r (v : A.t) =
    (* A repeat of a pending row would break the distinct-rows invariant;
       flush first (the ordered PbyP sweep never triggers this). *)
    let repeat = ref false in
    for i = 0 to t.k - 1 do
      if t.rows.(i) = r then repeat := true
    done;
    if !repeat then flush t;
    let k = t.k in
    t.rows.(k) <- r;
    A.read_into v ~pos:0 t.vs.(k) ~n:t.n;
    A.read_into (M.data t.binv) ~pos:(r * M.ld t.binv) t.brows.(k) ~n:t.n;
    extend_sinv t;
    t.k <- k + 1;
    if t.k = t.delay then flush t
end
