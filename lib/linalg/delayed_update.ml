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

   The kernels are C (det_kernels_stubs.c): [oqmc_du_dots] and
   [oqmc_du_vgl_dots] load B₀[r] and compute S⁻¹q once per call, then
   take every requested dot as base − p·(S⁻¹q); [oqmc_du_accept] is the
   bordered extension and [oqmc_du_flush] the blocked flush (the
   GEMM-shaped Y = B₀Vᵀ and B₀ −= Y·T of {!Blas}).  The queue lives in
   flat [float array]s the C reads in place.  The OCaml loops these
   replaced, which recompute the correction per dot, are the bit-for-bit
   test oracles ([test/det_oracle.ml]). *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module M = Matrix.Make (R)

  (* det_kernels_stubs.c reads the fields by index: keep the order of the
     first fourteen in step with it. *)
  type t = {
    bd : A.t; (* storage of B₀ = M⁻ᵀ, updated only at flush *)
    ld : int;
    n : int;
    delay : int;
    mutable k : int;
    rows : int array; (* queued replaced-row indices *)
    vs : float array; (* delay × n: row i = v_i *)
    brows : float array; (* delay × n: row i = B₀[r_i] captured at acceptance *)
    sinv : float array; (* delay × delay: inverse of the Schur matrix S *)
    w : float array; (* S⁻¹q of the last row a dot call prepared *)
    y : float array; (* n × delay flush panel *)
    tm : float array; (* delay × n: T = S⁻ᵀ W *)
    rscr : float array; (* B₀[r] of the last prepared row *)
    ext : float array; (* 4 × delay: q, and the bordered-extension pads *)
    binv : M.t;
    out : float array; (* [ratio]'s result cell *)
  }

  let create ?(delay = 16) (binv : M.t) =
    let n = M.rows binv in
    if M.cols binv <> n then invalid_arg "Delayed_update.create: not square";
    if delay < 1 then invalid_arg "Delayed_update.create: delay < 1";
    let delay = min delay n in
    {
      bd = M.data binv;
      ld = M.ld binv;
      n;
      delay;
      k = 0;
      rows = Array.make delay (-1);
      vs = Array.make (delay * n) 0.;
      brows = Array.make (delay * n) 0.;
      sinv = Array.make (delay * delay) 0.;
      w = Array.make delay 0.;
      y = Array.make (n * delay) 0.;
      tm = Array.make (delay * n) 0.;
      rscr = Array.make n 0.;
      ext = Array.make (4 * delay) 0.;
      binv;
      out = [| 0. |];
    }

  let binv t = t.binv
  let pending t = t.k
  let delay t = t.delay

  external c_dots : t -> int -> A.t -> int -> float array -> unit
    = "oqmc_du_dots"
  [@@noalloc]

  external c_accept : t -> M.t -> int -> A.t -> int = "oqmc_du_accept"
  [@@noalloc]

  external c_flush : t -> M.t -> unit = "oqmc_du_flush" [@@noalloc]

  let check_row t r = if r < 0 || r >= t.n then invalid_arg "Delayed_update: row"

  (* [out.(c)] = ρ(r, src[pos + c·n ..]) for every cell of [out]: the
     correction is prepared once for the row and shared by the dots. *)
  let dots t r (src : A.t) ~pos (out : float array) =
    check_row t r;
    if pos < 0 || A.length src < pos + (Array.length out * t.n) then
      invalid_arg "Delayed_update.dots: source too short";
    c_dots t r src pos out

  let ratio t r (v : A.t) =
    dots t r v ~pos:0 t.out;
    t.out.(0)

  let flush t = c_flush t t.binv

  let accept t r (v : A.t) =
    check_row t r;
    if A.length v < t.n then invalid_arg "Delayed_update.accept: short vector";
    if c_accept t t.binv r v <> 0 then
      invalid_arg "Delayed_update: singular Schur complement"
end
