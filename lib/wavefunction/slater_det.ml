open Oqmc_containers
open Oqmc_linalg

(* Slater determinant component for one spin group.

   The Slater matrix is M(i,j) = φⱼ(r_{first+i}); the engine stores the
   transposed inverse B = M⁻ᵀ so that the determinant ratio for a move of
   electron k is the contiguous row dot B[k]·v (Eq. 6 of the paper) and
   the quantum-force gradient comes from the same row against ∇φ.

   On acceptance B is refreshed either by the Sherman–Morrison BLAS2
   update (the paper's DetUpdate) or by the delayed Woodbury scheme of
   Sec. 8.4.  [evaluate_log] recomputes B from scratch in double
   precision, which is also the periodic mixed-precision refresh.

   The working state is an explicit record so that the scalar component
   closures and the crowd batch entry points ([grad_into],
   [ratio_grad_into], [accept_move]) share the same ratio/dot routines —
   batched crowd sweeps stay bit-identical to the scalar path by
   construction.  Those routines are the C DetUpdate kernels
   (det_kernels_stubs.c, through Sherman_morrison, Delayed_update and the
   externals below): one call per stage takes all of a row's dots — the
   value and three gradient dots of a stored row or of a proposal — and,
   with a delayed queue pending, computes its correction once for them
   all.  The OCaml loops they replaced are the bit-for-bit test oracles
   ([test/det_oracle.ml]).

   Stored rows (QMCPACK's psiM/dpsiM/d2psiM): the state keeps φ, ∇φ and
   ∇²φ of its orbitals at every electron's current position, narrowed to
   [I] in one bigarray of 5·n·n like [phim] and [binv].  Every row is a
   pure function of the stored position: proposals arrive rounded to [R]
   ([Particle_set.propose]), an accepted move narrows the proposal's SPO
   result into its row, and [evaluate_log] builds all rows from one
   batched vgl evaluation and the Slater matrix from their values.  So
   the drift gradient ([grad], [grad_into]) and the measurement
   ([accumulate_gl]) are row dots with no SPO call, and rows rebuilt from
   the positions equal rows kept through any number of moves, bit for
   bit.  The engine carries the rows in the walker ([save_rows] /
   [load_rows]); a restore without them ([copy_from_buffer] alone)
   invalidates the rows and the next reader rebuilds them in one batched
   evaluation.  So each electron costs one SPO evaluation per proposed
   move and none per measurement or restore.

   Kernel timing keys: Bspline-v / Bspline-vgh for SPO evaluation inside
   [ratio] and [ratio_grad]; SPO-vgl times the batched row build (in
   [evaluate_log] and in a rebuild) and DetUpdate the inverse update.
   The crowd entry points are UNtimed: the crowd driver wraps each
   batched stage in a single timer window per crowd instead of one per
   walker (a row rebuild inside [grad_into] still times SPO-vgl on the
   walker's own timers).

   Two precisions parameterize the state: [R] is the walker/positions
   precision (particle sets, Wfc interface), [I] the inverse-matrix
   storage precision — B = M⁻ᵀ, the Slater matrix, the stored rows and
   the delayed-update panels narrow through [I] while every dot product
   and update accumulates in double (the precision_inv knob of the
   mixed-precision scheme).  [evaluate_log]'s full recompute doubles as
   the periodic refresh that bounds f32 inverse drift. *)

module Make (R : Precision.REAL) (I : Precision.REAL) = struct
  module W = Wfc.Make (R)
  module Ps = W.Ps
  module A = Aligned.Make (I)
  module M = Matrix.Make (I)
  module L = Lu.Make (I)
  module Sm = Sherman_morrison.Make (I)
  module Du = Delayed_update.Make (I)

  type scheme = Sherman_morrison | Delayed of int

  type state = {
    spo : Spo.t;
    timers : Timers.t;
    ps : Ps.t;
    first : int;
    n : int;
    binv : M.t;
    phim : M.t;
    rows : A.t;
        (* 5·n·n: component [c] (φ, ∂φ/∂x, ∂φ/∂y, ∂φ/∂z, ∇²φ) of
           electron [first + i]'s row at [row_at st i c] *)
    mutable rows_valid : bool;
    vgl : Spo.vgl;
    vbuf : float array;
    psiv : A.t;
    ws : Sm.workspace;
    du : Du.t option;
    last_ratio : float array; (* one unboxed cell: no boxing per move *)
    log_abs : float array;
    (* Whole-determinant evaluations (recompute, row rebuild) run all n
       electron positions through one batched kernel call; the context
       is scratch, so one engine's determinants may share it. *)
    row_pos : Vec3.t array;
    batch : Spo.vgl_batch;
    mutable staged : Spo.vgl; (* SPO result of the pending proposal *)
    mutable staged_vgl : bool; (* false after a value-only [ratio] *)
    dots : float array;
        (* the last row's ratio-style dots: value, then ∂x, ∂y, ∂z.  A
           float returned from a call or passed to one is boxed; a float
           in a float array is not. *)
    gl_dots : float array; (* the same and ∇², for [accumulate_gl] *)
  }

  (* Components of a stored row, in [Spo.vgl] order. *)
  let c_v = 0
  let c_gx = 1
  let c_gy = 2
  let c_gz = 3
  let c_lap = 4
  let row_at st i c = ((5 * i) + c) * st.n

  let make ?(timers = Timers.null) ?(scheme = Sherman_morrison) ?batch
      ~(spo : Spo.t) ~first ~count (ps : Ps.t) : state =
    let n = count in
    if n < 1 then invalid_arg "Slater_det.create: empty determinant";
    if spo.Spo.n_orb < n then
      invalid_arg "Slater_det.create: fewer orbitals than electrons";
    if first < 0 || first + n > Ps.n ps then
      invalid_arg "Slater_det.create: electron range out of bounds";
    let batch =
      match batch with
      | None -> spo.Spo.make_vgl_batch n
      | Some b when b.Spo.cap >= n -> b
      | Some _ -> invalid_arg "Slater_det.create: batch smaller than the group"
    in
    let binv = M.create n n in
    let vgl = Spo.make_vgl spo.Spo.n_orb in
    {
      spo;
      timers;
      ps;
      first;
      n;
      binv;
      phim = M.create n n;
      rows = A.create (5 * n * n);
      rows_valid = false;
      vgl;
      vbuf = Array.make spo.Spo.n_orb 0.;
      psiv = A.create n;
      ws = Sm.make_workspace n;
      du =
        (match scheme with
        | Delayed d -> Some (Du.create ~delay:d binv)
        | Sherman_morrison -> None);
      last_ratio = [| 1. |];
      log_abs = [| 0. |];
      row_pos = Array.make n Vec3.zero;
      batch;
      staged = vgl;
      staged_vgl = false;
      dots = Array.make 4 0.;
      gl_dots = Array.make 5 0.;
    }

  let in_group st k = k >= st.first && k < st.first + st.n
  let flush st = match st.du with Some d -> Du.flush d | None -> ()

  (* One bulk narrowing store instead of a boxed crossing per element;
     write_from rounds through the storage width exactly like the
     per-element stores it replaces. *)
  let load_psiv st = A.write_from st.vbuf st.psiv ~pos:0 ~n:st.n

  (* The ratio for replacing row [kl] by [psiv], into
     [st.last_ratio.(0)]. *)
  let det_ratio st kl =
    match st.du with
    | Some d -> st.last_ratio.(0) <- Du.ratio d kl st.psiv
    | None -> Sm.ratio_into st.binv kl st.psiv st.last_ratio 0

  (* The ratio-style dots of B[kl] (the implicit inverse, with the
     delayed correction while a queue is pending) against a proposal:
     its values narrowed into [psiv] (the ratio), then its gradient
     components, into [out.(0..3)].  The C reads [Spo.vgl] by field
     index. *)
  external c_sm_vgl_dots :
    M.t -> int -> A.t -> Spo.vgl -> float array -> unit = "oqmc_sm_vgl_dots"
  [@@noalloc]

  external c_du_vgl_dots :
    Du.t -> int -> A.t -> Spo.vgl -> float array -> unit = "oqmc_du_vgl_dots"
  [@@noalloc]

  (* The same dots against the first [Array.length out] components of
     stored row [kl]. *)
  let row_dots st kl (out : float array) =
    let pos = row_at st kl c_v in
    match st.du with
    | Some d -> Du.dots d kl st.rows ~pos out
    | None -> Sm.dots st.binv kl st.rows ~pos out

  (* The proposal's ratio and gradient dots into [st.dots]; [psiv]
     receives its values.  The gradient components narrow to [I] only
     while a delayed queue is pending. *)
  let vgl_dots st kl (vgl : Spo.vgl) =
    if
      Array.length vgl.Spo.v < st.n
      || Array.length vgl.Spo.gx < st.n
      || Array.length vgl.Spo.gy < st.n
      || Array.length vgl.Spo.gz < st.n
    then invalid_arg "Slater_det: SPO result shorter than the group";
    match st.du with
    | Some d -> c_du_vgl_dots d kl st.psiv vgl st.dots
    | None -> c_sm_vgl_dots st.binv kl st.psiv vgl st.dots

  (* Narrow one SPO result into stored row [i]. *)
  let store_row st i (src : Spo.vgl) =
    let n = st.n in
    A.write_from src.Spo.v st.rows ~pos:(row_at st i c_v) ~n;
    A.write_from src.Spo.gx st.rows ~pos:(row_at st i c_gx) ~n;
    A.write_from src.Spo.gy st.rows ~pos:(row_at st i c_gy) ~n;
    A.write_from src.Spo.gz st.rows ~pos:(row_at st i c_gz) ~n;
    A.write_from src.Spo.lap st.rows ~pos:(row_at st i c_lap) ~n

  (* Every row from the current positions, in one batched evaluation. *)
  let build_rows st =
    for i = 0 to st.n - 1 do
      st.row_pos.(i) <- Ps.get st.ps (st.first + i)
    done;
    let b = st.batch in
    Timers.time st.timers "SPO-vgl" (fun () -> b.Spo.run st.row_pos st.n);
    for i = 0 to st.n - 1 do
      store_row st i b.Spo.slots.(i)
    done;
    st.rows_valid <- true

  (* The stored rows, rebuilt when a restore without carried rows left
     them stale. *)
  let ensure_rows st = if not st.rows_valid then build_rows st

  let row_words st = 5 * st.n * st.n
  let rows_valid st = st.rows_valid

  let save_rows st dst ~pos =
    A.copy_within ~src:st.rows ~spos:0 ~dst ~dpos:pos ~n:(row_words st)

  let load_rows st src ~pos =
    A.copy_within ~src ~spos:pos ~dst:st.rows ~dpos:0 ~n:(row_words st);
    st.rows_valid <- true

  (* Commit the pending move of electron [k] (the engine must have routed
     the matching ratio/ratio_grad through this state first).  The
     proposal's SPO result becomes row [k]; after a value-only [ratio]
     there is none, and the rows are rebuilt on next use.  Untimed: crowd
     drivers take one DetUpdate window per batched commit stage. *)
  let accept_move st k =
    if in_group st k then begin
      let kl = k - st.first in
      (match st.du with
      | Some d -> Du.accept d kl st.psiv
      | None ->
          Sm.update_row_at st.binv kl st.psiv ~ratio:st.last_ratio ~ri:0
            ~ws:st.ws);
      st.log_abs.(0) <- st.log_abs.(0) +. log (abs_float st.last_ratio.(0));
      if not st.staged_vgl then st.rows_valid <- false
      else if st.rows_valid then store_row st kl st.staged
    end

  (* Crowd gradient stage: accumulate ∇ log D at the CURRENT position of
     electron [k] into slot [s], from the stored row.  Out-of-group
     electrons contribute exactly +0. in the scalar path, so skipping
     them leaves the accumulators bit-identical. *)
  let grad_into st k ~s ~(gx : float array) ~(gy : float array)
      ~(gz : float array) =
    if in_group st k then begin
      let kl = k - st.first in
      ensure_rows st;
      row_dots st kl st.dots;
      let d = st.dots in
      gx.(s) <- gx.(s) +. (d.(1) /. d.(0));
      gy.(s) <- gy.(s) +. (d.(2) /. d.(0));
      gz.(s) <- gz.(s) +. (d.(3) /. d.(0))
    end

  (* Crowd ratio+gradient stage at the PROPOSED position: multiplies
     [ratio.(s)] (out-of-group factor is exactly 1., so skipping is
     bit-identical) and accumulates the gradient.  Mirrors the scalar
     [ratio_grad] arithmetic exactly, including the near-singular
     zero-gradient guard.  [vgl] must stay untouched until the move is
     accepted or rejected: [accept_move] copies it into the rows. *)
  let ratio_grad_into st (vgl : Spo.vgl) k ~s ~(ratio : float array)
      ~(gx : float array) ~(gy : float array) ~(gz : float array) =
    if in_group st k then begin
      let kl = k - st.first in
      st.staged <- vgl;
      st.staged_vgl <- true;
      vgl_dots st kl vgl;
      let d = st.dots in
      let r = d.(0) in
      st.last_ratio.(0) <- r;
      ratio.(s) <- ratio.(s) *. r;
      if abs_float r >= 1e-300 then begin
        gx.(s) <- gx.(s) +. (d.(1) /. r);
        gy.(s) <- gy.(s) +. (d.(2) /. r);
        gz.(s) <- gz.(s) +. (d.(3) /. r)
      end
    end

  (* ---- the W.t component over a [state] ---- *)

  let component (st : state) : W.t =
    let n = st.n and first = st.first in
    let spo = st.spo and timers = st.timers in
    let evaluate_log _ps =
      flush st;
      build_rows st;
      let ld = M.ld st.phim in
      for i = 0 to n - 1 do
        A.copy_within ~src:st.rows ~spos:(row_at st i c_v)
          ~dst:(M.data st.phim) ~dpos:(i * ld) ~n
      done;
      let _sign, logd =
        Timers.time timers "DetUpdate" (fun () ->
            L.invert_transpose ~src:st.phim ~dst:st.binv)
      in
      st.log_abs.(0) <- logd;
      logd
    in
    let ratio ps k =
      if not (in_group st k) then 1.
      else begin
        Timers.time timers "Bspline-v" (fun () ->
            spo.Spo.eval_v (Ps.active_pos ps) st.vbuf);
        st.staged_vgl <- false;
        load_psiv st;
        Timers.time timers "DetUpdate" (fun () -> det_ratio st (k - first));
        st.last_ratio.(0)
      end
    in
    let ratio_grad ps k =
      if not (in_group st k) then (1., Vec3.zero)
      else begin
        let kl = k - first in
        let vgl = st.vgl in
        Timers.time timers "Bspline-vgh" (fun () ->
            spo.Spo.eval_vgl (Ps.active_pos ps) vgl);
        st.staged <- vgl;
        st.staged_vgl <- true;
        Timers.time timers "DetUpdate" (fun () -> vgl_dots st kl vgl);
        let d = st.dots in
        let r = d.(0) in
        st.last_ratio.(0) <- r;
        if abs_float r < 1e-300 then (r, Vec3.zero)
        else (r, Vec3.make (d.(1) /. r) (d.(2) /. r) (d.(3) /. r))
      end
    in
    let grad _ps k =
      if not (in_group st k) then Vec3.zero
      else begin
        (* The denominator is 1 in exact arithmetic (row kl of M is the
           orbital vector at r_k); dividing by it stabilizes the mixed
           precision path.  With pending delayed updates every dot carries
           the queue's correction. *)
        ensure_rows st;
        row_dots st (k - first) st.dots;
        let d = st.dots in
        Vec3.make (d.(1) /. d.(0)) (d.(2) /. d.(0)) (d.(3) /. d.(0))
      end
    in
    let accept _ps k =
      if in_group st k then
        Timers.time timers "DetUpdate" (fun () -> accept_move st k)
    in
    let reject _ps _k = () in
    let accumulate_gl _ps (g : W.gl) =
      flush st;
      ensure_rows st;
      for i = 0 to n - 1 do
        let k = first + i in
        row_dots st i st.gl_dots;
        let d = st.gl_dots in
        let denom = d.(0) in
        let gx = d.(1) /. denom in
        let gy = d.(2) /. denom in
        let gz = d.(3) /. denom in
        let lap = d.(4) /. denom in
        g.W.ggx.(k) <- g.W.ggx.(k) +. gx;
        g.W.ggy.(k) <- g.W.ggy.(k) +. gy;
        g.W.ggz.(k) <- g.W.ggz.(k) +. gz;
        (* ∇² log D = ∇²D/D − |∇D/D|². *)
        g.W.glap.(k) <-
          g.W.glap.(k) +. lap -. ((gx *. gx) +. (gy *. gy) +. (gz *. gz))
      done
    in
    let register buf = Wbuffer.extend buf ((n * n) + 1) in
    (* B travels as whole rows, each straight between the padded matrix
       row and the pool. *)
    let update_buffer _ps buf =
      flush st;
      let ld = M.ld st.binv in
      for i = 0 to n - 1 do
        A.to_buffer (M.data st.binv) ~pos:(i * ld) ~n buf
      done;
      Wbuffer.put buf st.log_abs.(0)
    in
    let copy_from_buffer _ps buf =
      flush st;
      let ld = M.ld st.binv in
      for i = 0 to n - 1 do
        A.of_buffer buf (M.data st.binv) ~pos:(i * ld) ~n
      done;
      st.log_abs.(0) <- Wbuffer.get buf;
      st.rows_valid <- false
    in
    let bytes () = M.bytes st.binv + M.bytes st.phim + A.bytes st.rows in
    {
      W.name = Printf.sprintf "Det[%d..%d)" first (first + n);
      evaluate_log;
      ratio;
      ratio_grad;
      grad;
      accept;
      reject;
      accumulate_gl;
      register;
      update_buffer;
      copy_from_buffer;
      bytes;
    }

  let create ?timers ?scheme ~spo ~first ~count ps =
    component (make ?timers ?scheme ~spo ~first ~count ps)
end
