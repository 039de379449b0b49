open Oqmc_containers

(* Periodic tricubic B-spline tables for single-particle orbitals.

   This is the Bspline-SPO engine (Bspline-v / Bspline-vgh kernels of the
   paper).  All orbitals live in one grid-major coefficient array with
   the orbital index innermost, so the hot loops stream consecutive
   coefficients per (i,j,k) stencil point — einspline's flat
   multi-spline table.  Coefficients are stored at the build's storage
   precision (single precision for every variant since QMCPACK 3.0.0,
   per the paper); accumulation happens in double-precision buffers
   owned by the caller.

   Positions are fractional supercell coordinates s ∈ [0,1)³; derivatives
   are returned with respect to s.  The SPO wrapper applies the lattice
   metric to produce Cartesian gradients and laplacians.

   The wrap-around of the periodic grid is pre-baked: each dimension stores
   n + 3 coefficient planes where the top three duplicate the first three,
   so the stencil never needs a modulo.

   Every kernel accumulates orbital m over the 64 stencil points in the
   same (a,b,c) order with the same weight-product expressions, so the
   scalar and batched kernels agree bit for bit on the double path. *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)

  type t = {
    coeffs : A.t;
    orb_stride : int; (* n_orb padded to the SIMD width *)
    nx : int;
    ny : int;
    nz : int;
    n_orb : int;
    cy : int; (* ny + 3 *)
    cz : int; (* nz + 3 *)
  }

  type vgh_buf = {
    v : float array;
    gx : float array;
    gy : float array;
    gz : float array;
    hxx : float array;
    hxy : float array;
    hxz : float array;
    hyy : float array;
    hyz : float array;
    hzz : float array;
  }

  (* Crowd-sized scratch arenas for the batched kernels: one walker's
     stencil origin, 1-D basis weights (and, for vgh, its 64×10 weight
     products), plus one result buffer per slot.  Allocated once per
     domain and reused across every generation, so the batched hot loops
     never touch the allocator. *)
  type vgh_batch = {
    cap : int;
    org : int array; (* stencil origin (ix, iy, iz) *)
    wx : float array;
    wy : float array;
    wz : float array;
    dx : float array;
    dy : float array;
    dz : float array;
    sx : float array;
    sy : float array;
    sz : float array;
    prod : float array; (* [point·10 + field], see [stage_products] *)
    outs : vgh_buf array;
  }

  type v_batch = {
    vcap : int;
    vorg : int array;
    vwx : float array;
    vwy : float array;
    vwz : float array;
    vouts : float array array;
  }

  let create ~nx ~ny ~nz ~n_orb () =
    if nx < 4 || ny < 4 || nz < 4 then
      invalid_arg "Bspline3d.create: grid must be at least 4 per dimension";
    if n_orb < 1 then invalid_arg "Bspline3d.create: n_orb < 1";
    let orb_stride = A.padded_len n_orb in
    let points = (nx + 3) * (ny + 3) * (nz + 3) in
    { coeffs = A.create (points * orb_stride); orb_stride; nx; ny; nz; n_orb;
      cy = ny + 3; cz = nz + 3 }

  let n_orb t = t.n_orb
  let bytes t = A.bytes t.coeffs

  let make_vgh_buf t =
    let z () = Array.make t.n_orb 0. in
    { v = z (); gx = z (); gy = z (); gz = z (); hxx = z (); hxy = z ();
      hxz = z (); hyy = z (); hyz = z (); hzz = z () }

  let check_orb t orb =
    if orb < 0 || orb >= t.n_orb then
      invalid_arg "Bspline3d: orbital out of range"

  let index t i j k m = ((((i * t.cy) + j) * t.cz) + k) * t.orb_stride + m

  (* Write a base coefficient (i < nx etc.) and its wrap duplicates. *)
  let set_base t ~orb ~i ~j ~k value =
    if i < 0 || i >= t.nx || j < 0 || j >= t.ny || k < 0 || k >= t.nz then
      invalid_arg "Bspline3d.set_base: index out of base grid";
    check_orb t orb;
    let is = if i < 3 then [ i; i + t.nx ] else [ i ] in
    let js = if j < 3 then [ j; j + t.ny ] else [ j ] in
    let ks = if k < 3 then [ k; k + t.nz ] else [ k ] in
    List.iter
      (fun ii ->
        List.iter
          (fun jj ->
            List.iter
              (fun kk -> A.set t.coeffs (index t ii jj kk orb) value)
              ks)
          js)
      is

  let get_base t ~orb ~i ~j ~k =
    check_orb t orb;
    A.get t.coeffs (index t i j k orb)

  let fill t f =
    for i = 0 to t.nx - 1 do
      for j = 0 to t.ny - 1 do
        for k = 0 to t.nz - 1 do
          for orb = 0 to t.n_orb - 1 do
            set_base t ~orb ~i ~j ~k (f ~orb ~i ~j ~k)
          done
        done
      done
    done

  (* Separable periodic prefilter: cyclic [1 4 1]/6 interpolation solves
     along z, then y, then x, per orbital, on plain double work arrays;
     narrowing to the storage precision happens in [set_base]. *)
  let fit_periodic t ~samples =
    let nx = t.nx and ny = t.ny and nz = t.nz in
    let work = Array.init nx (fun _ -> Array.make_matrix ny nz 0.) in
    let solve_line line =
      let n = Array.length line in
      let rhs = Array.map (fun v -> 6. *. v) line in
      let e = Tridiag.solve_cyclic ~diag:4. ~off:1. rhs in
      (* c_j = e_{(j-1) mod n} restores the original index convention. *)
      Array.init n (fun j -> e.((j - 1 + n) mod n))
    in
    for orb = 0 to t.n_orb - 1 do
      for i = 0 to nx - 1 do
        for j = 0 to ny - 1 do
          for k = 0 to nz - 1 do
            work.(i).(j).(k) <- samples ~orb ~ix:i ~iy:j ~iz:k
          done;
          let c = solve_line work.(i).(j) in
          Array.blit c 0 work.(i).(j) 0 nz
        done
      done;
      let line = Array.make ny 0. in
      for i = 0 to nx - 1 do
        for k = 0 to nz - 1 do
          for j = 0 to ny - 1 do
            line.(j) <- work.(i).(j).(k)
          done;
          let c = solve_line line in
          for j = 0 to ny - 1 do
            work.(i).(j).(k) <- c.(j)
          done
        done
      done;
      let linex = Array.make nx 0. in
      for j = 0 to ny - 1 do
        for k = 0 to nz - 1 do
          for i = 0 to nx - 1 do
            linex.(i) <- work.(i).(j).(k)
          done;
          let c = solve_line linex in
          for i = 0 to nx - 1 do
            work.(i).(j).(k) <- c.(i)
          done
        done
      done;
      for i = 0 to nx - 1 do
        for j = 0 to ny - 1 do
          for k = 0 to nz - 1 do
            set_base t ~orb ~i ~j ~k work.(i).(j).(k)
          done
        done
      done
    done

  let wrap s = s -. Float.of_int (int_of_float (Float.floor s))

  let locate n s =
    let x = wrap s *. float_of_int n in
    let i = int_of_float x in
    let i = if i >= n then n - 1 else if i < 0 then 0 else i in
    (i, x -. float_of_int i)

  let weights_of basis tx =
    let w = basis tx in
    [| w.Bspline_basis.w0; w.Bspline_basis.w1; w.Bspline_basis.w2;
       w.Bspline_basis.w3 |]

  let zero_vgh (buf : vgh_buf) n =
    Array.fill buf.v 0 n 0.;
    Array.fill buf.gx 0 n 0.;
    Array.fill buf.gy 0 n 0.;
    Array.fill buf.gz 0 n 0.;
    Array.fill buf.hxx 0 n 0.;
    Array.fill buf.hxy 0 n 0.;
    Array.fill buf.hxz 0 n 0.;
    Array.fill buf.hyy 0 n 0.;
    Array.fill buf.hyz 0 n 0.;
    Array.fill buf.hzz 0 n 0.

  (* Convert t-space derivatives to fractional-coordinate derivatives. *)
  let scale_vgh t (buf : vgh_buf) =
    let fx = float_of_int t.nx and fy = float_of_int t.ny in
    let fz = float_of_int t.nz in
    for m = 0 to t.n_orb - 1 do
      buf.gx.(m) <- buf.gx.(m) *. fx;
      buf.gy.(m) <- buf.gy.(m) *. fy;
      buf.gz.(m) <- buf.gz.(m) *. fz;
      buf.hxx.(m) <- buf.hxx.(m) *. fx *. fx;
      buf.hxy.(m) <- buf.hxy.(m) *. fx *. fy;
      buf.hxz.(m) <- buf.hxz.(m) *. fx *. fz;
      buf.hyy.(m) <- buf.hyy.(m) *. fy *. fy;
      buf.hyz.(m) <- buf.hyz.(m) *. fy *. fz;
      buf.hzz.(m) <- buf.hzz.(m) *. fz *. fz
    done

  (* ---------- scalar kernels ----------

     One position per call, accumulated straight into the caller's
     buffer, so the only mutable state is the caller's and concurrent
     calls on a shared table are safe.  These are the production path
     for scalar sweeps and NLPP quadrature, and the oracle the batched
     kernels are tested against. *)

  (* Bspline-v: values of all orbitals at s = (u0,u1,u2). *)
  let eval_v t ~u0 ~u1 ~u2 (out : float array) =
    let ix, tx = locate t.nx u0 in
    let iy, ty = locate t.ny u1 in
    let iz, tz = locate t.nz u2 in
    let wx = weights_of Bspline_basis.value tx in
    let wy = weights_of Bspline_basis.value ty in
    let wz = weights_of Bspline_basis.value tz in
    Array.fill out 0 t.n_orb 0.;
    let coeffs = t.coeffs and orb_stride = t.orb_stride in
    for a = 0 to 3 do
      for b = 0 to 3 do
        let wab = wx.(a) *. wy.(b) in
        let row = (((ix + a) * t.cy) + iy + b) * t.cz + iz in
        for c = 0 to 3 do
          let p = wab *. wz.(c) in
          let base = (row + c) * orb_stride in
          for m = 0 to t.n_orb - 1 do
            out.(m) <- out.(m) +. (p *. A.unsafe_get coeffs (base + m))
          done
        done
      done
    done

  (* Bspline-vgh: values, fractional-coordinate gradients and hessians. *)
  let eval_vgh t ~u0 ~u1 ~u2 (buf : vgh_buf) =
    let ix, tx = locate t.nx u0 in
    let iy, ty = locate t.ny u1 in
    let iz, tz = locate t.nz u2 in
    let wx = weights_of Bspline_basis.value tx in
    let wy = weights_of Bspline_basis.value ty in
    let wz = weights_of Bspline_basis.value tz in
    let dx = weights_of Bspline_basis.first tx in
    let dy = weights_of Bspline_basis.first ty in
    let dz = weights_of Bspline_basis.first tz in
    let sx = weights_of Bspline_basis.second tx in
    let sy = weights_of Bspline_basis.second ty in
    let sz = weights_of Bspline_basis.second tz in
    zero_vgh buf t.n_orb;
    let coeffs = t.coeffs and orb_stride = t.orb_stride in
    for a = 0 to 3 do
      for b = 0 to 3 do
        let wxa = wx.(a) and dxa = dx.(a) and sxa = sx.(a) in
        let wyb = wy.(b) and dyb = dy.(b) and syb = sy.(b) in
        let row = (((ix + a) * t.cy) + iy + b) * t.cz + iz in
        for c = 0 to 3 do
          let wzc = wz.(c) and dzc = dz.(c) and szc = sz.(c) in
          let p_v = wxa *. wyb *. wzc in
          let p_gx = dxa *. wyb *. wzc in
          let p_gy = wxa *. dyb *. wzc in
          let p_gz = wxa *. wyb *. dzc in
          let p_hxx = sxa *. wyb *. wzc in
          let p_hxy = dxa *. dyb *. wzc in
          let p_hxz = dxa *. wyb *. dzc in
          let p_hyy = wxa *. syb *. wzc in
          let p_hyz = wxa *. dyb *. dzc in
          let p_hzz = wxa *. wyb *. szc in
          let base = (row + c) * orb_stride in
          for m = 0 to t.n_orb - 1 do
            let cf = A.unsafe_get coeffs (base + m) in
            buf.v.(m) <- buf.v.(m) +. (p_v *. cf);
            buf.gx.(m) <- buf.gx.(m) +. (p_gx *. cf);
            buf.gy.(m) <- buf.gy.(m) +. (p_gy *. cf);
            buf.gz.(m) <- buf.gz.(m) +. (p_gz *. cf);
            buf.hxx.(m) <- buf.hxx.(m) +. (p_hxx *. cf);
            buf.hxy.(m) <- buf.hxy.(m) +. (p_hxy *. cf);
            buf.hxz.(m) <- buf.hxz.(m) +. (p_hxz *. cf);
            buf.hyy.(m) <- buf.hyy.(m) +. (p_hyy *. cf);
            buf.hyz.(m) <- buf.hyz.(m) +. (p_hyz *. cf);
            buf.hzz.(m) <- buf.hzz.(m) +. (p_hzz *. cf)
          done
        done
      done
    done;
    scale_vgh t buf

  (* ---------- crowd-batched kernels ----------

     The batched entry points take [n] fractional positions (one per
     walker of the crowd).  Per slot, the stencil origin and 1-D weights
     are staged once into the arena (and, for vgh, the 64×10 weight
     products), then the table is accumulated straight from its
     coefficient bigarray into the slot's result buffer.
     Per walker the arithmetic (expressions and accumulation order) is
     exactly that of the scalar kernels, so the double path is
     bit-identical to [n] scalar calls.  Zero allocation throughout. *)

  let make_vgh_batch t ~cap =
    if cap < 1 then invalid_arg "Bspline3d.make_vgh_batch: cap < 1";
    let w () = Array.make 4 0. in
    {
      cap;
      org = Array.make 3 0;
      wx = w ();
      wy = w ();
      wz = w ();
      dx = w ();
      dy = w ();
      dz = w ();
      sx = w ();
      sy = w ();
      sz = w ();
      prod = Array.make 640 0.;
      outs = Array.init cap (fun _ -> make_vgh_buf t);
    }

  let make_v_batch t ~cap =
    if cap < 1 then invalid_arg "Bspline3d.make_v_batch: cap < 1";
    {
      vcap = cap;
      vorg = Array.make 3 0;
      vwx = Array.make 4 0.;
      vwy = Array.make 4 0.;
      vwz = Array.make 4 0.;
      vouts = Array.init cap (fun _ -> Array.make t.n_orb 0.);
    }

  let outs b = b.outs
  let vouts b = b.vouts

  (* [locate] of axis [d] written out: origin into [org.(d)], parameter
     into [w.(0)], with no (int, float) tuple and no boxed float
     argument. *)
  let locate_into (org : int array) d n (u : float array) s (w : float array)
      =
    let x = wrap u.(s) *. float_of_int n in
    let i = int_of_float x in
    let i = if i >= n then n - 1 else if i < 0 then 0 else i in
    org.(d) <- i;
    w.(0) <- x -. float_of_int i

  (* Allocation-free weight fills; same formulas as Bspline_basis.  The
     interpolation parameter is read from [w.(0)] (stashed there by the
     caller) rather than passed as an argument: a float argument to a
     non-inlined call gets boxed, and these run nine times per walker per
     move. *)
  let put_value (w : float array) =
    let t = Array.unsafe_get w 0 in
    let t2 = t *. t in
    let t3 = t2 *. t in
    let mt = 1. -. t in
    w.(0) <- mt *. mt *. mt /. 6.;
    w.(1) <- ((3. *. t3) -. (6. *. t2) +. 4.) /. 6.;
    w.(2) <- ((-3. *. t3) +. (3. *. t2) +. (3. *. t) +. 1.) /. 6.;
    w.(3) <- t3 /. 6.

  let put_first (w : float array) =
    let t = Array.unsafe_get w 0 in
    let t2 = t *. t in
    let mt = 1. -. t in
    w.(0) <- -.(mt *. mt) /. 2.;
    w.(1) <- ((9. *. t2) -. (12. *. t)) /. 6.;
    w.(2) <- ((-9. *. t2) +. (6. *. t) +. 3.) /. 6.;
    w.(3) <- t2 /. 2.

  let put_second (w : float array) =
    let t = Array.unsafe_get w 0 in
    w.(0) <- 1. -. t;
    w.(1) <- (3. *. t) -. 2.;
    w.(2) <- 1. -. (3. *. t);
    w.(3) <- t

  (* The 64×10 vgh weight products of the staged slot, field order
     v,gx,gy,gz,hxx,hxy,hxz,hyy,hyz,hzz — the exact expressions of
     [eval_vgh], computed once per slot and read by the accumulation. *)
  let stage_products (b : vgh_batch) =
    let prod = b.prod in
    let q = ref 0 in
    for a = 0 to 3 do
      let wxa = b.wx.(a) and dxa = b.dx.(a) and sxa = b.sx.(a) in
      for bb = 0 to 3 do
        let wyb = b.wy.(bb) and dyb = b.dy.(bb) and syb = b.sy.(bb) in
        for c = 0 to 3 do
          let wzc = b.wz.(c) and dzc = b.dz.(c) and szc = b.sz.(c) in
          let p = !q in
          Array.unsafe_set prod p (wxa *. wyb *. wzc);
          Array.unsafe_set prod (p + 1) (dxa *. wyb *. wzc);
          Array.unsafe_set prod (p + 2) (wxa *. dyb *. wzc);
          Array.unsafe_set prod (p + 3) (wxa *. wyb *. dzc);
          Array.unsafe_set prod (p + 4) (sxa *. wyb *. wzc);
          Array.unsafe_set prod (p + 5) (dxa *. dyb *. wzc);
          Array.unsafe_set prod (p + 6) (dxa *. wyb *. dzc);
          Array.unsafe_set prod (p + 7) (wxa *. syb *. wzc);
          Array.unsafe_set prod (p + 8) (wxa *. dyb *. dzc);
          Array.unsafe_set prod (p + 9) (wxa *. wyb *. szc);
          q := p + 10
        done
      done
    done

  (* Kind-specialized accumulation of the table.  Reading a bigarray whose
     element kind is only known through the functor argument goes
     through an indirect call that boxes every float it returns; matching
     the kind GADT once recovers the static kind, so these twins compile
     to direct unboxed loads inside the accumulation loop.  The loads
     produce the same doubles [A.unsafe_get] would. *)
  let accum_vgh_f64
      (coeffs : (float, Bigarray.float64_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) (prod : float array) (org : int array)
      (buf : vgh_buf) ~width ~cy ~cz ~orb_stride =
    let ix = org.(0) and iy = org.(1) and iz = org.(2) in
    let q = ref 0 in
    for a = 0 to 3 do
      for bb = 0 to 3 do
        let row = (((ix + a) * cy) + iy + bb) * cz + iz in
        for c = 0 to 3 do
          let p = !q in
          let p_v = Array.unsafe_get prod p in
          let p_gx = Array.unsafe_get prod (p + 1) in
          let p_gy = Array.unsafe_get prod (p + 2) in
          let p_gz = Array.unsafe_get prod (p + 3) in
          let p_hxx = Array.unsafe_get prod (p + 4) in
          let p_hxy = Array.unsafe_get prod (p + 5) in
          let p_hxz = Array.unsafe_get prod (p + 6) in
          let p_hyy = Array.unsafe_get prod (p + 7) in
          let p_hyz = Array.unsafe_get prod (p + 8) in
          let p_hzz = Array.unsafe_get prod (p + 9) in
          let base = (row + c) * orb_stride in
          for m = 0 to width - 1 do
            let cf = Bigarray.Array1.unsafe_get coeffs (base + m) in
            buf.v.(m) <- buf.v.(m) +. (p_v *. cf);
            buf.gx.(m) <- buf.gx.(m) +. (p_gx *. cf);
            buf.gy.(m) <- buf.gy.(m) +. (p_gy *. cf);
            buf.gz.(m) <- buf.gz.(m) +. (p_gz *. cf);
            buf.hxx.(m) <- buf.hxx.(m) +. (p_hxx *. cf);
            buf.hxy.(m) <- buf.hxy.(m) +. (p_hxy *. cf);
            buf.hxz.(m) <- buf.hxz.(m) +. (p_hxz *. cf);
            buf.hyy.(m) <- buf.hyy.(m) +. (p_hyy *. cf);
            buf.hyz.(m) <- buf.hyz.(m) +. (p_hyz *. cf);
            buf.hzz.(m) <- buf.hzz.(m) +. (p_hzz *. cf)
          done;
          q := p + 10
        done
      done
    done

  let accum_vgh_f32
      (coeffs : (float, Bigarray.float32_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) (prod : float array) (org : int array)
      (buf : vgh_buf) ~width ~cy ~cz ~orb_stride =
    let ix = org.(0) and iy = org.(1) and iz = org.(2) in
    let q = ref 0 in
    for a = 0 to 3 do
      for bb = 0 to 3 do
        let row = (((ix + a) * cy) + iy + bb) * cz + iz in
        for c = 0 to 3 do
          let p = !q in
          let p_v = Array.unsafe_get prod p in
          let p_gx = Array.unsafe_get prod (p + 1) in
          let p_gy = Array.unsafe_get prod (p + 2) in
          let p_gz = Array.unsafe_get prod (p + 3) in
          let p_hxx = Array.unsafe_get prod (p + 4) in
          let p_hxy = Array.unsafe_get prod (p + 5) in
          let p_hxz = Array.unsafe_get prod (p + 6) in
          let p_hyy = Array.unsafe_get prod (p + 7) in
          let p_hyz = Array.unsafe_get prod (p + 8) in
          let p_hzz = Array.unsafe_get prod (p + 9) in
          let base = (row + c) * orb_stride in
          for m = 0 to width - 1 do
            let cf = Bigarray.Array1.unsafe_get coeffs (base + m) in
            buf.v.(m) <- buf.v.(m) +. (p_v *. cf);
            buf.gx.(m) <- buf.gx.(m) +. (p_gx *. cf);
            buf.gy.(m) <- buf.gy.(m) +. (p_gy *. cf);
            buf.gz.(m) <- buf.gz.(m) +. (p_gz *. cf);
            buf.hxx.(m) <- buf.hxx.(m) +. (p_hxx *. cf);
            buf.hxy.(m) <- buf.hxy.(m) +. (p_hxy *. cf);
            buf.hxz.(m) <- buf.hxz.(m) +. (p_hxz *. cf);
            buf.hyy.(m) <- buf.hyy.(m) +. (p_hyy *. cf);
            buf.hyz.(m) <- buf.hyz.(m) +. (p_hyz *. cf);
            buf.hzz.(m) <- buf.hzz.(m) +. (p_hzz *. cf)
          done;
          q := p + 10
        done
      done
    done

  let accum_vgh :
      A.t -> float array -> int array -> vgh_buf -> width:int -> cy:int ->
      cz:int -> orb_stride:int -> unit =
    match R.kind with
    | Bigarray.Float64 -> accum_vgh_f64
    | Bigarray.Float32 -> accum_vgh_f32

  (* Value twins; the value products are three mults per stencil point,
     cheap enough to compute inline. *)
  let accum_v_f64
      (coeffs : (float, Bigarray.float64_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) (b : v_batch) (out : float array) ~width
      ~cy ~cz ~orb_stride =
    let ix = b.vorg.(0) and iy = b.vorg.(1) and iz = b.vorg.(2) in
    for a = 0 to 3 do
      for bb = 0 to 3 do
        let wab = b.vwx.(a) *. b.vwy.(bb) in
        let row = (((ix + a) * cy) + iy + bb) * cz + iz in
        for c = 0 to 3 do
          let p = wab *. b.vwz.(c) in
          let base = (row + c) * orb_stride in
          for m = 0 to width - 1 do
            out.(m) <-
              out.(m) +. (p *. Bigarray.Array1.unsafe_get coeffs (base + m))
          done
        done
      done
    done

  let accum_v_f32
      (coeffs : (float, Bigarray.float32_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) (b : v_batch) (out : float array) ~width
      ~cy ~cz ~orb_stride =
    let ix = b.vorg.(0) and iy = b.vorg.(1) and iz = b.vorg.(2) in
    for a = 0 to 3 do
      for bb = 0 to 3 do
        let wab = b.vwx.(a) *. b.vwy.(bb) in
        let row = (((ix + a) * cy) + iy + bb) * cz + iz in
        for c = 0 to 3 do
          let p = wab *. b.vwz.(c) in
          let base = (row + c) * orb_stride in
          for m = 0 to width - 1 do
            out.(m) <-
              out.(m) +. (p *. Bigarray.Array1.unsafe_get coeffs (base + m))
          done
        done
      done
    done

  let accum_v :
      A.t -> v_batch -> float array -> width:int -> cy:int -> cz:int ->
      orb_stride:int -> unit =
    match R.kind with
    | Bigarray.Float64 -> accum_v_f64
    | Bigarray.Float32 -> accum_v_f32

  let eval_vgh_batch t (b : vgh_batch) ~n ~(u0 : float array)
      ~(u1 : float array) ~(u2 : float array) =
    if n < 0 || n > b.cap then invalid_arg "Bspline3d.eval_vgh_batch: bad n";
    for s = 0 to n - 1 do
      locate_into b.org 0 t.nx u0 s b.wx;
      locate_into b.org 1 t.ny u1 s b.wy;
      locate_into b.org 2 t.nz u2 s b.wz;
      b.dx.(0) <- b.wx.(0);
      b.sx.(0) <- b.wx.(0);
      b.dy.(0) <- b.wy.(0);
      b.sy.(0) <- b.wy.(0);
      b.dz.(0) <- b.wz.(0);
      b.sz.(0) <- b.wz.(0);
      put_value b.wx;
      put_value b.wy;
      put_value b.wz;
      put_first b.dx;
      put_first b.dy;
      put_first b.dz;
      put_second b.sx;
      put_second b.sy;
      put_second b.sz;
      stage_products b;
      let buf = b.outs.(s) in
      zero_vgh buf t.n_orb;
      accum_vgh t.coeffs b.prod b.org buf ~width:t.n_orb ~cy:t.cy ~cz:t.cz
        ~orb_stride:t.orb_stride;
      scale_vgh t buf
    done

  let eval_v_batch t (b : v_batch) ~n ~(u0 : float array) ~(u1 : float array)
      ~(u2 : float array) =
    if n < 0 || n > b.vcap then invalid_arg "Bspline3d.eval_v_batch: bad n";
    for s = 0 to n - 1 do
      locate_into b.vorg 0 t.nx u0 s b.vwx;
      locate_into b.vorg 1 t.ny u1 s b.vwy;
      locate_into b.vorg 2 t.nz u2 s b.vwz;
      put_value b.vwx;
      put_value b.vwy;
      put_value b.vwz;
      let out = b.vouts.(s) in
      Array.fill out 0 t.n_orb 0.;
      accum_v t.coeffs b out ~width:t.n_orb ~cy:t.cy ~cz:t.cz
        ~orb_stride:t.orb_stride
    done

  (* Analytic size of a table in bytes for workloads too big to allocate
     (the B-spline column of Table 1). *)
  let table_bytes ~nx ~ny ~nz ~n_orb ~elt_bytes =
    (nx + 3) * (ny + 3) * (nz + 3) * n_orb * elt_bytes
end
