open Oqmc_containers
open Oqmc_spline

(* Reference OCaml B-spline kernels: the loops Bspline3d ran before its
   accumulation moved to C.  Tests compare the library against them bit
   for bit, and the SIMD ablation bench times them as the OCaml line.

   The oracle keeps its own copy of a table's coefficients, in the
   library's layout: grid-major, orbital innermost, each dimension
   extended by three wrap planes, orbitals padded to the SIMD width.

   - [eval_v] / [eval_vgh] are the scalar kernels: weights from
     Bspline_basis, accumulated through the precision functor.
   - [eval_v_batch] / [eval_vgh_batch] are the crowd kernels: per slot
     the weights (and the 64x10 vgh products) are staged once into
     scratch, then kind-specialized f64/f32 twins read the coefficient
     bigarray directly.

   Every kernel accumulates orbital m over the 64 stencil points in the
   same (a,b,c) order with the same weight-product expressions. *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module B3 = Bspline3d.Make (R)

  type t = {
    coeffs : A.t;
    nx : int;
    ny : int;
    nz : int;
    n_orb : int;
    orb_stride : int;
    cy : int;
    cz : int;
    (* crowd-kernel scratch: stencil origin, 1-D weights, products *)
    org : int array;
    wx : float array;
    wy : float array;
    wz : float array;
    dx : float array;
    dy : float array;
    dz : float array;
    sx : float array;
    sy : float array;
    sz : float array;
    prod : float array; (* [point·10 + field] *)
  }

  (* [nx], [ny], [nz] are the grid the table was created with. *)
  let of_table (table : B3.t) ~nx ~ny ~nz =
    let n_orb = B3.n_orb table in
    let orb_stride = A.padded_len n_orb in
    let cy = ny + 3 and cz = nz + 3 in
    let coeffs = A.create ((nx + 3) * cy * cz * orb_stride) in
    for i = 0 to nx + 2 do
      for j = 0 to ny + 2 do
        for k = 0 to nz + 2 do
          for orb = 0 to n_orb - 1 do
            A.set coeffs
              (((((i * cy) + j) * cz) + k) * orb_stride + orb)
              (B3.get_base table ~orb ~i:(i mod nx) ~j:(j mod ny)
                 ~k:(k mod nz))
          done
        done
      done
    done;
    let w () = Array.make 4 0. in
    { coeffs; nx; ny; nz; n_orb; orb_stride; cy; cz; org = Array.make 3 0;
      wx = w (); wy = w (); wz = w (); dx = w (); dy = w (); dz = w ();
      sx = w (); sy = w (); sz = w (); prod = Array.make 640 0. }

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

  let zero_vgh (buf : B3.vgh_buf) n =
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
  let scale_vgh t (buf : B3.vgh_buf) =
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

  (* ---------- scalar kernels ---------- *)

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

  let eval_vgh t ~u0 ~u1 ~u2 (buf : B3.vgh_buf) =
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

  (* ---------- crowd kernels ---------- *)

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

  (* Allocation-free weight fills, same formulas as Bspline_basis; the
     parameter is read from [w.(0)]. *)
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
     v,gx,gy,gz,hxx,hxy,hxz,hyy,hyz,hzz. *)
  let stage_products t =
    let prod = t.prod in
    let q = ref 0 in
    for a = 0 to 3 do
      let wxa = t.wx.(a) and dxa = t.dx.(a) and sxa = t.sx.(a) in
      for bb = 0 to 3 do
        let wyb = t.wy.(bb) and dyb = t.dy.(bb) and syb = t.sy.(bb) in
        for c = 0 to 3 do
          let wzc = t.wz.(c) and dzc = t.dz.(c) and szc = t.sz.(c) in
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

  (* Kind-specialized accumulation: matching the kind GADT once
     recovers the static kind, so these twins compile to direct unboxed
     loads inside the accumulation loop. *)
  let accum_vgh_f64
      (coeffs : (float, Bigarray.float64_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) (prod : float array) (org : int array)
      (buf : B3.vgh_buf) ~width ~cy ~cz ~orb_stride =
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
      (buf : B3.vgh_buf) ~width ~cy ~cz ~orb_stride =
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
      A.t -> float array -> int array -> B3.vgh_buf -> width:int -> cy:int ->
      cz:int -> orb_stride:int -> unit =
    match R.kind with
    | Bigarray.Float64 -> accum_vgh_f64
    | Bigarray.Float32 -> accum_vgh_f32

  (* Value twins; the value products are three mults per stencil point,
     computed inline. *)
  let accum_v_f64
      (coeffs : (float, Bigarray.float64_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) t (out : float array) =
    let ix = t.org.(0) and iy = t.org.(1) and iz = t.org.(2) in
    for a = 0 to 3 do
      for bb = 0 to 3 do
        let wab = t.wx.(a) *. t.wy.(bb) in
        let row = (((ix + a) * t.cy) + iy + bb) * t.cz + iz in
        for c = 0 to 3 do
          let p = wab *. t.wz.(c) in
          let base = (row + c) * t.orb_stride in
          for m = 0 to t.n_orb - 1 do
            out.(m) <-
              out.(m) +. (p *. Bigarray.Array1.unsafe_get coeffs (base + m))
          done
        done
      done
    done

  let accum_v_f32
      (coeffs : (float, Bigarray.float32_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) t (out : float array) =
    let ix = t.org.(0) and iy = t.org.(1) and iz = t.org.(2) in
    for a = 0 to 3 do
      for bb = 0 to 3 do
        let wab = t.wx.(a) *. t.wy.(bb) in
        let row = (((ix + a) * t.cy) + iy + bb) * t.cz + iz in
        for c = 0 to 3 do
          let p = wab *. t.wz.(c) in
          let base = (row + c) * t.orb_stride in
          for m = 0 to t.n_orb - 1 do
            out.(m) <-
              out.(m) +. (p *. Bigarray.Array1.unsafe_get coeffs (base + m))
          done
        done
      done
    done

  let accum_v : A.t -> t -> float array -> unit =
    match R.kind with
    | Bigarray.Float64 -> accum_v_f64
    | Bigarray.Float32 -> accum_v_f32

  let eval_vgh_batch t (outs : B3.vgh_buf array) ~n ~(u0 : float array)
      ~(u1 : float array) ~(u2 : float array) =
    for s = 0 to n - 1 do
      locate_into t.org 0 t.nx u0 s t.wx;
      locate_into t.org 1 t.ny u1 s t.wy;
      locate_into t.org 2 t.nz u2 s t.wz;
      t.dx.(0) <- t.wx.(0);
      t.sx.(0) <- t.wx.(0);
      t.dy.(0) <- t.wy.(0);
      t.sy.(0) <- t.wy.(0);
      t.dz.(0) <- t.wz.(0);
      t.sz.(0) <- t.wz.(0);
      put_value t.wx;
      put_value t.wy;
      put_value t.wz;
      put_first t.dx;
      put_first t.dy;
      put_first t.dz;
      put_second t.sx;
      put_second t.sy;
      put_second t.sz;
      stage_products t;
      let buf = outs.(s) in
      zero_vgh buf t.n_orb;
      accum_vgh t.coeffs t.prod t.org buf ~width:t.n_orb ~cy:t.cy ~cz:t.cz
        ~orb_stride:t.orb_stride;
      scale_vgh t buf
    done

  let eval_v_batch t (outs : float array array) ~n ~(u0 : float array)
      ~(u1 : float array) ~(u2 : float array) =
    for s = 0 to n - 1 do
      locate_into t.org 0 t.nx u0 s t.wx;
      locate_into t.org 1 t.ny u1 s t.wy;
      locate_into t.org 2 t.nz u2 s t.wz;
      put_value t.wx;
      put_value t.wy;
      put_value t.wz;
      let out = outs.(s) in
      Array.fill out 0 t.n_orb 0.;
      accum_v t.coeffs t out
    done
end
