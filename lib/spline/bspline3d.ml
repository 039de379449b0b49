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

   The kernels themselves are C (bspline3d_stubs.c, built with
   -O3 -march=native -ffp-contract=off so gcc vectorizes across orbitals
   without fusing multiply-adds).  The scalar and batched entry points
   call the same C function once per position, so they agree bit for
   bit at either precision, and each orbital's 64-term sum keeps the
   (a,b,c) order and product expressions of the OCaml loops that
   test/bspline_oracle.ml keeps as the reference. *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)

  (* bspline3d_stubs.c reads these fields by position: keep the order. *)
  type t = {
    coeffs : A.t;
    nx : int;
    ny : int;
    nz : int;
    n_orb : int;
    orb_stride : int; (* n_orb padded to the SIMD width *)
    cy : int; (* ny + 3 *)
    cz : int; (* nz + 3 *)
  }

  (* Read by position too: bspline3d_stubs.c writes field f of its
     v,gx,gy,gz,hxx,hxy,hxz,hyy,hyz,hzz order. *)
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

  let create ~nx ~ny ~nz ~n_orb () =
    if nx < 4 || ny < 4 || nz < 4 then
      invalid_arg "Bspline3d.create: grid must be at least 4 per dimension";
    if n_orb < 1 then invalid_arg "Bspline3d.create: n_orb < 1";
    let orb_stride = A.padded_len n_orb in
    let points = (nx + 3) * (ny + 3) * (nz + 3) in
    { coeffs = A.create (points * orb_stride); nx; ny; nz; n_orb; orb_stride;
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

  (* ---------- kernels ----------

     Every entry point runs the C accumulation of bspline3d_stubs.c, one
     position per call: it locates the position, builds the weights and
     writes all orbitals straight into the caller's buffer, so the only
     mutable state is the caller's and concurrent calls on a shared table
     are safe.  C does no bounds checks: the lengths it writes are
     checked here first. *)

  external c_eval_v :
    t -> (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) ->
    float array -> unit = "oqmc_bspline_v_byte" "oqmc_bspline_v"
  [@@noalloc]

  external c_eval_vgh :
    t -> (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) ->
    vgh_buf -> unit = "oqmc_bspline_vgh_byte" "oqmc_bspline_vgh"
  [@@noalloc]

  let check_v t (out : float array) =
    if Array.length out < t.n_orb then
      invalid_arg "Bspline3d.eval_v: output shorter than n_orb"

  let check_vgh t (b : vgh_buf) =
    let n = t.n_orb in
    if
      Array.length b.v < n || Array.length b.gx < n || Array.length b.gy < n
      || Array.length b.gz < n || Array.length b.hxx < n
      || Array.length b.hxy < n || Array.length b.hxz < n
      || Array.length b.hyy < n || Array.length b.hyz < n
      || Array.length b.hzz < n
    then invalid_arg "Bspline3d.eval_vgh: buffer shorter than n_orb"

  (* Bspline-v: values of all orbitals at s = (u0,u1,u2). *)
  let eval_v t ~u0 ~u1 ~u2 out =
    check_v t out;
    c_eval_v t u0 u1 u2 out

  (* Bspline-vgh: values, fractional-coordinate gradients and hessians. *)
  let eval_vgh t ~u0 ~u1 ~u2 buf =
    check_vgh t buf;
    c_eval_vgh t u0 u1 u2 buf

  (* Crowd batches: one result buffer per slot, allocated once per
     domain and reused; each slot is one kernel call, so the batched
     results are the scalar ones bit for bit. *)
  type vgh_batch = vgh_buf array
  type v_batch = float array array

  let make_vgh_batch t ~cap =
    if cap < 1 then invalid_arg "Bspline3d.make_vgh_batch: cap < 1";
    Array.init cap (fun _ -> make_vgh_buf t)

  let make_v_batch t ~cap =
    if cap < 1 then invalid_arg "Bspline3d.make_v_batch: cap < 1";
    Array.init cap (fun _ -> Array.make t.n_orb 0.)

  let outs (b : vgh_batch) = b
  let vouts (b : v_batch) = b

  let eval_vgh_batch t (b : vgh_batch) ~n ~(u0 : float array)
      ~(u1 : float array) ~(u2 : float array) =
    if n < 0 || n > Array.length b then
      invalid_arg "Bspline3d.eval_vgh_batch: bad n";
    for s = 0 to n - 1 do
      let buf = b.(s) in
      check_vgh t buf;
      c_eval_vgh t u0.(s) u1.(s) u2.(s) buf
    done

  let eval_v_batch t (b : v_batch) ~n ~(u0 : float array) ~(u1 : float array)
      ~(u2 : float array) =
    if n < 0 || n > Array.length b then
      invalid_arg "Bspline3d.eval_v_batch: bad n";
    for s = 0 to n - 1 do
      let out = b.(s) in
      check_v t out;
      c_eval_v t u0.(s) u1.(s) u2.(s) out
    done

  (* Analytic size of a table in bytes for workloads too big to allocate
     (the B-spline column of Table 1). *)
  let table_bytes ~nx ~ny ~nz ~n_orb ~elt_bytes =
    (nx + 3) * (ny + 3) * (nz + 3) * n_orb * elt_bytes
end
