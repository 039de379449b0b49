open Oqmc_containers

(* Row kernels shared by the distance tables: distances and displacement
   vectors from one point to every particle of a set, in both layouts.

   These loops ARE the paper's DistTable hot spot.  The SoA kernel streams
   three unit-stride component rows; the AoS kernel walks the interleaved
   x y z groups with stride 3 — the access pattern whose poor
   vectorizability motivated the transformation.  The orthorhombic
   minimum-image branch is hoisted out of the loops.

   There is one SoA kernel, [soa_rows]: it serves the crowd batches and,
   through a one-slot [single] each table owns, every scalar
   [evaluate]/[prepare]/[move] as well.  It runs on [float array] mirrors
   of the sources and stages its output in [float array]s, so it neither
   boxes nor allocates.  The per-element loop it replaced reads and
   writes through the precision functor, boxing a float on every access
   without flambda; it survives as the bit-for-bit test oracle
   ([test/dt_oracle.ml]).  [aos_row] is the Ref layout's kernel and keeps
   that per-element form.

   Two precisions parameterize the kernels: [S] is the source precision
   (the particle-set component rows being read) and [O] the output
   precision (the distance/displacement rows being written) — the
   [precision_dt] knob narrows O to f32 while positions stay at the
   walker precision.  All arithmetic happens in double on the unboxed
   mirrors; narrowing occurs only at the bulk row commit, exactly like a
   per-element f32 store. *)

module Make (S : Precision.REAL) (O : Precision.REAL) = struct
  module As = Aligned.Make (S)
  module A = Aligned.Make (O)

  (* Round-half-away-from-zero via integer truncation: cheaper than the
     libm round call in these inner loops, and ties never matter here. *)
  let nearest x =
    float_of_int (int_of_float (if x >= 0. then x +. 0.5 else x -. 0.5))

  (* ------------------------ staged SoA row kernel ------------------------ *)

  (* One retargetable slot of the kernel: sources (a SoA component
     triple), an output base array per component and a common element
     offset, so the same slot can aim at matrix row k on one call and at
     the temporary row on the next without allocating row proxies.
     Positions travel in parallel float arrays (unboxed), not in the
     record — a mutable float field in a mixed record would box on every
     write.

     The [float array] scratch fields mirror the source components and
     stage the output rows: without flambda every [A.unsafe_get]/[set]
     through the precision functor boxes a float, so the inner loops run
     entirely on the monomorphic mirrors and the bigarrays are crossed
     with one bulk [read_into]/[write_from] per row — zero allocation
     per call. *)
  type row_slot = {
    mutable xs : As.t;
    mutable ys : As.t;
    mutable zs : As.t;
    mutable n : int;
    mutable od : A.t; (* distance output *)
    mutable odx : A.t;
    mutable ody : A.t;
    mutable odz : A.t;
    mutable o : int; (* common output offset (row base) *)
    mutable self : int; (* entry written as exact zeros, or -1 *)
    mutable sx : float array; (* source mirrors *)
    mutable sy : float array;
    mutable sz : float array;
    mutable rd : float array; (* output staging *)
    mutable rdx : float array;
    mutable rdy : float array;
    mutable rdz : float array;
  }

  let make_row_slot () =
    let es = As.create 0 in
    let e = A.create 0 in
    {
      xs = es;
      ys = es;
      zs = es;
      n = 0;
      od = e;
      odx = e;
      ody = e;
      odz = e;
      o = 0;
      self = -1;
      sx = [||];
      sy = [||];
      sz = [||];
      rd = [||];
      rdx = [||];
      rdy = [||];
      rdz = [||];
    }

  (* Size the scratch to the slot's [n]; called from [bind] (and
     defensively from [mirror_slot]) so the hot path never allocates. *)
  let ensure_scratch sl =
    if Array.length sl.sx < sl.n then begin
      sl.sx <- Array.make sl.n 0.;
      sl.sy <- Array.make sl.n 0.;
      sl.sz <- Array.make sl.n 0.;
      sl.rd <- Array.make sl.n 0.;
      sl.rdx <- Array.make sl.n 0.;
      sl.rdy <- Array.make sl.n 0.;
      sl.rdz <- Array.make sl.n 0.
    end

  (* Point the slot at [n] sources.  The component views are bigarray
     proxies, so tables bind once at creation, never per call. *)
  let bind sl ~xs ~ys ~zs ~n =
    sl.xs <- xs;
    sl.ys <- ys;
    sl.zs <- zs;
    sl.n <- n;
    ensure_scratch sl

  (* Refresh the source mirrors from the SoA components.  AA tables call
     this before every row they compute (electron positions change on
     every accepted move); AB tables mirror once at creation (ions never
     move). *)
  let mirror_slot sl =
    ensure_scratch sl;
    As.read_into sl.xs ~pos:0 sl.sx ~n:sl.n;
    As.read_into sl.ys ~pos:0 sl.sy ~n:sl.n;
    As.read_into sl.zs ~pos:0 sl.sz ~n:sl.n

  (* Aim the slot's output at offset [o] of four arrays; entry [self]
     (when >= 0) is committed as exact zeros. *)
  let aim sl ~od ~odx ~ody ~odz ~o ~self =
    sl.od <- od;
    sl.odx <- odx;
    sl.ody <- ody;
    sl.odz <- odz;
    sl.o <- o;
    sl.self <- self

  (* dr(p_s, i) = r_i − p_s, minimum image, for the [n] sources of each
     of [m] slots, minimum-image dispatch hoisted out of the slot loop.
     Sources are read from the slot mirrors (refreshed by the caller via
     [mirror_slot]) and each row is staged in [float array] scratch, then
     committed with one bulk write per component, entry [self] as exact
     zeros.  The Ortho and Open paths allocate nothing (the General
     fallback builds Vec3s per element). *)
  let soa_rows ~lattice ~(slots : row_slot array) ~(px : float array)
      ~(py : float array) ~(pz : float array) ~m =
    (match Lattice.kind lattice with
    | Lattice.Ortho (lx, ly, lz) ->
        let ix = 1. /. lx and iy = 1. /. ly and iz = 1. /. lz in
        for s = 0 to m - 1 do
          let sl = slots.(s) in
          let xs = sl.sx and ys = sl.sy and zs = sl.sz in
          let rd = sl.rd and rdx = sl.rdx and rdy = sl.rdy in
          let rdz = sl.rdz in
          let psx = px.(s) and psy = py.(s) and psz = pz.(s) in
          for i = 0 to sl.n - 1 do
            let ddx = Array.unsafe_get xs i -. psx in
            let ddy = Array.unsafe_get ys i -. psy in
            let ddz = Array.unsafe_get zs i -. psz in
            (* [nearest], hand-inlined: the call would box its float
               argument and result on every element without flambda. *)
            let qx = ddx *. ix and qy = ddy *. iy and qz = ddz *. iz in
            let nx =
              float_of_int
                (int_of_float (if qx >= 0. then qx +. 0.5 else qx -. 0.5))
            in
            let ny =
              float_of_int
                (int_of_float (if qy >= 0. then qy +. 0.5 else qy -. 0.5))
            in
            let nz =
              float_of_int
                (int_of_float (if qz >= 0. then qz +. 0.5 else qz -. 0.5))
            in
            let ddx = ddx -. (lx *. nx) in
            let ddy = ddy -. (ly *. ny) in
            let ddz = ddz -. (lz *. nz) in
            Array.unsafe_set rdx i ddx;
            Array.unsafe_set rdy i ddy;
            Array.unsafe_set rdz i ddz;
            Array.unsafe_set rd i
              (sqrt ((ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz)))
          done
        done
    | Lattice.Open ->
        for s = 0 to m - 1 do
          let sl = slots.(s) in
          let xs = sl.sx and ys = sl.sy and zs = sl.sz in
          let rd = sl.rd and rdx = sl.rdx and rdy = sl.rdy in
          let rdz = sl.rdz in
          let psx = px.(s) and psy = py.(s) and psz = pz.(s) in
          for i = 0 to sl.n - 1 do
            let ddx = Array.unsafe_get xs i -. psx in
            let ddy = Array.unsafe_get ys i -. psy in
            let ddz = Array.unsafe_get zs i -. psz in
            Array.unsafe_set rdx i ddx;
            Array.unsafe_set rdy i ddy;
            Array.unsafe_set rdz i ddz;
            Array.unsafe_set rd i
              (sqrt ((ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz)))
          done
        done
    | Lattice.General ->
        for s = 0 to m - 1 do
          let sl = slots.(s) in
          let rd = sl.rd and rdx = sl.rdx and rdy = sl.rdy in
          let rdz = sl.rdz in
          let p = Vec3.make px.(s) py.(s) pz.(s) in
          for i = 0 to sl.n - 1 do
            let ri =
              Vec3.make
                (Array.unsafe_get sl.sx i)
                (Array.unsafe_get sl.sy i)
                (Array.unsafe_get sl.sz i)
            in
            let dr = Lattice.min_image_disp lattice (Vec3.sub ri p) in
            Array.unsafe_set rdx i dr.Vec3.x;
            Array.unsafe_set rdy i dr.Vec3.y;
            Array.unsafe_set rdz i dr.Vec3.z;
            Array.unsafe_set rd i (Vec3.norm dr)
          done
        done);
    for s = 0 to m - 1 do
      let sl = slots.(s) in
      let k = sl.self in
      if k >= 0 then begin
        sl.rd.(k) <- 0.;
        sl.rdx.(k) <- 0.;
        sl.rdy.(k) <- 0.;
        sl.rdz.(k) <- 0.
      end;
      A.write_from sl.rd sl.od ~pos:sl.o ~n:sl.n;
      A.write_from sl.rdx sl.odx ~pos:sl.o ~n:sl.n;
      A.write_from sl.rdy sl.ody ~pos:sl.o ~n:sl.n;
      A.write_from sl.rdz sl.odz ~pos:sl.o ~n:sl.n
    done

  (* The scalar tables' entry point: [soa_rows] over one slot with its
     own position cells.  Callers store the point in [qx.(0)], [qy.(0)],
     [qz.(0)] (a float argument would be boxed), [aim] the slot and call
     [single_row]. *)
  type single = {
    slot : row_slot;
    one : row_slot array;
    qx : float array;
    qy : float array;
    qz : float array;
  }

  let make_single () =
    let sl = make_row_slot () in
    { slot = sl; one = [| sl |]; qx = [| 0. |]; qy = [| 0. |]; qz = [| 0. |] }

  let single_row ~lattice g =
    soa_rows ~lattice ~slots:g.one ~px:g.qx ~py:g.qy ~pz:g.qz ~m:1

  (* Same relation over an interleaved AoS source; displacements are
     written interleaved as well (the Ref storage format). *)
  let aos_row ~lattice ~(src : As.t) ~n ~px ~py ~pz ~(d : A.t) ~(dr : A.t) =
    match Lattice.kind lattice with
    | Lattice.Ortho (lx, ly, lz) ->
        let ix = 1. /. lx and iy = 1. /. ly and iz = 1. /. lz in
        for i = 0 to n - 1 do
          let base = 3 * i in
          let ddx = As.unsafe_get src base -. px in
          let ddy = As.unsafe_get src (base + 1) -. py in
          let ddz = As.unsafe_get src (base + 2) -. pz in
          let ddx = ddx -. (lx *. nearest (ddx *. ix)) in
          let ddy = ddy -. (ly *. nearest (ddy *. iy)) in
          let ddz = ddz -. (lz *. nearest (ddz *. iz)) in
          A.unsafe_set dr base ddx;
          A.unsafe_set dr (base + 1) ddy;
          A.unsafe_set dr (base + 2) ddz;
          A.unsafe_set d i (sqrt ((ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz)))
        done
    | Lattice.Open ->
        for i = 0 to n - 1 do
          let base = 3 * i in
          let ddx = As.unsafe_get src base -. px in
          let ddy = As.unsafe_get src (base + 1) -. py in
          let ddz = As.unsafe_get src (base + 2) -. pz in
          A.unsafe_set dr base ddx;
          A.unsafe_set dr (base + 1) ddy;
          A.unsafe_set dr (base + 2) ddz;
          A.unsafe_set d i (sqrt ((ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz)))
        done
    | Lattice.General ->
        let p = Vec3.make px py pz in
        for i = 0 to n - 1 do
          let base = 3 * i in
          let ri =
            Vec3.make (As.unsafe_get src base)
              (As.unsafe_get src (base + 1))
              (As.unsafe_get src (base + 2))
          in
          let dd = Lattice.min_image_disp lattice (Vec3.sub ri p) in
          A.unsafe_set dr base dd.Vec3.x;
          A.unsafe_set dr (base + 1) dd.Vec3.y;
          A.unsafe_set dr (base + 2) dd.Vec3.z;
          A.unsafe_set d i (Vec3.norm dd)
        done
end
