open Oqmc_containers
open Oqmc_particle

(* The per-element OCaml distance rows the C kernels of [Dt_kernels]
   replaced, kept as the references the tests compare against bit for
   bit: the SoA row ([soa_row]), the AoS row ([aos_row]), the Store
   tables' old rebuilds ([store_aa], [store_ab]) and the AA Store
   table's old accept scatter ([store_update]).  They read and write
   through the precision functor one element at a time, which boxes a
   float per access without flambda; the arithmetic, minimum-image
   branches included, is the kernels'.  [store_aa] is the exception: it
   builds each pair through [Lattice.min_image_disp] (division and
   [Float.round]), which the AoS kernel's multiply-by-inverse and
   truncation match everywhere except within an ulp of a half-box tie.

   [S] is the source (positions) precision, [O] the output (table)
   precision. *)

module Make (S : Precision.REAL) (O : Precision.REAL) = struct
  module As = Aligned.Make (S)
  module A = Aligned.Make (O)
  module Ps = Particle_set.Make (S)

  let nearest x =
    float_of_int (int_of_float (if x >= 0. then x +. 0.5 else x -. 0.5))

  (* dr(p, i) = r_i − p, minimum image, for all i in [0, n).  The output
     rows receive distances and the three displacement components. *)
  let soa_row ~lattice ~(xs : As.t) ~(ys : As.t) ~(zs : As.t) ~n ~px ~py ~pz
      ~(d : A.t) ~(dx : A.t) ~(dy : A.t) ~(dz : A.t) =
    match Lattice.kind lattice with
    | Lattice.Ortho (lx, ly, lz) ->
        let ix = 1. /. lx and iy = 1. /. ly and iz = 1. /. lz in
        for i = 0 to n - 1 do
          let ddx = As.unsafe_get xs i -. px in
          let ddy = As.unsafe_get ys i -. py in
          let ddz = As.unsafe_get zs i -. pz in
          let ddx = ddx -. (lx *. nearest (ddx *. ix)) in
          let ddy = ddy -. (ly *. nearest (ddy *. iy)) in
          let ddz = ddz -. (lz *. nearest (ddz *. iz)) in
          A.unsafe_set dx i ddx;
          A.unsafe_set dy i ddy;
          A.unsafe_set dz i ddz;
          A.unsafe_set d i (sqrt ((ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz)))
        done
    | Lattice.Open ->
        for i = 0 to n - 1 do
          let ddx = As.unsafe_get xs i -. px in
          let ddy = As.unsafe_get ys i -. py in
          let ddz = As.unsafe_get zs i -. pz in
          A.unsafe_set dx i ddx;
          A.unsafe_set dy i ddy;
          A.unsafe_set dz i ddz;
          A.unsafe_set d i (sqrt ((ddx *. ddx) +. (ddy *. ddy) +. (ddz *. ddz)))
        done
    | Lattice.General ->
        let p = Vec3.make px py pz in
        for i = 0 to n - 1 do
          let ri =
            Vec3.make (As.unsafe_get xs i) (As.unsafe_get ys i)
              (As.unsafe_get zs i)
          in
          let dr = Lattice.min_image_disp lattice (Vec3.sub ri p) in
          A.unsafe_set dx i dr.Vec3.x;
          A.unsafe_set dy i dr.Vec3.y;
          A.unsafe_set dz i dr.Vec3.z;
          A.unsafe_set d i (Vec3.norm dr)
        done

  (* The row the distance tables store for point [p] over the set [ps]:
     [soa_row] with the entry [self] (when given) set to exact zeros, as
     the AA tables do for the moving electron.  Returns fresh
     (d, dx, dy, dz) of length [n]. *)
  let row ?self ps (p : Vec3.t) =
    let n = Ps.n ps and soa = Ps.soa ps in
    let d = A.create n and dx = A.create n in
    let dy = A.create n and dz = A.create n in
    soa_row ~lattice:(Ps.lattice ps) ~xs:(Ps.Vs.xs soa) ~ys:(Ps.Vs.ys soa)
      ~zs:(Ps.Vs.zs soa) ~n ~px:p.Vec3.x ~py:p.Vec3.y ~pz:p.Vec3.z ~d ~dx ~dy
      ~dz;
    Option.iter
      (fun k ->
        A.set d k 0.;
        A.set dx k 0.;
        A.set dy k 0.;
        A.set dz k 0.)
      self;
    (d, dx, dy, dz)
end

(* The Ref (AoS) row: sources interleaved x y z, displacements written
   interleaved. *)
module Aos (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module Ps = Particle_set.Make (R)

  let nearest x =
    float_of_int (int_of_float (if x >= 0. then x +. 0.5 else x -. 0.5))

  let aos_row ~lattice ~(src : A.t) ~n ~px ~py ~pz ~(d : A.t) ~(dr : A.t) =
    match Lattice.kind lattice with
    | Lattice.Ortho (lx, ly, lz) ->
        let ix = 1. /. lx and iy = 1. /. ly and iz = 1. /. lz in
        for i = 0 to n - 1 do
          let base = 3 * i in
          let ddx = A.unsafe_get src base -. px in
          let ddy = A.unsafe_get src (base + 1) -. py in
          let ddz = A.unsafe_get src (base + 2) -. pz in
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
          let ddx = A.unsafe_get src base -. px in
          let ddy = A.unsafe_get src (base + 1) -. py in
          let ddz = A.unsafe_get src (base + 2) -. pz in
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
            Vec3.make (A.unsafe_get src base)
              (A.unsafe_get src (base + 1))
              (A.unsafe_get src (base + 2))
          in
          let dd = Lattice.min_image_disp lattice (Vec3.sub ri p) in
          A.unsafe_set dr base dd.Vec3.x;
          A.unsafe_set dr (base + 1) dd.Vec3.y;
          A.unsafe_set dr (base + 2) dd.Vec3.z;
          A.unsafe_set d i (Vec3.norm dd)
        done

  (* [aos_row] of point [p] over every particle of [ps]: fresh (d, dr)
     of lengths n and 3n. *)
  let row ps (p : Vec3.t) =
    let n = Ps.n ps in
    let d = A.create n and dr = A.create (3 * n) in
    aos_row ~lattice:(Ps.lattice ps) ~src:(Ps.Aos.data (Ps.aos ps)) ~n
      ~px:p.Vec3.x ~py:p.Vec3.y ~pz:p.Vec3.z ~d ~dr;
    (d, dr)

  (* The old [Dt_aa_ref.evaluate]: the packed upper triangle, pair by
     pair, entry (i, j), i < j, at j(j−1)/2 + i holding d(i,j) and
     dr(i,j) = r_j − r_i. *)
  let store_aa ps =
    let n = Ps.n ps and lattice = Ps.lattice ps in
    let len = n * (n - 1) / 2 in
    let d = A.create len and dr = A.create (3 * len) in
    let src = Ps.Aos.data (Ps.aos ps) in
    for j = 1 to n - 1 do
      let pj = Ps.get ps j in
      for i = 0 to j - 1 do
        let base = 3 * i in
        let ddx = pj.Vec3.x -. A.unsafe_get src base in
        let ddy = pj.Vec3.y -. A.unsafe_get src (base + 1) in
        let ddz = pj.Vec3.z -. A.unsafe_get src (base + 2) in
        let dd = Lattice.min_image_disp lattice (Vec3.make ddx ddy ddz) in
        let p = (j * (j - 1) / 2) + i in
        A.unsafe_set d p (Vec3.norm dd);
        A.unsafe_set dr (3 * p) dd.Vec3.x;
        A.unsafe_set dr ((3 * p) + 1) dd.Vec3.y;
        A.unsafe_set dr ((3 * p) + 2) dd.Vec3.z
      done
    done;
    (d, dr)

  (* The old [Dt_aa_ref.update]: electron k's temporary row (td, tdr)
     scattered into the packed triangle (d, dr), negated for the pairs
     (i, k) with i < k. *)
  let store_update ~(d : A.t) ~(dr : A.t) ~(td : A.t) ~(tdr : A.t) ~n k =
    for i = 0 to k - 1 do
      let p = (k * (k - 1) / 2) + i in
      A.unsafe_set d p (A.unsafe_get td i);
      A.unsafe_set dr (3 * p) (-.A.unsafe_get tdr (3 * i));
      A.unsafe_set dr ((3 * p) + 1) (-.A.unsafe_get tdr ((3 * i) + 1));
      A.unsafe_set dr ((3 * p) + 2) (-.A.unsafe_get tdr ((3 * i) + 2))
    done;
    for j = k + 1 to n - 1 do
      let p = (j * (j - 1) / 2) + k in
      A.unsafe_set d p (A.unsafe_get td j);
      A.unsafe_set dr (3 * p) (A.unsafe_get tdr (3 * j));
      A.unsafe_set dr ((3 * p) + 1) (A.unsafe_get tdr ((3 * j) + 1));
      A.unsafe_set dr ((3 * p) + 2) (A.unsafe_get tdr ((3 * j) + 2))
    done

  (* The old [Dt_ab_ref.evaluate]: one [aos_row] per electron over the
     ions, into [A.sub] slices of the dense n × n_src block. *)
  let store_ab ~sources ps =
    let n = Ps.n ps and n_src = Ps.n sources in
    let d = A.create (n * n_src) and dr = A.create (3 * n * n_src) in
    let src = Ps.Aos.data (Ps.aos sources) in
    for k = 0 to n - 1 do
      let p = Ps.get ps k in
      aos_row ~lattice:(Ps.lattice ps) ~src ~n:n_src ~px:p.Vec3.x
        ~py:p.Vec3.y ~pz:p.Vec3.z
        ~d:(A.sub d ~pos:(k * n_src) ~len:n_src)
        ~dr:(A.sub dr ~pos:(3 * k * n_src) ~len:(3 * n_src))
    done;
    (d, dr)
end
