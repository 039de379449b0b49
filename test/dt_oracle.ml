open Oqmc_containers
open Oqmc_particle

(* The per-element SoA distance row the staged [Dt_kernels.soa_rows]
   replaced, kept as the reference the tests compare against bit for
   bit.  It reads and writes through the precision functor one element
   at a time, which boxes a float per access without flambda; the
   arithmetic, minimum-image branches included, is the kernel's.

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
