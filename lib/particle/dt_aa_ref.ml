open Oqmc_containers

(* Electron-electron (AA) distance table, reference (Ref) design.

   Packed upper-triangle storage (Fig. 6a): N(N−1)/2 scalars for the
   distances and an interleaved AoS block for the displacements.  A move
   computes a temporary row against the AoS positions; acceptance copies
   the N−1 entries back into the triangle — scattered, sign-flipping
   writes whose unaligned access pattern is exactly what the paper
   replaces.  Entry (i, j) with i < j stores d(i,j) and
   dr(i,j) = r_j − r_i at packed index j(j−1)/2 + i.

   Every row, the move's temporary one and each column j of the
   [evaluate] rebuild (entries 0 … j−1, contiguous in the packing), goes
   through the AoS C row kernel ([Dt_kernels.aos_row]).  The rebuild
   computes column j as the row of r_j over particles 0 … j−1 and stores
   it negated, which is bit for bit what [move] of electron j at its own
   position followed by [update] would store: the minimum-image
   arithmetic is exactly antisymmetric.  The accept's scatter into the
   triangle is the AoS C scatter ([Dt_kernels.aos_scatter]).  No call
   allocates. *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module Ps = Particle_set.Make (R)
  module K = Dt_kernels.Make (R) (R)

  type t = {
    n : int;
    d : A.t; (* packed triangle *)
    dr : A.t; (* packed triangle, interleaved xyz *)
    temp_d : A.t; (* dr(k, i) = r_i − r_k' for the active move *)
    temp_dr : A.t;
    g : K.aos_slot;
  }

  let tri_len n = n * (n - 1) / 2

  let idx i j = (j * (j - 1) / 2) + i (* requires i < j *)

  let create (ps : Ps.t) =
    let n = Ps.n ps in
    {
      n;
      d = A.create (tri_len n);
      dr = A.create (3 * tri_len n);
      temp_d = A.create n;
      temp_dr = A.create (3 * n);
      g = K.make_aos_slot (Ps.lattice ps);
    }

  let n t = t.n

  let evaluate t ps =
    let src = Ps.Aos.data (Ps.aos ps) and g = t.g in
    for j = 1 to t.n - 1 do
      K.bind_aos g ~src ~n:j;
      K.aim_aos g ~d:t.d ~dr:t.dr ~o:(idx 0 j) ~neg:true;
      K.query_aos g src j;
      K.aos_row g
    done

  let move t ps _k (newpos : Vec3.t) =
    let g = t.g in
    K.bind_aos g ~src:(Ps.Aos.data (Ps.aos ps)) ~n:t.n;
    K.aim_aos g ~d:t.temp_d ~dr:t.temp_dr ~o:0 ~neg:false;
    g.K.q.(0) <- newpos.Vec3.x;
    g.K.q.(1) <- newpos.Vec3.y;
    g.K.q.(2) <- newpos.Vec3.z;
    K.aos_row g

  (* Accept: scatter the temporary row back into the packed triangle
     (N − 1 strided copies with a sign flip below the diagonal), in C. *)
  let update t k =
    K.aos_scatter ~d:t.d ~dr:t.dr ~temp_d:t.temp_d ~temp_dr:t.temp_dr ~k

  let dist t i j =
    if i = j then 0.
    else if i < j then A.get t.d (idx i j)
    else A.get t.d (idx j i)

  (* dr(i→j) = r_j − r_i. *)
  let displ t i j =
    if i = j then Vec3.zero
    else if i < j then begin
      let p = 3 * idx i j in
      Vec3.make (A.get t.dr p) (A.get t.dr (p + 1)) (A.get t.dr (p + 2))
    end
    else begin
      let p = 3 * idx j i in
      Vec3.make (-.A.get t.dr p) (-.A.get t.dr (p + 1)) (-.A.get t.dr (p + 2))
    end

  let temp_dist t = t.temp_d

  let temp_displ t i =
    Vec3.make (A.get t.temp_dr (3 * i))
      (A.get t.temp_dr ((3 * i) + 1))
      (A.get t.temp_dr ((3 * i) + 2))

  let bytes t =
    A.bytes t.d + A.bytes t.dr + A.bytes t.temp_d + A.bytes t.temp_dr
end
