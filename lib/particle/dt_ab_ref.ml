open Oqmc_containers

(* Electron-ion (AB) distance table, reference (Ref) design.

   A dense N × N_ion block with the displacements interleaved AoS-style,
   filled by walking the ions' interleaved positions — the
   strided-access baseline the SoA table replaces.  Rows, the move's and
   the [evaluate] rebuild's, go through the AoS C row kernel
   ([Dt_kernels.aos_row]) bound to the ions once; no call allocates. *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)
  module Ps = Particle_set.Make (R)
  module K = Dt_kernels.Make (R) (R)

  type t = {
    n : int;
    n_src : int;
    d : A.t; (* n × n_src row-major *)
    dr : A.t; (* interleaved xyz per entry *)
    temp_d : A.t;
    temp_dr : A.t;
    g : K.aos_slot; (* bound to the ions *)
  }

  let create ~(sources : Ps.t) (targets : Ps.t) =
    let n = Ps.n targets and n_src = Ps.n sources in
    let g = K.make_aos_slot (Ps.lattice targets) in
    K.bind_aos g ~src:(Ps.Aos.data (Ps.aos sources)) ~n:n_src;
    {
      n;
      n_src;
      d = A.create (n * n_src);
      dr = A.create (3 * n * n_src);
      temp_d = A.create n_src;
      temp_dr = A.create (3 * n_src);
      g;
    }

  let n t = t.n
  let n_sources t = t.n_src

  let evaluate t ps =
    let r = Ps.Aos.data (Ps.aos ps) and g = t.g in
    for k = 0 to t.n - 1 do
      K.aim_aos g ~d:t.d ~dr:t.dr ~o:(k * t.n_src) ~neg:false;
      K.query_aos g r k;
      K.aos_row g
    done

  let move t (newpos : Vec3.t) =
    let g = t.g in
    K.aim_aos g ~d:t.temp_d ~dr:t.temp_dr ~o:0 ~neg:false;
    g.K.q.(0) <- newpos.Vec3.x;
    g.K.q.(1) <- newpos.Vec3.y;
    g.K.q.(2) <- newpos.Vec3.z;
    K.aos_row g

  let update t k =
    let o = k * t.n_src in
    A.copy_within ~src:t.temp_d ~spos:0 ~dst:t.d ~dpos:o ~n:t.n_src;
    A.copy_within ~src:t.temp_dr ~spos:0 ~dst:t.dr ~dpos:(3 * o)
      ~n:(3 * t.n_src)

  let dist t k i = A.get t.d ((k * t.n_src) + i)

  let displ t k i =
    let p = 3 * ((k * t.n_src) + i) in
    Vec3.make (A.get t.dr p) (A.get t.dr (p + 1)) (A.get t.dr (p + 2))

  let temp_dist t = t.temp_d

  let temp_displ t i =
    Vec3.make (A.get t.temp_dr (3 * i))
      (A.get t.temp_dr ((3 * i) + 1))
      (A.get t.temp_dr ((3 * i) + 2))

  let bytes t =
    A.bytes t.d + A.bytes t.dr + A.bytes t.temp_d + A.bytes t.temp_dr
end
