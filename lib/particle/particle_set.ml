open Oqmc_containers

(* ParticleSet: the central physics abstraction (paper Fig. 4/5).

   Holds the positions of one species group (electrons, or the fixed ions)
   in BOTH layouts: [r] is the AoS container the high-level physics and the
   Ref kernels use, [rsoa] is its SoA companion added by the optimization
   work.  The only extra costs of the duplication are the AoS-to-SoA
   assignment in [load_walker] and a 6-scalar write on each accepted move,
   exactly as the paper describes.

   The particle-by-particle protocol is [propose] / [accept] / [reject]:
   a proposal never touches the containers, acceptance writes the single
   particle to both.  A proposal is held rounded to the storage
   precision, so callers read it back with [active_pos]. *)

type species = { name : string; charge : float; count : int }

module Make (R : Precision.REAL) = struct
  module Aos = Pos_aos.Make (R)
  module Vs = Vsc.Make (R)

  type t = {
    lattice : Lattice.t;
    species : species array;
    spec_of : int array;
    n : int;
    r : Aos.t;
    rsoa : Vs.t;
    stage : float array; (* 3n: walker positions cross here in bulk *)
    mutable active : int;
    mutable active_pos : Vec3.t;
  }

  let create ~lattice species =
    let species = Array.of_list species in
    let n = Array.fold_left (fun acc s -> acc + s.count) 0 species in
    if n = 0 then invalid_arg "Particle_set.create: no particles";
    let spec_of = Array.make n 0 in
    let idx = ref 0 in
    Array.iteri
      (fun si s ->
        if s.count < 0 then invalid_arg "Particle_set.create: negative count";
        for _ = 1 to s.count do
          spec_of.(!idx) <- si;
          incr idx
        done)
      species;
    {
      lattice;
      species;
      spec_of;
      n;
      r = Aos.create n;
      rsoa = Vs.create n;
      stage = Array.make (3 * n) 0.;
      active = -1;
      active_pos = Vec3.zero;
    }

  let n t = t.n
  let lattice t = t.lattice
  let species t = Array.copy t.species
  let n_species t = Array.length t.species
  let species_index t i = t.spec_of.(i)
  let species_of t i = t.species.(t.spec_of.(i))
  let charge t i = (species_of t i).charge

  let first_of_species t si =
    let rec go i = if i >= t.n then None else if t.spec_of.(i) = si then Some i else go (i + 1) in
    go 0

  let aos t = t.r
  let soa t = t.rsoa

  let get t i = Aos.get t.r i

  let set t i pos =
    Aos.set t.r i pos;
    Vs.set t.rsoa i pos

  let set_all t positions =
    if Array.length positions <> t.n then
      invalid_arg "Particle_set.set_all: size mismatch";
    Array.iteri (fun i p -> set t i p) positions

  (* Uniformly random positions in the cell; [u] supplies uniforms in
     [0,1).  Open cells scatter over [0, spread)³. *)
  let randomize ?(spread = 1.) t u =
    for i = 0 to t.n - 1 do
      let s = Vec3.make (u ()) (u ()) (u ()) in
      let pos =
        if Lattice.is_periodic t.lattice then Lattice.to_cart t.lattice s
        else Vec3.scale spread s
      in
      set t i pos
    done

  (* loadWalker: copy a stored walker's positions into this compute engine
     (AoS assignment + the extra AoS-to-SoA transposition, Fig. 5).  The
     AoS copy is one bulk read and one narrowing bulk write through
     [stage], rounding exactly like per-particle stores. *)
  let load_walker t (w : Walker.t) =
    if Walker.n_particles w <> t.n then
      invalid_arg "Particle_set.load_walker: size mismatch";
    let m = 3 * t.n in
    Walker.Aos.A.read_into (Walker.Aos.data w.Walker.r) ~pos:0 t.stage ~n:m;
    Aos.A.write_from t.stage (Aos.data t.r) ~pos:0 ~n:m;
    Vs.assign_from_aos t.rsoa t.r;
    t.active <- -1

  let store_walker t (w : Walker.t) =
    if Walker.n_particles w <> t.n then
      invalid_arg "Particle_set.store_walker: size mismatch";
    let m = 3 * t.n in
    Aos.A.read_into (Aos.data t.r) ~pos:0 t.stage ~n:m;
    Walker.Aos.A.write_from t.stage (Walker.Aos.data w.Walker.r) ~pos:0 ~n:m

  (* The proposal is rounded to the storage precision once, here, so
     everything that reads it (orbitals, tables, the acceptance test) sees
     the position an accepted move stores.  Orbital rows are then a pure
     function of the stored positions. *)
  let propose t k (pos : Vec3.t) =
    if k < 0 || k >= t.n then invalid_arg "Particle_set.propose: bad index";
    t.active <- k;
    t.active_pos <-
      (if R.bytes = 8 then pos
       else
         Vec3.make (R.round pos.Vec3.x) (R.round pos.Vec3.y)
           (R.round pos.Vec3.z))

  let active t = t.active
  let active_pos t = t.active_pos

  let accept t =
    if t.active < 0 then invalid_arg "Particle_set.accept: no active move";
    set t t.active t.active_pos;
    t.active <- -1

  let reject t = t.active <- -1

  let bytes t = Aos.bytes t.r + Vs.bytes t.rsoa
end
