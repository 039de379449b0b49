open Oqmc_containers
open Oqmc_rng

(* A crowd of walkers marching in lockstep through the PbP sweep — the
   hierarchical-parallelism layer of Luo et al. 2022 on top of the
   paper's walker-per-thread design.  One crowd lives inside one domain:
   it owns [size] engines (one mutable engine state per resident walker)
   and a single batched SPO context, and advances every walker through
   electron k together.  EVERY move kernel is batched: distance-table
   rows, one-/two-body Jastrow rows, determinant ratio dots and inverse
   updates each run as one fused call per crowd per stage, on top of one
   batched SPO evaluation at the proposed positions.  The drift at the
   current positions needs no SPO call: the determinants keep each
   electron's orbital row.  A one-slot crowd is the production sweep of
   a single walker.

   Per walker the arithmetic and RNG draw order are identical to
   [Engine_api.sweep] (gaussian at k, then uniform at k), so crowd
   trajectories on the double-precision path are bit-identical to the
   scalar reference. *)

type t = {
  engines : Engine_api.t array;
  batch : Oqmc_wavefunction.Spo.vgl_batch;
  stages : Engine_api.crowd_stage;
  pos : Vec3.t array; (* current positions of electron k, per slot *)
  newpos : Vec3.t array;
  chi : Vec3.t array; (* gaussian displacements, for the GF correction *)
  accepted : int array;
  ratio : float array;
  gx : float array;
  gy : float array;
  gz : float array;
  acc : bool array;
}

let create ~(factory : int -> Engine_api.t) ~base ~size () =
  if size < 1 then invalid_arg "Crowd.create: size < 1";
  let engines = Array.init size (fun s -> factory (base + s)) in
  let stages =
    match
      engines.(0).Engine_api.make_crowd_stages
        (Array.map (fun e -> e.Engine_api.crowd_hook) engines)
    with
    | Some cs -> cs
    | None -> invalid_arg "Crowd.create: engines cannot form a fused crowd"
  in
  {
    engines;
    batch = engines.(0).Engine_api.make_vgl_batch size;
    stages;
    pos = Array.make size Vec3.zero;
    newpos = Array.make size Vec3.zero;
    chi = Array.make size Vec3.zero;
    accepted = Array.make size 0;
    ratio = Array.make size 1.;
    gx = Array.make size 0.;
    gy = Array.make size 0.;
    gz = Array.make size 0.;
    acc = Array.make size false;
  }

let size t = Array.length t.engines
let engine t s = t.engines.(s)
let pipelined _ = true

(* One sweep of all [active] resident walkers ([rng s] is walker s's
   stream).  The per-walker expressions (drift, proposal, GF correction,
   Metropolis) are [Engine_api.sweep]'s; every engine-side kernel goes
   through the fused crowd stages.  Returns per-slot sweep results. *)
let sweep t ~active ~(rng : int -> Xoshiro.t) ~tau =
  if active < 1 || active > size t then invalid_arg "Crowd.sweep: active";
  Oqmc_obs.Trace.with_span
    ~args:[ ("active", string_of_int active) ]
    "crowd.sweep"
  @@ fun () ->
  let cs = t.stages in
  let n = t.engines.(0).Engine_api.n_electrons in
  let sqrt_tau = sqrt tau in
  Array.fill t.accepted 0 active 0;
  let timers0 = t.engines.(0).Engine_api.timers in
  for k = 0 to n - 1 do
    cs.Engine_api.cs_prepare ~k ~m:active;
    for s = 0 to active - 1 do
      t.pos.(s) <- (t.engines.(s).Engine_api.pbp).Engine_api.current_pos k
    done;
    Array.fill t.gx 0 active 0.;
    Array.fill t.gy 0 active 0.;
    Array.fill t.gz 0 active 0.;
    cs.Engine_api.cs_grad ~k ~m:active
      ~slots:t.batch.Oqmc_wavefunction.Spo.slots ~gx:t.gx ~gy:t.gy ~gz:t.gz;
    for s = 0 to active - 1 do
      let gold = Vec3.make t.gx.(s) t.gy.(s) t.gz.(s) in
      let cx, cy, cz = Xoshiro.gaussian_vec3 (rng s) in
      let chi =
        Vec3.make (sqrt_tau *. cx) (sqrt_tau *. cy) (sqrt_tau *. cz)
      in
      let rk = t.pos.(s) in
      let newpos = Vec3.add rk (Vec3.add (Vec3.scale tau gold) chi) in
      t.chi.(s) <- chi;
      t.newpos.(s) <- newpos
    done;
    cs.Engine_api.cs_propose ~k ~m:active ~pos:t.newpos;
    Timers.time timers0 "Bspline-vgh" (fun () ->
        t.batch.Oqmc_wavefunction.Spo.run t.newpos active);
    Array.fill t.ratio 0 active 1.;
    Array.fill t.gx 0 active 0.;
    Array.fill t.gy 0 active 0.;
    Array.fill t.gz 0 active 0.;
    cs.Engine_api.cs_ratio_grad ~k ~m:active
      ~slots:t.batch.Oqmc_wavefunction.Spo.slots ~ratio:t.ratio ~gx:t.gx
      ~gy:t.gy ~gz:t.gz;
    for s = 0 to active - 1 do
      let ratio = t.ratio.(s) in
      let gnew = Vec3.make t.gx.(s) t.gy.(s) t.gz.(s) in
      let rk = t.pos.(s) and newpos = t.newpos.(s) and chi = t.chi.(s) in
      let back = Vec3.sub (Vec3.sub rk newpos) (Vec3.scale tau gnew) in
      let log_gf = -.Vec3.norm2 chi /. (2. *. tau) in
      let log_gb = -.Vec3.norm2 back /. (2. *. tau) in
      let p = ratio *. ratio *. exp (log_gb -. log_gf) in
      if Xoshiro.uniform (rng s) < p then begin
        t.accepted.(s) <- t.accepted.(s) + 1;
        t.acc.(s) <- true
      end
      else t.acc.(s) <- false
    done;
    cs.Engine_api.cs_commit ~k ~m:active ~acc:t.acc ~ratio:t.ratio
  done;
  Array.init active (fun s ->
      { Engine_api.accepted = t.accepted.(s); proposed = n })
