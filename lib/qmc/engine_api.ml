open Oqmc_containers
open Oqmc_particle

(* Variant-erased compute engine.

   Each build variant instantiates the engine functor at its storage
   precision and update policy and exposes this uniform record, so the
   VMC/DMC drivers, population control and benchmarks are written once.
   An engine is the per-thread pair (E_th, Psi_th) of the paper's Fig. 4:
   it owns mutable state and must never be shared between domains. *)

type sweep_result = { accepted : int; proposed : int }

(* The scalar stages of one particle-by-particle move, as the scalar
   [sweep] runs them: a single proposed move of electron [k] can be
   driven and its ratio read without committing it.  [current_pos] is
   what the crowd pipeline reads to drift electron [k] from. *)
type pbp = {
  prepare : int -> unit; (* distance-table prepare for electron k *)
  current_pos : int -> Vec3.t;
  propose : int -> Vec3.t -> unit; (* ParticleSet propose + table move *)
  ratio_grad : int -> float * Vec3.t; (* at the proposed position *)
  reject : int -> unit;
}

(* Full-pipeline crowd batching.

   [crowd_hook] is the variant-private handle an engine publishes so a
   crowd driver can hand the WHOLE crowd back to the engine's own batched
   move stages: each build variant extends the type with a constructor
   wrapping its internal per-walker state, and [make_crowd_stages]
   recognizes its own constructor (and only it — a foreign or [No_crowd_hook]
   slot makes it return [None]).  Variants that publish [No_crowd_hook]
   (the Store layout) run the scalar [sweep] instead.

   A [crowd_stage] runs one stage of the PbP move for crowd slots
   [0..m-1] of electron [k] in a single fused pass per kernel —
   distance-table rows, Jastrow rows and determinant ratio dots each
   become one batched call per crowd instead of one per walker.  Slot
   arithmetic and ordering are exactly the scalar sweep's, so the
   double-precision path stays bit-identical to [sweep].  [slots] are the
   crowd's batched SPO results at the proposed positions, one per
   walker. *)
type crowd_hook = ..
type crowd_hook += No_crowd_hook

type crowd_stage = {
  cs_prepare : k:int -> m:int -> unit;
      (* refresh distance-table rows k at the current positions *)
  cs_grad :
    k:int ->
    m:int ->
    slots:Oqmc_wavefunction.Spo.vgl array ->
    gx:float array ->
    gy:float array ->
    gz:float array ->
    unit;
      (* accumulate ∇ log Ψ at the current positions into gx/gy/gz
         (caller zero-initializes).  The determinants read their stored
         orbital rows, so [slots] goes unused; it stays in the signature
         for the benchmark's stage wrapper. *)
  cs_propose : k:int -> m:int -> pos:Vec3.t array -> unit;
      (* ParticleSet propose + batched table move rows; each [pos.(s)]
         is replaced by the proposal as the set holds it (rounded to the
         walker precision), which the SPO call and the Green's-function
         term then use *)
  cs_ratio_grad :
    k:int ->
    m:int ->
    slots:Oqmc_wavefunction.Spo.vgl array ->
    ratio:float array ->
    gx:float array ->
    gy:float array ->
    gz:float array ->
    unit;
      (* multiply ratios (caller initializes to 1.) and accumulate the
         proposed-position gradients *)
  cs_commit : k:int -> m:int -> acc:bool array -> ratio:float array -> unit;
      (* per-slot accept/reject with the scalar choreography: components,
         log Ψ, tables, ParticleSet *)
}

type t = {
  label : string;
  n_electrons : int;
  timers : Timers.t;
  refresh : unit -> float;
      (* Rebuild distance tables and all wavefunction state from current
         positions (double-precision recompute); returns log Ψ. *)
  sweep : Oqmc_rng.Xoshiro.t -> tau:float -> sweep_result;
      (* One particle-by-particle drift-and-diffusion sweep (Alg. 1,
         L4-L10). *)
  measure : unit -> float;
      (* Local energy at the current configuration (refreshes what the
         update policy leaves stale). *)
  load_walker : Walker.t -> unit;
      (* Positions from the walker + full recompute (first touch). *)
  restore_walker : Walker.t -> unit;
      (* Positions + wavefunction state from the walker's buffer (the
         store-over-compute fast path) and the determinants' orbital
         rows from the walker, when it carries them: no SPO call.  Ref's
         Store tables are rebuilt in full, Current's AB table only (the
         sweep's prepare and measure rebuild the AA rows).  A walker
         without rows has them rebuilt by the first reader, to the same
         bits. *)
  save_walker : Walker.t -> unit;
      (* Positions, log Ψ, serialized state and the orbital rows back
         into the walker. *)
  register_walker : Walker.t -> unit;
      (* Size and fill a fresh walker's buffer (and its rows). *)
  log_psi : unit -> float;
  randomize : Oqmc_rng.Xoshiro.t -> unit;
      (* Fresh uniform electron configuration + full recompute; used to
         seed independent walkers. *)
  memory_bytes : unit -> int;
      (* Persistent per-engine + per-walker-state footprint (excludes the
         shared read-only SPO table). *)
  pbp : pbp;
      (* Scalar stages of one PbP move (see [pbp]). *)
  make_vgl_batch : int -> Oqmc_wavefunction.Spo.vgl_batch;
      (* Crowd-sized batch context over this engine's SPO set; scratch
         is owned by the context, one per domain. *)
  crowd_hook : crowd_hook;
      (* Variant-private handle to this engine's batched-pipeline state;
         [No_crowd_hook] when the variant has no batched pipeline. *)
  make_crowd_stages : crowd_hook array -> crowd_stage option;
      (* Build the fused move stages over a crowd of sibling engines
         (one hook per slot, this engine's included); [None] when any
         slot is foreign or the variant cannot batch. *)
}

(* Drift of the incrementally-maintained log Ψ against a full
   double-precision recompute — the quantity the paper's periodic
   refresh bounds.  Leaves the engine in the refreshed state. *)
let drift (e : t) =
  let incremental = e.log_psi () in
  let fresh = e.refresh () in
  Float.abs (incremental -. fresh)
