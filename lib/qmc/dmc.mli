(** Diffusion Monte Carlo driver (Alg. 1 of the paper): drift-and-diffusion
    sweeps, reweighting against the trial energy, stochastic branching,
    feedback population control and simulated-rank load balancing. *)

type params = {
  target_walkers : int;
  warmup : int;  (** equilibration generations, not measured *)
  generations : int;
  tau : float;
  seed : int;
  n_domains : int;
  ranks : int;  (** simulated MPI ranks for the exchange accounting *)
}

val default_params : params

val fresh_walkers :
  Engine_api.t -> rng:Oqmc_rng.Xoshiro.t -> int -> Oqmc_particle.Walker.t list
(** [count] walkers randomized by [e] from [rng], local energies
    measured: the starting ensemble of {!run} and of a rank shard. *)

val sweep_generation :
  Runner.t ->
  Population.t ->
  next_rng:(unit -> Oqmc_rng.Xoshiro.t) ->
  gen:int ->
  tau:float ->
  e_trial:float ->
  int * int
(** One generation's drift-diffusion sweep + reweighting over the
    population, in walker groups of the runner's sweep-unit width
    ({!Runner.iter_groups}) — the per-generation DMC physics shared by
    {!run} and the multi-rank shard executor (lib/dist), so a rank
    shard's trajectory is the single-process trajectory by construction.
    Each walker draws a fresh stream from [next_rng] in ensemble order.
    Returns the (accepted, proposed) move totals. *)

type result = {
  energy : float;
  energy_error : float;
  variance : float;
  tau_corr : float;
  efficiency : float;  (** κ = 1/(σ² τ_corr T_MC) *)
  acceptance : float;
  throughput : float;
  wall_time : float;
  mean_population : float;
  energy_series : float array;
  population_series : int array;
  comm_messages : int;
  comm_bytes : int;  (** serialized-walker exchange volume *)
  final_walkers : Oqmc_particle.Walker.t list;  (** for checkpointing *)
  final_e_trial : float;
  integrity : Integrity.stats;
      (** watchdog quarantine/recovery/drift counters plus periodic
          checkpoint successes and failures *)
}

val run :
  ?initial:float * Oqmc_particle.Walker.t list ->
  ?observe:(Oqmc_particle.Walker.t -> unit) ->
  ?checkpoint_every:int ->
  ?checkpoint_path:string ->
  ?checkpoint_keep:int ->
  ?watchdog:Integrity.config ->
  ?crowd:int ->
  ?telemetry:Oqmc_obs.Telemetry.sink ->
  ?telemetry_every:int ->
  ?progress:Oqmc_obs.Progress.t ->
  factory:(int -> Engine_api.t) ->
  params ->
  result
(** [initial] resumes from a checkpointed (e_trial, walkers) ensemble;
    [observe] is called per walker per measured generation.

    [telemetry] attaches a JSONL sink that receives one record per
    measured generation (every [telemetry_every]-th, default 1) with
    gen / e_gen / e_trial / population / acceptance / walkers_per_s /
    quarantined / wall_s; [progress] attaches a live single-line
    progress display updated every generation.  Each generation is also
    recorded as a [dmc.generation] trace span (with sweep / watchdog /
    branch / checkpoint children) when {!Oqmc_obs.Trace} is enabled,
    and estimator state lands in the {!Oqmc_obs.Metrics} registry.
    None of this perturbs the RNG stream: trajectories are
    bit-identical with observability on or off.

    When [checkpoint_path] is given and [checkpoint_every > 0], the
    ensemble is checkpointed every [checkpoint_every] generations
    (warmup included) via {!Checkpoint.save_generation}, rotating the
    newest [checkpoint_keep] (default 3) generations; a failed write is
    counted in [integrity.checkpoint_failures] and the run continues.

    [watchdog] enables the {!Integrity} walker watchdog: a NaN/Inf
    poison scan every generation plus a sampled full-recompute audit
    every [check_every] generations, run before the mixed estimator so
    poisoned walkers never bias the energy or the trial-energy feedback.

    [crowd] (default 1) sets the number of walkers each domain advances
    in lockstep through the fused crowd pipeline ({!Runner}); Store
    variants (Ref / Ref+MP) ignore it and sweep one walker at a time.
    Per-walker trajectories are bit-identical to the scalar
    [Engine_api.sweep] on the double-precision path.
    @raise Invalid_argument if [target_walkers < 1] or [crowd < 1]. *)
