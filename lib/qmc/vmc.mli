(** Variational Monte Carlo driver with particle-by-particle updates and
    domain-parallel walkers. *)

type params = {
  n_walkers : int;
  warmup : int;  (** equilibration sweeps per walker, not measured *)
  blocks : int;
  steps_per_block : int;
  tau : float;
  seed : int;
  n_domains : int;
}

val default_params : params

type result = {
  energy : float;
  energy_error : float;  (** block-based error bar *)
  variance : float;  (** local-energy variance (Ψ_T quality, Sec. 3) *)
  acceptance : float;
  throughput : float;  (** MC samples per second — the figure of merit *)
  wall_time : float;
  tau_corr : float;
  samples : int;
  block_energies : float array;
  drift_max : float;
      (** largest |incremental log Ψ − full recompute| observed at the
          per-block refresh (mixed-precision drift) *)
}

val run :
  ?observe:(Oqmc_particle.Walker.t -> unit) ->
  ?crowd:int ->
  ?rank:int ->
  ?telemetry:Oqmc_obs.Telemetry.sink ->
  ?telemetry_every:int ->
  ?progress:Oqmc_obs.Progress.t ->
  factory:(int -> Engine_api.t) ->
  params ->
  result
(** [observe] is called once per walker per block (serially, after the
    parallel sweeps) for observable accumulation.

    [telemetry] attaches a JSONL sink receiving one record per
    [telemetry_every]-th block (block / e_block / acceptance /
    walkers_per_s / wall_s); [progress] attaches a live progress line.
    Blocks are recorded as [vmc.block] trace spans when
    {!Oqmc_obs.Trace} is enabled.  Observability never touches the RNG
    stream, so results are bit-identical with it on or off.

    [crowd] (default 1, clamped to [n_walkers]) sets the number of
    walkers each domain advances in lockstep through the fused crowd
    pipeline ({!Runner}); Store variants (Ref / Ref+MP) ignore it.
    Results are bit-identical for any crowd size.

    [rank] (default 0) offsets the walker RNG streams into a disjoint
    seed block, so shard [rank] of a rank-split VMC run never shares a
    random sequence with its siblings; [rank = 0] reproduces the
    single-rank streams exactly.
    @raise Invalid_argument if [n_walkers < 1], [crowd < 1] or
    [rank < 0]. *)
