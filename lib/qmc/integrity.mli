open Oqmc_particle

(** Walker watchdog: scans the DMC population for NaN/Inf poison every
    generation and periodically audits a sampled subset against a full
    recompute (the paper's mixed-precision safeguard, made active).
    Passing walkers are healed in place; poisoned or drifted walkers are
    quarantined and replaced by clones of healthy ones.  Thresholds are
    documented in [docs/ROBUSTNESS.md]. *)

type config = {
  check_every : int;
      (** generations between recompute audits (the poison scan runs
          every generation); [<= 0] disables the audit *)
  drift_tol : float;
      (** quarantine when |stored log Ψ − recomputed| exceeds this *)
  buffer_tol : float;
      (** quarantine when any serialized-state entry, or any entry of
          the carried orbital rows, deviates relatively from its
          recomputed value by more than this *)
  sample : int;  (** walkers audited per recompute pass *)
}

val default_config : config
(** [{ check_every = 10; drift_tol = 1e-3; buffer_tol = 1e-2;
      sample = 4 }] *)

type stats = {
  mutable scans : int;
  mutable audits : int;
  mutable quarantined : int;
  mutable recoveries : int;
  mutable drift_max : float;
  mutable checkpoints_written : int;
  mutable checkpoint_failures : int;
}
(** Counters surfaced in [Dmc.result]; the checkpoint pair is filled by
    the DMC driver's periodic-checkpoint hook. *)

val create_stats : unit -> stats
val copy_stats : stats -> stats

val walker_finite : Walker.t -> bool
(** False when the weight, local energy, log Ψ or any position is
    NaN/Inf. *)

val audit : config -> Engine_api.t -> Walker.t -> Walker.t -> bool * float
(** [audit cfg engine scratch w] recomputes [w]'s wavefunction state
    from its positions and compares the stored log Ψ scalar, state
    buffer and carried orbital rows (when [w] has them) against it;
    heals [w] on pass (recomputed state saved back).
    [scratch] is a walker of the same size used for the ground-truth
    serialization.  Returns [(trustworthy, drift)]; does not touch any
    shared stats, so audits run in parallel across the pool (the
    watchdog reduces the verdicts serially). *)

val watchdog :
  config ->
  stats ->
  gen:int ->
  rng:Oqmc_rng.Xoshiro.t ->
  Runner.t ->
  Population.t ->
  unit
(** One watchdog pass: poison scan (always) + sampled recompute audit
    (when [gen mod check_every = 0]).  Quarantined walkers are replaced
    by unit-weight clones of healthy survivors — or by freshly
    randomized walkers if the entire population is poisoned — keeping
    the population size unchanged. *)
