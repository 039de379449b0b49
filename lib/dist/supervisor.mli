open Oqmc_particle
open Oqmc_core

(** Supervised multi-rank DMC execution: a single-threaded supervisor
    drives N worker ranks through one deadline-budgeted generation
    protocol ({!Wire}) with per-read heartbeat deadlines, performs real
    walker exchange for load balance, and recovers from rank crashes,
    stalls and corrupted streams by respawning from per-rank checkpoint
    shards.

    The protocol is written once, over a {!Transport}: {!run} forks one
    process per rank and talks to it over pipes; {!run_local} and
    {!run_job} keep the ranks in this process behind reply queues.
    Every rank command goes through the same {!Rank.handle} either way.

    The rank set is ELASTIC: a membership plan can grow it mid-run
    (fork + [Join] + rebalance) and retire ranks gracefully ([Drain] →
    shard ships to the survivors → reap).  Every slot that empties — a
    leave, a failed join, a rank abandoned when its respawn budget runs
    out or its respawn never starts — becomes vacant and refillable by
    later joins, so degraded mode is reversible.  Ranks that blow the
    soft generation deadline are counted as stragglers.

    With zero injected faults the two transports are bit-identical,
    including through a shared membership plan's joins and leaves. *)

type member_event =
  | Join  (** grow the rank set by one (lowest vacant slot, else a
              fresh id) *)
  | Leave of int  (** gracefully drain + retire this rank *)

type params = {
  ranks : int;
  target_walkers : int;  (** global population target *)
  warmup : int;
  generations : int;
  tau : float;
  seed : int;
  n_domains : int;  (** worker domains per rank *)
  crowd : int;  (** walkers each rank domain sweeps in lockstep (default 1) *)
  feedback : float;
  heartbeat_s : float;  (** deadline on every read from a rank *)
  max_respawn : int;  (** respawns per rank before it is abandoned *)
  respawn_backoff : float;  (** base seconds, doubled per respawn *)
  checkpoint : string option;
  checkpoint_every : int;
  checkpoint_keep : int;
  restore : bool;  (** resume from the newest complete shard generation *)
  faults : (int * int * Fault.rank_fault) list;
      (** (rank, generation, fault) injection plan *)
  trace : string option;
      (** write a merged Chrome trace_event JSON timeline here: the
          supervisor's spans (pid -1) plus every rank's span ring,
          ingested from the [Final] frame under its rank id *)
  telemetry : string option;
      (** write one merged JSON record per measured generation here
          (gen, e_gen, e_trial, population, acceptance, walkers_per_s,
          live_ranks, rtt_max_s, respawns, wall_s), plus one record per
          membership transition *)
  telemetry_every : int;  (** emit every n-th measured generation *)
  progress : bool;  (** live one-line progress on stderr *)
  elastic : bool;
      (** enable the membership plan and (with [gen_deadline_ms > 0])
          asynchronous double-buffered shard checkpoints *)
  gen_deadline_ms : int;
      (** soft per-generation budget: a rank slower than it plus three
          smoothed heartbeat RTTs counts as a straggler; 0 = classic
          lockstep behavior *)
  membership : (int * member_event) list;
      (** (generation, event): applied at the END of that generation,
          in list order.  Requires [elastic = true] *)
  flightrec : string option;
      (** dump the {!Oqmc_obs.Flightrec} ring to this postmortem file
          on every abort path (rank failure, [All_ranks_lost],
          [Interrupted], fatal errors) *)
  status : string option;
      (** write a small live status JSON snapshot (progress + per-rank
          ledger windows) here, atomically renamed into place and
          throttled to ~4 Hz — what the serve daemon's Status endpoint
          reads *)
  on_window : (int -> unit) option;
      (** called (with the generation number) at every ledger-window
          boundary, before the status snapshot is written — the driver's
          hook for refreshing live gauges such as the efficiency audit.
          Exceptions are swallowed *)
}

val default_params : params

(** One membership transition as it happened; [m_walkers_before =
    m_walkers_after] is the conservation invariant the chaos soak
    asserts. *)
type member_record = {
  m_gen : int;
  m_kind : string;  (** ["join"] or ["leave"] *)
  m_rank : int;
  m_live : int;  (** live ranks after the transition *)
  m_walkers_before : int;
  m_walkers_after : int;
}

type result = {
  energy : float;
  energy_error : float;
  variance : float;
  tau_corr : float;
  acceptance : float;
  wall_time : float;
  mean_population : float;
  energy_series : float array;
  population_series : int array;
  comm_messages : int;
      (** walkers the supervisor delivered to a rank: load-balance
          exchange, a leaving rank's shard, a salvaged shard *)
  comm_bytes : int;  (** payload bytes of those walkers *)
  respawns : int;
  heartbeat_timeouts : int;
  garbage_frames : int;
  crashes : int;
  ranks_failed : int list;  (** abandonment events, ascending *)
  walkers_salvaged : int;
      (** walkers delivered from checkpoint shards salvaged from ranks
          lost with them: abandoned ranks, and ranks that died draining
          before shipping their batch *)
  live_ranks : int;  (** live member count at the end of the run *)
  degraded_generations : int;
      (** generations reduced over fewer than [ranks] shards *)
  joins : int;
  leaves : int;
  stragglers : int;  (** soft-deadline misses observed *)
  membership_skipped : int;
      (** membership events that could not be applied (target rank
          gone, last rank, joiner failed to start) *)
  membership_log : member_record list;  (** chronological *)
  gen_p50_s : float;  (** per-generation wall-time percentiles *)
  gen_p99_s : float;
  final_walkers : Walker.t list;
  final_e_trial : float;
}

exception All_ranks_lost
(** Every rank is dead and the run cannot continue. *)

exception Interrupted of int
(** SIGTERM/SIGINT arrived; raised so the normal unwind path runs
    (children reaped, telemetry and trace sinks flushed + closed). *)

val of_chaos :
  Chaos.schedule ->
  (int * int * Fault.rank_fault) list * (int * member_event) list
(** Split a {!Chaos} schedule into the [faults] and [membership] params
    it drives. *)

val run : factory:(int -> Engine_api.t) -> params -> result
(** The protocol over the pipe transport: one forked process per rank,
    so a crash, stall or fault plan takes down one rank, not the run.
    The caller must not hold live OCaml domains across this call (the
    supervisor forks).  @raise All_ranks_lost when no rank survives,
    [Failure] when a rank fails during startup. *)

val run_local : factory:(int -> Engine_api.t) -> params -> result
(** The same protocol over the in-process mailbox transport: no fork,
    no pipes, no serialization.  Honours [restore] and the membership
    plan like {!run}.
    @raise Invalid_argument on a non-empty [faults] plan — fault
    injection acts on a whole process and needs {!run}. *)

(** {1 Reentrant per-job execution (the serve layer's entry point)} *)

(** How a {!run_job} call ended, alongside the usual {!result}. *)
type job_outcome = {
  job_result : result;
  gens_done : int;  (** generations executed by THIS call *)
  drained : bool;
      (** the [stop] poll ended the job early at a generation boundary;
          the estimators cover the generations actually run *)
  resumed_from : int;
      (** > 0: the job continued bit-identically from a {!Snapshot} of
          that generation instead of starting fresh *)
}

val run_job :
  factory:(int -> Engine_api.t) ->
  ?stop:(unit -> bool) ->
  ?snapshot:string ->
  ?snapshot_every:int ->
  params ->
  job_outcome
(** Run one job to completion (or graceful drain) and return.  Reentrant
    and signal-neutral: unlike {!run}/{!run_local} it NEVER installs
    SIGTERM/SIGINT handlers — the caller owns its signal policy and
    threads shutdown through [stop], polled at every generation
    boundary.  The job runs on the in-process transport, as
    {!run_local}.  Given [snapshot], it persists its full dynamical
    state every [snapshot_every] generations (plus at drain and
    completion) via {!Snapshot}, and resumes bit-identically from the
    newest valid snapshot on the next call with the same parameters.
    @raise Invalid_argument for a snapshot with a non-empty membership
    plan, [snapshot_every < 1] or a non-empty [faults] plan. *)
