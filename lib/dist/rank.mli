open Oqmc_particle
open Oqmc_core

(** One worker rank of a supervised multi-rank DMC run: a population
    shard plus its own domain pool, driven by the supervisor's lockstep
    wire protocol.  The per-generation physics is
    [Dmc.sweep_generation] — the same function the single-process
    driver runs.  {!handle} is the one protocol handler: a forked rank
    process ({!serve}) and an in-process mailbox link both run every
    command through it, which is why the two transports are
    bit-identical. *)

type config = {
  rank : int;
  ranks : int;
  seed : int;
  tau : float;
  target : int;  (** GLOBAL walker target (feedback is supervisor-side) *)
  n_domains : int;  (** worker domains inside this rank *)
  crowd : int;  (** walkers each domain sweeps in lockstep ({!Runner}) *)
  checkpoint : string option;
  checkpoint_keep : int;
  async_checkpoint : bool;
      (** overlap shard writes with the next generation's compute
          ({!Checkpoint.Async}); false = write-then-ack *)
  incarnation : int;  (** 0 = first spawn; respawns count up *)
  faults : (int * Fault.rank_fault) list;
      (** (generation, fault) injection plan for THIS rank.  The
          supervisor filters the plan to generations this incarnation
          has not yet reached, so a respawn cannot re-kill itself *)
}

(** What a job snapshot restores beyond the walkers. *)
type resume = {
  master : string;  (** [Xoshiro.state_string] of the branching stream *)
  pool : string;  (** ... and of the per-walker split pool *)
  acc : int;  (** lifetime accepted moves *)
  prop : int;
}

(** A rank's starting shard.  Without [resume] (the respawn-from-shard
    path) the RNG streams come from the incarnation's seed block; with
    it the rank continues the exact draw sequence of a job snapshot. *)
type init = {
  e_trial : float;
  walkers : Walker.t list;
  resume : resume option;
}

type t
(** A running rank: its shard, runner pool and protocol state. *)

val start :
  factory:(int -> Engine_api.t) ->
  init:init option ->
  emit:(Wire.msg -> unit) ->
  config ->
  t
(** Build the shard — empty when [init = None], waiting for the
    supervisor's [Init] — and emit [Hello].  Every reply of the rank
    goes out through [emit]. *)

val handle : t -> Wire.msg -> bool
(** Run one supervisor command, emitting its replies; [false] once
    [Finish] has been answered.  [Reduce] frames carry this shard's
    kernel-timer deltas as [timer_us.*] counters; [Final] carries no
    trace.  Unexpected frames are ignored. *)

val shutdown : t -> unit
(** Stop the rank's runner pool. *)

val serve :
  cfg:config ->
  factory:(int -> Engine_api.t) ->
  init:init option ->
  fd_in:Unix.file_descr ->
  fd_out:Unix.file_descr ->
  unit
(** The forked rank process: {!handle} over pipes until [Finish].  The
    process-wide effects live here: the fault plan is armed and fired,
    the span ring is reset and shipped in [Final], and every [Reduce]
    also carries the metric-registry deltas since the last one. *)
