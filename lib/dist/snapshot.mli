open Oqmc_particle

(** Mid-run job snapshots of a supervised run ({!Supervisor.run_job}):
    the supervisor collects every rank's [Wire.State] at a generation
    boundary; walkers go through the checkpoint shard files, and a
    CRC-trailed [path.job.gen-N] metadata file captures everything else
    the trajectory depends on — per-rank RNG stream states, lifetime
    move totals, the measured energy/population series, sample and comm
    counters, and the trial energy — so a suspended or crashed job
    resumes {e bit-identically} where it stopped.  This is the serve
    layer's crash/deadline recovery primitive. *)

type rank_state = {
  r_rank : int;
  r_master : string;  (** [Xoshiro.state_string] of the branching stream *)
  r_pool : string;  (** ... and of the per-walker split pool *)
  r_acc : int;  (** lifetime accepted moves at snapshot time *)
  r_prop : int;
}

type state = {
  gen : int;  (** completed generations (absolute) *)
  seed : int;
  ranks : int;
  target : int;
      (** [seed]/[ranks]/[target] echo the run parameters; a mismatched
          snapshot is ignored on load, never misapplied *)
  e_trial : float;
  energy : float array;  (** measured energy series so far *)
  pops : int array;  (** measured population series, chronological *)
  samples : int;
  comm_messages : int;
  comm_bytes : int;
  rank_states : rank_state list;  (** ascending rank order *)
}

val save : ?keep:int -> path:string -> state -> (int * Walker.t list) list -> unit
(** Write the shard files then (last, atomically) the metadata for
    generation [state.gen], rotating both to the newest [keep]
    (default 2) generations.  A crash at any point leaves the previous
    complete generation as the newest loadable snapshot.
    @raise Invalid_argument if [keep < 1]. *)

val load_latest : path:string -> (state * (int * Walker.t list) list) option
(** Newest generation whose metadata {e and} every shard load cleanly,
    falling back past corrupt or torn generations; [None] when no valid
    snapshot exists. *)
