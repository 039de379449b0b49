open Oqmc_particle

(** Deterministic, seeded fault injection for the run-integrity
    subsystem.  Injectors are disarmed by default; tests arm them, run
    the scenario, and call {!reset}.  Every knob is documented in
    [docs/ROBUSTNESS.md]. *)

(** {1 Transient IO failures} *)

type io_point =
  | Checkpoint_write  (** opening/writing the temporary checkpoint file *)
  | Checkpoint_rename  (** the atomic rename that publishes it *)

val arm_io_failure : io_point -> times:int -> unit
(** The next [times] hits of [io_point] raise [Sys_error]; exercises the
    retry-with-backoff path of {!Checkpoint.save}. *)

val should_fail_io : io_point -> bool
(** Consumed by the checkpoint writer: true when an injected failure
    must fire (decrements the armed count). *)

val io_injected_count : unit -> int

(** {1 NaN local energies} *)

val arm_nan_energy : seed:int -> rate:float -> unit
(** Poison roughly [rate] of all measured local energies with NaN.  The
    decision hashes (seed, generation, walker id), so it is reproducible
    across domain counts.  @raise Invalid_argument if [rate] ∉ [0,1]. *)

val tamper_energy : gen:int -> walker_id:int -> float -> float
(** Applied by the DMC sweep to each measured energy; identity when
    disarmed. *)

val nans_injected_count : unit -> int

(** {1 Rank-level faults}

    Process-level failures of the supervised multi-rank layer, armed
    inside the worker rank process.  Each fires exactly once, at the
    start of the generation it is armed for. *)

type drain_point =
  | Before_batch  (** on receiving [Drain], before shipping anything *)
  | After_batch  (** right after shipping the batch, before confirming *)

type rank_fault =
  | Rank_kill  (** the rank SIGKILLs itself (segfault/OOM stand-in) *)
  | Rank_stall of float
      (** sleep this many seconds without heartbeating — trips the
          supervisor's heartbeat deadline *)
  | Rank_garbage  (** emit one corrupted wire frame (CRC mismatch) *)
  | Rank_disk_full of int
      (** the rank's next [n] checkpoint writes raise [Sys_error]
          (armed through {!arm_io_failure}) — a full/flaky filesystem
          under the shard-save path *)
  | Rank_kill_draining of drain_point
      (** the rank SIGKILLs itself while draining (a graceful leave) in
          that generation; consumed by the drain handler, not at the
          generation's start *)

val arm_rank_fault : gen:int -> rank_fault -> unit
(** @raise Invalid_argument if [gen < 0]. *)

val rank_fault_due : gen:int -> rank_fault option
(** Consume the fault armed for [gen], if any; a [Rank_kill_draining]
    stays armed for {!drain_fault_due}. *)

val drain_fault_due : gen:int -> drain_point option
(** Consume the [Rank_kill_draining] armed for [gen], if any. *)

val reset : unit -> unit
(** Disarm every injector and zero the counters. *)

(** {1 Direct walker poisoners (for unit tests)} *)

val poison_energy : Walker.t -> unit
val poison_weight : Walker.t -> unit
val poison_position : Walker.t -> index:int -> unit

val drift_log_psi : Walker.t -> delta:float -> unit
(** Offset the stored log Ψ, simulating accumulated mixed-precision
    incremental-update drift. *)

val flip_buffer_bit : Walker.t -> index:int -> bit:int -> unit
(** Flip one bit of entry [index] of the walker's serialized state
    buffer (a memory-corruption stand-in). *)

(** {1 Checkpoint-file corrupters} *)

val truncate_file : path:string -> lines:int -> unit
(** Keep only the first [lines] lines (a crash mid-write). *)

val truncate_file_bytes : path:string -> bytes:int -> unit

val garble_file : path:string -> seed:int -> unit
(** Deterministically flip bits in ~1/64 of the bytes. *)
