open Oqmc_particle

(** Length-prefixed, CRC-trailed binary frames over pipes: the wire
    protocol between the rank supervisor and its worker processes.
    Corrupted or desynchronized streams raise {!Garbage} instead of
    mis-parsing; reads honor a deadline ({!Timeout}) so a stalled peer
    never hangs the supervisor; EOF raises {!Closed}. *)

exception Closed
(** The peer's pipe reached EOF (the process died) or broke. *)

exception Timeout
(** The deadline passed before a full frame arrived. *)

exception Garbage of string
(** Bad length, bad CRC, unknown tag or a malformed frame body. *)

type msg =
  | Hello of { rank : int; pid : int }
      (** rank → supervisor once on startup *)
  | Init of { count : int }
      (** supervisor → fresh rank: build your initial [count]-walker
          sub-ensemble and reply with a gen-0 [Reduce] *)
  | Heartbeat of { gen : int }
      (** rank → supervisor at the start of each generation's work *)
  | Begin_gen of { gen : int; e_trial : float }
      (** supervisor → rank: sweep + reweight your shard *)
  | Reduce of {
      gen : int;
      wsum : float;
      esum : float;
      acc : int;
      prop : int;
      n : int;
      telemetry : (char * string * float) list;
    }
      (** rank → supervisor: shard estimator terms and move counts, plus
          piggybacked per-generation metric/timer deltas in
          [Oqmc_obs.Metrics.wire_kvs] form ('c' counter delta, 'g'
          gauge); empty when telemetry is off *)
  | Branch of { gen : int }  (** supervisor → rank: branch your shard *)
  | Count of { gen : int; n : int }
      (** rank → supervisor: shard size after branching *)
  | Give of { gen : int; count : int }
      (** supervisor → rank: ship your last [count] walkers *)
  | Walkers of { gen : int; walkers : Walker.t list }
      (** either direction: a serialized walker batch *)
  | Checkpoint_cmd of { gen : int; e_trial : float }
      (** supervisor → rank: write your shard checkpoint *)
  | Ack of { gen : int; ok : bool }  (** rank → supervisor *)
  | Finish  (** supervisor → rank: send your final state and exit *)
  | Final of {
      acc : int;
      prop : int;
      walkers : Walker.t list;
      trace : string;
    }
      (** rank → supervisor: final shard and lifetime move totals; when
          tracing is enabled, [trace] carries the rank's serialized span
          ring ([Oqmc_obs.Trace.serialize]) for supervisor-side merge *)
  | Join of { gen : int; e_trial : float }
      (** supervisor → freshly forked rank: you are live as of [gen];
          acked, then populated through the rebalancing relays *)
  | Drain of { gen : int }
      (** supervisor → retiring rank: ship your WHOLE shard (a
          [Walkers] batch) and confirm with [Leave] *)
  | Leave of { gen : int; count : int }
      (** rank → supervisor: drain complete, [count] walkers shipped *)
  | State_req of { gen : int }
      (** supervisor → rank at a generation boundary: report your
          dynamical state for a job snapshot *)
  | State of {
      gen : int;
      master : string;
      pool : string;
      acc : int;
      prop : int;
      walkers : Walker.t list;
    }
      (** rank → supervisor: bit-exact (master, pool) RNG stream states
          ([Xoshiro.state_string]), lifetime move totals and the shard *)

val send : Unix.file_descr -> msg -> unit
(** Write one frame, fully.  @raise Closed on a broken pipe. *)

val send_corrupt : Unix.file_descr -> unit
(** Emit one deliberately corrupted frame (valid length, wrong CRC) —
    the [Fault.Rank_garbage] injector's payload. *)

val recv : ?timeout:float -> Unix.file_descr -> msg
(** Read one frame.  [timeout] is in seconds and bounds the whole frame.
    @raise Closed on EOF, @raise Timeout past the deadline,
    @raise Garbage on a corrupt frame. *)

val frame_bytes : msg -> Bytes.t
(** The serialized frame (exposed for tests and size accounting). *)

val mask_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide (idempotent).  The write path calls this
    itself, so a peer hanging up surfaces as {!Closed} rather than
    killing the process — required for socket transports.  Never
    restored: wire IO wants EPIPE semantics for the process lifetime. *)

val send_str : Unix.file_descr -> string -> unit
(** Write one raw string frame: the same length-prefixed, CRC-trailed
    envelope as {!send} but carrying an opaque payload instead of a
    tagged {!msg}.  The serve daemon's request/reply layer (JSON over a
    Unix-domain socket) rides on these.  @raise Closed on a broken
    peer. *)

val recv_str : ?timeout:float -> Unix.file_descr -> string
(** Read one raw string frame.  Same failure contract as {!recv}. *)
