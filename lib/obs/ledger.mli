(** Per-rank throughput ledger: rolling windows over the per-generation
    facts the supervisor already absorbs — proposed-move throughput
    (EWMA-smoothed across windows), exchange volume, straggle time and
    generation wall p50/p99 (via {!Metrics.quantile}) — exported through
    the Status endpoint / JSONL sink. *)

type t

type window = {
  rank : int;
  gens : int;  (** generations summarized in this window *)
  last_gen : int;
  walkers_moves_per_s : float;  (** EWMA across windows *)
  exchange_walkers : int;
  straggle_s : float;
  wall_p50_s : float;
  wall_p99_s : float;
}

val create : ?window:int -> ?retain:float -> unit -> t
(** [window] generations per summary window (default 16); [retain] is
    the EWMA retention of the previous value (default 0.8). *)

val observe_gen : t -> rank:int -> gen:int -> moves:int -> wall_s:float -> unit
(** One generation on one rank: [moves] is the shard's proposed-move
    delta (already proportional to its walker count), [wall_s] the
    generation wall time.  Closes the window every [window]
    observations. *)

val add_exchange : t -> rank:int -> walkers:int -> unit
(** Walkers shipped to or from the rank this window. *)

val add_straggle : t -> rank:int -> seconds:float -> unit
val drop_rank : t -> rank:int -> unit

val windows : t -> window list
(** Newest per-rank summaries, sorted by rank: the last completed window
    (or the live partial one), always carrying the cross-window EWMA. *)

val json : t -> Jsonx.t
val json_of_window : window -> Jsonx.t
