open Oqmc_particle

(** DMC walker population: branching, trial-energy feedback and a
    simulated-rank load-balance accounting of walker messages (the MPI
    exchange of Sec. 8). *)

type t

val create :
  target:int -> e_trial:float -> ?feedback:float -> Walker.t list -> t
(** @raise Invalid_argument if [target < 1]. *)

val size : t -> int
val walkers : t -> Walker.t list
val e_trial : t -> float

val set_walkers : t -> Walker.t list -> unit
(** Replace the ensemble (the watchdog's quarantine/recovery path).
    @raise Invalid_argument on an empty list. *)

val average_weight : t -> float

val dmc_weight :
  tau:float -> e_trial:float -> e_old:float -> e_new:float -> Walker.t -> unit
(** Multiply the walker weight by the (clamped) branching factor
    exp(τ(E_T − ½(E_old + E_new))). *)

val branch : t -> Oqmc_rng.Xoshiro.t -> unit
(** Stochastic branching: floor(weight + u) unit-weight copies per
    walker; never lets the population go extinct. *)

val weighted_energy_sums : t -> float * float
(** [(Σw, Σw·E_L)] over the ensemble, in ensemble order — the inputs of
    the weighted mixed estimator, reduced identically everywhere. *)

val trial_energy_update :
  feedback:float ->
  tau:float ->
  target:int ->
  population:int ->
  e_estimate:float ->
  float
(** The pure trial-energy feedback formula; the multi-rank supervisor
    applies it from globally-reduced population counts. *)

val update_trial_energy : t -> tau:float -> e_estimate:float -> unit
(** Feedback that pulls the population toward its target. *)

type balance_report = { messages : int; bytes : int; imbalance : float }

val load_balance : t -> ranks:int -> balance_report
(** Walker messages an even re-spread across [ranks] would send.
    @raise Invalid_argument if [ranks < 1]. *)

(** {1 Real walker exchange}

    Primitives for the multi-rank layer, which actually moves walkers
    between per-rank shard populations.  All are deterministic in shard
    order so forked and in-process executions stay bit-identical. *)

val give : t -> int -> Walker.t list
(** Remove and return the last [k] walkers (clamped to the shard size),
    preserving order.  @raise Invalid_argument if [k < 0]. *)

val absorb : t -> Walker.t list -> unit
(** Append received walkers at the end of the shard. *)

val drain : t -> Walker.t list
(** Remove and return the whole shard (in order), leaving it empty —
    the graceful-leave path of the elastic supervisor. *)

type move = { src : int; dst : int; count : int }

val plan : int array -> move list
(** Deterministic rebalancing plan toward the even split (remainder on
    the lowest indices): surplus shards (ascending index) matched
    against deficit shards (ascending index). *)

