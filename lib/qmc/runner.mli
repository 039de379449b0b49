(** Walker-parallel execution over a persistent pool of OCaml 5 domains —
    the stand-in for OpenMP thread parallelism.  Each domain owns one
    engine (the paper's per-thread E_th / Psi_th) created once and reused
    across steps; worker domains are spawned once at {!create}, park on a
    condition variable between parallel regions, and pull walker indices
    from a shared atomic counter in small grains. *)

type t

type sweeper
(** A domain's sweep unit, chosen once from its engine: a {!Crowd}
    (Current; [crowd = 1] is a one-slot crowd), or a Store engine
    ([No_crowd_hook]: Ref / Ref+MP) alone with its scalar sweep. *)

val max_crowd : variant:Variant.t -> walkers:int -> int
(** The widest unit a run of [walkers] walkers gives [variant]: 1 for
    Ref / Ref+MP, else [max 1 walkers].  Pinned against {!crowd}. *)

val create :
  crowd:int -> walkers:int -> n_domains:int ->
  factory:(int -> Engine_api.t) -> t
(** One sweep unit per domain, [crowd] clamped to the run's [walkers],
    plus [n_domains - 1] parked worker domains.  Domain [d]'s slot [s]
    engine is [factory (d * c + s)] for the clamped crowd [c].
    @raise Invalid_argument if [n_domains < 1] or [crowd < 1]. *)

val shutdown : t -> unit
(** Wake and join all pool workers.  Idempotent.  Further parallel
    regions on this runner raise [Invalid_argument]. *)

val with_runner :
  crowd:int -> walkers:int -> n_domains:int ->
  factory:(int -> Engine_api.t) -> (t -> 'a) -> 'a
(** [create] + run + guaranteed [shutdown] (also on exceptions). *)

val crowd : t -> int
(** The sweep-unit width in effect (1 for a scalar unit). *)

val engine : t -> int -> Engine_api.t
(** Domain [d]'s engine: slot 0 of its sweep unit. *)

val merged_timers : t -> Oqmc_containers.Timers.t
(** The kernel timers of every crowd slot of every domain merged into
    one set. *)

val export_timers : t -> unit
(** Add the {!merged_timers} totals to the [timer_us.<kernel>] counters
    (integral µs) of the metrics registry. *)

val total_spawns : unit -> int
(** Process-lifetime count of domains spawned by this module — a run
    must account for exactly [n_domains - 1], independent of how many
    parallel regions it executes. *)

val grain_for : n:int -> n_domains:int -> int
(** Indices pulled per atomic-counter fetch: [max 1 (min 32
    (n / (n_domains * 4)))] — several grains per domain for balance,
    bounded counter traffic. *)

exception Domain_failures of (int * exn) list
(** Raised by parallel regions when more than one domain fails:
    [(domain_index, exn)] pairs sorted by domain.  A single failure is
    re-raised unchanged.  The pool remains usable afterwards. *)

val parallel_for :
  ?grain:int -> t -> n:int -> f:(domain:int -> int -> unit) -> unit
(** Run [f ~domain i] for every [i < n] exactly once, dynamically
    distributed: the caller participates as domain 0, parked workers as
    domains [1..n_domains-1].  Worker writes are published to the caller
    by the epoch handshake (mutex release/acquire), exactly as
    [Domain.join] would.  All failures are collected — see
    {!Domain_failures}.

    The grain (indices pulled per counter fetch) is [?grain] when given,
    else {!grain_for}.
    @raise Invalid_argument if [grain < 1]. *)

val iter_walkers : t -> 'w array -> f:(Engine_api.t -> 'w -> unit) -> unit
(** [parallel_for] specialized to walker arrays: [f engine walkers.(i)]
    where [engine] belongs to the executing domain. *)

val iter_groups : t -> n:int -> walker:(int -> Oqmc_particle.Walker.t) ->
  f:(sweeper -> lo:int -> m:int -> unit) -> unit
(** Over the pool, restore each group [lo, lo + m) of {!crowd} walkers
    (the last may be partial) into the executing domain's unit —
    [walker (lo + s)] into slot [s] — and run [f unit ~lo ~m]. *)

val slot_engine : sweeper -> int -> Engine_api.t
(** The engine holding slot [s]'s walker state: restore, measure and
    save that walker through it. *)

val sweep : sweeper -> active:int -> rng:(int -> Oqmc_rng.Xoshiro.t) ->
  tau:float -> Engine_api.sweep_result array
(** One drift-and-diffusion sweep of slots [0..active-1]; [rng s] is
    slot [s]'s stream.  Per walker, bit-identical to [Engine_api.sweep].
    @raise Invalid_argument unless [1 <= active <= ] the unit's width. *)
