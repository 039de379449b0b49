(** A crowd of walkers marching in lockstep through the PbP sweep (the
    hierarchical-parallelism layer of QMCPACK's batched drivers): one
    crowd per domain, [size] engines (one per resident walker) and one
    batched SPO context, so each per-electron move costs one batched
    kernel call for the whole crowd instead of one scalar call per
    walker.  Per walker, arithmetic and RNG draw order are identical to
    [Engine_api.sweep] — crowd trajectories are bit-identical to the
    scalar reference on the double path. *)

type t

val create :
  factory:(int -> Engine_api.t) -> base:int -> size:int -> unit -> t
(** Engines are built by [factory (base + s)] for slot [s < size] — give
    each domain's crowd a distinct [base] so engine seeds stay unique.
    The crowd sweeps through the fused stages of
    [Engine_api.make_crowd_stages]: distance-table, Jastrow and
    determinant kernels fused across the crowd per stage, in addition to
    the batched SPO evaluation at the proposed positions.
    @raise Invalid_argument if [size < 1] or the engines cannot form a
    fused crowd (a Store-layout engine publishes [No_crowd_hook]). *)

val size : t -> int

val pipelined : t -> bool
(** Always [true]: every crowd runs the fused pipeline. *)

val engine : t -> int -> Engine_api.t
(** The engine holding slot [s]'s walker state — use it to
    restore/measure/save that walker exactly as in the scalar driver. *)

val sweep :
  t ->
  active:int ->
  rng:(int -> Oqmc_rng.Xoshiro.t) ->
  tau:float ->
  Engine_api.sweep_result array
(** One drift-and-diffusion sweep of walkers [0..active-1] in lockstep;
    [rng s] is slot [s]'s stream.
    @raise Invalid_argument unless [1 <= active <= size]. *)
