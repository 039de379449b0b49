open Oqmc_particle
open Oqmc_core
module Trace = Oqmc_obs.Trace
module Metrics = Oqmc_obs.Metrics
module Ledger = Oqmc_obs.Ledger
module Flightrec = Oqmc_obs.Flightrec
module Jsonx = Oqmc_obs.Jsonx

(* Supervised multi-rank DMC execution.

   [run_ext] drives N worker ranks through the Wire protocol:

     Begin_gen → (Heartbeat, Reduce) → Branch → Count
       → Give/Walkers relays (real load-balance exchange)
       → Checkpoint_cmd/Ack rounds → [State_req/State] → … → Finish/Final

   The run's mutable state is one record ([run]); [run_ext] is the
   startup handshake, a loop of [generation]s and the finals, and each
   phase of a generation is its own function over that record.  Each
   decision lives in one function: [round] is every send-to-all-then-
   gather exchange, [deliver] every walker batch the supervisor hands a
   rank, [spawn] + [hello] every rank start, [vacate] every slot that
   empties and [abandon] every rank given up on.  The observability
   outputs live in [Sup_obs].

   It reaches the ranks only through a [Transport]: [run] forks one Unix
   process per rank and talks over pipes (real fault isolation: a
   segfault, OOM kill or poisoned domain takes down ONE rank, not the
   run); [run_local] and [run_job] keep the ranks in this process behind
   reply queues.  Both run every rank command through [Rank.handle].

   The rank set is ELASTIC: the membership plan can grow the set
   mid-run (fork + [Join] + rebalance through the exchange relays) and
   retire ranks gracefully ([Drain] → the whole shard ships to the
   survivors → Finish/reap).  Every slot that empties — a leave, a
   failed join, an abandoned rank — is vacant and refillable by a later
   join, so degraded mode is reversible.

   Generations are deadline-budgeted rather than hard-lockstep: phase 2
   collects heartbeat/reduce frames in ARRIVAL order (folding the float
   reduction in ascending rank order, so the trajectory does not depend
   on arrival order), and a rank that blows its soft deadline —
   [gen_deadline_ms] plus three heartbeat-RTT EWMAs of slack — is
   counted as a straggler.

   Robustness machinery, exercised deterministically by the Fault rank
   injectors and the [Chaos] schedule planner:

   - every read of a rank carries the heartbeat deadline: a stalled rank
     surfaces as [Wire.Timeout], a crashed one as [Wire.Closed] (EOF,
     confirmed by [waitpid]), a corrupted stream as [Wire.Garbage];
   - a failed rank is SIGKILLed, reaped and respawned with exponential
     backoff from its newest *valid* checkpoint shard
     ([Checkpoint.load_latest_shard]) — or from fresh walkers when it
     never checkpointed — rejoining at the next generation;
   - after [max_respawn] respawns, or when a respawn never starts, the
     rank is abandoned: its newest shard is salvaged and spread over the
     survivors, its slot is vacated, and the run continues degraded.
     The mixed estimator Σw·E_L / Σw is self-normalizing, so dropping a
     rank's terms from a generation leaves the energy unbiased (see
     docs/ROBUSTNESS.md);
   - SIGTERM/SIGINT raise [Interrupted] so the normal unwind path runs:
     children reaped, telemetry/trace sinks flushed and closed — the
     JSONL tail stays parseable even on abort;
   - with zero injected faults the two transports are BIT-IDENTICAL,
     membership plan included (asserted in test/test_dist.ml).

   The supervisor itself never spawns OCaml domains, so forking stays
   safe at any point of the run; callers must not hold live domains of
   their own across a [run] call.  (Forked ranks DO spawn domains —
   including the [Checkpoint.Async] writer — but only after the fork.) *)

(* Elastic membership plan entry: at the END of generation [gen] (first
   element of the pair), grow the rank set by one ([Join]) or retire a
   specific rank gracefully ([Leave r]). *)
type member_event = Join | Leave of int

type params = {
  ranks : int;
  target_walkers : int; (* global population target *)
  warmup : int;
  generations : int;
  tau : float;
  seed : int;
  n_domains : int; (* per rank *)
  crowd : int; (* walkers per domain sweep unit, per rank *)
  feedback : float;
  heartbeat_s : float; (* per-message deadline on every rank read *)
  max_respawn : int; (* respawns per rank before it is abandoned *)
  respawn_backoff : float; (* base seconds, doubled per respawn *)
  checkpoint : string option;
  checkpoint_every : int;
  checkpoint_keep : int;
  restore : bool; (* resume from the newest complete shard generation *)
  faults : (int * int * Fault.rank_fault) list; (* rank, gen, fault *)
  trace : string option; (* Chrome trace_event JSON output path *)
  telemetry : string option; (* per-generation JSONL output path *)
  telemetry_every : int;
  progress : bool; (* live one-line progress on stderr *)
  elastic : bool; (* enable membership events + async checkpoints *)
  gen_deadline_ms : int; (* soft per-generation budget; 0 = lockstep *)
  membership : (int * member_event) list; (* (gen, event), any order *)
  flightrec : string option; (* postmortem dump path for abort paths *)
  status : string option; (* live status-snapshot file (atomic rename) *)
  on_window : (int -> unit) option; (* ledger-window boundary callback *)
}

let default_params =
  {
    ranks = 4;
    target_walkers = 16;
    warmup = 20;
    generations = 100;
    tau = 0.01;
    seed = 11;
    n_domains = 1;
    crowd = 1;
    feedback = 1.;
    heartbeat_s = 5.;
    max_respawn = 2;
    respawn_backoff = 0.05;
    checkpoint = None;
    checkpoint_every = 0;
    checkpoint_keep = 3;
    restore = false;
    faults = [];
    trace = None;
    telemetry = None;
    telemetry_every = 1;
    progress = false;
    elastic = false;
    gen_deadline_ms = 0;
    membership = [];
    flightrec = None;
    status = None;
    on_window = None;
  }

(* One membership transition as it happened: generation, "join"/"leave",
   live ranks after, total walkers before/after.  before = after is the
   conservation invariant the chaos soak asserts. *)
type member_record = {
  m_gen : int;
  m_kind : string;
  m_rank : int;
  m_live : int;
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
  comm_bytes : int;
  respawns : int;
  heartbeat_timeouts : int;
  garbage_frames : int;
  crashes : int;
  ranks_failed : int list; (* abandonment events, ascending *)
  walkers_salvaged : int; (* walkers delivered from salvaged shards *)
  live_ranks : int; (* live member count at the end of the run *)
  degraded_generations : int;
  joins : int;
  leaves : int;
  stragglers : int;
  membership_skipped : int; (* events that could not be applied *)
  membership_log : member_record list; (* chronological *)
  gen_p50_s : float; (* per-generation wall-time percentiles *)
  gen_p99_s : float;
  final_walkers : Walker.t list;
  final_e_trial : float;
}

exception All_ranks_lost
exception Interrupted of int

(* What a [run_job] call produced: the usual result plus how the job
   ended.  [drained = true] means the [stop] poll ended it early at a
   generation boundary (deadline/shutdown), with the estimators covering
   the generations actually run; [resumed_from > 0] means the job
   continued bit-identically from a [Snapshot] of that generation
   instead of starting fresh. *)
type job_outcome = {
  job_result : result;
  gens_done : int; (* generations executed by THIS call *)
  drained : bool;
  resumed_from : int;
}

let validate p =
  if p.ranks < 1 then invalid_arg "Supervisor: ranks < 1";
  if p.crowd < 1 then invalid_arg "Supervisor: crowd < 1";
  if p.target_walkers < p.ranks then
    invalid_arg "Supervisor: target_walkers < ranks";
  if p.heartbeat_s <= 0. then invalid_arg "Supervisor: heartbeat_s <= 0";
  if p.max_respawn < 0 then invalid_arg "Supervisor: max_respawn < 0";
  if p.gen_deadline_ms < 0 then invalid_arg "Supervisor: gen_deadline_ms < 0";
  if p.membership <> [] && not p.elastic then
    invalid_arg "Supervisor: membership plan requires elastic = true";
  List.iter
    (fun (g, ev) ->
      if g < 1 then invalid_arg "Supervisor: membership gen < 1";
      match ev with
      | Leave r when r < 0 -> invalid_arg "Supervisor: membership leave rank < 0"
      | _ -> ())
    p.membership

(* Split a [Chaos] schedule into the two supervisor inputs it feeds:
   the rank-fault plan and the membership plan. *)
let of_chaos schedule =
  let faults = Chaos.faults_of schedule in
  let membership =
    List.filter_map
      (fun (g, e) ->
        match e with
        | Chaos.Join -> Some (g, Join)
        | Chaos.Leave r -> Some (g, Leave r)
        | _ -> None)
      schedule
  in
  (faults, membership)

(* Ideal initial split of the global target over the ranks. *)
let shard_counts ~target ~ranks =
  let per = target / ranks and extra = target mod ranks in
  Array.init ranks (fun r -> per + if r < extra then 1 else 0)

(* [after] filters the fault plan to generations this incarnation has
   not yet reached, so a respawned (or slot-refilled) rank cannot
   re-fire the fault that killed its predecessor; the initial spawn
   passes [after = -1]. *)
let rank_config (p : params) ~rank ~incarnation ~after =
  {
    Rank.rank;
    ranks = p.ranks;
    seed = p.seed;
    tau = p.tau;
    target = p.target_walkers;
    n_domains = p.n_domains;
    crowd = p.crowd;
    checkpoint = p.checkpoint;
    checkpoint_keep = p.checkpoint_keep;
    async_checkpoint = p.elastic && p.gen_deadline_ms > 0;
    incarnation;
    faults =
      List.filter_map
        (fun (r, g, f) -> if r = rank && g > after then Some (g, f) else None)
        p.faults;
  }

(* Generation wall-time percentiles via the shared bucketed quantile
   estimator — the same estimator the ledger and Status views use, so
   every reported percentile carries the same semantics. *)
let wall_percentile gen_times q =
  match Metrics.quantile (Metrics.hview_of_values gen_times) q with
  | Some (estimate, _) -> estimate
  | None -> 0.

(* Route SIGTERM/SIGINT through the normal exception unwind so every
   [Fun.protect] finally — child reaping, sink flushing — runs on
   abort.  Returns the saved dispositions for [restore_signals]. *)
let install_signals () =
  List.filter_map
    (fun s ->
      match Sys.signal s (Sys.Signal_handle (fun s -> raise (Interrupted s))) with
      | old -> Some (s, old)
      | exception (Invalid_argument _ | Sys_error _) -> None)
    [ Sys.sigterm; Sys.sigint ]

let restore_signals saved =
  List.iter (fun (s, old) -> try Sys.set_signal s old with _ -> ()) saved

let membership_json (m : member_record) =
  Jsonx.(
    Obj
      [
        ("event", Str m.m_kind);
        ("gen", Num (float_of_int m.m_gen));
        ("rank", Num (float_of_int m.m_rank));
        ("live_ranks", Num (float_of_int m.m_live));
        ("walkers_before", Num (float_of_int m.m_walkers_before));
        ("walkers_after", Num (float_of_int m.m_walkers_after));
      ])

(* A valid job snapshot of THIS job — parameters echoed and matching —
   or [None], which starts the job fresh. *)
let load_snapshot (p : params) = function
  | None -> None
  | Some path -> (
      match Snapshot.load_latest ~path with
      | Some (st, shards)
        when st.Snapshot.seed = p.seed
             && st.Snapshot.ranks = p.ranks
             && st.Snapshot.target = p.target_walkers
             && st.Snapshot.gen <= p.warmup + p.generations ->
          Some (st, shards)
      | _ -> None)

(* The ranks' starting shards: a job snapshot continues the trajectory
   bit-identically; a shard restore replays the checkpointed walkers on
   fresh RNG streams; [None] starts every rank empty, waiting for
   [Init]. *)
let initial_shards (p : params) resume =
  match (resume, p.checkpoint) with
  | Some (st, shards), _ ->
      Some
        (Array.of_list
           (List.map
              (fun (rs : Snapshot.rank_state) ->
                {
                  Rank.e_trial = st.Snapshot.e_trial;
                  walkers = List.assoc rs.Snapshot.r_rank shards;
                  resume =
                    Some
                      {
                        Rank.master = rs.Snapshot.r_master;
                        pool = rs.Snapshot.r_pool;
                        acc = rs.Snapshot.r_acc;
                        prop = rs.Snapshot.r_prop;
                      };
                })
              st.Snapshot.rank_states))
  | None, Some path when p.restore ->
      Option.map
        (fun gen ->
          Array.init p.ranks (fun r ->
              let e_trial, walkers = Checkpoint.load_shard ~path ~rank:r ~gen in
              { Rank.e_trial; walkers; resume = None }))
        (Checkpoint.latest_complete ~path ~ranks:p.ranks)
  | _ -> None

(* ---------- the run record ---------- *)

(* How the protocol reaches its ranks: one run's [Transport.S]. *)
type 'link io = {
  spawn : Rank.config -> Rank.init option -> 'link;
  send : 'link -> Wire.msg -> unit;
  recv : timeout:float -> 'link -> Wire.msg * float;
  ready : timeout:float -> 'link list -> 'link list;
  kill : 'link -> unit;
  close : 'link -> unit;
}

(* A live rank as the supervisor sees it.  A vacant slot has no member:
   it waits in [vacant] for a Join. *)
type 'link member = {
  link : 'link;
  incarnation : int;
  mutable count : int; (* last known shard size *)
  mutable begin_t : float; (* when this gen's Begin_gen was sent *)
  mutable rtt_ewma : float; (* smoothed heartbeat RTT, seconds *)
}

type 'link run = {
  p : params;
  io : 'link io;
  obs : Sup_obs.t;
  startup : float; (* deadline for Hello, Init, Join and Final replies *)
  total_gens : int;
  stop : unit -> bool; (* polled at every generation boundary *)
  snapshot : string option;
  snapshot_every : int;
  members : (int, 'link member) Hashtbl.t;
  mutable vacant : (int * int) list; (* (slot, its next incarnation) *)
  mutable next_id : int; (* first never-used slot *)
  mutable failed : int list; (* this generation's casualties, newest first *)
  mutable gen : int;
  mutable e_trial : float;
  mutable t0 : float; (* end of the startup handshake *)
  ledger : Ledger.t;
  rank_prop : (int, int) Hashtbl.t;
      (* per-rank proposed-move watermark for the ledger: [Reduce]
         carries cumulative totals; a respawn resets them, and the delta
         clamps to 0 *)
  energy : Stats.series;
  mutable pops : int list; (* newest first *)
  mutable samples : int;
  mutable prev_acc : int; (* cumulative move totals at the last reduce *)
  mutable prev_prop : int;
  mutable acc_done : int; (* lifetime totals of ranks already finished *)
  mutable prop_done : int;
  mutable comm_messages : int;
  mutable comm_bytes : int;
  mutable respawns : int;
  mutable crashes : int;
  mutable hb_timeouts : int;
  mutable garbage_frames : int;
  mutable ranks_failed : int list;
  mutable salvaged : int; (* walkers delivered from salvaged shards *)
  mutable degraded : int;
  mutable stragglers : int;
  mutable skipped : int;
  mutable membership_log : member_record list; (* newest first *)
  mutable gen_times : float list;
  mutable rtt_max : float; (* this generation's slowest heartbeat *)
}

let now = Oqmc_containers.Timers.now
let member st r = Hashtbl.find st.members r

let live st =
  Hashtbl.fold (fun id _ acc -> id :: acc) st.members [] |> List.sort compare

let ok st r = Hashtbl.mem st.members r && not (List.mem r st.failed)
let healthy st = List.filter (ok st) (live st)

let walkers_per_s st elapsed =
  if elapsed > 0. then float_of_int st.samples /. elapsed else 0.

let walkers_on st ids =
  List.fold_left (fun a r -> if ok st r then a + (member st r).count else a) 0 ids

(* ---------- failures and the per-rank primitives ---------- *)

(* Why the rank failed: drives the failure counters. *)
type failure = Crash | Stall | Corrupt_stream

(* Record a failure and tear the rank down; recovery runs at the end of
   the generation so surviving ranks stay in lockstep. *)
let fail_rank st r why =
  match Hashtbl.find_opt st.members r with
  | Some s when not (List.mem r st.failed) ->
      let reason =
        match why with
        | Crash -> st.crashes <- st.crashes + 1; "crash"
        | Stall -> st.hb_timeouts <- st.hb_timeouts + 1; "stall"
        | Corrupt_stream -> st.garbage_frames <- st.garbage_frames + 1; "garbage"
      in
      Metrics.inc (Metrics.counter ("sup.rank_failures." ^ reason));
      Trace.instant
        ~args:[ ("rank", string_of_int r); ("reason", reason) ]
        "sup.rank_failed";
      Flightrec.record "rank_failed"
        Jsonx.(
          Obj
            [
              ("rank", Num (float_of_int r));
              ("reason", Str reason);
              ("gen", Num (float_of_int st.gen));
              ("incarnation", Num (float_of_int s.incarnation));
            ]);
      Sup_obs.flight_dump st.obs ("rank_failed:" ^ reason);
      st.io.kill s.link;
      st.failed <- r :: st.failed
  | _ -> ()

(* Run [f] against rank [r], converting wire failures into rank
   failures.  Returns [None] when the rank is not healthy or just
   failed. *)
let guard st r f =
  if not (ok st r) then None
  else
    match f (member st r) with
    | v -> Some v
    | exception Wire.Closed -> fail_rank st r Crash; None
    | exception Wire.Timeout -> fail_rank st r Stall; None
    | exception Wire.Garbage _ -> fail_rank st r Corrupt_stream; None
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> fail_rank st r Crash; None

let recv st s = fst (st.io.recv ~timeout:st.p.heartbeat_s s.link)

let expect st ~timeout r match_ =
  guard st r (fun s ->
      match match_ (fst (st.io.recv ~timeout s.link)) with
      | Some v -> v
      | None -> raise (Wire.Garbage "unexpected frame"))

(* The send-to-all-then-gather round: [msg r] to every healthy rank of
   [ranks], then one reply matching [match_] from each, in [ranks]
   order.  A rank that fails either half is failed and left out. *)
let round st ?(timeout = st.p.heartbeat_s) ranks msg match_ =
  List.iter
    (fun r -> ignore (guard st r (fun s -> st.io.send s.link (msg r))))
    ranks;
  List.filter_map
    (fun r -> Option.map (fun v -> (r, v)) (expect st ~timeout r match_))
    ranks

(* Start one incarnation of a rank.  Its shard size is known at once
   when it restores one; a fresh rank waits for [init_round]. *)
let spawn st cfg init =
  let r = cfg.Rank.rank in
  Hashtbl.replace st.members r
    {
      link = st.io.spawn cfg init;
      incarnation = cfg.Rank.incarnation;
      count = (match init with Some i -> List.length i.Rank.walkers | None -> 0);
      begin_t = 0.;
      rtt_ewma = 0.;
    };
  st.failed <- List.filter (( <> ) r) st.failed

let hello st r =
  expect st ~timeout:st.startup r (function Wire.Hello _ -> Some () | _ -> None)
  <> None

(* Fresh shards: [Init] of [count] walkers for each (rank, count),
   answered by a gen-0 [Reduce].  Returns the summed weight and weighted
   energy, folded in [counts] order. *)
let init_round st counts =
  round st ~timeout:st.startup (List.map fst counts)
    (fun r -> Wire.Init { count = List.assoc r counts })
    (function
      | Wire.Reduce { gen = 0; wsum; esum; n; _ } -> Some (wsum, esum, n)
      | _ -> None)
  |> List.fold_left
       (fun (w, e) (r, (wr, er, n)) ->
         (member st r).count <- n;
         (w +. wr, e +. er))
       (0., 0.)

(* [Finish] to [ranks]; each [Final] adds the rank's lifetime move totals
   and merges its span ring into the supervisor's trace under the rank's
   id, so the exported timeline shows every process on its own track.
   Returns (rank, final shard) for the ranks that answered. *)
let finish st ranks =
  round st ~timeout:st.startup ranks
    (fun _ -> Wire.Finish)
    (function
      | Wire.Final { acc; prop; walkers; trace } ->
          Some (acc, prop, walkers, trace)
      | _ -> None)
  |> List.map (fun (r, (acc, prop, walkers, trace)) ->
         st.acc_done <- st.acc_done + acc;
         st.prop_done <- st.prop_done + prop;
         (if trace <> "" then
            try Trace.ingest ~pid:r trace with Trace.Malformed -> ());
         (r, walkers))

(* Hand [walkers] to the first healthy rank of [dsts] that takes them,
   counting each delivered walker as one exchange message. *)
let deliver st ~gen walkers dsts =
  let n = List.length walkers in
  let rec go = function
    | [] -> ()
    | d :: rest -> (
        match
          guard st d (fun s ->
              st.io.send s.link (Wire.Walkers { gen; walkers });
              s.count <- s.count + n)
        with
        | Some () ->
            st.comm_messages <- st.comm_messages + n;
            List.iter
              (fun w -> st.comm_bytes <- st.comm_bytes + Walker.message_bytes w)
              walkers
        | None -> go rest)
  in
  if n > 0 then go dsts

(* The newest valid checkpoint shard of rank [r], if it ever wrote one. *)
let newest_shard st r =
  match st.p.checkpoint with
  | None -> None
  | Some path -> (
      match Checkpoint.load_latest_shard ~path ~rank:r with
      | _, shard -> Some shard
      | exception Checkpoint.Corrupt _ -> None)

(* Empty slot [r]: its link, member, ledger row and move watermark go,
   and the slot waits for a Join under the incarnation after the one it
   held, so a refill draws its own RNG block. *)
let vacate st r =
  Option.iter
    (fun s ->
      st.io.kill s.link;
      Hashtbl.remove st.members r;
      Ledger.drop_rank st.ledger ~rank:r;
      Hashtbl.remove st.rank_prop r;
      st.vacant <- (r, s.incarnation + 1) :: st.vacant)
    (Hashtbl.find_opt st.members r)

(* Spread rank [r]'s newest checkpoint shard round-robin over the
   healthy ranks, so the run loses no walker a checkpoint still holds. *)
let salvage st ~gen r =
  let salvaged = match newest_shard st r with Some (_, ws) -> ws | None -> [] in
  let survivors = healthy st in
  let k = List.length survivors in
  if k > 0 then st.salvaged <- st.salvaged + List.length salvaged;
  List.iteri
    (fun i dst ->
      deliver st ~gen (List.filteri (fun j _ -> j mod k = i) salvaged)
        (dst :: survivors))
    survivors

(* Give up on rank [r]: vacate its slot and salvage its newest shard. *)
let abandon st ~gen r =
  let incarnation = (member st r).incarnation in
  vacate st r;
  st.ranks_failed <- r :: st.ranks_failed;
  Metrics.inc (Metrics.counter "sup.ranks_abandoned");
  Trace.instant
    ~args:[ ("rank", string_of_int r); ("incarnation", string_of_int incarnation) ]
    "sup.rank_abandoned";
  salvage st ~gen r

(* ---------- the generation phases ---------- *)

(* Phase 2 collector: heartbeat + reduce frames accepted in ARRIVAL
   order, each rank on its own hard deadline (heartbeat_s per frame, as
   in lockstep).  Fast ranks are never blocked behind a stalled
   sibling's timeout, while [reduce] folds the results in ascending rank
   order, keeping the float reduction identical for any arrival order.
   A rank is failed only when nothing is waiting from it past its
   deadline.  Returns rank → (wsum, esum, acc, prop, n, kvs, arrival). *)
let collect st ~gen participants =
  let hb = st.p.heartbeat_s in
  let stage : (int, [ `Hb | `Reduce ]) Hashtbl.t = Hashtbl.create 8 in
  let deadline : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let results = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Hashtbl.replace stage r `Hb;
      Hashtbl.replace deadline r ((member st r).begin_t +. hb))
    participants;
  let pending () =
    List.filter (fun r -> ok st r && not (Hashtbl.mem results r)) participants
  in
  let handle r (m, arrival) =
    let s = member st r in
    match (Hashtbl.find stage r, m) with
    | `Hb, Wire.Heartbeat _ ->
        let rtt = arrival -. s.begin_t in
        Metrics.observe (Metrics.histogram "sup.heartbeat_rtt_s") rtt;
        st.rtt_max <- Float.max st.rtt_max rtt;
        s.rtt_ewma <-
          (if s.rtt_ewma = 0. then rtt else (0.8 *. s.rtt_ewma) +. (0.2 *. rtt));
        Trace.instant
          ~args:
            [
              ("rank", string_of_int r);
              ("rtt_us", string_of_int (int_of_float (rtt *. 1e6)));
            ]
          "sup.heartbeat";
        Hashtbl.replace stage r `Reduce;
        Hashtbl.replace deadline r (now () +. hb)
    | `Reduce, Wire.Reduce { gen = g; wsum; esum; acc; prop; n; telemetry }
      when g = gen ->
        Hashtbl.replace results r (wsum, esum, acc, prop, n, telemetry, arrival)
    | _ -> fail_rank st r Corrupt_stream
  in
  let rec loop () =
    match pending () with
    | [] -> ()
    | ps ->
        let t = now () in
        let wait =
          List.fold_left
            (fun a r -> Float.min a (Hashtbl.find deadline r -. t))
            hb ps
          |> Float.max 0.005
        in
        let ready =
          st.io.ready ~timeout:wait (List.map (fun r -> (member st r).link) ps)
        in
        let is_ready r = List.memq (member st r).link ready in
        List.iter
          (fun r ->
            if is_ready r then
              Option.iter (handle r)
                (guard st r (fun s -> st.io.recv ~timeout:hb s.link)))
          ps;
        let t = now () in
        List.iter
          (fun r ->
            if (not (is_ready r)) && t > Hashtbl.find deadline r then
              fail_rank st r Stall)
          (pending ());
        loop ()
  in
  loop ();
  results

(* Soft-deadline straggler check: the budget plus three smoothed RTTs of
   slack, so only ranks genuinely slower than their own recent history
   are counted. *)
let check_straggler st r s gen_time =
  let soft =
    (float_of_int st.p.gen_deadline_ms /. 1000.) +. (3. *. s.rtt_ewma)
  in
  if gen_time > soft then begin
    st.stragglers <- st.stragglers + 1;
    Ledger.add_straggle st.ledger ~rank:r ~seconds:(gen_time -. soft);
    Metrics.inc (Metrics.counter "sup.stragglers");
    Trace.instant
      ~args:
        [
          ("rank", string_of_int r);
          ("gen_ms", string_of_int (int_of_float (gen_time *. 1e3)));
        ]
      "sup.straggler"
  end

(* Fold the arrivals in ascending rank order and feed the series, each
   rank's ledger row and the straggler check.  Returns the ranks that
   reduced, the generation's energy and its acceptance. *)
let reduce st ~gen participants arrivals =
  let wsum = ref 0. and esum = ref 0. and n_t = ref 0 in
  let acc_t = ref 0 and prop_t = ref 0 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt arrivals r with
      | None -> ()
      | Some (w, e, a, pr, n, kvs, arrival) ->
          wsum := !wsum +. w;
          esum := !esum +. e;
          acc_t := !acc_t + a;
          prop_t := !prop_t + pr;
          n_t := !n_t + n;
          let s = member st r in
          s.count <- n;
          Metrics.absorb_kvs
            (List.map
               (fun (kind, key, value) -> { Metrics.kind; key; value })
               kvs);
          (* Ledger feed: supervisor-side generation wall (Begin_gen send
             to Reduce arrival) over the rank's proposed-move delta. *)
          let gen_time = arrival -. s.begin_t in
          let before = Option.value ~default:0 (Hashtbl.find_opt st.rank_prop r) in
          Hashtbl.replace st.rank_prop r pr;
          Ledger.observe_gen st.ledger ~rank:r ~gen ~moves:(max 0 (pr - before))
            ~wall_s:gen_time;
          if st.p.gen_deadline_ms > 0 then check_straggler st r s gen_time)
    participants;
  let reduced = List.filter (ok st) participants in
  if reduced = [] then raise All_ranks_lost;
  if List.length reduced < st.p.ranks then st.degraded <- st.degraded + 1;
  let e_gen = if !wsum > 0. then !esum /. !wsum else st.e_trial in
  if gen > st.p.warmup then begin
    Stats.append st.energy e_gen;
    st.pops <- !n_t :: st.pops;
    st.samples <- st.samples + !n_t
  end;
  (* Per-generation acceptance from the cumulative move totals the ranks
     report; a respawned rank resets its totals, so the delta is clamped
     at zero for that generation. *)
  let gen_acc = max 0 (!acc_t - st.prev_acc)
  and gen_prop = max 0 (!prop_t - st.prev_prop) in
  st.prev_acc <- !acc_t;
  st.prev_prop <- !prop_t;
  (reduced, e_gen, float_of_int gen_acc /. float_of_int (max 1 gen_prop))

(* Relay one walker batch rank→rank through the supervisor; if the
   destination dies mid-relay the batch goes to the next healthy rank of
   [others] rather than being lost. *)
let relay_move st ~gen rs rd count ~others =
  Option.iter
    (fun walkers -> deliver st ~gen walkers (rd :: others))
    (guard st rs (fun s ->
         st.io.send s.link (Wire.Give { gen; count });
         match recv st s with
         | Wire.Walkers { walkers; _ } ->
             s.count <- s.count - List.length walkers;
             walkers
         | _ -> raise (Wire.Garbage "expected walker batch")))

(* Full load-balance exchange over the healthy ranks of [ids], relayed in
   deterministic [Population.plan] order — phase 4, and the rebalance
   after a join. *)
let relay_exchange st ~gen ids =
  let ids = Array.of_list (List.filter (ok st) ids) in
  List.iter
    (fun { Population.src; dst; count } ->
      Ledger.add_exchange st.ledger ~rank:ids.(src) ~walkers:count;
      Ledger.add_exchange st.ledger ~rank:ids.(dst) ~walkers:count;
      relay_move st ~gen ids.(src) ids.(dst) count ~others:(Array.to_list ids))
    (Population.plan (Array.map (fun r -> (member st r).count) ids))

(* Phase 6: sharded checkpoint round + manifest of the ranks that
   acknowledged their shard. *)
let checkpoint_round st ~gen ranks =
  match st.p.checkpoint with
  | Some path
    when st.p.checkpoint_every > 0 && gen mod st.p.checkpoint_every = 0 ->
      let acked =
        round st ranks
          (fun _ -> Wire.Checkpoint_cmd { gen; e_trial = st.e_trial })
          (function Wire.Ack { gen = g; ok } when g = gen -> Some ok | _ -> None)
        |> List.filter_map (fun (r, ok) -> if ok then Some r else None)
      in
      (try Checkpoint.save_manifest ~path ~gen ~ranks:acked ()
       with Sys_error _ -> ())
  | _ -> ()

(* Respawn rank [r] from its newest shard, or from fresh walkers at its
   ideal share of the target when it has none.  A respawn that never
   starts abandons the rank, as an exhausted budget does. *)
let respawn st ~gen r =
  let incarnation = (member st r).incarnation + 1 in
  st.respawns <- st.respawns + 1;
  let backoff = st.p.respawn_backoff *. float_of_int (1 lsl (incarnation - 1)) in
  Metrics.inc (Metrics.counter "sup.respawns");
  Trace.instant
    ~args:
      [
        ("rank", string_of_int r);
        ("incarnation", string_of_int incarnation);
        ("backoff_s", Printf.sprintf "%.3f" backoff);
      ]
    "sup.respawn";
  Unix.sleepf backoff;
  let init =
    Option.map
      (fun (e_trial, walkers) -> { Rank.e_trial; walkers; resume = None })
      (newest_shard st r)
  in
  spawn st (rank_config st.p ~rank:r ~incarnation ~after:gen) init;
  if hello st r && Option.is_none init then begin
    let want = max 1 (st.p.target_walkers / max 1 (List.length (live st))) in
    ignore (init_round st [ (r, want) ])
  end;
  if not (ok st r) then abandon st ~gen r

(* Phase 7: recovery — respawn this generation's casualties, or abandon
   those whose respawn budget is spent. *)
let recover st ~gen =
  List.iter
    (fun r ->
      if (member st r).incarnation >= st.p.max_respawn then abandon st ~gen r
      else respawn st ~gen r)
    (List.rev st.failed)

(* ---------- elastic membership ---------- *)

(* A transition that happened: counted, traced, logged and emitted, with
   the healthy rank count and shard total after it. *)
let log_membership st ~gen ~kind r ~before =
  Metrics.inc (Metrics.counter ("sup." ^ kind ^ "s"));
  Trace.instant ~args:[ ("rank", string_of_int r) ] ("sup." ^ kind);
  let m =
    {
      m_gen = gen;
      m_kind = kind;
      m_rank = r;
      m_live = List.length (healthy st);
      m_walkers_before = before;
      m_walkers_after = walkers_on st (live st);
    }
  in
  st.membership_log <- m :: st.membership_log;
  Sup_obs.emit_event st.obs (membership_json m)

(* Grow by one rank: the lowest vacant slot, else a fresh id.  A joiner
   that never comes up goes back to the vacancies and the run goes on —
   an elastic run must not die because a grow step failed. *)
let join st ~gen =
  let before = walkers_on st (live st) in
  let id, incarnation =
    match List.sort compare st.vacant with
    | slot :: rest ->
        st.vacant <- rest;
        slot
    | [] ->
        st.next_id <- st.next_id + 1;
        (st.next_id - 1, 0)
  in
  spawn st (rank_config st.p ~rank:id ~incarnation ~after:gen) None;
  let acked =
    hello st id
    && round st ~timeout:st.startup [ id ]
         (fun _ -> Wire.Join { gen; e_trial = st.e_trial })
         (function Wire.Ack { ok; _ } -> Some ok | _ -> None)
       = [ (id, true) ]
  in
  if acked then begin
    relay_exchange st ~gen (live st);
    log_membership st ~gen ~kind:"join" id ~before
  end
  else begin
    vacate st id;
    st.skipped <- st.skipped + 1
  end

(* Retire rank [r] gracefully: its whole shard ships to the first
   healthy survivor and its slot is vacated.  A rank that dies while
   draining is vacated too.  If its drain batch arrived, the batch is
   delivered as a graceful leave's would be; if it died before shipping
   it, its newest checkpoint shard is salvaged, as an abandoned rank's
   is, and the event counts as skipped. *)
let leave st ~gen r =
  if (not (ok st r)) || List.length (healthy st) <= 1 then begin
    st.skipped <- st.skipped + 1;
    Trace.instant ~args:[ ("rank", string_of_int r) ] "sup.leave_skipped"
  end
  else begin
    let before = walkers_on st (live st) in
    let batch = ref None in
    let confirmed =
      guard st r (fun s ->
          st.io.send s.link (Wire.Drain { gen });
          let ws =
            match recv st s with
            | Wire.Walkers { walkers; _ } -> walkers
            | _ -> raise (Wire.Garbage "expected drain batch")
          in
          batch := Some ws;
          match recv st s with
          | Wire.Leave { count; _ } when count = List.length ws -> ()
          | _ -> raise (Wire.Garbage "drain count mismatch"))
    in
    if confirmed <> None && finish st [ r ] <> [] then
      st.io.close (member st r).link;
    vacate st r;
    match !batch with
    | Some ws ->
        deliver st ~gen ws (healthy st);
        log_membership st ~gen ~kind:"leave" r ~before
    | None ->
        Trace.instant ~args:[ ("rank", string_of_int r) ] "sup.leave_salvaged";
        salvage st ~gen r;
        st.skipped <- st.skipped + 1
  end

(* Membership events scheduled for this generation, applied after
   recovery so joins see a settled member set. *)
let apply_membership st ~gen =
  List.iter
    (fun (g, ev) ->
      if g = gen then
        match ev with Join -> join st ~gen | Leave r -> leave st ~gen r)
    st.p.membership

(* ---------- reporting and job snapshots ---------- *)

(* The fields the generation telemetry record and the status snapshot
   share. *)
let gen_fields st ~gen ~e_gen ~population ~elapsed =
  Jsonx.
    [
      ("gen", Num (float_of_int gen));
      ("e_gen", Num e_gen);
      ("e_trial", Num st.e_trial);
      ("population", Num (float_of_int population));
      ("live_ranks", Num (float_of_int (List.length (live st))));
      ("walkers_per_s", Num (walkers_per_s st elapsed));
      ("wall_s", Num elapsed);
    ]

(* The generation's telemetry record (flight recorder, JSONL sink past
   the warmup) and progress line. *)
let report st ~gen ~e_gen ~population ~elapsed ~acceptance =
  let record =
    Jsonx.Obj
      (gen_fields st ~gen ~e_gen ~population ~elapsed
      @ Jsonx.
          [
            ("acceptance", Num acceptance);
            ("rtt_max_s", Num st.rtt_max);
            ( "respawns",
              Num
                (float_of_int
                   (Metrics.counter_value (Metrics.counter "sup.respawns"))) );
          ])
  in
  Flightrec.record "gen" record;
  if gen > st.p.warmup then Sup_obs.emit st.obs ~gen:(gen - st.p.warmup) record;
  Sup_obs.progress st.obs
    (Printf.sprintf
       "dmc[%d/%d ranks] gen %d/%d  E %+.6f  E_T %+.6f  pop %d  acc %.3f  \
        %.0f w/s  lag %.1fms"
       (List.length (live st)) st.p.ranks gen st.total_gens e_gen st.e_trial
       population acceptance (walkers_per_s st elapsed) (1e3 *. st.rtt_max))

(* A job snapshot at a generation boundary: the supervisor's series and
   counters plus every rank's [State].  IO failures are swallowed — a
   snapshot that does not land only costs resume granularity — and a
   round a rank fails to answer is not saved. *)
let save_snapshot st ~gen path =
  let ranks = live st in
  let states =
    round st ranks
      (fun _ -> Wire.State_req { gen })
      (function
        | Wire.State { gen = g; master; pool; acc; prop; walkers } when g = gen ->
            Some (master, pool, acc, prop, walkers)
        | _ -> None)
  in
  if List.length states = List.length ranks then
    let snap =
      {
        Snapshot.gen;
        seed = st.p.seed;
        ranks = st.p.ranks;
        target = st.p.target_walkers;
        e_trial = st.e_trial;
        energy = Stats.to_array st.energy;
        pops = Array.of_list (List.rev st.pops);
        samples = st.samples;
        comm_messages = st.comm_messages;
        comm_bytes = st.comm_bytes;
        rank_states =
          List.map
            (fun (r, (master, pool, acc, prop, _)) ->
              {
                Snapshot.r_rank = r;
                r_master = master;
                r_pool = pool;
                r_acc = acc;
                r_prop = prop;
              })
            states;
      }
    in
    try
      Snapshot.save ~path snap
        (List.map (fun (r, (_, _, _, _, walkers)) -> (r, walkers)) states)
    with Sys_error _ | Checkpoint.Corrupt _ -> ()

(* The generation boundary: poll [stop], write the status file and, on
   the snapshot cadence, a job snapshot.  Graceful early drain: a [stop]
   ends the run here and the normal finals still run, so a
   deadline-stopped job reports consistent partial estimators instead of
   dying mid-protocol.  The snapshot cadence always covers the drain
   point and the final generation, so a suspended job never replays
   work.  Returns whether the run drains. *)
let boundary st ~gen ~e_gen ~population ~elapsed =
  let drained = st.stop () in
  let last = drained || gen = st.total_gens in
  Sup_obs.write_status st.obs ~force:last (fun () ->
      Jsonx.Obj
        (gen_fields st ~gen ~e_gen ~population ~elapsed
        @ [
            ("total_gens", Jsonx.Num (float_of_int st.total_gens));
            ("ledger", Ledger.json st.ledger);
            ("audit", Sup_obs.audit_json ());
          ]));
  (match st.snapshot with
  | Some path when last || gen mod st.snapshot_every = 0 ->
      save_snapshot st ~gen path
  | _ -> ());
  drained

(* One generation, phases 1–7 plus reporting and membership.  Returns
   whether the run drains at its boundary. *)
let generation st ~gen =
  Trace.with_span ~args:[ ("gen", string_of_int gen) ] "sup.generation"
  @@ fun () ->
  let gen_t0 = now () in
  st.gen <- gen;
  st.failed <- [];
  st.rtt_max <- 0.;
  let participants = live st in
  (* Phase 1: open the generation. *)
  List.iter
    (fun r ->
      ignore
        (guard st r (fun s ->
             s.begin_t <- now ();
             st.io.send s.link (Wire.Begin_gen { gen; e_trial = st.e_trial }))))
    participants;
  (* Phase 2: arrival-order collection, ascending-order reduction. *)
  let reduced, e_gen, acceptance =
    reduce st ~gen participants (collect st ~gen participants)
  in
  (* Phase 3: branch, collect post-branch counts. *)
  round st reduced
    (fun _ -> Wire.Branch { gen })
    (function Wire.Count { gen = g; n } when g = gen -> Some n | _ -> None)
  |> List.iter (fun (r, n) -> (member st r).count <- n);
  (* Phase 4: real load-balance exchange. *)
  relay_exchange st ~gen reduced;
  (* Phase 5: global trial-energy feedback from the reduced counts. *)
  let population = walkers_on st reduced in
  st.e_trial <-
    Population.trial_energy_update ~feedback:st.p.feedback ~tau:st.p.tau
      ~target:st.p.target_walkers ~population ~e_estimate:e_gen;
  checkpoint_round st ~gen reduced;
  recover st ~gen;
  if live st = [] then raise All_ranks_lost;
  let elapsed = now () -. st.t0 in
  report st ~gen ~e_gen ~population ~elapsed ~acceptance;
  apply_membership st ~gen;
  let dt = now () -. gen_t0 in
  Metrics.observe (Metrics.histogram "sup.generation_s") dt;
  st.gen_times <- dt :: st.gen_times;
  Sup_obs.fire_window st.obs ~gen st.ledger;
  boundary st ~gen ~e_gen ~population ~elapsed

(* ---------- the run ---------- *)

(* The startup handshake: spawn every rank, collect the Hellos, then
   [Init] fresh shards (the initial trial energy is their weighted mean
   energy) or take the restored ones as they are. *)
let start st inits =
  let p = st.p in
  let ranks = List.init p.ranks Fun.id in
  List.iter
    (fun r ->
      spawn st
        (rank_config p ~rank:r ~incarnation:0 ~after:(-1))
        (Option.map (fun a -> a.(r)) inits))
    ranks;
  List.iter (fun r -> ignore (hello st r)) ranks;
  (st.e_trial <-
     match inits with
     | Some a -> a.(0).Rank.e_trial
     | None ->
         let counts = shard_counts ~target:p.target_walkers ~ranks:p.ranks in
         let w, e = init_round st (List.map (fun r -> (r, counts.(r))) ranks) in
         if w > 0. then e /. w else 0.);
  if st.failed <> [] then
    (* A rank that cannot even start is not worth respawning: fail fast
       rather than mask a broken factory. *)
    failwith "Supervisor: rank startup failed";
  st.t0 <- now ()

(* A resumed job continues its series, counters and move totals;
   returns the generation it resumes after. *)
let resume_from st = function
  | None -> 0
  | Some (snap, _) ->
      Array.iter (Stats.append st.energy) snap.Snapshot.energy;
      st.pops <- List.rev (Array.to_list snap.Snapshot.pops);
      st.comm_messages <- snap.Snapshot.comm_messages;
      st.comm_bytes <- snap.Snapshot.comm_bytes;
      st.samples <- snap.Snapshot.samples;
      List.iter
        (fun (rs : Snapshot.rank_state) ->
          Hashtbl.replace st.rank_prop rs.Snapshot.r_rank rs.Snapshot.r_prop;
          st.prev_acc <- st.prev_acc + rs.Snapshot.r_acc;
          st.prev_prop <- st.prev_prop + rs.Snapshot.r_prop)
        snap.Snapshot.rank_states;
      snap.Snapshot.gen

(* Collect every live rank's final shard and move totals, and build the
   result. *)
let finals st =
  let ranks = live st in
  (* Every member is asked, one that failed after this generation's
     recovery included. *)
  st.failed <- [];
  let finals = finish st ranks in
  List.iter (fun r -> st.io.close (member st r).link) ranks;
  let pops = Array.of_list (List.rev st.pops) in
  let log = List.rev st.membership_log in
  let count kind = List.length (List.filter (fun m -> m.m_kind = kind) log) in
  {
    energy = Stats.series_mean st.energy;
    energy_error = Stats.series_error st.energy;
    variance = Stats.series_variance st.energy;
    tau_corr = Stats.autocorrelation_time st.energy;
    acceptance = float_of_int st.acc_done /. float_of_int (max 1 st.prop_done);
    wall_time = now () -. st.t0;
    mean_population =
      (if Array.length pops = 0 then 0.
       else
         float_of_int (Array.fold_left ( + ) 0 pops)
         /. float_of_int (Array.length pops));
    energy_series = Stats.to_array st.energy;
    population_series = pops;
    comm_messages = st.comm_messages;
    comm_bytes = st.comm_bytes;
    respawns = st.respawns;
    heartbeat_timeouts = st.hb_timeouts;
    garbage_frames = st.garbage_frames;
    crashes = st.crashes;
    ranks_failed = List.sort compare st.ranks_failed;
    walkers_salvaged = st.salvaged;
    live_ranks = List.length ranks;
    degraded_generations = st.degraded;
    joins = count "join";
    leaves = count "leave";
    stragglers = st.stragglers;
    membership_skipped = st.skipped;
    membership_log = log;
    gen_p50_s = wall_percentile st.gen_times 0.50;
    gen_p99_s = wall_percentile st.gen_times 0.99;
    final_walkers = List.concat_map snd finals;
    final_e_trial = st.e_trial;
  }

let make_run (p : params) io obs ~stop ~snapshot ~snapshot_every =
  {
    p;
    io;
    obs;
    startup = Float.max 30. (10. *. p.heartbeat_s);
    total_gens = p.warmup + p.generations;
    stop;
    snapshot;
    snapshot_every;
    members = Hashtbl.create 16;
    vacant = [];
    next_id = p.ranks;
    failed = [];
    gen = 0;
    e_trial = 0.;
    t0 = 0.;
    ledger = Ledger.create ();
    rank_prop = Hashtbl.create 8;
    energy = Stats.make_series ();
    pops = [];
    samples = 0;
    prev_acc = 0;
    prev_prop = 0;
    acc_done = 0;
    prop_done = 0;
    comm_messages = 0;
    comm_bytes = 0;
    respawns = 0;
    crashes = 0;
    hb_timeouts = 0;
    garbage_frames = 0;
    ranks_failed = [];
    salvaged = 0;
    degraded = 0;
    stragglers = 0;
    skipped = 0;
    membership_log = [];
    gen_times = [];
    rtt_max = 0.;
  }

(* The one generation loop, over any transport.  [stop] is polled at
   every generation boundary; [snapshot] persists the job's full
   dynamical state every [snapshot_every] generations (and at drain and
   completion) and resumes from the newest valid snapshot. *)
let run_ext (module T : Transport.S) ~(factory : int -> Engine_api.t)
    ~handle_signals ~stop ~snapshot ~snapshot_every (p : params) : job_outcome =
  validate p;
  if snapshot <> None && p.membership <> [] then
    invalid_arg "Supervisor: job snapshots require an empty membership plan";
  if snapshot_every < 1 then invalid_arg "Supervisor: snapshot_every < 1";
  (* Observability must attach BEFORE any fork so children inherit the
     tracing-enabled flag; the supervisor's own spans carry pid -1, rank
     blobs are ingested under their rank id at Final time. *)
  let obs =
    Sup_obs.create ~trace:p.trace ~telemetry:p.telemetry
      ~telemetry_every:p.telemetry_every ~progress:p.progress
      ~flightrec:p.flightrec ~status:p.status ~on_window:p.on_window
  in
  if Trace.enabled () then Trace.set_rank (-1);
  let saved_signals = if handle_signals then install_signals () else [] in
  let tr = T.create ~factory in
  let cleanup () =
    T.teardown tr;
    restore_signals saved_signals;
    Sup_obs.close obs
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  try
    let io =
      {
        spawn = T.spawn tr;
        send = T.send;
        recv = T.recv;
        ready = T.ready;
        kill = T.kill;
        close = T.close;
      }
    in
    let st = make_run p io obs ~stop ~snapshot ~snapshot_every in
    let resume = load_snapshot p snapshot in
    start st (initial_shards p resume);
    let start_gen = resume_from st resume in
    let rec loop gen =
      if gen > st.total_gens then gen - 1
      else if generation st ~gen then gen
      else loop (gen + 1)
    in
    let last_gen = loop (start_gen + 1) in
    {
      job_result = finals st;
      gens_done = last_gen - start_gen;
      drained = last_gen < st.total_gens;
      resumed_from = start_gen;
    }
  with e ->
    (* Abort unwind — [All_ranks_lost], [Interrupted], startup failure:
       dump the flight recorder before [cleanup] closes the sinks. *)
    let bt = Printexc.get_raw_backtrace () in
    Sup_obs.flight_dump obs (Printexc.to_string e);
    Printexc.raise_with_backtrace e bt

let never () = false

let run ~(factory : int -> Engine_api.t) (p : params) : result =
  (run_ext (module Transport.Pipes) ~factory ~handle_signals:true ~stop:never
     ~snapshot:None ~snapshot_every:1 p)
    .job_result

(* In-process ranks share this process, and fault injection acts on a
   whole process: a fault plan needs forked ranks. *)
let run_in_process ~factory ~handle_signals ~stop ~snapshot ~snapshot_every
    (p : params) =
  if p.faults <> [] then
    invalid_arg "Supervisor: fault injection requires forked ranks";
  run_ext (module Transport.Mailbox) ~factory ~handle_signals ~stop ~snapshot
    ~snapshot_every p

let run_local ~(factory : int -> Engine_api.t) (p : params) : result =
  (run_in_process ~factory ~handle_signals:true ~stop:never ~snapshot:None
     ~snapshot_every:1 p)
    .job_result

(* ---------- the reentrant per-job entry point ----------

   What the serve daemon calls once per accepted job: the in-process
   transport, with no signal handlers of its own — the caller (a job
   runner process) owns its signal policy and threads it through
   [stop] — and job snapshots every [snapshot_every] generations, which
   is how a crashed or suspended job continues without replaying work. *)
let run_job ~(factory : int -> Engine_api.t) ?(stop = never) ?snapshot
    ?(snapshot_every = 1) (p : params) : job_outcome =
  run_in_process ~factory ~handle_signals:false ~stop ~snapshot
    ~snapshot_every p
