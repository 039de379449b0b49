open Oqmc_particle
open Oqmc_core
module Trace = Oqmc_obs.Trace
module Metrics = Oqmc_obs.Metrics
module Telemetry = Oqmc_obs.Telemetry
module Progress = Oqmc_obs.Progress
module Ledger = Oqmc_obs.Ledger
module Flightrec = Oqmc_obs.Flightrec

(* Supervised multi-rank DMC execution.

   One generation loop ([run_ext]) drives N worker ranks through the
   Wire protocol:

     Begin_gen → (Heartbeat, Reduce) → Branch → Count
       → Give/Walkers relays (real load-balance exchange)
       → Checkpoint_cmd/Ack rounds → [State_req/State] → … → Finish/Final

   It reaches the ranks only through a [Transport]: [run] forks one Unix
   process per rank and talks over pipes (real fault isolation: a
   segfault, OOM kill or poisoned domain takes down ONE rank, not the
   run); [run_local] and [run_job] keep the ranks in this process behind
   reply queues.  Both run every rank command through [Rank.handle].

   The rank set is ELASTIC: the membership plan can grow the set
   mid-run (fork + [Join] + rebalance through the exchange relays) and
   retire ranks gracefully ([Drain] → the whole shard ships to the
   survivors → Finish/reap).  Slots lost to unrecoverable failures are
   refillable by later joins, so degraded mode is reversible.

   Generations are deadline-budgeted rather than hard-lockstep: phase 2
   collects heartbeat/reduce frames in ARRIVAL order (folding the float
   reduction in ascending rank order, so the trajectory does not depend
   on arrival order), and a
   rank that blows its soft deadline — [gen_deadline_ms] plus three
   heartbeat-RTT EWMAs of slack — is handled per [straggler_policy]:
   warn (count it) or quarantine (three consecutive misses → treated
   as a stall and respawned).

   Robustness machinery, exercised deterministically by the Fault rank
   injectors and the [Chaos] schedule planner:

   - every read of a rank carries the heartbeat deadline: a stalled rank
     surfaces as [Wire.Timeout], a crashed one as [Wire.Closed] (EOF,
     confirmed by [waitpid]), a corrupted stream as [Wire.Garbage];
   - a failed rank is SIGKILLed, reaped and respawned with exponential
     backoff from its newest *valid* checkpoint shard
     ([Checkpoint.load_latest_shard]) — or from fresh walkers when it
     never checkpointed — rejoining at the next generation;
   - after [max_respawn] respawns the rank is declared unrecoverable:
     its last shard is salvaged and redistributed over the survivors,
     its slot is marked vacant (a later Join refills it with a fresh
     incarnation), and the run continues degraded.  The mixed estimator
     Σw·E_L / Σw is self-normalizing, so dropping a rank's terms from a
     generation leaves the energy unbiased (see docs/ROBUSTNESS.md);
   - SIGTERM/SIGINT raise [Interrupted] so the normal unwind path runs:
     children reaped, telemetry/trace sinks flushed and closed — the
     JSONL tail stays parseable even on abort;
   - with zero injected faults the two transports are BIT-IDENTICAL,
     membership plan included (asserted in test/test_dist.ml).

   The supervisor itself never spawns OCaml domains, so forking stays
   safe at any point of the run; callers must not hold live domains of
   their own across a [run] call.  (Forked ranks DO spawn domains —
   including the [Checkpoint.Async] writer — but only after the fork.) *)

type straggler_policy = Warn | Quarantine

let straggler_policy_of_string = function
  | "warn" -> Some Warn
  | "quarantine" -> Some Quarantine
  | _ -> None

let straggler_policy_name = function
  | Warn -> "warn"
  | Quarantine -> "quarantine"

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
  straggler_policy : straggler_policy;
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
    straggler_policy = Warn;
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

(* ---------- result statistics ---------- *)

(* Generation wall-time percentiles via the shared bucketed quantile
   estimator — the same estimator the ledger and Status views use, so
   every reported percentile carries the same semantics. *)
let wall_percentile gen_times q =
  match Metrics.quantile (Metrics.hview_of_values gen_times) q with
  | Some (estimate, _) -> estimate
  | None -> 0.

(* ---------- observability plumbing ----------

   Enables tracing when a trace path is requested (forked ranks inherit
   the enabled flag, so this must happen BEFORE any fork), opens the
   JSONL sink and the live progress line, and hands back emit/update
   callbacks plus a [close] that flushes and exports everything.
   [close] is failure-isolated: a broken progress line or sink cannot
   keep the others from flushing, so the telemetry tail stays
   parseable on every abort path.  None of this touches the physics or
   the RNG streams. *)
let obs_setup (p : params) =
  if p.trace <> None && not (Trace.enabled ()) then Trace.enable ();
  let sink = Option.map Telemetry.create p.telemetry in
  let prog = if p.progress then Some (Progress.create ()) else None in
  let every = max 1 p.telemetry_every in
  let emit ~gen record =
    match sink with
    | Some s when gen mod every = 0 -> Telemetry.emit s record
    | _ -> ()
  in
  (* Unfiltered emit for sparse structural records (membership events):
     these must never be dropped by the telemetry_every decimation. *)
  let emit_event record =
    match sink with Some s -> Telemetry.emit s record | None -> ()
  in
  let update line =
    match prog with Some pr -> Progress.update pr line | None -> ()
  in
  let close () =
    (try match prog with Some pr -> Progress.finish pr | None -> ()
     with _ -> ());
    (try match sink with Some s -> Telemetry.close s | None -> ()
     with _ -> ());
    try match p.trace with Some path -> Trace.export ~path | None -> ()
    with _ -> ()
  in
  (emit, emit_event, update, close)

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
  Oqmc_obs.Jsonx.(
    Obj
      [
        ("event", Str m.m_kind);
        ("gen", Num (float_of_int m.m_gen));
        ("rank", Num (float_of_int m.m_rank));
        ("live_ranks", Num (float_of_int m.m_live));
        ("walkers_before", Num (float_of_int m.m_walkers_before));
        ("walkers_after", Num (float_of_int m.m_walkers_after));
      ])

(* Dump the flight-recorder ring to the configured postmortem path.
   Failures are swallowed — the recorder must never turn one abort into
   a different one. *)
let flight_dump (p : params) reason =
  match p.flightrec with
  | None -> ()
  | Some path -> ( try Flightrec.dump ~reason ~path () with _ -> ())

(* Live per-job status file: a small JSON snapshot written to a temp
   file and atomically renamed into place, throttled to ~4 Hz.  The
   serve daemon's Status endpoint reads (never writes) this file, so a
   crashed runner leaves its last consistent snapshot behind. *)
let status_writer (p : params) =
  match p.status with
  | None -> fun ~force:_ _ -> ()
  | Some path ->
      let last = ref 0. in
      fun ~force mk ->
        let now = Oqmc_containers.Timers.now () in
        if force || now -. !last >= 0.25 then begin
          last := now;
          try
            let tmp = path ^ ".tmp" in
            let oc = open_out tmp in
            output_string oc (Oqmc_obs.Jsonx.to_string (mk ()));
            output_char oc '\n';
            close_out oc;
            Sys.rename tmp path
          with Sys_error _ | Unix.Unix_error _ -> ()
        end

(* Sparse structural telemetry record carrying the per-rank ledger
   windows (emitted every ledger window, decimation-proof). *)
let ledger_event ~gen ledger =
  Oqmc_obs.Jsonx.(
    Obj
      [
        ("event", Str "ledger");
        ("gen", Num (float_of_int gen));
        ("ranks", Ledger.json ledger);
      ])

(* How often (in generations) the ledger windows are pushed to the
   JSONL sink — matches [Ledger.create]'s default window. *)
let ledger_emit_every = 16

(* Registry [audit.*] gauges — set by the driver's efficiency audit
   through the [on_window] hook — echoed verbatim into the status
   snapshot so a Status query surfaces live efficiency numbers. *)
let audit_json () =
  Oqmc_obs.Jsonx.Obj
    (List.filter_map
       (fun (name, v) ->
         match v with
         | Metrics.Gauge g
           when String.length name > 6 && String.sub name 0 6 = "audit." ->
             Some (name, Oqmc_obs.Jsonx.Num g)
         | _ -> None)
       (Metrics.snapshot ()))

let fire_window (p : params) gen =
  if gen mod ledger_emit_every = 0 then
    match p.on_window with
    | None -> ()
    | Some f -> ( try f gen with _ -> ())

(* ---------- the generation protocol ---------- *)

(* A rank as the supervisor sees it, over any transport. *)
type 'link member = {
  id : int;
  link : 'link;
  mutable dead : bool; (* permanently abandoned *)
  incarnation : int;
  mutable count : int; (* last known shard size *)
  mutable begin_t : float; (* when this gen's Begin_gen was sent *)
  mutable rtt_ewma : float; (* smoothed heartbeat RTT, seconds *)
  mutable straggles : int; (* consecutive soft-deadline misses *)
}

(* Why the rank failed: drives the failure counters. *)
type failure = Crash | Stall | Corrupt_stream

let startup_timeout (p : params) = Float.max 30. (10. *. p.heartbeat_s)

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
     tracing-enabled flag; the supervisor's own spans carry pid -1,
     rank blobs are ingested under their rank id at Final time. *)
  let emit, emit_event, update_progress, obs_close = obs_setup p in
  if Trace.enabled () then Trace.set_rank (-1);
  let saved_signals = if handle_signals then install_signals () else [] in
  let tr = T.create ~factory in
  let cleanup () =
    T.teardown tr;
    restore_signals saved_signals;
    obs_close ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  try
  (* The member table: rank id → rank.  Abandoned members stay in the
     table (dead = true) until their slot is refilled by a Join, which
     overwrites the entry with a fresh incarnation. *)
  let members : (int, T.link member) Hashtbl.t = Hashtbl.create 16 in
  let vacant = ref [] and next_id = ref p.ranks in
  let incarnations : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let spawn ~cfg ~init =
    let s =
      {
        id = cfg.Rank.rank;
        link = T.spawn tr cfg init;
        dead = false;
        incarnation = cfg.Rank.incarnation;
        count = 0;
        begin_t = 0.;
        rtt_ewma = 0.;
        straggles = 0;
      }
    in
    Hashtbl.replace members s.id s
  in
  let hb = p.heartbeat_s in
  let respawns = ref 0 in
  let hb_timeouts = ref 0 and garbage_frames = ref 0 and crashes = ref 0 in
  let ranks_failed = ref [] in
  let degraded_generations = ref 0 in
  let comm_messages = ref 0 and comm_bytes = ref 0 in
  let joins = ref 0 and leaves = ref 0 in
  let stragglers = ref 0 in
  let skipped = ref 0 in
  let membership_log = ref [] in
  let gen_times = ref [] in
  let acc_left = ref 0 and prop_left = ref 0 in
  let energy_series = Stats.make_series () in
  let pop_series = ref [] in
  let samples = ref 0 in
  (* -------- spawn + initial ensemble -------- *)
  (* A job snapshot continues the trajectory bit-identically; a shard
     restore replays the checkpointed walkers on fresh RNG streams. *)
  let resume = load_snapshot p snapshot in
  let inits =
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
                let e_trial, walkers =
                  Checkpoint.load_shard ~path ~rank:r ~gen
                in
                { Rank.e_trial; walkers; resume = None }))
          (Checkpoint.latest_complete ~path ~ranks:p.ranks)
    | _ -> None
  in
  let counts = shard_counts ~target:p.target_walkers ~ranks:p.ranks in
  for r = 0 to p.ranks - 1 do
    spawn
      ~cfg:(rank_config p ~rank:r ~incarnation:0 ~after:(-1))
      ~init:(Option.map (fun a -> a.(r)) inits)
  done;
  let find r = Hashtbl.find_opt members r in
  let proc r = Hashtbl.find members r in
  let live () =
    Hashtbl.fold (fun id s acc -> if s.dead then acc else id :: acc) members []
    |> List.sort compare
  in
  (* Record a failure and tear the rank down; respawn happens at the end
     of the generation so surviving ranks stay in lockstep. *)
  let failed_this_gen = ref [] in
  let cur_gen = ref 0 in
  let fail_rank r why =
    match find r with
    | None -> ()
    | Some s ->
        if (not s.dead) && not (List.mem r !failed_this_gen) then begin
          let reason =
            match why with
            | Crash -> incr crashes; "crash"
            | Stall -> incr hb_timeouts; "stall"
            | Corrupt_stream -> incr garbage_frames; "garbage"
          in
          Metrics.inc (Metrics.counter ("sup.rank_failures." ^ reason));
          Trace.instant
            ~args:[ ("rank", string_of_int r); ("reason", reason) ]
            "sup.rank_failed";
          Flightrec.record "rank_failed"
            Oqmc_obs.Jsonx.(
              Obj
                [
                  ("rank", Num (float_of_int r));
                  ("reason", Str reason);
                  ("gen", Num (float_of_int !cur_gen));
                  ("incarnation", Num (float_of_int s.incarnation));
                ]);
          flight_dump p ("rank_failed:" ^ reason);
          T.kill s.link;
          failed_this_gen := r :: !failed_this_gen
        end
  in
  let ok_rank r =
    match find r with
    | Some s -> (not s.dead) && not (List.mem r !failed_this_gen)
    | None -> false
  in
  (* Run [f] against rank [r], converting wire failures into rank
     failures.  Returns [None] when the rank just failed. *)
  let guard r f =
    if not (ok_rank r) then None
    else
      match f (proc r) with
      | v -> Some v
      | exception Wire.Closed -> fail_rank r Crash; None
      | exception Wire.Timeout -> fail_rank r Stall; None
      | exception Wire.Garbage _ -> fail_rank r Corrupt_stream; None
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
          fail_rank r Crash; None
  in
  let send s m = T.send s.link m in
  let recv ?(timeout = hb) s = fst (T.recv ~timeout s.link) in
  let recv_expect ?(timeout = hb) r match_ =
    guard r (fun s ->
        match match_ (recv ~timeout s) with
        | Some v -> v
        | None -> raise (Wire.Garbage "unexpected frame"))
  in
  (* -------- handshake: Hello (+ Init reduce on fresh spawns) -------- *)
  let startup = startup_timeout p in
  let w0 = ref 0. and e0 = ref 0. in
  for r = 0 to p.ranks - 1 do
    ignore
      (recv_expect ~timeout:startup r (function
        | Wire.Hello _ -> Some ()
        | _ -> None))
  done;
  (match inits with
  | Some a ->
      Array.iteri (fun r i -> (proc r).count <- List.length i.Rank.walkers) a
  | None ->
      for r = 0 to p.ranks - 1 do
        ignore (guard r (fun s -> send s (Wire.Init { count = counts.(r) })))
      done;
      for r = 0 to p.ranks - 1 do
        match
          recv_expect ~timeout:startup r (function
            | Wire.Reduce { gen = 0; wsum; esum; n; _ } -> Some (wsum, esum, n)
            | _ -> None)
        with
        | Some (w, e, n) ->
            w0 := !w0 +. w;
            e0 := !e0 +. e;
            (proc r).count <- n
        | None -> ()
      done);
  let e_trial =
    ref
      (match inits with
      | Some a -> a.(0).Rank.e_trial
      | None -> if !w0 > 0. then !e0 /. !w0 else 0.)
  in
  if !failed_this_gen <> [] then
    (* A rank that cannot even start is not worth respawning: fail fast
       rather than mask a broken factory. *)
    failwith "Supervisor: rank startup failed";
  let t0 = Oqmc_containers.Timers.now () in
  let total_gens = p.warmup + p.generations in
  let total_walkers () =
    List.fold_left
      (fun a r -> if ok_rank r then a + (proc r).count else a)
      0 (live ())
  in
  (* Heartbeat RTT is measured supervisor-side — Begin_gen send to
     Heartbeat receipt — so the wire protocol needs no clock exchange. *)
  let m_rtt = Metrics.histogram "sup.heartbeat_rtt_s" in
  let m_gen_s = Metrics.histogram "sup.generation_s" in
  let ledger = Ledger.create () in
  let write_status = status_writer p in
  (* Per-rank proposed-move watermarks for the ledger ([Reduce] carries
     cumulative totals; a respawn resets them, the delta clamps to 0). *)
  let rank_prop : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let prev_acc = ref 0 and prev_prop = ref 0 in
  let rtt_max = ref 0. in
  (* A resumed job continues its series, counters and move totals. *)
  let start_gen =
    match resume with
    | None -> 0
    | Some (st, _) ->
        Array.iter (fun e -> Stats.append energy_series e) st.Snapshot.energy;
        pop_series := List.rev (Array.to_list st.Snapshot.pops);
        comm_messages := st.Snapshot.comm_messages;
        comm_bytes := st.Snapshot.comm_bytes;
        samples := st.Snapshot.samples;
        List.iter
          (fun (rs : Snapshot.rank_state) ->
            Hashtbl.replace rank_prop rs.Snapshot.r_rank rs.Snapshot.r_prop;
            prev_acc := !prev_acc + rs.Snapshot.r_acc;
            prev_prop := !prev_prop + rs.Snapshot.r_prop)
          st.Snapshot.rank_states;
        st.Snapshot.gen
  in
  (* Phase 2 collector: heartbeat + reduce frames accepted in ARRIVAL
     order, each rank on its own hard deadline (heartbeat_s per frame,
     as in lockstep).  Fast ranks are never blocked behind a stalled
     sibling's timeout — the soak's barrier softening — while the caller
     folds the results in ascending rank order, keeping the float
     reduction identical for any arrival order.  A rank is failed only
     when nothing is waiting from it past its deadline.  Returns rank →
     (wsum, esum, acc, prop, n, kvs, arrival_time). *)
  let collect_phase2 ~gen participants =
    let now () = Oqmc_containers.Timers.now () in
    let stage : (int, [ `Hb | `Reduce ]) Hashtbl.t = Hashtbl.create 8 in
    let deadline : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let results = Hashtbl.create 8 in
    List.iter
      (fun r ->
        Hashtbl.replace stage r `Hb;
        Hashtbl.replace deadline r ((proc r).begin_t +. hb))
      participants;
    let pending () =
      List.filter
        (fun r -> ok_rank r && not (Hashtbl.mem results r))
        participants
    in
    let handle r (m, arrival) =
      let s = proc r in
      match (Hashtbl.find stage r, m) with
      | `Hb, Wire.Heartbeat _ ->
          let rtt = arrival -. s.begin_t in
          Metrics.observe m_rtt rtt;
          rtt_max := Float.max !rtt_max rtt;
          s.rtt_ewma <-
            (if s.rtt_ewma = 0. then rtt
             else (0.8 *. s.rtt_ewma) +. (0.2 *. rtt));
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
          Hashtbl.replace results r
            (wsum, esum, acc, prop, n, telemetry, arrival)
      | _ -> fail_rank r Corrupt_stream
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
            T.ready ~timeout:wait (List.map (fun r -> (proc r).link) ps)
          in
          List.iter
            (fun r ->
              if List.memq (proc r).link ready then
                match guard r (fun s -> T.recv ~timeout:hb s.link) with
                | Some m -> handle r m
                | None -> ())
            ps;
          let t = now () in
          List.iter
            (fun r ->
              if
                (not (List.memq (proc r).link ready))
                && t > Hashtbl.find deadline r
              then fail_rank r Stall)
            (pending ());
          loop ()
    in
    loop ();
    results
  in
  (* Relay one walker batch rank→rank through the supervisor, counting
     the communication volume; if the destination dies mid-relay the
     batch is rerouted to the first other healthy rank in [others]
     rather than lost. *)
  let relay_move ~gen rs rd count ~others =
    match
      guard rs (fun s ->
          send s (Wire.Give { gen; count });
          match recv s with
          | Wire.Walkers { walkers; _ } -> walkers
          | _ -> raise (Wire.Garbage "expected walker batch"))
    with
    | None -> ()
    | Some walkers ->
        (proc rs).count <- (proc rs).count - List.length walkers;
        List.iter
          (fun w ->
            incr comm_messages;
            comm_bytes := !comm_bytes + Walker.message_bytes w)
          walkers;
        let deliver rank =
          guard rank (fun s ->
              send s (Wire.Walkers { gen; walkers });
              s.count <- s.count + List.length walkers)
        in
        (match deliver rd with
        | Some () -> ()
        | None -> (
            match
              List.find_opt (fun r -> ok_rank r && r <> rd) others
            with
            | Some alt -> ignore (deliver alt)
            | None -> ()))
  in
  (* Full load-balance exchange over [ids] (healthy subset), relayed in
     deterministic [Population.plan] order — shared by phase 4 and the
     post-join rebalance. *)
  let relay_exchange ~gen ids =
    let ids = Array.of_list (List.filter ok_rank ids) in
    let moves = Population.plan (Array.map (fun r -> (proc r).count) ids) in
    List.iter
      (fun { Population.src; dst; count } ->
        Ledger.add_exchange ledger ~rank:ids.(src) ~walkers:count;
        Ledger.add_exchange ledger ~rank:ids.(dst) ~walkers:count;
        relay_move ~gen ids.(src) ids.(dst) count
          ~others:(Array.to_list ids))
      moves
  in
  (* -------- elastic membership -------- *)
  let do_join ~gen =
    let before = total_walkers () in
    let id, incarnation =
      match List.sort compare !vacant with
      | v :: rest ->
          vacant := rest;
          (v, Option.value ~default:0 (Hashtbl.find_opt incarnations v))
      | [] ->
          let id = !next_id in
          incr next_id;
          (id, 0)
    in
    spawn ~cfg:(rank_config p ~rank:id ~incarnation ~after:gen) ~init:None;
    failed_this_gen := List.filter (fun x -> x <> id) !failed_this_gen;
    let ok =
      match
        recv_expect ~timeout:(startup_timeout p) id (function
          | Wire.Hello _ -> Some ()
          | _ -> None)
      with
      | None -> false
      | Some () -> (
          ignore
            (guard id (fun s ->
                 send s (Wire.Join { gen; e_trial = !e_trial })));
          match
            recv_expect ~timeout:(startup_timeout p) id (function
              | Wire.Ack { ok; _ } -> Some ok
              | _ -> None)
          with
          | Some true -> true
          | _ -> false)
    in
    if not ok then begin
      (* The joiner never came up: restore the vacancy (with a fresh
         incarnation so a retry gets its own RNG block) and move on —
         an elastic run must not die because a grow step failed. *)
      Option.iter (fun s -> T.kill s.link) (find id);
      Hashtbl.remove members id;
      vacant := id :: !vacant;
      Hashtbl.replace incarnations id (incarnation + 1);
      incr skipped
    end
    else begin
      (proc id).count <- 0;
      relay_exchange ~gen (live ());
      incr joins;
      Metrics.inc (Metrics.counter "sup.joins");
      Trace.instant ~args:[ ("rank", string_of_int id) ] "sup.join";
      let m =
        {
          m_gen = gen;
          m_kind = "join";
          m_rank = id;
          m_live = List.length (List.filter ok_rank (live ()));
          m_walkers_before = before;
          m_walkers_after = total_walkers ();
        }
      in
      membership_log := m :: !membership_log;
      emit_event (membership_json m)
    end
  in
  let do_leave ~gen r =
    if (not (ok_rank r)) || List.length (List.filter ok_rank (live ())) <= 1
    then begin
      incr skipped;
      Trace.instant ~args:[ ("rank", string_of_int r) ] "sup.leave_skipped"
    end
    else begin
      let before = total_walkers () in
      let s = proc r in
      let incarnation = s.incarnation in
      let drained =
        guard r (fun s ->
            send s (Wire.Drain { gen });
            let ws =
              match recv s with
              | Wire.Walkers { walkers; _ } -> walkers
              | _ -> raise (Wire.Garbage "expected drain batch")
            in
            (match recv s with
            | Wire.Leave { count; _ } when count = List.length ws -> ()
            | _ -> raise (Wire.Garbage "drain count mismatch"));
            send s Wire.Finish;
            (match recv ~timeout:(startup_timeout p) s with
            | Wire.Final { acc = a; prop = pr; trace; _ } ->
                acc_left := !acc_left + a;
                prop_left := !prop_left + pr;
                if trace <> "" then (
                  try Trace.ingest ~pid:r trace with Trace.Malformed -> ())
            | _ -> raise (Wire.Garbage "expected final"));
            ws)
      in
      match drained with
      | None ->
          (* The rank died mid-drain: [guard] already reaped it and its
             shard walkers are gone until the next checkpoint salvage.
             Record the slot as vacant so a later join can refill it. *)
          Hashtbl.remove members r;
          vacant := r :: !vacant;
          Hashtbl.replace incarnations r (incarnation + 1);
          incr skipped
      | Some ws ->
          T.close s.link;
          Hashtbl.remove members r;
          Ledger.drop_rank ledger ~rank:r;
          Hashtbl.remove rank_prop r;
          vacant := r :: !vacant;
          Hashtbl.replace incarnations r (incarnation + 1);
          (match List.filter ok_rank (live ()) with
          | [] -> ()
          | dst :: _ ->
              List.iter
                (fun w ->
                  incr comm_messages;
                  comm_bytes := !comm_bytes + Walker.message_bytes w)
                ws;
              if ws <> [] then
                ignore
                  (guard dst (fun sd ->
                       send sd (Wire.Walkers { gen; walkers = ws });
                       sd.count <- sd.count + List.length ws)));
          incr leaves;
          Metrics.inc (Metrics.counter "sup.leaves");
          Trace.instant ~args:[ ("rank", string_of_int r) ] "sup.leave";
          let m =
            {
              m_gen = gen;
              m_kind = "leave";
              m_rank = r;
              m_live = List.length (List.filter ok_rank (live ()));
              m_walkers_before = before;
              m_walkers_after = total_walkers ();
            }
          in
          membership_log := m :: !membership_log;
          emit_event (membership_json m)
    end
  in
  (* -------- generation loop -------- *)
  (* A job snapshot at a generation boundary: the supervisor's series and
     counters plus every rank's [State].  IO failures are swallowed — a
     snapshot that does not land only costs resume granularity — and a
     round a rank fails to answer is not saved. *)
  let save_snapshot ~gen path =
    let ranks = live () in
    let states =
      List.filter_map
        (fun r ->
          ignore (guard r (fun s -> send s (Wire.State_req { gen })));
          recv_expect r (function
            | Wire.State { gen = g; master; pool; acc; prop; walkers }
              when g = gen ->
                Some
                  ( {
                      Snapshot.r_rank = r;
                      r_master = master;
                      r_pool = pool;
                      r_acc = acc;
                      r_prop = prop;
                    },
                    (r, walkers) )
            | _ -> None))
        ranks
    in
    if List.length states = List.length ranks then
      let st =
        {
          Snapshot.gen;
          seed = p.seed;
          ranks = p.ranks;
          target = p.target_walkers;
          e_trial = !e_trial;
          energy = Stats.to_array energy_series;
          pops = Array.of_list (List.rev !pop_series);
          samples = !samples;
          comm_messages = !comm_messages;
          comm_bytes = !comm_bytes;
          rank_states = List.map fst states;
        }
      in
      try Snapshot.save ~path st (List.map snd states)
      with Sys_error _ | Checkpoint.Corrupt _ -> ()
  in
  let gen_ref = ref (start_gen + 1) in
  let job_drained = ref false in
  while (not !job_drained) && !gen_ref <= total_gens do
    let gen = !gen_ref in
    Trace.with_span ~args:[ ("gen", string_of_int gen) ] "sup.generation"
    @@ fun () ->
    let gen_t0 = Oqmc_containers.Timers.now () in
    cur_gen := gen;
    failed_this_gen := [];
    rtt_max := 0.;
    let participants = live () in
    (* Phase 1: open the generation. *)
    List.iter
      (fun r ->
        ignore
          (guard r (fun s ->
               s.begin_t <- Oqmc_containers.Timers.now ();
               send s (Wire.Begin_gen { gen; e_trial = !e_trial }))))
      participants;
    (* Phase 2: arrival-order collection, ascending-order reduction. *)
    let arrivals = collect_phase2 ~gen participants in
    let wsum_t = ref 0. and esum_t = ref 0. and n_t = ref 0 in
    let acc_t = ref 0 and prop_t = ref 0 in
    List.iter
      (fun r ->
        match Hashtbl.find_opt arrivals r with
        | None -> ()
        | Some (w, e, a, pr, n, kvs, arrival) ->
            wsum_t := !wsum_t +. w;
            esum_t := !esum_t +. e;
            acc_t := !acc_t + a;
            prop_t := !prop_t + pr;
            n_t := !n_t + n;
            let s = proc r in
            s.count <- n;
            Metrics.absorb_kvs
              (List.map
                 (fun (kind, key, value) -> { Metrics.kind; key; value })
                 kvs);
            (* Ledger feed: supervisor-side generation wall (Begin_gen
               send to Reduce arrival) over the rank's proposed-move
               delta. *)
            let gen_time = arrival -. s.begin_t in
            let before =
              Option.value ~default:0 (Hashtbl.find_opt rank_prop r)
            in
            Hashtbl.replace rank_prop r pr;
            Ledger.observe_gen ledger ~rank:r ~gen
              ~moves:(max 0 (pr - before)) ~wall_s:gen_time;
            (* Soft-deadline straggler check: the budget plus three
               smoothed RTTs of slack, so policy only fires on ranks
               genuinely slower than their own recent history. *)
            if p.gen_deadline_ms > 0 then begin
              let soft =
                (float_of_int p.gen_deadline_ms /. 1000.)
                +. (3. *. s.rtt_ewma)
              in
              if gen_time > soft then begin
                incr stragglers;
                Ledger.add_straggle ledger ~rank:r
                  ~seconds:(gen_time -. soft);
                s.straggles <- s.straggles + 1;
                Metrics.inc (Metrics.counter "sup.stragglers");
                Trace.instant
                  ~args:
                    [
                      ("rank", string_of_int r);
                      ("gen_ms", string_of_int (int_of_float (gen_time *. 1e3)));
                      ("policy", straggler_policy_name p.straggler_policy);
                    ]
                  "sup.straggler";
                match p.straggler_policy with
                | Warn -> ()
                | Quarantine -> if s.straggles >= 3 then fail_rank r Stall
              end
              else s.straggles <- 0
            end)
      participants;
    let reduced = List.filter ok_rank participants in
    if reduced = [] then raise All_ranks_lost;
    if List.length reduced < p.ranks then incr degraded_generations;
    let e_gen = if !wsum_t > 0. then !esum_t /. !wsum_t else !e_trial in
    if gen > p.warmup then begin
      Stats.append energy_series e_gen;
      pop_series := !n_t :: !pop_series;
      samples := !samples + !n_t
    end;
    (* Per-generation acceptance from the cumulative move totals the
       ranks report; a respawned rank resets its totals, so the delta is
       clamped at zero for that generation. *)
    let gen_acc = max 0 (!acc_t - !prev_acc)
    and gen_prop = max 0 (!prop_t - !prev_prop) in
    prev_acc := !acc_t;
    prev_prop := !prop_t;
    (* Phase 3: branch, collect post-branch counts. *)
    List.iter
      (fun r -> ignore (guard r (fun s -> send s (Wire.Branch { gen }))))
      reduced;
    List.iter
      (fun r ->
        match
          recv_expect r (function
            | Wire.Count { gen = g; n } when g = gen -> Some n
            | _ -> None)
        with
        | Some n -> (proc r).count <- n
        | None -> ())
      reduced;
    (* Phase 4: real load-balance exchange, relayed through the
       supervisor in deterministic plan order. *)
    relay_exchange ~gen reduced;
    (* Phase 5: global trial-energy feedback from the reduced counts. *)
    let total =
      List.fold_left
        (fun a r -> if ok_rank r then a + (proc r).count else a)
        0 reduced
    in
    e_trial :=
      Population.trial_energy_update ~feedback:p.feedback ~tau:p.tau
        ~target:p.target_walkers ~population:total ~e_estimate:e_gen;
    (* Phase 6: sharded checkpoint round + manifest. *)
    (match p.checkpoint with
    | Some path when p.checkpoint_every > 0 && gen mod p.checkpoint_every = 0
      ->
        let acked = ref [] in
        List.iter
          (fun r ->
            ignore
              (guard r (fun s ->
                   send s
                     (Wire.Checkpoint_cmd { gen; e_trial = !e_trial }))))
          (List.filter ok_rank reduced);
        List.iter
          (fun r ->
            match
              recv_expect r (function
                | Wire.Ack { gen = g; ok } when g = gen -> Some ok
                | _ -> None)
            with
            | Some true -> acked := r :: !acked
            | _ -> ())
          (List.filter ok_rank reduced);
        (try
           Checkpoint.save_manifest ~path ~gen ~ranks:(List.rev !acked) ()
         with Sys_error _ -> ())
    | _ -> ());
    (* Phase 7: recovery — respawn this generation's casualties, or
       degrade once the respawn budget is spent.  An abandoned slot is
       recorded VACANT, so a later membership Join can refill it with a
       fresh incarnation: degradation is reversible. *)
    List.iter
      (fun r ->
        let s = proc r in
        if s.incarnation >= p.max_respawn then begin
          s.dead <- true;
          ranks_failed := r :: !ranks_failed;
          Ledger.drop_rank ledger ~rank:r;
          Hashtbl.remove rank_prop r;
          vacant := r :: !vacant;
          Hashtbl.replace incarnations r (s.incarnation + 1);
          Metrics.inc (Metrics.counter "sup.ranks_abandoned");
          Trace.instant
            ~args:
              [
                ("rank", string_of_int r);
                ("incarnation", string_of_int s.incarnation);
              ]
            "sup.rank_abandoned";
          (* Salvage the lost shard from its newest valid checkpoint and
             spread it over the survivors. *)
          let salvaged =
            match p.checkpoint with
            | None -> []
            | Some path -> (
                match Checkpoint.load_latest_shard ~path ~rank:r with
                | _, (_, ws) -> ws
                | exception Checkpoint.Corrupt _ -> [])
          in
          let survivors = List.filter ok_rank (live ()) in
          match (salvaged, survivors) with
          | [], _ | _, [] -> ()
          | ws, survivors ->
              let k = List.length survivors in
              List.iteri
                (fun i dst ->
                    let mine =
                      List.filteri (fun j _ -> j mod k = i) ws
                    in
                    if mine <> [] then
                      ignore
                        (guard dst (fun sd ->
                             send sd
                               (Wire.Walkers { gen; walkers = mine });
                             sd.count <- sd.count + List.length mine)))
                survivors
        end
        else begin
          incr respawns;
          let incarnation = s.incarnation + 1 in
          let backoff =
            p.respawn_backoff *. float_of_int (1 lsl (incarnation - 1))
          in
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
            match p.checkpoint with
            | None -> None
            | Some path -> (
                match Checkpoint.load_latest_shard ~path ~rank:r with
                | _, (e_trial, walkers) ->
                    Some { Rank.e_trial; walkers; resume = None }
                | exception Checkpoint.Corrupt _ -> None)
          in
          spawn ~cfg:(rank_config p ~rank:r ~incarnation ~after:gen) ~init;
          let startup = startup_timeout p in
          failed_this_gen := List.filter (fun x -> x <> r) !failed_this_gen;
          match
            recv_expect ~timeout:startup r (function
              | Wire.Hello _ -> Some ()
              | _ -> None)
          with
          | None -> (proc r).dead <- true; ranks_failed := r :: !ranks_failed
          | Some () -> (
              match init with
              | Some i -> (proc r).count <- List.length i.Rank.walkers
              | None -> (
                  (* No shard to restore: restart the rank from fresh
                     walkers at its ideal share of the target. *)
                  let want =
                    max 1 (p.target_walkers / max 1 (List.length (live ())))
                  in
                  ignore
                    (guard r (fun s2 ->
                         send s2 (Wire.Init { count = want })));
                  match
                    recv_expect ~timeout:startup r (function
                      | Wire.Reduce { gen = 0; n; _ } -> Some n
                      | _ -> None)
                  with
                  | Some n -> (proc r).count <- n
                  | None ->
                      (proc r).dead <- true;
                      ranks_failed := r :: !ranks_failed))
        end)
      (List.rev !failed_this_gen);
    if live () = [] then raise All_ranks_lost;
    let elapsed = Oqmc_containers.Timers.now () -. t0 in
    let acceptance =
      float_of_int gen_acc /. float_of_int (max 1 gen_prop)
    in
    let walkers_per_s =
      if elapsed > 0. then float_of_int !samples /. elapsed else 0.
    in
    let gen_record =
      Oqmc_obs.Jsonx.(Obj
         [
           ("gen", Num (float_of_int gen));
           ("e_gen", Num e_gen);
           ("e_trial", Num !e_trial);
           ("population", Num (float_of_int total));
           ("acceptance", Num acceptance);
           ("walkers_per_s", Num walkers_per_s);
           ("live_ranks", Num (float_of_int (List.length (live ()))));
           ("rtt_max_s", Num !rtt_max);
           ( "respawns",
             Num
               (float_of_int
                  (Metrics.counter_value
                     (Metrics.counter "sup.respawns"))) );
           ("wall_s", Num elapsed);
         ])
    in
    Flightrec.record "gen" gen_record;
    if gen > p.warmup then emit ~gen:(gen - p.warmup) gen_record;
    update_progress
      (Printf.sprintf
         "dmc[%d/%d ranks] gen %d/%d  E %+.6f  E_T %+.6f  pop %d  acc %.3f  %.0f w/s  lag %.1fms"
         (List.length (live ())) p.ranks gen total_gens e_gen !e_trial
         total acceptance walkers_per_s (1e3 *. !rtt_max));
    (* Membership events scheduled for this generation, applied after
       recovery so joins see a settled member set. *)
    if p.elastic then
      List.iter
        (fun (g, ev) ->
          if g = gen then
            match ev with
            | Join -> do_join ~gen
            | Leave r -> do_leave ~gen r)
        p.membership;
    let dt = Oqmc_containers.Timers.now () -. gen_t0 in
    Metrics.observe m_gen_s dt;
    gen_times := dt :: !gen_times;
    if gen mod ledger_emit_every = 0 then emit_event (ledger_event ~gen ledger);
    fire_window p gen;
    (* Graceful early drain: the [stop] poll ends the run at the next
       generation boundary and the normal finals collection below still
       runs, so a deadline-stopped job reports consistent partial
       estimators instead of dying mid-protocol.  The snapshot cadence
       always covers the drain point and the final generation, so a
       suspended job never replays work. *)
    if stop () then job_drained := true;
    write_status ~force:(!job_drained || gen = total_gens) (fun () ->
        Oqmc_obs.Jsonx.(Obj
           [
             ("gen", Num (float_of_int gen));
             ("total_gens", Num (float_of_int total_gens));
             ("e_gen", Num e_gen);
             ("e_trial", Num !e_trial);
             ("population", Num (float_of_int total));
             ("live_ranks", Num (float_of_int (List.length (live ()))));
             ("walkers_per_s", Num walkers_per_s);
             ("wall_s", Num elapsed);
             ("ledger", Ledger.json ledger);
             ("audit", audit_json ());
           ]));
    (match snapshot with
    | Some path
      when !job_drained || gen = total_gens || gen mod snapshot_every = 0 ->
        save_snapshot ~gen path
    | _ -> ());
    incr gen_ref
  done;
  let last_gen = !gen_ref - 1 in
  (* -------- collect finals -------- *)
  let live_at_end = List.length (live ()) in
  let acc = ref !acc_left and prop = ref !prop_left in
  let final_walkers = ref [] in
  List.iter
    (fun r ->
      failed_this_gen := [];
      ignore (guard r (fun s -> send s Wire.Finish));
      (match
         recv_expect ~timeout:(startup_timeout p) r (function
           | Wire.Final { acc = a; prop = pr; walkers; trace } ->
               Some (a, pr, walkers, trace)
           | _ -> None)
       with
      | Some (a, pr, walkers, trace) ->
          acc := !acc + a;
          prop := !prop + pr;
          (* Merge the rank's span ring into the supervisor's trace
             under the rank's id, so the exported timeline shows every
             process on its own track. *)
          (if trace <> "" then
             try Trace.ingest ~pid:r trace with Trace.Malformed -> ());
          final_walkers := !final_walkers @ walkers
      | None -> ());
      T.close (proc r).link)
    (live ());
  let pops = Array.of_list (List.rev !pop_series) in
  let job_result =
    {
      energy = Stats.series_mean energy_series;
      energy_error = Stats.series_error energy_series;
      variance = Stats.series_variance energy_series;
      tau_corr = Stats.autocorrelation_time energy_series;
      acceptance = float_of_int !acc /. float_of_int (max 1 !prop);
      wall_time = Oqmc_containers.Timers.now () -. t0;
      mean_population =
        (if Array.length pops = 0 then 0.
         else
           float_of_int (Array.fold_left ( + ) 0 pops)
           /. float_of_int (Array.length pops));
      energy_series = Stats.to_array energy_series;
      population_series = pops;
      comm_messages = !comm_messages;
      comm_bytes = !comm_bytes;
      respawns = !respawns;
      heartbeat_timeouts = !hb_timeouts;
      garbage_frames = !garbage_frames;
      crashes = !crashes;
      ranks_failed = List.sort compare !ranks_failed;
      live_ranks = live_at_end;
      degraded_generations = !degraded_generations;
      joins = !joins;
      leaves = !leaves;
      stragglers = !stragglers;
      membership_skipped = !skipped;
      membership_log = List.rev !membership_log;
      gen_p50_s = wall_percentile !gen_times 0.50;
      gen_p99_s = wall_percentile !gen_times 0.99;
      final_walkers = !final_walkers;
      final_e_trial = !e_trial;
    }
  in
  {
    job_result;
    gens_done = last_gen - start_gen;
    drained = !job_drained && last_gen < total_gens;
    resumed_from = start_gen;
  }
  with e ->
    (* Abort unwind — [All_ranks_lost], [Interrupted], startup failure:
       dump the flight recorder before [cleanup] closes the sinks. *)
    let bt = Printexc.get_raw_backtrace () in
    flight_dump p (Printexc.to_string e);
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
