open Oqmc_particle
open Oqmc_rng
open Oqmc_core

(* One worker rank of a supervised multi-rank DMC run.

   A rank owns a SHARD of the walker population and its own domain pool
   (engines are created where the rank runs — after the fork for a
   forked rank), and executes the supervisor's lockstep protocol: sweep
   + reweight on [Begin_gen], report the shard's estimator terms
   ([Reduce]), branch on command, and ship/absorb walker batches for
   load balance.  [handle] is the one protocol handler; a forked rank
   runs it over pipes ([serve]), an in-process mailbox link calls it
   directly.

   The per-generation physics is [Dmc.sweep_generation] — the exact
   function the single-process driver runs — so a shard's trajectory is
   the single-process trajectory by construction.  All shard-local
   randomness derives from (seed, rank, incarnation): deterministic for
   a fault-free run, fresh after a respawn. *)

type config = {
  rank : int;
  ranks : int;
  seed : int;
  tau : float;
  target : int; (* GLOBAL walker target; feedback is supervisor-side *)
  n_domains : int; (* worker domains inside this rank *)
  crowd : int; (* walkers per domain sweep unit ([Runner]) *)
  checkpoint : string option;
  checkpoint_keep : int;
  async_checkpoint : bool;
      (* overlap shard writes with the next generation's compute
         (double-buffered [Checkpoint.Async]); false = write-then-ack *)
  incarnation : int; (* 0 = first spawn; respawns count up *)
  faults : (int * Fault.rank_fault) list;
      (* this rank's injection plan.  The supervisor filters the plan to
         generations the incarnation has not yet reached, so a respawned
         rank arms only its FUTURE faults and cannot re-kill itself. *)
}

(* Disjoint, deterministic seed blocks per (rank, incarnation). *)
let rank_seed cfg = cfg.seed + (7919 * (cfg.rank + 1)) + (104729 * cfg.incarnation)

type resume = { master : string; pool : string; acc : int; prop : int }
type init = { e_trial : float; walkers : Walker.t list; resume : resume option }

type t = {
  cfg : config;
  pop : Population.t;
  runner : Runner.t;
  master_rng : Xoshiro.t; (* branching *)
  rng_pool : Xoshiro.t; (* split per walker per generation *)
  mutable acc : int;
  mutable prop : int;
  emit : Wire.msg -> unit;
  mutable timers_base : (string * float * int) list;
      (* kernel-timer totals at the last Reduce *)
  mutable writer : Checkpoint.Async.t option;
      (* double-buffered background shard writer, created on first use *)
}

(* Build this rank's engines: the factory sees globally distinct indices
   so every (rank, domain, crowd slot) gets an independent engine seed. *)
let start ~(factory : int -> Engine_api.t) ~init ~emit cfg =
  let per_rank = cfg.n_domains * cfg.crowd in
  let runner =
    Runner.create ~crowd:cfg.crowd ~walkers:cfg.target
      ~n_domains:cfg.n_domains
      ~factory:(fun i -> factory ((cfg.rank * per_rank) + i))
  in
  let e_trial, walkers =
    match init with Some i -> (i.e_trial, i.walkers) | None -> (0., [])
  in
  let t =
    {
      cfg;
      pop = Population.create ~target:cfg.target ~e_trial walkers;
      runner;
      master_rng = Xoshiro.create (rank_seed cfg);
      rng_pool = Xoshiro.create (rank_seed cfg + 1);
      acc = 0;
      prop = 0;
      emit;
      timers_base = [];
      writer = None;
    }
  in
  (match init with
  | Some { resume = Some r; _ } ->
      Xoshiro.restore t.master_rng (Xoshiro.of_state_string r.master);
      Xoshiro.restore t.rng_pool (Xoshiro.of_state_string r.pool);
      t.acc <- r.acc;
      t.prop <- r.prop
  | _ -> ());
  emit (Wire.Hello { rank = cfg.rank; pid = Unix.getpid () });
  t

let shutdown t = Runner.shutdown t.runner

(* This shard's kernel-timer increments since the last Reduce, as
   [timer_us.<key>] counters (µs, integral).  They are per shard, so
   both transports ship them. *)
let timer_kvs t =
  let module Timers = Oqmc_containers.Timers in
  let curr = Timers.snapshot (Runner.merged_timers t.runner) in
  let prev = t.timers_base in
  t.timers_base <- curr;
  List.filter_map
    (fun (k, s, _) ->
      let before =
        match List.find_opt (fun (k', _, _) -> k' = k) prev with
        | Some (_, s, _) -> s
        | None -> 0.
      in
      let d = s -. before in
      if d > 0. then Some ('c', "timer_us." ^ k, Float.round (d *. 1e6))
      else None)
    curr

let reduce t ~gen ~wsum ~esum =
  t.emit
    (Wire.Reduce
       {
         gen;
         wsum;
         esum;
         acc = t.acc;
         prop = t.prop;
         n = Population.size t.pop;
         telemetry = timer_kvs t;
       })

(* First spawn: build the initial [count]-walker sub-ensemble from the
   master stream and report its (Σ1, ΣE_L), the gen-0 terms of the
   global starting trial energy. *)
let fresh_init t ~count =
  Population.absorb t.pop
    (Dmc.fresh_walkers (Runner.engine t.runner 0) ~rng:t.master_rng count);
  let wsum, esum =
    List.fold_left
      (fun (ws, es) w -> (ws +. 1., es +. w.Walker.e_local))
      (0., 0.) (Population.walkers t.pop)
  in
  reduce t ~gen:0 ~wsum ~esum

(* One generation of shard physics: sweep + reweight every walker
   against [e_trial], accumulate move totals, report the shard's
   weighted estimator terms. *)
let sweep t ~gen ~e_trial =
  let wsum, esum =
    Oqmc_obs.Trace.with_span
      ~args:[ ("gen", string_of_int gen) ]
      "rank.generation"
      (fun () ->
        let acc, prop =
          Dmc.sweep_generation t.runner t.pop
            ~next_rng:(fun () -> Xoshiro.split t.rng_pool)
            ~gen ~tau:t.cfg.tau ~e_trial
        in
        t.acc <- t.acc + acc;
        t.prop <- t.prop + prop;
        Population.weighted_energy_sums t.pop)
  in
  reduce t ~gen ~wsum ~esum

let checkpoint t ~gen ~e_trial =
  match t.cfg.checkpoint with
  | None -> false
  | Some path when t.cfg.async_checkpoint -> (
      (* Render the shard image now, publish it from a background domain
         overlapped with the next generation's sweep.  The ack covers the
         render + the PREVIOUS write's landing;
         [Checkpoint.latest_complete] revalidates shards on restore, so
         an optimistic ack can delay recovery by one round but never
         corrupt it. *)
      let w =
        match t.writer with
        | Some w -> w
        | None ->
            let w = Checkpoint.Async.create () in
            t.writer <- Some w;
            w
      in
      try
        Checkpoint.Async.save_generation w ~keep:t.cfg.checkpoint_keep
          ~path:(Checkpoint.shard_path ~path ~rank:t.cfg.rank)
          ~gen ~e_trial (Population.walkers t.pop)
      with Sys_error _ | Checkpoint.Corrupt _ -> false)
  | Some path -> (
      try
        Checkpoint.save_shard ~keep:t.cfg.checkpoint_keep ~path
          ~rank:t.cfg.rank ~gen ~e_trial (Population.walkers t.pop);
        true
      with Sys_error _ | Checkpoint.Corrupt _ -> false)

let drain_writer t =
  Option.iter (fun w -> ignore (Checkpoint.Async.drain w)) t.writer

let handle t = function
  | Wire.Init { count } ->
      fresh_init t ~count;
      true
  | Wire.Begin_gen { gen; e_trial } ->
      (* Heartbeat first: it marks the start of the generation's work, so
         the supervisor's RTT EWMA tracks the healthy round-trip and slow
         work lands between the heartbeat and the Reduce. *)
      t.emit (Wire.Heartbeat { gen });
      sweep t ~gen ~e_trial;
      true
  | Wire.Branch { gen } ->
      Population.branch t.pop t.master_rng;
      t.emit (Wire.Count { gen; n = Population.size t.pop });
      true
  | Wire.Give { gen; count } ->
      t.emit (Wire.Walkers { gen; walkers = Population.give t.pop count });
      true
  | Wire.Walkers { walkers; _ } ->
      Population.absorb t.pop walkers;
      true
  | Wire.Checkpoint_cmd { gen; e_trial } ->
      t.emit (Wire.Ack { gen; ok = checkpoint t ~gen ~e_trial });
      true
  | Wire.Join { gen; e_trial = _ } ->
      (* Mid-run membership: this fresh rank is live as of [gen]; its
         walkers arrive through the rebalancing relays that follow. *)
      t.emit (Wire.Ack { gen; ok = true });
      true
  | Wire.Drain { gen } ->
      (* Graceful leave: ship the WHOLE shard (order preserved), then
         confirm the drain; the supervisor finishes and reaps us. *)
      drain_writer t;
      let ws = Population.drain t.pop in
      t.emit (Wire.Walkers { gen; walkers = ws });
      t.emit (Wire.Leave { gen; count = List.length ws });
      true
  | Wire.State_req { gen } ->
      t.emit
        (Wire.State
           {
             gen;
             master = Xoshiro.state_string t.master_rng;
             pool = Xoshiro.state_string t.rng_pool;
             acc = t.acc;
             prop = t.prop;
             walkers = Population.walkers t.pop;
           });
      true
  | Wire.Finish ->
      drain_writer t;
      t.emit
        (Wire.Final
           {
             acc = t.acc;
             prop = t.prop;
             walkers = Population.walkers t.pop;
             trace = "";
           });
      false
  | _ -> true (* ignore unexpected frames; the supervisor drives *)

(* ---------- the worker process ---------- *)

(* Serve the supervisor's protocol over pipes until [Finish].  Runs inside
   the forked child.  Everything that acts on the whole PROCESS is done
   here, at the pipe boundary, never in [handle]: an in-process rank
   shares its parent's fault table, span ring and metric registry, and
   would otherwise fire or report them twice. *)
let serve ~cfg ~(factory : int -> Engine_api.t) ~init ~fd_in ~fd_out =
  let module Trace = Oqmc_obs.Trace in
  let module Metrics = Oqmc_obs.Metrics in
  Fault.reset ();
  (* The fork inherits the parent's span ring and metric registry: wipe
     the ring and diff metrics against a serve-entry baseline so this
     rank only ever reports its OWN activity.  [set_rank] stamps every
     span this process emits with its rank id (the trace pid). *)
  Trace.clear ();
  Trace.set_rank cfg.rank;
  let metrics_base = ref (Metrics.snapshot ()) in
  let registry_kvs () =
    let curr = Metrics.snapshot () in
    let kvs = Metrics.wire_kvs (Metrics.diff ~prev:!metrics_base curr) in
    metrics_base := curr;
    List.map (fun kv -> Metrics.(kv.kind, kv.key, kv.value)) kvs
  in
  (* Faults are armed for this incarnation only (the supervisor already
     filtered the plan), and fire right after the heartbeat so an
     injected stall lands where real slowness would. *)
  List.iter (fun (gen, f) -> Fault.arm_rank_fault ~gen f) cfg.faults;
  let fire_faults ~gen =
    match Fault.rank_fault_due ~gen with
    | Some Fault.Rank_kill -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | Some (Fault.Rank_stall s) -> Unix.sleepf s
    | Some Fault.Rank_garbage -> Wire.send_corrupt fd_out
    | Some (Fault.Rank_disk_full times) ->
        (* Observable in the merged telemetry: the counter delta ships
           with this generation's Reduce frame. *)
        Metrics.inc (Metrics.counter "chaos.disk_full");
        Fault.arm_io_failure Fault.Checkpoint_write ~times
    | Some (Fault.Rank_kill_draining _) | None -> ()
  in
  (* A drain fault fires in the drain: before it ships anything, or
     right after its batch frame. *)
  let kill_after_batch = ref false in
  let self_kill () = Unix.kill (Unix.getpid ()) Sys.sigkill in
  let emit = function
    | Wire.Reduce r ->
        Wire.send fd_out
          (Wire.Reduce { r with telemetry = registry_kvs () @ r.telemetry })
    | Wire.Final f ->
        Wire.send fd_out
          (Wire.Final
             {
               f with
               trace = (if Trace.enabled () then Trace.serialize () else "");
             })
    | Wire.Heartbeat { gen } as m ->
        Wire.send fd_out m;
        fire_faults ~gen
    | Wire.Walkers _ as m when !kill_after_batch ->
        Wire.send fd_out m;
        self_kill ()
    | m -> Wire.send fd_out m
  in
  let t = start ~factory ~init ~emit cfg in
  let drain_faults = function
    | Wire.Drain { gen } -> (
        match Fault.drain_fault_due ~gen with
        | Some Fault.Before_batch -> self_kill ()
        | Some Fault.After_batch -> kill_after_batch := true
        | None -> ())
    | _ -> ()
  in
  while
    let m = Wire.recv fd_in in
    drain_faults m;
    handle t m
  do
    ()
  done;
  shutdown t
