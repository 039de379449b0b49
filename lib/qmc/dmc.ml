open Oqmc_particle
open Oqmc_rng
module Trace = Oqmc_obs.Trace
module Metrics = Oqmc_obs.Metrics
module Telemetry = Oqmc_obs.Telemetry
module Progress = Oqmc_obs.Progress

(* Diffusion Monte Carlo driver (Alg. 1 of the paper).

   Each generation: every walker runs one particle-by-particle
   drift-and-diffusion sweep, measures its local energy, and is reweighted
   against the trial energy; then the population branches, the trial
   energy is updated by feedback, and a simulated load-balance step
   accounts for the walker messages a multi-rank run would exchange.

   Observability: each generation is a [dmc.generation] span with
   [dmc.sweep] / [dmc.watchdog] / [dmc.branch] / [dmc.checkpoint]
   children; per-generation estimator state lands in the metrics
   registry and, when a telemetry sink is attached, as one JSONL record
   per measured generation.  None of it touches the RNG stream or the
   arithmetic, so trajectories are bit-identical with tracing on or off
   (asserted in test/test_obs.ml). *)

type params = {
  target_walkers : int;
  warmup : int; (* equilibration generations, not measured *)
  generations : int;
  tau : float;
  seed : int;
  n_domains : int;
  ranks : int; (* simulated MPI ranks for the load-balance accounting *)
}

let default_params =
  {
    target_walkers = 16;
    warmup = 20;
    generations = 100;
    tau = 0.01;
    seed = 11;
    n_domains = 1;
    ranks = 1;
  }

type result = {
  energy : float;
  energy_error : float;
  variance : float;
  tau_corr : float;
  efficiency : float; (* κ = 1/(σ² τ_corr T_MC) *)
  acceptance : float;
  throughput : float; (* MC samples per second *)
  wall_time : float;
  mean_population : float;
  energy_series : float array; (* per-generation weighted estimate *)
  population_series : int array;
  comm_messages : int;
  comm_bytes : int;
  final_walkers : Walker.t list; (* for checkpointing *)
  final_e_trial : float;
  integrity : Integrity.stats; (* watchdog + checkpoint counters *)
}

type wslot = { mutable walker : Walker.t; rng : Xoshiro.t }

(* Everything after a walker's sweep is per-walker: measure, reweight
   against the trial energy, age bookkeeping, state saved back into the
   walker.  The accepted-move count rides in [multiplicity] until the
   serial accounting pass. *)
let settle ~tau ~e_trial ~gen (e : Engine_api.t) (s : wslot)
    (r : Engine_api.sweep_result) =
  let w = s.walker in
  let e_old = w.Walker.e_local in
  let e_new = e.Engine_api.measure () in
  let e_new = Fault.tamper_energy ~gen ~walker_id:w.Walker.id e_new in
  Population.dmc_weight ~tau ~e_trial ~e_old ~e_new w;
  w.Walker.e_local <- e_new;
  w.Walker.age <-
    (if r.Engine_api.accepted = 0 then w.Walker.age + 1 else 0);
  e.Engine_api.save_walker w;
  w.Walker.multiplicity <- r.Engine_api.accepted

let fresh_walkers (e : Engine_api.t) ~rng count =
  List.init count (fun _ ->
      let w = Walker.create e.Engine_api.n_electrons in
      e.Engine_api.randomize rng;
      w.Walker.e_local <- e.Engine_api.measure ();
      e.Engine_api.register_walker w;
      w)

(* One generation's drift-diffusion sweep + reweighting over [pop], in
   walker groups of the runner's sweep-unit width; branching changes the
   population every generation, so groups are re-formed each call.  This
   is THE per-generation DMC physics: the single-process driver below
   and the multi-rank shard executor (lib/dist) both call it, so a rank
   shard's trajectory is the single-process trajectory by construction.
   Returns the (accepted, proposed) move totals. *)
let sweep_generation runner pop ~next_rng ~gen ~tau ~e_trial =
  let ws = Array.of_list (Population.walkers pop) in
  let slots = Array.map (fun w -> { walker = w; rng = next_rng () }) ws in
  Runner.iter_groups runner ~n:(Array.length slots)
    ~walker:(fun i -> slots.(i).walker)
    ~f:(fun u ~lo ~m ->
      let rs =
        Runner.sweep u ~active:m ~rng:(fun s -> slots.(lo + s).rng) ~tau
      in
      for s = 0 to m - 1 do
        settle ~tau ~e_trial ~gen (Runner.slot_engine u s) slots.(lo + s)
          rs.(s)
      done);
  let n = (Runner.engine runner 0).Engine_api.n_electrons in
  let acc = ref 0 and prop = ref 0 in
  Array.iter
    (fun s ->
      acc := !acc + s.walker.Walker.multiplicity;
      prop := !prop + n;
      s.walker.Walker.multiplicity <- 1)
    slots;
  (!acc, !prop)

let run ?initial ?observe ?(checkpoint_every = 0) ?checkpoint_path
    ?(checkpoint_keep = 3) ?watchdog ?(crowd = 1) ?telemetry
    ?(telemetry_every = 1) ?progress
    ~(factory : int -> Engine_api.t) (p : params) : result =
  if p.target_walkers < 1 then invalid_arg "Dmc.run: target_walkers < 1";
  let telemetry_every = max 1 telemetry_every in
  Runner.with_runner ~crowd ~walkers:p.target_walkers
    ~n_domains:p.n_domains ~factory @@ fun runner ->
  let e0 = Runner.engine runner 0 in
  let master_rng = Xoshiro.create p.seed in
  let rng_pool = ref (Xoshiro.create (p.seed + 1)) in
  let next_rng () = Xoshiro.split !rng_pool in
  (* Initial population: restored from a checkpoint, or fresh walkers
     with measured local energies. *)
  let init_walkers, e_init =
    match initial with
    | Some (e_trial, walkers) when walkers <> [] -> (walkers, e_trial)
    | _ ->
        let ws = fresh_walkers e0 ~rng:master_rng p.target_walkers in
        ( ws,
          List.fold_left (fun a w -> a +. w.Walker.e_local) 0. ws
          /. float_of_int p.target_walkers )
  in
  let pop =
    Population.create ~target:p.target_walkers ~e_trial:e_init init_walkers
  in
  let acc_total = ref 0 and prop_total = ref 0 in
  let comm_messages = ref 0 and comm_bytes = ref 0 in
  let energy_series = Stats.make_series () in
  let pop_series = ref [] in
  let sample_count = ref 0 in
  let integrity = Integrity.create_stats () in
  let gen_index = ref 0 in (* absolute generation counter, warmup included *)
  (* Metric handles are created once; the registry is global, so a
     multi-run process accumulates across runs (counters) while gauges
     always reflect the latest generation. *)
  let m_population = Metrics.gauge "dmc.population"
  and m_e_gen = Metrics.gauge "dmc.e_gen"
  and m_e_trial = Metrics.gauge "dmc.e_trial"
  and m_acc = Metrics.counter "dmc.accepted"
  and m_prop = Metrics.counter "dmc.proposed"
  and m_gens = Metrics.counter "dmc.generations"
  and m_branch = Metrics.histogram "dmc.branch_multiplicity"
  and m_ckpt = Metrics.histogram "dmc.checkpoint_s"
  and m_ckpt_fail = Metrics.counter "dmc.checkpoint_failures" in
  let run_t0 = Oqmc_containers.Timers.now () in
  let total_gens = p.warmup + p.generations in
  let step ~measure_stats =
    incr gen_index;
    let gen = !gen_index in
    Trace.with_span ~args:[ ("gen", string_of_int gen) ] "dmc.generation"
    @@ fun () ->
    let e_trial = Population.e_trial pop in
    let gen_acc, gen_prop =
      Trace.with_span "dmc.sweep" (fun () ->
          sweep_generation runner pop ~next_rng ~gen ~tau:p.tau ~e_trial)
    in
    acc_total := !acc_total + gen_acc;
    prop_total := !prop_total + gen_prop;
    Metrics.add m_acc gen_acc;
    Metrics.add m_prop gen_prop;
    Metrics.inc m_gens;
    (* Watchdog before the estimator: poisoned walkers must never feed
       the mixed estimator or the trial-energy feedback. *)
    (match watchdog with
    | Some cfg ->
        Trace.with_span "dmc.watchdog" (fun () ->
            Integrity.watchdog cfg integrity ~gen ~rng:master_rng runner pop)
    | None -> ());
    (* Weighted mixed estimator for this generation. *)
    let wsum, esum = Population.weighted_energy_sums pop in
    let e_gen = if wsum > 0. then esum /. wsum else e_trial in
    let measured_pop = Population.size pop in
    if measure_stats then begin
      Stats.append energy_series e_gen;
      pop_series := measured_pop :: !pop_series;
      sample_count := !sample_count + measured_pop;
      match observe with
      | Some f -> List.iter f (Population.walkers pop)
      | None -> ()
    end;
    Trace.with_span "dmc.branch" (fun () ->
        Population.branch pop master_rng);
    let size_after = Population.size pop in
    Metrics.observe m_branch
      (float_of_int size_after /. float_of_int (max 1 measured_pop));
    Population.update_trial_energy pop ~tau:p.tau ~e_estimate:e_gen;
    Metrics.set m_population (float_of_int size_after);
    Metrics.set m_e_gen e_gen;
    Metrics.set m_e_trial (Population.e_trial pop);
    if p.ranks > 1 then begin
      let report = Population.load_balance pop ~ranks:p.ranks in
      comm_messages := !comm_messages + report.Population.messages;
      comm_bytes := !comm_bytes + report.Population.bytes
    end;
    (* Periodic crash-safe checkpoint: a failed write must not kill the
       run — it is counted and retried at the next interval. *)
    (match checkpoint_path with
    | Some path when checkpoint_every > 0 && gen mod checkpoint_every = 0
      -> (
        Trace.with_span "dmc.checkpoint" @@ fun () ->
        let ck0 = Oqmc_containers.Timers.now () in
        try
          Checkpoint.save_generation ~keep:checkpoint_keep ~path ~gen
            ~e_trial:(Population.e_trial pop)
            (Population.walkers pop);
          Metrics.observe m_ckpt (Oqmc_containers.Timers.now () -. ck0);
          integrity.Integrity.checkpoints_written <-
            integrity.Integrity.checkpoints_written + 1
        with Sys_error _ | Checkpoint.Corrupt _ ->
          Metrics.inc m_ckpt_fail;
          integrity.Integrity.checkpoint_failures <-
            integrity.Integrity.checkpoint_failures + 1)
    | _ -> ());
    let elapsed = Oqmc_containers.Timers.now () -. run_t0 in
    (if measure_stats && (gen - p.warmup) mod telemetry_every = 0 then
       match telemetry with
       | Some sink ->
           Telemetry.emit sink
             Oqmc_obs.Jsonx.(Obj
                [
                  ("gen", Num (float_of_int gen));
                  ("e_gen", Num e_gen);
                  ("e_trial", Num (Population.e_trial pop));
                  ("population", Num (float_of_int size_after));
                  ( "acceptance",
                    Num
                      (float_of_int gen_acc
                      /. float_of_int (max 1 gen_prop)) );
                  ( "walkers_per_s",
                    Num
                      (if elapsed > 0. then
                         float_of_int !sample_count /. elapsed
                       else 0.) );
                  ( "quarantined",
                    Num (float_of_int integrity.Integrity.quarantined) );
                  ("wall_s", Num elapsed);
                ])
       | None -> ());
    match progress with
    | Some pr ->
        Progress.update pr
          (Printf.sprintf
             "dmc gen %d/%d  E %+.6f  E_T %+.6f  pop %d  acc %.3f" gen
             total_gens e_gen (Population.e_trial pop) size_after
             (float_of_int gen_acc /. float_of_int (max 1 gen_prop)))
    | None -> ()
  in
  for _ = 1 to p.warmup do
    step ~measure_stats:false
  done;
  let t0 = Oqmc_containers.Timers.now () in
  for _ = 1 to p.generations do
    step ~measure_stats:true
  done;
  let wall_time = Oqmc_containers.Timers.now () -. t0 in
  Runner.export_timers runner;
  let energy = Stats.series_mean energy_series in
  let variance = Stats.series_variance energy_series in
  let tau_corr = Stats.autocorrelation_time energy_series in
  let pops = Array.of_list (List.rev !pop_series) in
  (* Tiny runs can finish between two clock ticks: guard every division
     by [wall_time] so the result is NaN-free. *)
  {
    energy;
    energy_error = Stats.series_error energy_series;
    variance;
    tau_corr;
    efficiency =
      (if wall_time > 0. then
         Stats.efficiency ~variance ~tau_corr ~t_mc:wall_time
       else 0.);
    acceptance = float_of_int !acc_total /. float_of_int (max 1 !prop_total);
    throughput =
      (if wall_time > 0. then float_of_int !sample_count /. wall_time
       else 0.);
    wall_time;
    mean_population =
      (if Array.length pops = 0 then 0.
       else
         float_of_int (Array.fold_left ( + ) 0 pops)
         /. float_of_int (Array.length pops));
    energy_series = Stats.to_array energy_series;
    population_series = pops;
    comm_messages = !comm_messages;
    comm_bytes = !comm_bytes;
    final_walkers = Population.walkers pop;
    final_e_trial = Population.e_trial pop;
    integrity = Integrity.copy_stats integrity;
  }
