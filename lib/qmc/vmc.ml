open Oqmc_particle
open Oqmc_rng
module Trace = Oqmc_obs.Trace
module Metrics = Oqmc_obs.Metrics
module Telemetry = Oqmc_obs.Telemetry
module Progress = Oqmc_obs.Progress

(* Variational Monte Carlo driver with particle-by-particle updates.

   Walkers are sampled from |Ψ_T|² by drifted-Gaussian Metropolis sweeps;
   the local energy is measured every [steps_between_measure] sweeps.
   Thread-level parallelism follows the paper's design: each domain's
   engine loads a walker, restores its wavefunction state from the
   anonymous buffer, runs its sweeps, and stores the state back.

   Each domain's sweep unit ([Runner]) advances a group of up to [crowd]
   resident walkers in lockstep through the fused crowd pipeline (or one
   walker through the scalar sweep for the Store variants).  The
   per-walker arithmetic and RNG draw order do not depend on the group,
   so results are bit-identical for every [crowd]. *)

type params = {
  n_walkers : int;
  warmup : int; (* sweeps discarded before measuring *)
  blocks : int;
  steps_per_block : int;
  tau : float;
  seed : int;
  n_domains : int;
}

let default_params =
  {
    n_walkers = 8;
    warmup = 50;
    blocks = 10;
    steps_per_block = 20;
    tau = 0.3;
    seed = 7;
    n_domains = 1;
  }

type result = {
  energy : float;
  energy_error : float;
  variance : float;
  acceptance : float;
  throughput : float; (* MC samples (walker·steps) per second *)
  wall_time : float;
  tau_corr : float;
  samples : int;
  block_energies : float array;
  drift_max : float;
      (* largest |incremental log Ψ − recompute| seen at the per-block
         refresh: the mixed-precision drift the paper's periodic
         recompute bounds *)
}

type wstate = {
  walker : Walker.t;
  rng : Xoshiro.t;
  mutable e_sum : float;
  mutable e2_sum : float;
  mutable n_meas : int;
  mutable accepted : int;
  mutable proposed : int;
  mutable drift : float;
}

let run ?observe ?(crowd = 1) ?(rank = 0) ?telemetry ?(telemetry_every = 1)
    ?progress ~(factory : int -> Engine_api.t) (p : params) : result =
  if p.n_walkers < 1 then invalid_arg "Vmc.run: n_walkers < 1";
  if rank < 0 then invalid_arg "Vmc.run: rank < 0";
  let telemetry_every = max 1 telemetry_every in
  Runner.with_runner ~crowd ~walkers:p.n_walkers ~n_domains:p.n_domains
    ~factory @@ fun runner ->
  let e0 = Runner.engine runner 0 in
  let n = e0.Engine_api.n_electrons in
  (* Rank-aware seeding: shard [rank] of a multi-rank VMC run draws its
     walker streams from a disjoint seed block, so rank ensembles never
     share a random sequence.  [rank = 0] reproduces the single-rank
     streams exactly. *)
  let rngs = Xoshiro.streams ~seed:(p.seed + (7919 * rank)) (p.n_walkers + 1) in
  (* Independent starting configurations, registered buffers. *)
  let states =
    Array.init p.n_walkers (fun i ->
        let w = Walker.create n in
        e0.Engine_api.randomize rngs.(i);
        e0.Engine_api.register_walker w;
        {
          walker = w;
          rng = rngs.(i);
          e_sum = 0.;
          e2_sum = 0.;
          n_meas = 0;
          accepted = 0;
          proposed = 0;
          drift = 0.;
        })
  in
  (* A "pass" runs [steps] sweeps for every walker, calling [measure]
     after each sweep when set, then [finish] once per walker; walker
     groups are processed in lockstep by their domain's sweep unit. *)
  let pass ~steps ~measuring ~finish =
    let measure_into (e : Engine_api.t) (s : wstate)
        (r : Engine_api.sweep_result) =
      s.accepted <- s.accepted + r.Engine_api.accepted;
      s.proposed <- s.proposed + r.Engine_api.proposed;
      let el = e.Engine_api.measure () in
      s.walker.Walker.e_local <- el;
      s.e_sum <- s.e_sum +. el;
      s.e2_sum <- s.e2_sum +. (el *. el);
      s.n_meas <- s.n_meas + 1
    in
    Runner.iter_groups runner ~n:p.n_walkers
      ~walker:(fun i -> states.(i).walker)
      ~f:(fun u ~lo ~m ->
        for _ = 1 to steps do
          let rs =
            Runner.sweep u ~active:m
              ~rng:(fun s -> states.(lo + s).rng)
              ~tau:p.tau
          in
          if measuring then
            for s = 0 to m - 1 do
              measure_into (Runner.slot_engine u s) states.(lo + s) rs.(s)
            done
        done;
        for s = 0 to m - 1 do
          finish (Runner.slot_engine u s) states.(lo + s)
        done)
  in
  (* Warmup: equilibrate each walker, then re-derive the wavefunction
     state from scratch to shed accumulated update error. *)
  Trace.with_span "vmc.warmup" (fun () ->
      pass ~steps:p.warmup ~measuring:false ~finish:(fun e s ->
          ignore (e.Engine_api.refresh ());
          e.Engine_api.save_walker s.walker));
  let block_energies = Array.make p.blocks 0. in
  let m_e_block = Metrics.gauge "vmc.e_block"
  and m_blocks = Metrics.counter "vmc.blocks"
  and m_acc = Metrics.counter "vmc.accepted"
  and m_prop = Metrics.counter "vmc.proposed" in
  let prev_acc = ref 0 and prev_prop = ref 0 in
  let t0 = Oqmc_containers.Timers.now () in
  for b = 0 to p.blocks - 1 do
    Trace.with_span ~args:[ ("block", string_of_int b) ] "vmc.block"
    @@ fun () ->
    (* Periodic recompute-from-scratch at block end: the mixed-precision
       accuracy safeguard of the paper — and the watchdog's drift
       metric. *)
    pass ~steps:p.steps_per_block ~measuring:true ~finish:(fun e s ->
        s.drift <- Float.max s.drift (Engine_api.drift e);
        e.Engine_api.save_walker s.walker);
    (* Observables accumulate serially from the stored walkers. *)
    (match observe with
    | Some f -> Array.iter (fun s -> f s.walker) states
    | None -> ());
    let bsum =
      Array.fold_left (fun acc s -> acc +. s.walker.Walker.e_local) 0. states
    in
    block_energies.(b) <- bsum /. float_of_int p.n_walkers;
    let cum_acc = Array.fold_left (fun a s -> a + s.accepted) 0 states in
    let cum_prop = Array.fold_left (fun a s -> a + s.proposed) 0 states in
    let b_acc = cum_acc - !prev_acc and b_prop = cum_prop - !prev_prop in
    prev_acc := cum_acc;
    prev_prop := cum_prop;
    Metrics.set m_e_block block_energies.(b);
    Metrics.inc m_blocks;
    Metrics.add m_acc b_acc;
    Metrics.add m_prop b_prop;
    let elapsed = Oqmc_containers.Timers.now () -. t0 in
    let acc_frac = float_of_int b_acc /. float_of_int (max 1 b_prop) in
    (if b mod telemetry_every = 0 then
       match telemetry with
       | Some sink ->
           Telemetry.emit sink
             Oqmc_obs.Jsonx.(Obj
                [
                  ("block", Num (float_of_int b));
                  ("e_block", Num block_energies.(b));
                  ("acceptance", Num acc_frac);
                  ( "walkers_per_s",
                    Num
                      (if elapsed > 0. then
                         float_of_int
                           (p.n_walkers * (b + 1) * p.steps_per_block)
                         /. elapsed
                       else 0.) );
                  ("wall_s", Num elapsed);
                ])
       | None -> ());
    match progress with
    | Some pr ->
        Progress.update pr
          (Printf.sprintf "vmc block %d/%d  E %+.6f  acc %.3f" (b + 1)
             p.blocks block_energies.(b) acc_frac)
    | None -> ()
  done;
  let wall_time = Oqmc_containers.Timers.now () -. t0 in
  Runner.export_timers runner;
  let tot_meas = Array.fold_left (fun a s -> a + s.n_meas) 0 states in
  let e_sum = Array.fold_left (fun a s -> a +. s.e_sum) 0. states in
  let e2_sum = Array.fold_left (fun a s -> a +. s.e2_sum) 0. states in
  let energy =
    if tot_meas = 0 then 0. else e_sum /. float_of_int tot_meas
  in
  let variance =
    if tot_meas = 0 then 0.
    else (e2_sum /. float_of_int tot_meas) -. (energy *. energy)
  in
  let acc = Array.fold_left (fun a s -> a + s.accepted) 0 states in
  let prop = Array.fold_left (fun a s -> a + s.proposed) 0 states in
  let bseries = Stats.make_series () in
  Array.iter (fun e -> Stats.append bseries e) block_energies;
  let tau_corr = Stats.autocorrelation_time bseries in
  {
    energy;
    energy_error =
      sqrt (Stats.series_variance bseries /. float_of_int p.blocks);
    variance;
    acceptance = float_of_int acc /. float_of_int (max 1 prop);
    throughput =
      (if wall_time > 0. then
         float_of_int (p.n_walkers * p.blocks * p.steps_per_block)
         /. wall_time
       else 0.);
    wall_time;
    tau_corr;
    samples = tot_meas;
    block_energies;
    drift_max = Array.fold_left (fun a s -> Float.max a s.drift) 0. states;
  }
