open Oqmc_core
open Oqmc_workloads

(* Full production-style driver: VMC or DMC on a Table 1 workload or a
   validation system, in any build variant, with walker parallelism over
   domains — the "qmcpack" binary of this repository. *)

(* Attach the CLI-level observability outputs (single-process VMC/DMC
   paths; the multi-rank path hands them to the supervisor instead,
   which must enable tracing before it forks).  [f] receives the open
   telemetry sink and progress line, if any; the trace is exported and
   everything flushed on the way out, including on exceptions. *)
let with_obs ~trace ~telemetry ~progress f =
  let module Trace = Oqmc_obs.Trace in
  if trace <> None && not (Trace.enabled ()) then Trace.enable ();
  let sink = Option.map Oqmc_obs.Telemetry.create telemetry in
  let prog = if progress then Some (Oqmc_obs.Progress.create ()) else None in
  Fun.protect
    ~finally:(fun () ->
      (match prog with Some pr -> Oqmc_obs.Progress.finish pr | None -> ());
      (match sink with Some s -> Oqmc_obs.Telemetry.close s | None -> ());
      match trace with Some path -> Trace.export ~path | None -> ())
    (fun () -> f sink prog)

let parse_precision_for flag =
  Input.precision_of_string
    ~fail:(fun msg -> invalid_arg ("oqmc_run: --" ^ msg))
    flag

let parse_precision = parse_precision_for "precision"

let run input method_ workload variant reduction walkers blocks steps tau
    domains crowd delay precision precision_dt precision_jastrow
    precision_inv with_nlpp seed checkpoint
    checkpoint_every checkpoint_keep
    watchdog restore ranks heartbeat_ms max_respawn elastic gen_deadline_ms
    trace telemetry telemetry_every progress flightrec
    status audit =
  (* An input deck, when given, takes precedence over the flags. *)
  let cfg =
    match input with
    | Some path -> Input.parse_file path
    | None ->
        let cfg =
          {
            Input.method_ = String.lowercase_ascii method_;
            workload;
            variant = Variant.of_string variant;
            reduction;
            walkers;
            blocks;
            steps;
            tau;
            domains;
            crowd;
            delay;
            precision = parse_precision precision;
            precision_dt = parse_precision_for "precision-dt" precision_dt;
            precision_jastrow =
              parse_precision_for "precision-jastrow" precision_jastrow;
            precision_inv = parse_precision_for "precision-inv" precision_inv;
            nlpp = with_nlpp;
            seed;
            checkpoint;
            checkpoint_every;
            checkpoint_keep;
            watchdog;
            restore;
            ranks;
            heartbeat_ms;
            max_respawn;
            elastic;
            gen_deadline_ms;
            trace;
            telemetry;
            telemetry_every;
            progress;
          }
        in
        Input.check cfg;
        cfg
  in
  let method_ = cfg.Input.method_ in
  let workload = cfg.Input.workload in
  let variant = cfg.Input.variant in
  let reduction = cfg.Input.reduction in
  let walkers = cfg.Input.walkers in
  let blocks = cfg.Input.blocks in
  let steps = cfg.Input.steps in
  let tau = cfg.Input.tau in
  let domains = cfg.Input.domains in
  let crowd = cfg.Input.crowd in
  let delay = cfg.Input.delay in
  let precision = cfg.Input.precision in
  let precision_dt = cfg.Input.precision_dt in
  let precision_jastrow = cfg.Input.precision_jastrow in
  let precision_inv = cfg.Input.precision_inv in
  let with_nlpp = cfg.Input.nlpp in
  let seed = cfg.Input.seed in
  let checkpoint = cfg.Input.checkpoint in
  let checkpoint_every = cfg.Input.checkpoint_every in
  let checkpoint_keep = cfg.Input.checkpoint_keep in
  let watchdog = cfg.Input.watchdog in
  let restore = cfg.Input.restore in
  let ranks = cfg.Input.ranks in
  let heartbeat_ms = cfg.Input.heartbeat_ms in
  let max_respawn = cfg.Input.max_respawn in
  let elastic = cfg.Input.elastic in
  let gen_deadline_ms = cfg.Input.gen_deadline_ms in
  let trace = cfg.Input.trace in
  let telemetry = cfg.Input.telemetry in
  let telemetry_every = max 1 cfg.Input.telemetry_every in
  let progress = cfg.Input.progress in
  if crowd < 1 then invalid_arg "oqmc_run: --crowd must be >= 1";
  if delay < 1 then invalid_arg "oqmc_run: --delay must be >= 1";
  let sys = Builder.named ~seed ~reduction ~with_nlpp ~precision workload in
  (* Effective working precision: explicit override beats the variant's
     default. *)
  let eff_precision =
    match precision with
    | Some p -> p
    | None -> (
        match variant with
        | Variant.Ref | Variant.Current_f64 -> `F64
        | Variant.Ref_mp | Variant.Current -> `F32)
  in
  (* Any explicitly single-precision table — orbital, distance, Jastrow
     or inverse — arms the integrity watchdog's sampled full-recompute
     drift audit unless the deck configured one. *)
  let watchdog =
    let any_f32 =
      List.exists
        (fun p -> p = Some `F32)
        [ precision; precision_dt; precision_jastrow; precision_inv ]
    in
    if watchdog = 0 && any_f32 then 10 else watchdog
  in
  let factory =
    (* delay = 1 keeps the rank-1 Sherman-Morrison update (the bitwise
       reference); > 1 switches to the delayed Woodbury scheme. *)
    Build.factory
      ?delay:(if delay <= 1 then None else Some delay)
      ?precision ?precision_dt ?precision_jastrow ?precision_inv ~variant
      ~seed sys
  in
  Printf.printf
    "oqmc_run: %s  %s  variant=%s  precision=%s  electrons=%d  domains=%d  \
     crowd=%d  delay=%d\n"
    method_ workload
    (Variant.to_string variant)
    (match eff_precision with `F32 -> "f32" | `F64 -> "f64")
    (System.n_electrons sys) domains
    (min crowd (Runner.max_crowd ~variant ~walkers))
    delay;
  (* --audit: calibrate a roofline projection for this run shape up
     front; measured-vs-projected gauges refresh live (per ledger
     window) and the verdict table prints after the run. *)
  let audit_ctx =
    if not audit then None
    else
      Some
        (Oqmc_autotune.Audit.create ~walkers ~domains ~ranks:(max 1 ranks)
           ~variant ~precision:eff_precision ~sys ())
  in
  let print_audit ?measured_gen_s () =
    match audit_ctx with
    | None -> ()
    | Some a -> (
        match Oqmc_autotune.Audit.observe ?measured_gen_s a with
        | Some r -> print_string (Oqmc_autotune.Audit.table r)
        | None -> ())
  in
  (* Any fatal unwind of the single-process paths dumps the flight
     recorder before the sinks close (the multi-rank supervisor owns its
     own dump paths). *)
  let flight_guard f =
    match flightrec with
    | None -> f ()
    | Some path -> (
        try f ()
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          (try Oqmc_obs.Flightrec.dump ~reason:(Printexc.to_string e) ~path ()
           with _ -> ());
          Printexc.raise_with_backtrace e bt)
  in
  match method_ with
  | "dmc" when ranks > 1 ->
      (* Supervised multi-process execution: forked rank workers with
         heartbeats, real walker exchange and crash recovery. *)
      let params =
        {
          Oqmc_dist.Supervisor.default_params with
          ranks;
          target_walkers = walkers;
          warmup = steps;
          generations = blocks * steps;
          tau;
          seed = seed + 1;
          n_domains = domains;
          crowd;
          heartbeat_s = float_of_int heartbeat_ms /. 1000.;
          max_respawn;
          checkpoint = (match checkpoint with Some _ -> checkpoint | None -> restore);
          checkpoint_every;
          checkpoint_keep;
          restore = restore <> None;
          elastic;
          gen_deadline_ms;
          flightrec;
          status;
          on_window =
            Option.map
              (fun a _gen -> ignore (Oqmc_autotune.Audit.observe a))
              audit_ctx;
          trace;
          telemetry;
          telemetry_every;
          progress;
        }
      in
      let res = Oqmc_dist.Supervisor.run ~factory params in
      let open Oqmc_dist.Supervisor in
      Printf.printf "DMC energy    : %.6f +/- %.6f\n" res.energy
        res.energy_error;
      Printf.printf "variance      : %.6f   tau_corr %.2f\n" res.variance
        res.tau_corr;
      Printf.printf "population    : %.1f (target %d)\n" res.mean_population
        walkers;
      Printf.printf "acceptance    : %.3f\n" res.acceptance;
      Printf.printf "wall time     : %.2f s\n" res.wall_time;
      Printf.printf "exchange      : %d walker messages, %.2f MB total\n"
        res.comm_messages
        (float_of_int res.comm_bytes /. 1e6);
      Printf.printf
        "supervision   : %d/%d ranks live, %d respawns, %d crashes, %d \
         stalls, %d garbage frames, %d degraded generations\n"
        res.live_ranks ranks res.respawns res.crashes res.heartbeat_timeouts
        res.garbage_frames res.degraded_generations;
      if elastic then
        Printf.printf
          "elastic       : %d joins, %d leaves, %d stragglers, gen p50 \
           %.1f ms p99 %.1f ms\n"
          res.joins res.leaves res.stragglers (1e3 *. res.gen_p50_s)
          (1e3 *. res.gen_p99_s);
      if res.ranks_failed <> [] then
        Printf.printf "ranks lost    : %s\n"
          (String.concat ", " (List.map string_of_int res.ranks_failed));
      print_audit ()
  | "vmc" ->
      let res =
        flight_guard @@ fun () ->
        with_obs ~trace ~telemetry ~progress (fun sink prog ->
            Vmc.run ~crowd ?telemetry:sink ~telemetry_every ?progress:prog
              ~factory
              {
                Vmc.n_walkers = walkers;
                warmup = steps;
                blocks;
                steps_per_block = steps;
                tau;
                seed = seed + 1;
                n_domains = domains;
              })
      in
      Printf.printf "VMC energy    : %.6f +/- %.6f\n" res.Vmc.energy
        res.Vmc.energy_error;
      Printf.printf "variance      : %.6f\n" res.Vmc.variance;
      Printf.printf "acceptance    : %.3f\n" res.Vmc.acceptance;
      Printf.printf "tau_corr      : %.2f\n" res.Vmc.tau_corr;
      Printf.printf "throughput    : %.1f samples/s  (%.2f s)\n"
        res.Vmc.throughput res.Vmc.wall_time;
      if res.Vmc.throughput > 0. then
        print_audit
          ~measured_gen_s:(float_of_int walkers /. res.Vmc.throughput)
          ()
  | _ (* "dmc": [Input.check] admits no other method *) ->
      let initial =
        match restore with
        | Some path ->
            (* Resume from the newest *valid* checkpoint generation,
               falling back past corrupt ones. *)
            let gen, (e_trial, ws) = Checkpoint.load_latest ~path in
            Printf.printf
              "restored %d walkers from %s (generation %d, E_T = %.6f)\n"
              (List.length ws) path gen e_trial;
            Some (e_trial, ws)
        | None -> None
      in
      let watchdog_cfg =
        if watchdog > 0 then
          Some { Integrity.default_config with check_every = watchdog }
        else None
      in
      let res =
        flight_guard @@ fun () ->
        with_obs ~trace ~telemetry ~progress (fun sink prog ->
            Dmc.run ?initial ~checkpoint_every ~checkpoint_keep
              ?checkpoint_path:checkpoint ?watchdog:watchdog_cfg ~crowd
              ?telemetry:sink ~telemetry_every ?progress:prog ~factory
              {
                Dmc.target_walkers = walkers;
                warmup = steps;
                generations = blocks * steps;
                tau;
                seed = seed + 1;
                n_domains = domains;
                ranks = max 1 ranks;
              })
      in
      Printf.printf "DMC energy    : %.6f +/- %.6f\n" res.Dmc.energy
        res.Dmc.energy_error;
      Printf.printf "variance      : %.6f   tau_corr %.2f   kappa %.3g\n"
        res.Dmc.variance res.Dmc.tau_corr res.Dmc.efficiency;
      Printf.printf "population    : %.1f (target %d)\n"
        res.Dmc.mean_population walkers;
      Printf.printf "acceptance    : %.3f\n" res.Dmc.acceptance;
      Printf.printf "throughput    : %.1f samples/s  (%.2f s)\n"
        res.Dmc.throughput res.Dmc.wall_time;
      Printf.printf "load balance  : %d walker messages, %.2f MB total\n"
        res.Dmc.comm_messages
        (float_of_int res.Dmc.comm_bytes /. 1e6);
      let it = res.Dmc.integrity in
      if it.Integrity.scans > 0 || it.Integrity.checkpoints_written > 0 then
        Printf.printf
          "integrity     : %d scans, %d audits, %d quarantined, %d \
           recovered, drift_max %.3g, %d checkpoints (%d failed)\n"
          it.Integrity.scans it.Integrity.audits it.Integrity.quarantined
          it.Integrity.recoveries it.Integrity.drift_max
          it.Integrity.checkpoints_written it.Integrity.checkpoint_failures;
      if res.Dmc.wall_time > 0. && blocks * steps > 0 then
        print_audit
          ~measured_gen_s:(res.Dmc.wall_time /. float_of_int (blocks * steps))
          ();
      (match checkpoint with
      | Some path ->
          Checkpoint.save ~path ~e_trial:res.Dmc.final_e_trial
            res.Dmc.final_walkers;
          Printf.printf "checkpointed %d walkers to %s\n"
            (List.length res.Dmc.final_walkers)
            path
      | None -> ())

open Cmdliner

let input =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"DECK"
        ~doc:"Read all settings from an input deck (overrides the flags).")

let method_ =
  Arg.(
    value & opt string "vmc"
    & info [ "m"; "method" ] ~doc:"QMC method: vmc or dmc.")

let workload =
  Arg.(
    value & opt string "heg"
    & info [ "w"; "workload" ]
        ~doc:
          "System: a Table 1 workload (Graphite, Be-64, NiO-32, NiO-64) or \
           a validation system (harmonic, hydrogen, heg).")

let variant =
  Arg.(
    value & opt string "Current"
    & info [ "v"; "variant" ] ~doc:"Ref, Ref+MP, Current or Current(f64).")

let reduction =
  Arg.(value & opt int 8 & info [ "r"; "reduction" ] ~doc:"Size reduction.")

let walkers =
  Arg.(value & opt int 8 & info [ "n"; "walkers" ] ~doc:"Walkers / target.")

let blocks = Arg.(value & opt int 5 & info [ "b"; "blocks" ] ~doc:"Blocks.")

let steps =
  Arg.(value & opt int 10 & info [ "s"; "steps" ] ~doc:"Steps per block.")

let tau = Arg.(value & opt float 0.1 & info [ "t"; "tau" ] ~doc:"Time step.")

let domains =
  Arg.(value & opt int 1 & info [ "d"; "domains" ] ~doc:"Worker domains.")

let crowd =
  Arg.(
    value & opt int 1
    & info [ "crowd" ] ~docv:"C"
        ~doc:
          "Walkers advanced in lockstep per domain through the fused crowd \
           pipeline (Current variants; Ref and Ref+MP ignore it), at most \
           the walker count.")

let delay =
  Arg.(
    value & opt int 1
    & info [ "delay" ] ~docv:"K"
        ~doc:
          "Delayed determinant-update rank (Woodbury block size); 1 keeps \
           the rank-1 Sherman-Morrison update.")

let precision =
  Arg.(
    value & opt string ""
    & info [ "precision" ] ~docv:"P"
        ~doc:
          "Working precision override: f32 (single storage + arithmetic, \
           f64 accumulators) or f64.  Default: the variant's own \
           precision.  An explicit f32 run auto-enables the integrity \
           watchdog's drift audit.")

let precision_dt =
  Arg.(
    value & opt string ""
    & info [ "precision-dt" ] ~docv:"P"
        ~doc:
          "Storage precision of the SoA distance tables: f32 (rows \
           narrowed at commit, distances still computed in double) or \
           f64.  Default: follow --precision.  An explicit f32 value \
           auto-enables the watchdog drift audit.")

let precision_jastrow =
  Arg.(
    value & opt string ""
    & info [ "precision-jastrow" ] ~docv:"P"
        ~doc:
          "Storage precision of the Jastrow radial-spline coefficients \
           (rounded once at engine build; evaluation stays double).  \
           Default: follow --precision.")

let precision_inv =
  Arg.(
    value & opt string ""
    & info [ "precision-inv" ] ~docv:"P"
        ~doc:
          "Storage precision of the determinant inverses and \
           delayed-update panels (f64 accumulation either way).  \
           Default: follow --precision.")

let nlpp = Arg.(value & flag & info [ "nlpp" ] ~doc:"Enable NLPP.")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.")

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"PATH"
        ~doc:
          "Write the final DMC walker ensemble to $(docv); with \
           --checkpoint-every, also write rotating $(docv).gen-N files \
           during the run.")

let checkpoint_every =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Checkpoint the DMC ensemble every $(docv) generations (0 \
           disables periodic checkpointing).")

let checkpoint_keep =
  Arg.(
    value & opt int 3
    & info [ "checkpoint-keep" ] ~docv:"K"
        ~doc:"Keep the newest $(docv) checkpoint generations.")

let watchdog =
  Arg.(
    value & opt int 0
    & info [ "watchdog" ] ~docv:"G"
        ~doc:
          "Enable the walker watchdog: NaN/Inf scan every generation and \
           a full-recompute drift audit every $(docv) generations (0 \
           disables).")

let restore =
  Arg.(
    value
    & opt (some string) None
    & info [ "restore" ] ~docv:"PATH"
        ~doc:
          "Resume DMC from a checkpoint written by --checkpoint, picking \
           the newest valid $(docv).gen-N generation (or $(docv) itself) \
           and skipping corrupt ones.  With --ranks > 1, resumes every \
           rank from the newest complete set of $(docv).rank-R shards.")

let ranks =
  Arg.(
    value & opt int 1
    & info [ "ranks" ] ~docv:"R"
        ~doc:
          "Run DMC as $(docv) supervised worker processes with real \
           walker exchange and crash recovery (1 = single process).")

let heartbeat_ms =
  Arg.(
    value & opt int 5000
    & info [ "heartbeat-ms" ] ~docv:"MS"
        ~doc:
          "Deadline in milliseconds on every message from a rank; a rank \
           that misses it is declared stalled and respawned.")

let max_respawn =
  Arg.(
    value & opt int 2
    & info [ "max-respawn" ] ~docv:"N"
        ~doc:
          "Respawns allowed per rank before it is abandoned and the run \
           degrades to the surviving ranks.")

let elastic =
  Arg.(
    value & flag
    & info [ "elastic" ]
        ~doc:
          "Enable elastic rank membership: abandoned rank slots become \
           refillable, graceful drain/leave is honored, and (with \
           --gen-deadline-ms > 0) shard checkpoints overlap the next \
           generation's compute.")

let gen_deadline_ms =
  Arg.(
    value & opt int 0
    & info [ "gen-deadline-ms" ] ~docv:"MS"
        ~doc:
          "Soft per-generation budget: a rank finishing later than \
           $(docv) plus three smoothed heartbeat RTTs is counted as a \
           straggler (0 = classic lockstep).")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run to \
           $(docv) (load it in Perfetto or chrome://tracing).  With \
           --ranks > 1, every rank's spans are merged into one file.")

let telemetry =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"PATH"
        ~doc:
          "Append one JSON record per measured generation (DMC) or \
           block (VMC) to $(docv): energies, population, acceptance, \
           throughput.")

let telemetry_every =
  Arg.(
    value & opt int 1
    & info [ "telemetry-every" ] ~docv:"N"
        ~doc:"Emit every $(docv)-th telemetry record.")

let progress =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Paint a live single-line progress display on stderr.")

let flightrec =
  Arg.(
    value
    & opt (some string) None
    & info [ "flightrec" ] ~docv:"PATH"
        ~doc:
          "Dump the in-memory flight recorder (recent telemetry records \
           + trace spans) to a CRC-trailed postmortem file at $(docv) on \
           every abort path; replay it with oqmc_submit postmortem.")

let status =
  Arg.(
    value
    & opt (some string) None
    & info [ "status" ] ~docv:"PATH"
        ~doc:
          "Multi-rank DMC: write a live status JSON snapshot (progress, \
           per-rank throughput ledger, audit gauges) to $(docv), \
           atomically renamed into place and throttled to ~4 Hz.")

let audit =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Run the efficiency audit: calibrate this node's roofline, \
           project the run shape through the performance model, and \
           report measured-vs-projected generation time and per-kernel \
           shares after the run (gauges refresh live during it).")

let cmd =
  Cmd.v
    (Cmd.info "oqmc_run" ~doc:"VMC/DMC driver on workloads")
    Term.(
      const run $ input $ method_ $ workload $ variant $ reduction $ walkers
      $ blocks $ steps $ tau $ domains $ crowd $ delay $ precision
      $ precision_dt $ precision_jastrow $ precision_inv $ nlpp
      $ seed $ checkpoint
      $ checkpoint_every $ checkpoint_keep $ watchdog $ restore $ ranks
      $ heartbeat_ms $ max_respawn $ elastic $ gen_deadline_ms
      $ trace $ telemetry $ telemetry_every
      $ progress $ flightrec $ status $ audit)

let () = exit (Cmd.eval cmd)
