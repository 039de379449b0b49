open Oqmc_core
open Oqmc_workloads
open Oqmc_dist

(* Supervision-overhead benchmark: the same supervised DMC run over
   (a) the in-process mailbox transport, (b) the pipe transport with
   forked ranks, and (c) forked with a mid-run SIGKILL recovered from a
   checkpoint shard — isolating the cost of process isolation, the wire
   encoding, and a full crash recovery. *)

let params ~ranks ~faults ~checkpoint =
  {
    Supervisor.default_params with
    ranks;
    target_walkers = 8 * ranks;
    warmup = 10;
    generations = 60;
    tau = 0.02;
    seed = 42;
    n_domains = 1;
    heartbeat_s = 30.;
    respawn_backoff = 0.01;
    checkpoint;
    checkpoint_every = (if checkpoint = None then 0 else 10);
    faults;
  }

let line name (r : Supervisor.result) =
  Printf.printf
    "  %-28s %7.3f s   E = %9.5f ± %.5f   pop %6.1f   %4d msgs %6.1f kB   \
     %d respawn(s)\n"
    name r.Supervisor.wall_time r.Supervisor.energy r.Supervisor.energy_error
    r.Supervisor.mean_population r.Supervisor.comm_messages
    (float_of_int r.Supervisor.comm_bytes /. 1e3)
    r.Supervisor.respawns

let run () =
  let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 () in
  let factory = Build.factory ~variant:Variant.Current_f64 ~seed:321 sys in
  print_endline "== rank supervision overhead (heg-8, 60 generations) ==";
  List.iter
    (fun ranks ->
      Printf.printf "ranks = %d\n" ranks;
      let local = Supervisor.run_local ~factory (params ~ranks ~faults:[] ~checkpoint:None) in
      line "in-process mailbox" local;
      let forked = Supervisor.run ~factory (params ~ranks ~faults:[] ~checkpoint:None) in
      line "pipes, fault-free" forked;
      let dir = Filename.temp_file "oqmc_distbench" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let recovered =
        Supervisor.run ~factory
          (params ~ranks
             ~faults:[ (ranks - 1, 30, Oqmc_core.Fault.Rank_kill) ]
             ~checkpoint:(Some (Filename.concat dir "bench.chk")))
      in
      line "pipes, 1 crash recovered" recovered;
      if local.Supervisor.wall_time > 0. then
        Printf.printf "  fork+wire overhead: %+.1f%%   crash-recovery cost: %+.1f%%\n"
          ((forked.Supervisor.wall_time /. local.Supervisor.wall_time -. 1.)
          *. 100.)
          ((recovered.Supervisor.wall_time /. forked.Supervisor.wall_time -. 1.)
          *. 100.))
    [ 2; 4 ]
