open Oqmc_core
open Oqmc_obs
open Oqmc_workloads
open Oqmc_dist

(* Chaos soak: a deterministic multi-hundred-generation supervised DMC
   run under a seeded schedule of kills, stalls, corrupted frames, full
   disks and elastic membership changes walking the rank count through
   4 -> 6 -> 3 -> 5.  The workload is the exact-eigenfunction harmonic
   trap — zero-variance, so the mixed estimator must stay pinned to the
   analytic energy no matter what the injector does.  Asserts, per
   seed: the run completes; every estimator is finite and within
   tolerance of both the uninjected reference and the exact energy; no
   walker is lost or duplicated by any membership transition; the rank
   trajectory is reached; and every scheduled event surfaced in the
   supervisor's counters and the telemetry stream.  Finishes with a
   lockstep-vs-softened generation-latency comparison under a straggler
   workload and writes BENCH_chaos.json.

   Run with `dune build @chaos-soak`; set OQMC_CHAOS_LONG=1 for the
   extended matrix. *)

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let long =
  match Sys.getenv_opt "OQMC_CHAOS_LONG" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let gens = if long then 600 else 220
let soak_seeds = if long then [ 3; 5; 7; 9; 11; 13 ] else [ 3; 5; 7 ]
let events = if long then 24 else 12
let trajectory = [ 6; 3; 5 ]
let start_ranks = 4
let target_walkers = 24

let sys = Validation.harmonic ~n:6 ~omega:1.0
let exact = Validation.harmonic_exact_energy ~n:6 ~omega:1.0
let factory = Build.factory ~variant:Variant.Current_f64 ~seed:700 sys

(* Zero-variance workload: the mixed estimator is the analytic energy
   up to kinetic-term roundoff, fault-injected or not. *)
let energy_tol = 1e-6

let tmpdir () =
  let d = Filename.temp_file "oqmc_chaos" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let base_params seed =
  {
    Supervisor.default_params with
    ranks = start_ranks;
    target_walkers;
    warmup = 5;
    generations = gens;
    tau = 0.01;
    seed;
    n_domains = 1;
    heartbeat_s = 30.;
    max_respawn = 10;
    respawn_backoff = 0.005;
    elastic = true;
    gen_deadline_ms = 200;
  }

let assert_finite seed (res : Supervisor.result) =
  if not (Float.is_finite res.Supervisor.energy) then
    fail "seed %d: non-finite energy" seed;
  if not (Float.is_finite res.Supervisor.final_e_trial) then
    fail "seed %d: non-finite trial energy" seed;
  Array.iter
    (fun e ->
      if not (Float.is_finite e) then fail "seed %d: non-finite series" seed)
    res.Supervisor.energy_series

(* Every telemetry line must parse, and every membership transition must
   be visible as its own record even under decimation. *)
let count_telemetry_events path =
  let ic = open_in path in
  let joins = ref 0 and leaves = ref 0 and lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         incr lines;
         match Jsonx.parse_string_exn line with
         | j -> (
             match Option.bind (Jsonx.member "event" j) Jsonx.to_str with
             | Some "join" -> incr joins
             | Some "leave" -> incr leaves
             | _ -> ())
         | exception _ -> fail "unparseable telemetry line: %s" line
       end
     done
   with End_of_file -> ());
  close_in ic;
  (!lines, !joins, !leaves)

let soak seed =
  let dir = tmpdir () in
  let path = Filename.concat dir "soak.chk" in
  let telem = Filename.concat dir "soak.telemetry.jsonl" in
  let schedule =
    Chaos.plan ~seed ~gens ~ranks:start_ranks ~trajectory ~events ~stall_s:0.4
      ~disk_failures:2 ()
  in
  let c = Chaos.count schedule in
  if Chaos.total schedule < events + 1 then
    fail "seed %d: schedule too small (%d events)" seed (Chaos.total schedule);
  let faults, membership = Supervisor.of_chaos schedule in
  (* The uninjected reference over the same initial shards (the
     in-process executor is bit-identical to the fault-free forked
     path, and far cheaper to run). *)
  let reference = Supervisor.run_local ~factory (base_params seed) in
  assert_finite seed reference;
  let p =
    {
      (base_params seed) with
      Supervisor.checkpoint = Some path;
      checkpoint_every = 5;
      checkpoint_keep = 2;
      telemetry = Some telem;
      telemetry_every = 4;
      faults;
      membership;
    }
  in
  let res = Supervisor.run ~factory p in
  (* 1. Completion + finite estimators within tolerance. *)
  assert_finite seed res;
  if abs_float (res.Supervisor.energy -. exact) > energy_tol then
    fail "seed %d: energy %.9f drifted from exact %.9f" seed
      res.Supervisor.energy exact;
  if abs_float (res.Supervisor.energy -. reference.Supervisor.energy)
     > energy_tol
  then
    fail "seed %d: injected energy %.9f vs reference %.9f" seed
      res.Supervisor.energy reference.Supervisor.energy;
  (* 2. No walker lost or duplicated by any membership transition. *)
  List.iter
    (fun m ->
      if m.Supervisor.m_walkers_before <> m.Supervisor.m_walkers_after then
        fail "seed %d: %s at gen %d lost walkers (%d -> %d)" seed
          m.Supervisor.m_kind m.Supervisor.m_gen m.Supervisor.m_walkers_before
          m.Supervisor.m_walkers_after)
    res.Supervisor.membership_log;
  (* 3. The whole membership plan landed and the trajectory was reached. *)
  if res.Supervisor.membership_skipped <> 0 then
    fail "seed %d: %d membership events skipped" seed
      res.Supervisor.membership_skipped;
  if res.Supervisor.joins <> c.Chaos.joins then
    fail "seed %d: %d joins scheduled, %d applied" seed c.Chaos.joins
      res.Supervisor.joins;
  if res.Supervisor.leaves <> c.Chaos.leaves then
    fail "seed %d: %d leaves scheduled, %d applied" seed c.Chaos.leaves
      res.Supervisor.leaves;
  if
    List.length res.Supervisor.membership_log
    <> c.Chaos.joins + c.Chaos.leaves
  then fail "seed %d: membership log incomplete" seed;
  let final_ranks = List.nth trajectory (List.length trajectory - 1) in
  if res.Supervisor.live_ranks <> final_ranks then
    fail "seed %d: trajectory should end at %d ranks, saw %d" seed final_ranks
      res.Supervisor.live_ranks;
  (* 4. Every fault surfaced in the supervisor's counters. *)
  if res.Supervisor.crashes < c.Chaos.kills then
    fail "seed %d: %d kills scheduled, only %d crashes seen" seed
      c.Chaos.kills res.Supervisor.crashes;
  if res.Supervisor.garbage_frames < c.Chaos.garbage then
    fail "seed %d: %d garbage frames scheduled, %d detected" seed
      c.Chaos.garbage res.Supervisor.garbage_frames;
  if c.Chaos.stalls > 0 && res.Supervisor.stragglers < c.Chaos.stalls then
    fail "seed %d: %d sub-heartbeat stalls scheduled, %d stragglers seen" seed
      c.Chaos.stalls res.Supervisor.stragglers;
  if res.Supervisor.ranks_failed <> [] then
    fail "seed %d: rank(s) abandoned despite the respawn budget" seed;
  (* 5. The telemetry stream is parseable end to end and carries every
     membership transition as its own record. *)
  let lines, tj, tl = count_telemetry_events telem in
  if lines = 0 then fail "seed %d: empty telemetry" seed;
  if tj <> c.Chaos.joins || tl <> c.Chaos.leaves then
    fail "seed %d: telemetry saw %d/%d joins, %d/%d leaves" seed tj
      c.Chaos.joins tl c.Chaos.leaves;
  Printf.printf
    "chaos seed %2d OK: %3d gens, %2d events (%d kill %d stall %d garbage %d \
     disk), %d joins %d leaves, E = %.9f (exact %.9f), %d respawns, gen p50 \
     %.1f ms p99 %.1f ms\n%!"
    seed gens (Chaos.total schedule) c.Chaos.kills c.Chaos.stalls
    c.Chaos.garbage c.Chaos.disk_full res.Supervisor.joins
    res.Supervisor.leaves res.Supervisor.energy exact res.Supervisor.respawns
    (1000. *. res.Supervisor.gen_p50_s)
    (1000. *. res.Supervisor.gen_p99_s);
  (seed, schedule, res)

(* Generation-latency comparison: the same straggler workload (periodic
   sub-heartbeat stalls) under classic lockstep vs deadline-budgeted
   barrier softening (stragglers counted) + async checkpoints. *)
let latency_run ~softened =
  let dir = tmpdir () in
  let path = Filename.concat dir "lat.chk" in
  let lat_gens = if long then 120 else 60 in
  let faults =
    (* One 100 ms stall every 8 generations, round-robin over ranks. *)
    List.init (lat_gens / 8) (fun i ->
        ((i mod start_ranks), (8 * i) + 4, Fault.Rank_stall 0.1))
  in
  let p =
    {
      (base_params 901) with
      Supervisor.generations = lat_gens;
      checkpoint = Some path;
      checkpoint_every = 5;
      checkpoint_keep = 2;
      faults;
      gen_deadline_ms = (if softened then 40 else 0);
    }
  in
  let res = Supervisor.run ~factory p in
  assert_finite 901 res;
  res

let () =
  let survivals = List.map soak soak_seeds in
  let lockstep = latency_run ~softened:false in
  let softened = latency_run ~softened:true in
  Printf.printf
    "latency: lockstep p50 %.1f ms p99 %.1f ms | softened p50 %.1f ms p99 \
     %.1f ms (%d stragglers)\n%!"
    (1000. *. lockstep.Supervisor.gen_p50_s)
    (1000. *. lockstep.Supervisor.gen_p99_s)
    (1000. *. softened.Supervisor.gen_p50_s)
    (1000. *. softened.Supervisor.gen_p99_s)
    softened.Supervisor.stragglers;
  let seed_obj (seed, schedule, (res : Supervisor.result)) =
    let c = Chaos.count schedule in
    Jsonx.Obj
      [
        ("seed", Jsonx.Num (float_of_int seed));
        ("generations", Jsonx.Num (float_of_int gens));
        ("events", Jsonx.Num (float_of_int (Chaos.total schedule)));
        ("kills", Jsonx.Num (float_of_int c.Chaos.kills));
        ("stalls", Jsonx.Num (float_of_int c.Chaos.stalls));
        ("garbage", Jsonx.Num (float_of_int c.Chaos.garbage));
        ("disk_full", Jsonx.Num (float_of_int c.Chaos.disk_full));
        ("joins", Jsonx.Num (float_of_int res.Supervisor.joins));
        ("leaves", Jsonx.Num (float_of_int res.Supervisor.leaves));
        ("respawns", Jsonx.Num (float_of_int res.Supervisor.respawns));
        ("stragglers", Jsonx.Num (float_of_int res.Supervisor.stragglers));
        ("energy", Jsonx.Num res.Supervisor.energy);
        ("energy_exact", Jsonx.Num exact);
        ("gen_p50_s", Jsonx.Num res.Supervisor.gen_p50_s);
        ("gen_p99_s", Jsonx.Num res.Supervisor.gen_p99_s);
        ("survived", Jsonx.Bool true);
      ]
  in
  let lat (r : Supervisor.result) =
    Jsonx.Obj
      [
        ("gen_p50_s", Jsonx.Num r.Supervisor.gen_p50_s);
        ("gen_p99_s", Jsonx.Num r.Supervisor.gen_p99_s);
        ("stragglers", Jsonx.Num (float_of_int r.Supervisor.stragglers));
      ]
  in
  let bench =
    Jsonx.Obj
      [
        ("bench", Jsonx.Str "chaos_soak");
        ( "header",
          Jsonx.Obj
            [
              ("schema", Jsonx.Num 1.);
              ("precision", Jsonx.Str "f64");
              ("delay", Jsonx.Num 1.);
            ] );
        ("mode", Jsonx.Str (if long then "long" else "short"));
        ("survival", Jsonx.Arr (List.map seed_obj survivals));
        ( "latency",
          Jsonx.Obj [ ("lockstep", lat lockstep); ("softened", lat softened) ]
        );
      ]
  in
  let out =
    match Sys.getenv_opt "OQMC_BENCH_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_chaos.json"
  in
  let oc = open_out out in
  output_string oc (Jsonx.to_string bench);
  output_char oc '\n';
  close_out oc;
  Printf.printf "chaos soak OK: %d seeds x %d generations, BENCH -> %s\n%!"
    (List.length soak_seeds) gens out
