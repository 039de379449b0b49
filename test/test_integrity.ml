open Oqmc_particle
open Oqmc_core
open Oqmc_workloads
open Oqmc_rng

(* Run-integrity subsystem: crash-safe checkpoint v2 (atomic write,
   CRC-32 trailer, generation rotation, fallback), the walker watchdog,
   and the seeded fault-injection harness that proves every recovery
   path actually fires. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf tol = Alcotest.(check (float tol))

let tmpdir () =
  let f = Filename.temp_file "oqmc_integrity" "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

(* A small interacting system whose engine exercises real buffers. *)
let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 ()
let factory = Build.factory ~variant:Variant.Current_f64 ~seed:500 sys

let mk_walkers ?(seed = 41) n_walkers =
  let e = Build.engine ~variant:Variant.Current_f64 ~seed:40 sys in
  let rng = Xoshiro.create seed in
  ( e,
    List.init n_walkers (fun _ ->
        let w = Walker.create 8 in
        e.Engine_api.randomize rng;
        e.Engine_api.register_walker w;
        w.Walker.weight <- 0.5 +. Xoshiro.uniform rng;
        w.Walker.e_local <- e.Engine_api.measure ();
        w) )

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* ---------- checkpoint v2 format ---------- *)

let test_crc32_vector () =
  (* The standard IEEE CRC-32 check value. *)
  check_int "crc32(123456789)" 0xCBF43926 (Checkpoint.crc32 "123456789")

let test_v2_roundtrip_atomic () =
  let dir = tmpdir () in
  let path = Filename.concat dir "run.chk" in
  let _, walkers = mk_walkers 3 in
  Checkpoint.save ~path ~e_trial:(-1.5) walkers;
  check_bool "no tmp file left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  check_bool "v2 magic" true
    (String.length (read_file path) > String.length Checkpoint.magic
    && String.sub (read_file path) 0 (String.length Checkpoint.magic)
       = Checkpoint.magic);
  let e_trial, restored = Checkpoint.load ~path in
  checkf 0. "e_trial" (-1.5) e_trial;
  check_int "count" 3 (List.length restored);
  List.iter2
    (fun (a : Walker.t) (b : Walker.t) ->
      checkf 0. "weight bit-exact" a.Walker.weight b.Walker.weight;
      checkf 0. "log_psi bit-exact" a.Walker.log_psi b.Walker.log_psi)
    walkers restored

(* The checkpoint and manifest writers append the CRC trailer to the
   rendered buffer in place; the bytes on disk must be exactly the
   payload followed by "crc %08x\n" of it, as when the payload was a
   copied-out string. *)
let test_trailer_form () =
  let dir = tmpdir () in
  let path = Filename.concat dir "t.chk" in
  let old_form data =
    let len = String.length data in
    let cut = String.rindex_from data (len - 2) '\n' + 1 in
    let payload = String.sub data 0 cut in
    payload ^ Printf.sprintf "crc %08x\n" (Checkpoint.crc32 payload)
  in
  let _, walkers = mk_walkers 3 in
  Checkpoint.save ~path ~e_trial:(-1.25) walkers;
  let data = read_file path in
  Alcotest.(check string) "checkpoint bytes" (old_form data) data;
  Checkpoint.save_shard ~path ~rank:1 ~gen:4 ~e_trial:0.5 walkers;
  let shard =
    read_file
      (Checkpoint.generation_path ~path:(Checkpoint.shard_path ~path ~rank:1) 4)
  in
  Alcotest.(check string) "shard bytes" (old_form shard) shard;
  Checkpoint.save_manifest ~path ~gen:30 ~ranks:[ 0; 1; 3 ] ();
  let payload = "OQMC-MANIFEST-1\ngen 30\nranks 0 1 3\n" in
  Alcotest.(check string) "manifest bytes"
    (payload ^ Printf.sprintf "crc %08x\n" (Checkpoint.crc32 payload))
    (read_file (Checkpoint.manifest_path ~path))

let test_v1_still_loads () =
  let dir = tmpdir () in
  let path = Filename.concat dir "v1.chk" in
  let _, walkers = mk_walkers 2 in
  Checkpoint.save ~path ~e_trial:(-0.5) walkers;
  (* Rewrite as v1: swap the magic, drop the crc trailer. *)
  let content = read_file path in
  let lines = String.split_on_char '\n' content in
  let v1 =
    lines
    |> List.filter (fun l -> String.length l < 4 || String.sub l 0 4 <> "crc ")
    |> List.map (fun l -> if l = Checkpoint.magic then Checkpoint.magic_v1 else l)
    |> String.concat "\n"
  in
  write_file path v1;
  let e_trial, restored = Checkpoint.load ~path in
  checkf 0. "v1 e_trial" (-0.5) e_trial;
  check_int "v1 count" 2 (List.length restored)

let test_strict_trailing_garbage () =
  let dir = tmpdir () in
  let path = Filename.concat dir "g.chk" in
  let _, walkers = mk_walkers 2 in
  Checkpoint.save ~path ~e_trial:(-1.0) walkers;
  (* Garbage after the crc trailer. *)
  write_file path (read_file path ^ "junk\n");
  (try
     ignore (Checkpoint.load ~path);
     Alcotest.fail "expected Corrupt on trailing garbage"
   with Checkpoint.Corrupt _ -> ());
  (* Garbage inside the payload, crc recomputed so only the strict
     parser can catch it. *)
  Checkpoint.save ~path ~e_trial:(-1.0) walkers;
  let rebuild f =
    let lines = String.split_on_char '\n' (read_file path) in
    let lines = List.filter (fun l -> l <> "") lines in
    let payload_lines =
      List.filter
        (fun l -> String.length l < 4 || String.sub l 0 4 <> "crc ")
        lines
    in
    let payload_lines = f payload_lines in
    let payload =
      String.concat "" (List.map (fun l -> l ^ "\n") payload_lines)
    in
    payload ^ Printf.sprintf "crc %08x\n" (Checkpoint.crc32 payload)
  in
  write_file path (rebuild (fun ls -> ls @ [ "walker 1 0x1p0 1 0 0x0p0 0x0p0" ]));
  (try
     ignore (Checkpoint.load ~path);
     Alcotest.fail "expected Corrupt on extra walker lines"
   with Checkpoint.Corrupt _ -> ())

let test_strict_count_mismatch () =
  let dir = tmpdir () in
  let path = Filename.concat dir "c.chk" in
  let _, walkers = mk_walkers 3 in
  Checkpoint.save ~path ~e_trial:(-1.0) walkers;
  let rebuild count =
    let lines = String.split_on_char '\n' (read_file path) in
    let lines = List.filter (fun l -> l <> "") lines in
    let payload_lines =
      List.filter
        (fun l -> String.length l < 4 || String.sub l 0 4 <> "crc ")
        lines
      |> List.map (fun l ->
             if String.length l >= 8 && String.sub l 0 8 = "walkers " then
               Printf.sprintf "walkers %d" count
             else l)
    in
    let payload =
      String.concat "" (List.map (fun l -> l ^ "\n") payload_lines)
    in
    payload ^ Printf.sprintf "crc %08x\n" (Checkpoint.crc32 payload)
  in
  (* Count says fewer walkers than the stream holds. *)
  write_file path (rebuild 2);
  (try
     ignore (Checkpoint.load ~path);
     Alcotest.fail "expected Corrupt on undercount"
   with Checkpoint.Corrupt _ -> ());
  (* Count says more walkers than the stream holds. *)
  write_file path (rebuild 4);
  (try
     ignore (Checkpoint.load ~path);
     Alcotest.fail "expected Corrupt on overcount"
   with Checkpoint.Corrupt _ -> ())

(* ---------- generation rotation and fallback ---------- *)

let test_rotation_keeps_last_k () =
  let dir = tmpdir () in
  let path = Filename.concat dir "rot.chk" in
  let _, walkers = mk_walkers 2 in
  List.iter
    (fun gen ->
      Checkpoint.save_generation ~keep:3 ~path ~gen
        ~e_trial:(float_of_int gen) walkers)
    [ 5; 10; 15; 20 ];
  let gens = List.map fst (Checkpoint.list_generations ~path) in
  Alcotest.(check (list int)) "last three kept" [ 10; 15; 20 ] gens;
  let gen, (e_trial, ws) = Checkpoint.load_latest ~path in
  check_int "latest generation" 20 gen;
  checkf 0. "latest e_trial" 20. e_trial;
  check_int "latest walkers" 2 (List.length ws)

let test_fallback_past_corrupt_generations () =
  let dir = tmpdir () in
  let path = Filename.concat dir "fb.chk" in
  let _, walkers = mk_walkers 2 in
  List.iter
    (fun gen ->
      Checkpoint.save_generation ~keep:3 ~path ~gen
        ~e_trial:(float_of_int gen) walkers)
    [ 10; 15; 20 ];
  (* Latest garbled: fall back one generation. *)
  Fault.garble_file ~path:(Checkpoint.generation_path ~path 20) ~seed:7;
  let gen, _ = Checkpoint.load_latest ~path in
  check_int "fell back to 15" 15 gen;
  (* Next one truncated mid-stream: fall back again. *)
  Fault.truncate_file ~path:(Checkpoint.generation_path ~path 15) ~lines:5;
  let gen, _ = Checkpoint.load_latest ~path in
  check_int "fell back to 10" 10 gen;
  (* Everything corrupt and no plain file: Corrupt. *)
  Fault.garble_file ~path:(Checkpoint.generation_path ~path 10) ~seed:8;
  (try
     ignore (Checkpoint.load_latest ~path);
     Alcotest.fail "expected Corrupt with no valid generation"
   with Checkpoint.Corrupt _ -> ());
  (* A plain base file is the final fallback, reported as generation 0. *)
  Checkpoint.save ~path ~e_trial:(-9.) walkers;
  let gen, (e_trial, _) = Checkpoint.load_latest ~path in
  check_int "plain fallback" 0 gen;
  checkf 0. "plain e_trial" (-9.) e_trial

let test_truncation_property () =
  (* Truncating the latest generation anywhere — at every line boundary
     and at sampled byte offsets — either falls back to the previous
     generation or raises Corrupt; never a short/garbled population. *)
  let dir = tmpdir () in
  let path = Filename.concat dir "trunc.chk" in
  let _, wa = mk_walkers ~seed:61 3 in
  let _, wb = mk_walkers ~seed:62 4 in
  Checkpoint.save_generation ~keep:10 ~path ~gen:1 ~e_trial:(-1.0) wa;
  Checkpoint.save_generation ~keep:10 ~path ~gen:2 ~e_trial:(-2.0) wb;
  let gen2 = Checkpoint.generation_path ~path 2 in
  let full = read_file gen2 in
  let n_lines =
    String.fold_left (fun a c -> if c = '\n' then a + 1 else a) 0 full
  in
  let expect_fallback () =
    (try
       ignore (Checkpoint.load ~path:gen2);
       Alcotest.fail "expected Corrupt from truncated generation"
     with Checkpoint.Corrupt _ -> ());
    let gen, (e_trial, ws) = Checkpoint.load_latest ~path in
    check_int "fell back to generation 1" 1 gen;
    checkf 0. "previous e_trial" (-1.0) e_trial;
    check_int "previous population intact" 3 (List.length ws)
  in
  for l = 0 to n_lines - 1 do
    write_file gen2 full;
    Fault.truncate_file ~path:gen2 ~lines:l;
    expect_fallback ()
  done;
  let len = String.length full in
  let off = ref 0 in
  while !off < len do
    write_file gen2 full;
    Fault.truncate_file_bytes ~path:gen2 ~bytes:!off;
    expect_fallback ();
    off := !off + 97
  done;
  (* The untruncated file still loads as the latest. *)
  write_file gen2 full;
  let gen, (_, ws) = Checkpoint.load_latest ~path in
  check_int "full file wins" 2 gen;
  check_int "full population" 4 (List.length ws)

let test_garbled_generation_rejected () =
  let dir = tmpdir () in
  let path = Filename.concat dir "garble.chk" in
  let _, walkers = mk_walkers 3 in
  Checkpoint.save ~path ~e_trial:(-1.0) walkers;
  let full = read_file path in
  for seed = 1 to 20 do
    write_file path full;
    Fault.garble_file ~path ~seed;
    match Checkpoint.load ~path with
    | exception Checkpoint.Corrupt _ -> ()
    | _, ws ->
        (* Vanishingly unlikely (the xor would have to land only on
           bytes whose change keeps the crc line consistent) — but if it
           ever parses, it must at least be structurally complete. *)
        check_int "population size preserved" 3 (List.length ws)
  done

(* ---------- failing writes: retry with backoff ---------- *)

let test_write_retry_recovers () =
  Fault.reset ();
  let dir = tmpdir () in
  let path = Filename.concat dir "retry.chk" in
  let _, walkers = mk_walkers 2 in
  Fault.arm_io_failure Fault.Checkpoint_write ~times:2;
  Checkpoint.save ~retries:3 ~backoff:0.001 ~path ~e_trial:(-1.0) walkers;
  check_int "two failures injected" 2 (Fault.io_injected_count ());
  let _, ws = Checkpoint.load ~path in
  check_int "valid after retries" 2 (List.length ws);
  Fault.reset ();
  (* Rename failures are retried too (fresh tmp each attempt). *)
  Fault.arm_io_failure Fault.Checkpoint_rename ~times:1;
  Checkpoint.save ~retries:1 ~backoff:0.001 ~path ~e_trial:(-2.0) walkers;
  let e_trial, _ = Checkpoint.load ~path in
  checkf 0. "rename retried" (-2.0) e_trial;
  check_bool "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
  Fault.reset ()

let test_write_retry_exhausted () =
  Fault.reset ();
  let dir = tmpdir () in
  let path = Filename.concat dir "exhaust.chk" in
  let _, walkers = mk_walkers 2 in
  Fault.arm_io_failure Fault.Checkpoint_write ~times:10;
  (try
     Checkpoint.save ~retries:2 ~backoff:0.001 ~path ~e_trial:(-1.0) walkers;
     Alcotest.fail "expected Sys_error after exhausted retries"
   with Sys_error _ -> ());
  check_bool "nothing published" false (Sys.file_exists path);
  Fault.reset ()

(* ---------- walker watchdog ---------- *)

let watchdog_cfg =
  {
    Integrity.check_every = 1;
    drift_tol = 1e-6;
    buffer_tol = 1e-6;
    sample = 16;
  }

let run_watchdog walkers =
  let runner =
    Runner.create ~crowd:1 ~walkers:(List.length walkers) ~n_domains:1
      ~factory
  in
  let pop =
    Population.create ~target:(List.length walkers) ~e_trial:(-1.) walkers
  in
  let st = Integrity.create_stats () in
  Integrity.watchdog watchdog_cfg st ~gen:1 ~rng:(Xoshiro.create 3) runner
    pop;
  (st, pop)

let test_watchdog_clean_population () =
  let _, walkers = mk_walkers 4 in
  let st, pop = run_watchdog walkers in
  check_int "nothing quarantined" 0 st.Integrity.quarantined;
  check_int "all audited" 4 st.Integrity.audits;
  check_bool "drift negligible" true (st.Integrity.drift_max < 1e-6);
  check_int "population preserved" 4 (Population.size pop)

let test_watchdog_quarantines_nan () =
  let _, walkers = mk_walkers 4 in
  let victims = [ List.nth walkers 1; List.nth walkers 3 ] in
  Fault.poison_energy (List.hd victims);
  Fault.poison_weight (List.nth victims 1);
  let st, pop = run_watchdog walkers in
  check_int "both quarantined" 2 st.Integrity.quarantined;
  check_int "both recovered" 2 st.Integrity.recoveries;
  check_int "population size preserved" 4 (Population.size pop);
  List.iter
    (fun v ->
      check_bool "victim removed" false
        (List.memq v (Population.walkers pop)))
    victims;
  check_bool "population all finite" true
    (List.for_all Integrity.walker_finite (Population.walkers pop))

let test_watchdog_quarantines_nan_position () =
  let _, walkers = mk_walkers 3 in
  Fault.poison_position (List.nth walkers 2) ~index:5;
  let st, pop = run_watchdog walkers in
  check_int "quarantined" 1 st.Integrity.quarantined;
  check_bool "population all finite" true
    (List.for_all Integrity.walker_finite (Population.walkers pop))

let test_watchdog_detects_bit_flip () =
  (* A flipped exponent bit in the serialized state buffer: the scalar
     scan cannot see it, only the recompute audit can. *)
  let _, walkers = mk_walkers 4 in
  let victim = List.nth walkers 1 in
  Fault.flip_buffer_bit victim ~index:0 ~bit:62;
  let st, pop = run_watchdog walkers in
  check_bool "quarantined" true (st.Integrity.quarantined >= 1);
  check_bool "victim removed" false (List.memq victim (Population.walkers pop));
  check_int "population size preserved" 4 (Population.size pop)

let test_watchdog_detects_corrupt_row () =
  (* One damaged entry of the carried orbital rows: the buffer and log Ψ
     are intact, and the next restore would use the row without an SPO
     call, so only the row comparison can see it. *)
  let _, walkers = mk_walkers 4 in
  let victim = List.nth walkers 2 in
  (match victim.Walker.rows with
  | Walker.Rows_f64 a ->
      let i = Bigarray.Array1.dim a / 3 in
      Bigarray.Array1.set a i ((2. *. Bigarray.Array1.get a i) +. 1.)
  | Walker.Rows_f32 _ | Walker.No_rows ->
      Alcotest.fail "a Current_f64 walker carries f64 rows");
  let st, pop = run_watchdog walkers in
  check_int "quarantined" 1 st.Integrity.quarantined;
  check_bool "victim removed" false (List.memq victim (Population.walkers pop));
  check_int "population size preserved" 4 (Population.size pop)

let test_watchdog_detects_scalar_drift () =
  (* Accumulated incremental drift of log Ψ beyond tolerance. *)
  let _, walkers = mk_walkers 4 in
  let victim = List.nth walkers 2 in
  Fault.drift_log_psi victim ~delta:0.5;
  let st, pop = run_watchdog walkers in
  check_bool "drift recorded" true (st.Integrity.drift_max >= 0.4);
  check_bool "quarantined" true (st.Integrity.quarantined >= 1);
  check_bool "victim removed" false (List.memq victim (Population.walkers pop))

let test_watchdog_total_loss_reseeds () =
  (* Even a fully poisoned population recovers: fresh walkers are
     re-randomized from the engine. *)
  let _, walkers = mk_walkers 3 in
  List.iter Fault.poison_energy walkers;
  let st, pop = run_watchdog walkers in
  check_int "all quarantined" 3 st.Integrity.quarantined;
  check_int "all reseeded" 3 st.Integrity.recoveries;
  check_int "population size preserved" 3 (Population.size pop);
  check_bool "population all finite" true
    (List.for_all Integrity.walker_finite (Population.walkers pop))

(* ---------- DMC end to end ---------- *)

let harmonic_factory =
  let hsys = Validation.harmonic ~n:3 ~omega:1.0 in
  Build.factory ~variant:Variant.Current_f64 ~seed:600 hsys

let test_dmc_nan_injection_recovers () =
  Fault.reset ();
  Fault.arm_nan_energy ~seed:99 ~rate:0.05;
  let res =
    Dmc.run
      ~watchdog:{ Integrity.default_config with check_every = 3 }
      ~factory:harmonic_factory
      {
        Dmc.default_params with
        Dmc.target_walkers = 8;
        warmup = 4;
        generations = 30;
        tau = 0.02;
        seed = 77;
      }
  in
  let injected = Fault.nans_injected_count () in
  Fault.reset ();
  check_bool "nans were injected" true (injected > 0);
  let it = res.Dmc.integrity in
  check_bool "walkers quarantined" true (it.Integrity.quarantined > 0);
  check_bool "recoveries reported" true (it.Integrity.recoveries > 0);
  check_bool "energy finite" true (Float.is_finite res.Dmc.energy);
  check_bool "no poisoned generation estimate" true
    (Array.for_all Float.is_finite res.Dmc.energy_series);
  check_bool "population survived" true (res.Dmc.mean_population > 2.)

let test_dmc_kill_and_resume () =
  Fault.reset ();
  let dir = tmpdir () in
  let path = Filename.concat dir "dmc.chk" in
  (* "Killed" run: 15 absolute generations, checkpoint every 5. *)
  let res1 =
    Dmc.run ~checkpoint_every:5 ~checkpoint_path:path ~checkpoint_keep:2
      ~factory:harmonic_factory
      {
        Dmc.default_params with
        Dmc.target_walkers = 8;
        warmup = 2;
        generations = 13;
        tau = 0.02;
        seed = 88;
      }
  in
  check_int "three checkpoints written" 3
    res1.Dmc.integrity.Integrity.checkpoints_written;
  Alcotest.(check (list int))
    "rotation kept the last two" [ 10; 15 ]
    (List.map fst (Checkpoint.list_generations ~path));
  (* Resume from the latest valid generation. *)
  let gen, (e_trial, ws) = Checkpoint.load_latest ~path in
  check_int "latest generation" 15 gen;
  let res2 =
    Dmc.run ~initial:(e_trial, ws) ~factory:harmonic_factory
      {
        Dmc.default_params with
        Dmc.target_walkers = 8;
        warmup = 0;
        generations = 5;
        tau = 0.02;
        seed = 89;
      }
  in
  check_bool "resumed energy finite" true (Float.is_finite res2.Dmc.energy);
  (* Corrupt the latest generation: resume falls back to the previous
     one. *)
  Fault.garble_file ~path:(Checkpoint.generation_path ~path 15) ~seed:5;
  let gen, (e_trial, ws) = Checkpoint.load_latest ~path in
  check_int "fell back to generation 10" 10 gen;
  let res3 =
    Dmc.run ~initial:(e_trial, ws) ~factory:harmonic_factory
      {
        Dmc.default_params with
        Dmc.target_walkers = 8;
        warmup = 0;
        generations = 5;
        tau = 0.02;
        seed = 90;
      }
  in
  check_bool "fallback resume energy finite" true
    (Float.is_finite res3.Dmc.energy)

let test_dmc_checkpoint_failure_does_not_kill_run () =
  Fault.reset ();
  let path = "/nonexistent-oqmc-dir/never/run.chk" in
  let res =
    Dmc.run ~checkpoint_every:2 ~checkpoint_path:path
      ~factory:harmonic_factory
      {
        Dmc.default_params with
        Dmc.target_walkers = 4;
        warmup = 0;
        generations = 4;
        tau = 0.02;
        seed = 91;
      }
  in
  check_int "both checkpoint attempts failed" 2
    res.Dmc.integrity.Integrity.checkpoint_failures;
  check_int "none written" 0 res.Dmc.integrity.Integrity.checkpoints_written;
  check_bool "run completed" true (Float.is_finite res.Dmc.energy)

let test_dmc_tiny_run_nan_free () =
  (* Tiny generation counts must not divide by a zero wall time. *)
  let res =
    Dmc.run ~factory:harmonic_factory
      {
        Dmc.default_params with
        Dmc.target_walkers = 2;
        warmup = 0;
        generations = 0;
        tau = 0.02;
        seed = 92;
      }
  in
  List.iter
    (fun (name, v) ->
      check_bool (name ^ " not NaN") false (Float.is_nan v))
    [
      ("energy", res.Dmc.energy);
      ("energy_error", res.Dmc.energy_error);
      ("variance", res.Dmc.variance);
      ("tau_corr", res.Dmc.tau_corr);
      ("efficiency", res.Dmc.efficiency);
      ("acceptance", res.Dmc.acceptance);
      ("throughput", res.Dmc.throughput);
      ("mean_population", res.Dmc.mean_population);
    ]

(* ---------- runner failure aggregation ---------- *)

let test_runner_joins_all_failures () =
  Runner.with_runner ~crowd:1 ~walkers:9 ~n_domains:3 ~factory @@ fun runner ->
  let items = Array.init 9 Fun.id in
  (* Every domain fails.  Work is pulled dynamically, so each domain is
     held at its first index until all three have arrived — then all
     fail together: every failure must be collected, none lost. *)
  let arrived = Atomic.make 0 in
  (try
     Runner.parallel_for runner ~n:(Array.length items)
       ~f:(fun ~domain _ ->
         Atomic.incr arrived;
         while Atomic.get arrived < 3 do
           Domain.cpu_relax ()
         done;
         failwith (Printf.sprintf "boom %d" domain));
     Alcotest.fail "expected Domain_failures"
   with
  | Runner.Domain_failures fs ->
      check_int "one failure per domain" 3 (List.length fs);
      Alcotest.(check (list int))
        "domain indices in order" [ 0; 1; 2 ] (List.map fst fs));
  (* A single failing index re-raises the original exception. *)
  (try
     Runner.iter_walkers runner items ~f:(fun _ i ->
         if i = 4 then failwith "solo");
     Alcotest.fail "expected Failure"
   with Failure msg -> Alcotest.(check string) "original exn" "solo" msg);
  (* And the poisoned pool still works afterwards: no leaked or wedged
     workers, every index processed exactly once. *)
  let hits = Array.make 9 0 in
  Runner.iter_walkers runner items ~f:(fun _ i -> hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i h -> check_int (Printf.sprintf "index %d exactly once" i) 1 h)
    hits

(* ---------- VMC drift metric ---------- *)

let test_vmc_reports_drift () =
  let res =
    Vmc.run
      ~factory:(Build.factory ~variant:Variant.Current ~seed:700 sys)
      {
        Vmc.default_params with
        Vmc.n_walkers = 2;
        warmup = 5;
        blocks = 3;
        steps_per_block = 5;
        tau = 0.2;
        seed = 701;
      }
  in
  check_bool "drift_max finite" true (Float.is_finite res.Vmc.drift_max);
  check_bool "drift_max sane" true
    (res.Vmc.drift_max >= 0. && res.Vmc.drift_max < 1.)

let () =
  Alcotest.run "integrity"
    [
      ( "checkpoint_v2",
        [
          Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
          Alcotest.test_case "roundtrip + atomic" `Quick
            test_v2_roundtrip_atomic;
          Alcotest.test_case "v1 compatibility" `Quick test_v1_still_loads;
          Alcotest.test_case "trailer form" `Quick test_trailer_form;
          Alcotest.test_case "trailing garbage" `Quick
            test_strict_trailing_garbage;
          Alcotest.test_case "count mismatch" `Quick
            test_strict_count_mismatch;
        ] );
      ( "rotation",
        [
          Alcotest.test_case "keeps last K" `Quick test_rotation_keeps_last_k;
          Alcotest.test_case "fallback past corrupt" `Quick
            test_fallback_past_corrupt_generations;
          Alcotest.test_case "truncation property" `Quick
            test_truncation_property;
          Alcotest.test_case "garbled rejected" `Quick
            test_garbled_generation_rejected;
        ] );
      ( "io_faults",
        [
          Alcotest.test_case "retry recovers" `Quick test_write_retry_recovers;
          Alcotest.test_case "retry exhausted" `Quick
            test_write_retry_exhausted;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "clean population" `Quick
            test_watchdog_clean_population;
          Alcotest.test_case "quarantines NaN" `Quick
            test_watchdog_quarantines_nan;
          Alcotest.test_case "NaN position" `Quick
            test_watchdog_quarantines_nan_position;
          Alcotest.test_case "bit flip" `Quick test_watchdog_detects_bit_flip;
          Alcotest.test_case "corrupt carried row" `Quick
            test_watchdog_detects_corrupt_row;
          Alcotest.test_case "scalar drift" `Quick
            test_watchdog_detects_scalar_drift;
          Alcotest.test_case "total loss reseeds" `Quick
            test_watchdog_total_loss_reseeds;
        ] );
      ( "dmc_recovery",
        [
          Alcotest.test_case "NaN injection recovers" `Quick
            test_dmc_nan_injection_recovers;
          Alcotest.test_case "kill and resume" `Quick test_dmc_kill_and_resume;
          Alcotest.test_case "checkpoint failure survivable" `Quick
            test_dmc_checkpoint_failure_does_not_kill_run;
          Alcotest.test_case "tiny run NaN-free" `Quick
            test_dmc_tiny_run_nan_free;
        ] );
      ( "runner",
        [
          Alcotest.test_case "joins all failures" `Quick
            test_runner_joins_all_failures;
        ] );
      ( "vmc",
        [ Alcotest.test_case "drift metric" `Quick test_vmc_reports_drift ] );
    ]
