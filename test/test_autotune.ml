open Oqmc_core
open Oqmc_workloads
open Oqmc_perfmodel
open Oqmc_autotune

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Model-only choices against a published machine descriptor are pure
   functions of the system dimensions — no microbenchmarks, no noise —
   so the tests can pin exact behaviour. *)

let choose ?(walkers = 16) sys =
  Tuner.choose ~machine:Machine.bdw ~walkers ~domains:1
    ~variant:Variant.Current ~precision:`F32 ~sys ()

let test_small_det_keeps_rank1 () =
  (* 3x3 determinant per spin: delayed updates have nothing to amortize
     and the model must not pick a rank above 1. *)
  let sys = Validation.harmonic ~n:6 ~omega:1.0 in
  let c = choose sys in
  check_int "delay" 1 c.Tuner.knobs.Tuner.delay;
  check_bool "crowd sane" true
    (c.Tuner.knobs.Tuner.crowd >= 1 && c.Tuner.knobs.Tuner.crowd <= 16);
  check_bool "grain covers crowd" true
    (c.Tuner.knobs.Tuner.grain >= c.Tuner.knobs.Tuner.crowd)

let test_large_det_delays () =
  (* 96 electrons per spin: register reuse across accumulated ranks makes
     a delayed flush strictly cheaper in the model, so the chosen rank
     must rise above rank-1 (and stay in the candidate set). *)
  let sys = Validation.electron_gas ~n_up:96 ~n_down:96 ~box:10. () in
  let c = choose sys in
  check_bool "delay > 1" true (c.Tuner.knobs.Tuner.delay > 1);
  check_bool "delay in candidates" true
    (List.mem c.Tuner.knobs.Tuner.delay [ 4; 8; 16 ]);
  check_bool "speedup predicted" true (c.Tuner.predicted_speedup >= 1.)

let test_deterministic () =
  let sys = Validation.electron_gas ~n_up:24 ~n_down:24 ~box:8. () in
  let a = choose sys and b = choose sys in
  check_int "crowd" a.Tuner.knobs.Tuner.crowd b.Tuner.knobs.Tuner.crowd;
  check_int "delay" a.Tuner.knobs.Tuner.delay b.Tuner.knobs.Tuner.delay;
  check_int "grain" a.Tuner.knobs.Tuner.grain b.Tuner.knobs.Tuner.grain

let test_crowd_capped_by_walkers () =
  (* crowd can never exceed the walkers available to one domain. *)
  let sys = Validation.harmonic ~n:6 ~omega:1.0 in
  let c = choose ~walkers:2 sys in
  check_bool "crowd <= walkers" true (c.Tuner.knobs.Tuner.crowd <= 2)

let test_store_variants_crowd_one () =
  (* Ref and Ref+MP sweep one walker at a time whatever the crowd, so the
     tuner never offers them one — on a system where Current batches. *)
  let sys = Validation.electron_gas ~n_up:24 ~n_down:24 ~box:8. () in
  let pick variant =
    (Tuner.choose ~machine:Machine.bdw ~walkers:16 ~domains:1 ~variant
       ~precision:`F64 ~sys ())
      .Tuner.knobs
      .Tuner.crowd
  in
  check_bool "Current batches" true (pick Variant.Current > 1);
  check_int "Ref crowd" 1 (pick Variant.Ref);
  check_int "Ref+MP crowd" 1 (pick Variant.Ref_mp)

let test_choice_json_roundtrip () =
  let sys = Validation.harmonic ~n:6 ~omega:1.0 in
  let c = choose sys in
  let doc = Oqmc_obs.Jsonx.to_string (Tuner.choice_json c) in
  match Oqmc_obs.Jsonx.parse_string_exn doc with
  | Oqmc_obs.Jsonx.Obj fields ->
      check_bool "has knobs" true (List.mem_assoc "knobs" fields);
      check_bool "has machine" true (List.mem_assoc "machine" fields);
      check_bool "has candidates" true (List.mem_assoc "candidates" fields)
  | _ -> Alcotest.fail "choice JSON is not an object"

let test_publish_gauges () =
  let sys = Validation.harmonic ~n:6 ~omega:1.0 in
  let c = choose sys in
  Tuner.publish c;
  let ms = Oqmc_obs.Metrics.snapshot () in
  let gauge name =
    match Oqmc_obs.Metrics.find ms name with
    | Some (Oqmc_obs.Metrics.Gauge g) -> g
    | _ -> Alcotest.failf "metric missing: %s" name
  in
  check_int "autotune.crowd gauge" c.Tuner.knobs.Tuner.crowd
    (int_of_float (gauge "autotune.crowd"));
  check_int "autotune.delay gauge" c.Tuner.knobs.Tuner.delay
    (int_of_float (gauge "autotune.delay"))

let () =
  Alcotest.run "autotune"
    [
      ( "tuner",
        [
          Alcotest.test_case "small det keeps rank-1" `Quick
            test_small_det_keeps_rank1;
          Alcotest.test_case "large det delays" `Quick test_large_det_delays;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "crowd capped by walkers" `Quick
            test_crowd_capped_by_walkers;
          Alcotest.test_case "store variants keep crowd 1" `Quick
            test_store_variants_crowd_one;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "choice json" `Quick test_choice_json_roundtrip;
          Alcotest.test_case "metrics gauges" `Quick test_publish_gauges;
        ] );
    ]
