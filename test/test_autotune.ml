open Oqmc_core
open Oqmc_workloads
open Oqmc_perfmodel
open Oqmc_autotune

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Crowd and delay are plain deck parameters: a run gets exactly the
   values its deck names, and no key picks them at run time. *)

let deck lines = Input.parse_string (String.concat "\n" lines ^ "\n")

let harmonic_deck = [ "method = dmc"; "workload = harmonic"; "walkers = 16" ]

(* [Some msg] when [text] fails to parse, [None] when it parses. *)
let parse_error text =
  match Input.parse_string text with
  | _ -> None
  | exception Input.Parse_error msg -> Some msg

let test_small_det_keeps_rank1 () =
  (* A deck that names no delay keeps the rank-1 Sherman-Morrison
     update. *)
  let cfg = deck harmonic_deck in
  check_int "delay" 1 cfg.Input.delay;
  check_int "crowd" 1 cfg.Input.crowd

let test_large_det_delays () =
  (* The delay rank is what the deck says, including an explicit 1. *)
  List.iter
    (fun k ->
      check_int
        (Printf.sprintf "delay = %d" k)
        k
        (deck (harmonic_deck @ [ Printf.sprintf "delay = %d" k ])).Input.delay)
    [ 1; 4; 8; 16 ];
  check_bool "delay = 0 refused" true (parse_error "delay = 0\n" <> None)

let test_deterministic () =
  (* The same deck always yields the same knobs and the same canonical
     form, which carries no run-time knob picker. *)
  let text = harmonic_deck @ [ "crowd = 8"; "delay = 4" ] in
  let a = deck text and b = deck (List.rev text) in
  check_int "crowd" a.Input.crowd b.Input.crowd;
  check_int "delay" a.Input.delay b.Input.delay;
  check_str "canonical" (Input.canonical a) (Input.canonical b);
  check_bool "no autotune line" false
    (List.exists
       (String.starts_with ~prefix:"autotune")
       (String.split_on_char '\n' (Input.canonical a)))

let test_crowd_capped_by_walkers () =
  (* crowd can never exceed the walkers available to one domain. *)
  check_int "Current, 2 walkers" 2
    (Runner.max_crowd ~variant:Variant.Current ~walkers:2);
  check_int "Current, 16 walkers" 16
    (Runner.max_crowd ~variant:Variant.Current ~walkers:16);
  let sys = Validation.harmonic ~n:6 ~omega:1.0 in
  Runner.with_runner ~crowd:8 ~walkers:2 ~n_domains:1
    ~factory:(Build.factory ~variant:Variant.Current ~seed:1 sys)
    (fun r -> check_int "runner crowd" 2 (Runner.crowd r))

let test_store_variants_crowd_one () =
  (* Ref and Ref+MP sweep one walker at a time whatever the crowd. *)
  check_bool "Current batches" true
    (Runner.max_crowd ~variant:Variant.Current ~walkers:16 > 1);
  check_int "Ref crowd" 1 (Runner.max_crowd ~variant:Variant.Ref ~walkers:16);
  check_int "Ref+MP crowd" 1
    (Runner.max_crowd ~variant:Variant.Ref_mp ~walkers:16)

let test_choice_json_roundtrip () =
  (* There is no tuner choice to report: the key is refused, naming its
     line. *)
  match parse_error "method = dmc\nautotune = true\n" with
  | Some msg ->
      check_bool ("names line 2: " ^ msg) true
        (String.starts_with ~prefix:"line 2:" msg)
  | None -> Alcotest.fail "autotune = true accepted"

let test_publish_gauges () =
  (* The efficiency audit publishes its gauges into the registry. *)
  let sys = Validation.harmonic ~n:6 ~omega:1.0 in
  let a =
    Audit.create ~machine:Machine.bdw ~walkers:16 ~variant:Variant.Current
      ~precision:`F32 ~sys ()
  in
  (match Audit.observe ~measured_gen_s:0.01 ~kernel_seconds:[] a with
  | Some r ->
      check_bool "report json is an object" true
        (match Audit.json r with Oqmc_obs.Jsonx.Obj _ -> true | _ -> false)
  | None -> Alcotest.fail "no audit report");
  let ms = Oqmc_obs.Metrics.snapshot () in
  List.iter
    (fun name ->
      check_bool name true
        (match Oqmc_obs.Metrics.find ms name with
        | Some (Oqmc_obs.Metrics.Gauge g) -> Float.is_finite g
        | _ -> false))
    [ "audit.efficiency"; "audit.projected_gen_s"; "audit.measured_gen_s" ]

(* "Within 2x" is two-sided: 0.5 <= efficiency <= 2. *)
let test_verdict_two_sided () =
  let verdict efficiency =
    Audit.table
      {
        Audit.machine_name = "m";
        calibrated = false;
        projected_gen_s = efficiency;
        measured_gen_s = 1.;
        efficiency;
        gens = 1;
        kernels = [];
      }
    |> String.split_on_char '\n'
    |> List.find (String.starts_with ~prefix:"verdict:")
  in
  let within e =
    let v = verdict e in
    let sub = "within 2x" in
    let n = String.length sub in
    List.exists
      (fun i -> String.sub v i n = sub)
      (List.init (String.length v - n + 1) Fun.id)
  in
  check_bool "5.9 is not within 2x" false (within 5.9);
  check_bool "0.3 is not within 2x" false (within 0.3);
  check_bool "1.0 is within 2x" true (within 1.0);
  check_bool "5.9 reads as faster than the model" true
    (String.starts_with ~prefix:"verdict: more than 2x faster" (verdict 5.9))

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
          Alcotest.test_case "verdict is two-sided" `Quick
            test_verdict_two_sided;
        ] );
    ]
