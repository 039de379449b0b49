open Oqmc_containers
open Oqmc_particle
open Oqmc_core
open Oqmc_workloads
open Oqmc_rng

(* Cross-module property tests: randomized invariants that tie the whole
   stack together, beyond the per-module suites. *)

let check_bool = Alcotest.(check bool)

(* Random electron-gas walker for a given seed. *)
let random_walker ~box ~n seed =
  let rng = Xoshiro.create seed in
  let w = Walker.create n in
  for i = 0 to n - 1 do
    Walker.Aos.set w.Walker.r i
      (Vec3.make
         (Xoshiro.uniform_range rng ~lo:0. ~hi:box)
         (Xoshiro.uniform_range rng ~lo:0. ~hi:box)
         (Xoshiro.uniform_range rng ~lo:0. ~hi:box))
  done;
  w

let prop_variants_agree_random_configs =
  QCheck.Test.make ~name:"all variants agree on random configurations"
    ~count:10
    QCheck.(int_range 1 100000)
    (fun seed ->
      let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 () in
      let w = random_walker ~box:5.0 ~n:8 seed in
      let energies =
        List.map
          (fun variant ->
            let e = Build.engine ~variant ~seed:1 sys in
            e.Engine_api.load_walker w;
            e.Engine_api.measure ())
          Variant.all
      in
      match energies with
      | e0 :: rest -> List.for_all (fun e -> abs_float (e -. e0) < 0.05) rest
      | [] -> false)

let prop_log_psi_translation_invariant =
  (* Rigid translation of all electrons in a periodic HEG leaves |Ψ| and
     E_L unchanged (plane-wave orbitals + pair Jastrow). *)
  QCheck.Test.make ~name:"periodic system translation invariant" ~count:10
    QCheck.(
      pair (int_range 1 100000)
        (triple (float_range 0. 5.) (float_range 0. 5.) (float_range 0. 5.)))
    (fun (seed, (tx, ty, tz)) ->
      let sys = Validation.electron_gas ~n_up:3 ~n_down:3 ~box:5.0 () in
      let e = Build.engine ~variant:Variant.Current_f64 ~seed:2 sys in
      let w = random_walker ~box:5.0 ~n:6 seed in
      e.Engine_api.load_walker w;
      let l0 = e.Engine_api.log_psi () and el0 = e.Engine_api.measure () in
      let t = Vec3.make tx ty tz in
      for i = 0 to 5 do
        Walker.Aos.set w.Walker.r i (Vec3.add (Walker.Aos.get w.Walker.r i) t)
      done;
      e.Engine_api.load_walker w;
      let l1 = e.Engine_api.log_psi () and el1 = e.Engine_api.measure () in
      abs_float (l1 -. l0) < 1e-6 && abs_float (el1 -. el0) < 1e-5)

let prop_sweep_preserves_log_consistency =
  (* After random sweeps at random time steps, incremental log Ψ always
     matches a from-scratch recompute. *)
  QCheck.Test.make ~name:"incremental log psi consistent under sweeps"
    ~count:8
    QCheck.(pair (int_range 1 100000) (float_range 0.05 0.5))
    (fun (seed, tau) ->
      let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 () in
      let e = Build.engine ~variant:Variant.Current_f64 ~seed sys in
      let rng = Xoshiro.create (seed + 1) in
      for _ = 1 to 3 do
        ignore (e.Engine_api.sweep rng ~tau)
      done;
      let inc = e.Engine_api.log_psi () in
      let fresh = e.Engine_api.refresh () in
      abs_float (inc -. fresh) < 1e-7)

let prop_checkpoint_roundtrip_random =
  QCheck.Test.make ~name:"checkpoint roundtrip is bit-exact" ~count:10
    QCheck.(int_range 1 100000)
    (fun seed ->
      let rng = Xoshiro.create seed in
      let walkers =
        List.init
          (1 + Xoshiro.int rng 4)
          (fun i ->
            let w = random_walker ~box:4.0 ~n:5 (seed + i) in
            w.Walker.weight <- Xoshiro.uniform rng;
            w.Walker.e_local <- Xoshiro.gaussian rng;
            let g0 = Xoshiro.gaussian rng in
            let g1 = Xoshiro.gaussian rng in
            Wbuffer.load w.Walker.buffer [| g0; g1 |];
            w)
      in
      let path = Filename.temp_file "oqmc-prop" ".chk" in
      Checkpoint.save ~path ~e_trial:(Xoshiro.gaussian rng) walkers;
      let _, restored = Checkpoint.load ~path in
      Sys.remove path;
      List.for_all2
        (fun (a : Walker.t) (b : Walker.t) ->
          a.Walker.weight = b.Walker.weight
          && a.Walker.e_local = b.Walker.e_local
          && Wbuffer.contents a.Walker.buffer = Wbuffer.contents b.Walker.buffer
          &&
          let ok = ref true in
          for i = 0 to 4 do
            if
              not
                (Vec3.equal
                   (Walker.Aos.get a.Walker.r i)
                   (Walker.Aos.get b.Walker.r i))
            then ok := false
          done;
          !ok)
        walkers restored)

let prop_input_deck_roundtrip =
  QCheck.Test.make ~name:"input deck parses what it prints" ~count:50
    QCheck.(
      quad (int_range 1 64) (int_range 1 50) (float_range 0.001 1.0) bool)
    (fun (walkers, blocks, tau, nlpp) ->
      let deck =
        Printf.sprintf
          "method=dmc\nworkload = NiO-32\nvariant = Ref+MP\nwalkers=%d\n\
           blocks = %d # comment\ntau = %.17g\nnlpp = %b\n"
          walkers blocks tau nlpp
      in
      let cfg = Input.parse_string deck in
      cfg.Input.method_ = "dmc"
      && cfg.Input.workload = "NiO-32"
      && cfg.Input.variant = Variant.Ref_mp
      && cfg.Input.walkers = walkers
      && cfg.Input.blocks = blocks
      && abs_float (cfg.Input.tau -. tau) < 1e-9
      && cfg.Input.nlpp = nlpp)

let test_input_deck_errors () =
  let bad s =
    match Input.parse_string s with
    | exception Input.Parse_error _ -> true
    | _ -> false
  in
  check_bool "unknown key" true (bad "walrus = 3\n");
  check_bool "bad int" true (bad "walkers = many\n");
  check_bool "no equals" true (bad "just words\n");
  check_bool "bad variant" true (bad "variant = turbo\n");
  check_bool "delay < 1 rejected" true (bad "delay = 0\n");
  check_bool "crowd < 1 rejected" true (bad "crowd = 0\n");
  check_bool "delay parsed" true
    ((Input.parse_string "delay = 8\n").Input.delay = 8);
  check_bool "delay defaults to SM" true (Input.default.Input.delay = 1);
  check_bool "comments ok" true
    (match Input.parse_string "# only a comment\n" with
    | cfg -> cfg = Input.default
    | exception _ -> false)

let test_run_parameters_refused () =
  (* A method other than vmc or dmc, no blocks or steps, a time step
     that is not finite and positive, no walkers, domains or ranks, a
     reduction below 1, a negative checkpoint interval or no checkpoint
     generations kept: refused at parse time, naming the value. *)
  List.iter
    (fun (line, reason) ->
      match Input.parse_string ("method = dmc\n" ^ line ^ "\n") with
      | _ -> Alcotest.failf "%s accepted" line
      | exception Input.Parse_error msg ->
          check_bool (line ^ ": " ^ msg) true (msg = reason))
    [
      ("tau = 0", "tau must be finite and > 0, got 0");
      ("tau = -0.01", "tau must be finite and > 0, got -0.01");
      ("tau = nan", "tau must be finite and > 0, got nan");
      ("tau = inf", "tau must be finite and > 0, got inf");
      ("walkers = 0", "walkers must be >= 1, got 0");
      ("domains = 0", "domains must be >= 1, got 0");
      ("blocks = 0", "blocks must be >= 1, got 0");
      ("steps = -2", "steps must be >= 1, got -2");
      ("method = foo", "method must be vmc or dmc, got \"foo\"");
      ("ranks = 0", "ranks must be >= 1, got 0");
      ("reduction = 0", "reduction must be >= 1, got 0");
      ("checkpoint_every = -1", "checkpoint_every must be >= 0, got -1");
      ("checkpoint_keep = 0", "checkpoint_keep must be >= 1, got 0");
    ];
  check_bool "the checked record itself" true
    (match Input.check { Input.default with Input.walkers = -3 } with
    | () -> false
    | exception Input.Parse_error _ -> true);
  Input.check Input.default

let test_tile_deck_key () =
  (* The retired orbital-table keys ([tile], [layout]) and exchange
     planner key ([plan]) are rejected like any unknown key. *)
  List.iter
    (fun line ->
      check_bool (line ^ " rejected") true
        (match Input.parse_string (line ^ "\n") with
        | exception Input.Parse_error _ -> true
        | _ -> false))
    [ "tile = 8"; "layout = tiled"; "plan = load"; "plan = count" ]

let test_unbalanced_spins () =
  (* n_up <> n_down exercises the two-determinant bookkeeping. *)
  let lattice_box = 5.0 in
  let sys =
    System.validate
      {
        System.name = "heg-polarized";
        lattice = Lattice.cubic lattice_box;
        n_up = 5;
        n_down = 3;
        ions = [];
        spo =
          Oqmc_wavefunction.Spo_analytic.plane_waves
            ~lattice:(Lattice.cubic lattice_box) ~n_orb:5;
        j1 = None;
        j2 = Some (Jastrow_sets.ee_set ~cutoff:2.4);
        ham =
          { System.coulomb = true; ewald = false; harmonic = None; nlpp = None };
      }
  in
  let e = Build.engine ~variant:Variant.Current_f64 ~seed:5 sys in
  let rng = Xoshiro.create 6 in
  for _ = 1 to 3 do
    ignore (e.Engine_api.sweep rng ~tau:0.2)
  done;
  let inc = e.Engine_api.log_psi () in
  let fresh = e.Engine_api.refresh () in
  check_bool "polarized system consistent" true (abs_float (inc -. fresh) < 1e-7);
  check_bool "finite E_L" true (Float.is_finite (e.Engine_api.measure ()))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "cross-module",
        qt
          [
            prop_variants_agree_random_configs;
            prop_log_psi_translation_invariant;
            prop_sweep_preserves_log_consistency;
            prop_checkpoint_roundtrip_random;
            prop_input_deck_roundtrip;
          ] );
      ( "edge-cases",
        [
          Alcotest.test_case "input deck errors" `Quick test_input_deck_errors;
          Alcotest.test_case "tile deck key" `Quick test_tile_deck_key;
          Alcotest.test_case "run parameters refused" `Quick
            test_run_parameters_refused;
          Alcotest.test_case "unbalanced spins" `Quick test_unbalanced_spins;
        ] );
    ]
