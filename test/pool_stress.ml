(* Pool stress + smoke: the @bench-smoke alias.

   1. A tiny end-to-end experiment: VMC and DMC on the harmonic
      validation system through 2 domains and a 4-walker crowd — the
      whole pool + crowd stack in a few hundred milliseconds.
   2. A pool stress run: 1000 generations of real engine sweeps over a
      4-domain runner, asserting
        - no domain leak (exactly 3 spawns for the whole run),
        - every generation covers every walker exactly once,
        - merged kernel-timer totals and counts are monotone across the
          run (workers publish their timing into the pool's engines, not
          into lost per-spawn copies).

   Exits non-zero on any violated invariant, so it can gate CI. *)

open Oqmc_containers
open Oqmc_core
open Oqmc_rng

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let check name cond = if not cond then fail "pool_stress: FAILED %s" name

let smoke () =
  let sys = Oqmc_workloads.Validation.harmonic ~n:4 ~omega:1.0 in
  let factory = Build.factory ~variant:Variant.Current ~seed:2 sys in
  let vmc =
    Vmc.run ~crowd:4 ~factory
      {
        Vmc.n_walkers = 8;
        warmup = 5;
        blocks = 2;
        steps_per_block = 10;
        tau = 0.3;
        seed = 7;
        n_domains = 2;
      }
  in
  check "vmc energy finite" (Float.is_finite vmc.Vmc.energy);
  let dmc =
    Dmc.run ~crowd:4 ~factory
      {
        Dmc.target_walkers = 8;
        warmup = 3;
        generations = 10;
        tau = 0.05;
        seed = 8;
        n_domains = 2;
        ranks = 1;
      }
  in
  check "dmc energy finite" (Float.is_finite dmc.Dmc.energy);
  Printf.printf "smoke: vmc E=%.6f dmc E=%.6f\n%!" vmc.Vmc.energy
    dmc.Dmc.energy

let stress () =
  let n_domains = 4 and generations = 1000 and n_walkers = 8 in
  let sys = Oqmc_workloads.Validation.harmonic ~n:2 ~omega:1.0 in
  let factory = Build.factory ~variant:Variant.Current ~seed:4 sys in
  let spawns_before = Runner.total_spawns () in
  let t0 = Timers.now () in
  Runner.with_runner ~crowd:1 ~walkers:n_walkers ~n_domains ~factory
    (fun runner ->
      (* per-walker state, seeded from engine 0 *)
      let e0 = Runner.engine runner 0 in
      let rng0 = Xoshiro.create 99 in
      let walkers =
        Array.init n_walkers (fun _ ->
            let w = Oqmc_particle.Walker.create e0.Engine_api.n_electrons in
            e0.Engine_api.randomize rng0;
            e0.Engine_api.register_walker w;
            e0.Engine_api.save_walker w;
            w)
      in
      let rngs = Array.init n_walkers (fun i -> Xoshiro.create (1000 + i)) in
      let prev = ref [] in
      let covered = Atomic.make 0 in
      for gen = 1 to generations do
        Runner.iter_walkers runner
          (Array.mapi (fun i w -> (i, w)) walkers)
          ~f:(fun e (i, w) ->
            Atomic.incr covered;
            e.Engine_api.restore_walker w;
            ignore (e.Engine_api.sweep rngs.(i) ~tau:0.3);
            e.Engine_api.save_walker w);
        if gen mod 250 = 0 then begin
          check
            (Printf.sprintf "coverage at gen %d" gen)
            (Atomic.get covered = gen * n_walkers);
          (* Timer totals/counts must only grow: worker time lands in the
             pool's persistent engines. *)
          let snap = Timers.snapshot (Runner.merged_timers runner) in
          List.iter
            (fun (k, t_old, c_old) ->
              match
                List.find_opt (fun (k', _, _) -> String.equal k k') snap
              with
              | None -> fail "pool_stress: timer %s disappeared" k
              | Some (_, t_new, c_new) ->
                  check
                    (Printf.sprintf "timer %s total monotone" k)
                    (t_new >= t_old);
                  check
                    (Printf.sprintf "timer %s count monotone" k)
                    (c_new >= c_old))
            !prev;
          prev := snap
        end
      done);
  let spawned = Runner.total_spawns () - spawns_before in
  check
    (Printf.sprintf "no domain leak (spawned %d, want %d)" spawned
       (n_domains - 1))
    (spawned = n_domains - 1);
  Printf.printf
    "stress: %d generations x %d walkers on %d domains in %.2fs, %d spawns\n%!"
    generations n_walkers n_domains
    (Timers.now () -. t0)
    spawned

let () =
  smoke ();
  stress ();
  print_endline "pool_stress: OK"
