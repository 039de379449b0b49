(* Benchmark and reproduction harness.

   With no arguments, regenerates every table and figure of the paper's
   evaluation (DESIGN.md experiment index) and then runs the Bechamel
   kernel microbenchmarks.

     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- --exp fig8      # one experiment
     dune exec bench/main.exe -- --exp simd      # B-spline SIMD ablation
     dune exec bench/main.exe -- --bechamel      # microbenchmarks only
     dune exec bench/main.exe -- --pool          # pool/crowd benchmark
     dune exec bench/main.exe -- --crowd         # full-pipeline crowd batching
     dune exec bench/main.exe -- --crowd-smoke   # fast CI check (@bench-smoke)
     dune exec bench/main.exe -- --autotune      # delayed-update + f32 acceptance
     dune exec bench/main.exe -- --serve         # serve-layer microbenchmarks
     dune exec bench/main.exe -- --json BENCH_pool.json   # + JSON record
     OQMC_BENCH_REDUCTION=4 dune exec bench/main.exe   # bigger measured runs
*)

let usage () =
  print_endline
    "usage: main.exe [--exp \
     table1|fig1|fig2|fig3|fig7|fig8|fig9|fig10|table2|kernels|smt|ddr|delayed|simd|all] \
     [--bechamel] [--pool] [--crowd] [--crowd-smoke] [--autotune] [--dist] \
     [--obs] [--serve] [--json PATH]";
  exit 1

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | [ _ ] ->
      Experiments.all ();
      Microbench.run ()
  | [ _; "--bechamel" ] -> Microbench.run ()
  | [ _; "--pool" ] -> Pool_bench.run ()
  | [ _; "--crowd" ] -> Crowd_bench.run ()
  | [ _; "--crowd"; "--json"; path ] -> Crowd_bench.run ~json:path ()
  | [ _; "--crowd-smoke" ] -> Crowd_bench.smoke ()
  | [ _; "--autotune" ] -> Autotune_bench.run ()
  | [ _; "--autotune"; "--json"; path ] -> Autotune_bench.run ~json:path ()
  | [ _; "--dist" ] -> Dist_bench.run ()
  | [ _; "--obs" ] -> Obs_bench.run ()
  | [ _; "--obs"; "--json"; path ] -> Obs_bench.run ~json:path ()
  | [ _; "--serve" ] -> Serve_bench.run ()
  | [ _; "--serve"; "--json"; path ] -> Serve_bench.run ~json:path ()
  | [ _; "--json"; path ] | [ _; "--pool"; "--json"; path ] ->
      Pool_bench.run ~json:path ()
  | [ _; "--exp"; name ] -> (
      match Experiments.by_name name with
      | f -> f ()
      | exception Invalid_argument msg ->
          prerr_endline msg;
          usage ())
  | _ -> usage ()
