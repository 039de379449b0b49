open Oqmc_containers
open Oqmc_rng
open Oqmc_core
open Oqmc_autotune
module J = Oqmc_obs.Jsonx
module Spo = Oqmc_wavefunction.Spo

(* Orbital-tile benchmark (BENCH_tile.json): batched Bspline-vgh
   throughput of the B-spline orbital table across the tile sweep, against
   one tile of every orbital (tile 0, the default), at NiO-32 and
   graphite orbital orders.

   Three measurements, printed as a table and written as JSON so the
   tile's perf trajectory is diffable across PRs:

   1. tile sweep: ns/eval of the crowd-batched vgl path at tile in
      {8, 16, 32, 64, n_orb} against one tile, per workload, as medians
      of interleaved rounds — every tile holds byte-identical
      coefficients, so any delta is pure memory behaviour; the record
      says directly whether any tile pays;
   2. allocation per eval: the batched kernels must move ZERO words per
      eval at every tile — asserted, not just reported;
   3. autotuned tile vs one tile: the tuner's measured-refined tile pick
      on NiO-32 must not lose to one tile beyond a noise margin (the
      @tile-smoke gate), judged on the medians of alternating pairs. *)

let n_pos = 4096

let spo_positions () =
  let rng = Xoshiro.create 41 in
  Array.init n_pos (fun _ ->
      Vec3.make
        (Xoshiro.uniform rng *. 15.)
        (Xoshiro.uniform rng *. 15.)
        (Xoshiro.uniform rng *. 7.))

(* Crowd-batched SPO-vgl timing with a long non-repeating position
   stream (the regime where the coefficient stream, not a cache-resident
   handful of stencils, is the cost).  Also returns minor words per
   eval, which must be zero at every tile. *)
let vgl_ns_and_words (sys : System.t) ~reps =
  let spo = sys.System.spo in
  let pos = spo_positions () in
  let mask = n_pos - 1 in
  let crowd = 16 in
  let window = Array.make crowd pos.(0) in
  let b = spo.Spo.make_vgl_batch crowd in
  let run i =
    let base = i * crowd in
    for s = 0 to crowd - 1 do
      window.(s) <- pos.((base + s) land mask)
    done;
    b.Spo.run window crowd
  in
  let calls = max 1 (reps / crowd) in
  for i = 0 to (calls / 4) - 1 do
    run i
  done;
  (* warmup *)
  let w0 = Gc.minor_words () in
  let t0 = Timers.now () in
  for i = 0 to calls - 1 do
    run i
  done;
  let dt = Timers.now () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  ( dt *. 1e9 /. float_of_int (calls * crowd),
    dw /. float_of_int (calls * crowd) )

type point = { tile : int; (* 0 = one tile *) ns_per_eval : float }

type system_sweep = {
  sname : string;
  n_orb : int;
  points : point list;
  best_tile : int;
  best_speedup : float;  (** one-tile ns/eval over the best point's *)
}

let reduction () =
  match Sys.getenv_opt "OQMC_BENCH_REDUCTION" with
  | Some r -> int_of_string r
  | None -> 8

let make_sys ~spec ~tile =
  Oqmc_workloads.Builder.make ~reduction:(reduction ()) ~with_nlpp:false
    ~tile spec

let tile_name tile =
  if tile = 0 then "one tile" else Printf.sprintf "tile %d" tile

(* The batched kernels must be allocation-free: words/eval is measured
   on every sweep point and a hard failure, not a report line.  The
   threshold is below one word/eval so a single boxed float per eval
   trips it, while the constant measurement overhead (the
   [Gc.minor_words] probes box their own returns) stays under it. *)
let assert_no_alloc ~name ~tile words =
  if words > 0.5 then
    failwith
      (Printf.sprintf
         "tile_bench: batched vgl allocates %.1f words/eval (%s, tile=%d)"
         words name tile)

(* Configurations measured in interleaved rounds — every configuration
   once per round, [rounds] rounds — each keeping its median ns/eval and
   its largest words/eval.  A host burst then lands on every
   configuration of a round instead of deciding the comparison. *)
let interleaved ~rounds systems =
  let reps = 20_000 in
  let samples =
    List.init rounds (fun _ ->
        List.map (fun sys -> vgl_ns_and_words sys ~reps) systems)
  in
  List.mapi
    (fun i _ ->
      let mine = List.map (fun round -> List.nth round i) samples in
      let ns = Array.of_list (List.map fst mine) in
      Array.sort compare ns;
      let words = List.fold_left (fun m (_, w) -> Float.max m w) 0. mine in
      (ns.(rounds / 2), words))
    systems

let sweep ~name ~spec =
  let sys_one = make_sys ~spec ~tile:0 in
  let n_orb = sys_one.System.spo.Spo.n_orb in
  let tiles =
    0
    :: List.sort_uniq compare
         (List.filter (fun t -> t > 0 && t <= n_orb) [ 8; 16; 32; 64; n_orb ])
  in
  let results =
    interleaved ~rounds:5
      (List.map
         (fun tile -> if tile = 0 then sys_one else make_sys ~spec ~tile)
         tiles)
  in
  let one_ns = fst (List.hd results) in
  Printf.printf "  %s (n_orb=%d): one tile %.1f ns/eval\n%!" name n_orb one_ns;
  let points =
    List.map2
      (fun tile (ns, w) ->
        assert_no_alloc ~name ~tile w;
        if tile > 0 then
          Printf.printf "    tile %3d: %.1f ns/eval  (%.2fx vs one tile)\n%!"
            tile ns (one_ns /. ns);
        { tile; ns_per_eval = ns })
      tiles results
  in
  let best =
    List.fold_left
      (fun acc p -> if p.ns_per_eval < acc.ns_per_eval then p else acc)
      (List.hd points) points
  in
  Printf.printf "    best: %s (%.2fx vs one tile)\n%!" (tile_name best.tile)
    (one_ns /. best.ns_per_eval);
  {
    sname = name;
    n_orb;
    points;
    best_tile = best.tile;
    best_speedup = one_ns /. best.ns_per_eval;
  }

(* ---- autotuned tile vs one tile (the @tile-smoke acceptance) ---- *)

type auto_result = {
  atile : int;
  one_ns : float;
  tiled_ns : float;
  aspeedup : float;
}

let bench_autotuned ?(margin = 1.05) ?(pairs = 7) () =
  let spec = Oqmc_workloads.Spec.nio32 in
  let sys_one = make_sys ~spec ~tile:0 in
  let choice =
    Tuner.choose ~refine:true ~walkers:8 ~domains:1 ~variant:Variant.Current
      ~precision:`F32 ~sys:sys_one ()
  in
  Printf.printf "  %s\n%!" (Tuner.describe choice);
  let atile = choice.Tuner.knobs.Tuner.tile in
  let one_ns, tiled_ns =
    match interleaved ~rounds:pairs [ sys_one; make_sys ~spec ~tile:atile ] with
    | [ (one, _); (auto, _) ] -> (one, auto)
    | _ -> assert false
  in
  Printf.printf
    "  autotuned %s: %.1f ns/eval vs one tile %.1f ns/eval  (%.2fx, \
     medians of %d alternating pairs)\n%!"
    (tile_name atile) tiled_ns one_ns (one_ns /. tiled_ns) pairs;
  if tiled_ns > one_ns *. margin then
    failwith
      (Printf.sprintf
         "tile_bench: autotuned tile slower than one tile beyond %.0f%% \
          (tile=%d: %.1f ns/eval vs %.1f)"
         ((margin -. 1.) *. 100.)
         atile tiled_ns one_ns);
  { atile; one_ns; tiled_ns; aspeedup = one_ns /. tiled_ns }

(* ---- reporting ---- *)

let json_of ~sweeps ~auto =
  J.Obj
    [
      ( "header",
        J.Obj
          [
            ("schema", J.Num 1.);
            ("precision", J.Str "f32");
            ("delay", J.Num 1.);
          ] );
      ( "systems",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("system", J.Str s.sname);
                   ("n_orb", J.Num (float_of_int s.n_orb));
                   ( "points",
                     J.Arr
                       (List.map
                          (fun p ->
                            J.Obj
                              [
                                ("tile", J.Num (float_of_int p.tile));
                                ("vgl_ns_per_eval", J.Num p.ns_per_eval);
                              ])
                          s.points) );
                   ("best_tile", J.Num (float_of_int s.best_tile));
                   ("best_speedup_vs_one_tile", J.Num s.best_speedup);
                 ])
             sweeps) );
      ( "autotuned",
        J.Obj
          [
            ("tile", J.Num (float_of_int auto.atile));
            ("one_tile_ns_per_eval", J.Num auto.one_ns);
            ("tile_ns_per_eval", J.Num auto.tiled_ns);
            ("speedup_vs_one_tile", J.Num auto.aspeedup);
          ] );
    ]

let run ?json () =
  Printf.printf "== orbital tile sweep vs one tile ==\n%!";
  let sweeps =
    [
      sweep ~name:"NiO-32" ~spec:Oqmc_workloads.Spec.nio32;
      sweep ~name:"graphite" ~spec:Oqmc_workloads.Spec.graphite;
    ]
  in
  Printf.printf "== autotuned tile vs one tile (NiO-32) ==\n%!";
  let auto = bench_autotuned () in
  match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (J.to_string (json_of ~sweeps ~auto));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n%!" path

(* Fast CI gate for the @tile-smoke alias: one workload's sweep for the
   zero-allocation assertion, plus the autotuned-tile-vs-one-tile check
   at a 5% noise margin.  Fails loudly rather than reporting softly. *)
let smoke () =
  Printf.printf "tile smoke: NiO-32 sweep + autotuned tile vs one tile\n%!";
  let s = sweep ~name:"NiO-32" ~spec:Oqmc_workloads.Spec.nio32 in
  let auto = bench_autotuned ~margin:1.05 () in
  Printf.printf
    "tile smoke: ok (best swept tile %s at %.2fx, autotuned tile %d at \
     %.2fx)\n%!"
    (if s.best_tile = 0 then "one" else string_of_int s.best_tile)
    s.best_speedup auto.atile auto.aspeedup
