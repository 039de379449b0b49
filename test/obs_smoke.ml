open Oqmc_core
open Oqmc_workloads
open Oqmc_dist
module Jsonx = Oqmc_obs.Jsonx

(* Observability smoke: a short 4-rank supervised DMC run with tracing
   and telemetry on, validating the artifacts end to end — the Chrome
   trace parses as JSON, carries the supervisor (pid -1) and every rank,
   spans nest within each (pid, tid) lane, and the telemetry JSONL holds
   one well-formed record per measured generation.  Also checks the
   trajectory itself is untouched: estimators finite, population under
   control.  Run with `dune build @obs-smoke`. *)

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

let fget j key =
  match Jsonx.member key j with
  | Some v -> (
      match Jsonx.to_float v with
      | Some f -> f
      | None -> fail "field %S is not a number" key)
  | None -> fail "record missing field %S" key

(* Complete spans within one (pid, tid) lane must nest: sorted by start
   time (at equal starts the longer span first, as [Trace.events] orders
   a parent before a child opened in the same clock tick), each span
   either lies inside the innermost open span or starts after it ends.
   Partial overlap means broken begin/end pairing. *)
let check_lane_nesting ~lane spans =
  let eps = 2.0 (* microseconds; export rounds timestamps *) in
  let sorted =
    List.sort
      (fun (t1, d1) (t2, d2) -> compare (t1, -.(t1 +. d1)) (t2, -.(t2 +. d2)))
      spans
  in
  let stack = ref [] in
  List.iter
    (fun (ts, dur) ->
      let fin = ts +. dur in
      let rec unwind () =
        match !stack with
        | (_, pfin) :: rest when pfin <= ts +. eps ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | (pts, pfin) :: _ ->
          if not (ts >= pts -. eps && fin <= pfin +. eps) then
            fail "lane %s: span [%.1f, %.1f] us straddles parent [%.1f, %.1f]"
              lane ts fin pts pfin
      | [] -> ());
      stack := (ts, fin) :: !stack)
    sorted

let () =
  let trace_path = Filename.temp_file "oqmc_obs_smoke" ".trace.json" in
  let telemetry_path = Filename.temp_file "oqmc_obs_smoke" ".jsonl" in
  let sys = Validation.harmonic ~n:4 ~omega:1.0 in
  let factory = Build.factory ~variant:Variant.Current_f64 ~seed:700 sys in
  let ranks = 4 and generations = 10 and warmup = 3 in
  let params =
    {
      Supervisor.default_params with
      ranks;
      target_walkers = 16;
      warmup;
      generations;
      tau = 0.02;
      seed = 41;
      n_domains = 1;
      heartbeat_s = 30.;
      trace = Some trace_path;
      telemetry = Some telemetry_path;
      telemetry_every = 1;
    }
  in
  let res = Supervisor.run ~factory params in

  if res.Supervisor.live_ranks <> ranks then
    fail "expected %d live ranks, saw %d" ranks res.Supervisor.live_ranks;
  if not (Float.is_finite res.Supervisor.energy) then
    fail "non-finite energy %f" res.Supervisor.energy;

  (* --- trace: valid Chrome JSON, all pids present, spans nest --- *)
  let trace =
    match Jsonx.parse_string_exn (read_file trace_path) with
    | j -> j
    | exception Jsonx.Parse_error e -> fail "trace is not valid JSON: %s" e
  in
  let events =
    match Jsonx.(member "traceEvents" trace |> Option.get |> to_list) with
    | Some l -> l
    | None | (exception _) -> fail "trace has no traceEvents array"
  in
  if events = [] then fail "trace has no events";
  let pids =
    List.sort_uniq compare
      (List.map (fun e -> int_of_float (fget e "pid")) events)
  in
  if not (List.mem (-1) pids) then fail "no supervisor (pid -1) events";
  for r = 0 to ranks - 1 do
    if not (List.mem r pids) then fail "no events from rank %d" r
  done;
  let complete =
    List.filter_map
      (fun e ->
        match Jsonx.(member "ph" e |> Option.get |> to_str) with
        | Some "X" ->
            let lane =
              (int_of_float (fget e "pid"), int_of_float (fget e "tid"))
            in
            Some (lane, (fget e "ts", fget e "dur"))
        | _ -> None)
      events
  in
  if complete = [] then fail "trace has no complete spans";
  let lanes = List.sort_uniq compare (List.map fst complete) in
  List.iter
    (fun lane ->
      let spans =
        List.filter_map
          (fun (l, s) -> if l = lane then Some s else None)
          complete
      in
      check_lane_nesting
        ~lane:(Printf.sprintf "pid=%d/tid=%d" (fst lane) (snd lane))
        spans)
    lanes;

  (* --- telemetry: one well-formed record per measured generation --- *)
  let lines = read_lines telemetry_path in
  if List.length lines <> generations then
    fail "expected %d telemetry records, saw %d" generations
      (List.length lines);
  List.iteri
    (fun i line ->
      let j =
        match Jsonx.parse_string_exn line with
        | j -> j
        | exception Jsonx.Parse_error e ->
            fail "telemetry line %d is not valid JSON: %s" (i + 1) e
      in
      let gen = fget j "gen" in
      if int_of_float gen <> warmup + i + 1 then
        fail "telemetry line %d: expected gen %d, saw %g" (i + 1)
          (warmup + i + 1) gen;
      List.iter
        (fun key ->
          if not (Float.is_finite (fget j key)) then
            fail "telemetry line %d: non-finite %S" (i + 1) key)
        [ "e_gen"; "e_trial"; "population"; "acceptance"; "wall_s" ])
    lines;

  Sys.remove trace_path;
  Sys.remove telemetry_path;
  Printf.printf
    "obs smoke OK: E = %.6f +/- %.6f, %d trace events across %d lanes \
     (%d pids), %d telemetry records\n"
    res.Supervisor.energy res.Supervisor.energy_error (List.length events)
    (List.length lanes) (List.length pids) (List.length lines)
