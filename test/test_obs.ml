(* Observability layer: JSON codec, trace rings, metrics registry,
   telemetry sink — and the two contracts the drivers promise: spans
   cost nothing measurable when disabled, and trajectories are
   bit-identical with tracing on or off. *)

open Oqmc_containers
open Oqmc_core
open Oqmc_workloads
module Jsonx = Oqmc_obs.Jsonx
module Trace = Oqmc_obs.Trace
module Metrics = Oqmc_obs.Metrics
module Telemetry = Oqmc_obs.Telemetry
module Progress = Oqmc_obs.Progress

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf tol = Alcotest.(check (float tol))

let factory sys = Build.factory ~variant:Variant.Current ~seed:3 sys
let harmonic_sys = lazy (Validation.harmonic ~n:4 ~omega:1.0)

(* ---------- jsonx ---------- *)

let test_jsonx_roundtrip () =
  let v =
    Jsonx.(
      Obj
        [
          ("null", Null);
          ("flag", Bool true);
          ("num", Num 3.125);
          ("neg", Num (-0.5));
          ("int", Num 42.);
          ("str", Str "line\nquote\"back\\slash\ttab");
          ("arr", Arr [ Num 1.; Str "two"; Bool false; Null ]);
          ("nested", Obj [ ("k", Arr [ Obj [ ("deep", Num 7.) ] ]) ]);
        ])
  in
  let s = Jsonx.to_string v in
  check_bool "roundtrip" true (Jsonx.parse_string_exn s = v)

let test_jsonx_nonfinite () =
  Alcotest.(check string) "nan" "null" (Jsonx.to_string (Num nan));
  Alcotest.(check string) "inf" "null" (Jsonx.to_string (Num infinity))

let test_jsonx_accessors () =
  let v = Jsonx.parse_string_exn {|{"a": [1, 2.5], "b": "x"}|} in
  (match Jsonx.member "a" v with
  | Some a -> (
      match Jsonx.to_list a with
      | Some [ x; y ] ->
          checkf 1e-12 "elt 0" 1. (Option.get (Jsonx.to_float x));
          checkf 1e-12 "elt 1" 2.5 (Option.get (Jsonx.to_float y))
      | _ -> Alcotest.fail "a not a 2-list")
  | None -> Alcotest.fail "missing a");
  check_bool "b" true (Jsonx.(member "b" v |> Option.get |> to_str) = Some "x");
  check_bool "absent" true (Jsonx.member "zz" v = None)

let test_jsonx_rejects_garbage () =
  let bad s =
    match Jsonx.parse_string_exn s with
    | exception Jsonx.Parse_error _ -> true
    | _ -> false
  in
  check_bool "trailing" true (bad "{} x");
  check_bool "truncated" true (bad {|{"a": |});
  check_bool "bare word" true (bad "fnord");
  check_bool "empty" true (bad "")

(* ---------- trace ring ---------- *)

let test_trace_disabled_is_passthrough () =
  Trace.disable ();
  check_bool "disabled" false (Trace.enabled ());
  let r = Trace.with_span "noop" (fun () -> 17) in
  check_int "thunk value" 17 r;
  Trace.instant "nothing";
  check_int "no events" 0 (List.length (Trace.events ()))

let test_trace_ring_overwrite () =
  (* rings clamp to a minimum capacity of 16 events *)
  Trace.enable ~capacity:16 ();
  for i = 1 to 40 do
    Trace.instant ~args:[ ("i", string_of_int i) ] "tick"
  done;
  let evs = Trace.events () in
  check_bool "bounded" true (List.length evs <= 16);
  check_int "dropped" 24 (Trace.dropped ());
  (* survivors are the newest events *)
  List.iter
    (fun (e : Trace.event) ->
      let i = int_of_string (List.assoc "i" e.Trace.args) in
      check_bool "newest kept" true (i > 24))
    evs;
  Trace.disable ()

let test_trace_span_nesting () =
  Trace.enable ();
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1)));
  let find n =
    List.find (fun (e : Trace.event) -> e.Trace.name = n) (Trace.events ())
  in
  let o = find "outer" and i = find "inner" in
  check_bool "inner starts after outer" true (i.Trace.ts >= o.Trace.ts);
  check_bool "inner ends before outer" true
    (i.Trace.ts +. i.Trace.dur <= o.Trace.ts +. o.Trace.dur +. 1e-9);
  (* non-lexical pairs nest the same way *)
  Trace.clear ();
  Trace.span_begin "a";
  Trace.span_begin "b";
  Trace.span_end ();
  Trace.span_end ();
  let a = find "a" and b = find "b" in
  check_bool "begin/end nest" true
    (b.Trace.ts >= a.Trace.ts
    && b.Trace.ts +. b.Trace.dur <= a.Trace.ts +. a.Trace.dur +. 1e-9);
  Trace.disable ()

(* A child opened in the same 1 us clock tick as its parent must sort
   after it: [Trace.events] orders equal starts by descending end. *)
let test_trace_parent_first_at_tie () =
  Trace.enable ();
  for _ = 1 to 2000 do
    Trace.with_span "parent" (fun () ->
        Trace.with_span "child" (fun () -> ignore (Sys.opaque_identity 1)))
  done;
  let ties = ref 0 in
  let rec walk = function
    | (a : Trace.event) :: ((b : Trace.event) :: _ as rest) ->
        if a.Trace.tid = b.Trace.tid && Float.equal a.Trace.ts b.Trace.ts
        then begin
          incr ties;
          check_bool "enclosing span first at a tie" true
            (a.Trace.dur >= b.Trace.dur)
        end;
        walk rest
    | _ -> ()
  in
  walk (Trace.events ());
  check_bool "same-tick starts recorded" true (!ties > 0);
  Trace.disable ()

let test_trace_span_exception_safe () =
  Trace.enable ();
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  (* the span closed despite the exception: a fresh span still records *)
  Trace.with_span "after" (fun () -> ());
  let names =
    List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ())
  in
  check_bool "boom recorded" true (List.mem "boom" names);
  check_bool "after recorded" true (List.mem "after" names);
  Trace.disable ()

let test_trace_export_is_valid_chrome_json () =
  Trace.enable ();
  Trace.set_rank 3;
  Trace.with_span ~args:[ ("k", "v") ] "span" (fun () -> ());
  Trace.instant "mark";
  let j = Jsonx.parse_string_exn (Trace.export_string ()) in
  let evs =
    Jsonx.member "traceEvents" j |> Option.get |> Jsonx.to_list |> Option.get
  in
  check_bool "has events" true (List.length evs >= 2);
  List.iter
    (fun e ->
      check_bool "name" true (Jsonx.member "name" e <> None);
      check_bool "ph" true (Jsonx.member "ph" e <> None);
      check_bool "ts" true (Jsonx.member "ts" e <> None);
      checkf 1e-12 "pid = rank" 3.
        (Option.get Jsonx.(member "pid" e |> Option.get |> to_float)))
    evs;
  Trace.set_rank 0;
  Trace.disable ()

let test_trace_serialize_ingest () =
  Trace.enable ();
  Trace.with_span "shipped" (fun () -> ());
  Trace.instant ~args:[ ("why", "test") ] "mark";
  let blob = Trace.serialize () in
  Trace.clear ();
  check_int "cleared" 0 (List.length (Trace.events ()));
  Trace.ingest ~pid:42 blob;
  let evs = Trace.events () in
  check_int "ingested" 2 (List.length evs);
  List.iter
    (fun (e : Trace.event) -> check_int "pid from ingest" 42 e.Trace.pid)
    evs;
  let mark =
    List.find (fun (e : Trace.event) -> e.Trace.name = "mark") evs
  in
  check_bool "args survive" true (List.assoc "why" mark.Trace.args = "test");
  Alcotest.check_raises "corrupt blob" Trace.Malformed (fun () ->
      Trace.ingest ~pid:0 "this is not a trace blob");
  Trace.disable ()

(* ---------- timers shim + ordering ---------- *)

let test_timers_emit_spans_when_tracing () =
  Trace.enable ();
  let t = Timers.create () in
  Timers.time t "kernel.fake" (fun () -> ignore (Sys.opaque_identity 2));
  check_bool "span recorded" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.name = "kernel.fake")
       (Trace.events ()));
  check_int "timer still counts" 1 (Timers.count t "kernel.fake");
  Trace.disable ();
  let before = List.length (Trace.events ()) in
  Timers.time t "kernel.fake" (fun () -> ());
  check_int "no shim when disabled" before (List.length (Trace.events ()))

let test_timers_profile_ordering () =
  let t = Timers.create () in
  Timers.add t "zeta" 1.0;
  Timers.add t "alpha" 3.0;
  Timers.add t "mid" 2.0;
  (* profile and pp order by descending total… *)
  (match Timers.profile t with
  | (k1, f1) :: (k2, _) :: (k3, f3) :: _ ->
      Alcotest.(check string) "hottest first" "alpha" k1;
      Alcotest.(check string) "then mid" "mid" k2;
      Alcotest.(check string) "coolest last" "zeta" k3;
      checkf 1e-12 "fractions" 0.5 f1;
      checkf 1e-12 "fractions" (1. /. 6.) f3
  | _ -> Alcotest.fail "profile arity");
  let pp_str = Format.asprintf "%a" Timers.pp t in
  let pos key =
    let rec find i =
      if i + String.length key > String.length pp_str then -1
      else if String.sub pp_str i (String.length key) = key then i
      else find (i + 1)
    in
    find 0
  in
  check_bool "pp descending" true
    (pos "alpha" >= 0 && pos "alpha" < pos "mid" && pos "mid" < pos "zeta");
  (* …while snapshot stays key-sorted for stable diffs *)
  (match Timers.snapshot t with
  | [ (k1, _, _); (k2, _, _); (k3, _, _) ] ->
      check_bool "snapshot key-sorted" true
        (k1 = "alpha" && k2 = "mid" && k3 = "zeta")
  | _ -> Alcotest.fail "snapshot arity")

let test_timers_merge_monotone_under_pool () =
  (* Satellite: merged pool timers only ever grow across parallel
     regions, and the instrumented work is counted exactly once. *)
  let sys = Lazy.force harmonic_sys in
  Runner.with_runner ~crowd:1 ~walkers:64 ~n_domains:2 ~factory:(factory sys)
  @@ fun r ->
  let prev = ref (Timers.snapshot (Runner.merged_timers r)) in
  for _region = 1 to 3 do
    Runner.parallel_for r ~n:64 ~f:(fun ~domain i ->
        let tm = (Runner.engine r domain).Engine_api.timers in
        Timers.time tm "obs.work" (fun () ->
            ignore (Sys.opaque_identity (sin (float_of_int i)))));
    let cur = Timers.snapshot (Runner.merged_timers r) in
    List.iter
      (fun (k, tot, cnt) ->
        match List.find_opt (fun (k', _, _) -> k' = k) cur with
        | None -> Alcotest.fail ("timer key vanished: " ^ k)
        | Some (_, tot', cnt') ->
            check_bool "total monotone" true (tot' >= tot -. 1e-12);
            check_bool "count monotone" true (cnt' >= cnt))
      !prev;
    prev := cur
  done;
  match List.find_opt (fun (k, _, _) -> k = "obs.work") !prev with
  | None -> Alcotest.fail "obs.work never recorded"
  | Some (_, _, cnt) -> check_int "exactly once per index" (3 * 64) cnt

(* ---------- metrics registry ---------- *)

let test_metrics_counters_gauges () =
  Metrics.reset ();
  let c = Metrics.counter "t.counter" in
  Metrics.inc c;
  Metrics.add c 4;
  check_int "counter" 5 (Metrics.counter_value c);
  check_int "same handle" 5 (Metrics.counter_value (Metrics.counter "t.counter"));
  let g = Metrics.gauge "t.gauge" in
  Metrics.set g 2.5;
  checkf 1e-12 "gauge" 2.5 (Metrics.gauge_value g);
  check_bool "kind clash" true
    (match Metrics.gauge "t.counter" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_histogram () =
  Metrics.reset ();
  let h = Metrics.histogram "t.histo" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; nan; infinity ];
  match Metrics.find (Metrics.snapshot ()) "t.histo" with
  | Some (Metrics.Histogram v) ->
      check_int "non-finite dropped" 3 v.Metrics.count;
      checkf 1e-12 "sum" 5.0 v.Metrics.sum;
      checkf 1e-12 "min" 0.5 v.Metrics.min;
      checkf 1e-12 "max" 3.0 v.Metrics.max;
      check_bool "buckets populated" true (v.Metrics.buckets <> []);
      List.iter
        (fun (ub, _) ->
          checkf 1e-9 "power-of-two bound" 0.
            (Float.rem (Float.log2 ub) 1.0))
        v.Metrics.buckets
  | _ -> Alcotest.fail "histogram missing"

let test_metrics_snapshot_diff () =
  Metrics.reset ();
  let c = Metrics.counter "t.d.counter" and g = Metrics.gauge "t.d.gauge" in
  Metrics.add c 10;
  Metrics.set g 1.0;
  let prev = Metrics.snapshot () in
  Metrics.add c 7;
  Metrics.set g 9.0;
  let d = Metrics.diff ~prev (Metrics.snapshot ()) in
  check_bool "counter delta" true
    (Metrics.find d "t.d.counter" = Some (Metrics.Counter 7));
  check_bool "gauge current" true
    (Metrics.find d "t.d.gauge" = Some (Metrics.Gauge 9.0));
  check_bool "snapshot sorted" true
    (let names = List.map fst prev in
     names = List.sort compare names)

let test_metrics_wire_roundtrip () =
  Metrics.reset ();
  Metrics.add (Metrics.counter "t.w.counter") 5;
  Metrics.set (Metrics.gauge "t.w.gauge") 2.5;
  let kvs = Metrics.wire_kvs (Metrics.snapshot ()) in
  check_bool "kinds" true
    (List.for_all (fun { Metrics.kind; _ } -> kind = 'c' || kind = 'g') kvs);
  Metrics.reset ();
  check_int "reset zeroes" 0 (Metrics.counter_value (Metrics.counter "t.w.counter"));
  Metrics.absorb_kvs kvs;
  Metrics.absorb_kvs [ { Metrics.kind = '?'; key = "x"; value = 1. } ];
  check_int "counter restored" 5
    (Metrics.counter_value (Metrics.counter "t.w.counter"));
  checkf 1e-12 "gauge restored" 2.5
    (Metrics.gauge_value (Metrics.gauge "t.w.gauge"));
  (* absorbing twice accumulates counters — the per-generation deltas
     the ranks ship are additive by construction *)
  Metrics.absorb_kvs kvs;
  check_int "counters additive" 10
    (Metrics.counter_value (Metrics.counter "t.w.counter"))

let test_metrics_json () =
  Metrics.reset ();
  Metrics.add (Metrics.counter "t.j.counter") 3;
  let j = Metrics.json_of_snapshot (Metrics.snapshot ()) in
  let parsed = Jsonx.parse_string_exn (Jsonx.to_string j) in
  check_bool "self-describing json" true
    (Jsonx.member "t.j.counter" parsed <> None)

(* ---------- telemetry sink + progress ---------- *)

let test_telemetry_jsonl () =
  let path = Filename.temp_file "oqmc_test" ".jsonl" in
  let n =
    Telemetry.with_sink path (fun sink ->
        for g = 1 to 3 do
          Telemetry.emit sink
            Jsonx.(Obj [ ("gen", Num (float_of_int g)); ("e", Num (-1.5)) ])
        done;
        Telemetry.records sink)
  in
  check_int "records counted" 3 n;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  check_int "one line per record" 3 (List.length lines);
  List.iteri
    (fun i line ->
      let j = Jsonx.parse_string_exn line in
      checkf 1e-12 "gen field"
        (float_of_int (i + 1))
        (Option.get Jsonx.(member "gen" j |> Option.get |> to_float)))
    lines

let test_progress_line () =
  let path = Filename.temp_file "oqmc_test" ".progress" in
  let oc = open_out path in
  let p = Progress.create ~oc ~min_interval:0. () in
  Progress.update p "gen 1/10";
  Progress.update p "gen 2/10";
  Progress.finish p;
  Progress.finish p;
  close_out oc;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  check_bool "painted something" true (len > 0)

(* ---------- progress interject: no torn lines ---------- *)

(* Naive substring scan; test inputs are tiny. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = find_sub s sub <> None

let test_progress_interject () =
  let path = Filename.temp_file "oqmc_test" ".progress" in
  let oc = open_out path in
  let p = Progress.create ~oc ~min_interval:0. () in
  Progress.update p "gen 1/10";
  Progress.interject p "warning: rank 2 straggling";
  Progress.update p "gen 2/10";
  Progress.finish p;
  close_out oc;
  let out = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (* The painted line is erased before the warning, the warning owns a
     full line, and the next update repaints immediately (throttle
     reset). *)
  check_bool "status erased before the warning" true
    (match find_sub out "warning:" with
    | None -> false
    | Some i ->
        let erase = "\r\027[K" in
        i >= String.length erase
        && String.sub out (i - String.length erase) (String.length erase)
           = erase);
  check_bool "warning on its own line" true
    (contains out "warning: rank 2 straggling\n");
  check_bool "repaint after interject" true (contains out "gen 2/10")

(* ---------- exposition ---------- *)

module Expo = Oqmc_obs.Expo

(* Golden rendering: 1.0/2.0/4.0 land in log2 buckets bounded 2/4/8. *)
let expo_snap () =
  [
    ("app.moves", Metrics.Counter 42);
    ("app.ratio", Metrics.Gauge 0.5);
    ("app.wall", Metrics.Histogram (Metrics.hview_of_values [ 1.0; 2.0; 4.0 ]));
  ]

let test_expo_golden_text () =
  let golden =
    String.concat "\n"
      [
        "# TYPE app_moves counter";
        "app_moves 42";
        "# TYPE app_ratio gauge";
        "app_ratio 0.5";
        "# TYPE app_wall histogram";
        "app_wall_bucket{le=\"2\"} 1";
        "app_wall_bucket{le=\"4\"} 2";
        "app_wall_bucket{le=\"8\"} 3";
        "app_wall_bucket{le=\"+Inf\"} 3";
        "app_wall_sum 7";
        "app_wall_count 3";
        "";
      ]
  in
  Alcotest.(check string) "prometheus text" golden (Expo.text (expo_snap ()))

let test_expo_json () =
  let j = Expo.json (expo_snap ()) in
  let wall = Option.get (Jsonx.member "app.wall" j) in
  check_int "count" 3
    (int_of_float (Option.get (Option.bind (Jsonx.member "count" wall) Jsonx.to_float)));
  let p50 =
    Option.get (Option.bind (Jsonx.member "p50" wall) Jsonx.to_float)
  in
  check_bool "p50 within data range" true (p50 >= 1.0 && p50 <= 4.0);
  (* The whole document roundtrips through the wire format. *)
  let s = Jsonx.to_string j in
  check_bool "roundtrips" true (Jsonx.parse_string_exn s = j)

(* ---------- quantiles: honest error bars (QCheck) ---------- *)

let samples_arb =
  QCheck.(list_of_size Gen.(int_range 1 100) (float_range 1e-6 1e6))

(* Empirical quantile: value at rank ceil(q*n), 1-based. *)
let emp_quantile vs q =
  let a = Array.of_list vs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  a.(min (n - 1) (rank - 1))

let prop_quantile_honest =
  QCheck.Test.make ~count:300
    ~name:"quantile estimate within [min,max] and err covers the truth"
    QCheck.(pair samples_arb (float_range 0. 1.))
    (fun (vs, q) ->
      let hv = Metrics.hview_of_values vs in
      match Metrics.quantile hv q with
      | None -> false
      | Some (est, err) ->
          let t = emp_quantile vs q in
          est >= hv.Metrics.min
          && est <= hv.Metrics.max
          && err >= 0.
          && Float.abs (est -. t) <= err +. 1e-9)

let prop_quantile_monotone =
  QCheck.Test.make ~count:300 ~name:"quantile monotone in q"
    QCheck.(triple samples_arb (float_range 0. 1.) (float_range 0. 1.))
    (fun (vs, a, b) ->
      let qlo = Float.min a b and qhi = Float.max a b in
      let hv = Metrics.hview_of_values vs in
      match (Metrics.quantile hv qlo, Metrics.quantile hv qhi) with
      | Some (e1, _), Some (e2, _) -> e1 <= e2 +. 1e-12
      | _ -> false)

let prop_quantile_empty =
  QCheck.Test.make ~count:20 ~name:"empty histogram has no quantiles"
    QCheck.(float_range 0. 1.)
    (fun q -> Metrics.quantile (Metrics.hview_of_values []) q = None)

(* ---------- flight recorder ---------- *)

module Flightrec = Oqmc_obs.Flightrec

let test_flightrec_ring_wrap () =
  Flightrec.set_capacity 8;
  for i = 1 to 20 do
    Flightrec.record "tick" (Jsonx.Num (float_of_int i))
  done;
  let es = Flightrec.entries () in
  check_int "ring holds capacity" 8 (List.length es);
  check_int "recorded counts everything" 20 (Flightrec.recorded ());
  (* Oldest first, and the survivors are the newest 8. *)
  let nums =
    List.map
      (fun (e : Flightrec.entry) ->
        int_of_float (Option.get (Jsonx.to_float e.Flightrec.data)))
      es
  in
  Alcotest.(check (list int)) "newest 8, oldest first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    nums;
  Flightrec.set_capacity 512

let test_flightrec_dump_replay () =
  Flightrec.set_capacity 64;
  Flightrec.clear ();
  Flightrec.record "gen" (Jsonx.Obj [ ("gen", Jsonx.Num 7.) ]);
  Flightrec.note "rank %d respawned" 2;
  let path = Filename.temp_file "oqmc_test" ".flightrec" in
  Flightrec.dump ~reason:"unit test" ~path ();
  let pm = Flightrec.replay ~path in
  Sys.remove path;
  check_bool "complete (CRC matched)" true pm.Flightrec.complete;
  check_int "both records replayed" 2 (List.length pm.Flightrec.records);
  check_bool "kinds preserved" true
    (List.map (fun (e : Flightrec.entry) -> e.Flightrec.kind)
       pm.Flightrec.records
    = [ "gen"; "note" ]);
  check_bool "describe mentions the reason" true
    (contains (Flightrec.describe pm) "unit test")

let test_flightrec_torn_tail () =
  Flightrec.set_capacity 64;
  Flightrec.clear ();
  for i = 1 to 10 do
    Flightrec.record "gen" (Jsonx.Obj [ ("gen", Jsonx.Num (float_of_int i)) ])
  done;
  let path = Filename.temp_file "oqmc_test" ".flightrec" in
  Flightrec.dump ~reason:"torn" ~path ();
  (* Tear the file mid-line, as a crash during the dump would. *)
  let whole = In_channel.with_open_bin path In_channel.input_all in
  let torn = String.sub whole 0 (String.length whole - 17) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc torn);
  let pm = Flightrec.replay ~path in
  Sys.remove path;
  check_bool "flagged incomplete" true (not pm.Flightrec.complete);
  check_bool "recovered most records" true
    (List.length pm.Flightrec.records >= 8);
  (* Garbage is refused outright, not half-parsed. *)
  let bad = Filename.temp_file "oqmc_test" ".notflightrec" in
  Out_channel.with_open_bin bad (fun oc ->
      Out_channel.output_string oc "just some text\n");
  check_bool "non-dump raises Not_flightrec" true
    (match Flightrec.replay ~path:bad with
    | _ -> false
    | exception Flightrec.Not_flightrec _ -> true);
  Sys.remove bad

(* ---------- bit-identity: observability must not perturb physics ---------- *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

let test_dmc_bit_identical_with_tracing () =
  let sys = Lazy.force harmonic_sys in
  let params =
    {
      Dmc.target_walkers = 8;
      warmup = 4;
      generations = 8;
      tau = 0.02;
      seed = 11;
      n_domains = 1;
      ranks = 1;
    }
  in
  Trace.disable ();
  let off = Dmc.run ~factory:(factory sys) params in
  Trace.enable ();
  let path = Filename.temp_file "oqmc_test" ".jsonl" in
  let on =
    Telemetry.with_sink path (fun sink ->
        Dmc.run ~telemetry:sink ~telemetry_every:2 ~factory:(factory sys)
          params)
  in
  Trace.disable ();
  Sys.remove path;
  check_bool "trace recorded generations" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.name = "dmc.generation")
       (Trace.events ()));
  check_bool "energy series bit-identical" true
    (bits_equal off.Dmc.energy_series on.Dmc.energy_series);
  check_bool "population series identical" true
    (off.Dmc.population_series = on.Dmc.population_series);
  check_bool "e_trial bit-identical" true
    (Int64.bits_of_float off.Dmc.final_e_trial
    = Int64.bits_of_float on.Dmc.final_e_trial)

let test_vmc_bit_identical_with_tracing () =
  let sys = Lazy.force harmonic_sys in
  let params =
    {
      Vmc.n_walkers = 4;
      warmup = 10;
      blocks = 4;
      steps_per_block = 5;
      tau = 0.3;
      seed = 21;
      n_domains = 1;
    }
  in
  Trace.disable ();
  let off = Vmc.run ~factory:(factory sys) params in
  Trace.enable ();
  let path = Filename.temp_file "oqmc_test" ".jsonl" in
  let on =
    Telemetry.with_sink path (fun sink ->
        Vmc.run ~telemetry:sink ~factory:(factory sys) params)
  in
  Trace.disable ();
  Sys.remove path;
  check_bool "block energies bit-identical" true
    (bits_equal off.Vmc.block_energies on.Vmc.block_energies);
  check_bool "energy bit-identical" true
    (Int64.bits_of_float off.Vmc.energy = Int64.bits_of_float on.Vmc.energy)

let () =
  Alcotest.run "obs"
    [
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "non-finite" `Quick test_jsonx_nonfinite;
          Alcotest.test_case "accessors" `Quick test_jsonx_accessors;
          Alcotest.test_case "rejects garbage" `Quick
            test_jsonx_rejects_garbage;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled passthrough" `Quick
            test_trace_disabled_is_passthrough;
          Alcotest.test_case "ring overwrite" `Quick test_trace_ring_overwrite;
          Alcotest.test_case "span nesting" `Quick test_trace_span_nesting;
          Alcotest.test_case "parent first at a tie" `Quick
            test_trace_parent_first_at_tie;
          Alcotest.test_case "exception safe" `Quick
            test_trace_span_exception_safe;
          Alcotest.test_case "chrome export" `Quick
            test_trace_export_is_valid_chrome_json;
          Alcotest.test_case "serialize/ingest" `Quick
            test_trace_serialize_ingest;
        ] );
      ( "timers",
        [
          Alcotest.test_case "trace shim" `Quick
            test_timers_emit_spans_when_tracing;
          Alcotest.test_case "profile ordering" `Quick
            test_timers_profile_ordering;
          Alcotest.test_case "merge monotone under pool" `Quick
            test_timers_merge_monotone_under_pool;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters/gauges" `Quick
            test_metrics_counters_gauges;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "snapshot/diff" `Quick test_metrics_snapshot_diff;
          Alcotest.test_case "wire roundtrip" `Quick
            test_metrics_wire_roundtrip;
          Alcotest.test_case "json" `Quick test_metrics_json;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "jsonl sink" `Quick test_telemetry_jsonl;
          Alcotest.test_case "progress line" `Quick test_progress_line;
          Alcotest.test_case "interject" `Quick test_progress_interject;
        ] );
      ( "expo",
        [
          Alcotest.test_case "golden text" `Quick test_expo_golden_text;
          Alcotest.test_case "json" `Quick test_expo_json;
        ] );
      ( "quantile",
        List.map QCheck_alcotest.to_alcotest
          [ prop_quantile_honest; prop_quantile_monotone; prop_quantile_empty ]
      );
      ( "flightrec",
        [
          Alcotest.test_case "ring wrap" `Quick test_flightrec_ring_wrap;
          Alcotest.test_case "dump/replay" `Quick test_flightrec_dump_replay;
          Alcotest.test_case "torn tail" `Quick test_flightrec_torn_tail;
        ] );
      ( "bit_identity",
        [
          Alcotest.test_case "dmc" `Quick test_dmc_bit_identical_with_tracing;
          Alcotest.test_case "vmc" `Quick test_vmc_bit_identical_with_tracing;
        ] );
    ]
