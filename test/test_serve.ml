(* Serve-layer unit + property tests: admission queue semantics,
   crash-journal replay under torn tails, deck canonicalization, result
   cache integrity, and protocol codec roundtrips.  The daemon itself
   is exercised end to end by serve_smoke.ml / serve_soak.ml. *)

open Oqmc_serve
module Input = Oqmc_core.Input
module Jsonx = Oqmc_obs.Jsonx

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let tmpdir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "oqmc-serve-test.%d" (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let fresh =
  let n = ref 0 in
  fun base ->
    incr n;
    Filename.concat tmpdir (Printf.sprintf "%s.%d" base !n)

(* ---------- queue semantics ---------- *)

let test_queue_priority () =
  let q = Jqueue.create ~bound:16 () in
  let push c p v =
    match Jqueue.push q ~client:c ~priority:p v with
    | Ok pos -> pos
    | Error e -> Alcotest.failf "unexpected rejection: %s" e
  in
  check_int "first lands at 1" 1 (push "a" 0 "low");
  check_int "urgent jumps the line" 1 (push "a" 5 "urgent");
  check_int "mid sits behind urgent" 2 (push "a" 1 "mid");
  check_bool "pop order: urgent" true (Jqueue.pop q = Some "urgent");
  check_bool "pop order: mid" true (Jqueue.pop q = Some "mid");
  check_bool "pop order: low" true (Jqueue.pop q = Some "low");
  check_bool "drained" true (Jqueue.pop q = None)

let test_queue_fairness () =
  (* One client floods five jobs before a second client submits two;
     at equal priority the scheduler must interleave, not starve. *)
  let q = Jqueue.create ~bound:16 () in
  let push c v =
    match Jqueue.push q ~client:c ~priority:0 v with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "unexpected rejection: %s" e
  in
  List.iter (fun v -> push "flood" v) [ "f1"; "f2"; "f3"; "f4"; "f5" ];
  push "meek" "m1";
  push "meek" "m2";
  let order = List.init 7 (fun _ -> Option.get (Jqueue.pop q)) in
  Alcotest.(check (list string))
    "flood interleaves with meek"
    [ "f1"; "m1"; "f2"; "m2"; "f3"; "f4"; "f5" ]
    order;
  check_int "flood served" 5 (Jqueue.served q "flood");
  check_int "meek served" 2 (Jqueue.served q "meek")

let test_queue_fairness_respects_priority () =
  let q = Jqueue.create ~bound:16 () in
  let push c p v = Jqueue.push q ~client:c ~priority:p v |> Result.get_ok in
  ignore (push "flood" 3 "f-hi");
  ignore (push "meek" 0 "m-lo");
  ignore (push "flood" 3 "f-hi2");
  (* Fairness only breaks ties: priority still dominates. *)
  Alcotest.(check (list string))
    "priority beats fairness"
    [ "f-hi"; "f-hi2"; "m-lo" ]
    (List.init 3 (fun _ -> Option.get (Jqueue.pop q)))

let test_queue_bound () =
  let q = Jqueue.create ~bound:3 () in
  let push v = Jqueue.push q ~client:"c" ~priority:0 v in
  List.iter (fun v -> ignore (Result.get_ok (push v))) [ "1"; "2"; "3" ];
  check_bool "full" true (Jqueue.is_full q);
  (match push "4" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "push above the bound must be rejected");
  check_int "rejection does not grow the queue" 3 (Jqueue.length q);
  ignore (Jqueue.pop q);
  (match push "4" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "slot freed but still rejected: %s" e);
  check_bool "invalid bound" true
    (try
       ignore (Jqueue.create ~bound:0 ());
       false
     with Invalid_argument _ -> true)

let test_queue_remove () =
  let q = Jqueue.create ~bound:8 () in
  let push v = ignore (Result.get_ok (Jqueue.push q ~client:"c" ~priority:0 v)) in
  List.iter push [ "a"; "b"; "a" ];
  check_bool "removes oldest match" true (Jqueue.remove q (( = ) "a") = Some "a");
  Alcotest.(check (list string)) "second a survives" [ "b"; "a" ] (Jqueue.to_list q);
  check_bool "no match" true (Jqueue.remove q (( = ) "zzz") = None)

(* ---------- journal ---------- *)

let mk_spec ?(id = "j0001") ?(client = "alice") ?(priority = 0)
    ?(deadline_s = 0.) ?(retries = 2) () =
  {
    Job.id;
    client;
    deck = "method = vmc\nworkload = harmonic\n";
    hash = "00112233445566778899aabbccddeeff";
    priority;
    deadline_s;
    retries;
    submitted_at = 123.0625;
  }

let sample_records =
  [
    Journal.Submit (mk_spec ());
    Journal.Start { id = "j0001"; attempt = 1; pid = 4242; t = 124.5 };
    Journal.Submit (mk_spec ~id:"j0002" ~client:"bob" ~priority:3 ());
    Journal.Start { id = "j0001"; attempt = 2; pid = 4243; t = 125.5 };
    Journal.Suspend { id = "j0001"; t = 126. };
    Journal.Done { id = "j0002"; hash = "deadbeef"; t = 127. };
    Journal.Submit (mk_spec ~id:"j0003" ~client:"eve" ());
    Journal.Failed { id = "j0003"; reason = "boom"; t = 128. };
    Journal.Rejected
      { id = "j0004"; client = "eve"; reason = "queue full"; t = 129. };
    Journal.Cancelled { id = "j0001"; t = 130. };
  ]

let write_journal path records =
  let j = Journal.open_ path in
  List.iter (Journal.append j) records;
  Journal.close j

let test_journal_roundtrip () =
  let path = fresh "journal" in
  write_journal path sample_records;
  let got = Journal.replay path in
  check_int "all records back" (List.length sample_records) (List.length got);
  List.iter2
    (fun a b ->
      match (a, b) with
      | Journal.Submit sa, Journal.Submit sb ->
          check_str "spec id" sa.Job.id sb.Job.id;
          check_str "spec deck" sa.Job.deck sb.Job.deck;
          check_bool "spec submitted_at bit-exact" true
            (sa.Job.submitted_at = sb.Job.submitted_at)
      | ra, rb -> check_bool "record equal" true (ra = rb))
    sample_records got;
  check_bool "missing file is empty" true (Journal.replay (fresh "absent") = [])

(* SIGKILL between any two bytes of the journal: the replay of every
   byte-prefix must be a prefix of the full record list — a torn tail
   is "never written", never a corrupted or duplicated record. *)
let test_journal_torn_tail () =
  let path = fresh "journal" in
  write_journal path sample_records;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let n_full = List.length (Journal.replay path) in
  check_int "sanity: full replay" (List.length sample_records) n_full;
  let prefix_path = fresh "torn" in
  let last = ref (-1) in
  for len = 0 to String.length full do
    Out_channel.with_open_bin prefix_path (fun oc ->
        Out_channel.output_string oc (String.sub full 0 len));
    let got = Journal.replay prefix_path in
    let n = List.length got in
    check_bool "replay count monotone" true (n >= !last);
    last := max !last n;
    check_bool "replay is a prefix" true
      (got = List.filteri (fun i _ -> i < n) sample_records)
  done;
  check_int "final prefix is everything" n_full !last;
  (* A flipped byte mid-line must also stop the replay, not invent a
     record. *)
  let corrupt = Bytes.of_string full in
  Bytes.set corrupt (String.length full / 2) '\xff';
  Out_channel.with_open_bin prefix_path (fun oc ->
      Out_channel.output_bytes oc corrupt);
  check_bool "bit flip truncates, never corrupts" true
    (let got = Journal.replay prefix_path in
     let n = List.length got in
     n < n_full && got = List.filteri (fun i _ -> i < n) sample_records)

let test_journal_recover () =
  let r = Journal.recover sample_records in
  (* j0001: submitted, started twice, suspended once, cancelled (terminal).
     j0002: done.  j0003: failed.  j0004: rejected.  Nothing pending. *)
  check_int "nothing pending" 0 (List.length r.Journal.r_pending);
  check_int "four terminals" 4 (List.length r.Journal.r_terminal);
  check_bool "j0002 done with hash" true
    (List.assoc "j0002" r.Journal.r_terminal = Journal.Tdone "deadbeef");
  check_bool "j0003 failed" true
    (List.assoc "j0003" r.Journal.r_terminal = Journal.Tfailed "boom");
  check_bool "j0004 rejected" true
    (List.assoc "j0004" r.Journal.r_terminal
    = Journal.Trejected "queue full");
  check_bool "j0001 cancelled" true
    (List.assoc "j0001" r.Journal.r_terminal = Journal.Tcancelled);
  check_int "next seq past the largest id" 5 r.Journal.r_next_seq;
  (* Drop the terminal records: j0001 pending with one consumed attempt
     (two starts minus one suspend), j0003 pending untouched. *)
  let open_records =
    List.filter
      (function
        | Journal.Cancelled _ | Journal.Failed _ -> false | _ -> true)
      sample_records
  in
  let r = Journal.recover open_records in
  (match r.Journal.r_pending with
  | [ p1; p3 ] ->
      check_str "j0001 pending" "j0001" p1.Journal.p_spec.Job.id;
      check_int "suspend refunds the attempt" 1 p1.Journal.p_attempts;
      check_bool "deadline anchor survives" true
        (p1.Journal.p_first_start = 124.5);
      check_int "suspended runner has no stale pid" 0 p1.Journal.p_stale_pid;
      check_str "j0003 pending" "j0003" p3.Journal.p_spec.Job.id;
      check_int "never started" 0 p3.Journal.p_attempts
  | l -> Alcotest.failf "expected 2 pending, got %d" (List.length l));
  (* An interrupted Start with no Suspend leaves a stale pid to kill. *)
  let r =
    Journal.recover
      [
        Journal.Submit (mk_spec ());
        Journal.Start { id = "j0001"; attempt = 1; pid = 777; t = 1. };
      ]
  in
  match r.Journal.r_pending with
  | [ p ] ->
      check_int "stale pid surfaces" 777 p.Journal.p_stale_pid;
      check_int "crash consumed the attempt" 1 p.Journal.p_attempts
  | _ -> Alcotest.fail "expected 1 pending"

let test_journal_compact () =
  let open_records =
    List.filter
      (function
        | Journal.Cancelled _ | Journal.Failed _ -> false | _ -> true)
      sample_records
  in
  let before = Journal.recover open_records in
  let path = fresh "compacted" in
  Journal.compact ~path before;
  let after = Journal.recover (Journal.replay path) in
  check_int "terminal history dropped" 0 (List.length after.Journal.r_terminal);
  check_int "pending preserved" 2 (List.length after.Journal.r_pending);
  List.iter2
    (fun (a : Journal.pending) (b : Journal.pending) ->
      check_str "pending id" a.Journal.p_spec.Job.id b.Journal.p_spec.Job.id;
      check_int "consumed budget preserved" a.Journal.p_attempts
        b.Journal.p_attempts;
      check_bool "deadline anchor preserved" true
        (a.Journal.p_first_start = b.Journal.p_first_start);
      check_int "synthetic start carries no pid" 0 b.Journal.p_stale_pid)
    before.Journal.r_pending after.Journal.r_pending;
  (* Compaction drops terminal history, so the id counter only has to
     stay ahead of every job that is still alive. *)
  check_int "seq counter covers the pending ids" 4 after.Journal.r_next_seq

(* ---------- deck canonicalization ---------- *)

let base_deck =
  [
    ("method", "dmc");
    ("workload", "harmonic");
    ("walkers", "32");
    ("blocks", "2");
    ("steps", "5");
    ("tau", "0.01");
    ("seed", "42");
    ("domains", "2");
    ("crowd", "4");
    ("delay", "2");
  ]

let render pairs =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s = %s\n" k v) pairs)

let hash_of pairs = Input.deck_hash (Input.parse_string (render pairs))

let test_canonical_invariance () =
  let h0 = hash_of base_deck in
  (* Key order is meaningless. *)
  check_str "reversed key order" h0 (hash_of (List.rev base_deck));
  (* Comments, blank lines and whitespace are meaningless. *)
  let noisy =
    "# production run\n\n"
    ^ String.concat ""
        (List.map (fun (k, v) -> Printf.sprintf "  %s=%s   # knob\n" k v) base_deck)
    ^ "\n# trailing note\n"
  in
  check_str "comments and whitespace" h0
    (Input.deck_hash (Input.parse_string noisy));
  (* Operational knobs (output paths, cadence, progress) don't change
     the physics and must share the cache entry. *)
  let operational =
    base_deck
    @ [
        ("checkpoint", "/tmp/ck"); ("checkpoint_every", "3");
        ("telemetry", "/tmp/t.jsonl"); ("trace", "/tmp/t.json");
        ("progress", "true");
      ]
  in
  check_str "operational knobs don't shift the hash" h0 (hash_of operational);
  (* Decimal formatting of a float is meaningless; its value is not. *)
  let retau v = List.map (fun (k, x) -> (k, if k = "tau" then v else x)) base_deck in
  check_str "tau reformatted" h0 (hash_of (retau "1e-2"));
  check_bool "tau changed" true (h0 <> hash_of (retau "0.02"))

let test_canonical_sensitivity () =
  let h0 = hash_of base_deck in
  let override k v =
    List.map (fun (k', x) -> (k', if k' = k then v else x)) base_deck
  in
  List.iter
    (fun (k, v) ->
      check_bool (Printf.sprintf "%s = %s changes the hash" k v) true
        (h0 <> hash_of (override k v)))
    [
      ("method", "vmc"); ("workload", "hydrogen"); ("walkers", "64");
      ("blocks", "3"); ("steps", "7"); ("tau", "0.02"); ("seed", "43");
      ("domains", "4"); ("crowd", "8"); ("delay", "4");
    ];
  (* Additive physics knobs matter too. *)
  List.iter
    (fun (k, v) ->
      check_bool (Printf.sprintf "%s = %s changes the hash" k v) true
        (h0 <> hash_of (base_deck @ [ (k, v) ])))
    [
      ("precision", "f32"); ("precision_dt", "f32"); ("nlpp", "true");
      ("ranks", "3");
    ];
  (* ... while spelling out a default is a no-op. *)
  check_str "explicit gen_deadline_ms = 0 keeps the hash" h0
    (hash_of (base_deck @ [ ("gen_deadline_ms", "0") ]))

let prop_canonical_shuffle =
  (* Property: ANY permutation of the deck lines, with random comment
     and blank-line interleavings, hashes identically. *)
  let open QCheck in
  Test.make ~count:100 ~name:"canonical form is order/comment invariant"
    (pair (int_bound 1_000_000) (list_of_size (Gen.return 6) small_nat))
    (fun (seed, pads) ->
      let st = Random.State.make [| seed |] in
      let shuffled =
        List.map (fun kv -> (Random.State.bits st, kv)) base_deck
        |> List.sort compare |> List.map snd
      in
      let noise i =
        match List.nth_opt pads (i mod 6) with
        | Some n when n mod 3 = 0 -> "# noise\n"
        | Some n when n mod 3 = 1 -> "\n"
        | _ -> ""
      in
      let text =
        String.concat ""
          (List.mapi
             (fun i (k, v) -> noise i ^ Printf.sprintf "%s = %s\n" k v)
             shuffled)
      in
      Input.deck_hash (Input.parse_string text) = hash_of base_deck)

(* ---------- result cache ---------- *)

let mk_outcome ?(drained = false) () =
  {
    Job.energy = 16.0;
    error = 1.25e-3;
    variance = 0x1.fp-3;
    acceptance = 0.987654321;
    series = [| 15.9; 16.1; nan; infinity; -0.0 |];
    gens = 10;
    drained;
    resumed_from = 3;
    wall_s = 2.5;
  }

let same_float a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_cache_roundtrip () =
  let dir = fresh "cache" in
  Unix.mkdir dir 0o755;
  let hash = "abcdef0123456789" in
  let o = mk_outcome () in
  check_bool "empty dir misses" true (Cache.lookup ~dir ~hash = None);
  Cache.store ~dir ~hash o;
  (match Cache.lookup ~dir ~hash with
  | None -> Alcotest.fail "stored entry must hit"
  | Some got ->
      check_bool "energy bit-exact" true (same_float o.Job.energy got.Job.energy);
      check_int "series length" 5 (Array.length got.Job.series);
      Array.iteri
        (fun i x ->
          check_bool
            (Printf.sprintf "series[%d] bit-exact (nan/inf/-0. too)" i)
            true
            (same_float x got.Job.series.(i)))
        o.Job.series;
      check_int "resumed_from" 3 got.Job.resumed_from);
  Alcotest.(check (list string)) "entries lists the hash" [ hash ] (Cache.entries ~dir);
  (* Partial (drained) results must never be cached. *)
  check_bool "drained store rejected" true
    (try
       Cache.store ~dir ~hash:"feedface" (mk_outcome ~drained:true ());
       false
     with Invalid_argument _ -> true);
  check_bool "bad hash rejected" true
    (try
       Cache.store ~dir ~hash:"../escape" (mk_outcome ());
       false
     with Invalid_argument _ -> true)

let test_cache_corruption_heals () =
  let dir = fresh "cache" in
  Unix.mkdir dir 0o755;
  let hash = "abcdef0123456789" in
  Cache.store ~dir ~hash (mk_outcome ());
  let file = Filename.concat dir hash in
  let body = In_channel.with_open_bin file In_channel.input_all in
  let corrupt = Bytes.of_string body in
  Bytes.set corrupt (Bytes.length corrupt / 3) '\xee';
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc corrupt);
  check_bool "corrupt entry is a miss" true (Cache.lookup ~dir ~hash = None);
  check_bool "damaged file removed" true (not (Sys.file_exists file));
  (* The slot heals on the next store. *)
  Cache.store ~dir ~hash (mk_outcome ());
  check_bool "healed" true (Cache.lookup ~dir ~hash <> None)

(* ---------- codecs ---------- *)

let json_roundtrip to_j of_j v = of_j (Jsonx.parse_string_exn (Jsonx.to_string (to_j v)))

let test_job_codecs () =
  let s = mk_spec ~priority:7 ~deadline_s:12.5 ~retries:4 () in
  let s' = json_roundtrip Job.spec_to_json Job.spec_of_json s in
  check_bool "spec roundtrip" true (s = s');
  let o = mk_outcome () in
  let o' = json_roundtrip Job.outcome_to_json Job.outcome_of_json o in
  check_bool "outcome scalars bit-exact" true
    (same_float o.Job.energy o'.Job.energy
    && same_float o.Job.wall_s o'.Job.wall_s);
  Array.iteri
    (fun i x -> check_bool "series bit-exact" true (same_float x o'.Job.series.(i)))
    o.Job.series;
  check_bool "malformed raises Codec_error" true
    (try
       ignore (Job.spec_of_json (Jsonx.parse_string_exn "{\"id\":3}"));
       false
     with Job.Codec_error _ -> true)

let test_proto_codecs () =
  let reqs =
    [
      Proto.Submit
        {
          Proto.client = "alice";
          deck = "method = vmc\n# c\n";
          priority = 2;
          deadline_s = 30.;
          retries = -1;
          wait = true;
        };
      Proto.Query "j0042";
      Proto.Cancel "j0042";
      Proto.Stats;
      Proto.Status;
      Proto.Ping;
    ]
  in
  List.iter
    (fun r ->
      check_bool "request roundtrip" true
        (json_roundtrip Proto.request_to_json Proto.request_of_json r = r))
    reqs;
  let reps =
    [
      Proto.Accepted { id = "j0001"; cached = false; position = 3 };
      Proto.Rejected { id = "j0002"; reason = "queue full" };
      Proto.State { id = "j0001"; state = "running"; attempt = 2 };
      Proto.Job_failed { id = "j0001"; reason = "crash budget exhausted" };
      Proto.Stats_reply
        {
          Proto.submitted = 9; accepted = 7; rejected = 2; done_ = 4;
          failed = 1; cancelled = 1; queued = 1; running = 0; retrying = 0;
          cache_hits = 2; suspended = 1;
        };
      Proto.Pong;
      Proto.Error "malformed request";
      Proto.Status_reply
        (Jsonx.Obj
           [
             ("t", Jsonx.Num 12.5);
             ( "jobs",
               Jsonx.Arr
                 [
                   Jsonx.Obj
                     [
                       ("id", Jsonx.Str "j0001");
                       ("live", Jsonx.Null);
                     ];
                 ] );
           ]);
    ]
  in
  List.iter
    (fun r ->
      check_bool "reply roundtrip" true
        (json_roundtrip Proto.reply_to_json Proto.reply_of_json r = r))
    reps;
  (* Job_done carries floats: compare fields, not structural equality
     (nan != nan). *)
  let jd = Proto.Job_done { id = "j0009"; outcome = mk_outcome (); cached = true } in
  match json_roundtrip Proto.reply_to_json Proto.reply_of_json jd with
  | Proto.Job_done { id = "j0009"; outcome = o; cached = true } ->
      check_bool "job_done outcome bit-exact" true
        (same_float o.Job.energy 16.0 && Array.length o.Job.series = 5)
  | _ -> Alcotest.fail "job_done roundtrip shape"

(* ---------- live status endpoint under load ----------

   Boot a real daemon, put a job in flight, and hammer the Status verb
   while it runs: every reply must be a well-formed snapshot, and once
   the runner's first ledger window lands the snapshot must carry
   per-rank throughput rows.  The select loop answers from in-memory
   state plus one small file read, so it must stay responsive. *)

let member_list name j =
  Option.value ~default:[] (Option.bind (Jsonx.member name j) Jsonx.to_list)

let ledger_rows body =
  List.concat_map
    (fun job ->
      match Jsonx.member "live" job with
      | Some (Jsonx.Obj _ as live) -> member_list "ledger" live
      | _ -> [])
    (member_list "jobs" body)

(* Run [f socket] against a forked daemon with one runner slot, and
   stop the daemon afterwards. *)
let with_daemon name f =
  let base = fresh name in
  Unix.mkdir base 0o755;
  let socket = Filename.concat base "sock" in
  let cfg =
    {
      Server.default_config with
      Server.socket;
      dir = Filename.concat base "state";
      max_queue = 8;
      max_running = 1;
    }
  in
  let daemon =
    match Unix.fork () with
    | 0 -> (
        try
          Server.serve cfg;
          Stdlib.exit 0
        with _ -> Stdlib.exit 1)
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] daemon))
    (fun () -> f socket)

let test_status_under_load () =
  with_daemon "statusd" (fun socket ->
      let deck =
        "method = dmc\nworkload = harmonic\nwalkers = 64\nblocks = 100\n\
         steps = 50\ntau = 0.01\nseed = 5\n"
      in
      let fd = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close fd)
        (fun () ->
          (match Client.submit fd ~client:"t" ~wait:false deck with
          | Proto.Accepted _ -> ()
          | r ->
              Alcotest.failf "submit: %s"
                (Jsonx.to_string (Proto.reply_to_json r)));
          (* Poll until the runner's first ledger window surfaces. *)
          let deadline = Unix.gettimeofday () +. 30. in
          let rec poll () =
            let body = Client.status fd in
            check_bool "snapshot carries daemon stats" true
              (Jsonx.member "stats" body <> None);
            check_bool "snapshot carries the metrics registry" true
              (Jsonx.member "metrics" body <> None);
            if ledger_rows body <> [] then body
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "no ledger window surfaced within 30 s"
            else begin
              Unix.sleepf 0.2;
              poll ()
            end
          in
          let body = poll () in
          let row = List.hd (ledger_rows body) in
          check_bool "ledger row has a throughput number" true
            (match
               Option.bind
                 (Jsonx.member "walkers_moves_per_s" row)
                 Jsonx.to_float
             with
            | Some v -> v > 0.
            | None -> false);
          (* Load: 25 back-to-back queries with a runner active; each
             must come back parsed and job-bearing, promptly. *)
          let t0 = Unix.gettimeofday () in
          for _ = 1 to 25 do
            let b = Client.status fd in
            check_bool "status under load lists the running job" true
              (member_list "jobs" b <> [])
          done;
          check_bool "25 status queries answered in < 10 s" true
            (Unix.gettimeofday () -. t0 < 10.);
          ignore (Client.cancel fd "j0001")))

(* A served deck's precision overrides reach the engines: the deck hash
   includes them, so the cached result must be the run they ask for. *)
let test_served_precision_overrides () =
  let deck extra =
    "method = vmc\nworkload = heg\nvariant = current64\nwalkers = 4\n\
     blocks = 2\nsteps = 4\ntau = 0.1\nseed = 5\n" ^ extra
  in
  let served socket d =
    match Client.run_deck ~timeout:60. ~socket ~client:"t" d with
    | Ok o -> o.Job.energy
    | Error e -> Alcotest.failf "served job failed: %s" e
  in
  let e_dt32, e_default =
    with_daemon "precisiond" (fun socket ->
        let a = served socket (deck "precision_dt = f32\n") in
        (a, served socket (deck "")))
  in
  let open Oqmc_core in
  let sys =
    Oqmc_workloads.Builder.named ~seed:5 ~reduction:8 ~with_nlpp:false
      ~precision:None "heg"
  in
  let local =
    Vmc.run ~crowd:1
      ~factory:
        (Build.factory ~precision_dt:`F32 ~variant:Variant.Current_f64 ~seed:5
           sys)
      {
        Vmc.n_walkers = 4;
        warmup = 4;
        blocks = 2;
        steps_per_block = 4;
        tau = 0.1;
        seed = 6;
        n_domains = 1;
      }
  in
  check_bool
    (Printf.sprintf "served f32-dt %h = in-process %h" e_dt32
       local.Vmc.energy)
    true
    (e_dt32 = local.Vmc.energy);
  check_bool "precision_dt = f32 changes the served energy" true
    (e_dt32 <> e_default)

(* Decks no driver can run, or that name a retired knob, are refused at
   admission with a [deck:] reason: never queued, never cached. *)
let test_served_bad_decks_rejected () =
  with_daemon "rejectd" (fun socket ->
      let fd = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close fd)
        (fun () ->
          List.iter
            (fun (extra, reason) ->
              let deck =
                "method = dmc\nworkload = harmonic\nwalkers = 8\nblocks = 2\n\
                 steps = 3\n" ^ extra ^ "\n"
              in
              match Client.submit fd ~client:"t" deck with
              | Proto.Rejected { reason = r; _ } ->
                  check_str extra ("deck: " ^ reason) r
              | other ->
                  Alcotest.failf "%s: %s" extra
                    (Jsonx.to_string (Proto.reply_to_json other)))
            [
              ("tau = 0", "tau must be finite and > 0, got 0");
              ("tau = nan", "tau must be finite and > 0, got nan");
              ("walkers = 0", "walkers must be >= 1, got 0");
              ("domains = 0", "domains must be >= 1, got 0");
              ("blocks = 0", "blocks must be >= 1, got 0");
              ("method = foo", "method must be vmc or dmc, got \"foo\"");
              ("ranks = 0", "ranks must be >= 1, got 0");
              ("reduction = 0", "reduction must be >= 1, got 0");
              ( "checkpoint_every = -1",
                "checkpoint_every must be >= 0, got -1" );
              ("checkpoint_keep = 0", "checkpoint_keep must be >= 1, got 0");
              ("autotune = true", "line 6: unknown key \"autotune\"");
              ( "straggler_policy = steal",
                "line 6: unknown key \"straggler_policy\"" );
              ( "straggler_policy = quarantine",
                "line 6: unknown key \"straggler_policy\"" );
            ]))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_canonical_shuffle ] in
  Alcotest.run "serve"
    [
      ( "queue",
        [
          Alcotest.test_case "priority ordering + positions" `Quick
            test_queue_priority;
          Alcotest.test_case "per-client fairness under flood" `Quick
            test_queue_fairness;
          Alcotest.test_case "fairness never overrides priority" `Quick
            test_queue_fairness_respects_priority;
          Alcotest.test_case "bounded admission rejects, then reopens" `Quick
            test_queue_bound;
          Alcotest.test_case "remove takes the oldest match" `Quick
            test_queue_remove;
        ] );
      ( "journal",
        [
          Alcotest.test_case "records roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail at every byte = clean prefix" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "recover: pending, budgets, stale pids" `Quick
            test_journal_recover;
          Alcotest.test_case "compact preserves pending state" `Quick
            test_journal_compact;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "order/comment/format invariance" `Quick
            test_canonical_invariance;
          Alcotest.test_case "every physics knob shifts the hash" `Quick
            test_canonical_sensitivity;
        ]
        @ qsuite );
      ( "cache",
        [
          Alcotest.test_case "store/lookup bit-exact (hex floats)" `Quick
            test_cache_roundtrip;
          Alcotest.test_case "corruption is a miss and heals" `Quick
            test_cache_corruption_heals;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "job spec/outcome JSON" `Quick test_job_codecs;
          Alcotest.test_case "proto request/reply JSON" `Quick
            test_proto_codecs;
        ] );
      ( "status",
        [
          Alcotest.test_case "live snapshot under load" `Quick
            test_status_under_load;
        ] );
      ( "runner",
        [
          Alcotest.test_case "precision overrides reach served jobs" `Quick
            test_served_precision_overrides;
          Alcotest.test_case "unusable decks rejected" `Quick
            test_served_bad_decks_rejected;
        ] );
    ]
