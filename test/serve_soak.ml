(* Serve soak — the service-layer acceptance harness.

   Phase 1 (kill-server acceptance): boot the daemon with four
   statistical hydrogen-DMC jobs sized so that two are running and two
   are queued, SIGKILL the daemon mid-flight, restart it on the same
   state directory, and prove that every job still reaches Done with
   energies and per-generation series BIT-IDENTICAL to an uninterrupted
   reference run — the journal replay re-queued the queued jobs and the
   interrupted runners resumed from their snapshots.  The journal must
   show exactly one Submit and at most one terminal record per job: no
   loss, no duplication.

   Phase 2 (service chaos): a seeded job mix driven by
   Chaos.plan_service — clients that hang up before their reply, the
   daemon SIGKILLed again, submission storms beyond the admission
   bound, and cache entries corrupted on disk.  Every job must
   terminate in a definite state, accounting must stay conserved, and
   no client call may hang.

   Run with `dune build @serve-soak`. *)

open Oqmc_serve
module Jsonx = Oqmc_obs.Jsonx
module Chaos = Oqmc_core.Chaos
module Input = Oqmc_core.Input

(* Every daemon this soak forked.  Each runs in its own session, so its
   pid is also the process group of the job runners it forks: a failing
   soak kills the whole group and leaves no daemon or orphaned runner
   behind. *)
let forked = ref []

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("FAIL: " ^ s);
      List.iter
        (fun pid -> try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ())
        !forked;
      exit 1)
    fmt
let check name ok = if not ok then die "%s" name
let info fmt = Printf.printf (fmt ^^ "\n%!")

let base =
  let d = Printf.sprintf "/tmp/oqmc-sk.%d" (Unix.getpid ()) in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fork_daemon config =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
      try
        ignore (Unix.setsid ());
        Server.serve config;
        Stdlib.exit 0
      with e ->
        prerr_endline ("daemon: " ^ Printexc.to_string e);
        Stdlib.exit 1)
  | pid ->
      forked := pid :: !forked;
      pid

let wait_pid pid = snd (Unix.waitpid [] pid)

(* SIGTERM a daemon and wait for its graceful drain, which takes at most
   the suspend grace: past grace + 10 s the drain is hung, so the soak
   kills the daemon's group and fails. *)
let drain_daemon (cfg : Server.config) pid =
  Unix.kill pid Sys.sigterm;
  let limit = Unix.gettimeofday () +. cfg.Server.grace_s +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > limit then
          die "daemon %d still running %.0f s after SIGTERM" pid
            (cfg.Server.grace_s +. 10.);
        Unix.sleepf 0.05;
        wait ()
    | _, st -> st
  in
  wait ()

let stats_of socket =
  let fd = Client.connect ~attempts:200 socket in
  Fun.protect ~finally:(fun () -> Client.close fd) (fun () -> Client.stats fd)

let query_of socket id =
  let fd = Client.connect ~attempts:200 socket in
  Fun.protect ~finally:(fun () -> Client.close fd) (fun () -> Client.query fd id)

(* A request that races the daemon's death sees the socket close under
   it; the polls below treat that as "not yet" and retry against the
   next incarnation, bounded by their own timeout. *)
let transient = function
  | Oqmc_dist.Wire.Closed | Oqmc_dist.Wire.Timeout -> true
  | Unix.Unix_error
      ((Unix.ECONNRESET | Unix.ECONNREFUSED | Unix.EPIPE | Unix.ENOENT), _, _)
    ->
      true
  | _ -> false

(* Poll [f] every 100 ms until it returns [Some], or die after
   [timeout] — a soak that waits forever is itself a hung client. *)
let poll ~timeout ~what f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match f () with
    | Some v -> v
    | None ->
        if Unix.gettimeofday () -. t0 > timeout then
          die "timed out after %.0f s waiting for %s" timeout what;
        Unix.sleepf 0.1;
        go ()
  in
  go ()

(* Poll to a DEFINITE state: Done, Failed, Rejected — or Error, the
   daemon's definite answer for a result that is no longer servable
   (e.g. journal says done but the cache entry was corrupted away). *)
let await_terminal socket ids ~timeout =
  List.map
    (fun id ->
      ( id,
        poll ~timeout ~what:(id ^ " to reach a definite state") (fun () ->
            match query_of socket id with
            | Proto.Job_done { outcome; _ } -> Some (`Done outcome)
            | Proto.Job_failed { reason; _ } -> Some (`Failed reason)
            | Proto.Rejected { reason; _ } -> Some (`Rejected reason)
            | Proto.Error reason -> Some (`Lost reason)
            | _ -> None
            | exception e when transient e -> None) ))
    ids

let await_done socket ids ~timeout =
  List.map
    (fun (id, state) ->
      match state with
      | `Done outcome -> outcome
      | `Failed reason -> die "%s failed: %s" id reason
      | `Rejected reason -> die "%s rejected: %s" id reason
      | `Lost reason -> die "%s lost: %s" id reason)
    (await_terminal socket ids ~timeout)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_physics (a : Job.outcome) (b : Job.outcome) =
  same_float a.Job.energy b.Job.energy
  && same_float a.Job.error b.Job.error
  && same_float a.Job.variance b.Job.variance
  && same_float a.Job.acceptance b.Job.acceptance
  && a.Job.gens = b.Job.gens
  && Array.length a.Job.series = Array.length b.Job.series
  && Array.for_all2 same_float a.Job.series b.Job.series

(* ---------- phase 1: SIGKILL the server mid-job ---------- *)

(* Statistical workload (hydrogen DMC): unlike the zero-variance
   harmonic check, every trajectory differs, so bit-identity across a
   kill + snapshot-resume is a real statement. *)
let p1_deck i =
  Printf.sprintf
    "method = dmc\nworkload = hydrogen\nwalkers = 48\nblocks = 20\n\
     steps = 10\ntau = 0.02\nseed = %d\n"
    (100 + i)

let p1_config socket dir =
  {
    Server.default_config with
    Server.socket;
    dir;
    max_queue = 8;
    max_running = 2;
    default_retries = 5;
    grace_s = 3.;
    snapshot_every = 2;
    telemetry = None;
  }

let phase1 () =
  info "phase 1: kill-server acceptance";
  (* Uninterrupted reference outcomes. *)
  let ref_socket = Filename.concat base "ref.sock" in
  let ref_dir = Filename.concat base "ref" in
  let refd = fork_daemon (p1_config ref_socket ref_dir) in
  let reference =
    List.init 4 (fun i ->
        match
          Client.run_deck ~socket:ref_socket ~client:"ref" (p1_deck i)
        with
        | Ok o -> o
        | Error e -> die "reference job %d: %s" i e)
  in
  check "reference daemon drained"
    (drain_daemon (p1_config ref_socket ref_dir) refd = Unix.WEXITED 0);

  (* The same four decks, two running + two queued, then SIGKILL. *)
  let socket = Filename.concat base "p1.sock" in
  let dir = Filename.concat base "p1" in
  let cfg = p1_config socket dir in
  let daemon = fork_daemon cfg in
  let fd = Client.connect ~attempts:200 socket in
  let ids =
    List.init 4 (fun i ->
        match
          Client.submit fd ~client:"soak" ~retries:5 ~wait:false (p1_deck i)
        with
        | Proto.Accepted { id; cached; _ } ->
            check "phase-1 jobs must run, not hit the cache" (not cached);
            id
        | r ->
            die "submit %d: %s" i (Jsonx.to_string (Proto.reply_to_json r)))
  in
  Client.close fd;
  poll ~timeout:30. ~what:"2 running + 2 queued" (fun () ->
      match stats_of socket with
      | s -> if s.Proto.running = 2 && s.Proto.queued = 2 then Some () else None
      | exception e when transient e -> None);
  (* Kill as soon as a running job has a job snapshot, so the restart has
     something to resume from.  Only a [<id>.job.gen-N] file counts —
     the runner's status file lands after generation 1 — and there is no
     further wait: a running job that finishes before the kill leaves
     nothing to resume. *)
  let snapdir = Filename.concat dir "snap" in
  let is_job_snapshot f =
    List.exists
      (fun id ->
        let prefix = id ^ ".job.gen-" in
        String.starts_with ~prefix f
        && int_of_string_opt
             (String.sub f (String.length prefix)
                (String.length f - String.length prefix))
           <> None)
      ids
  in
  poll ~timeout:30. ~what:"a job snapshot on disk" (fun () ->
      match Sys.readdir snapdir with
      | files when Array.exists is_job_snapshot files -> Some ()
      | _ -> None
      | exception Sys_error _ -> None);
  Unix.kill daemon Sys.sigkill;
  (match wait_pid daemon with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | st ->
      die "expected the daemon to die by SIGKILL, got %s"
        (match st with
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s));
  info "  daemon SIGKILLed with 2 jobs running and 2 queued";

  (* Restart on the same state directory: journal replay + snapshot
     resume must finish all four, bit-identical to the reference. *)
  let daemon = fork_daemon cfg in
  let outcomes = await_done socket ids ~timeout:120. in
  List.iteri
    (fun i (got, want) ->
      check
        (Printf.sprintf "job %d bit-identical to the uninterrupted run" i)
        (same_physics got want);
      check (Printf.sprintf "job %d not drained" i) (not got.Job.drained))
    (List.combine outcomes reference);
  check "at least one job resumed from a snapshot"
    (List.exists (fun o -> o.Job.resumed_from > 0) outcomes);
  info "  all 4 jobs Done bit-identical (%d resumed from snapshots)"
    (List.length (List.filter (fun o -> o.Job.resumed_from > 0) outcomes));

  (* Journal audit across the kill: one Submit, at most one terminal
     per job — no loss, no duplication. *)
  let records = Journal.replay (Filename.concat dir "journal") in
  List.iter
    (fun id ->
      let submits =
        List.length
          (List.filter
             (function
               | Journal.Submit s -> s.Job.id = id | _ -> false)
             records)
      in
      let terminals =
        List.length
          (List.filter
             (function
               | Journal.Done { id = i; _ }
               | Journal.Failed { id = i; _ }
               | Journal.Cancelled { id = i; _ } ->
                   i = id
               | _ -> false)
             records)
      in
      check (id ^ ": exactly one Submit across the kill") (submits = 1);
      check (id ^ ": exactly one terminal record") (terminals = 1))
    ids;
  check "restarted daemon drained" (drain_daemon cfg daemon = Unix.WEXITED 0);
  let after = Journal.recover (Journal.replay (Filename.concat dir "journal")) in
  check "compacted journal has nothing pending"
    (after.Journal.r_pending = []);
  info "  journal: 1 Submit + 1 terminal per job, compacted clean"

(* ---------- phase 2: seeded service chaos ---------- *)

let p2_deck i =
  (* Quick VMC jobs; index 7 repeats index 2's physics for a natural
     cache hit (and the corruption target). *)
  let seed = if i = 7 then 202 else 200 + i in
  Printf.sprintf
    "method = vmc\nworkload = harmonic\nwalkers = 32\nblocks = 2\n\
     steps = 8\ntau = 0.3\nseed = %d\n"
    seed

let storm_deck i =
  Printf.sprintf
    "method = vmc\nworkload = harmonic\nwalkers = 16\nblocks = 2\n\
     steps = 6\ntau = 0.3\nseed = %d\n"
    (900 + i)

(* The smallest seed whose 4-event schedule exercises all four attack
   modes, so the soak covers the full matrix deterministically. *)
let chaos_seed =
  let covers seed =
    let c =
      Chaos.service_count (Chaos.plan_service ~seed ~jobs:10 ~events:4 ())
    in
    c.Chaos.disconnects >= 1 && c.Chaos.server_kills >= 1
    && c.Chaos.storms >= 1 && c.Chaos.corruptions >= 1
  in
  let rec find s = if covers s then s else find (s + 1) in
  find 1

let phase2 () =
  let schedule = Chaos.plan_service ~seed:chaos_seed ~jobs:10 ~events:4 () in
  info "phase 2: service chaos (seed %d: %s)" chaos_seed
    (String.concat ", "
       (List.map
          (fun (j, e) ->
            Printf.sprintf "%s@%d" (Chaos.pp_service_event e) j)
          schedule));
  let socket = Filename.concat base "p2.sock" in
  let dir = Filename.concat base "p2" in
  let cfg =
    {
      Server.default_config with
      Server.socket;
      dir;
      max_queue = 3;
      max_running = 2;
      default_retries = 3;
      grace_s = 3.;
      snapshot_every = 2;
      telemetry = Some (Filename.concat base "p2.jsonl");
    }
  in
  let daemon = ref (fork_daemon cfg) in
  let tracked = ref [] in
  let storms_rejected = ref 0 in
  let corruptions = ref 0 in
  (* Submit with a bounded re-poll: right after a storm the queue is
     legitimately full, and backpressure is the expected answer. *)
  let submit_tracked ?(client = "soak") ?(retries = 3) d =
    let id =
      poll ~timeout:60. ~what:"admission (queue drains)" (fun () ->
          (* A transient transport failure here means the reply to an
             admission we may never learn about was lost; resubmitting
             is at-least-once, and the possible untracked twin is
             idempotent (same deck, same cache slot). *)
          match
            let fd = Client.connect ~attempts:200 socket in
            Fun.protect
              ~finally:(fun () -> Client.close fd)
              (fun () -> Client.submit fd ~client ~retries ~wait:false d)
          with
          | Proto.Accepted { id; _ } -> Some id
          | Proto.Rejected { reason; _ } when reason = "queue full" -> None
          | r -> die "submit: %s" (Jsonx.to_string (Proto.reply_to_json r))
          | exception e when transient e -> None)
    in
    tracked := id :: !tracked;
    id
  in
  List.iteri
    (fun i deck ->
      (match List.assoc_opt i schedule with
      | Some Chaos.Client_disconnect ->
          (* Submit waiting for the terminal frame, then hang up before
             it arrives: the daemon must shrug, not crash or stall. *)
          let fd = Client.connect ~attempts:200 socket in
          (match Client.submit fd ~client:"ghost" ~wait:true deck with
          | Proto.Accepted { id; cached; _ } ->
              if not cached then tracked := id :: !tracked
          | Proto.Rejected _ -> ()
          | r ->
              die "ghost submit: %s" (Jsonx.to_string (Proto.reply_to_json r)));
          Client.close fd;
          info "  [%d] client disconnected before its reply" i
      | Some Chaos.Server_kill ->
          Unix.kill !daemon Sys.sigkill;
          ignore (wait_pid !daemon);
          daemon := fork_daemon cfg;
          info "  [%d] server SIGKILLed and restarted" i
      | Some (Chaos.Queue_storm n) ->
          (* Flood well past the admission bound; the daemon must answer
             every one — Accepted or Rejected, never silence. *)
          let fd = Client.connect ~attempts:200 socket in
          let flood = cfg.Server.max_queue + cfg.Server.max_running + n in
          for k = 0 to flood - 1 do
            match
              Client.submit fd ~client:"storm" ~wait:false (storm_deck k)
            with
            | Proto.Accepted { id; _ } -> tracked := id :: !tracked
            | Proto.Rejected { reason; _ } ->
                check "storm rejection names backpressure"
                  (reason = "queue full");
                incr storms_rejected
            | r -> die "storm: %s" (Jsonx.to_string (Proto.reply_to_json r))
          done;
          Client.close fd;
          info "  [%d] storm of %d: %d rejected at the bound" i flood
            !storms_rejected
      | Some Chaos.Cache_corrupt ->
          (* Garble the cached entry for deck 2's physics (if present):
             the next lookup must be a miss, never a wrong result. *)
          let hash = Input.deck_hash (Input.parse_string (p2_deck 2)) in
          let file = Filename.concat (Filename.concat dir "cache") hash in
          if Sys.file_exists file then (
            let body = In_channel.with_open_bin file In_channel.input_all in
            let b = Bytes.of_string body in
            Bytes.set b (Bytes.length b / 2) '\xf0';
            Out_channel.with_open_bin file (fun oc ->
                Out_channel.output_bytes oc b);
            incr corruptions;
            check "corrupt cache entry reads as a miss"
              (Cache.lookup ~dir:(Filename.concat dir "cache") ~hash = None);
            info "  [%d] cache entry corrupted -> miss" i)
          else info "  [%d] cache entry absent (corruption no-op)" i
      | None -> ());
      ignore (submit_tracked ~client:(Printf.sprintf "c%d" (i mod 3)) deck))
    (List.init 10 p2_deck);

  (* Every tracked job must reach a definite terminal state.  Done is
     the norm; a job whose cached result was corrupted away across a
     server kill may answer "lost" — definite, and the client knows to
     resubmit.  Silent limbo is the only failure. *)
  let ids = List.rev !tracked in
  let states = await_terminal socket ids ~timeout:120. in
  let done_, lost =
    List.partition_map
      (fun (id, st) ->
        match st with
        | `Done o -> Left o
        | `Lost reason -> Right (id, reason)
        | `Failed reason -> die "%s failed: %s" id reason
        | `Rejected reason -> die "%s rejected: %s" id reason)
      states
  in
  check "every completed chaos job measured something"
    (List.for_all (fun o -> o.Job.gens > 0) done_);
  check "losses only explainable by the corruption + kill combo"
    (List.length lost <= !corruptions);
  info "  %d jobs reached a definite state through the chaos (%d done, %d \
        lost to corruption)"
    (List.length ids) (List.length done_) (List.length lost);

  (* Conserved accounting in the final incarnation, nothing in flight,
     and a graceful drain.  Reaching this line at all is the zero-hung-
     clients claim: every request above was answered within its
     timeout.  An at-least-once resubmission above can leave an
     untracked twin still draining, so the in-flight check polls. *)
  let s =
    poll ~timeout:60. ~what:"nothing left in flight" (fun () ->
        match stats_of socket with
        | s
          when s.Proto.queued = 0 && s.Proto.running = 0
               && s.Proto.retrying = 0 ->
            Some s
        | _ -> None
        | exception e when transient e -> None)
  in
  check "conserved accounting"
    (s.Proto.accepted
    = s.Proto.done_ + s.Proto.failed + s.Proto.cancelled + s.Proto.queued
      + s.Proto.running + s.Proto.retrying);
  check "storm rejections were recorded"
    (!storms_rejected >= 1 && s.Proto.rejected >= 1);
  check "chaos daemon drained" (drain_daemon cfg !daemon = Unix.WEXITED 0);
  info
    "  accounting conserved (accepted %d = done %d + failed %d + cancelled \
     %d), %d storm rejections"
    s.Proto.accepted s.Proto.done_ s.Proto.failed s.Proto.cancelled
    !storms_rejected

let () =
  rm_rf base;
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let t0 = Unix.gettimeofday () in
  phase1 ();
  phase2 ();
  rm_rf base;
  info "serve soak OK in %.1f s" (Unix.gettimeofday () -. t0)
