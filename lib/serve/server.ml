open Oqmc_core
open Oqmc_workloads
open Oqmc_obs
open Oqmc_dist

(* The oqmc-serve daemon: a single-threaded select loop multiplexing
   QMC jobs over a Unix-domain socket.

   LIFE OF A JOB.  A deck arrives framed by {!Proto}; admission parses
   and canonicalizes it, consults the result cache, and either answers
   from the cache, queues it (journaled Submit first — the write-ahead
   rule), or REJECTS it with a reason (malformed deck, queue at its
   bound, server draining).  A scheduler slot forks one RUNNER process
   per running job; the runner executes the deck through the reentrant
   [Supervisor.run_job], snapshotting its full dynamical state every
   few generations, and ships its outcome back as a single CRC-framed
   JSON document on a pipe.  Every fault budget is enforced here:

   - crash (runner dies without a frame): respawn from the newest
     snapshot with exponential backoff, up to the job's retry budget,
     then Failed with a structured reason;
   - wall-clock deadline (measured from the job's FIRST execution,
     surviving retries and server restarts via the journal): SIGUSR1
     asks the runner to drain at the next generation boundary (partial
     Done), and a grace period later SIGKILL forces Failed;
   - server SIGTERM: stop admitting, SIGTERM every runner (suspend: it
     snapshots and exits without a terminal record), compact the
     journal and leave; the next incarnation resumes every pending job
     bit-identically from its snapshot;
   - server SIGKILL: nothing graceful ran, but the journal's
     write-ahead records and the flushed-per-append discipline mean
     replay loses nothing: pending jobs re-queue, interrupted jobs
     resume from their snapshots, stale runner pids are killed.

   Nothing in this file blocks on a client: a dead client's fd is
   dropped and its job keeps running to the cache; a slow client only
   delays its own replies. *)

type config = {
  socket : string;  (* Unix-domain socket path (OS limit ~100 bytes) *)
  dir : string;  (* state directory: journal, cache/, snap/ *)
  max_queue : int;  (* admission bound: queue depth before Rejected *)
  max_running : int;  (* concurrent runner processes *)
  default_retries : int;  (* crash respawns when the client says -1 *)
  backoff_s : float;  (* respawn backoff base, doubled per attempt *)
  grace_s : float;  (* drain grace before SIGKILL (deadline, shutdown) *)
  snapshot_every : int;  (* generations between job snapshots *)
  telemetry : string option;  (* per-job JSONL event stream *)
  flightrec : string option;  (* daemon postmortem dump on fatal exit *)
}

let default_config =
  {
    socket = "oqmc-serve.sock";
    dir = "oqmc-serve.state";
    max_queue = 16;
    max_running = 2;
    default_retries = 2;
    backoff_s = 0.25;
    grace_s = 5.0;
    snapshot_every = 5;
    telemetry = None;
    flightrec = None;
  }

(* ---------- the runner child ---------- *)

let outcome_of_job (o : Supervisor.job_outcome) : Job.outcome =
  let r = o.Supervisor.job_result in
  {
    Job.energy = r.Supervisor.energy;
    error = r.Supervisor.energy_error;
    variance = r.Supervisor.variance;
    acceptance = r.Supervisor.acceptance;
    series = r.Supervisor.energy_series;
    (* Total generations the estimators cover — a resumed job's
       [gens_done] counts only the post-resume stretch, but its series
       and energy span the whole run. *)
    gens = o.Supervisor.resumed_from + o.Supervisor.gens_done;
    drained = o.Supervisor.drained;
    resumed_from = o.Supervisor.resumed_from;
    wall_s = r.Supervisor.wall_time;
  }

let outcome_of_vmc (r : Vmc.result) : Job.outcome =
  {
    Job.energy = r.Vmc.energy;
    error = r.Vmc.energy_error;
    variance = r.Vmc.variance;
    acceptance = r.Vmc.acceptance;
    series = r.Vmc.block_energies;
    gens = Array.length r.Vmc.block_energies;
    drained = false;
    resumed_from = 0;
    wall_s = r.Vmc.wall_time;
  }

(* Runner exit codes when no frame could carry the news.  3 and 4 are
   deliberate (suspend / deadline without a partial result); anything
   else that arrives frameless is a crash and feeds the retry budget. *)
let exit_suspended = 3
let exit_deadline = 4

(* Executes [spec] in a freshly forked child and never returns: ships
   exactly one frame on [wfd] — {"outcome":…}, {"suspended":true} or
   {"crashed":reason} — or dies with one of the codes above. *)
let exec_runner cfg (spec : Job.spec) wfd =
  let drain = ref false and suspend = ref false in
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> drain := true));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> suspend := true));
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  let send json = Wire.send_str wfd (Jsonx.to_string json) in
  let verdict =
    try
     let d = Input.parse_string spec.Job.deck in
     let sys =
       Builder.named ~seed:d.Input.seed ~reduction:d.Input.reduction
         ~with_nlpp:d.Input.nlpp ~precision:d.Input.precision
         d.Input.workload
     in
     (* Every precision override reaches the engines, as in oqmc_run:
        they are part of the deck hash, so a cached result must have
        run with them. *)
     let factory =
       Build.factory
         ?delay:(if d.Input.delay <= 1 then None else Some d.Input.delay)
         ?precision:d.Input.precision ?precision_dt:d.Input.precision_dt
         ?precision_jastrow:d.Input.precision_jastrow
         ?precision_inv:d.Input.precision_inv ~variant:d.Input.variant
         ~seed:d.Input.seed sys
     in
     match d.Input.method_ with
     | "vmc" ->
         (* No generation-boundary stop polling on the VMC path: a
            suspend restarts from scratch, a deadline has no partial
            result to drain into. *)
         Sys.set_signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> Stdlib.exit exit_suspended));
         Sys.set_signal Sys.sigusr1
           (Sys.Signal_handle (fun _ -> Stdlib.exit exit_deadline));
         if !suspend then Stdlib.exit exit_suspended;
         if !drain then Stdlib.exit exit_deadline;
         let r =
           Vmc.run ~crowd:d.Input.crowd ~factory
             {
               Vmc.n_walkers = d.Input.walkers;
               warmup = d.Input.steps;
               blocks = d.Input.blocks;
               steps_per_block = d.Input.steps;
               tau = d.Input.tau;
               seed = d.Input.seed + 1;
               n_domains = d.Input.domains;
             }
         in
         `Outcome (outcome_of_vmc r)
     | _ (* "dmc": [Input.check] admits no other method *) ->
         let stop () = !drain || !suspend in
         let snap = Filename.concat cfg.dir "snap" in
         let snapshot = Filename.concat snap spec.Job.id in
         (* Efficiency audit: project the calibrated roofline for this
            run shape once, then refresh the [audit.*] gauges at every
            ledger window so the status snapshot (and any Status query)
            carries the live measured-vs-model ratio. *)
         let audit =
           let precision =
             match d.Input.precision with
             | Some p -> p
             | None -> (
                 match d.Input.variant with
                 | Variant.Ref | Variant.Current_f64 -> `F64
                 | Variant.Ref_mp | Variant.Current -> `F32)
           in
           try
             Some
               (Oqmc_autotune.Audit.create ~walkers:d.Input.walkers
                  ~domains:d.Input.domains ~ranks:(max 1 d.Input.ranks)
                  ~variant:d.Input.variant ~precision ~sys ())
           with _ -> None
         in
         let params =
           {
             Supervisor.default_params with
             ranks = max 1 d.Input.ranks;
             target_walkers = d.Input.walkers;
             warmup = d.Input.steps;
             generations = d.Input.blocks * d.Input.steps;
             tau = d.Input.tau;
             seed = d.Input.seed + 1;
             n_domains = d.Input.domains;
             crowd = d.Input.crowd;
             (* Live introspection: the runner keeps a ~4 Hz status
                snapshot next to its job snapshots (the daemon's Status
                endpoint reads it) and dumps a flight-recorder
                postmortem there on any abort.  Both files share the
                job-id prefix, so the finished-job scrub removes them. *)
             status = Some (Filename.concat snap (spec.Job.id ^ ".status"));
             flightrec =
               Some (Filename.concat snap (spec.Job.id ^ ".flightrec"));
             on_window =
               Option.map
                 (fun a _gen -> ignore (Oqmc_autotune.Audit.observe a))
                 audit;
           }
         in
         let out =
           Supervisor.run_job ~factory ~stop ~snapshot
             ~snapshot_every:cfg.snapshot_every params
         in
         if !suspend && out.Supervisor.drained then `Suspended
         else `Outcome (outcome_of_job out)
    with e -> `Crashed (Printexc.to_string e)
  in
  (* The daemon may have died while we ran (pipe reader gone): the
     frame send itself must not escape as an exception — an orphan
     exits quietly and the next incarnation resumes from the
     snapshot. *)
  let code =
    match verdict with
    | `Suspended -> (
        try
          send (Jsonx.Obj [ ("suspended", Bool true) ]);
          0
        with _ -> 2)
    | `Outcome o -> (
        try
          send (Jsonx.Obj [ ("outcome", Job.outcome_to_json o) ]);
          0
        with _ -> 2)
    | `Crashed m ->
        (try send (Jsonx.Obj [ ("crashed", Str m) ]) with _ -> ());
        2
  in
  Stdlib.exit code

(* ---------- server state ---------- *)

type terminal =
  | Tdone of Job.outcome * bool  (* outcome, answered-from-cache *)
  | Tfailed of string
  | Trejected of string
  | Tcancelled
  | Tlost  (* journal says done, cache entry gone (healed corruption) *)

type kill_reason = Knone | Kdeadline | Kcancel

type runner = {
  r_spec : Job.spec;
  r_pid : int;
  r_pipe : Unix.file_descr;
  r_attempt : int;
  r_first_started : float;  (* deadline anchor across retries/restarts *)
  mutable r_drain_sent : float;  (* 0. = SIGUSR1 not sent *)
  mutable r_killed : kill_reason;
}

type retry_entry = {
  y_spec : Job.spec;
  y_attempts : int;  (* crash budget consumed *)
  y_due : float;
  y_first_started : float;
  y_reason : string;  (* the crash that put it here *)
}

type counters = {
  mutable c_submitted : int;
  mutable c_accepted : int;
  mutable c_rejected : int;
  mutable c_done : int;
  mutable c_failed : int;
  mutable c_cancelled : int;
  mutable c_cache_hits : int;
  mutable c_suspended : int;
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  journal : Journal.t;
  sink : Telemetry.sink option;
  queue : Job.spec Jqueue.t;
  running : (string, runner) Hashtbl.t;
  mutable retries : retry_entry list;
  attempts : (string, int) Hashtbl.t;  (* consumed crash budget *)
  first_start : (string, float) Hashtbl.t;
  terminal : (string, terminal) Hashtbl.t;
  waiters : (string, Unix.file_descr list ref) Hashtbl.t;
  mutable clients : Unix.file_descr list;
  mutable next_seq : int;
  k : counters;
  mutable draining : bool;
}

let cache_dir t = Filename.concat t.cfg.dir "cache"
let snap_dir t = Filename.concat t.cfg.dir "snap"

let mkdir_p dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (Unix.ENOENT, _, _) ->
      invalid_arg (Printf.sprintf "Server: cannot create %s" dir)

let now () = Unix.gettimeofday ()

let emit t ~event ~id ~client ?(attempt = 0) ?(priority = 0) ?queue_wait_s
    ?reason () =
  let base =
    [
      ("t", Jsonx.Num (now ()));
      ("job", Jsonx.Str id);
      ("client", Jsonx.Str client);
      ("event", Jsonx.Str event);
      ("attempt", Jsonx.Num (float_of_int attempt));
      ("priority", Jsonx.Num (float_of_int priority));
    ]
  in
  let base =
    match queue_wait_s with
    | Some w -> base @ [ ("queue_wait_s", Jsonx.Num w) ]
    | None -> base
  in
  let base =
    match reason with
    | Some r -> base @ [ ("reason", Jsonx.Str r) ]
    | None -> base
  in
  (* Every scheduler event also lands in the daemon's in-memory flight
     recorder, so a fatal exit leaves the recent job history behind. *)
  Flightrec.record "serve" (Jsonx.Obj base);
  match t.sink with
  | None -> ()
  | Some sink -> Telemetry.emit sink (Jsonx.Obj base)

let fresh_id t =
  let id = Printf.sprintf "j%04d" t.next_seq in
  t.next_seq <- t.next_seq + 1;
  id

(* Remove every snapshot/shard file belonging to a finished job.  A
   failed job keeps its flight-recorder postmortem — that file is the
   evidence of why it failed. *)
let scrub_snapshots ?(keep_flightrec = false) t id =
  match Sys.readdir (snap_dir t) with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if
            String.length name > String.length id
            && String.sub name 0 (String.length id + 1) = id ^ "."
            && not (keep_flightrec && Filename.check_suffix name ".flightrec")
          then
            try Sys.remove (Filename.concat (snap_dir t) name)
            with Sys_error _ -> ())
        names

let drop_client t fd =
  t.clients <- List.filter (fun c -> c <> fd) t.clients;
  Hashtbl.iter (fun _ ws -> ws := List.filter (fun c -> c <> fd) !ws) t.waiters;
  try Unix.close fd with Unix.Unix_error _ -> ()

let reply_of_terminal id = function
  | Tdone (outcome, cached) -> Proto.Job_done { id; outcome; cached }
  | Tfailed reason -> Proto.Job_failed { id; reason }
  | Trejected reason -> Proto.Rejected { id; reason }
  | Tcancelled -> Proto.State { id; state = "cancelled"; attempt = 0 }
  | Tlost -> Proto.Error (id ^ ": result no longer cached")

(* A waiter that died just gets dropped; its job is unaffected. *)
let notify_waiters t id =
  match Hashtbl.find_opt t.waiters id with
  | None -> ()
  | Some ws ->
      let reply =
        reply_of_terminal id (Hashtbl.find t.terminal id)
      in
      List.iter
        (fun fd ->
          try Proto.send_reply fd reply
          with Wire.Closed | Unix.Unix_error _ -> drop_client t fd)
        !ws;
      Hashtbl.remove t.waiters id

let journal_safe t record =
  try
    Journal.append t.journal record;
    true
  with Sys_error m ->
    Printf.eprintf "oqmc-serve: journal write failed: %s\n%!" m;
    false

let finalize t (spec : Job.spec) term =
  let id = spec.Job.id in
  Hashtbl.remove t.running id;
  Hashtbl.replace t.terminal id term;
  let tnow = now () in
  (match term with
  | Tdone (outcome, cached) ->
      t.k.c_done <- t.k.c_done + 1;
      ignore
        (journal_safe t
           (Journal.Done
              {
                id;
                hash = (if outcome.Job.drained then "" else spec.Job.hash);
                t = tnow;
              }));
      emit t ~event:"done" ~id ~client:spec.Job.client
        ~priority:spec.Job.priority
        ?reason:(if cached then Some "cache" else None)
        ()
  | Tfailed reason ->
      t.k.c_failed <- t.k.c_failed + 1;
      ignore (journal_safe t (Journal.Failed { id; reason; t = tnow }));
      emit t ~event:"failed" ~id ~client:spec.Job.client
        ~priority:spec.Job.priority ~reason ()
  | Trejected reason ->
      t.k.c_rejected <- t.k.c_rejected + 1;
      ignore
        (journal_safe t
           (Journal.Rejected { id; client = spec.Job.client; reason; t = tnow }));
      emit t ~event:"rejected" ~id ~client:spec.Job.client
        ~priority:spec.Job.priority ~reason ()
  | Tcancelled ->
      t.k.c_cancelled <- t.k.c_cancelled + 1;
      ignore (journal_safe t (Journal.Cancelled { id; t = tnow }));
      emit t ~event:"cancelled" ~id ~client:spec.Job.client
        ~priority:spec.Job.priority ()
  | Tlost -> ());
  (match term with
  | Tdone _ | Tcancelled -> scrub_snapshots t id
  | Tfailed _ -> scrub_snapshots ~keep_flightrec:true t id
  | _ -> ());
  notify_waiters t id

(* ---------- scheduling ---------- *)

let start_job t (spec : Job.spec) ~attempt ~first_started =
  let rfd, wfd = Unix.pipe () in
  let tnow = now () in
  let first_started = if first_started > 0. then first_started else tnow in
  match Unix.fork () with
  | 0 ->
      (* Child: shed every server fd so the daemon's death (or ours)
         propagates only through our own pipe. *)
      let close_q fd = try Unix.close fd with Unix.Unix_error _ -> () in
      close_q rfd;
      close_q t.listener;
      List.iter close_q t.clients;
      Hashtbl.iter (fun _ r -> close_q r.r_pipe) t.running;
      exec_runner t.cfg spec wfd
  | pid ->
      Unix.close wfd;
      Hashtbl.replace t.running spec.Job.id
        {
          r_spec = spec;
          r_pid = pid;
          r_pipe = rfd;
          r_attempt = attempt;
          r_first_started = first_started;
          r_drain_sent = 0.;
          r_killed = Knone;
        };
      Hashtbl.replace t.attempts spec.Job.id attempt;
      Hashtbl.replace t.first_start spec.Job.id first_started;
      ignore
        (journal_safe t
           (Journal.Start { id = spec.Job.id; attempt; pid; t = tnow }));
      emit t ~event:"start" ~id:spec.Job.id ~client:spec.Job.client ~attempt
        ~priority:spec.Job.priority
        ~queue_wait_s:(tnow -. spec.Job.submitted_at) ()

(* Fill free slots: due retries first (they carry a consumed budget and
   an armed deadline), then the fair queue. *)
let start_ready t =
  let continue_ = ref true in
  while
    !continue_ && (not t.draining)
    && Hashtbl.length t.running < t.cfg.max_running
  do
    let tnow = now () in
    let due, still = List.partition (fun y -> y.y_due <= tnow) t.retries in
    match due with
    | y :: rest ->
        t.retries <- rest @ still;
        if
          y.y_spec.Job.deadline_s > 0.
          && y.y_first_started > 0.
          && tnow -. y.y_first_started > y.y_spec.Job.deadline_s
        then
          finalize t y.y_spec
            (Tfailed
               (Printf.sprintf "deadline exceeded after crash: %s" y.y_reason))
        else
          start_job t y.y_spec ~attempt:(y.y_attempts + 1)
            ~first_started:y.y_first_started
    | [] -> (
        match Jqueue.pop t.queue with
        | Some spec ->
            let consumed =
              Option.value ~default:0 (Hashtbl.find_opt t.attempts spec.Job.id)
            in
            let first =
              Option.value ~default:0.
                (Hashtbl.find_opt t.first_start spec.Job.id)
            in
            start_job t spec ~attempt:(consumed + 1) ~first_started:first
        | None -> continue_ := false)
  done

let schedule_retry t (spec : Job.spec) ~attempts ~first_started ~reason =
  let budget =
    if spec.Job.retries >= 0 then spec.Job.retries
    else t.cfg.default_retries
  in
  if attempts > budget then
    finalize t spec
      (Tfailed (Printf.sprintf "crashed (%d attempts): %s" attempts reason))
  else begin
    let backoff = t.cfg.backoff_s *. (2. ** float_of_int (attempts - 1)) in
    t.retries <-
      t.retries
      @ [
          {
            y_spec = spec;
            y_attempts = attempts;
            y_due = now () +. backoff;
            y_first_started = first_started;
            y_reason = reason;
          };
        ];
    emit t ~event:"retry" ~id:spec.Job.id ~client:spec.Job.client
      ~attempt:attempts ~priority:spec.Job.priority ~reason ()
  end

(* One runner finished (its pipe went readable): collect the frame if
   any, reap the child, and route to done / suspend / retry / failed. *)
let handle_runner_event t runner =
  let spec = runner.r_spec in
  let frame =
    match Wire.recv_str ~timeout:10.0 runner.r_pipe with
    | s -> Some s
    | exception (Wire.Closed | Wire.Garbage _ | Wire.Timeout) -> None
  in
  let _, status = Unix.waitpid [] runner.r_pid in
  (try Unix.close runner.r_pipe with Unix.Unix_error _ -> ());
  Hashtbl.remove t.running spec.Job.id;
  let suspend () =
    t.k.c_suspended <- t.k.c_suspended + 1;
    ignore (journal_safe t (Journal.Suspend { id = spec.Job.id; t = now () }));
    emit t ~event:"suspend" ~id:spec.Job.id ~client:spec.Job.client
      ~attempt:runner.r_attempt ~priority:spec.Job.priority ();
    if not t.draining then
      (* A mid-run suspension outside shutdown (operator signal to the
         runner): the budget stays, the job queues again — forced past
         the admission bound, since it was already admitted once. *)
      ignore
        (Jqueue.push ~force:true t.queue ~client:spec.Job.client
           ~priority:spec.Job.priority spec)
  in
  let crash reason =
    if t.draining then
      (* Shutting down: leave the job pending; the Start record without
         a terminal already charges this attempt to the budget. *)
      emit t ~event:"crash_at_shutdown" ~id:spec.Job.id
        ~client:spec.Job.client ~attempt:runner.r_attempt
        ~priority:spec.Job.priority ~reason ()
    else
      schedule_retry t spec ~attempts:runner.r_attempt
        ~first_started:runner.r_first_started ~reason
  in
  let parsed =
    Option.bind frame (fun s ->
        match Jsonx.parse_string_exn s with
        | j -> Some j
        | exception Jsonx.Parse_error _ -> None)
  in
  match parsed with
  | Some j when Jsonx.member "outcome" j <> None -> (
      match Job.outcome_of_json (Option.get (Jsonx.member "outcome" j)) with
      | outcome ->
          if not outcome.Job.drained then
            (try Cache.store ~dir:(cache_dir t) ~hash:spec.Job.hash outcome
             with Sys_error _ | Invalid_argument _ -> ());
          finalize t spec (Tdone (outcome, false))
      | exception Job.Codec_error m -> crash ("bad outcome frame: " ^ m))
  | Some j when Jsonx.member "suspended" j <> None -> suspend ()
  | Some j when Jsonx.member "crashed" j <> None ->
      let reason =
        Option.value ~default:"crashed"
          Jsonx.(Option.bind (member "crashed" j) to_str)
      in
      crash reason
  | Some _ | None -> (
      match runner.r_killed with
      | Kcancel -> finalize t spec Tcancelled
      | Kdeadline -> finalize t spec (Tfailed "deadline exceeded")
      | Knone -> (
          match status with
          | Unix.WEXITED c when c = exit_suspended -> suspend ()
          | Unix.WEXITED c when c = exit_deadline ->
              finalize t spec (Tfailed "deadline exceeded")
          | Unix.WEXITED c ->
              crash (Printf.sprintf "runner exited with code %d" c)
          | Unix.WSIGNALED s ->
              crash (Printf.sprintf "runner killed by signal %d" s)
          | Unix.WSTOPPED s ->
              crash (Printf.sprintf "runner stopped by signal %d" s)))

(* Wall-clock deadlines: first the drain request, a grace later the axe. *)
let enforce_deadlines t =
  let tnow = now () in
  Hashtbl.iter
    (fun _ r ->
      if
        r.r_spec.Job.deadline_s > 0.
        && tnow -. r.r_first_started > r.r_spec.Job.deadline_s
      then
        if r.r_drain_sent = 0. then begin
          r.r_drain_sent <- tnow;
          emit t ~event:"deadline_drain" ~id:r.r_spec.Job.id
            ~client:r.r_spec.Job.client ~attempt:r.r_attempt
            ~priority:r.r_spec.Job.priority ();
          try Unix.kill r.r_pid Sys.sigusr1 with Unix.Unix_error _ -> ()
        end
        else if
          tnow -. r.r_drain_sent > t.cfg.grace_s && r.r_killed = Knone
        then begin
          r.r_killed <- Kdeadline;
          try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ()
        end)
    t.running

(* ---------- request handling ---------- *)

let handle_submit t fd (s : Proto.submit) =
  t.k.c_submitted <- t.k.c_submitted + 1;
  let reject id reason =
    t.k.c_rejected <- t.k.c_rejected + 1;
    ignore
      (journal_safe t
         (Journal.Rejected { id; client = s.Proto.client; reason; t = now () }));
    Hashtbl.replace t.terminal id (Trejected reason);
    emit t ~event:"rejected" ~id ~client:s.Proto.client ~reason ();
    Proto.send_reply fd (Proto.Rejected { id; reason })
  in
  if t.draining then reject (fresh_id t) "server shutting down"
  else
    match Input.parse_string s.Proto.deck with
    | exception Input.Parse_error m -> reject (fresh_id t) ("deck: " ^ m)
    | exception Invalid_argument m -> reject (fresh_id t) ("deck: " ^ m)
    | d -> (
        let id = fresh_id t in
        let bad reason = reject id reason in
        let known_workload =
          match String.lowercase_ascii d.Input.workload with
          | "harmonic" | "hydrogen" | "heg" -> true
          | name -> ( match Spec.find name with _ -> true | exception _ -> false)
        in
        if not known_workload then
          bad (Printf.sprintf "deck: unknown workload %S" d.Input.workload)
        else
          let hash = Input.deck_hash d in
          let spec =
            {
              Job.id;
              client = s.Proto.client;
              deck = s.Proto.deck;
              hash;
              priority = s.Proto.priority;
              deadline_s = max 0. s.Proto.deadline_s;
              retries = s.Proto.retries;
              submitted_at = now ();
            }
          in
          match Cache.lookup ~dir:(cache_dir t) ~hash with
          | Some outcome ->
              t.k.c_accepted <- t.k.c_accepted + 1;
              t.k.c_cache_hits <- t.k.c_cache_hits + 1;
              if journal_safe t (Journal.Submit spec) then
                ignore
                  (journal_safe t
                     (Journal.Done { id; hash; t = now () }));
              Hashtbl.replace t.terminal id (Tdone (outcome, true));
              t.k.c_done <- t.k.c_done + 1;
              emit t ~event:"submit" ~id ~client:spec.Job.client
                ~priority:spec.Job.priority ();
              emit t ~event:"done" ~id ~client:spec.Job.client
                ~priority:spec.Job.priority ~reason:"cache" ();
              Proto.send_reply fd (Proto.Accepted { id; cached = true; position = 0 });
              if s.Proto.wait then
                Proto.send_reply fd (Proto.Job_done { id; outcome; cached = true })
          | None -> (
              if Jqueue.is_full t.queue then bad "queue full"
              else if not (journal_safe t (Journal.Submit spec)) then
                bad "journal write failed (disk full?)"
              else
                match
                  Jqueue.push t.queue ~client:spec.Job.client
                    ~priority:spec.Job.priority spec
                with
                | Error reason ->
                    (* Can't happen (is_full checked), but never hang. *)
                    bad reason
                | Ok position ->
                    t.k.c_accepted <- t.k.c_accepted + 1;
                    emit t ~event:"submit" ~id ~client:spec.Job.client
                      ~priority:spec.Job.priority ();
                    if s.Proto.wait then begin
                      let ws =
                        match Hashtbl.find_opt t.waiters id with
                        | Some ws -> ws
                        | None ->
                            let ws = ref [] in
                            Hashtbl.replace t.waiters id ws;
                            ws
                      in
                      ws := fd :: !ws
                    end;
                    Proto.send_reply fd
                      (Proto.Accepted { id; cached = false; position })))

let find_queued t id =
  List.find_opt (fun (s : Job.spec) -> s.Job.id = id) (Jqueue.to_list t.queue)

let handle_query t fd id =
  let reply =
    match Hashtbl.find_opt t.terminal id with
    | Some term -> reply_of_terminal id term
    | None -> (
        match Hashtbl.find_opt t.running id with
        | Some r ->
            Proto.State { id; state = "running"; attempt = r.r_attempt }
        | None ->
            if find_queued t id <> None then
              Proto.State { id; state = "queued"; attempt = 0 }
            else if List.exists (fun y -> y.y_spec.Job.id = id) t.retries then
              Proto.State { id; state = "retrying"; attempt = 0 }
            else Proto.Error (id ^ ": unknown job"))
  in
  Proto.send_reply fd reply

let handle_cancel t fd id =
  let reply =
    match Hashtbl.find_opt t.terminal id with
    | Some term -> reply_of_terminal id term
    | None -> (
        match Jqueue.remove t.queue (fun (s : Job.spec) -> s.Job.id = id) with
        | Some spec ->
            finalize t spec Tcancelled;
            Proto.State { id; state = "cancelled"; attempt = 0 }
        | None -> (
            match
              List.find_opt (fun y -> y.y_spec.Job.id = id) t.retries
            with
            | Some y ->
                t.retries <-
                  List.filter (fun e -> e.y_spec.Job.id <> id) t.retries;
                finalize t y.y_spec Tcancelled;
                Proto.State { id; state = "cancelled"; attempt = 0 }
            | None -> (
                match Hashtbl.find_opt t.running id with
                | Some r ->
                    r.r_killed <- Kcancel;
                    (try Unix.kill r.r_pid Sys.sigkill
                     with Unix.Unix_error _ -> ());
                    Proto.State { id; state = "cancelling"; attempt = r.r_attempt }
                | None -> Proto.Error (id ^ ": unknown job"))))
  in
  Proto.send_reply fd reply

(* ---------- the Status snapshot ---------- *)

let status_file t id = Filename.concat (snap_dir t) (id ^ ".status")

let read_small path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let stats_of t =
  {
    Proto.submitted = t.k.c_submitted;
    accepted = t.k.c_accepted;
    rejected = t.k.c_rejected;
    done_ = t.k.c_done;
    failed = t.k.c_failed;
    cancelled = t.k.c_cancelled;
    queued = Jqueue.length t.queue;
    running = Hashtbl.length t.running;
    retrying = List.length t.retries;
    cache_hits = t.k.c_cache_hits;
    suspended = t.k.c_suspended;
  }

(* The whole snapshot is assembled from state already in hand plus one
   small atomic-renamed file read per running job — nothing here waits
   on a runner, so the select loop never blocks on Status. *)
let status_of t =
  let tnow = now () in
  let job_json id (r : runner) =
    let live =
      match read_small (status_file t id) with
      | Some s -> (
          match Jsonx.parse_string_exn (String.trim s) with
          | j -> j
          | exception Jsonx.Parse_error _ -> Jsonx.Null)
      | None -> Jsonx.Null
    in
    Jsonx.Obj
      [
        ("id", Jsonx.Str id);
        ("client", Jsonx.Str r.r_spec.Job.client);
        ("attempt", Jsonx.Num (float_of_int r.r_attempt));
        ("running_s", Jsonx.Num (tnow -. r.r_first_started));
        ("live", live);
      ]
  in
  Jsonx.Obj
    [
      ("t", Jsonx.Num tnow);
      ("stats", Proto.stats_to_json (stats_of t));
      ("metrics", Expo.json (Metrics.snapshot ()));
      ( "jobs",
        Jsonx.Arr
          (List.sort compare
             (Hashtbl.fold (fun id _ acc -> id :: acc) t.running [])
          |> List.map (fun id -> job_json id (Hashtbl.find t.running id))) );
    ]

let handle_request t fd = function
  | Proto.Submit s -> handle_submit t fd s
  | Proto.Query id -> handle_query t fd id
  | Proto.Cancel id -> handle_cancel t fd id
  | Proto.Stats -> Proto.send_reply fd (Proto.Stats_reply (stats_of t))
  | Proto.Status -> Proto.send_reply fd (Proto.Status_reply (status_of t))
  | Proto.Ping -> Proto.send_reply fd Proto.Pong

let handle_client t fd =
  match Proto.recv_request ~timeout:10.0 fd with
  | req -> (
      try handle_request t fd req
      with Wire.Closed | Unix.Unix_error (Unix.EPIPE, _, _) -> drop_client t fd)
  | exception Wire.Closed -> drop_client t fd
  | exception (Wire.Timeout | Wire.Garbage _ | Proto.Protocol_error _) ->
      (try Proto.send_reply fd (Proto.Error "malformed request")
       with Wire.Closed | Unix.Unix_error _ -> ());
      drop_client t fd

(* ---------- recovery ---------- *)

(* A stale pid from the journal may have been REUSED by an unrelated
   process since the previous incarnation died (pid_max wraps fast on a
   busy box, and the daemon itself is forked from whoever launched it).
   Only kill a pid we can positively identify as one of our own runner
   forks: same executable image, and neither ourselves nor our parent.
   When in doubt, leave it alone — an unkilled orphan finishes its job
   and exits quietly; a miskilled pid is someone else's process. *)
let stale_pid_is_ours pid =
  pid > 1
  && pid <> Unix.getpid ()
  && pid <> Unix.getppid ()
  &&
  match
    In_channel.with_open_bin
      (Printf.sprintf "/proc/%d/cmdline" pid)
      In_channel.input_all
  with
  | "" -> false
  | cmd ->
      let argv0 =
        match String.index_opt cmd '\000' with
        | Some i -> String.sub cmd 0 i
        | None -> cmd
      in
      Filename.basename argv0 = Filename.basename Sys.executable_name
  | exception Sys_error _ -> false

let recover_state t =
  let rec_ = Journal.recover (Journal.replay (Journal.path t.journal)) in
  t.next_seq <- rec_.Journal.r_next_seq;
  (* Terminal history: Done resolves through the cache (a healed
     corruption demotes it to Tlost — never a wrong result).  The
     counters are restored alongside so stats survive a crash: an
     operator's `rejected` or `done` tally must not reset to zero just
     because the daemon was relaunched on the same state directory. *)
  List.iter
    (fun (id, term) ->
      let term =
        match term with
        | Journal.Tdone "" -> Tlost (* drained partial: never cached *)
        | Journal.Tdone hash -> (
            match Cache.lookup ~dir:(cache_dir t) ~hash with
            | Some outcome -> Tdone (outcome, true)
            | None -> Tlost)
        | Journal.Tfailed reason -> Tfailed reason
        | Journal.Trejected reason -> Trejected reason
        | Journal.Tcancelled -> Tcancelled
      in
      (match term with
      | Tdone _ | Tlost -> t.k.c_done <- t.k.c_done + 1
      | Tfailed _ -> t.k.c_failed <- t.k.c_failed + 1
      | Trejected _ -> t.k.c_rejected <- t.k.c_rejected + 1
      | Tcancelled -> t.k.c_cancelled <- t.k.c_cancelled + 1);
      Hashtbl.replace t.terminal id term)
    rec_.Journal.r_terminal;
  (* Pending jobs: kill any runner the dead incarnation left behind,
     restore the consumed budget and deadline anchor, re-queue. *)
  List.iter
    (fun (p : Journal.pending) ->
      let spec = p.Journal.p_spec in
      if stale_pid_is_ours p.Journal.p_stale_pid then
        (try Unix.kill p.Journal.p_stale_pid Sys.sigkill
         with Unix.Unix_error _ -> ());
      Hashtbl.replace t.attempts spec.Job.id p.Journal.p_attempts;
      if p.Journal.p_first_start > 0. then
        Hashtbl.replace t.first_start spec.Job.id p.Journal.p_first_start;
      (* Already admitted by the dead incarnation: the pending set can
         legitimately exceed the queue bound (it also held the running
         slots), so recovery must never bounce its own backlog. *)
      ignore
        (Jqueue.push ~force:true t.queue ~client:spec.Job.client
           ~priority:spec.Job.priority spec);
      emit t ~event:"recovered" ~id:spec.Job.id ~client:spec.Job.client
        ~attempt:p.Journal.p_attempts ~priority:spec.Job.priority ())
    rec_.Journal.r_pending;
  (* Every admitted job across all incarnations: the ones that already
     finished plus the ones just re-queued.  This keeps the accounting
     identity (accepted = done + failed + cancelled + in-flight) true
     from the first post-recovery stats reply onward. *)
  t.k.c_accepted <-
    List.length rec_.Journal.r_pending
    + t.k.c_done + t.k.c_failed + t.k.c_cancelled;
  t.k.c_submitted <- t.k.c_accepted + t.k.c_rejected

(* ---------- shutdown ---------- *)

let shutdown t =
  t.draining <- true;
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (try Sys.remove t.cfg.socket with Sys_error _ -> ());
  (* Ask every runner to suspend (snapshot + exit, no terminal). *)
  Hashtbl.iter
    (fun _ r ->
      try Unix.kill r.r_pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.running;
  let deadline = now () +. t.cfg.grace_s in
  while Hashtbl.length t.running > 0 && now () < deadline do
    let pipes = Hashtbl.fold (fun _ r acc -> r.r_pipe :: acc) t.running [] in
    match Unix.select pipes [] [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            let found =
              Hashtbl.fold
                (fun _ r acc -> if r.r_pipe = fd then Some r else acc)
                t.running None
            in
            match found with
            | Some r -> handle_runner_event t r
            | None -> ())
          ready
  done;
  (* Stragglers past the grace: the axe; their budget was charged at
     Start, the journal keeps them pending. *)
  Hashtbl.iter
    (fun _ r ->
      (try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] r.r_pid) with Unix.Unix_error _ -> ());
      try Unix.close r.r_pipe with Unix.Unix_error _ -> ())
    t.running;
  Hashtbl.reset t.running;
  (* Waiters get a definite answer before their fd closes. *)
  Hashtbl.iter
    (fun id ws ->
      List.iter
        (fun fd ->
          try
            Proto.send_reply fd
              (Proto.Error (id ^ ": server shutting down; job suspended"))
          with Wire.Closed | Unix.Unix_error _ -> ())
        !ws)
    t.waiters;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.clients;
  Journal.close t.journal;
  (* Compact: pending Submits + synthetic Starts preserving budgets. *)
  (try
     Journal.compact ~path:(Filename.concat t.cfg.dir "journal")
       (Journal.recover (Journal.replay (Filename.concat t.cfg.dir "journal")))
   with Sys_error _ -> ());
  match t.sink with Some s -> Telemetry.close s | None -> ()

(* ---------- the daemon ---------- *)

let term_flag = ref false

let rec serve cfg =
  if cfg.max_queue < 1 then invalid_arg "Server.serve: max_queue < 1";
  if cfg.max_running < 1 then invalid_arg "Server.serve: max_running < 1";
  if cfg.snapshot_every < 1 then invalid_arg "Server.serve: snapshot_every < 1";
  mkdir_p cfg.dir;
  mkdir_p (Filename.concat cfg.dir "cache");
  mkdir_p (Filename.concat cfg.dir "snap");
  Wire.mask_sigpipe ();
  let journal = Journal.open_ (Filename.concat cfg.dir "journal") in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Sys.remove cfg.socket with Sys_error _ -> ());
  Unix.bind listener (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listener 64;
  let t =
    {
      cfg;
      listener;
      journal;
      (* Append, not truncate: a restarted incarnation must extend the
         event stream its predecessor left behind, not erase it. *)
      sink = Option.map (Telemetry.create ~append:true) cfg.telemetry;
      queue = Jqueue.create ~bound:cfg.max_queue ();
      running = Hashtbl.create 8;
      retries = [];
      attempts = Hashtbl.create 16;
      first_start = Hashtbl.create 16;
      terminal = Hashtbl.create 16;
      waiters = Hashtbl.create 16;
      clients = [];
      next_seq = 1;
      k =
        {
          c_submitted = 0;
          c_accepted = 0;
          c_rejected = 0;
          c_done = 0;
          c_failed = 0;
          c_cancelled = 0;
          c_cache_hits = 0;
          c_suspended = 0;
        };
      draining = false;
    }
  in
  recover_state t;
  term_flag := false;
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> term_flag := true))
  in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> term_flag := true))
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int)
    (fun () ->
      (* A fatal daemon exit dumps the flight recorder (recent scheduler
         events) before the exception escapes. *)
      try serve_loop t
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        (match cfg.flightrec with
        | Some path -> (
            try Flightrec.dump ~reason:(Printexc.to_string e) ~path ()
            with _ -> ())
        | None -> ());
        Printexc.raise_with_backtrace e bt)

and serve_loop t =
  while not !term_flag do
    start_ready t;
    enforce_deadlines t;
    let pipes = Hashtbl.fold (fun _ r acc -> r.r_pipe :: acc) t.running [] in
    let fds = (t.listener :: t.clients) @ pipes in
    match Unix.select fds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.listener then begin
              match Unix.accept t.listener with
              | conn, _ -> t.clients <- conn :: t.clients
              | exception Unix.Unix_error _ -> ()
            end
            else
              let runner =
                Hashtbl.fold
                  (fun _ r acc -> if r.r_pipe = fd then Some r else acc)
                  t.running None
              in
              match runner with
              | Some r -> handle_runner_event t r
              | None -> if List.mem fd t.clients then handle_client t fd)
          ready
  done;
  shutdown t
