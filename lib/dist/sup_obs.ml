module Trace = Oqmc_obs.Trace
module Metrics = Oqmc_obs.Metrics
module Telemetry = Oqmc_obs.Telemetry
module Progress = Oqmc_obs.Progress
module Ledger = Oqmc_obs.Ledger
module Flightrec = Oqmc_obs.Flightrec
module Jsonx = Oqmc_obs.Jsonx

(* The supervisor's observability outputs: the telemetry JSONL sink,
   the live progress line, the trace export, the flight-recorder
   postmortem, the live status file and the ledger-window hook.  None of
   this touches the physics or the RNG streams. *)

type t = {
  sink : Telemetry.sink option;
  progress : Progress.t option;
  every : int; (* telemetry decimation *)
  trace : string option;
  flightrec : string option;
  status : string option;
  mutable status_t : float; (* when the status file was last written *)
  on_window : (int -> unit) option;
}

(* Enables tracing when a trace path is requested — forked ranks inherit
   the enabled flag, so this must happen BEFORE any fork — and opens the
   JSONL sink and the live progress line. *)
let create ~trace ~telemetry ~telemetry_every ~progress ~flightrec ~status
    ~on_window =
  if trace <> None && not (Trace.enabled ()) then Trace.enable ();
  {
    sink = Option.map Telemetry.create telemetry;
    progress = (if progress then Some (Progress.create ()) else None);
    every = max 1 telemetry_every;
    trace;
    flightrec;
    status;
    status_t = 0.;
    on_window;
  }

let emit t ~gen record =
  match t.sink with
  | Some s when gen mod t.every = 0 -> Telemetry.emit s record
  | _ -> ()

(* Unfiltered emit for sparse structural records (membership events,
   ledger windows): these must never be dropped by the decimation. *)
let emit_event t record =
  match t.sink with Some s -> Telemetry.emit s record | None -> ()

let progress t line =
  match t.progress with Some pr -> Progress.update pr line | None -> ()

(* Flush and export everything.  Failure-isolated: a broken progress
   line or sink cannot keep the others from flushing, so the telemetry
   tail stays parseable on every abort path. *)
let close t =
  (try Option.iter Progress.finish t.progress with _ -> ());
  (try Option.iter Telemetry.close t.sink with _ -> ());
  try Option.iter (fun path -> Trace.export ~path) t.trace with _ -> ()

(* Dump the flight-recorder ring to the postmortem path.  Failures are
   swallowed — the recorder must never turn one abort into another. *)
let flight_dump t reason =
  Option.iter
    (fun path -> try Flightrec.dump ~reason ~path () with _ -> ())
    t.flightrec

(* Live status file: a small JSON snapshot written to a temp file and
   atomically renamed into place, throttled to ~4 Hz.  The serve
   daemon's Status endpoint reads (never writes) this file, so a crashed
   runner leaves its last consistent snapshot behind. *)
let write_status t ~force mk =
  match t.status with
  | None -> ()
  | Some path ->
      let now = Oqmc_containers.Timers.now () in
      if force || now -. t.status_t >= 0.25 then begin
        t.status_t <- now;
        try
          let tmp = path ^ ".tmp" in
          let oc = open_out tmp in
          output_string oc (Jsonx.to_string (mk ()));
          output_char oc '\n';
          close_out oc;
          Sys.rename tmp path
        with Sys_error _ | Unix.Unix_error _ -> ()
      end

(* Registry [audit.*] gauges — set by the driver's efficiency audit
   through the [on_window] hook — echoed verbatim into the status
   snapshot so a Status query surfaces live efficiency numbers. *)
let audit_json () =
  Jsonx.Obj
    (List.filter_map
       (fun (name, v) ->
         match v with
         | Metrics.Gauge g when String.starts_with ~prefix:"audit." name ->
             Some (name, Jsonx.Num g)
         | _ -> None)
       (Metrics.snapshot ()))

(* Generations per ledger window, as [Ledger.create]'s default. *)
let ledger_window = 16

(* At every ledger-window boundary: push the per-rank windows to the
   sink (decimation-proof), then call the [on_window] hook, whose
   exceptions are swallowed. *)
let fire_window t ~gen ledger =
  if gen mod ledger_window = 0 then begin
    emit_event t
      (Jsonx.Obj
         [
           ("event", Jsonx.Str "ledger");
           ("gen", Jsonx.Num (float_of_int gen));
           ("ranks", Ledger.json ledger);
         ]);
    Option.iter (fun f -> try f gen with _ -> ()) t.on_window
  end
