(** Structured tracing: lock-free per-domain span ring buffers with a
    Chrome [trace_event] JSON exporter ([chrome://tracing] / Perfetto).

    The disabled path is one atomic load and a branch — no allocation —
    so instrumentation can live permanently in hot code.  Memory is
    bounded: a full ring overwrites its oldest events.  Spans are
    attributed as pid = rank, tid = recording domain, plus free-form
    string args. *)

type event = {
  name : string;
  ph : char;  (** ['X'] complete span, ['i'] instant *)
  ts : float;  (** seconds since {!enable} *)
  dur : float;  (** span duration in seconds; 0 for instants *)
  pid : int;  (** rank *)
  tid : int;  (** recording domain *)
  args : (string * string) list;
}

val enabled : unit -> bool
(** The static check every recording call performs first. *)

val enable : ?capacity:int -> unit -> unit
(** Start tracing: reset the epoch, clear all rings, set the per-domain
    ring capacity (default 65536 events). *)

val disable : unit -> unit

val set_rank : int -> unit
(** Attribution for every subsequent event from this process. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; exception-safe.  When tracing is
    disabled this is just the thunk call. *)

val span_begin : ?args:(string * string) list -> string -> unit
val span_end : unit -> unit
(** Non-lexical span pair; ends are matched to begins per domain,
    stack-wise, so spans in one lane always nest. *)

val instant : ?args:(string * string) list -> string -> unit

val clear : unit -> unit
(** Drop all recorded and ingested events (rings stay allocated). *)

val events : unit -> event list
(** All recorded + ingested events, sorted by (pid, tid, start time)
    and, at equal starts, by descending end: a parent span precedes a
    child that began in the same clock tick. *)

val dropped : unit -> int
(** Events lost to ring overwrite since the last {!enable}/{!clear}. *)

val serialize : unit -> string
(** This process's events as a compact binary blob for cross-process
    shipping (the payload a rank piggybacks on its final frame). *)

val ingest : pid:int -> string -> unit
(** Merge a blob from another process under the given pid.
    @raise Malformed on a corrupt blob. *)

exception Malformed

val export : path:string -> unit
(** Write the merged Chrome trace_event JSON file. *)

val export_string : unit -> string
