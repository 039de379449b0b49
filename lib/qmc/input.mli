(** Minimal line-oriented input deck ([key = value], [#] comments) for the
    production driver.  Unknown keys are rejected. *)

type t = {
  method_ : string;
  workload : string;
  variant : Variant.t;
  reduction : int;
  walkers : int;
  blocks : int;
  steps : int;
  tau : float;
  domains : int;
  crowd : int;
      (** walkers advanced in lockstep per domain through the fused
          crowd pipeline; Ref and Ref+MP ignore it.  Values < 1 are
          rejected at parse time. *)
  delay : int;
      (** delayed determinant-update rank (Woodbury block size); 1 (the
          default) keeps the rank-1 Sherman–Morrison update.  Values < 1
          are rejected at parse time. *)
  precision : [ `F32 | `F64 ] option;
      (** [precision = f32|f64] working-precision override (orbital table
          storage + engine arithmetic); [None] keeps the variant's
          default.  Also accepts [single]/[double]. *)
  precision_dt : [ `F32 | `F64 ] option;
      (** SoA distance-table storage precision; [None] follows
          [precision].  Setting f32 explicitly auto-arms the DMC
          watchdog drift audit. *)
  precision_jastrow : [ `F32 | `F64 ] option;
      (** Jastrow radial-spline coefficient precision (coefficients are
          rounded through f32 storage at build time); [None] follows
          [precision]. *)
  precision_inv : [ `F32 | `F64 ] option;
      (** Inverse-matrix / delayed-update panel storage precision;
          [None] follows [precision]. *)
  nlpp : bool;
  seed : int;
  checkpoint : string option;
  checkpoint_every : int;
      (** DMC: checkpoint every N generations (0 disables) *)
  checkpoint_keep : int;  (** checkpoint generations retained *)
  watchdog : int;
      (** DMC: recompute-audit cadence of the walker watchdog
          (0 disables the watchdog) *)
  restore : string option;
  ranks : int;
      (** > 1 = supervised multi-process execution ({!Oqmc_dist}) *)
  heartbeat_ms : int;  (** per-rank message deadline in milliseconds *)
  max_respawn : int;
      (** respawns per rank before it is abandoned and the run degrades *)
  elastic : bool;
      (** enable elastic rank membership (join/leave/drain) and, with
          [gen_deadline_ms > 0], async double-buffered shard
          checkpoints *)
  gen_deadline_ms : int;
      (** soft per-generation budget: a rank slower than it is counted
          as a straggler; 0 = classic lockstep.  Values < 0 are rejected
          at parse time *)
  trace : string option;
      (** write a Chrome trace_event JSON timeline here (load it in
          Perfetto / chrome://tracing) *)
  telemetry : string option;
      (** write one JSON record per measured generation/block here *)
  telemetry_every : int;  (** emit every n-th record (default 1) *)
  progress : bool;  (** live one-line progress on stderr *)
}

val default : t

exception Parse_error of string

val precision_of_string :
  fail:(string -> [ `F32 | `F64 ] option) ->
  string ->
  string ->
  [ `F32 | `F64 ] option
(** [precision_of_string ~fail key v] reads a precision setting:
    [f32]/[single], [f64]/[double], or [""]/[default] for [None]
    (case-insensitive).  Anything else calls [fail] with
    ["<key> must be f32 or f64, got <v>"]. *)

val check : t -> unit
(** Refuses run parameters no QMC method can use: a [method] other than
    [vmc] or [dmc], [blocks < 1], [steps < 1], a [tau] that is not
    finite or not > 0, [walkers < 1], [domains < 1], [ranks < 1],
    [reduction < 1], [checkpoint_every < 0], [checkpoint_keep < 1].
    @raise Parse_error naming the offending value. *)

val parse_string : string -> t
(** Parses a deck and {!check}s the result.
    @raise Parse_error on malformed input or unusable parameters. *)

val parse_file : string -> t

val canonical : t -> string
(** Canonical deck text: the result-determining knobs only (physics,
    sampling, sharding, precision — not checkpoint/telemetry/trace
    paths), in a fixed order with floats printed as hex.  Two decks that
    parse to the same physics yield byte-identical canonical forms
    regardless of key order, comments, whitespace or case. *)

val deck_hash : t -> string
(** Hex digest of {!canonical} — the serve-layer result-cache key. *)
