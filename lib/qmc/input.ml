(* Input-deck parsing for the production driver.

   Production QMC codes are driven by input files; this is a minimal
   line-oriented deck:

     # comment
     method    = dmc
     workload  = NiO-32
     variant   = Current
     reduction = 8
     walkers   = 64
     blocks    = 10
     steps     = 20
     tau       = 0.005
     domains   = 4
     nlpp      = true
     seed      = 7

   Keys are case-insensitive; later lines override earlier ones; unknown
   keys are an error (catching typos beats silently ignoring them). *)

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
  crowd : int; (* walkers advanced in lockstep per domain (Current) *)
  delay : int; (* delayed determinant-update rank; 1 = Sherman–Morrison *)
  precision : [ `F32 | `F64 ] option;
      (* working-precision override; None = variant default *)
  precision_dt : [ `F32 | `F64 ] option;
      (* SoA distance-table storage; None = follow precision *)
  precision_jastrow : [ `F32 | `F64 ] option;
      (* Jastrow radial-spline coefficients; None = follow precision *)
  precision_inv : [ `F32 | `F64 ] option;
      (* inverse / delayed-update storage; None = follow precision *)
  nlpp : bool;
  seed : int;
  checkpoint : string option;
  checkpoint_every : int;
  checkpoint_keep : int;
  watchdog : int;
  restore : string option;
  ranks : int; (* > 1 = supervised multi-process execution *)
  heartbeat_ms : int; (* per-rank message deadline *)
  max_respawn : int; (* respawns per rank before it is abandoned *)
  elastic : bool; (* elastic rank membership + async checkpoints *)
  gen_deadline_ms : int; (* soft generation budget; 0 = lockstep *)
  trace : string option; (* Chrome trace_event JSON output *)
  telemetry : string option; (* per-generation JSONL output *)
  telemetry_every : int;
  progress : bool; (* live one-line progress on stderr *)
}

let default =
  {
    method_ = "vmc";
    workload = "heg";
    variant = Variant.Current;
    reduction = 8;
    walkers = 8;
    blocks = 5;
    steps = 10;
    tau = 0.1;
    domains = 1;
    crowd = 1;
    delay = 1;
    precision = None;
    precision_dt = None;
    precision_jastrow = None;
    precision_inv = None;
    nlpp = false;
    seed = 1;
    checkpoint = None;
    checkpoint_every = 0;
    checkpoint_keep = 3;
    watchdog = 0;
    restore = None;
    ranks = 1;
    heartbeat_ms = 5000;
    max_respawn = 2;
    elastic = false;
    gen_deadline_ms = 0;
    trace = None;
    telemetry = None;
    telemetry_every = 1;
    progress = false;
  }

exception Parse_error of string

let fail line fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s))) fmt

let parse_bool line v =
  match String.lowercase_ascii v with
  | "true" | "yes" | "1" -> true
  | "false" | "no" | "0" -> false
  | _ -> fail line "expected a boolean, got %S" v

let parse_int line v =
  try int_of_string (String.trim v)
  with Failure _ -> fail line "expected an integer, got %S" v

let parse_float line v =
  try float_of_string (String.trim v)
  with Failure _ -> fail line "expected a number, got %S" v

let precision_of_string ~fail key v =
  match String.lowercase_ascii v with
  | "f32" | "single" -> Some `F32
  | "f64" | "double" -> Some `F64
  | "" | "default" -> None
  | other -> fail (Printf.sprintf "%s must be f32 or f64, got %S" key other)

let parse_precision line key v =
  precision_of_string ~fail:(fun msg -> fail line "%s" msg) key v

let apply cfg ~line key value =
  match String.lowercase_ascii key with
  | "method" -> { cfg with method_ = String.lowercase_ascii value }
  | "workload" -> { cfg with workload = value }
  | "variant" -> (
      try { cfg with variant = Variant.of_string value }
      with Invalid_argument _ -> fail line "unknown variant %S" value)
  | "reduction" -> { cfg with reduction = parse_int line value }
  | "walkers" -> { cfg with walkers = parse_int line value }
  | "blocks" -> { cfg with blocks = parse_int line value }
  | "steps" -> { cfg with steps = parse_int line value }
  | "tau" -> { cfg with tau = parse_float line value }
  | "domains" -> { cfg with domains = parse_int line value }
  | "crowd" ->
      let c = parse_int line value in
      if c < 1 then fail line "crowd must be >= 1, got %d" c;
      { cfg with crowd = c }
  | "delay" ->
      let d = parse_int line value in
      if d < 1 then fail line "delay must be >= 1, got %d" d;
      { cfg with delay = d }
  | "precision" ->
      { cfg with precision = parse_precision line "precision" value }
  | "precision_dt" ->
      { cfg with precision_dt = parse_precision line "precision_dt" value }
  | "precision_jastrow" ->
      {
        cfg with
        precision_jastrow = parse_precision line "precision_jastrow" value;
      }
  | "precision_inv" ->
      { cfg with precision_inv = parse_precision line "precision_inv" value }
  | "nlpp" -> { cfg with nlpp = parse_bool line value }
  | "seed" -> { cfg with seed = parse_int line value }
  | "checkpoint" -> { cfg with checkpoint = Some value }
  | "checkpoint_every" -> { cfg with checkpoint_every = parse_int line value }
  | "checkpoint_keep" -> { cfg with checkpoint_keep = parse_int line value }
  | "watchdog" -> { cfg with watchdog = parse_int line value }
  | "restore" -> { cfg with restore = Some value }
  | "ranks" -> { cfg with ranks = parse_int line value }
  | "heartbeat_ms" -> { cfg with heartbeat_ms = parse_int line value }
  | "max_respawn" -> { cfg with max_respawn = parse_int line value }
  | "elastic" -> { cfg with elastic = parse_bool line value }
  | "gen_deadline_ms" ->
      let d = parse_int line value in
      if d < 0 then fail line "gen_deadline_ms must be >= 0, got %d" d;
      { cfg with gen_deadline_ms = d }
  | "trace" -> { cfg with trace = Some value }
  | "telemetry" -> { cfg with telemetry = Some value }
  | "telemetry_every" -> { cfg with telemetry_every = parse_int line value }
  | "progress" -> { cfg with progress = parse_bool line value }
  | other -> fail line "unknown key %S" other

(* Run parameters no QMC method can use: a method other than vmc or
   dmc, a non-finite or non-positive time step (DMC then reports NaN
   energies, VMC never moves), no walkers, no worker domains, or no
   blocks or steps (VMC and DMC then print a zero-variance energy of 0
   that sampled nothing).  Also no ranks (a run would silently use one
   process), a size reduction below 1 (the builder fails after the run
   header), a negative checkpoint interval (it would silently never
   checkpoint) and keeping no checkpoint generations (the run would die
   at its first checkpoint, losing the work before it). *)
let check cfg =
  let bad fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt in
  if cfg.method_ <> "vmc" && cfg.method_ <> "dmc" then
    bad "method must be vmc or dmc, got %S" cfg.method_;
  if cfg.blocks < 1 then bad "blocks must be >= 1, got %d" cfg.blocks;
  if cfg.steps < 1 then bad "steps must be >= 1, got %d" cfg.steps;
  if not (Float.is_finite cfg.tau && cfg.tau > 0.) then
    bad "tau must be finite and > 0, got %g" cfg.tau;
  if cfg.walkers < 1 then bad "walkers must be >= 1, got %d" cfg.walkers;
  if cfg.domains < 1 then bad "domains must be >= 1, got %d" cfg.domains;
  if cfg.ranks < 1 then bad "ranks must be >= 1, got %d" cfg.ranks;
  if cfg.reduction < 1 then
    bad "reduction must be >= 1, got %d" cfg.reduction;
  if cfg.checkpoint_every < 0 then
    bad "checkpoint_every must be >= 0, got %d" cfg.checkpoint_every;
  if cfg.checkpoint_keep < 1 then
    bad "checkpoint_keep must be >= 1, got %d" cfg.checkpoint_keep

let parse_string contents =
  let cfg = ref default in
  String.split_on_char '\n' contents
  |> List.iteri (fun i raw ->
         let line = i + 1 in
         let text =
           match String.index_opt raw '#' with
           | Some p -> String.sub raw 0 p
           | None -> raw
         in
         let text = String.trim text in
         if text <> "" then begin
           match String.index_opt text '=' with
           | None -> fail line "expected key = value, got %S" text
           | Some p ->
               let key = String.trim (String.sub text 0 p) in
               let value =
                 String.trim
                   (String.sub text (p + 1) (String.length text - p - 1))
               in
               if key = "" then fail line "empty key";
               cfg := apply !cfg ~line key value
         end);
  check !cfg;
  !cfg

(* ---------- canonicalization ----------

   The serve-layer result cache is keyed by deck *meaning*, not deck
   text: two decks that differ only in key order, comments, whitespace,
   case, or operational knobs (where to checkpoint, whether to trace)
   must hit the same cache entry, while any change to a
   result-determining knob must miss.  Canonical form is the fixed list
   below, one [key = value] line each, floats printed as hex so the hash
   never depends on decimal formatting. *)

let canonical cfg =
  let b = Buffer.create 256 in
  let put key value = Printf.bprintf b "%s = %s\n" key value in
  put "method" cfg.method_;
  put "workload" cfg.workload;
  put "variant" (Variant.to_string cfg.variant);
  put "reduction" (string_of_int cfg.reduction);
  put "walkers" (string_of_int cfg.walkers);
  put "blocks" (string_of_int cfg.blocks);
  put "steps" (string_of_int cfg.steps);
  put "tau" (Printf.sprintf "%h" cfg.tau);
  put "domains" (string_of_int cfg.domains);
  put "crowd" (string_of_int cfg.crowd);
  put "delay" (string_of_int cfg.delay);
  let prec_str = function
    | None -> "default"
    | Some `F32 -> "f32"
    | Some `F64 -> "f64"
  in
  put "precision" (prec_str cfg.precision);
  put "precision_dt" (prec_str cfg.precision_dt);
  put "precision_jastrow" (prec_str cfg.precision_jastrow);
  put "precision_inv" (prec_str cfg.precision_inv);
  put "nlpp" (string_of_bool cfg.nlpp);
  put "seed" (string_of_int cfg.seed);
  put "watchdog" (string_of_int cfg.watchdog);
  put "ranks" (string_of_int cfg.ranks);
  put "elastic" (string_of_bool cfg.elastic);
  put "gen_deadline_ms" (string_of_int cfg.gen_deadline_ms);
  Buffer.contents b

let deck_hash cfg = Digest.to_hex (Digest.string (canonical cfg))

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      parse_string (really_input_string ic len))
