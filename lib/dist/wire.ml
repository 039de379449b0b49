open Oqmc_particle
open Oqmc_core

(* Length-prefixed binary frames over pipes: the wire protocol between
   the rank supervisor and its worker processes.

   Frame layout (all integers big-endian):

     u32 length      of (tag + payload), bounds-checked before reading
     u8  tag         message discriminator
     ... payload
     u32 crc32       IEEE CRC-32 over (tag + payload)

   The CRC means a corrupted or desynchronized stream is *detected*
   ([Garbage]) instead of silently mis-parsed — the supervisor treats a
   garbage frame exactly like a crashed rank.  Reads take an optional
   deadline enforced with [Unix.select] before every chunk, so a stalled
   peer surfaces as [Timeout] rather than a hung supervisor.  EOF (the
   peer died and its pipe closed) raises [Closed]. *)

exception Closed
exception Timeout
exception Garbage of string

let garbage fmt = Printf.ksprintf (fun s -> raise (Garbage s)) fmt

(* A frame bigger than this is a desynchronized stream, not a message:
   even a NiO-64 walker batch is far below 256 MiB. *)
let max_frame = 256 * 1024 * 1024

type msg =
  | Hello of { rank : int; pid : int }
  | Init of { count : int }
  | Heartbeat of { gen : int }
  | Begin_gen of { gen : int; e_trial : float }
  | Reduce of {
      gen : int;
      wsum : float;
      esum : float;
      acc : int;
      prop : int;
      n : int;
      telemetry : (char * string * float) list;
          (* piggybacked metric/timer deltas: (kind, key, value) triples
             in [Oqmc_obs.Metrics.wire_kvs] form — 'c' counter deltas,
             'g' gauge values.  Empty when telemetry is off, costing the
             frame a single zero count field. *)
    }
  | Branch of { gen : int }
  | Count of { gen : int; n : int }
  | Give of { gen : int; count : int }
  | Walkers of { gen : int; walkers : Walker.t list }
  | Checkpoint_cmd of { gen : int; e_trial : float }
  | Ack of { gen : int; ok : bool }
  | Finish
  | Final of {
      acc : int;
      prop : int;
      walkers : Walker.t list;
      trace : string;
          (* the rank's serialized span ring ([Oqmc_obs.Trace.serialize])
             shipped once at shutdown; empty when tracing is off *)
    }
  (* ---- elastic membership (supervisor-driven) ----
     [Join] tells a freshly forked rank which generation it is live from
     (it is acked and followed by walker rebalancing relays); [Drain]
     asks a retiring rank to ship its ENTIRE shard, which the rank
     acknowledges with a [Walkers] batch followed by [Leave] — after
     which the supervisor finishes and reaps it.  A rank slot retired
     this way can be refilled by a later [Join]. *)
  | Join of { gen : int; e_trial : float }
  | Drain of { gen : int }
  | Leave of { gen : int; count : int }
  (* ---- job snapshots ----
     At a generation boundary [State_req] asks a rank for everything its
     trajectory depends on beyond the supervisor's own state: the
     bit-exact RNG stream states, lifetime move totals and the shard. *)
  | State_req of { gen : int }
  | State of {
      gen : int;
      master : string;
      pool : string;
      acc : int;
      prop : int;
      walkers : Walker.t list;
    }

(* ---------- encoding ---------- *)

let put_u8 buf n = Buffer.add_uint8 buf n
let put_i32 buf n = Buffer.add_int32_be buf (Int32.of_int n)
let put_i64 buf n = Buffer.add_int64_be buf (Int64.of_int n)
let put_f64 buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)

let put_walkers buf ws =
  put_i32 buf (List.length ws);
  List.iter (fun w -> Walker.encode buf w) ws

let put_str buf s =
  put_i32 buf (String.length s);
  Buffer.add_string buf s

let put_kvs buf kvs =
  put_i32 buf (List.length kvs);
  List.iter
    (fun (kind, key, value) ->
      put_u8 buf (Char.code kind);
      put_str buf key;
      put_f64 buf value)
    kvs

let tag_of = function
  | Hello _ -> 1
  | Heartbeat _ -> 2
  | Begin_gen _ -> 3
  | Reduce _ -> 4
  | Branch _ -> 5
  | Count _ -> 6
  | Give _ -> 7
  | Walkers _ -> 8
  | Checkpoint_cmd _ -> 9
  | Ack _ -> 10
  | Finish -> 11
  | Final _ -> 12
  | Init _ -> 13
  | Join _ -> 14
  | Drain _ -> 15
  | Leave _ -> 16
  | State_req _ -> 17
  | State _ -> 18

let encode_payload buf = function
  | Hello { rank; pid } ->
      put_i32 buf rank;
      put_i32 buf pid
  | Heartbeat { gen } -> put_i32 buf gen
  | Begin_gen { gen; e_trial } ->
      put_i32 buf gen;
      put_f64 buf e_trial
  | Reduce { gen; wsum; esum; acc; prop; n; telemetry } ->
      put_i32 buf gen;
      put_f64 buf wsum;
      put_f64 buf esum;
      put_i64 buf acc;
      put_i64 buf prop;
      put_i32 buf n;
      put_kvs buf telemetry
  | Branch { gen } -> put_i32 buf gen
  | Count { gen; n } ->
      put_i32 buf gen;
      put_i32 buf n
  | Give { gen; count } ->
      put_i32 buf gen;
      put_i32 buf count
  | Walkers { gen; walkers } ->
      put_i32 buf gen;
      put_walkers buf walkers
  | Checkpoint_cmd { gen; e_trial } ->
      put_i32 buf gen;
      put_f64 buf e_trial
  | Ack { gen; ok } ->
      put_i32 buf gen;
      put_u8 buf (if ok then 1 else 0)
  | Finish -> ()
  | Init { count } -> put_i32 buf count
  | Join { gen; e_trial } ->
      put_i32 buf gen;
      put_f64 buf e_trial
  | Drain { gen } -> put_i32 buf gen
  | Leave { gen; count } ->
      put_i32 buf gen;
      put_i32 buf count
  | Final { acc; prop; walkers; trace } ->
      put_i64 buf acc;
      put_i64 buf prop;
      put_walkers buf walkers;
      put_str buf trace
  | State_req { gen } -> put_i32 buf gen
  | State { gen; master; pool; acc; prop; walkers } ->
      put_i32 buf gen;
      put_str buf master;
      put_str buf pool;
      put_i64 buf acc;
      put_i64 buf prop;
      put_walkers buf walkers

(* ---------- decoding ---------- *)

let get_u8 s pos =
  let v = Char.code s.[!pos] in
  incr pos;
  v

let get_i32 s pos =
  let v = Int32.to_int (String.get_int32_be s !pos) in
  pos := !pos + 4;
  v

let get_i64 s pos =
  let v = Int64.to_int (String.get_int64_be s !pos) in
  pos := !pos + 8;
  v

let get_f64 s pos =
  let v = Int64.float_of_bits (String.get_int64_be s !pos) in
  pos := !pos + 8;
  v

let get_walkers s pos =
  let count = get_i32 s pos in
  if count < 0 then garbage "negative walker count %d" count;
  List.init count (fun _ -> Walker.decode s pos)

let get_str s pos =
  let len = get_i32 s pos in
  if len < 0 || !pos + len > String.length s then
    garbage "bad string length %d" len;
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

let get_kvs s pos =
  let count = get_i32 s pos in
  if count < 0 then garbage "negative kv count %d" count;
  List.init count (fun _ ->
      let kind = Char.chr (get_u8 s pos) in
      let key = get_str s pos in
      let value = get_f64 s pos in
      (kind, key, value))

let decode_body body =
  let pos = ref 0 in
  let tag = get_u8 body pos in
  let msg =
    match tag with
    | 1 ->
        let rank = get_i32 body pos in
        let pid = get_i32 body pos in
        Hello { rank; pid }
    | 2 -> Heartbeat { gen = get_i32 body pos }
    | 3 ->
        let gen = get_i32 body pos in
        let e_trial = get_f64 body pos in
        Begin_gen { gen; e_trial }
    | 4 ->
        let gen = get_i32 body pos in
        let wsum = get_f64 body pos in
        let esum = get_f64 body pos in
        let acc = get_i64 body pos in
        let prop = get_i64 body pos in
        let n = get_i32 body pos in
        let telemetry = get_kvs body pos in
        Reduce { gen; wsum; esum; acc; prop; n; telemetry }
    | 5 -> Branch { gen = get_i32 body pos }
    | 6 ->
        let gen = get_i32 body pos in
        let n = get_i32 body pos in
        Count { gen; n }
    | 7 ->
        let gen = get_i32 body pos in
        let count = get_i32 body pos in
        Give { gen; count }
    | 8 ->
        let gen = get_i32 body pos in
        let walkers = get_walkers body pos in
        Walkers { gen; walkers }
    | 9 ->
        let gen = get_i32 body pos in
        let e_trial = get_f64 body pos in
        Checkpoint_cmd { gen; e_trial }
    | 10 ->
        let gen = get_i32 body pos in
        let ok = get_u8 body pos = 1 in
        Ack { gen; ok }
    | 11 -> Finish
    | 13 -> Init { count = get_i32 body pos }
    | 12 ->
        let acc = get_i64 body pos in
        let prop = get_i64 body pos in
        let walkers = get_walkers body pos in
        let trace = get_str body pos in
        Final { acc; prop; walkers; trace }
    | 14 ->
        let gen = get_i32 body pos in
        let e_trial = get_f64 body pos in
        Join { gen; e_trial }
    | 15 -> Drain { gen = get_i32 body pos }
    | 16 ->
        let gen = get_i32 body pos in
        let count = get_i32 body pos in
        Leave { gen; count }
    | 17 -> State_req { gen = get_i32 body pos }
    | 18 ->
        let gen = get_i32 body pos in
        let master = get_str body pos in
        let pool = get_str body pos in
        let acc = get_i64 body pos in
        let prop = get_i64 body pos in
        let walkers = get_walkers body pos in
        State { gen; master; pool; acc; prop; walkers }
    | t -> garbage "unknown tag %d" t
  in
  if !pos <> String.length body then
    garbage "frame has %d trailing byte(s) after tag %d"
      (String.length body - !pos)
      tag;
  msg

let decode body =
  try decode_body body
  with Invalid_argument _ -> garbage "truncated or malformed frame body"

(* ---------- framed IO with deadlines ---------- *)

let now () = Unix.gettimeofday ()

let wait_readable fd deadline =
  match deadline with
  | None -> ()
  | Some t ->
      let rec go () =
        let remaining = t -. now () in
        if remaining <= 0. then raise Timeout
        else begin
          match Unix.select [ fd ] [] [] remaining with
          | [], _, _ -> go ()
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        end
      in
      go ()

let read_exact ?deadline fd buf ofs len =
  let got = ref 0 in
  while !got < len do
    wait_readable fd deadline;
    match Unix.read fd buf (ofs + !got) (len - !got) with
    | 0 -> raise Closed
    | k -> got := !got + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
      ->
        raise Closed
  done

(* A write to a fd whose peer vanished must surface as [Closed], never as
   a fatal SIGPIPE.  Sockets (the serve daemon) hit this constantly —
   clients hang up whenever they like — so the write path masks the
   signal itself instead of trusting every caller to.  The mask is
   process-global and never restored: any process doing wire IO wants
   EPIPE semantics for its whole lifetime. *)
let sigpipe_masked = ref false

let mask_sigpipe () =
  if not !sigpipe_masked then begin
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    sigpipe_masked := true
  end

let write_all fd bytes =
  mask_sigpipe ();
  let len = Bytes.length bytes in
  let sent = ref 0 in
  while !sent < len do
    match Unix.write fd bytes !sent (len - !sent) with
    | k -> sent := !sent + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
      ->
        raise Closed
  done

let frame_bytes msg =
  let body = Buffer.create 64 in
  put_u8 body (tag_of msg);
  encode_payload body msg;
  let body = Buffer.to_bytes body in
  let frame = Buffer.create (Bytes.length body + 8) in
  put_i32 frame (Bytes.length body);
  Buffer.add_bytes frame body;
  put_i32 frame (Checkpoint.crc32 (Bytes.to_string body));
  Buffer.to_bytes frame

let send fd msg = write_all fd (frame_bytes msg)

(* One deliberately corrupted frame (valid length, wrong CRC): the
   [Fault.Rank_garbage] injector's payload. *)
let send_corrupt fd =
  let frame = frame_bytes (Heartbeat { gen = 0 }) in
  let last = Bytes.length frame - 1 in
  Bytes.set frame last (Char.chr (Char.code (Bytes.get frame last) lxor 0x55));
  write_all fd frame

let read_frame ?timeout ~min_len fd =
  let deadline = Option.map (fun s -> now () +. s) timeout in
  let head = Bytes.create 4 in
  read_exact ?deadline fd head 0 4;
  let len = Int32.to_int (Bytes.get_int32_be head 0) in
  if len < min_len || len > max_frame then garbage "bad frame length %d" len;
  let body = Bytes.create len in
  read_exact ?deadline fd body 0 len;
  let trailer = Bytes.create 4 in
  read_exact ?deadline fd trailer 0 4;
  let body = Bytes.to_string body in
  let stored = Int32.to_int (Bytes.get_int32_be trailer 0) land 0xFFFFFFFF in
  let actual = Checkpoint.crc32 body land 0xFFFFFFFF in
  if stored <> actual then
    garbage "crc mismatch: stored %08x, computed %08x" stored actual;
  body

let recv ?timeout fd = decode (read_frame ?timeout ~min_len:1 fd)

(* ---------- raw string frames ----------

   The same length + CRC envelope carrying an opaque string instead of a
   tagged [msg]: the serve daemon's request/reply layer (JSON payloads)
   rides on these, over any fd — Unix-domain sockets included. *)

let send_str fd s =
  if String.length s > max_frame then invalid_arg "Wire.send_str: too large";
  let frame = Buffer.create (String.length s + 8) in
  put_i32 frame (String.length s);
  Buffer.add_string frame s;
  put_i32 frame (Checkpoint.crc32 s);
  write_all fd (Buffer.to_bytes frame)

let recv_str ?timeout fd = read_frame ?timeout ~min_len:0 fd
