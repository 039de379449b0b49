open Oqmc_particle
open Oqmc_containers

(* Deterministic, seeded fault injection for the run-integrity tests.

   Every recovery path in the checkpoint/watchdog subsystem is proved by
   firing the corresponding injector: NaN local energies mid-sweep,
   bit-flipped walker-buffer entries, truncated or garbled checkpoint
   files, and transient IO failures during checkpoint writes.  All
   injectors are disarmed by default and cost one atomic/ref read on the
   hot path; [reset] returns the harness to the disarmed state. *)

(* ---------- transient IO failures ---------- *)

type io_point = Checkpoint_write | Checkpoint_rename

let write_failures = Atomic.make 0
let rename_failures = Atomic.make 0
let io_injected = Atomic.make 0

let slot = function
  | Checkpoint_write -> write_failures
  | Checkpoint_rename -> rename_failures

let arm_io_failure point ~times =
  if times < 0 then invalid_arg "Fault.arm_io_failure: times < 0";
  Atomic.set (slot point) times

(* Consume one armed failure; true when the caller must raise. *)
let should_fail_io point =
  let s = slot point in
  let rec go () =
    let v = Atomic.get s in
    if v <= 0 then false
    else if Atomic.compare_and_set s v (v - 1) then begin
      Atomic.incr io_injected;
      true
    end
    else go ()
  in
  go ()

let io_injected_count () = Atomic.get io_injected

(* ---------- NaN local energies ---------- *)

type nan_plan = { seed : int; rate : float }

let nan_energy : nan_plan option ref = ref None
let nans_injected = Atomic.make 0

let arm_nan_energy ~seed ~rate =
  if rate < 0. || rate > 1. then
    invalid_arg "Fault.arm_nan_energy: rate outside [0,1]";
  nan_energy := Some { seed; rate }

(* Applied by the DMC sweep to every measured local energy.  The decision
   is a pure hash of (seed, generation, walker id), so injections are
   reproducible regardless of domain count or scheduling. *)
let tamper_energy ~gen ~walker_id e =
  match !nan_energy with
  | None -> e
  | Some { seed; rate } ->
      if
        Hashtbl.hash (seed, gen, walker_id) mod 10_000
        < int_of_float (rate *. 10_000.)
      then begin
        Atomic.incr nans_injected;
        Float.nan
      end
      else e

let nans_injected_count () = Atomic.get nans_injected

(* ---------- rank-level faults ----------

   Process-level failures of the supervised multi-rank layer, armed
   INSIDE the worker rank process (the supervisor forwards each rank its
   own plan before the generation loop starts).  A fault fires when the
   rank begins the generation it is armed for, exactly once:

   - [Rank_kill]: the rank SIGKILLs itself — a segfault/OOM stand-in;
   - [Rank_stall s]: the rank sleeps [s] seconds without heartbeating,
     tripping the supervisor's heartbeat deadline;
   - [Rank_garbage]: the rank emits one corrupted wire frame, exercising
     the protocol's CRC rejection path;
   - [Rank_disk_full n]: the rank's next [n] checkpoint writes fail with
     [Sys_error] (armed through [arm_io_failure]), simulating a full or
     flaky filesystem under the shard-save path;
   - [Rank_kill_draining p]: the rank SIGKILLs itself while draining in
     that generation (a graceful leave), before or after it ships its
     batch.  It does not fire at the generation's start: the drain
     handler consumes it through [drain_fault_due]. *)

type drain_point = Before_batch | After_batch

type rank_fault =
  | Rank_kill
  | Rank_stall of float
  | Rank_garbage
  | Rank_disk_full of int
  | Rank_kill_draining of drain_point

let rank_faults : (int, rank_fault) Hashtbl.t = Hashtbl.create 8

let arm_rank_fault ~gen f =
  if gen < 0 then invalid_arg "Fault.arm_rank_fault: gen < 0";
  Hashtbl.replace rank_faults gen f

(* Consume the fault armed for [gen], if any; a drain fault stays armed
   for the drain. *)
let rank_fault_due ~gen =
  match Hashtbl.find_opt rank_faults gen with
  | Some (Rank_kill_draining _) | None -> None
  | Some f ->
      Hashtbl.remove rank_faults gen;
      Some f

let drain_fault_due ~gen =
  match Hashtbl.find_opt rank_faults gen with
  | Some (Rank_kill_draining p) ->
      Hashtbl.remove rank_faults gen;
      Some p
  | _ -> None

let reset () =
  Atomic.set write_failures 0;
  Atomic.set rename_failures 0;
  Atomic.set io_injected 0;
  nan_energy := None;
  Atomic.set nans_injected 0;
  Hashtbl.reset rank_faults

(* ---------- direct walker poisoners ---------- *)

let poison_energy (w : Walker.t) = w.Walker.e_local <- Float.nan
let poison_weight (w : Walker.t) = w.Walker.weight <- Float.nan

let poison_position (w : Walker.t) ~index =
  Walker.Aos.set w.Walker.r index (Vec3.make Float.nan 0. 0.)

let drift_log_psi (w : Walker.t) ~delta =
  w.Walker.log_psi <- w.Walker.log_psi +. delta

let flip_buffer_bit (w : Walker.t) ~index ~bit =
  if bit < 0 || bit > 63 then invalid_arg "Fault.flip_buffer_bit: bit";
  let buf = w.Walker.buffer in
  let data = Wbuffer.contents buf in
  if index < 0 || index >= Array.length data then
    invalid_arg "Fault.flip_buffer_bit: index";
  data.(index) <-
    Int64.float_of_bits
      (Int64.logxor
         (Int64.bits_of_float data.(index))
         (Int64.shift_left 1L bit));
  Wbuffer.load buf data

(* ---------- checkpoint-file corrupters ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

(* Keep only the first [lines] lines of the file. *)
let truncate_file ~path ~lines =
  if lines < 0 then invalid_arg "Fault.truncate_file: lines < 0";
  let content = read_file path in
  let len = String.length content in
  let rec cut i remaining =
    if remaining = 0 || i >= len then i
    else
      match String.index_from_opt content i '\n' with
      | None -> len
      | Some j -> cut (j + 1) (remaining - 1)
  in
  write_file path (String.sub content 0 (cut 0 lines))

(* Keep only the first [bytes] bytes of the file. *)
let truncate_file_bytes ~path ~bytes =
  if bytes < 0 then invalid_arg "Fault.truncate_file_bytes: bytes < 0";
  let content = read_file path in
  write_file path (String.sub content 0 (min bytes (String.length content)))

(* Deterministically corrupt ~1/64 of the bytes (at least one) by xoring
   with 0x55, which always changes the byte. *)
let garble_file ~path ~seed =
  let content = Bytes.of_string (read_file path) in
  let n = Bytes.length content in
  if n > 0 then begin
    let rng = Oqmc_rng.Xoshiro.create seed in
    for _ = 1 to max 1 (n / 64) do
      let i =
        min (n - 1) (int_of_float (Oqmc_rng.Xoshiro.uniform rng *. float_of_int n))
      in
      Bytes.set content i (Char.chr (Char.code (Bytes.get content i) lxor 0x55))
    done;
    write_file path (Bytes.to_string content)
  end
