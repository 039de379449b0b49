open Oqmc_particle
open Oqmc_containers

(* Crash-safe checkpoint/restart for walker populations (format v2).

   Production DMC runs over days checkpoint their walker ensemble so a
   job can resume mid-propagation; a crash *during* the checkpoint write
   must never cost the run.  The v2 format keeps the versioned
   plain-text stream of v1 (portable, diffable, hex-floats so restart is
   bit-exact) and adds the integrity machinery:

   - the file is rendered in memory, written to [path.tmp] and published
     by an atomic rename, so a reader never sees a half-written file;
   - a CRC-32 trailer over the payload detects truncation and bit rot;
   - transient IO errors are retried with exponential backoff;
   - [save_generation] rotates [path.gen-N] files, keeping the last K,
     and [load_latest] falls back to the newest *valid* generation when
     the latest is corrupt.

   v1 files (no CRC trailer) are still readable. *)

let magic = "OQMC-CHECKPOINT-2"
let magic_v1 = "OQMC-CHECKPOINT-1"

exception Corrupt of string

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* ---------- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_of ~len ~get =
  let table = Lazy.force crc_table in
  let crc = ref 0xFFFFFFFF in
  for i = 0 to len - 1 do
    crc := table.((!crc lxor Char.code (get i)) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let crc32 s = crc32_of ~len:(String.length s) ~get:(String.unsafe_get s)

(* Append the trailer to a rendered payload in place: the CRC is read
   from the buffer itself, so the checkpoint text is never copied out. *)
let add_crc_trailer buf =
  let crc = crc32_of ~len:(Buffer.length buf) ~get:(Buffer.nth buf) in
  Printf.bprintf buf "crc %08x\n" crc

(* ---------- rendering ---------- *)

let write_walker buf (w : Walker.t) =
  let n = Walker.n_particles w in
  Printf.bprintf buf "walker %d %h %d %d %h %h\n" n w.Walker.weight
    w.Walker.multiplicity w.Walker.age w.Walker.log_psi w.Walker.e_local;
  for i = 0 to n - 1 do
    let p = Walker.Aos.get w.Walker.r i in
    Printf.bprintf buf "%h %h %h\n" p.Vec3.x p.Vec3.y p.Vec3.z
  done;
  let b = Wbuffer.contents w.Walker.buffer in
  Printf.bprintf buf "buffer %d\n" (Array.length b);
  Array.iter (fun v -> Printf.bprintf buf "%h\n" v) b

let render ~e_trial walkers =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "%s\n" magic;
  Printf.bprintf buf "e_trial %h\n" e_trial;
  Printf.bprintf buf "walkers %d\n" (List.length walkers);
  List.iter (write_walker buf) walkers;
  add_crc_trailer buf;
  buf

(* ---------- atomic write with retry ---------- *)

let write_atomic ~path data =
  if Fault.should_fail_io Fault.Checkpoint_write then
    raise (Sys_error (path ^ ": injected write failure"));
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Buffer.output_buffer oc data;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  if Fault.should_fail_io Fault.Checkpoint_rename then begin
    (try Sys.remove tmp with Sys_error _ -> ());
    raise (Sys_error (path ^ ": injected rename failure"))
  end;
  Sys.rename tmp path

let save ?(retries = 3) ?(backoff = 0.05) ~path ~e_trial walkers =
  Oqmc_obs.Trace.with_span
    ~args:[ ("path", Filename.basename path) ]
    "checkpoint.save"
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let data = render ~e_trial walkers in
  let rec attempt k =
    try write_atomic ~path data
    with Sys_error _ when k < retries ->
      Unix.sleepf (backoff *. float_of_int (1 lsl k));
      attempt (k + 1)
  in
  attempt 0;
  Oqmc_obs.Metrics.observe
    (Oqmc_obs.Metrics.histogram "checkpoint.save_s")
    (Unix.gettimeofday () -. t0)

(* ---------- strict parsing ---------- *)

type cursor = { lines : string array; mutable pos : int }

let next c what =
  if c.pos >= Array.length c.lines then
    fail "unexpected end of file reading %s" what
  else begin
    let l = c.lines.(c.pos) in
    c.pos <- c.pos + 1;
    l
  end

let scan c what fmt f =
  let line = next c what in
  try Scanf.sscanf line fmt f
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    fail "malformed %s line: %S" what line

let read_walker c =
  let n, weight, multiplicity, age, log_psi, e_local =
    scan c "walker header" "walker %d %h %d %d %h %h%!"
      (fun a b c d e f -> (a, b, c, d, e, f))
  in
  if n < 1 then fail "walker with %d particles" n;
  let w = Walker.create n in
  w.Walker.weight <- weight;
  w.Walker.multiplicity <- multiplicity;
  w.Walker.age <- age;
  w.Walker.log_psi <- log_psi;
  w.Walker.e_local <- e_local;
  for i = 0 to n - 1 do
    let x, y, z = scan c "position" "%h %h %h%!" (fun x y z -> (x, y, z)) in
    Walker.Aos.set w.Walker.r i (Vec3.make x y z)
  done;
  let nbuf = scan c "buffer header" "buffer %d%!" Fun.id in
  if nbuf < 0 then fail "negative buffer length";
  if nbuf > Array.length c.lines - c.pos then
    fail "unexpected end of file reading buffer value";
  Wbuffer.load w.Walker.buffer
    (Array.init nbuf (fun _ -> scan c "buffer value" "%h%!" Fun.id));
  w

(* Parse payload lines (everything after the magic); strict: the walker
   count must agree with the stream and nothing may follow it. *)
let parse_payload lines =
  let c = { lines; pos = 0 } in
  let e_trial = scan c "e_trial" "e_trial %h%!" Fun.id in
  let count = scan c "walker count" "walkers %d%!" Fun.id in
  if count < 0 then fail "negative walker count";
  let walkers = ref [] in
  for _ = 1 to count do
    walkers := read_walker c :: !walkers
  done;
  if c.pos <> Array.length lines then
    fail "trailing garbage: %d unconsumed line(s) after walker %d"
      (Array.length lines - c.pos)
      count;
  (e_trial, List.rev !walkers)

let load_string content =
  let lines =
    (* A well-formed file ends with a newline, so splitting leaves one
       trailing "" to drop; anything else is parsed as-is and rejected. *)
    match List.rev (String.split_on_char '\n' content) with
    | "" :: rest -> List.rev rest
    | _ -> String.split_on_char '\n' content
  in
  match lines with
  | [] -> fail "empty checkpoint"
  | first :: rest when first = magic_v1 ->
      parse_payload (Array.of_list rest)
  | first :: _ when first = magic -> (
      match List.rev lines with
      | crc_line :: rev_payload ->
          let expected =
            try Scanf.sscanf crc_line "crc %x%!" Fun.id
            with Scanf.Scan_failure _ | Failure _ | End_of_file ->
              fail "missing or malformed crc trailer: %S" crc_line
          in
          let payload_lines = List.rev rev_payload in
          let payload =
            String.concat "" (List.map (fun l -> l ^ "\n") payload_lines)
          in
          let actual = crc32 payload in
          if actual <> expected then
            fail "crc mismatch: stored %08x, computed %08x" expected actual;
          parse_payload (Array.of_list (List.tl payload_lines))
      | [] -> fail "empty checkpoint")
  | first :: _ -> fail "bad magic %S" first

let load ~path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  load_string content

(* ---------- generation rotation ---------- *)

let generation_path ~path gen = Printf.sprintf "%s.gen-%d" path gen

let list_generations ~path =
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".gen-" in
  let plen = String.length prefix in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun name ->
             if String.length name > plen && String.sub name 0 plen = prefix
             then
               match
                 int_of_string_opt
                   (String.sub name plen (String.length name - plen))
               with
               | Some g when g >= 0 -> Some (g, Filename.concat dir name)
               | _ -> None
             else None)
      |> List.sort (fun (a, _) (b, _) -> compare a b)

let save_generation ?retries ?backoff ?(keep = 3) ~path ~gen ~e_trial walkers
    =
  if keep < 1 then invalid_arg "Checkpoint.save_generation: keep < 1";
  if gen < 0 then invalid_arg "Checkpoint.save_generation: gen < 0";
  save ?retries ?backoff ~path:(generation_path ~path gen) ~e_trial walkers;
  let gens = list_generations ~path in
  let excess = List.length gens - keep in
  if excess > 0 then
    List.iteri
      (fun i (_, p) ->
        if i < excess then try Sys.remove p with Sys_error _ -> ())
      gens

(* ---------- double-buffered asynchronous saves ----------

   The elastic supervisor overlaps checkpoint IO with the next
   generation's compute: the shard image is RENDERED synchronously (so a
   later mutation of the walkers cannot tear it) and then written +
   rotated from a background domain while the rank returns to its sweep.
   At most one write is ever in flight — queueing a new save first joins
   the previous one (double buffering), so a slow disk backs pressure up
   instead of piling up writers.  The caller acks the *render*; whether
   the publish landed is discovered by [drain] (and, on restart, by
   [latest_complete] revalidating every shard it considers). *)

module Async = struct
  type t = {
    mutable pending : bool Domain.t option;
    mutable failures : int; (* background writes that did not land *)
  }

  let create () = { pending = None; failures = 0 }

  (* Join the in-flight write, if any; false when it failed. *)
  let drain t =
    match t.pending with
    | None -> true
    | Some d ->
        t.pending <- None;
        let ok = try Domain.join d with _ -> false in
        if not ok then t.failures <- t.failures + 1;
        ok

  let failures t = t.failures

  let save_generation ?(retries = 3) ?(backoff = 0.05) ?(keep = 3) t ~path
      ~gen ~e_trial walkers =
    if keep < 1 then invalid_arg "Checkpoint.Async.save_generation: keep < 1";
    if gen < 0 then invalid_arg "Checkpoint.Async.save_generation: gen < 0";
    let prev_ok = drain t in
    let data = render ~e_trial walkers in
    let gpath = generation_path ~path gen in
    t.pending <-
      Some
        (Domain.spawn (fun () ->
             match
               let rec attempt k =
                 try write_atomic ~path:gpath data
                 with Sys_error _ when k < retries ->
                   Unix.sleepf (backoff *. float_of_int (1 lsl k));
                   attempt (k + 1)
               in
               attempt 0
             with
             | () ->
                 let gens = list_generations ~path in
                 let excess = List.length gens - keep in
                 if excess > 0 then
                   List.iteri
                     (fun i (_, p) ->
                       if i < excess then
                         try Sys.remove p with Sys_error _ -> ())
                     gens;
                 true
             | exception Sys_error _ -> false));
    prev_ok
end

let load_latest ~path =
  let candidates =
    List.rev (list_generations ~path)
    @ (if Sys.file_exists path then [ (0, path) ] else [])
  in
  if candidates = [] then fail "no checkpoint found at %s" path;
  let rec go = function
    | [] -> fail "no valid checkpoint generation at %s" path
    | (g, p) :: rest -> (
        match load ~path:p with
        | res -> (g, res)
        | exception Corrupt _ -> go rest
        | exception Sys_error _ -> go rest)
  in
  go candidates

(* ---------- per-rank shards and the manifest ----------

   A multi-rank run checkpoints each rank's walker shard independently
   ([path.rank-R.gen-N], reusing the generation rotation above) so the
   supervisor can respawn one crashed rank from *its* newest valid shard
   without touching the others.  After every checkpoint round the
   supervisor publishes a manifest recording which ranks acked at which
   generation; [latest_complete] finds the newest generation for which
   every rank's shard still loads cleanly — the restart point of a full
   run resume. *)

let manifest_magic = "OQMC-MANIFEST-1"

let shard_path ~path ~rank =
  if rank < 0 then invalid_arg "Checkpoint.shard_path: rank < 0";
  Printf.sprintf "%s.rank-%d" path rank

let save_shard ?retries ?backoff ?keep ~path ~rank ~gen ~e_trial walkers =
  save_generation ?retries ?backoff ?keep
    ~path:(shard_path ~path ~rank)
    ~gen ~e_trial walkers

let load_latest_shard ~path ~rank =
  load_latest ~path:(shard_path ~path ~rank)

let load_shard ~path ~rank ~gen =
  load ~path:(generation_path ~path:(shard_path ~path ~rank) gen)

let manifest_path ~path = path ^ ".manifest"

let save_manifest ?retries ?backoff ~path ~gen ~ranks () =
  if gen < 0 then invalid_arg "Checkpoint.save_manifest: gen < 0";
  let buf = Buffer.create 128 in
  Printf.bprintf buf "%s\n" manifest_magic;
  Printf.bprintf buf "gen %d\n" gen;
  Printf.bprintf buf "ranks %s\n"
    (String.concat " " (List.map string_of_int ranks));
  add_crc_trailer buf;
  let mpath = manifest_path ~path in
  let retries = Option.value retries ~default:3 in
  let backoff = Option.value backoff ~default:0.05 in
  let rec attempt k =
    try write_atomic ~path:mpath buf
    with Sys_error _ when k < retries ->
      Unix.sleepf (backoff *. float_of_int (1 lsl k));
      attempt (k + 1)
  in
  attempt 0

let load_manifest ~path =
  let mpath = manifest_path ~path in
  let ic = try open_in_bin mpath with Sys_error e -> fail "%s" e in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lines =
    match List.rev (String.split_on_char '\n' content) with
    | "" :: rest -> Array.of_list (List.rev rest)
    | _ -> Array.of_list (String.split_on_char '\n' content)
  in
  if Array.length lines <> 4 then fail "manifest: expected 4 lines";
  if lines.(0) <> manifest_magic then fail "manifest: bad magic %S" lines.(0);
  let payload = lines.(0) ^ "\n" ^ lines.(1) ^ "\n" ^ lines.(2) ^ "\n" in
  let stored =
    try Scanf.sscanf lines.(3) "crc %x%!" Fun.id
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      fail "manifest: malformed crc line %S" lines.(3)
  in
  if crc32 payload <> stored then fail "manifest: crc mismatch";
  let gen =
    try Scanf.sscanf lines.(1) "gen %d%!" Fun.id
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      fail "manifest: malformed gen line %S" lines.(1)
  in
  let plen = String.length "ranks" in
  if String.length lines.(2) < plen || String.sub lines.(2) 0 plen <> "ranks"
  then fail "manifest: malformed ranks line %S" lines.(2);
  let ranks =
    String.sub lines.(2) plen (String.length lines.(2) - plen)
    |> String.split_on_char ' '
    |> List.filter_map (fun s ->
           if String.trim s = "" then None
           else
             match int_of_string_opt (String.trim s) with
             | Some r when r >= 0 -> Some r
             | _ -> fail "manifest: bad rank entry %S" s)
  in
  (gen, ranks)

(* Newest generation at which EVERY rank 0..ranks-1 has a shard that
   loads cleanly; falls back past generations with any corrupt or
   missing shard. *)
let latest_complete ~path ~ranks =
  if ranks < 1 then invalid_arg "Checkpoint.latest_complete: ranks < 1";
  let gens_of r =
    List.rev_map fst (list_generations ~path:(shard_path ~path ~rank:r))
  in
  let common =
    match List.init ranks gens_of with
    | [] -> []
    | g0 :: rest ->
        List.filter (fun g -> List.for_all (List.mem g) rest) g0
  in
  let sorted = List.sort (fun a b -> compare b a) common in
  let shard_ok r g =
    match load_shard ~path ~rank:r ~gen:g with
    | _ -> true
    | exception (Corrupt _ | Sys_error _) -> false
  in
  List.find_opt
    (fun g -> List.for_all (fun r -> shard_ok r g) (List.init ranks Fun.id))
    sorted
