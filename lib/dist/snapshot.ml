open Oqmc_core

(* Mid-run job snapshots: the full dynamical state of a supervised run,
   captured at a generation boundary (each rank answers a [State_req]
   with its [State]) so the run can be SUSPENDED and later RESUMED
   bit-identically — the serve layer's crash/deadline recovery
   primitive.

   A checkpoint shard (Checkpoint.save_shard) holds walkers + e_trial
   only; resuming from one replays the walkers but reseeds the RNG
   streams and forgets the measured series, so it is statistically sound
   but not bit-identical.  A job snapshot adds everything else the
   trajectory depends on: per-rank RNG stream states (master + pool),
   lifetime move totals, the measured energy/population series, sample
   and comm counters, and the current trial energy.  Walkers still go
   through the battle-tested shard files; the extra state lands in a
   CRC-trailed [path.job.gen-N] metadata file written atomically next to
   them, rotated like any other checkpoint generation and validated on
   load with fallback past corrupt generations. *)

type rank_state = {
  r_rank : int;
  r_master : string; (* Xoshiro.state_string of the branching stream *)
  r_pool : string; (* ... and of the per-walker split pool *)
  r_acc : int; (* lifetime accepted moves at snapshot time *)
  r_prop : int;
}

type state = {
  gen : int; (* completed generations (absolute) *)
  seed : int; (* identity echo: a snapshot from different *)
  ranks : int; (* run parameters is ignored, not misapplied *)
  target : int;
  e_trial : float;
  energy : float array; (* measured energy series so far *)
  pops : int array; (* measured population series, chronological *)
  samples : int;
  comm_messages : int;
  comm_bytes : int;
  rank_states : rank_state list; (* ascending rank order *)
}

let magic = "oqmc-job-snapshot v1"
let job_path path = path ^ ".job"

let corrupt fmt =
  Printf.ksprintf (fun s -> raise (Checkpoint.Corrupt s)) fmt

let render st =
  let b = Buffer.create 512 in
  Printf.bprintf b "%s\n" magic;
  Printf.bprintf b "gen %d\n" st.gen;
  Printf.bprintf b "seed %d\n" st.seed;
  Printf.bprintf b "ranks %d\n" st.ranks;
  Printf.bprintf b "target %d\n" st.target;
  Printf.bprintf b "e_trial %h\n" st.e_trial;
  Printf.bprintf b "samples %d\n" st.samples;
  Printf.bprintf b "comm %d %d\n" st.comm_messages st.comm_bytes;
  Printf.bprintf b "energy %d" (Array.length st.energy);
  Array.iter (fun e -> Printf.bprintf b " %h" e) st.energy;
  Buffer.add_char b '\n';
  Printf.bprintf b "pops %d" (Array.length st.pops);
  Array.iter (fun n -> Printf.bprintf b " %d" n) st.pops;
  Buffer.add_char b '\n';
  List.iter
    (fun r ->
      Printf.bprintf b "rank %d %d %d %s %s\n" r.r_rank r.r_acc r.r_prop
        r.r_master r.r_pool)
    st.rank_states;
  Buffer.contents b

(* "key N v1 .. vN" with [conv] per token. *)
let counted_line ~key ~conv line =
  match String.split_on_char ' ' (String.trim line) with
  | k :: n :: rest when k = key -> (
      match int_of_string_opt n with
      | Some n when n >= 0 && List.length rest = n ->
          Array.of_list (List.map conv rest)
      | _ -> corrupt "job snapshot: bad %s line" key)
  | _ -> corrupt "job snapshot: expected %s line" key

let int_field ~key line =
  match String.split_on_char ' ' (String.trim line) with
  | [ k; v ] when k = key -> (
      match int_of_string_opt v with
      | Some v -> v
      | None -> corrupt "job snapshot: bad %s" key)
  | _ -> corrupt "job snapshot: expected %s" key

let parse_rank_line line =
  match String.split_on_char ' ' (String.trim line) with
  | "rank" :: r :: acc :: prop :: rest when List.length rest = 12 ->
      let master = String.concat " " (List.filteri (fun i _ -> i < 6) rest) in
      let pool = String.concat " " (List.filteri (fun i _ -> i >= 6) rest) in
      {
        r_rank = int_of_string r;
        r_master = master;
        r_pool = pool;
        r_acc = int_of_string acc;
        r_prop = int_of_string prop;
      }
  | _ -> corrupt "job snapshot: bad rank line"

let parse payload =
  match
    String.split_on_char '\n' payload
    |> List.filter (fun l -> String.trim l <> "")
  with
  | m :: gen_l :: seed_l :: ranks_l :: target_l :: et_l :: samples_l
    :: comm_l :: energy_l :: pops_l :: rank_lines ->
      if m <> magic then corrupt "job snapshot: bad magic %S" m;
      let comm_messages, comm_bytes =
        match String.split_on_char ' ' (String.trim comm_l) with
        | [ "comm"; a; b ] -> (int_of_string a, int_of_string b)
        | _ -> corrupt "job snapshot: bad comm line"
      in
      let e_trial =
        match String.split_on_char ' ' (String.trim et_l) with
        | [ "e_trial"; v ] -> float_of_string v
        | _ -> corrupt "job snapshot: bad e_trial line"
      in
      let st =
        {
          gen = int_field ~key:"gen" gen_l;
          seed = int_field ~key:"seed" seed_l;
          ranks = int_field ~key:"ranks" ranks_l;
          target = int_field ~key:"target" target_l;
          e_trial;
          samples = int_field ~key:"samples" samples_l;
          comm_messages;
          comm_bytes;
          energy = counted_line ~key:"energy" ~conv:float_of_string energy_l;
          pops = counted_line ~key:"pops" ~conv:int_of_string pops_l;
          rank_states = List.map parse_rank_line rank_lines;
        }
      in
      if List.length st.rank_states <> st.ranks then
        corrupt "job snapshot: %d rank lines for %d ranks"
          (List.length st.rank_states) st.ranks;
      st
  | _ -> corrupt "job snapshot: truncated"

let trailer_len = String.length "crc 00000000\n"

let split_trailer text =
  let len = String.length text in
  if len < trailer_len then corrupt "job snapshot: too short";
  let payload = String.sub text 0 (len - trailer_len) in
  let stored =
    try Scanf.sscanf (String.sub text (len - trailer_len) trailer_len) "crc %x" Fun.id
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      corrupt "job snapshot: missing crc trailer"
  in
  if stored <> Checkpoint.crc32 payload land 0xFFFFFFFF then
    corrupt "job snapshot: crc mismatch";
  payload

let save ?(keep = 2) ~path st shards =
  if keep < 1 then invalid_arg "Snapshot.save: keep < 1";
  List.iter
    (fun (rank, ws) ->
      Checkpoint.save_shard ~keep ~path ~rank ~gen:st.gen ~e_trial:st.e_trial
        ws)
    shards;
  (* The metadata file lands LAST: a crash between the two leaves the
     previous complete generation as the newest loadable snapshot. *)
  let payload = render st in
  let file = Checkpoint.generation_path ~path:(job_path path) st.gen in
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc payload;
  Printf.fprintf oc "crc %08x\n" (Checkpoint.crc32 payload land 0xFFFFFFFF);
  close_out oc;
  Sys.rename tmp file;
  let gens = Checkpoint.list_generations ~path:(job_path path) in
  let n = List.length gens in
  List.iteri
    (fun i (_, f) ->
      if i < n - keep then try Sys.remove f with Sys_error _ -> ())
    gens

let read_file f = In_channel.with_open_bin f In_channel.input_all

let load_latest ~path =
  let gens = List.rev (Checkpoint.list_generations ~path:(job_path path)) in
  let rec try_gens = function
    | [] -> None
    | (gen, file) :: rest -> (
        match
          let st = parse (split_trailer (read_file file)) in
          if st.gen <> gen then corrupt "job snapshot: gen mismatch";
          let shards =
            List.map
              (fun rs ->
                let _e, ws = Checkpoint.load_shard ~path ~rank:rs.r_rank ~gen in
                (rs.r_rank, ws))
              st.rank_states
          in
          (st, shards)
        with
        | v -> Some v
        | exception
            ( Checkpoint.Corrupt _ | Sys_error _ | Failure _
            | Invalid_argument _ ) ->
            try_gens rest)
  in
  try_gens gens
