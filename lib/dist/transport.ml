open Oqmc_core

(* The supervisor's two ways of reaching a rank.  Both carry the same
   Wire messages into the same [Rank.handle]; they differ only in where
   the handler runs — a forked process behind a pipe pair, or this
   process behind a reply queue. *)

module type S = sig
  type t
  type link

  val create : factory:(int -> Engine_api.t) -> t
  val spawn : t -> Rank.config -> Rank.init option -> link
  val send : link -> Wire.msg -> unit
  val recv : timeout:float -> link -> Wire.msg * float
  val ready : timeout:float -> link list -> link list
  val kill : link -> unit
  val close : link -> unit
  val teardown : t -> unit
end

let now = Oqmc_containers.Timers.now

module Pipes = struct
  type link = {
    pid : int;
    r_fd : Unix.file_descr; (* supervisor reads rank output here *)
    w_fd : Unix.file_descr; (* supervisor writes commands here *)
    mutable closed : bool; (* pipe ends already closed (torn down) *)
  }

  type t = {
    factory : int -> Engine_api.t;
    mutable links : link list; (* every link not yet torn down *)
    old_sigpipe : Sys.signal_behavior;
  }

  let create ~factory =
    let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    { factory; links = []; old_sigpipe }

  (* Wait for [pid] without losing the reap to a signal ([EINTR] restarts
     the wait) or double-reaping ([ECHILD] means some earlier path
     already collected the child — fine either way). *)
  let rec waitpid_robust pid =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_robust pid
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

  (* Fork one rank.  The child must close every other live pipe end, or
     a crashed sibling's EOF would never surface; torn-down fds are
     excluded, since their numbers get reused by the very pipes the new
     child is being given.  The child builds its engines, runs the
     protocol and _exits without touching the parent's buffered
     channels. *)
  let spawn t cfg init =
    t.links <- List.filter (fun l -> not l.closed) t.links;
    let sup_r, rank_w = Unix.pipe ~cloexec:false () in
    let rank_r, sup_w = Unix.pipe ~cloexec:false () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        close_fd sup_r;
        close_fd sup_w;
        List.iter
          (fun l ->
            close_fd l.r_fd;
            close_fd l.w_fd)
          t.links;
        let code =
          try
            Rank.serve ~cfg ~factory:t.factory ~init ~fd_in:rank_r
              ~fd_out:rank_w;
            0
          with _ -> 3
        in
        Unix._exit code
    | pid ->
        close_fd rank_r;
        close_fd rank_w;
        let l = { pid; r_fd = sup_r; w_fd = sup_w; closed = false } in
        t.links <- l :: t.links;
        l

  let send l m = Wire.send l.w_fd m

  let recv ~timeout l =
    let m = Wire.recv ~timeout l.r_fd in
    (m, now ())

  let ready ~timeout links =
    let fds = List.map (fun l -> l.r_fd) links in
    match Unix.select fds [] [] timeout with
    | readable, _, _ -> List.filter (fun l -> List.mem l.r_fd readable) links
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> []

  let shut l ~signal =
    if not l.closed then begin
      close_fd l.r_fd;
      close_fd l.w_fd;
      l.closed <- true;
      (if signal then
         try Unix.kill l.pid Sys.sigkill
         with Unix.Unix_error ((Unix.ESRCH | Unix.EPERM), _, _) -> ());
      waitpid_robust l.pid
    end

  let kill l = shut l ~signal:true
  let close l = shut l ~signal:false

  let teardown t =
    List.iter kill t.links;
    Sys.set_signal Sys.sigpipe t.old_sigpipe
end

module Mailbox = struct
  type link = {
    rank : Rank.t;
    replies : (Wire.msg * float) Queue.t;
    mutable closed : bool;
  }

  type t = { factory : int -> Engine_api.t; mutable links : link list }

  let create ~factory = { factory; links = [] }

  (* A background checkpoint writer is a domain of THIS process, and a
     process that ever ran one can no longer fork: write shards
     synchronously. *)
  let spawn t cfg init =
    let replies = Queue.create () in
    let rank =
      Rank.start ~factory:t.factory ~init
        ~emit:(fun m -> Queue.push (m, now ()) replies)
        { cfg with Rank.async_checkpoint = false }
    in
    let l = { rank; replies; closed = false } in
    t.links <- l :: List.filter (fun l -> not l.closed) t.links;
    l

  let send l m = ignore (Rank.handle l.rank m)

  let recv ~timeout:_ l =
    match Queue.take_opt l.replies with
    | Some r -> r
    | None -> raise Wire.Timeout

  let ready ~timeout:_ links =
    List.filter (fun l -> not (Queue.is_empty l.replies)) links

  let kill l =
    if not l.closed then begin
      l.closed <- true;
      Rank.shutdown l.rank
    end

  let close = kill
  let teardown t = List.iter kill t.links
end
