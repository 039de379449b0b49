open Oqmc_core

(** How the supervisor reaches its ranks.  The generation protocol is
    written once against {!S}; a transport only moves {!Wire} messages
    between the supervisor and a rank's {!Rank.handle}. *)

module type S = sig
  type t
  (** The links of one run. *)

  type link
  (** One rank incarnation. *)

  val create : factory:(int -> Engine_api.t) -> t

  val spawn : t -> Rank.config -> Rank.init option -> link
  (** Start a rank; its first reply is [Hello]. *)

  val send : link -> Wire.msg -> unit

  val recv : timeout:float -> link -> Wire.msg * float
  (** The next reply and the time it was produced.
      @raise Wire.Timeout when none arrives in time. *)

  val ready : timeout:float -> link list -> link list
  (** The links with a reply waiting, waiting up to [timeout] for one. *)

  val kill : link -> unit
  (** Tear a link down now (idempotent). *)

  val close : link -> unit
  (** Tear a link down after its [Final] or [Leave] (idempotent). *)

  val teardown : t -> unit
  (** Kill every link still up and restore what [create] changed. *)
end

module Pipes : S
(** One forked process per rank ({!Rank.serve}), framed {!Wire} over a
    pipe pair.  Reads honour [timeout]; a dead rank surfaces as
    [Wire.Closed], a corrupt stream as [Wire.Garbage].  SIGPIPE is
    ignored between [create] and [teardown]. *)

module Mailbox : S
(** In-process ranks: [send] runs the command through {!Rank.handle}
    right away and queues its replies.  Nothing is serialized and
    nothing times out ([recv] on an empty queue raises [Wire.Timeout]
    at once).  Shard checkpoints are written synchronously, so no
    writer domain outlives the run. *)
