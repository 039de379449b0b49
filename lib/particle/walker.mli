open Oqmc_containers

(** A Monte Carlo walker: an electron configuration plus DMC bookkeeping
    and the anonymous state buffer.  Always double precision — walkers are
    what gets serialized between ranks — except for the carried orbital
    rows, which stay in process. *)

module Aos : module type of Pos_aos.Make (Precision.F64)

(** The determinants' orbital rows at the walker's positions (φ, ∇φ,
    ∇²φ per electron), at the inverse's storage precision.  An engine
    fills them on save when its rows are valid and blits them back on
    restore, so a restore needs no orbital evaluation.  Rows are a pure
    function of the positions: they are not serialized ({!encode}, the
    checkpoint and {!message_bytes} leave them out), and a walker
    without them is restored by rebuilding them. *)
type rows =
  | No_rows
  | Rows_f32 of
      (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
  | Rows_f64 of
      (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  r : Aos.t;
  mutable weight : float;
  mutable multiplicity : int;
  mutable age : int;
  mutable log_psi : float;
  mutable e_local : float;
  buffer : Wbuffer.t;
  mutable rows : rows;
  id : int;
}

val create : int -> t
(** Fresh walker for [n] particles, unit weight, empty buffer. *)

val n_particles : t -> int

val copy : t -> t
(** Deep copy with a fresh id (used by DMC branching); the carried rows
    are copied too. *)

val rows_of :
  (float, 'e) Bigarray.kind ->
  t ->
  (float, 'e, Bigarray.c_layout) Bigarray.Array1.t option
(** The carried rows, if the walker has rows of this kind. *)

val rows_for :
  (float, 'e) Bigarray.kind ->
  t ->
  int ->
  (float, 'e, Bigarray.c_layout) Bigarray.Array1.t
(** [rows_for kind w len]: the walker's row store of this kind and
    length, to be filled by the caller — the current one when it fits,
    else a fresh one that replaces it. *)

val drop_rows : t -> unit
(** Forget the carried rows (the next restore rebuilds them). *)

val rows_deviation : truth:t -> t -> float
(** [rows_deviation ~truth w]: the largest relative deviation
    |t − m| / (1 + |t|) of [w]'s carried rows from [truth]'s, entry by
    entry; 0 when [w] carries none, infinite when the two stores differ
    in kind or length, or [truth] has none, or an entry is NaN.
    Allocates nothing. *)

val message_bytes : t -> int
(** Serialized size: positions, scalar properties and state buffer (no
    rows). *)

(** {1 Binary wire codec}

    The big-endian serialized form a real rank exchange ships between
    processes.  Floats travel as raw IEEE-754 bits, so a roundtrip is
    bit-exact; the walker [id] is not serialized — decoding mints a
    fresh process-local id, like {!copy}. *)

val encode : Buffer.t -> t -> unit
(** Append the serialized walker to [buf]. *)

val decode : string -> int ref -> t
(** Decode one walker starting at [!pos], advancing [pos] past it.
    @raise Invalid_argument on malformed or truncated input. *)
