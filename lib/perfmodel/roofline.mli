(** Cache-aware roofline model (Williams 2009; Ilic 2014): achieved rate
    is min(compute rate, stream × AI × BW) with the memory level chosen by
    the kernel's working-set hint.  Regenerates Fig. 7 and the Table 2
    projections. *)

type point = {
  kernel : string;
  ai : float;
  gflops : float;
  attainable : float;  (** roof at this AI *)
  time_s : float;
}

val level_index : Machine.t -> Opcount.level_hint -> int
(** [Cache] → the first level; [Dram] → the first level that is not an
    on-die cache. *)

val project : ?level:int -> Machine.t -> Opcount.kernel_cost -> point
(** [level] overrides the kernel's working-set hint (the DDR-only
    experiment). *)

val project_all : ?level:int -> Machine.t -> Opcount.kernel_cost list -> point list
val total_time : point list -> float

val speedup :
  ?level:int ->
  Machine.t ->
  ref_costs:Opcount.kernel_cost list ->
  cur_costs:Opcount.kernel_cost list ->
  float

val profile : point list -> (string * float) list
(** Normalized per-kernel time fractions (the Fig. 2 shape). *)
