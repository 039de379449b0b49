open Oqmc_containers

(* Walker-parallel execution over OCaml 5 domains — the stand-in for the
   paper's OpenMP thread-level parallelism (Fig. 4).  Each domain owns one
   compute engine (E_th / Psi_th) created once by the factory; the shared
   read-only SPO table lives happily on the shared heap.

   Worker domains are a PERSISTENT POOL: spawned once at [create] and
   reused for every parallel region (each VMC/DMC generation,
   equilibration sweep and watchdog audit) instead of the former
   spawn/join per call — O(generations × domains) spawn cost becomes
   O(domains) per run.  Work is distributed dynamically: indices are
   pulled from a shared [Atomic.t] counter in small grains
   (work-stealing-lite), so uneven per-walker costs after branching no
   longer serialize on the slowest static chunk, and an uneven
   [n mod n_domains] can never hand a domain an empty chunk while
   another does double work.

   Parking protocol: workers sleep on a condition variable keyed by an
   epoch counter; posting a region bumps the epoch under the mutex and
   broadcasts.  Completion uses a join-free epoch handshake — each
   worker decrements [active] under the mutex when its grains are
   exhausted, and the caller waits for [active = 0].  The mutex
   release/acquire pair establishes the happens-before edge that
   [Domain.join] used to provide, so all worker writes (walker records,
   timers) are published to the caller. *)

(* Process-lifetime count of [Domain.spawn] calls issued by this module —
   pinned by the pool tests: a run must spawn exactly [n_domains - 1]
   domains total, not per generation. *)
let spawns = Atomic.make 0
let total_spawns () = Atomic.get spawns

(* Grain of indices pulled per counter fetch.  Small enough that every
   domain can get several grains (load balance), large enough to keep
   counter contention negligible.  Pure — pinned by tests. *)
let grain_for ~n ~n_domains =
  if n <= 0 then 1 else max 1 (min 32 (n / (n_domains * 4)))

(* Per-region grain resolution: explicit [?grain] beats [grain_for]. *)
let resolve_grain ?grain ~n ~n_domains () =
  match grain with
  | Some g when g >= 1 -> g
  | Some _ -> invalid_arg "Runner.parallel_for: grain < 1"
  | None -> grain_for ~n ~n_domains

type pool = {
  mutex : Mutex.t;
  work_ready : Condition.t; (* workers: a new epoch was posted *)
  work_done : Condition.t; (* caller: all workers finished the epoch *)
  mutable epoch : int;
  mutable job : (int -> int -> unit) option; (* domain -> index -> unit *)
  mutable total : int;
  mutable grain : int;
  next : int Atomic.t;
  mutable active : int; (* workers still inside the current epoch *)
  mutable failures : (int * exn) list;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

type sweeper = Fused of Crowd.t | Scalar of Engine_api.t

type t = {
  sweepers : sweeper array;
  n_domains : int;
  pool : pool option; (* None iff n_domains = 1: plain sequential loop *)
  mutable shut : bool;
}

exception Domain_failures of (int * exn) list

(* Pull and run grains until the counter is exhausted; never raises. *)
let run_grains ~job ~next ~total ~grain ~domain =
  try
    let continue_ = ref true in
    while !continue_ do
      let lo = Atomic.fetch_and_add next grain in
      if lo >= total then continue_ := false
      else
        let hi = min total (lo + grain) in
        for i = lo to hi - 1 do
          job domain i
        done
    done;
    None
  with e -> Some e

let worker pool d () =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while (not pool.stop) && pool.epoch = !seen do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      seen := pool.epoch;
      let job = Option.get pool.job in
      let total = pool.total and grain = pool.grain in
      Mutex.unlock pool.mutex;
      let err =
        run_grains ~job ~next:pool.next ~total ~grain ~domain:d
      in
      Mutex.lock pool.mutex;
      (match err with
      | Some e -> pool.failures <- (d, e) :: pool.failures
      | None -> ());
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.mutex
    end
  done

(* Domain [d]'s engines are [factory (d * crowd + s)], so every slot of
   every domain gets a distinct engine seed. *)
let make_sweeper ~crowd ~(factory : int -> Engine_api.t) d =
  let base = d * crowd in
  let e = factory base in
  match e.Engine_api.crowd_hook with
  | Engine_api.No_crowd_hook -> Scalar e
  | _ ->
      let factory i = if i = base then e else factory i in
      Fused (Crowd.create ~factory ~base ~size:crowd ())

let slot_engine u s =
  match u with Fused c -> Crowd.engine c s | Scalar e -> e

let width u = match u with Fused c -> Crowd.size c | Scalar _ -> 1

let sweep u ~active ~rng ~tau =
  match u with
  | Fused c -> Crowd.sweep c ~active ~rng ~tau
  | Scalar e ->
      if active <> 1 then invalid_arg "Runner.sweep: active";
      [| e.Engine_api.sweep (rng 0) ~tau |]

(* [make_sweeper]'s rule stated per variant, before any engine exists. *)
let max_crowd ~variant ~walkers =
  match Variant.layout variant with
  | Variant.Store -> 1
  | Variant.Otf -> max 1 walkers

let create ~crowd ~walkers ~n_domains ~(factory : int -> Engine_api.t) =
  if n_domains < 1 then invalid_arg "Runner.create: n_domains < 1";
  if crowd < 1 then invalid_arg "Runner.create: crowd < 1";
  (* slots past the run's walkers would never hold one *)
  let crowd = min crowd (max 1 walkers) in
  let sweepers = Array.init n_domains (make_sweeper ~crowd ~factory) in
  let pool =
    if n_domains = 1 then None
    else begin
      let p =
        {
          mutex = Mutex.create ();
          work_ready = Condition.create ();
          work_done = Condition.create ();
          epoch = 0;
          job = None;
          total = 0;
          grain = 1;
          next = Atomic.make 0;
          active = 0;
          failures = [];
          stop = false;
          workers = [||];
        }
      in
      p.workers <-
        Array.init (n_domains - 1) (fun i ->
            Atomic.incr spawns;
            Domain.spawn (worker p (i + 1)));
      Some p
    end
  in
  { sweepers; n_domains; pool; shut = false }

let crowd t = width t.sweepers.(0)
let engine t i = slot_engine t.sweepers.(i) 0

(* Merge the kernel timers of every slot of every domain into one set.
   Per-walker work (measure, restore, NLPP) lands on the timers of the
   slot holding the walker; batched crowd stages time only on slot 0, so
   nothing is counted twice. *)
let merged_timers t =
  let out = Timers.create () in
  Array.iter
    (fun u ->
      for s = 0 to width u - 1 do
        Timers.merge ~into:out (slot_engine u s).Engine_api.timers
      done)
    t.sweepers;
  out

(* The merged totals as [timer_us.*] counters (integral µs) for the
   efficiency audit — the counters the multi-rank executors feed too. *)
let export_timers t =
  List.iter
    (fun (k, sec, _) ->
      if sec > 0. then
        Oqmc_obs.Metrics.add
          (Oqmc_obs.Metrics.counter ("timer_us." ^ k))
          (int_of_float (Float.round (sec *. 1e6))))
    (Timers.snapshot (merged_timers t))

(* Run [f ~domain i] for every [i < n] exactly once, the caller acting
   as domain 0 and pool workers as domains 1..n_domains-1.  All workers
   always return to the parked state, even when some indices raise: a
   lone failure is re-raised as-is, several are aggregated into
   [Domain_failures] in domain order — nothing is lost and no worker is
   leaked, poisoned epochs leave the pool usable. *)
let parallel_for ?grain t ~n ~(f : domain:int -> int -> unit) =
  if t.shut then invalid_arg "Runner: pool is shut down";
  if n > 0 then
    Oqmc_obs.Trace.with_span
      ~args:[ ("n", string_of_int n) ]
      "runner.region"
    @@ fun () ->
    match t.pool with
    | None ->
        ignore (resolve_grain ?grain ~n ~n_domains:1 ()); (* validate *)
        for i = 0 to n - 1 do
          f ~domain:0 i
        done
    | Some p ->
        let job d i = f ~domain:d i in
        (* resolve (and validate) before taking the mutex: a raise while
           holding it would poison the pool *)
        let g = resolve_grain ?grain ~n ~n_domains:t.n_domains () in
        Mutex.lock p.mutex;
        p.job <- Some job;
        p.total <- n;
        p.grain <- g;
        Atomic.set p.next 0;
        p.active <- t.n_domains - 1;
        p.failures <- [];
        p.epoch <- p.epoch + 1;
        Condition.broadcast p.work_ready;
        Mutex.unlock p.mutex;
        let my_err =
          run_grains ~job ~next:p.next ~total:n ~grain:p.grain ~domain:0
        in
        Mutex.lock p.mutex;
        (match my_err with
        | Some e -> p.failures <- (0, e) :: p.failures
        | None -> ());
        while p.active > 0 do
          Condition.wait p.work_done p.mutex
        done;
        let fs = p.failures in
        p.job <- None;
        Mutex.unlock p.mutex;
        let fs = List.sort (fun (a, _) (b, _) -> compare a b) fs in
        (match fs with
        | [] -> ()
        | [ (_, e) ] -> raise e
        | fs -> raise (Domain_failures fs))

(* Apply [f engine walker] to every walker; each executing domain uses
   its own engine regardless of which indices it pulls. *)
let iter_walkers t (walkers : 'w array) ~(f : Engine_api.t -> 'w -> unit) =
  parallel_for t
    ~n:(Array.length walkers)
    ~f:(fun ~domain i -> f (engine t domain) walkers.(i))

(* Split walkers [0..n-1] into groups of the sweep-unit width (the last
   may be partial); restore each group into the executing domain's unit
   and run [f unit ~lo ~m] on it. *)
let iter_groups t ~n ~walker ~f =
  let g = width t.sweepers.(0) in
  parallel_for t
    ~n:((n + g - 1) / g)
    ~f:(fun ~domain i ->
      let u = t.sweepers.(domain) and lo = i * g in
      let m = min g (n - lo) in
      for s = 0 to m - 1 do
        (slot_engine u s).Engine_api.restore_walker (walker (lo + s))
      done;
      f u ~lo ~m)

(* Park-to-join transition: wake every worker with the stop flag and
   join them.  Idempotent; the runner only rejects further parallel
   regions (single-domain use keeps working — there is nothing to
   leak). *)
let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    match t.pool with
    | None -> ()
    | Some p ->
        Mutex.lock p.mutex;
        p.stop <- true;
        Condition.broadcast p.work_ready;
        Mutex.unlock p.mutex;
        Array.iter Domain.join p.workers;
        p.workers <- [||]
  end

(* Convenience wrapper: run [f runner] and always return the workers to
   the OS, even on exceptions. *)
let with_runner ~crowd ~walkers ~n_domains ~factory f =
  let t = create ~crowd ~walkers ~n_domains ~factory in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
