open Oqmc_particle
open Oqmc_rng

(* DMC walker population: stochastic branching on walker weights, the
   trial-energy feedback that holds the population at its target, and a
   simulated-rank load-balance step that reports the communication volume
   (walker messages) the paper's Fig.-1 runs incur. *)

type t = {
  mutable walkers : Walker.t list;
  target : int;
  mutable e_trial : float;
  feedback : float; (* population-control feedback strength *)
}

let create ~target ~e_trial ?(feedback = 1.) walkers =
  if target < 1 then invalid_arg "Population.create: target < 1";
  { walkers; target; e_trial; feedback }

let size t = List.length t.walkers
let walkers t = t.walkers
let e_trial t = t.e_trial

(* Replace the ensemble wholesale — the quarantine/recovery path of the
   integrity watchdog. *)
let set_walkers t ws =
  if ws = [] then invalid_arg "Population.set_walkers: empty population";
  t.walkers <- ws

let average_weight t =
  match t.walkers with
  | [] -> 0.
  | ws ->
      List.fold_left (fun acc w -> acc +. w.Walker.weight) 0. ws
      /. float_of_int (List.length ws)

(* Reweight one walker for a step from E_L to E_L' (Alg. 1 L13). *)
let dmc_weight ~tau ~e_trial ~e_old ~e_new w =
  let arg = tau *. (e_trial -. (0.5 *. (e_old +. e_new))) in
  (* Clamp the branching factor to keep a bad configuration from
     exploding the population. *)
  let factor = exp (Float.max (-2.) (Float.min 2. arg)) in
  w.Walker.weight <- w.Walker.weight *. factor

(* Stochastic branching: each walker yields floor(weight + u) copies of
   unit weight; walkers with zero copies die. *)
let branch t rng =
  let spawned =
    List.concat_map
      (fun w ->
        let copies = int_of_float (w.Walker.weight +. Xoshiro.uniform rng) in
        let copies = min copies 4 (* limit runaway multiplication *) in
        w.Walker.multiplicity <- copies;
        if copies = 0 then []
        else begin
          w.Walker.weight <- 1.;
          w :: List.init (copies - 1) (fun _ -> Walker.copy w)
        end)
      t.walkers
  in
  (* Guard against extinction: keep at least one walker alive.  The
     survivor is a *fresh* unit-weight clone — the dead walker's stale
     weight/multiplicity/age must not leak into the reborn ensemble. *)
  t.walkers <-
    (match spawned with
    | [] -> (
        match t.walkers with
        | [] -> []
        | w :: _ ->
            let fresh = Walker.copy w in
            fresh.Walker.weight <- 1.;
            fresh.Walker.multiplicity <- 1;
            fresh.Walker.age <- 0;
            [ fresh ])
    | ws -> ws)

(* Weighted sums feeding the mixed estimator: (Σw, Σw·E_L) in ensemble
   order, so every caller reduces in the same float order. *)
let weighted_energy_sums t =
  List.fold_left
    (fun (ws, es) w ->
      (ws +. w.Walker.weight, es +. (w.Walker.weight *. w.Walker.e_local)))
    (0., 0.) t.walkers

(* Trial-energy feedback (Alg. 1 L14), exposed as a pure function so the
   multi-rank supervisor can apply the *global* update from reduced
   counts. *)
let trial_energy_update ~feedback ~tau ~target ~population ~e_estimate =
  let pop = float_of_int (max 1 population) in
  e_estimate -. (feedback /. tau *. log (pop /. float_of_int target))

let update_trial_energy t ~tau ~e_estimate =
  t.e_trial <-
    trial_energy_update ~feedback:t.feedback ~tau ~target:t.target
      ~population:(size t) ~e_estimate

(* Simulated load balancing across [ranks]: walkers are re-spread evenly;
   returns the number of walker messages and bytes a real MPI exchange
   would send (the send/recv of serialized Walker objects in Sec. 8). *)
type balance_report = { messages : int; bytes : int; imbalance : float }

let load_balance t ~ranks =
  if ranks < 1 then invalid_arg "Population.load_balance: ranks < 1";
  let n = size t in
  let per = n / ranks and extra = n mod ranks in
  let ideal r = per + if r < extra then 1 else 0 in
  (* Walkers are currently distributed round-robin by index; compute how
     many must move to restore the ideal split after branching changed
     counts. *)
  let counts = Array.make ranks 0 in
  List.iteri (fun i _ -> counts.(i mod ranks) <- counts.(i mod ranks) + 1)
    t.walkers;
  let moved = ref 0 in
  let maxc = ref 0 and minc = ref max_int in
  Array.iteri
    (fun r c ->
      maxc := max !maxc c;
      minc := min !minc c;
      if c > ideal r then moved := !moved + (c - ideal r))
    counts;
  let message_bytes =
    match t.walkers with [] -> 0 | w :: _ -> Walker.message_bytes w
  in
  {
    messages = !moved;
    bytes = !moved * message_bytes;
    imbalance =
      (if n = 0 then 0.
       else float_of_int (!maxc - !minc) /. float_of_int (max 1 per));
  }

(* ---------- real walker exchange ----------

   The primitives the multi-rank layer uses to actually *move* walkers
   between per-rank shard populations (each shard is a [t]), instead of
   the simulated accounting above.  Everything here is deterministic in
   shard order, so the forked supervisor and the in-process reference
   executor produce bit-identical trajectories. *)

(* Remove and return the LAST [k] walkers (in their original order);
   the remainder keeps its order.  [k] is clamped to the shard size. *)
let give t k =
  if k < 0 then invalid_arg "Population.give: negative count";
  let n = List.length t.walkers in
  let k = min k n in
  let rec split i acc rest =
    if i = 0 then (List.rev acc, rest)
    else
      match rest with
      | [] -> (List.rev acc, [])
      | w :: ws -> split (i - 1) (w :: acc) ws
  in
  let kept, given = split (n - k) [] t.walkers in
  t.walkers <- kept;
  given

(* Append received walkers at the end of the shard. *)
let absorb t ws = t.walkers <- t.walkers @ ws

(* Remove and return the WHOLE shard (in order) — the graceful-leave
   path of the elastic supervisor: a retiring rank drains itself into
   the survivors before being reaped. *)
let drain t =
  let ws = t.walkers in
  t.walkers <- [];
  ws

type move = { src : int; dst : int; count : int }

(* Deterministic all-to-ideal rebalancing plan: [counts.(i)] walkers
   currently live on shard [i]; the ideal is the even split with the
   remainder on the lowest indices.  Surplus shards (ascending) are
   matched greedily against deficit shards (ascending).  Σsurplus =
   Σdeficit, so the recursion exhausts both lists together. *)
let plan counts =
  let k = Array.length counts in
  if k = 0 then []
  else begin
    let total = Array.fold_left ( + ) 0 counts in
    let per = total / k and extra = total mod k in
    let ideal i = per + if i < extra then 1 else 0 in
    let surplus = ref [] and deficit = ref [] in
    for i = k - 1 downto 0 do
      let diff = counts.(i) - ideal i in
      if diff > 0 then surplus := (i, diff) :: !surplus
      else if diff < 0 then deficit := (i, -diff) :: !deficit
    done;
    let rec go s d acc =
      match (s, d) with
      | [], _ | _, [] -> List.rev acc
      | (si, sc) :: srest, (di, dc) :: drest ->
          let m = min sc dc in
          go
            (if sc = m then srest else (si, sc - m) :: srest)
            (if dc = m then drest else (di, dc - m) :: drest)
            ({ src = si; dst = di; count = m } :: acc)
    in
    go !surplus !deficit []
  end
