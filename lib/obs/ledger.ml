(* Per-rank throughput ledger: rolling windows of the per-generation
   facts the supervisor already collects (shard size, proposed moves,
   generation wall time, exchange traffic, straggle time), summarized
   per rank as an EWMA-smoothed walkers·moves/sec plus windowed wall
   p50/p99 via the bucketed [Metrics.quantile].

   The ledger answers "how fast is each rank *really* going" (the
   Status endpoint / JSONL export).  It is pure bookkeeping — no locks
   beyond its owner's thread, no RNG, no effect on the trajectory. *)

type window = {
  rank : int;
  gens : int; (* generations summarized in this window *)
  last_gen : int;
  walkers_moves_per_s : float; (* EWMA across windows, 0 until first *)
  exchange_walkers : int;
  straggle_s : float;
  wall_p50_s : float;
  wall_p99_s : float;
}

type rankstate = {
  rank : int;
  mutable total_gens : int;
  mutable ewma : float; (* walkers·moves/sec, 0 = no sample yet *)
  mutable win_walls : float list; (* current window, newest first *)
  mutable win_moves_per_s : float list;
  mutable win_exchange : int;
  mutable win_straggle_s : float;
  mutable win_first_gen : int;
  mutable win_last_gen : int;
  mutable last : window option; (* newest completed window *)
}

type t = {
  window : int; (* generations per window *)
  retain : float; (* EWMA retention of the previous value *)
  ranks : (int, rankstate) Hashtbl.t;
}

let create ?(window = 16) ?(retain = 0.8) () =
  if window < 1 then invalid_arg "Ledger.create: window must be >= 1";
  if retain < 0. || retain >= 1. then
    invalid_arg "Ledger.create: retain must be in [0, 1)";
  { window; retain; ranks = Hashtbl.create 8 }

let rankstate t rank =
  match Hashtbl.find_opt t.ranks rank with
  | Some rs -> rs
  | None ->
      let rs =
        {
          rank;
          total_gens = 0;
          ewma = 0.;
          win_walls = [];
          win_moves_per_s = [];
          win_exchange = 0;
          win_straggle_s = 0.;
          win_first_gen = 0;
          win_last_gen = 0;
          last = None;
        }
      in
      Hashtbl.add t.ranks rank rs;
      rs

let wall_quantiles walls =
  let hv = Metrics.hview_of_values walls in
  let q p = match Metrics.quantile hv p with Some (e, _) -> e | None -> 0. in
  (q 0.5, q 0.99)

(* Close the current window: fold its mean throughput into the EWMA and
   publish it as [last]. *)
let roll t rs =
  let n = List.length rs.win_moves_per_s in
  if n > 0 then begin
    let mean =
      List.fold_left ( +. ) 0. rs.win_moves_per_s /. float_of_int n
    in
    rs.ewma <-
      (if rs.ewma = 0. then mean
       else (t.retain *. rs.ewma) +. ((1. -. t.retain) *. mean));
    let p50, p99 = wall_quantiles rs.win_walls in
    rs.last <-
      Some
        {
          rank = rs.rank;
          gens = n;
          last_gen = rs.win_last_gen;
          walkers_moves_per_s = rs.ewma;
          exchange_walkers = rs.win_exchange;
          straggle_s = rs.win_straggle_s;
          wall_p50_s = p50;
          wall_p99_s = p99;
        }
  end;
  rs.win_walls <- [];
  rs.win_moves_per_s <- [];
  rs.win_exchange <- 0;
  rs.win_straggle_s <- 0.;
  rs.win_first_gen <- rs.win_last_gen + 1

(* [moves] is the shard's proposed-move delta for the generation (it
   already scales with the shard's walker count, so moves/wall is the
   walkers·moves/sec figure of merit). *)
let observe_gen t ~rank ~gen ~moves ~wall_s =
  let rs = rankstate t rank in
  rs.total_gens <- rs.total_gens + 1;
  if rs.win_walls = [] then rs.win_first_gen <- gen;
  rs.win_last_gen <- gen;
  if wall_s > 0. then begin
    rs.win_walls <- wall_s :: rs.win_walls;
    rs.win_moves_per_s <-
      (float_of_int moves /. wall_s) :: rs.win_moves_per_s
  end;
  if List.length rs.win_walls >= t.window then roll t rs

let add_exchange t ~rank ~walkers =
  let rs = rankstate t rank in
  rs.win_exchange <- rs.win_exchange + walkers

let add_straggle t ~rank ~seconds =
  let rs = rankstate t rank in
  rs.win_straggle_s <- rs.win_straggle_s +. seconds

let drop_rank t ~rank = Hashtbl.remove t.ranks rank

(* Newest per-rank summary: the completed window when the current one is
   empty, otherwise the partial window (live view), always carrying the
   cross-window EWMA. *)
let window_of rs =
  match (rs.win_moves_per_s, rs.last) with
  | [], Some w -> Some { w with walkers_moves_per_s = rs.ewma }
  | [], None -> None
  | mps, _ ->
      let n = List.length mps in
      let mean = List.fold_left ( +. ) 0. mps /. float_of_int n in
      let live =
        if rs.ewma = 0. then mean else (rs.ewma +. mean) /. 2.
      in
      let p50, p99 = wall_quantiles rs.win_walls in
      Some
        {
          rank = rs.rank;
          gens = n;
          last_gen = rs.win_last_gen;
          walkers_moves_per_s = live;
          exchange_walkers = rs.win_exchange;
          straggle_s = rs.win_straggle_s;
          wall_p50_s = p50;
          wall_p99_s = p99;
        }

let windows t =
  Hashtbl.fold
    (fun _ rs acc -> match window_of rs with Some w -> w :: acc | None -> acc)
    t.ranks []
  |> List.sort (fun (a : window) (b : window) -> compare a.rank b.rank)

let json_of_window (w : window) =
  Jsonx.Obj
    [
      ("rank", Jsonx.Num (float_of_int w.rank));
      ("gens", Jsonx.Num (float_of_int w.gens));
      ("last_gen", Jsonx.Num (float_of_int w.last_gen));
      ("walkers_moves_per_s", Jsonx.Num w.walkers_moves_per_s);
      ("exchange_walkers", Jsonx.Num (float_of_int w.exchange_walkers));
      ("straggle_s", Jsonx.Num w.straggle_s);
      ("wall_p50_s", Jsonx.Num w.wall_p50_s);
      ("wall_p99_s", Jsonx.Num w.wall_p99_s);
    ]

let json t = Jsonx.Arr (List.map json_of_window (windows t))
