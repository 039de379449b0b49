open Oqmc_particle
open Oqmc_containers

(* Walker watchdog: the run-integrity layer of the DMC driver.

   Mixed-precision engines (Ref+MP/Current) maintain the wavefunction
   state incrementally; the paper's safeguard is a periodic
   full-precision recompute.  This module turns that into an active
   defence: every generation the population is scanned for NaN/Inf
   poison (cheap, O(walkers x particles)), and every [check_every]
   generations a sampled subset is audited against a full recompute —
   both the incrementally-maintained log Psi scalar and the serialized
   state buffer are compared to freshly recomputed ground truth.
   Walkers that pass the audit are healed in place (the recomputed state
   is written back); poisoned or drifted walkers are quarantined and
   replaced by clones of healthy ones, so a single corrupted walker can
   never poison the ensemble averages or the trial-energy feedback. *)

type config = {
  check_every : int;
      (* generations between recompute audits; the NaN/Inf scan runs
         every generation regardless *)
  drift_tol : float; (* |stored log Psi - recomputed| quarantine bound *)
  buffer_tol : float; (* max relative buffer-entry deviation bound *)
  sample : int; (* walkers audited per recompute pass *)
}

let default_config =
  { check_every = 10; drift_tol = 1e-3; buffer_tol = 1e-2; sample = 4 }

type stats = {
  mutable scans : int;
  mutable audits : int; (* walkers put through the recompute audit *)
  mutable quarantined : int;
  mutable recoveries : int;
  mutable drift_max : float;
  mutable checkpoints_written : int;
  mutable checkpoint_failures : int;
}

let create_stats () =
  {
    scans = 0;
    audits = 0;
    quarantined = 0;
    recoveries = 0;
    drift_max = 0.;
    checkpoints_written = 0;
    checkpoint_failures = 0;
  }

let copy_stats (s : stats) = { s with scans = s.scans }

(* ---------- poison scan ---------- *)

let walker_finite (w : Walker.t) =
  Float.is_finite w.Walker.weight
  && Float.is_finite w.Walker.e_local
  && Float.is_finite w.Walker.log_psi
  &&
  let ok = ref true in
  for i = 0 to Walker.n_particles w - 1 do
    let p = Walker.Aos.get w.Walker.r i in
    if
      not
        (Float.is_finite p.Vec3.x && Float.is_finite p.Vec3.y
       && Float.is_finite p.Vec3.z)
    then ok := false
  done;
  !ok

(* ---------- recompute audit ---------- *)

(* Audit one walker against a full recompute from its positions.  On
   pass, the recomputed state is saved back into the walker (healing
   accumulated incremental error); on fail the walker is left as-is for
   quarantine.  Returns (trustworthy, observed drift); pure with respect
   to the shared stats so audits can run in parallel, one per domain
   engine. *)
let audit cfg (e : Engine_api.t) scratch (w : Walker.t) =
  e.Engine_api.load_walker w;
  let fresh = e.Engine_api.log_psi () in
  let drift = Float.abs (w.Walker.log_psi -. fresh) in
  (* Ground-truth serialization of the recomputed state, compared
     entry-wise against the walker's buffer and carried orbital rows:
     catches corruption the scalar comparison cannot see (flipped bits
     in stored matrices, a damaged row the next restore would use). *)
  e.Engine_api.register_walker scratch;
  let truth = Wbuffer.contents scratch.Walker.buffer in
  let mine = Wbuffer.contents w.Walker.buffer in
  let deviation =
    if Array.length truth <> Array.length mine then Float.infinity
    else begin
      let dev = ref 0. in
      Array.iteri
        (fun i t ->
          let d = Float.abs (t -. mine.(i)) /. (1. +. Float.abs t) in
          if not (Float.is_finite d) then dev := Float.infinity
          else dev := Float.max !dev d)
        truth;
      !dev
    end
  in
  (* A walker without rows has nothing to check: its restore rebuilds
     them. *)
  let row_deviation = Walker.rows_deviation ~truth:scratch w in
  let ok =
    Float.is_finite fresh && drift <= cfg.drift_tol
    && deviation <= cfg.buffer_tol
    && row_deviation <= cfg.buffer_tol
  in
  if ok then e.Engine_api.save_walker w;
  (ok, drift)

(* ---------- quarantine and recovery ---------- *)

let replacements (st : stats) (e : Engine_api.t) ~rng ~survivors ~count =
  match survivors with
  | [] ->
      (* Total loss: re-seed fresh walkers from the engine so the run
         can continue rather than propagate a poisoned ensemble. *)
      List.init count (fun _ ->
          let w = Walker.create e.Engine_api.n_electrons in
          e.Engine_api.randomize rng;
          e.Engine_api.register_walker w;
          w.Walker.e_local <- e.Engine_api.measure ();
          st.recoveries <- st.recoveries + 1;
          w)
  | s ->
      let arr = Array.of_list s in
      List.init count (fun i ->
          let clone = Walker.copy arr.(i mod Array.length arr) in
          clone.Walker.weight <- 1.;
          clone.Walker.age <- 0;
          clone.Walker.multiplicity <- 1;
          st.recoveries <- st.recoveries + 1;
          clone)

(* One watchdog pass over the population: always the poison scan, plus
   the sampled recompute audit when [gen] lands on [check_every].
   Quarantined walkers are replaced by clones of healthy ones (weight
   reset to 1) so the population size is preserved. *)
let watchdog cfg (st : stats) ~gen ~rng (runner : Runner.t)
    (pop : Population.t) =
  let module Trace = Oqmc_obs.Trace in
  let module Metrics = Oqmc_obs.Metrics in
  st.scans <- st.scans + 1;
  let e = Runner.engine runner 0 in
  let ws = Population.walkers pop in
  let healthy, poisoned = List.partition walker_finite ws in
  let drifted = ref [] in
  (if cfg.check_every > 0 && gen mod cfg.check_every = 0 then
     let arr = Array.of_list healthy in
     let nh = Array.length arr in
     let sample = min cfg.sample nh in
     if sample > 0 then begin
       let stride = max 1 (nh / sample) in
       (* Rotate the sampled subset between passes so every walker is
          eventually audited. *)
       let offset = if stride > 1 then gen / cfg.check_every mod stride else 0 in
       let picked = ref [] in
       let checked = ref 0 in
       let i = ref offset in
       while !checked < sample && !i < nh do
         picked := arr.(!i) :: !picked;
         incr checked;
         i := !i + stride
       done;
       (* Recompute audits are the expensive part of the watchdog:
          fan them out over the pool, one engine per domain, collecting
          per-walker verdicts; stats reduce serially afterwards. *)
       let audited =
         Array.map
           (fun w -> (w, ref (true, 0.)))
           (Array.of_list (List.rev !picked))
       in
       Trace.with_span
         ~args:[ ("sample", string_of_int sample) ]
         "integrity.audit"
         (fun () ->
           Runner.iter_walkers runner audited ~f:(fun e (w, res) ->
               let scratch = Walker.create e.Engine_api.n_electrons in
               res := audit cfg e scratch w));
       Array.iter
         (fun (w, res) ->
           let ok, drift = !res in
           st.audits <- st.audits + 1;
           Metrics.inc (Metrics.counter "integrity.audits");
           if Float.is_finite drift then
             st.drift_max <- Float.max st.drift_max drift;
           if not ok then drifted := w :: !drifted)
         audited
     end);
  let bad = poisoned @ !drifted in
  if bad <> [] then begin
    st.quarantined <- st.quarantined + List.length bad;
    (* Quarantine events are rare and load-bearing for post-mortems:
       each one lands as an instant marker on the timeline plus a
       registry counter, attributing poison vs drift. *)
    Metrics.add (Metrics.counter "integrity.quarantined") (List.length bad);
    Trace.instant
      ~args:
        [
          ("gen", string_of_int gen);
          ("poisoned", string_of_int (List.length poisoned));
          ("drifted", string_of_int (List.length !drifted));
        ]
      "integrity.quarantine";
    (* Filter by walker id through a hash set: ids are unique per
       process, so this is physical identity without the O(|healthy| ×
       |drifted|) [List.memq] scan that stalled large populations. *)
    let drift_ids = Hashtbl.create (max 8 (2 * List.length !drifted)) in
    List.iter (fun w -> Hashtbl.replace drift_ids w.Walker.id ()) !drifted;
    let survivors =
      List.filter (fun w -> not (Hashtbl.mem drift_ids w.Walker.id)) healthy
    in
    let fresh =
      replacements st e ~rng ~survivors ~count:(List.length bad)
    in
    Metrics.add (Metrics.counter "integrity.recoveries") (List.length fresh);
    Population.set_walkers pop (survivors @ fresh)
  end
