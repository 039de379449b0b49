#!/bin/sh
# Repository test entry point: the tier-1 gate plus the crash-recovery
# smoke (4 supervised ranks, one SIGKILLed mid-run and respawned from
# its checkpoint shard), the observability smoke (trace + telemetry
# artifacts validated end to end), the crowd-batching bench smoke
# (pipeline/scalar bit-identity + zero-allocation kernel assertions),
# the chaos soak (a deterministic multi-hundred-generation run per seed
# under injected kills/stalls/garbage/disk-full + elastic join/leave
# membership; OQMC_CHAOS_LONG=1 extends the matrix), the serve smoke (daemon boot,
# cold job, cache-hit resubmission, deadline drain, per-job telemetry;
# emits BENCH_serve.json), and the serve soak (SIGKILL the daemon with
# jobs running and queued, restart, prove bit-identical completion and
# a loss-free journal, then a seeded service-chaos mix).  The status
# smoke exercises the live-introspection path (daemon Status snapshot
# with ledger windows and the audit.efficiency gauge, the efficiency
# audit on harmonic + reduced NiO-32, and an injected rank crash whose
# flight-recorder postmortem must replay), the obs bench records
# exposition-render and ledger-update overheads into BENCH_obs.json,
# and validate_bench.sh gates every BENCH_*.json on the shared header
# (schema version, precision, delay).
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest
dune build @recovery-smoke
dune build @obs-smoke
dune build @bench-smoke
dune build @status-smoke
dune build test/chaos_soak.exe
OQMC_BENCH_OUT="$PWD/BENCH_chaos.json" ./_build/default/test/chaos_soak.exe
dune build test/serve_smoke.exe test/serve_soak.exe
OQMC_BENCH_OUT="$PWD/BENCH_serve.json" ./_build/default/test/serve_smoke.exe
./_build/default/test/serve_soak.exe
dune build bench/main.exe
dune exec bench/main.exe -- --obs --json "$PWD/BENCH_obs.json"
scripts/validate_bench.sh
