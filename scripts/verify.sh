#!/usr/bin/env bash
# Repo verification gate. Run from anywhere; operates on the repo root.
#
#   scripts/verify.sh                 # tier-1 gate + format + dependency check + lint
#   scripts/verify.sh --quick         # alias for the default gate (fmt + deps + clippy
#                                     # + tier-1 + the fused-op bitwise suites
#                                     # + the tape and GEMM unit tests)
#   scripts/verify.sh --full          # additionally run the whole workspace suite
#                                     # (every crate's own tests, at each thread count)
#   scripts/verify.sh --conformance   # additionally run the oracle gate
#   scripts/verify.sh --chaos         # additionally run the fault-injection gate
#   scripts/verify.sh --adapt         # additionally run the streaming-adaptation gate
#   scripts/verify.sh --durability    # additionally run the crash-consistency gate
#   scripts/verify.sh --scale         # additionally run the big-city scale gate
#   scripts/verify.sh --all           # every stage, with a per-stage timing summary
#
# Tier-1 (the gate CI enforces) is the root package: its integration
# tests in tests/ exercise every crate end-to-end. The default gate also
# runs three unit suites, which live outside the root package: the
# fused tape ops' bitwise suites (`cargo test -p stod-nn --lib
# layers::cheby`: `cheby_conv` and `cheby_pool` against their composed
# oracles, forward bits and every gradient, and the no-grad `cheby_pool`
# against the training tape's eval output, at 1 and 4 threads), the
# tape's own tests (`cargo test -p stod-nn --lib tape`: among them the
# no-grad mode's constant leaves, pruned backward state and panicking
# backward), and the GEMM kernel's (`cargo test -p stod-tensor --lib --
# ops::gemm ops::matmul`: every element of `matmul` and `matmul_tn` over
# the tile-boundary corpus equals its path's per-element chain, and
# `matmul_tn` equals `matmul` of the transposed copy bit for bit), the
# last two at STOD_THREADS=1 and 4.
#
# The default gate also checks that the workspace builds on std alone:
# every normal (non-dev) dependency of a workspace crate must resolve to a
# workspace crate. It lists `cargo tree --offline -e normal --workspace
# --exclude proptest --prefix none` and fails on any line that is not a
# `stod-*` crate or the root `od-forecast` package. `proptest`, the one
# vendored stub under compat/, is a dev-dependency and so is skipped.
#
# No stage times anything against a committed artifact: speed is measured
# by the repository benchmark (`benchmark --compare`, see BENCHMARK.json),
# and the work a training step and a forecast do is pinned exactly by the
# tier-1 `tests/work_pin.rs`.
#
# Stages that sweep kernel thread counts (full, conformance, chaos, adapt,
# durability, scale) run at STOD_THREADS=1 and 4 by default;
# STOD_VERIFY_THREADS overrides the list (e.g. STOD_VERIFY_THREADS=4 in a CI
# matrix leg).
#
# --conformance runs the differential fuzzer + metamorphic suite in
# crates/conformance at a bounded budget (STOD_FUZZ_CASES, default 256
# cases per kernel) at 1 and 4 threads, and fails if any minimized
# counterexample was dumped to results/conformance/.
#
# --chaos runs the seeded fault-injection suites at their full seed
# matrices (STOD_CHAOS=full widens tests/chaos_gate.rs beyond the tier-1
# smoke slice): kill-and-resume bitwise identity, worker-panic
# containment, corrupt-checkpoint rejection and interrupted-save
# atomicity, each at 1 and 4 threads.
#
# --adapt runs the streaming-adaptation gate (tests/adapt_gate.rs) at its
# full drift-seed matrix (STOD_CHAOS=full widens the tier-1 smoke slice)
# at 1 and 4 threads — drift auto-promotion past the incumbent and the
# Kalman corrector while two clients keep forecasting (every client
# answered, the serve ledger balanced), stationary no-churn,
# kill/corrupt/crash chaos with bitwise recovery, and decision/weight
# determinism. No stage times a cycle: the benchmark's traced
# `serve_live` runs report its stage times (`adapt.*`).
#
# --scale runs the big-city scale gate: the CSR slice (the csr_props
# suite of CSR graph builders against their dense references, the AF
# model unit tests, and the sparse spmm metamorphic test) at each thread
# count, then the city probe (`M=city`, STOD_SCALE=city) — the
# dense-vs-CSR propagation sweep with its in-process >= 3x speedup assert
# at N = 1000, the 500-region end-to-end train slice, and a forecast served
# from a registry under the STOD_MODEL_MEM budget.
#
# --durability runs the crash-consistency gate (tests/durability_gate.rs)
# at its full matrix (STOD_CHAOS=full widens the tier-1 kill-point slice)
# at 1 and 4 threads: the seeded kill-anywhere sweep (recovered fleet
# bitwise equal to an uninterrupted run over the same op prefix),
# torn-write truncation to the synced prefix, the breaker trip/probe
# cycle under a WorkerPanic storm with other tenants serving and all
# ledgers balanced, ShardCrash self-healing from the WAL, recovery-scrub
# demotion of bit-rotted checkpoints, and WalCorrupt replay robustness —
# plus the shared codec's frame and envelope property suite (crates/faultline
# codec_props) and the WAL's end-to-end recovery property (crates/serve
# wal_props).
#
# Every stage runs with TMPDIR set to a fresh `mktemp -d` directory that
# a trap removes on exit. A test that passes removes what it wrote there
# (each suite's scratch paths are per test, behind a drop guard that keeps
# them only while a failing test unwinds), so after each passing stage
# any `stod_*` entry left in that directory fails the gate, listed.
#
# Every stage prints its wall time at the end of the run.

set -euo pipefail
cd "$(dirname "$0")/.."

full=0
conformance=0
chaos=0
adapt=0
durability=0
scale=0
for arg in "$@"; do
  case "$arg" in
    --quick) ;; # the default gate, named so CI jobs read clearly
    --full) full=1 ;;
    --conformance) conformance=1 ;;
    --chaos) chaos=1 ;;
    --adapt) adapt=1 ;;
    --durability) durability=1 ;;
    --scale) scale=1 ;;
    --all) full=1; conformance=1; chaos=1; adapt=1; durability=1; scale=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

# Thread counts the sweeping stages iterate (CI matrixes over this).
VERIFY_THREADS="${STOD_VERIFY_THREADS:-1 4}"

# Scratch space for every stage; see the header.
VERIFY_TMP=$(mktemp -d)
trap 'rm -rf "$VERIFY_TMP"' EXIT
export TMPDIR="$VERIFY_TMP"

summary=()
run_stage() {
  local name="$1"; shift
  echo "==> stage: $name"
  local t0=$SECONDS
  "$@"
  local left
  left=$(find "$VERIFY_TMP" -mindepth 1 -maxdepth 1 -name 'stod_*' | sort)
  if [[ -n "$left" ]]; then
    echo "$name: FAILED — passing tests left these in TMPDIR:" >&2
    echo "$left" >&2
    exit 1
  fi
  summary+=("$(printf '%5ds  %s' "$((SECONDS - t0))" "$name")")
}

stage_fmt() {
  cargo fmt --check
}

stage_deps() {
  local tree outside
  tree=$(cargo tree --offline -e normal --workspace --exclude proptest --prefix none)
  # grep exits 1 when it selects nothing, which is the passing case.
  outside=$(grep -v -e '^stod-' -e '^od-forecast' -e '^$' <<<"$tree" | sort -u || true)
  if [[ -n "$outside" ]]; then
    echo "deps: FAILED — normal dependencies from outside the workspace:" >&2
    echo "$outside" >&2
    exit 1
  fi
}

stage_clippy() {
  cargo clippy -q --workspace --all-targets -- -D warnings
}

stage_tier1() {
  cargo build --release
  # The tier-1 suite runs twice: once with the parallel kernel pool pinned
  # to a single thread (exact serial fallback) and once at 4 threads. The
  # determinism contract of stod_tensor::par says both runs see bitwise
  # identical numerics, so both must pass identically.
  echo "==> tier-1 tests, STOD_THREADS=1 (serial fallback)"
  STOD_THREADS=1 cargo test -q
  echo "==> tier-1 tests, STOD_THREADS=4 (parallel pool)"
  STOD_THREADS=4 cargo test -q
  # The suites force 1 and 4 threads themselves, so one run covers both.
  echo "==> fused-op bitwise suites (stod-nn layers::cheby)"
  cargo test -q -p stod-nn --lib layers::cheby
  for t in 1 4; do
    echo "==> tape unit tests (stod-nn tape), STOD_THREADS=$t"
    STOD_THREADS="$t" cargo test -q -p stod-nn --lib tape
    echo "==> GEMM unit tests (stod-tensor ops::gemm, ops::matmul), STOD_THREADS=$t"
    STOD_THREADS="$t" cargo test -q -p stod-tensor --lib -- ops::gemm ops::matmul
  done
}

stage_full() {
  for t in $VERIFY_THREADS; do
    echo "==> workspace suite, STOD_THREADS=$t"
    STOD_THREADS="$t" cargo test -q --workspace
  done
}

stage_conformance() {
  local budget="${STOD_FUZZ_CASES:-256}"
  echo "==> differential fuzzer + metamorphic suite (${budget} cases/kernel)"
  rm -f results/conformance/*.json
  for t in $VERIFY_THREADS; do
    STOD_THREADS="$t" STOD_FUZZ_CASES="$budget" cargo test -q -p stod-conformance
  done
  local dumps
  dumps=$(find results/conformance -name '*.json' 2>/dev/null | head -5 || true)
  if [[ -n "$dumps" ]]; then
    echo "conformance: FAILED — minimized counterexamples dumped:" >&2
    echo "$dumps" >&2
    echo "replay with stod_conformance::replay(kernel, seed, dims) from the dump" >&2
    exit 1
  fi
}

stage_chaos() {
  for t in $VERIFY_THREADS; do
    echo "==> chaos gate, STOD_THREADS=$t"
    STOD_THREADS="$t" STOD_CHAOS=full cargo test -q --test chaos_gate
    STOD_THREADS="$t" cargo test -q --test serve_stress
    STOD_THREADS="$t" cargo test -q -p stod-core --test resume
    STOD_THREADS="$t" cargo test -q -p stod-faultline
  done
}

stage_adapt() {
  for t in $VERIFY_THREADS; do
    echo "==> adapt gate, full drift-seed matrix, STOD_THREADS=$t"
    STOD_THREADS="$t" STOD_CHAOS=full cargo test -q --test adapt_gate
  done
}

stage_durability() {
  for t in $VERIFY_THREADS; do
    echo "==> durability gate, full kill-point matrix, STOD_THREADS=$t"
    STOD_THREADS="$t" STOD_CHAOS=full cargo test -q --test durability_gate
  done
  echo "==> codec frame + envelope property suite, WAL recovery property"
  STOD_THREADS=1 cargo test -q -p stod-faultline --test codec_props
  STOD_THREADS=1 cargo test -q -p stod-serve --test wal_props
}

stage_scale() {
  cargo build -q --release -p stod-bench
  for t in $VERIFY_THREADS; do
    echo "==> CSR slice, STOD_THREADS=$t"
    STOD_THREADS="$t" cargo test -q -p stod-graph --test csr_props
    STOD_THREADS="$t" cargo test -q -p stod-core --lib af::tests::
    STOD_THREADS="$t" cargo test -q -p stod-conformance --test metamorphic csr_spmm
    echo "==> city probe gates (M=city, STOD_THREADS=$t)"
    STOD_THREADS="$t" M=city STOD_SCALE=city STOD_CITY_OUT="results/BENCH_city_t$t.json" \
      cargo run -q --release -p stod-bench --bin probe
  done
}

run_stage "fmt" stage_fmt
run_stage "deps" stage_deps
run_stage "clippy" stage_clippy
run_stage "tier-1 (×2 thread counts)" stage_tier1
[[ "$full" == 1 ]] && run_stage "full workspace" stage_full
[[ "$conformance" == 1 ]] && run_stage "conformance" stage_conformance
[[ "$chaos" == 1 ]] && run_stage "chaos" stage_chaos
[[ "$adapt" == 1 ]] && run_stage "adapt" stage_adapt
[[ "$durability" == 1 ]] && run_stage "durability" stage_durability
[[ "$scale" == 1 ]] && run_stage "scale" stage_scale

echo "-- stage timing --"
printf '%s\n' "${summary[@]}"
echo "verify: OK"
