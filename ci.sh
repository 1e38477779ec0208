#!/usr/bin/env bash
# Staged CI pipeline: the tier-1 gate plus every workspace check this
# repo holds itself to, with per-stage wall time and a pass/fail
# summary table.
#
#   ./ci.sh                      # run every stage, summary at the end
#   ./ci.sh --stage bench        # run one stage
#   ./ci.sh --stage fmt,clippy   # run a comma-separated subset
#   ./ci.sh --list               # list the stages with their descriptions
#   DUAL_THREADS=4 ./ci.sh       # same, with a pinned pool thread count
set -euo pipefail
cd "$(dirname "$0")"

# One row per stage, in run order: `name|description`. Stage `foo-bar`
# runs the function `stage_foo_bar`.
STAGES=(
  "build|cargo build --release"
  "test|tier-1 cargo test -q: every workspace member"
  "doc|doctests incl. README/DESIGN fences, then rustdoc with -D warnings"
  "clippy|cargo clippy --workspace --all-targets -D warnings (the lint wall, DESIGN.md §5)"
  "fmt|cargo fmt --all --check"
  "bench|the one wall-clock gate: obs_overhead's instrumented/bare and pipeline/encode bounds"
  "obs|stream_throughput report + stable obs snapshot, byte-diffed against results/"
  "fault|fault-degradation sweep, diffed against the committed report"
  "determinism|seed x DUAL_THREADS matrix: reports must be byte-identical"
  "recovery|crash/restore/replay harness across DUAL_THREADS, byte-diffed"
  "verify-isa|static dataflow verification of every PIM trace + mutation gate"
  "topology|multi-tenant sweep: isolation report byte-diffed across DUAL_THREADS"
  "trace|flight-recorder kill/restore/replay identity, byte-diffed"
  "benchmark|frozen benchmark/ harness builds and passes its --quick suite"
  "figures|the all bin regenerates every results/*.txt and *.csv byte-identically"
  "portable|default x86-64 build (no AVX2): kernel oracles, goldens, reports byte-identical"
)
ALL_STAGES=("${STAGES[@]%%|*}")

# ---------------------------------------------------------------- stages

stage_build() {
  cargo build --release
}

stage_test() {
  # The root `default-members` list names every workspace member, so the
  # tier-1 command tests the whole workspace.
  echo "--- cargo test -q (tier-1: every workspace member)"
  cargo test -q
}

stage_doc() {
  cargo test -q --doc --workspace
  # A deleted item must not leave a dangling intra-doc link behind.
  RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps
}

stage_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
}

stage_fmt() {
  cargo fmt --all --check
}

stage_bench() {
  cargo run -q -p dual-bench --release --bin obs_overhead
}

stage_obs() {
  echo "--- stream_throughput report + stable obs snapshot (byte-stable across machines and DUAL_THREADS)"
  cargo run -q -p dual-bench --release --bin stream_throughput -- \
    --report-out results/stream_throughput.json --metrics-out results/obs_snapshot.json
  git diff --exit-code -- results/stream_throughput.json results/obs_snapshot.json \
    || { echo "a stream_throughput artifact drifted: the report and the snapshot must be byte-stable"; return 1; }
}

stage_fault() {
  cargo run -q -p dual-bench --release --bin fault_sweep
  git diff --exit-code -- results/fault_degradation.json \
    || { echo "fault_degradation.json drifted: the sweep must be byte-stable"; return 1; }
}

stage_determinism() {
  local seed threads
  echo "--- parallel_consistency under DUAL_THREADS in {0, 2, 8}"
  for threads in 0 2 8; do
    DUAL_THREADS=$threads cargo test -q --release -p dual-integration \
      --test parallel_consistency >/dev/null
    echo "    DUAL_THREADS=$threads ok"
  done
  echo "--- fault_sweep seed x thread matrix (reports must be byte-identical)"
  for seed in 42 1337; do
    echo "    seed=$seed"
    threads_matrix fault_sweep - --seed "$seed" --out @/report.json
  done
  echo "--- obs stable snapshots across DUAL_THREADS (reduced workload)"
  threads_matrix stream_throughput - \
    24000 --report-out @/report.json --metrics-out @/obs_snapshot.json
}

# threads_matrix <bin> <committed|-> [args...]: run the dual-bench bin
# <bin> with [args...] (default `--out @/report.json`) under DUAL_THREADS
# in {0, 2, 8}, each run writing into its own directory: an argument's
# leading `@` names that directory. The three directories must be
# byte-identical, and unless <committed> is `-`, @/report.json must equal
# that committed artifact. Each bin asserts its own invariants before
# writing (and exits nonzero on a violation); the matrix pins the report
# bytes across thread counts and against the committed one in results/.
threads_matrix() {
  local bin="$1" committed="$2" tmp threads
  shift 2
  [[ $# -gt 0 ]] || set -- --out @/report.json
  tmp=$(mktemp -d)
  for threads in 0 2 8; do
    mkdir "$tmp/$threads"
    DUAL_THREADS=$threads cargo run -q -p dual-bench --release --bin "$bin" -- \
      "${@/#@/$tmp/$threads}" >/dev/null
    echo "    DUAL_THREADS=$threads ok"
  done
  for threads in 2 8; do
    diff -r "$tmp/0" "$tmp/$threads" \
      || { echo "$bin $* diverged at DUAL_THREADS=$threads"; return 1; }
  done
  if [[ "$committed" != - ]]; then
    diff "$tmp/0/report.json" "$committed" \
      || { echo "$committed drifted: regenerate and commit it"; return 1; }
  fi
  echo "    $bin reports byte-identical across DUAL_THREADS in {0, 2, 8}"
  rm -rf "$tmp"
}

stage_recovery() {
  echo "--- recovery_harness: every (policy, kill_tick) cell restores and replays bit-identically"
  threads_matrix recovery_harness results/recovery_report.json
}

stage_verify_isa() {
  echo "--- trace_verifier: every in-tree PIM trace verifies, every seeded mutation is rejected"
  threads_matrix trace_verifier results/isa_verify.json
}

stage_topology() {
  echo "--- tenant_sweep: 4 tenants x workloads x quota tiers, isolation + exact energy-ledger sum"
  threads_matrix tenant_sweep results/topology_report.json
}

stage_trace() {
  echo "--- flight_recorder: ring, causal span ids and alert latches survive kill/restore/replay"
  threads_matrix flight_recorder results/trace_report.json
}

stage_benchmark() {
  # The frozen harness under benchmark/ is its own workspace calling the
  # public API: an API removal that breaks it must fail here, not in the
  # benchmark pipeline. It builds --offline without --locked, so cargo
  # rewrites benchmark/Cargo.lock when a crate's dependencies shrank;
  # that file stays as committed, so put it back.
  local lock rc=0
  lock=$(mktemp)
  cp benchmark/Cargo.lock "$lock"
  bash benchmark/run.sh --quick || rc=$?
  mv "$lock" benchmark/Cargo.lock
  return "$rc"
}

stage_figures() {
  cargo run -q --release -p dual-bench --bin all
  git diff --exit-code -- 'results/*.txt' 'results/*.csv' \
    || { echo "a table/figure artifact drifted: regenerate and commit it"; return 1; }
}

stage_portable() {
  # `.cargo/config.toml` builds for x86-64-v3; RUSTFLAGS overrides it.
  # No float path may depend on the target, so the baseline build must
  # reproduce every golden and committed report to the byte.
  export RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable
  local tmp
  tmp=$(mktemp -d)
  echo "--- dual-snap goldens, dual-hdc and dual-fault sense kernel oracles, lazy-decay and accumulator oracles"
  # The lazy decay's vote certificate rests on IEEE round-to-nearest
  # being monotone; dual-stream's reference tests check it on SSE2 too.
  # dual-fault's tests hold `sense_row` to the per-bit read definition.
  cargo test -q --release -p dual-snap -p dual-hdc -p dual-fault -p dual-stream -p dual-cluster >/dev/null
  echo "--- parallel_consistency"
  cargo test -q --release -p dual-integration --test parallel_consistency >/dev/null
  echo "--- stream_throughput, fault_sweep, recovery_harness vs committed results/"
  cargo run -q -p dual-bench --release --bin stream_throughput -- \
    --report-out "$tmp/stream.json" --metrics-out "$tmp/obs.json" >/dev/null
  cargo run -q -p dual-bench --release --bin fault_sweep -- --out "$tmp/fault.json" >/dev/null
  cargo run -q -p dual-bench --release --bin recovery_harness -- --out "$tmp/recovery.json" >/dev/null
  diff "$tmp/stream.json" results/stream_throughput.json
  diff "$tmp/obs.json" results/obs_snapshot.json
  diff "$tmp/fault.json" results/fault_degradation.json
  diff "$tmp/recovery.json" results/recovery_report.json
  echo "    every report byte-identical to the x86-64-v3 build's"
  rm -rf "$tmp"
}

# ---------------------------------------------------------------- driver

list_stages() {
  printf '%s\n' "${ALL_STAGES[@]}"
}

print_stage_table() {
  local row
  for row in "${STAGES[@]}"; do
    printf '  %-12s %s\n' "${row%%|*}" "${row#*|}"
  done
}

is_stage() {
  local s
  for s in "${ALL_STAGES[@]}"; do
    [[ "$s" == "$1" ]] && return 0
  done
  return 1
}

# Internal re-entry point: run exactly one stage under full strictness
# (set -euo pipefail applies unconditionally in the child process; the
# parent's `if` would otherwise suppress errexit in a plain function
# call).
if [[ "${1:-}" == "--run-one" ]]; then
  shift
  # An unknown name must fail loudly with the stage list, never fall
  # through to a missing-function error (or silently run nothing).
  is_stage "${1:-}" || {
    echo "unknown stage \`${1:-}\` — available stages:"
    print_stage_table
    exit 2
  }
  # Stage names are kebab-case on the CLI, function names snake_case.
  "stage_${1//-/_}"
  exit 0
fi

SELECTED=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --stage)
      shift
      [[ $# -gt 0 ]] || { echo "--stage requires a name (one of: $(list_stages | tr '\n' ' '))"; exit 2; }
      IFS=',' read -ra parts <<<"$1"
      for s in "${parts[@]}"; do
        is_stage "$s" || {
          echo "unknown stage \`$s\` — available stages:"
          print_stage_table
          exit 2
        }
        SELECTED+=("$s")
      done
      ;;
    --list)
      print_stage_table
      exit 0
      ;;
    *)
      echo "usage: ./ci.sh [--stage NAME[,NAME...]]... [--list]"
      exit 2
      ;;
  esac
  shift
done
[[ ${#SELECTED[@]} -gt 0 ]] || SELECTED=("${ALL_STAGES[@]}")

ROWS=()
FAILED=0
for stage in "${SELECTED[@]}"; do
  echo "==> stage: $stage"
  t0=$(date +%s)
  if bash "$0" --run-one "$stage"; then
    status=ok
  else
    status=FAIL
    FAILED=1
  fi
  secs=$(( $(date +%s) - t0 ))
  ROWS+=("$stage|$status|$secs")
  echo "<== stage: $stage [$status] (${secs}s)"
  echo
done

echo "---------------------------------------"
printf '  %-14s %-6s %6s\n' "stage" "status" "secs"
total=0
for row in "${ROWS[@]}"; do
  IFS='|' read -r name status secs <<<"$row"
  printf '  %-14s %-6s %6s\n' "$name" "$status" "$secs"
  total=$((total + secs))
done
printf '  %-14s %-6s %6s\n' "total" "" "$total"
echo "---------------------------------------"

if [[ $FAILED -ne 0 ]]; then
  echo "CI FAILED"
  exit 1
fi
echo "CI OK"
