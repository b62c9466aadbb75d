#!/usr/bin/env bash
# One-command verification sweep: tier-1 build + tests across the
# sanitizer configs, the scalar-fallback SIMD configuration, the
# snapshot battery, the kill-and-resume campaign smoke, and the perf
# smoke benches.
#
#   scripts/check.sh          # everything below
#   scripts/check.sh quick    # tier-1 build + tests only
#
# Build trees land in build-check-<name>/ next to the source tree so
# the developer's own build/ is never touched.  Every stage runs under
# a wall-clock timeout so a wedged build or test hangs the sweep for a
# bounded time instead of forever.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
MODE="${1:-full}"
# Per-stage timeout (seconds); sanitizer builds are the slowest stages.
STAGE_TIMEOUT="${RSP_STAGE_TIMEOUT:-1800}"

configure_build_test() {
  local name="$1" ctest_args="$2"
  shift 2
  local dir="$ROOT/build-check-$name"
  echo "==== [$name] configure + build ===="
  timeout "$STAGE_TIMEOUT" cmake -S "$ROOT" -B "$dir" \
    -DCMAKE_BUILD_TYPE=Release "$@" >/dev/null
  timeout "$STAGE_TIMEOUT" cmake --build "$dir" -j "$JOBS"
  echo "==== [$name] ctest $ctest_args ===="
  # shellcheck disable=SC2086
  (cd "$dir" && timeout "$STAGE_TIMEOUT" ctest --output-on-failure \
    -j "$JOBS" $ctest_args)
}

# Kill-and-resume smoke: SIGKILL a checkpointing campaign mid-run, then
# resume from its checkpoint and require the final aggregate line to be
# byte-identical to an uninterrupted run's — the crash-resilience
# contract, exercised with a real kill against a real process.
kill_resume_smoke() {
  local dir="$ROOT/build-check-tier1"
  local work ck ref_agg resumed_agg
  work="$(mktemp -d)"
  ck="$work/campaign.ck"
  echo "==== [resume] kill-and-resume campaign smoke ===="

  # Uninterrupted reference.
  ref_agg="$(timeout "$STAGE_TIMEOUT" "$dir/examples/farm_campaign" \
    --tasks 200 --seed 77 --poison 13 | grep '^AGG ')"

  # Checkpointing run (slowed trials, one worker per core, frequent
  # checkpoints — so workers publish concurrently), SIGKILLed as soon as
  # the first checkpoint exists — i.e. genuinely mid-campaign.
  timeout "$STAGE_TIMEOUT" "$dir/examples/farm_campaign" \
    --tasks 200 --seed 77 --poison 13 --trial-us 5000 --threads "$JOBS" \
    --checkpoint "$ck" --every 8 &
  local pid=$!
  for _ in $(seq 1 200); do
    [ -s "$ck" ] && break
    sleep 0.1
  done
  if ! [ -s "$ck" ]; then
    echo "resume smoke: no checkpoint appeared before the kill" >&2
    kill -KILL "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    rm -rf "$work"
    return 1
  fi
  kill -KILL "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true

  # Resume must finish the campaign and reproduce the reference
  # aggregate bit for bit.
  resumed_agg="$(timeout "$STAGE_TIMEOUT" "$dir/examples/farm_campaign" \
    --tasks 200 --seed 77 --poison 13 \
    --checkpoint "$ck" --every 8 --resume | grep '^AGG ')"
  rm -rf "$work"

  if [ "$ref_agg" != "$resumed_agg" ]; then
    echo "resume smoke: aggregate diverged after kill+resume" >&2
    echo "  reference: $ref_agg" >&2
    echo "  resumed:   $resumed_agg" >&2
    return 1
  fi
  echo "resume smoke: resumed aggregate bit-identical ($resumed_agg)"
}

# Tier-1: the contract every PR must keep (ROADMAP.md).
configure_build_test tier1 ""

if [ "$MODE" = "quick" ]; then
  echo "check.sh: quick mode done (tier-1 green)"
  exit 0
fi

# Memory-safety sweep: the full suite under ASan+UBSan.
configure_build_test asan "" -DRSP_SANITIZE=address,undefined

# Thread-safety sweep: the multi-threaded subsystems — the farm
# battery (including the resilient campaign driver) and the fleet
# session manager's group dispatch — must be TSan-clean.
configure_build_test tsan "-L farm|fleet" -DRSP_SANITIZE=tsan

# Scalar-fallback SIMD: non-x86 builds must never break silently, and
# the batched-replay and PHY-substrate batteries must stay bit-identical
# without lanes; the known answers (kat) must hold on the scalar build.
configure_build_test simd-off "-L simd|phy|kat" -DRSP_SIMD=off

# Vectorized-PHY-substrate battery: block transmit/channel paths
# bit-identical to the scalar references, Doppler phase vs long-double
# golden, dispatched vs baseline kernel tables (already part of tier-1;
# repeated by label, again under ASan+UBSan, with a forced-reference
# (RSP_PHY_BATCH=off) pass, and the bench_phy smoke with its >=2x
# sample-generation gate).
echo "==== [phy] ctest -L phy ===="
(cd "$ROOT/build-check-tier1" && timeout "$STAGE_TIMEOUT" \
  ctest --output-on-failure -j "$JOBS" -L phy)
echo "==== [phy-asan] ctest -L phy (ASan+UBSan) ===="
(cd "$ROOT/build-check-asan" && timeout "$STAGE_TIMEOUT" \
  ctest --output-on-failure -j "$JOBS" -L phy)
echo "==== [phy-reference] full suite with RSP_PHY_BATCH=off ===="
(cd "$ROOT/build-check-tier1" && timeout "$STAGE_TIMEOUT" \
  env RSP_PHY_BATCH=off ctest --output-on-failure -j "$JOBS")
echo "==== [phy] bench_phy --smoke (speedup gate) ===="
(cd "$ROOT/build-check-tier1/bench" && timeout "$STAGE_TIMEOUT" \
  ./bench_phy --smoke)

# Snapshot battery: save→restore→continue bit-identity under every
# scheduler plus the corruption fuzz (already part of tier-1; repeated
# by label here so a snapshot regression is named in the sweep output).
echo "==== [snapshot] ctest -L snapshot ===="
(cd "$ROOT/build-check-tier1" && timeout "$STAGE_TIMEOUT" \
  ctest --output-on-failure -j "$JOBS" -L snapshot)

# Fleet-serving battery: cache-hit admission vs cold per-instance
# kCompiled bit-identity, mid-session reconfigure, evict/re-admit
# determinism across thread counts (already part of tier-1; repeated by
# label so a serving regression is named in the sweep output).
echo "==== [fleet] ctest -L fleet ===="
(cd "$ROOT/build-check-tier1" && timeout "$STAGE_TIMEOUT" \
  ctest --output-on-failure -j "$JOBS" -L fleet)

# Workload battery: the Viterbi-ACS and channelizer array workloads
# plus the delta-reconfiguration fuzz — golden-reference differential
# tests over randomized inputs (already part of tier-1; repeated by
# label here, and again in the ASan+UBSan tree, so a workload
# regression is named in the sweep output and the randomized batteries
# get a dedicated memory-safety pass).
echo "==== [workload] ctest -L workload ===="
(cd "$ROOT/build-check-tier1" && timeout "$STAGE_TIMEOUT" \
  ctest --output-on-failure -j "$JOBS" -L workload)
echo "==== [workload-asan] ctest -L workload (ASan+UBSan) ===="
(cd "$ROOT/build-check-asan" && timeout "$STAGE_TIMEOUT" \
  ctest --output-on-failure -j "$JOBS" -L workload)

# Concurrency repeat: the multi-threaded batteries (farm, incl. the
# concurrent-checkpoint and first-use demap tests; fleet; snapshot) run
# until the first failure, 20 times, so a race shows as a red stage
# rather than as a rare flake.
echo "==== [repeat] ctest -L farm|fleet|snapshot --repeat until-fail:20 ===="
(cd "$ROOT/build-check-tier1" && timeout "$STAGE_TIMEOUT" \
  ctest --output-on-failure -j "$JOBS" -L "farm|fleet|snapshot" \
  --repeat until-fail:20)

# Crash-resilience end to end: kill a real campaign, resume it.
kill_resume_smoke

# Perf smoke: every bench binary runs its smoke preset and emits its
# BENCH_*.json (numbers are advisory; failures are regressions in the
# harnesses themselves, e.g. a bit-identity cross-check tripping).
echo "==== [perf] ctest -L perf (smoke) ===="
(cd "$ROOT/build-check-tier1" && timeout "$STAGE_TIMEOUT" \
  ctest --output-on-failure -L perf)

# Every emitted BENCH_*.json must carry the host-capability context
# block (compiler, arch, SIMD ISA, lane width, hardware_concurrency) —
# perf numbers without it are not comparable across machines.
echo "==== [perf] BENCH_*.json host-context check ===="
shopt -s nullglob
bench_jsons=("$ROOT"/build-check-tier1/bench/BENCH_*.json)
shopt -u nullglob
if [ "${#bench_jsons[@]}" -eq 0 ]; then
  echo "perf smoke emitted no BENCH_*.json" >&2
  exit 1
fi
for f in "${bench_jsons[@]}"; do
  if ! grep -q '"host":' "$f"; then
    echo "BENCH json missing host context block: $f" >&2
    exit 1
  fi
done
echo "host context present in ${#bench_jsons[@]} BENCH_*.json files"

echo "check.sh: all configurations green"
