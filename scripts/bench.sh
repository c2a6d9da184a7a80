#!/usr/bin/env bash
# Perf-regression harness: runs the factor_reuse, obs_overhead,
# mapsd_load, and spectrum_sweep benches and writes machine-readable
# BENCH_pr3.json (factorization reuse), BENCH_pr4.json (batched vs
# sequential multi-RHS), BENCH_pr5.json (flight-recorder span/exporter
# overhead), BENCH_pr6.json (telemetry server render + scrape overhead),
# BENCH_pr7.json (mapsd daemon latency/throughput + chaos run),
# BENCH_pr8.json (blocked multi-RHS kernel + wideband spectrum sweep),
# BENCH_pr9.json (f32 tape-free inference),
# and BENCH_pr10.json (per-request tracing/wide-event overhead on a warm
# mapsd /solve) at the repo root.
#
# Usage:
#   scripts/bench.sh            # full mode (default bending-device grid)
#   scripts/bench.sh --smoke    # small grid + few reps, finishes in seconds
#   scripts/bench.sh --compare  # also diff fresh numbers against the newest
#                               # committed BENCH_pr*.json baseline; warn on
#                               # >10% drift
#
# The benches themselves assert the headline invariants (cached re-solve
# >= 3x faster than a cold factorize+solve; batched multi-RHS solves no
# slower than sequential at K=2 and faster at K>=4; flight-recorder
# overhead on a cached solve under 5%; a 10 Hz /metrics scrape within 5%
# of an unscraped cached solve; mapsd warm-cache p50 beats cold at every
# concurrency; the chaos run answers every request with a bounded queue
# and zero panics; f32 tape-free inference beats the taped f64 forward),
# so a perf regression fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

# Smoke runs are a gate, not a measurement: write them under target/ so the
# committed full-mode JSONs are never clobbered by scripts/check.sh.
OUT="$ROOT/BENCH_pr3.json"
OUT_BATCHED="$ROOT/BENCH_pr4.json"
OUT_OBS="$ROOT/BENCH_pr5.json"
OUT_SCRAPE="$ROOT/BENCH_pr6.json"
OUT_MAPSD="$ROOT/BENCH_pr7.json"
OUT_SPECTRUM="$ROOT/BENCH_pr8.json"
OUT_PRECISION="$ROOT/BENCH_pr9.json"
OUT_REQUEST_OBS="$ROOT/BENCH_pr10.json"
COMPARE=0
BENCH_ARGS=()
for arg in "$@"; do
  case "$arg" in
    --smoke)
      OUT="$ROOT/target/BENCH_pr3.smoke.json"
      OUT_BATCHED="$ROOT/target/BENCH_pr4.smoke.json"
      OUT_OBS="$ROOT/target/BENCH_pr5.smoke.json"
      OUT_SCRAPE="$ROOT/target/BENCH_pr6.smoke.json"
      OUT_MAPSD="$ROOT/target/BENCH_pr7.smoke.json"
      OUT_SPECTRUM="$ROOT/target/BENCH_pr8.smoke.json"
      OUT_PRECISION="$ROOT/target/BENCH_pr9.smoke.json"
      OUT_REQUEST_OBS="$ROOT/target/BENCH_pr10.smoke.json"
      BENCH_ARGS+=("$arg")
      ;;
    --compare)
      COMPARE=1
      ;;
    *)
      BENCH_ARGS+=("$arg")
      ;;
  esac
done

cargo bench -p maps-bench --bench factor_reuse -- "${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"}" \
  --out "$OUT" --out-batched "$OUT_BATCHED"
cargo bench -p maps-bench --bench obs_overhead -- "${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"}" \
  --out "$OUT_OBS" --out-pr6 "$OUT_SCRAPE"
cargo bench -p maps-bench --bench mapsd_load -- "${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"}" \
  --out-pr7 "$OUT_MAPSD"
cargo bench -p maps-bench --bench spectrum_sweep -- "${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"}" \
  --out "$OUT_SPECTRUM"
cargo bench -p maps-bench --bench precision -- "${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"}" \
  --out "$OUT_PRECISION"
cargo bench -p maps-bench --bench request_obs -- "${BENCH_ARGS[@]+"${BENCH_ARGS[@]}"}" \
  --out-pr10 "$OUT_REQUEST_OBS"

# --compare: diff the fresh numbers against the newest *committed*
# BENCH_pr*.json baseline (auto-detected, so new PR benches join the gate
# without editing this script). Timing leaves (*_ns, *_ms) warn when they
# grow >10%; throughput leaves (*_rps) warn when they shrink >10%. Warn,
# not fail: the hard perf invariants already gate inside the benches.
if [ "$COMPARE" = "1" ]; then
  if ! command -v python3 > /dev/null; then
    echo "bench compare: python3 unavailable, skipping baseline diff"
    exit 0
  fi
  BASELINE="$(git ls-files 'BENCH_pr*.json' | sort -V | tail -n1 || true)"
  if [ -z "$BASELINE" ]; then
    echo "bench compare: no committed BENCH_pr*.json baseline, skipping"
    exit 0
  fi
  # Map the baseline name to the matching freshly-written file.
  case "$BASELINE" in
    BENCH_pr3.json) FRESH="$OUT" ;;
    BENCH_pr4.json) FRESH="$OUT_BATCHED" ;;
    BENCH_pr5.json) FRESH="$OUT_OBS" ;;
    BENCH_pr6.json) FRESH="$OUT_SCRAPE" ;;
    BENCH_pr7.json) FRESH="$OUT_MAPSD" ;;
    BENCH_pr8.json) FRESH="$OUT_SPECTRUM" ;;
    BENCH_pr9.json) FRESH="$OUT_PRECISION" ;;
    BENCH_pr10.json) FRESH="$OUT_REQUEST_OBS" ;;
    *)
      echo "bench compare: no fresh output maps to baseline $BASELINE, skipping"
      exit 0
      ;;
  esac
  python3 - "$FRESH" "$ROOT/$BASELINE" <<'PY'
import json
import sys

fresh_path, baseline_path = sys.argv[1], sys.argv[2]
try:
    fresh = json.load(open(fresh_path))
    baseline = json.load(open(baseline_path))
except OSError as e:
    print(f"bench compare: skipping ({e})")
    sys.exit(0)

if fresh.get("mode") != baseline.get("mode"):
    print(
        f"bench compare: skipping ({fresh.get('mode')} run vs "
        f"{baseline.get('mode')} baseline are not comparable)"
    )
    sys.exit(0)


def leaves(node, path=""):
    """Yield (dotted-path, numeric value) for every numeric leaf."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from leaves(v, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


base = dict(leaves(baseline))
warned = 0
compared = 0
for path, now in leaves(fresh):
    prior = base.get(path)
    if prior is None or prior == 0:
        continue
    leaf = path.rsplit(".", 1)[-1]
    drift = 100.0 * (now - prior) / abs(prior)
    if leaf.endswith("_ns") or leaf.endswith("_ms"):
        compared += 1
        if drift > 10.0:
            print(f"bench compare: WARNING {path} regressed {drift:+.1f}% "
                  f"({prior:g} -> {now:g})")
            warned += 1
    elif leaf.endswith("_rps"):
        compared += 1
        if drift < -10.0:
            print(f"bench compare: WARNING {path} throughput fell {drift:+.1f}% "
                  f"({prior:g} -> {now:g})")
            warned += 1

print(
    f"bench compare: {fresh_path} vs committed {baseline_path}: "
    f"{compared} comparable leaves, {warned} over the 10% drift budget"
)
PY

  # Cross-PR kernel check: the pr8 blocked-sweep speedups against the
  # committed pr4 baseline (same workload shape, pre-blocked kernels).
  # The blocked kernels must never fall back below the pr4 numbers.
  if [ -f "$OUT_SPECTRUM" ] && git ls-files --error-unmatch BENCH_pr4.json > /dev/null 2>&1; then
    python3 - "$OUT_SPECTRUM" "$ROOT/BENCH_pr4.json" <<'PY'
import json
import sys

fresh = json.load(open(sys.argv[1]))
pr4 = json.load(open(sys.argv[2]))
base = {e["k"]: e["speedup"] for e in pr4.get("multi_rhs", [])}
note = "" if fresh.get("mode") == pr4.get("mode") else \
    f" [{fresh.get('mode')} run vs {pr4.get('mode')} baseline]"
bad = 0
for e in fresh.get("multi_rhs", []):
    k, now = e["k"], e["speedup"]
    prior = base.get(k)
    if prior is None:
        continue
    tag = "ok" if now >= prior else "WARNING: below pr4 baseline"
    bad += now < prior
    print(f"bench compare: multi_rhs K={k}: blocked {now:.3f}x vs "
          f"pr4 {prior:.3f}x ({tag}){note}")
if not base:
    print("bench compare: BENCH_pr4.json has no multi_rhs entries, skipping")
sys.exit(1 if bad else 0)
PY
  fi
fi
