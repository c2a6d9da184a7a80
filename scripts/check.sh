#!/usr/bin/env bash
# Full local gate: build, test, lint. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --doc --workspace -q (doc examples are the API contract)"
cargo test --doc --workspace -q

echo "==> cargo doc --workspace --no-deps with RUSTDOCFLAGS=-D warnings (every doc link resolves)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --release -p maps -p maps-core -p maps-linalg -p maps-tensor -p maps-nn -p maps-fdfd -p maps-data -p maps-invdes -q (bit-identity pins on the optimized build)"
cargo test --release -p maps -p maps-core -p maps-linalg -p maps-tensor -p maps-nn -p maps-fdfd -p maps-data -p maps-invdes -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> fault-injection smoke (deterministic schedules, must recover)"
cargo run --release --example fault_injection_smoke

echo "==> flight-recorder export smoke (trace + profile + series must parse)"
TRACE_DIR="target/trace_smoke"
rm -rf "$TRACE_DIR"
mkdir -p "$TRACE_DIR"
MAPS_TRACE="$TRACE_DIR/trace.json" \
MAPS_PROFILE="$TRACE_DIR/profile.txt" \
MAPS_SERIES="$TRACE_DIR/series" \
  cargo run --release --example wdm_design
test -s "$TRACE_DIR/trace.json" || { echo "missing trace.json"; exit 1; }
test -s "$TRACE_DIR/profile.txt" || { echo "missing profile.txt"; exit 1; }
ls "$TRACE_DIR"/series/*.csv > /dev/null || { echo "missing series CSVs"; exit 1; }
grep -q '"traceEvents"' "$TRACE_DIR/trace.json" || { echo "trace.json is not a Chrome trace"; exit 1; }
if command -v python3 > /dev/null; then
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$TRACE_DIR/trace.json"
fi
# 25 design iterations at two wavelengths: after the first, every miss
# resumes from the exterior of the previous design at its wavelength.
python3 - "$TRACE_DIR/trace.json" <<'PY'
import json, sys

events = json.load(open(sys.argv[1]))["traceEvents"]
builds = [e for e in events if e.get("name") == "fdfd.factorize"]
resumed = [e for e in builds if int(e["args"]["reused"]) > 0]
assert resumed, f"no fdfd.factorize of {len(builds)} reused a cached exterior"
print(f"trace: {len(resumed)} of {len(builds)} factorizations resumed from a cached exterior")

# A design step solves each wavelength's forward source and its objective's
# two monitor vectors as one block: every backsub under a gradient batch
# carries three right-hand sides, and no adjoint is solved on its own.
spans = {e["args"]["span_id"]: e for e in events
         if e.get("ph") == "X" and "span_id" in e.get("args", {})}

def in_gradient_batch(e):
    while e is not None:
        if e["name"] == "invdes.gradient_batch":
            return True
        e = spans.get(e["args"]["parent"])
    return False

steps = [e for e in spans.values() if e["name"] == "fdfd.backsub" and in_gradient_batch(e)]
assert steps, "no fdfd.backsub under an invdes.gradient_batch span"
widths = sorted({e["args"]["rhs"] for e in steps})
assert widths == ["3"], f"design-step backsubs carry rhs {widths}, not 3 (forward + 2 monitor vectors)"
print(f"trace: {len(steps)} design-step backsubs, each of 3 right-hand sides")
PY

echo "==> telemetry smoke (/metrics + /healthz on an ephemeral port)"
SERVE_LOG="target/telemetry_smoke.log"
rm -f "$SERVE_LOG"
MAPS_OBS_ADDR=127.0.0.1:0 \
  cargo run --release --example run_report -- --serve 40 > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2> /dev/null || true' EXIT
# The example prints "telemetry: listening on http://ADDR" once bound.
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's|^telemetry: listening on http://||p' "$SERVE_LOG" | head -n1)"
  [ -n "$ADDR" ] && break
  kill -0 "$SERVE_PID" 2> /dev/null || { cat "$SERVE_LOG"; echo "serve mode died before binding"; exit 1; }
  sleep 0.1
done
test -n "$ADDR" || { cat "$SERVE_LOG"; echo "telemetry server never printed its address"; exit 1; }
# std-only scrape: bash /dev/tcp works everywhere the build does; curl is
# used when present for a second opinion on the HTTP framing.
http_get() {
  exec 3<> "/dev/tcp/${ADDR%:*}/${ADDR##*:}"
  printf 'GET %s HTTP/1.1\r\nHost: maps\r\nConnection: close\r\n\r\n' "$1" >&3
  cat <&3
  exec 3>&- 3<&-
}
sleep 0.5 # let the first workload tick land so counters are non-zero
METRICS="$(http_get /metrics)"
echo "$METRICS" | head -n1 | grep -q '200 OK' || { echo "$METRICS" | head -n5; echo "/metrics did not return 200"; exit 1; }
echo "$METRICS" | grep -q '^fdfd_solve_batch_requests_total ' || { echo "/metrics missing fdfd_solve_batch_requests_total"; exit 1; }
# Every direct solve records its relative residual (the LDLᵀ guard).
echo "$METRICS" | grep -q '^fdfd_solve_rel_residual_count ' || { echo "/metrics missing fdfd_solve_rel_residual_count"; exit 1; }
http_get /healthz | grep -q '200 OK' || { echo "/healthz did not return 200"; exit 1; }
if command -v curl > /dev/null; then
  curl -fsS "http://$ADDR/metrics" | grep -q '^fdfd_solve_batch_requests_total ' \
    || { echo "curl /metrics missing known counter"; exit 1; }
  curl -fsS "http://$ADDR/healthz" > /dev/null || { echo "curl /healthz failed"; exit 1; }
fi
wait "$SERVE_PID" || { cat "$SERVE_LOG"; echo "serve mode exited non-zero"; exit 1; }
trap - EXIT
grep -q 'telemetry: served 40 ticks' "$SERVE_LOG" || { cat "$SERVE_LOG"; echo "serve mode did not run to completion"; exit 1; }

echo "==> mapsd smoke (ephemeral port, non-finite source refused, concurrent burst, coalesce + shed counters, drain)"
MAPSD_LOG="target/mapsd_smoke.log"
rm -f "$MAPSD_LOG"
MAPS_D_ADDR=127.0.0.1:0 MAPS_D_WORKERS=1 MAPS_D_QUEUE=1 \
  cargo run --release -p maps-mapsd --bin mapsd > "$MAPSD_LOG" 2>&1 &
MAPSD_PID=$!
trap 'kill "$MAPSD_PID" 2> /dev/null || true' EXIT
# The daemon prints "mapsd listening on ADDR" once bound.
DADDR=""
for _ in $(seq 1 100); do
  DADDR="$(sed -n 's|^mapsd listening on ||p' "$MAPSD_LOG" | head -n1)"
  [ -n "$DADDR" ] && break
  kill -0 "$MAPSD_PID" 2> /dev/null || { cat "$MAPSD_LOG"; echo "mapsd died before binding"; exit 1; }
  sleep 0.1
done
test -n "$DADDR" || { cat "$MAPSD_LOG"; echo "mapsd never printed its address"; exit 1; }
mapsd_get() {
  exec 3<> "/dev/tcp/${DADDR%:*}/${DADDR##*:}"
  printf 'GET %s HTTP/1.1\r\nHost: maps\r\nConnection: close\r\n\r\n' "$1" >&3
  cat <&3
  exec 3>&- 3<&-
}
mapsd_post() {
  local body="$2"
  exec 3<> "/dev/tcp/${DADDR%:*}/${DADDR##*:}"
  printf 'POST %s HTTP/1.1\r\nHost: maps\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s' \
    "$1" "${#body}" "$body" >&3
  cat <&3
  exec 3>&- 3<&-
}
mapsd_get /readyz | head -n1 | grep -q '200 OK' || { echo "/readyz not ready on a fresh daemon"; exit 1; }
# JSON reads 1e999 as infinity: a non-finite source amplitude is refused
# at parse time, before any solving.
INF_BODY='{"nx":80,"ny":80,"dx":0.05,"eps":2.25,"omega":4.05,"source":[[40,40,1e999,0]]}'
mapsd_post /solve "$INF_BODY" | head -n1 | grep -q '^HTTP/1.1 400 ' \
  || { echo "a 1e999 source amplitude was not refused with 400"; exit 1; }
# Concurrent burst of identical solves: 1 worker + queue depth 1, so the
# burst must coalesce on the shared factorization AND shed the overflow.
SOLVE_BODY='{"nx":80,"ny":80,"dx":0.05,"eps":2.25,"omega":4.05,"deadline_ms":30000}'
BURST_DIR="target/mapsd_smoke_burst"
rm -rf "$BURST_DIR"
mkdir -p "$BURST_DIR"
BURST_PIDS=()
for i in $(seq 1 8); do
  { mapsd_post /solve "$SOLVE_BODY" > "$BURST_DIR/resp_$i" 2> /dev/null || true; } &
  BURST_PIDS+=("$!")
done
# Wait on the burst only — a bare `wait` would also wait on the daemon.
wait "${BURST_PIDS[@]}"
grep -l 'HTTP/1.1 200' "$BURST_DIR"/resp_* > /dev/null || { echo "no burst request succeeded"; exit 1; }
if grep -l 'HTTP/1.1 500' "$BURST_DIR"/resp_* > /dev/null 2>&1; then
  echo "burst produced a 500"; exit 1
fi
DMETRICS="$(mapsd_get /metrics)"
echo "$DMETRICS" | awk '/^mapsd_coalesce_(leader|hit|follower)_total /{n+=$2} END{exit !(n>0)}' \
  || { echo "$DMETRICS" | grep '^mapsd_' || true; echo "/metrics shows no coalescing on an identical burst"; exit 1; }
echo "$DMETRICS" | awk '/^mapsd_shed_total /{n=$2} END{exit !(n>0)}' \
  || { echo "$DMETRICS" | grep '^mapsd_' || true; echo "/metrics shows no shed on an oversubscribed burst"; exit 1; }
# A retry rung answer is counted under its own name, registered at zero.
echo "$DMETRICS" | grep -q '^mapsd_degraded_retry_total ' \
  || { echo "$DMETRICS" | grep '^mapsd_' || true; echo "/metrics missing mapsd_degraded_retry_total"; exit 1; }
if echo "$DMETRICS" | grep -q '^mapsd_degraded_relaxed_total '; then
  echo "/metrics still exposes mapsd_degraded_relaxed_total"; exit 1
fi
mapsd_post /shutdown '' | head -n1 | grep -q '202' || { echo "/shutdown did not answer 202"; exit 1; }
wait "$MAPSD_PID" || { cat "$MAPSD_LOG"; echo "mapsd exited non-zero after drain"; exit 1; }
trap - EXIT

echo "==> request-tracing smoke (loadgen under load-shed, access-log JSONL, wide-event reconciliation, exemplars)"
ACCESS_LOG="target/mapsd_access_smoke.jsonl"
LOADGEN_OUT="target/mapsd_loadgen_smoke.log"
rm -f "$ACCESS_LOG" "$LOADGEN_OUT"
# 16 clients through a depth-2 queue: some requests shed, and every one —
# served or shed — must still land as exactly one wide event. MAPS_TRACE
# enables the recorder; slow-threshold 0 retains every span tree, so the
# latency histogram carries an exemplar.
MAPS_ACCESS_LOG="$ACCESS_LOG" MAPS_TRACE=target/mapsd_trace_smoke.json \
MAPS_TAIL_SLOW_MS=0 MAPS_TRACE_SAMPLE=4 \
  cargo run --release --example mapsd_loadgen -- \
  --clients 16 --requests 3 --queue 2 --warm --nx 40 --ny 32 \
  > "$LOADGEN_OUT" 2>&1 || { cat "$LOADGEN_OUT"; echo "loadgen failed"; exit 1; }
grep -q ' (reconciled)' "$LOADGEN_OUT" \
  || { cat "$LOADGEN_OUT"; echo "wide events did not reconcile with requests"; exit 1; }
grep -q '# {trace_id=' "$LOADGEN_OUT" \
  || { cat "$LOADGEN_OUT"; echo "no exemplar on the request latency histogram"; exit 1; }
python3 - "$ACCESS_LOG" <<'PY'
import json, sys

n = 0
for line in open(sys.argv[1]):
    line = line.strip()
    if not line:
        continue
    ev = json.loads(line)  # every line must be complete, valid JSON
    for key in ("ts", "endpoint", "client", "trace_id", "status", "disposition"):
        assert key in ev, f"wide event missing {key}: {ev}"
    n += 1
assert n == 48, f"access log has {n} events for 48 admissions"
print(f"access log: {n} valid wide events, all reconciled")
PY
cargo run --release --example run_report -- --access-log "$ACCESS_LOG" \
  > target/run_report_access_smoke.log 2>&1 \
  || { cat target/run_report_access_smoke.log; echo "run_report --access-log failed"; exit 1; }
grep -q 'slowest requests:' target/run_report_access_smoke.log \
  || { cat target/run_report_access_smoke.log; echo "forensics report missing the slowest-N table"; exit 1; }

echo "==> factor-reuse + flight-recorder perf smoke (cached re-solve >= 3x, obs overhead < 5%, scrape overhead bounded)"
bash scripts/bench.sh --smoke --compare

echo "==> all checks passed"
