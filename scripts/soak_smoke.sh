#!/usr/bin/env bash
# Short soak smoke: serve the yago-like dataset, drive 30s of mixed
# cold/warm/refine/stream/ingest traffic through cmd/ncsoak, and require
# a clean exit — ncsoak itself fails nonzero when goroutines or RSS do
# not return to baseline or the error rate exceeds its budget. This is
# the leak-and-drift counterpart to scripts/serve_smoke.sh's
# correctness legs; a full-length run is `ncsoak -duration 60s` by hand.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18090"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/ncserved" ./cmd/ncserved
go build -o "$TMP/ncsoak" ./cmd/ncsoak

# The default admission gate is 4x GOMAXPROCS — on a small CI box
# that can be 4 slots, which a 15 QPS burst overruns with sheds the soak
# would count against its error budget. The smoke probes leaks, not
# admission control, so give the gate explicit headroom.
"$TMP/ncserved" -dataset yago -addr "$ADDR" -drain 5s -max-inflight 64 &
PID=$!

for i in $(seq 1 100); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "soak-smoke: server died before serving" >&2
    exit 1
  fi
  sleep 0.2
done

STATUS=0
"$TMP/ncsoak" -addr "http://$ADDR" -duration 30s -warmup 5s -cooldown 5s -qps 15 || STATUS=$?

kill -TERM "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

if [ "$STATUS" -ne 0 ]; then
  echo "soak-smoke: ncsoak exited $STATUS" >&2
  exit 1
fi
echo "soak-smoke: passed"
