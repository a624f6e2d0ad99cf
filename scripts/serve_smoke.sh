#!/usr/bin/env bash
# Smoke-test the serving binary end to end: build ncserved, start it on a
# tiny generated dataset, hit /healthz and /v1/search, then SIGTERM it and
# require a clean (exit 0) graceful drain. This is the real-signal
# counterpart to internal/server's in-process lifecycle tests.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18080"
BIN="$(mktemp -d)/ncserved"
trap 'rm -rf "$(dirname "$BIN")"' EXIT

go build -o "$BIN" ./cmd/ncserved

"$BIN" -dataset figure1 -addr "$ADDR" -drain 5s &
PID=$!

# Wait for the listener.
for i in $(seq 1 50); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "smoke: server died before serving" >&2
    exit 1
  fi
  sleep 0.1
done

HEALTH=$(curl -sf "http://$ADDR/healthz")
echo "smoke: healthz -> $HEALTH"
case "$HEALTH" in *ok*) ;; *) echo "smoke: bad healthz" >&2; exit 1 ;; esac

# One real query through the full stack (figure1 is the paper's toy graph).
RESULT=$(curl -sf "http://$ADDR/v1/search" -d '{"entities":["Angela Merkel","Barack Obama"]}')
echo "smoke: search -> ${RESULT:0:160}..."
case "$RESULT" in
  *'"characteristics"'*) ;;
  *) echo "smoke: search response carries no characteristics" >&2; exit 1 ;;
esac

# /statsz renders the same series as /metrics, as JSON: sample values
# under "series", one summary per histogram series under "histograms".
STATS=$(curl -sf "http://$ADDR/statsz")
case "$STATS" in *'"nc_server_in_flight"'*) ;; *) echo "smoke: bad statsz" >&2; exit 1 ;; esac
case "$STATS" in *'"histograms"'*) ;; *) echo "smoke: statsz carries no histograms key" >&2; exit 1 ;; esac

# /metrics leg: the exposition must parse (every sample line is
# "name[{labels}] value") and the search counter must be monotone across
# two requests.
scrape_search_total() {
  curl -sf "http://$ADDR/metrics" | awk '
    /^#/ { next }
    NF { if (NF < 2 || $NF+0 != $NF) { print "BAD:" $0; exit 1 } }
    /^nc_http_requests_total\{path="\/v1\/search"/ { sum += $NF }
    END { print sum+0 }'
}
SEARCH_TOTAL_1=$(scrape_search_total)
case "$SEARCH_TOTAL_1" in
  BAD:*) echo "smoke: unparseable /metrics line: $SEARCH_TOTAL_1" >&2; exit 1 ;;
esac
if [ "$SEARCH_TOTAL_1" -lt 1 ]; then
  echo "smoke: /metrics shows $SEARCH_TOTAL_1 searches after one search" >&2
  exit 1
fi
METRICS=$(curl -sf "http://$ADDR/metrics")
for FAM in nc_stage_seconds nc_request_seconds nc_http_request_seconds; do
  case "$METRICS" in
    *"$FAM"*) ;;
    *) echo "smoke: /metrics missing family $FAM" >&2; exit 1 ;;
  esac
done
case "$STATS" in
  *'"nc_graph_epoch":0'[,}]*) ;;
  *) echo "smoke: statsz should start at nc_graph_epoch 0: $STATS" >&2; exit 1 ;;
esac

# Live ingest: POST a triple batch, require the epoch to advance and the
# very next search to reflect the new label — no restart in between.
INGEST=$(curl -sf "http://$ADDR/v1/ingest" -d '{"adds":[
  {"s":"Angela Merkel","p":"awarded","o":"Nobel Peace Prize"},
  {"s":"Barack Obama","p":"awarded","o":"Nobel Peace Prize"}]}')
echo "smoke: ingest -> $INGEST"
case "$INGEST" in
  *'"epoch":1'*) ;;
  *) echo "smoke: ingest did not advance the epoch" >&2; exit 1 ;;
esac

STATS=$(curl -sf "http://$ADDR/statsz")
case "$STATS" in
  *'"nc_graph_epoch":1'[,}]*) ;;
  *) echo "smoke: statsz epoch did not advance: $STATS" >&2; exit 1 ;;
esac

RESULT=$(curl -sf "http://$ADDR/v1/search" -d '{"entities":["Angela Merkel","Barack Obama"]}')
case "$RESULT" in
  *'"label":"awarded"'*) echo "smoke: post-ingest search sees the new label" ;;
  *) echo "smoke: post-ingest search misses the ingested label: ${RESULT:0:300}" >&2; exit 1 ;;
esac

SEARCH_TOTAL_2=$(scrape_search_total)
if [ "$SEARCH_TOTAL_2" -le "$SEARCH_TOTAL_1" ]; then
  echo "smoke: search counter not monotone: $SEARCH_TOTAL_1 -> $SEARCH_TOTAL_2" >&2
  exit 1
fi
LOGZ=$(curl -sf "http://$ADDR/v1/logz?n=5")
case "$LOGZ" in
  *'"/v1/search"'*) echo "smoke: metrics leg passed ($SEARCH_TOTAL_1 -> $SEARCH_TOTAL_2 searches)" ;;
  *) echo "smoke: logz tail carries no search record: $LOGZ" >&2; exit 1 ;;
esac

# Graceful drain: SIGTERM must end the process with exit 0.
kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "smoke: ncserved exited $STATUS after SIGTERM" >&2
  exit 1
fi
echo "smoke: clean SIGTERM exit"

# Restart recovery: with -wal-dir, an acknowledged ingest must survive a
# SIGKILL (no drain, no flush — the process just dies) and reappear when
# a new process recovers the same directory.
ADDR2="127.0.0.1:18081"
WALDIR="$(dirname "$BIN")/wal"

wait_up() { # pid
  for i in $(seq 1 50); do
    if curl -sf "http://$ADDR2/healthz" >/dev/null 2>&1; then
      return 0
    fi
    if ! kill -0 "$1" 2>/dev/null; then
      echo "smoke: durable server died before serving" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "smoke: durable server never came up" >&2
  exit 1
}

"$BIN" -dataset figure1 -addr "$ADDR2" -drain 5s -wal-dir "$WALDIR" &
PID=$!
wait_up "$PID"

INGEST=$(curl -sf "http://$ADDR2/v1/ingest" -d '{"adds":[
  {"s":"Angela Merkel","p":"awarded","o":"Nobel Peace Prize"},
  {"s":"Barack Obama","p":"awarded","o":"Nobel Peace Prize"}]}')
case "$INGEST" in
  *'"epoch":1'*) echo "smoke: durable ingest acknowledged" ;;
  *) echo "smoke: durable ingest did not advance the epoch: $INGEST" >&2; exit 1 ;;
esac
STATS=$(curl -sf "http://$ADDR2/statsz")
case "$STATS" in
  *'"nc_wal_enabled":1'[,}]*) ;;
  *) echo "smoke: statsz does not report the WAL: $STATS" >&2; exit 1 ;;
esac

kill -KILL "$PID"
wait "$PID" 2>/dev/null || true
echo "smoke: durable server SIGKILLed"

"$BIN" -dataset figure1 -addr "$ADDR2" -drain 5s -wal-dir "$WALDIR" &
PID=$!
wait_up "$PID"

STATS=$(curl -sf "http://$ADDR2/statsz")
case "$STATS" in
  *'"nc_graph_epoch":1'[,}]*) ;;
  *) echo "smoke: recovered epoch is not 1: $STATS" >&2; exit 1 ;;
esac
case "$STATS" in
  *'"nc_wal_recovered_records":1'[,}]*) ;;
  *) echo "smoke: statsz does not report the replayed record: $STATS" >&2; exit 1 ;;
esac
RESULT=$(curl -sf "http://$ADDR2/v1/search" -d '{"entities":["Angela Merkel","Barack Obama"]}')
case "$RESULT" in
  *'"label":"awarded"'*) echo "smoke: ingested label survived the kill" ;;
  *) echo "smoke: recovered search misses the ingested label: ${RESULT:0:300}" >&2; exit 1 ;;
esac

kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "smoke: recovered ncserved exited $STATUS after SIGTERM" >&2
  exit 1
fi
echo "smoke: restart-recovery leg passed"

# ---------------------------------------------------------------------
# Readiness vs liveness: a follower pointed at a dead primary must be
# alive (livez 200, restart triggers leave it be) but NOT ready
# (healthz 503, load balancers route around it) — and must flip to
# ready on its own once the primary appears and replay reaches the
# acked epoch.
PRI_ADDR="127.0.0.1:18082"
FOL_ADDR="127.0.0.1:18083"
PRI_WAL="$(dirname "$BIN")/wal-primary"

http_code() { # url
  curl -s -o /dev/null -w '%{http_code}' "$1" 2>/dev/null || echo 000
}
wait_code() { # url want what
  for i in $(seq 1 100); do
    if [ "$(http_code "$1")" = "$2" ]; then
      return 0
    fi
    sleep 0.2
  done
  echo "smoke: timed out waiting for $3 ($1 -> $(http_code "$1"), want $2)" >&2
  exit 1
}

"$BIN" -follow "http://$PRI_ADDR" -addr "$FOL_ADDR" -drain 5s &
FOL_PID=$!
wait_code "http://$FOL_ADDR/livez" 200 "follower liveness"
CODE=$(http_code "http://$FOL_ADDR/healthz")
if [ "$CODE" != "503" ]; then
  echo "smoke: follower with a dead primary reports healthz $CODE, want 503" >&2
  exit 1
fi
HEALTH=$(curl -s "http://$FOL_ADDR/healthz")
case "$HEALTH" in
  *'"ready":false'*) echo "smoke: follower is alive but not ready -> $HEALTH" ;;
  *) echo "smoke: unready follower healthz lacks ready:false: $HEALTH" >&2; exit 1 ;;
esac

"$BIN" -dataset figure1 -addr "$PRI_ADDR" -drain 5s -wal-dir "$PRI_WAL" &
PRI_PID=$!
wait_code "http://$PRI_ADDR/healthz" 200 "primary readiness"
INGEST=$(curl -sf "http://$PRI_ADDR/v1/ingest" -d '{"adds":[
  {"s":"Angela Merkel","p":"awarded","o":"Nobel Peace Prize"}]}')
case "$INGEST" in
  *'"epoch":1'*) ;;
  *) echo "smoke: primary ingest did not advance the epoch: $INGEST" >&2; exit 1 ;;
esac

wait_code "http://$FOL_ADDR/healthz" 200 "follower readiness flip"
HEALTH=$(curl -sf "http://$FOL_ADDR/healthz")
case "$HEALTH" in
  *'"ready":true'*) echo "smoke: follower flipped ready -> $HEALTH" ;;
  *) echo "smoke: ready follower healthz lacks ready:true: $HEALTH" >&2; exit 1 ;;
esac
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$FOL_ADDR/v1/ingest" -d '{"adds":[{"s":"a","p":"b","o":"c"}]}')
if [ "$CODE" != "403" ]; then
  echo "smoke: follower accepted an ingest ($CODE), want 403" >&2
  exit 1
fi
echo "smoke: readiness-flip leg passed"

# ---------------------------------------------------------------------
# Failover: primary + 2 followers behind ncrouter; kill one follower
# mid-query-loop (every query must still answer 200 at a valid epoch),
# restart it, and require catch-up to the head epoch.
RBIN="$(dirname "$BIN")/ncrouter"
go build -o "$RBIN" ./cmd/ncrouter

FOL2_ADDR="127.0.0.1:18084"
RTR_ADDR="127.0.0.1:18085"

"$BIN" -follow "http://$PRI_ADDR" -addr "$FOL2_ADDR" -drain 5s &
FOL2_PID=$!
wait_code "http://$FOL2_ADDR/healthz" 200 "second follower readiness"

"$RBIN" -addr "$RTR_ADDR" -primary primary -probe-interval 250ms -fail-window 2 \
  -backend "primary=http://$PRI_ADDR" \
  -backend "f1=http://$FOL_ADDR" \
  -backend "f2=http://$FOL2_ADDR" &
RTR_PID=$!
wait_code "http://$RTR_ADDR/healthz" 200 "router health"

for i in $(seq 1 10); do
  if [ "$i" = "4" ]; then
    kill -KILL "$FOL_PID"
    wait "$FOL_PID" 2>/dev/null || true
    echo "smoke: follower f1 SIGKILLed mid-loop"
  fi
  RESULT=$(curl -sf -H 'X-Min-Epoch: 1' "http://$RTR_ADDR/v1/search" \
    -d '{"entities":["Angela Merkel","Barack Obama"]}') || {
    echo "smoke: routed query $i failed during failover" >&2
    exit 1
  }
  case "$RESULT" in
    *'"epoch":1'*) ;;
    *) echo "smoke: routed query $i answered at a wrong epoch: ${RESULT:0:200}" >&2; exit 1 ;;
  esac
done
echo "smoke: all routed queries survived the follower kill"

"$BIN" -follow "http://$PRI_ADDR" -addr "$FOL_ADDR" -drain 5s &
FOL_PID=$!
wait_code "http://$FOL_ADDR/healthz" 200 "restarted follower catch-up"
HEALTH=$(curl -sf "http://$FOL_ADDR/healthz")
case "$HEALTH" in
  *'"epoch":1'*) echo "smoke: restarted follower caught up to the head epoch" ;;
  *) echo "smoke: restarted follower at the wrong epoch: $HEALTH" >&2; exit 1 ;;
esac

# Read-your-writes through the router: ingest lands on the primary and
# a min-epoch read answers at (or past) the new epoch.
INGEST=$(curl -sf "http://$RTR_ADDR/v1/ingest" -d '{"adds":[
  {"s":"Barack Obama","p":"awarded","o":"Nobel Peace Prize"}]}')
case "$INGEST" in
  *'"epoch":2'*) ;;
  *) echo "smoke: routed ingest did not advance the epoch: $INGEST" >&2; exit 1 ;;
esac
RESULT=$(curl -sf -H 'X-Min-Epoch: 2' "http://$RTR_ADDR/v1/search" \
  -d '{"entities":["Angela Merkel","Barack Obama"]}')
case "$RESULT" in
  *'"epoch":2'*) echo "smoke: min-epoch read sees the routed ingest" ;;
  *) echo "smoke: min-epoch read stuck behind the ingest: ${RESULT:0:200}" >&2; exit 1 ;;
esac

for P in "$RTR_PID" "$FOL_PID" "$FOL2_PID" "$PRI_PID"; do
  kill -TERM "$P" 2>/dev/null || true
  wait "$P" 2>/dev/null || true
done
echo "smoke: failover leg passed"
