#!/bin/sh
# serve_smoke.sh — the `make serve-smoke` end-to-end gate.
#
# Builds iadmd and iadmload into a temp dir, starts the daemon at the
# acceptance shape (N=1024) on an ephemeral port, and drives two load
# phases, each under `iadmload -check -min-ssdt-hit 0.9` (non-zero
# throughput, zero request errors, zero server 5xx, every served tag
# verified by the client, SSDT hit rate >= 90%):
#
#   1. singles: ~2s of /route traffic with 8 workers and 1% fault churn;
#   2. batch-heavy: mixed /route/batch sizes (singletons, small, medium
#      and large batches, non-multiples of 64 included).
#
# Finishes by delivering SIGTERM and requiring a clean drain.
#
# Phase 3 then starts a second daemon tuned for overload rehearsal — a
# tiny slow-path admission bound (-admission-max) plus an artificial
# per-compute cost (-slow-cost) standing in for a larger fabric — and
# floods it with pure-TSDT traffic at several times the slow path's
# capacity. `iadmload -overload -check` enforces the saturation contract:
# sheds observed (429s with Retry-After), at least -min-overload times
# saturation offered, zero 5xx, successes still flowing, and a bounded
# client p99. That daemon too must drain cleanly under SIGTERM.
#
# Phase 4 starts a fresh third daemon and drives pure-SSDT load with
# `-check -min-ssdt-hit 0.99`: an SSDT tag is the destination address
# (Theorem 3.1), so every request from the very first one must be served
# without a tag computation. It too must drain cleanly.
set -eu

GO=${GO:-go}
N=${N:-1024}
WORKERS=${WORKERS:-8}
DURATION=${DURATION:-2s}
CHURN=${CHURN:-0.01}
MIN_SSDT_HIT=${MIN_SSDT_HIT:-0.9}
BATCH_DURATION=${BATCH_DURATION:-2s}
BATCH_MIX=${BATCH_MIX:-1,3,64,65,200}

# Overload phase knobs (phase 3).
OVERLOAD_N=${OVERLOAD_N:-1024}
OVERLOAD_WORKERS=${OVERLOAD_WORKERS:-16}
OVERLOAD_DURATION=${OVERLOAD_DURATION:-2s}
OVERLOAD_ADMISSION_MAX=${OVERLOAD_ADMISSION_MAX:-8}
OVERLOAD_ADMISSION_MIN=${OVERLOAD_ADMISSION_MIN:-2}
OVERLOAD_ROUND=${OVERLOAD_ROUND:-50ms}
OVERLOAD_SLOW_COST=${OVERLOAD_SLOW_COST:-2ms}
OVERLOAD_MIN_FACTOR=${OVERLOAD_MIN_FACTOR:-4}
OVERLOAD_MAX_P99US=${OVERLOAD_MAX_P99US:-20000}

# Fresh-daemon SSDT phase knobs (phase 4).
SSDT_N=${SSDT_N:-1024}
SSDT_DURATION=${SSDT_DURATION:-1s}
SSDT_MIN_HIT=${SSDT_MIN_HIT:-0.99}

tmp=$(mktemp -d)
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill "$daemon_pid" 2>/dev/null || true
        wait "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building iadmd and iadmload"
$GO build -o "$tmp/iadmd" ./cmd/iadmd
$GO build -o "$tmp/iadmload" ./cmd/iadmload

echo "serve-smoke: starting iadmd -n $N on an ephemeral port"
"$tmp/iadmd" -n "$N" -addr 127.0.0.1:0 -portfile "$tmp/port" >"$tmp/iadmd.log" 2>&1 &
daemon_pid=$!

# The daemon writes the bound host:port atomically once it is listening.
i=0
while [ ! -s "$tmp/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: daemon never wrote $tmp/port" >&2
        cat "$tmp/iadmd.log" >&2
        exit 1
    fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "serve-smoke: daemon exited during startup" >&2
        cat "$tmp/iadmd.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/port")

echo "serve-smoke: phase 1, singles"
"$tmp/iadmload" -addr "$addr" -workers "$WORKERS" -duration "$DURATION" \
    -churn "$CHURN" -check -min-ssdt-hit "$MIN_SSDT_HIT"

echo "serve-smoke: phase 2, batch-heavy (mix $BATCH_MIX)"
"$tmp/iadmload" -addr "$addr" -workers "$WORKERS" -duration "$BATCH_DURATION" \
    -churn "$CHURN" -batch-mix "$BATCH_MIX" -check -min-ssdt-hit "$MIN_SSDT_HIT"

echo "serve-smoke: SIGTERM, expecting a clean drain"
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "serve-smoke: daemon exited non-zero on SIGTERM" >&2
    cat "$tmp/iadmd.log" >&2
    exit 1
fi
daemon_pid=""
if ! grep -q drained "$tmp/iadmd.log"; then
    echo "serve-smoke: no drain line in the daemon log" >&2
    cat "$tmp/iadmd.log" >&2
    exit 1
fi

echo "serve-smoke: phase 3, overload (admission max $OVERLOAD_ADMISSION_MAX, slow-cost $OVERLOAD_SLOW_COST)"
"$tmp/iadmd" -n "$OVERLOAD_N" -addr 127.0.0.1:0 -portfile "$tmp/port2" \
    -admission-max "$OVERLOAD_ADMISSION_MAX" -admission-min "$OVERLOAD_ADMISSION_MIN" \
    -admission-round "$OVERLOAD_ROUND" -slow-cost "$OVERLOAD_SLOW_COST" \
    >"$tmp/iadmd-overload.log" 2>&1 &
daemon_pid=$!
i=0
while [ ! -s "$tmp/port2" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: overload daemon never wrote $tmp/port2" >&2
        cat "$tmp/iadmd-overload.log" >&2
        exit 1
    fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "serve-smoke: overload daemon exited during startup" >&2
        cat "$tmp/iadmd-overload.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr2=$(cat "$tmp/port2")

"$tmp/iadmload" -addr "$addr2" -workers "$OVERLOAD_WORKERS" -duration "$OVERLOAD_DURATION" \
    -tsdt 1 -zipf 1 -overload -min-overload "$OVERLOAD_MIN_FACTOR" -max-p99us "$OVERLOAD_MAX_P99US" -check

echo "serve-smoke: SIGTERM to the overload daemon, expecting a clean drain"
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "serve-smoke: overload daemon exited non-zero on SIGTERM" >&2
    cat "$tmp/iadmd-overload.log" >&2
    exit 1
fi
daemon_pid=""
if ! grep -q drained "$tmp/iadmd-overload.log"; then
    echo "serve-smoke: no drain line in the overload daemon log" >&2
    cat "$tmp/iadmd-overload.log" >&2
    exit 1
fi

echo "serve-smoke: phase 4, fresh daemon SSDT (hit rate >= $SSDT_MIN_HIT from the first request)"
"$tmp/iadmd" -n "$SSDT_N" -addr 127.0.0.1:0 -portfile "$tmp/port3" \
    >"$tmp/iadmd-ssdt.log" 2>&1 &
daemon_pid=$!
i=0
while [ ! -s "$tmp/port3" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: SSDT daemon never wrote $tmp/port3" >&2
        cat "$tmp/iadmd-ssdt.log" >&2
        exit 1
    fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "serve-smoke: SSDT daemon exited during startup" >&2
        cat "$tmp/iadmd-ssdt.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr3=$(cat "$tmp/port3")

# Pure SSDT, no churn, on a daemon that has served nothing: the tag is
# the destination address, so the server-side SSDT hit rate must be
# total — well above the 0.99 floor — starting from the very first
# request.
"$tmp/iadmload" -addr "$addr3" -workers "$WORKERS" -duration "$SSDT_DURATION" \
    -tsdt 0 -check -min-ssdt-hit "$SSDT_MIN_HIT"

echo "serve-smoke: SIGTERM to the SSDT daemon, expecting a clean drain"
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "serve-smoke: SSDT daemon exited non-zero on SIGTERM" >&2
    cat "$tmp/iadmd-ssdt.log" >&2
    exit 1
fi
daemon_pid=""
if ! grep -q drained "$tmp/iadmd-ssdt.log"; then
    echo "serve-smoke: no drain line in the SSDT daemon log" >&2
    cat "$tmp/iadmd-ssdt.log" >&2
    exit 1
fi
echo "serve-smoke: ok"
