#!/bin/sh
# fleet_smoke.sh — the `make fleet-smoke` end-to-end gate for the fleet
# router (cmd/iadmfleet over internal/fleet).
#
# Three phases, two clusters:
#
#   1. capacity: a single slow-path-bound iadmd (tiny fixed admission
#      bound + -slow-cost per fresh TSDT compute, so capacity is
#      sleep-bound and the comparison survives a single-core host) is
#      flooded with pure-TSDT overload traffic; then a 3-backend fleet
#      built from identically-tuned daemons takes the same flood through
#      the router. The fleet's success throughput (the ok/s line) must
#      be at least MIN_SPEEDUP x the single daemon's — the scatter of
#      partitions over backends must actually multiply slow-path slots.
#
#   2. overhead: against the same fleet, now under light load (fewer
#      workers than any backend's admission slots, so nothing sheds),
#      client p50 latency is measured twice — straight at one backend,
#      then through the router — and the router may add at most
#      MAX_P50_OVERHEAD_PCT percent. Every request costs a fresh
#      -slow-cost compute, i.e. the overhead is judged against real
#      slow-path work, not against a cache hit that nothing would proxy.
#
#   3. mixed: a fresh 3-backend fleet serves 4 named partitions
#      of mixed singles/batch traffic while fault/repair churn is
#      confined to partition p0 (-churn-net). `iadmload -check
#      -min-ssdt-hit 0.9` enforces zero request errors, zero 5xx and a
#      >=90% merged SSDT hit rate; the router's /metrics must then show
#      p0's epoch advanced while every other partition stayed at epoch 0
#      (fault fan-out invalidates exactly the faulted partition's
#      replicas — Theorems 3.1/3.2 end to end). The router drains first,
#      then every backend, each logging a clean drain line.
set -eu

GO=${GO:-go}
N=${N:-1024}

# Capacity phase knobs.
CAP_SLOW_COST=${CAP_SLOW_COST:-5ms}
CAP_ADMISSION_MAX=${CAP_ADMISSION_MAX:-3}
CAP_WORKERS=${CAP_WORKERS:-16}
CAP_DURATION=${CAP_DURATION:-2s}
CAP_NETS=${CAP_NETS:-8}
MIN_SPEEDUP=${MIN_SPEEDUP:-2.0}

# Overhead phase knobs.
OVERHEAD_WORKERS=${OVERHEAD_WORKERS:-2}
OVERHEAD_DURATION=${OVERHEAD_DURATION:-1500ms}
MAX_P50_OVERHEAD_PCT=${MAX_P50_OVERHEAD_PCT:-15}

# Mixed phase knobs.
MIX_WORKERS=${MIX_WORKERS:-8}
MIX_DURATION=${MIX_DURATION:-2s}
MIX_NETS=${MIX_NETS:-4}
MIX_CHURN=${MIX_CHURN:-0.02}
MIX_BATCH_MIX=${MIX_BATCH_MIX:-1,3,64,200}
MIX_MIN_SSDT_HIT=${MIX_MIN_SSDT_HIT:-0.9}

tmp=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do
        if kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# wait_port PORTFILE PID LOG — block until the daemon writes its bound
# address, failing loudly if it dies first.
wait_port() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "fleet-smoke: $3: never wrote $1" >&2
            cat "$3" >&2
            exit 1
        fi
        if ! kill -0 "$2" 2>/dev/null; then
            echo "fleet-smoke: daemon behind $1 exited during startup" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# drain_one PID LOG NAME — SIGTERM, require a zero exit and a drain log
# line, and drop the pid from the cleanup list.
drain_one() {
    kill -TERM "$1"
    if ! wait "$1"; then
        echo "fleet-smoke: $3 exited non-zero on SIGTERM" >&2
        cat "$2" >&2
        exit 1
    fi
    if ! grep -q drained "$2"; then
        echo "fleet-smoke: no drain line in the $3 log" >&2
        cat "$2" >&2
        exit 1
    fi
    next=""
    for pid in $pids; do
        [ "$pid" = "$1" ] || next="$next $pid"
    done
    pids=$next
}

# ok_per_sec FILE — extract the ok/s number from an iadmload report.
ok_per_sec() {
    awk '/^success:/ { v = $(NF-1); gsub(/[()]/, "", v); print v }' "$1"
}

# p50_us FILE — extract the client p50 from an iadmload report.
p50_us() {
    awk '/^latency/ { for (i = 1; i <= NF; i++) if ($i ~ /^p50=/) { sub(/^p50=/, "", $i); print $i } }' "$1"
}

echo "fleet-smoke: building iadmd, iadmfleet and iadmload"
$GO build -o "$tmp/iadmd" ./cmd/iadmd
$GO build -o "$tmp/iadmfleet" ./cmd/iadmfleet
$GO build -o "$tmp/iadmload" ./cmd/iadmload

# --- Phase 1: capacity -----------------------------------------------------

echo "fleet-smoke: phase 1, capacity (admission $CAP_ADMISSION_MAX, slow-cost $CAP_SLOW_COST)"
"$tmp/iadmd" -n "$N" -addr 127.0.0.1:0 -portfile "$tmp/single.port" \
    -admission-max "$CAP_ADMISSION_MAX" -admission-min "$CAP_ADMISSION_MAX" \
    -slow-cost "$CAP_SLOW_COST" >"$tmp/single.log" 2>&1 &
single_pid=$!
pids="$pids $single_pid"
wait_port "$tmp/single.port" "$single_pid" "$tmp/single.log"
single_addr=$(cat "$tmp/single.port")

"$tmp/iadmload" -addr "$single_addr" -workers "$CAP_WORKERS" -duration "$CAP_DURATION" \
    -nets "$CAP_NETS" -tsdt 1 -zipf 1 -seed 101 -overload -check \
    | tee "$tmp/cap-single.out"
single_ok=$(ok_per_sec "$tmp/cap-single.out")

bk=0
backends=""
while [ "$bk" -lt 3 ]; do
    "$tmp/iadmd" -n "$N" -addr 127.0.0.1:0 -portfile "$tmp/cap$bk.port" \
        -admission-max "$CAP_ADMISSION_MAX" -admission-min "$CAP_ADMISSION_MAX" \
        -slow-cost "$CAP_SLOW_COST" >"$tmp/cap$bk.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    eval "cap${bk}_pid=$pid"
    bk=$((bk + 1))
done
bk=0
while [ "$bk" -lt 3 ]; do
    eval "pid=\$cap${bk}_pid"
    wait_port "$tmp/cap$bk.port" "$pid" "$tmp/cap$bk.log"
    backends="$backends,$(cat "$tmp/cap$bk.port")"
    bk=$((bk + 1))
done
backends=${backends#,}

"$tmp/iadmfleet" -backends "$backends" -addr 127.0.0.1:0 -portfile "$tmp/caprt.port" \
    >"$tmp/caprt.log" 2>&1 &
caprt_pid=$!
pids="$pids $caprt_pid"
wait_port "$tmp/caprt.port" "$caprt_pid" "$tmp/caprt.log"
caprt_addr=$(cat "$tmp/caprt.port")

"$tmp/iadmload" -addr "$caprt_addr" -workers "$CAP_WORKERS" -duration "$CAP_DURATION" \
    -nets "$CAP_NETS" -tsdt 1 -zipf 1 -seed 202 -overload -check \
    | tee "$tmp/cap-fleet.out"
fleet_ok=$(ok_per_sec "$tmp/cap-fleet.out")

echo "fleet-smoke: capacity single=$single_ok ok/s, fleet=$fleet_ok ok/s (need >= ${MIN_SPEEDUP}x)"
if ! awk -v a="$fleet_ok" -v b="$single_ok" -v m="$MIN_SPEEDUP" \
    'BEGIN { exit !(b > 0 && a >= m * b) }'; then
    echo "fleet-smoke: fleet ok/s did not reach ${MIN_SPEEDUP}x the single daemon" >&2
    exit 1
fi

# --- Phase 2: router latency overhead --------------------------------------

# Light load on the same slow-path-bound fleet: fewer workers than one
# backend's admission slots, so nothing sheds and every request pays one
# -slow-cost compute. Fresh seeds keep the TSDT pairs unseen (a cache
# hit would dodge the work the overhead is judged against).
echo "fleet-smoke: phase 2, p50 overhead (budget ${MAX_P50_OVERHEAD_PCT}%)"
direct_addr=$(cat "$tmp/cap0.port")
"$tmp/iadmload" -addr "$direct_addr" -workers "$OVERHEAD_WORKERS" -duration "$OVERHEAD_DURATION" \
    -tsdt 1 -zipf 1 -seed 303 -check | tee "$tmp/ovh-direct.out"
direct_p50=$(p50_us "$tmp/ovh-direct.out")

"$tmp/iadmload" -addr "$caprt_addr" -workers "$OVERHEAD_WORKERS" -duration "$OVERHEAD_DURATION" \
    -nets "$MIX_NETS" -tsdt 1 -zipf 1 -seed 404 -check | tee "$tmp/ovh-routed.out"
routed_p50=$(p50_us "$tmp/ovh-routed.out")

echo "fleet-smoke: p50 direct=${direct_p50}us routed=${routed_p50}us"
if ! awk -v d="$direct_p50" -v r="$routed_p50" -v pct="$MAX_P50_OVERHEAD_PCT" \
    'BEGIN { exit !(d > 0 && r <= d * (1 + pct / 100)) }'; then
    echo "fleet-smoke: router added more than ${MAX_P50_OVERHEAD_PCT}% p50 latency" >&2
    exit 1
fi

drain_one "$caprt_pid" "$tmp/caprt.log" "capacity router"
bk=0
while [ "$bk" -lt 3 ]; do
    eval "pid=\$cap${bk}_pid"
    drain_one "$pid" "$tmp/cap$bk.log" "capacity backend $bk"
    bk=$((bk + 1))
done
drain_one "$single_pid" "$tmp/single.log" "single baseline"

# --- Phase 3: mixed traffic with partition-confined churn ------------------

echo "fleet-smoke: phase 3, mixed load with churn confined to p0"
bk=0
backends=""
while [ "$bk" -lt 3 ]; do
    "$tmp/iadmd" -n "$N" -addr 127.0.0.1:0 -portfile "$tmp/mix$bk.port" \
        >"$tmp/mix$bk.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    eval "mix${bk}_pid=$pid"
    bk=$((bk + 1))
done
bk=0
while [ "$bk" -lt 3 ]; do
    eval "pid=\$mix${bk}_pid"
    wait_port "$tmp/mix$bk.port" "$pid" "$tmp/mix$bk.log"
    backends="$backends,$(cat "$tmp/mix$bk.port")"
    bk=$((bk + 1))
done
backends=${backends#,}

"$tmp/iadmfleet" -backends "$backends" -addr 127.0.0.1:0 -portfile "$tmp/mixrt.port" \
    -hedge-after 50ms -retry-budget 0.1 >"$tmp/mixrt.log" 2>&1 &
mixrt_pid=$!
pids="$pids $mixrt_pid"
wait_port "$tmp/mixrt.port" "$mixrt_pid" "$tmp/mixrt.log"
mixrt_addr=$(cat "$tmp/mixrt.port")

"$tmp/iadmload" -addr "$mixrt_addr" -workers "$MIX_WORKERS" -duration "$MIX_DURATION" \
    -nets "$MIX_NETS" -churn "$MIX_CHURN" -churn-net p0 -batch-mix "$MIX_BATCH_MIX" \
    -seed 505 -check -min-ssdt-hit "$MIX_MIN_SSDT_HIT"

# Epoch isolation across the merged scrape: churn was confined to p0, so
# only p0's epoch may have advanced — a non-zero epoch anywhere else
# would mean the fan-out invalidated a partition it had no business
# touching.
curl -fsS "http://$mixrt_addr/metrics" >"$tmp/mixrt.metrics"
p0_epoch=$(jq '[.networks[] | select(.net == "p0") | .epoch] | first // 0' "$tmp/mixrt.metrics")
other_epochs=$(jq '[.networks[] | select(.net != "p0") | .epoch] | add // 0' "$tmp/mixrt.metrics")
scrape_errs=$(jq '.fleet.scrape_errors' "$tmp/mixrt.metrics")
echo "fleet-smoke: p0 epoch $p0_epoch, other partitions' epoch sum $other_epochs, scrape errors $scrape_errs"
if [ "$p0_epoch" -eq 0 ]; then
    echo "fleet-smoke: churn ran but p0's epoch never advanced" >&2
    exit 1
fi
if [ "$other_epochs" -ne 0 ]; then
    echo "fleet-smoke: a partition other than p0 was invalidated" >&2
    exit 1
fi
if [ "$scrape_errs" -ne 0 ]; then
    echo "fleet-smoke: router failed to scrape some backends" >&2
    exit 1
fi

echo "fleet-smoke: draining router, then backends"
drain_one "$mixrt_pid" "$tmp/mixrt.log" "router"
bk=0
while [ "$bk" -lt 3 ]; do
    eval "pid=\$mix${bk}_pid"
    drain_one "$pid" "$tmp/mix$bk.log" "backend $bk"
    bk=$((bk + 1))
done
echo "fleet-smoke: ok"
