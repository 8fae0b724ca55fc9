#!/usr/bin/env bash
# soak.sh — multi-process soak with tail-latency gates.
#
# Spins up a real TCP deployment (key server, SOAK_PARTIES participants, the
# aggregation server) plus a vfpsserve collector, runs SOAK_ROUNDS rounds of concurrent KNN queries
# through the leader, and then asserts:
#
#   * throughput:   queries/second >= SOAK_MIN_QPS,
#   * tail latency: per-query p99 <= SOAK_P99_MS (p50 reported alongside),
#   * tracing:      the collector's /v1/trace span forest contains a single
#                   trace whose spans come from >= 3 distinct processes with
#                   every parent link resolved (0 orphans),
#   * accounting:   the leader's -log-json query log carries one structured
#                   event per query; vfpsserve's /v1/slow flight recorder is
#                   non-empty after an HTTP-driven selection,
#   * metrics:      the Go runtime families and the kind-labelled transport
#                   error counter are exposed,
#   * churn:        an HTTP join/select/leave cycle on a live consortium
#                   returns the roster to its original membership and the
#                   post-churn selection is bit-identical to the pre-churn
#                   one; removing an unknown participant 404s.
#
# It then runs the multi-tenant load arm: an admission-controlled vfpsserve
# multiplexes SOAK_MT_CONSORTIUMS consortiums through SOAK_MT_ROUNDS
# pairs of one sequential and one concurrent round of MT_BURST selections per
# consortium (alternating which goes first, so drift and warm-up hit both
# sides), printing every pair and gating
#
#   * the median per-pair concurrent/sequential speedup >= SOAK_MIN_MT_SPEEDUP
#     (the default scales with the machine: 2.0 with >= 3 cores, 1.5 with 2,
#     0.9 on a single core where concurrency cannot beat sequential by CPU —
#     the floor then only catches pathological contention; an override may
#     relax the default for the machine but is refused below 0.9),
#   * concurrent-phase p99 <= SOAK_MT_P99_MS,
#   * admission accounting: every load request admitted, and a budget probe
#     against a 1-op tenant HE budget must be rejected with 429.
#
# The summary is written as SOAK_OUT (default SOAK_summary.json) under a
# top-level "soak" key.
#
# Environment knobs (defaults in parentheses):
#   SOAK_ROUNDS (3)  SOAK_QUERIES (8)  SOAK_PARTIES (3)
#   SOAK_P99_MS (10000)  SOAK_MIN_QPS (0.2)
#   SOAK_MT_CONSORTIUMS (3)  SOAK_MT_ROUNDS (2)  SOAK_MT_P99_MS (20000)
#   SOAK_MIN_MT_SPEEDUP (by core count, see above)
#   SOAK_PORT_BASE (19300)  SOAK_OUT (SOAK_summary.json)
set -euo pipefail

ROUNDS="${SOAK_ROUNDS:-3}"
QUERIES="${SOAK_QUERIES:-8}"
PARTIES="${SOAK_PARTIES:-3}"
P99_MS="${SOAK_P99_MS:-10000}"
MIN_QPS="${SOAK_MIN_QPS:-0.2}"
NCONS="${SOAK_MT_CONSORTIUMS:-3}"
MT_ROUNDS="${SOAK_MT_ROUNDS:-2}"
MT_P99_MS="${SOAK_MT_P99_MS:-20000}"
BASE="${SOAK_PORT_BASE:-19300}"
OUT="${SOAK_OUT:-SOAK_summary.json}"
ROWS=120
K=4
MT_BURST=4 # selections per consortium per multi-tenant round (see the arm below)

say() { echo "soak: $*"; }
die() { echo "soak: FAIL: $*" >&2; exit 1; }

command -v jq >/dev/null || { echo "soak: jq not found" >&2; exit 1; }

# The concurrent-vs-sequential speedup a machine can deliver depends on its
# cores: the 2x contract needs >= 3, 2 cores can
# overlap partially, and on 1 core concurrency cannot beat sequential at all
# — there the floor only catches pathological lock contention (> 10% loss).
CORES=$(nproc 2>/dev/null || echo 1)
if [ "${CORES}" -ge 3 ]; then DEFAULT_MT_SPEEDUP=2.0
elif [ "${CORES}" -eq 2 ]; then DEFAULT_MT_SPEEDUP=1.5
else DEFAULT_MT_SPEEDUP=0.9; fi
MIN_MT_SPEEDUP="${SOAK_MIN_MT_SPEEDUP:-${DEFAULT_MT_SPEEDUP}}"
jq -n -e --argjson min "${MIN_MT_SPEEDUP}" '$min >= 0.9' >/dev/null 2>&1 \
    || die "SOAK_MIN_MT_SPEEDUP=${MIN_MT_SPEEDUP} is below the 0.9 floor: an override may relax the gate, never disable it"

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    for pid in "${PIDS[@]:-}"; do wait "$pid" 2>/dev/null || true; done
    rm -rf "${WORK}"
}
trap cleanup EXIT

wait_tcp() { # host:port
    local hp=$1 i
    for i in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/${hp%:*}/${hp#*:}") 2>/dev/null; then exec 3>&- || true; return 0; fi
        sleep 0.1
    done
    return 1
}

say "building vfpsnode and vfpsserve"
go build -o "${WORK}/vfpsnode" ./cmd/vfpsnode
go build -o "${WORK}/vfpsserve" ./cmd/vfpsserve

KEY_TCP="127.0.0.1:$((BASE + 1))";  KEY_OBS="127.0.0.1:$((BASE + 31))"
AGG_TCP="127.0.0.1:$((BASE + 2))";  AGG_OBS="127.0.0.1:$((BASE + 32))"
LEADER_OBS="127.0.0.1:$((BASE + 33))"
SERVE_ADDR="127.0.0.1:$((BASE + 20))"
MT_ADDR="127.0.0.1:$((BASE + 21))"
PROBE_ADDR="127.0.0.1:$((BASE + 22))"

DIRECTORY="keyserver=${KEY_TCP},aggserver=${AGG_TCP}"
PEERS="http://${KEY_OBS},http://${AGG_OBS},http://${LEADER_OBS}"
PARTY_OBS=()
for i in $(seq 0 $((PARTIES - 1))); do
    tcp="127.0.0.1:$((BASE + 10 + i))"; obs="127.0.0.1:$((BASE + 40 + i))"
    DIRECTORY="${DIRECTORY},party/${i}=${tcp}"
    PEERS="${PEERS},http://${obs}"
    PARTY_OBS+=("${obs}")
done

# The full payload pipeline rides the soak: the packed Paillier layout with
# its per-round width negotiation and the cross-round delta cache (no flags:
# both are what every Paillier node does; repeat rounds rerun the same query
# set, so round 3+ must hit the cache — round 1 packs static and round 2 at
# the width round 1 taught the aggregation server; the vfpsnode leader holds
# no similarity cache to answer them instead).
COMMON=(-scheme paillier -keybits 256 -dataset Bank -rows "${ROWS}" \
        -parties "${PARTIES}" -directory "${DIRECTORY}")

start_node() { # logname, args...
    local log="${WORK}/$1.log"; shift
    "${WORK}/vfpsnode" "$@" >"${log}" 2>&1 &
    PIDS+=($!)
}

say "starting key server, ${PARTIES} participants, aggregation server"
start_node keyserver -role keyserver -addr "${KEY_TCP}" -obs-addr "${KEY_OBS}" "${COMMON[@]}"
wait_tcp "${KEY_TCP}" || die "key server did not come up"
for i in $(seq 0 $((PARTIES - 1))); do
    start_node "party${i}" -role party -index "${i}" -addr "127.0.0.1:$((BASE + 10 + i))" \
        -obs-addr "127.0.0.1:$((BASE + 40 + i))" "${COMMON[@]}"
done
for i in $(seq 0 $((PARTIES - 1))); do
    wait_tcp "127.0.0.1:$((BASE + 10 + i))" || die "party ${i} did not come up"
done
start_node aggserver -role aggserver -addr "${AGG_TCP}" -obs-addr "${AGG_OBS}" "${COMMON[@]}"
wait_tcp "${AGG_TCP}" || die "aggregation server did not come up"

say "starting vfpsserve collector on ${SERVE_ADDR}"
"${WORK}/vfpsserve" -addr "${SERVE_ADDR}" -peers "${PEERS}" -slow-ring 16 \
    >"${WORK}/serve.log" 2>&1 &
PIDS+=($!)
wait_tcp "${SERVE_ADDR}" || die "vfpsserve did not come up"

# -parallelism 2 also keeps 2 of a round's queries in flight.
say "running leader: ${ROUNDS} round(s) x ${QUERIES} queries, 2 in flight"
QLOG="${WORK}/leader_queries.jsonl"
start_node leader -role leader -k "${K}" -queries "${QUERIES}" -rounds "${ROUNDS}" \
    -parallelism 2 -obs-addr "${LEADER_OBS}" \
    -log-json "${QLOG}" -linger 60s "${COMMON[@]}"
LEADER_PID="${PIDS[-1]}"
LEADER_LOG="${WORK}/leader.log"
for i in $(seq 1 600); do
    grep -q "lingering" "${LEADER_LOG}" 2>/dev/null && break
    kill -0 "${LEADER_PID}" 2>/dev/null || { cat "${LEADER_LOG}" >&2; die "leader exited early"; }
    sleep 0.1
done
grep -q "lingering" "${LEADER_LOG}" || { cat "${LEADER_LOG}" >&2; die "leader never finished its rounds"; }

# --- throughput and tail latency from the structured query log ---------------
TOTAL=$((ROUNDS * QUERIES))
EVENTS=$(jq -s '[.[] | select(.event.kind == "query")] | length' "${QLOG}")
[ "${EVENTS}" -eq "${TOTAL}" ] || die "query log has ${EVENTS} query events, want ${TOTAL}"
jq -s -e '[.[] | select(.event.kind == "query") | .event] | all(.id != "" and .trace != "" and (.phases | length) > 0)' \
    "${QLOG}" >/dev/null || die "query events missing id/trace/phases"

WALL=$(awk '/^round [0-9]+:/ { for (i=1; i<=NF; i++) if ($i == "in") { sub(/s$/, "", $(i+1)); w += $(i+1) } } END { printf "%.6f", w }' "${LEADER_LOG}")
read -r P50MS P99MS QPS <<EOF
$(jq -s --argjson wall "${WALL}" '
    [.[] | select(.event.kind == "query") | .event.seconds] | sort as $s | ($s | length) as $n
    | [ ($s[(($n - 1) * 0.5 | round)] * 1000),
        ($s[(($n - 1) * 0.99 | round)] * 1000),
        (if $wall > 0 then $n / $wall else 0 end) ]
    | map(. * 1000 | round / 1000) | @tsv' -r "${QLOG}")
EOF
say "latency: p50 ${P50MS}ms p99 ${P99MS}ms, throughput ${QPS} q/s over ${WALL}s"
jq -n -e --argjson p99 "${P99MS}" --argjson lim "${P99_MS}" '$p99 <= $lim' >/dev/null \
    || die "p99 ${P99MS}ms exceeds gate SOAK_P99_MS=${P99_MS}ms"
jq -n -e --argjson qps "${QPS}" --argjson min "${MIN_QPS}" '$qps >= $min' >/dev/null \
    || die "throughput ${QPS} q/s below gate SOAK_MIN_QPS=${MIN_QPS}"

# --- cross-process span forest from the collector ----------------------------
say "scraping collector span forest"
TRACE="${WORK}/trace.json"
curl -sf "http://${SERVE_ADDR}/v1/trace" > "${TRACE}" || die "collector /v1/trace scrape failed"
if jq -e '.peerErrors | length > 0' "${TRACE}" >/dev/null 2>&1; then
    die "collector failed to scrape peers: $(jq -c '.peerErrors' "${TRACE}")"
fi
BEST="${WORK}/best_trace.json"
jq -e '[.forest[] | select((.nodes | length) >= 3)] | max_by(.nodes | length)' \
    "${TRACE}" > "${BEST}" 2>/dev/null \
    || die "no trace spans >= 3 distinct processes (forest: $(jq -c '[.forest[].nodes]' "${TRACE}"))"
TRACE_ID=$(jq -r '.trace' "${BEST}")
PROCESSES=$(jq '.nodes | length' "${BEST}")
ORPHANS=$(jq '.orphans' "${BEST}")
say "trace ${TRACE_ID}: $(jq '.spans | length' "${BEST}") spans across ${PROCESSES} processes $(jq -c '.nodes' "${BEST}")"
[ "${ORPHANS}" -eq 0 ] || die "trace ${TRACE_ID} has ${ORPHANS} unresolved parent links"

kill "${LEADER_PID}" 2>/dev/null || true

# --- flight recorder and metric families -------------------------------------
say "driving one HTTP selection for the flight recorder"
CID=$(curl -sf -X POST "http://${SERVE_ADDR}/v1/consortiums" \
    -d '{"dataset":"Rice","rows":120,"parties":3,"scheme":"plain"}' \
    | jq -r '.id')
[ -n "${CID}" ] && [ "${CID}" != "null" ] || die "consortium creation failed"
curl -sf -X POST "http://${SERVE_ADDR}/v1/consortiums/${CID}/select" \
    -d '{"count":2,"k":4,"numQueries":6,"seed":1}' >/dev/null || die "HTTP selection failed"
SLOW_COUNT=$(curl -sf "http://${SERVE_ADDR}/v1/slow" | jq '.count')
[ "${SLOW_COUNT}" -ge 1 ] || die "/v1/slow is empty after a selection"
say "/v1/slow retains ${SLOW_COUNT} event(s)"

# --- membership churn over HTTP ----------------------------------------------
# Join a participant in place, select, leave it again, and require the
# post-churn selection to match the pre-churn one bit for bit: the roster
# returned to its original membership, so online churn must be invisible to
# the answer. The bogus-index removal must 404 without disturbing the roster.
say "membership churn probe: join, select, leave on consortium ${CID}"
PRE_SEL=$(curl -sf -X POST "http://${SERVE_ADDR}/v1/consortiums/${CID}/select" \
    -d '{"count":2,"k":4,"numQueries":6,"seed":1}' | jq -c '.selected')
JOIN=$(curl -sf -X POST "http://${SERVE_ADDR}/v1/consortiums/${CID}/participants" \
    -d '{"cloneOf":0,"noise":0.05,"seed":7}') || die "participant join failed"
JOIN_NAME=$(echo "${JOIN}" | jq -r '.name')
JOIN_PARTIES=$(echo "${JOIN}" | jq '.parties')
[ "${JOIN_PARTIES}" -eq 4 ] || die "join left ${JOIN_PARTIES} parties, want 4"
curl -sf "http://${SERVE_ADDR}/v1/consortiums/${CID}" \
    | jq -e --arg n "${JOIN_NAME}" '.partyNames | index($n) != null' >/dev/null \
    || die "joined participant ${JOIN_NAME} missing from partyNames"
curl -sf -X POST "http://${SERVE_ADDR}/v1/consortiums/${CID}/select" \
    -d '{"count":2,"k":4,"numQueries":6,"seed":1}' >/dev/null \
    || die "post-join selection failed"
BOGUS_CODE=$(curl -s -o /dev/null -w '%{http_code}' \
    -X DELETE "http://${SERVE_ADDR}/v1/consortiums/${CID}/participants/9")
[ "${BOGUS_CODE}" = "404" ] || die "removing unknown participant got HTTP ${BOGUS_CODE}, want 404"
LEAVE_PARTIES=$(curl -sf -X DELETE "http://${SERVE_ADDR}/v1/consortiums/${CID}/participants/3" \
    | jq '.parties') || die "participant leave failed"
[ "${LEAVE_PARTIES}" -eq 3 ] || die "leave left ${LEAVE_PARTIES} parties, want 3"
POST_SEL=$(curl -sf -X POST "http://${SERVE_ADDR}/v1/consortiums/${CID}/select" \
    -d '{"count":2,"k":4,"numQueries":6,"seed":1}' | jq -c '.selected')
[ "${POST_SEL}" = "${PRE_SEL}" ] || die "selection changed across join+leave churn: ${PRE_SEL} -> ${POST_SEL}"
say "churn probe: roster 3 -> 4 -> 3, selection stable at ${POST_SEL}"

METRICS="${WORK}/metrics.txt"
curl -sf "http://${SERVE_ADDR}/metrics" > "${METRICS}" || die "collector /metrics scrape failed"
for family in vfps_go_goroutines vfps_go_heap_alloc_bytes vfps_go_gc_pause_seconds_total; do
    grep -q "^# TYPE ${family} " "${METRICS}" || die "/metrics missing runtime family ${family}"
done
grep -q '^# HELP vfps_transport_errors_total .*by kind' "${METRICS}" \
    || die "transport error counter lost its kind label documentation"
for family in vfps_admission_admitted_total vfps_admission_rejected_total vfps_admission_queue_depth; do
    grep -q "^# TYPE ${family} " "${METRICS}" || die "/metrics missing admission family ${family}"
done
curl -sf "http://${AGG_OBS}/metrics" > "${WORK}/agg_metrics.txt" \
    || die "aggserver /metrics scrape failed"
grep -q '^# TYPE vfps_go_goroutines ' "${WORK}/agg_metrics.txt" \
    || die "aggserver obs listener missing runtime metrics"
for family in vfps_delta_cache_hits_total vfps_delta_cache_misses_total; do
    grep -q "^# TYPE ${family} " "${WORK}/agg_metrics.txt" \
        || die "aggserver /metrics missing delta-cache family ${family}"
done
if [ "${ROUNDS}" -gt 2 ]; then
    # Repeat rounds rerun the identical query set, so from round 3 on, which
    # packs at round 2's width, the receive side of the party payloads must
    # have recorded real delta-cache hits.
    grep -q '^vfps_delta_cache_hits_total{.*} [1-9]' "${WORK}/agg_metrics.txt" \
        || die "no delta-cache hits recorded across ${ROUNDS} repeat rounds"
fi
curl -sf "http://${PARTY_OBS[0]}/metrics" > "${WORK}/party_metrics.txt" \
    || die "party obs /metrics scrape failed"
grep -q '^vfps_he_pack_slots{.*} [1-9]' "${WORK}/party_metrics.txt" \
    || die "party recorded no pack-slot geometry under the paillier scheme"

# --- multi-tenant load arm ----------------------------------------------------
# An admission-controlled vfpsserve multiplexes NCONS consortiums.
# Each of MT_ROUNDS pairs runs one round sequentially and one concurrently
# (one in flight per consortium — the per-consortium run lock serializes
# deeper stacking anyway), back to back, so the pair's speedup compares two
# rounds under the same machine load. A round is MT_BURST back-to-back
# selections per consortium: one ~10 ms selection each made a round ~30 ms,
# short enough for scheduler jitter to swing a pair's speedup from 1.05x to
# 1.77x on 2 cores. Every selection draws its own query set: a consortium
# answers a repeated one from its similarity cache without running the
# protocol, which would leave the arm timing HTTP round trips. The median
# pair speedup and the concurrent p99 are gated.
say "multi-tenant arm: ${NCONS} consortiums x ${MT_ROUNDS} round pairs x ${MT_BURST} selections on ${MT_ADDR} (speedup floor ${MIN_MT_SPEEDUP}, ${CORES} core(s))"
"${WORK}/vfpsserve" -addr "${MT_ADDR}" -max-concurrent 4 -queue-depth 8 \
    >"${WORK}/mt_serve.log" 2>&1 &
PIDS+=($!)
wait_tcp "${MT_ADDR}" || die "multi-tenant vfpsserve did not come up"

MT_CIDS=()
for i in $(seq 1 "${NCONS}"); do
    cid=$(curl -sf -X POST "http://${MT_ADDR}/v1/consortiums" \
        -d "{\"dataset\":\"Rice\",\"rows\":${ROWS},\"parties\":4,\"scheme\":\"plain\"}" \
        | jq -r '.id')
    [ -n "${cid}" ] && [ "${cid}" != "null" ] || die "multi-tenant consortium ${i} creation failed"
    MT_CIDS+=("${cid}")
done

mt_select() { # cid latency-file seed
    curl -sf -o /dev/null -w '%{time_total}\n' -H 'X-Tenant: load' \
        -X POST "http://${MT_ADDR}/v1/consortiums/$1/select" \
        -d "{\"count\":2,\"k\":4,\"numQueries\":6,\"seed\":$3}" > "$2" \
        || die "multi-tenant selection on $1 failed"
}

now() { date +%s.%N; }

mt_burst() { # kind round consortium-index — MT_BURST selections on one consortium
    local x side=0
    [ "$1" = conc ] && side=1
    for x in $(seq 1 "${MT_BURST}"); do
        mt_select "${MT_CIDS[$3]}" "${WORK}/$1_$2_$3_${x}.t" $(( (2 * $2 + side) * MT_BURST + x ))
    done
}

mt_round() { # seq|conc round — one burst per consortium, sets ROUND_WALL
    local kind=$1 r=$2 start i pids=()
    start=$(now)
    for i in $(seq 0 $((NCONS - 1))); do
        if [ "${kind}" = seq ]; then
            mt_burst seq "${r}" "${i}"
        else
            mt_burst conc "${r}" "${i}" &
            pids+=($!)
        fi
    done
    if [ "${kind}" = conc ]; then
        for pid in "${pids[@]}"; do
            wait "${pid}" || die "concurrent multi-tenant selection failed"
        done
    fi
    ROUND_WALL=$(jq -n --argjson a "$(now)" --argjson b "${start}" '$a - $b')
}

SEQ_WALL=0
CONC_WALL=0
SPEEDUPS=()
for r in $(seq 1 "${MT_ROUNDS}"); do
    if [ $((r % 2)) -eq 1 ]; then ORDER="seq conc"; else ORDER="conc seq"; fi
    for kind in ${ORDER}; do
        mt_round "${kind}" "${r}"
        if [ "${kind}" = seq ]; then SW=${ROUND_WALL}; else CW=${ROUND_WALL}; fi
    done
    S=$(jq -n --argjson s "${SW}" --argjson c "${CW}" '$s / $c * 1000 | round / 1000')
    say "$(printf 'multi-tenant pair %d (%s): sequential %.3fs, concurrent %.3fs, speedup %sx' \
        "${r}" "${ORDER/ / first, then }" "${SW}" "${CW}" "${S}")"
    SPEEDUPS+=("${S}")
    SEQ_WALL=$(jq -n --argjson a "${SEQ_WALL}" --argjson b "${SW}" '$a + $b')
    CONC_WALL=$(jq -n --argjson a "${CONC_WALL}" --argjson b "${CW}" '$a + $b')
done

MT_TOTAL=$((NCONS * MT_ROUNDS * MT_BURST))
MT_SPEEDUPS=$(printf '%s\n' "${SPEEDUPS[@]}" | jq -s -c '.')
MT_SPEEDUP=$(echo "${MT_SPEEDUPS}" | jq 'sort | if length % 2 == 1 then .[length / 2 | floor]
    else (.[length / 2 - 1] + .[length / 2]) / 2 end | . * 1000 | round / 1000')
read -r SEQ_QPS CONC_QPS <<EOF
$(jq -n --argjson n "${MT_TOTAL}" --argjson sw "${SEQ_WALL}" --argjson cw "${CONC_WALL}" \
    '[$n / $sw, $n / $cw] | map(. * 1000 | round / 1000) | @tsv' -r)
EOF
MT_P99=$(cat "${WORK}"/conc_*.t | jq -s 'sort | .[((length - 1) * 0.99 | round)] * 1000 | (. * 1000 | round / 1000)')
say "multi-tenant: sequential ${SEQ_QPS} sel/s, concurrent ${CONC_QPS} sel/s, pair speedups ${MT_SPEEDUPS} (median ${MT_SPEEDUP}x), concurrent p99 ${MT_P99}ms"
jq -n -e --argjson s "${MT_SPEEDUP}" --argjson min "${MIN_MT_SPEEDUP}" '$s >= $min' >/dev/null \
    || die "multi-tenant median pair speedup ${MT_SPEEDUP}x below floor SOAK_MIN_MT_SPEEDUP=${MIN_MT_SPEEDUP}x (pairs ${MT_SPEEDUPS})"
jq -n -e --argjson p "${MT_P99}" --argjson lim "${MT_P99_MS}" '$p <= $lim' >/dev/null \
    || die "multi-tenant concurrent p99 ${MT_P99}ms exceeds gate SOAK_MT_P99_MS=${MT_P99_MS}ms"

MT_METRICS="${WORK}/mt_metrics.txt"
curl -sf "http://${MT_ADDR}/metrics" > "${MT_METRICS}" || die "multi-tenant /metrics scrape failed"
ADMITTED=$(awk '/^vfps_admission_admitted_total / {print $2}' "${MT_METRICS}")
[ -n "${ADMITTED}" ] && [ "${ADMITTED}" -ge $((2 * MT_TOTAL)) ] \
    || die "admission admitted ${ADMITTED:-0}, want >= $((2 * MT_TOTAL))"

# --- admission rejection probe ------------------------------------------------
# A dedicated server with a 1-op tenant HE budget: the first selection is
# admitted and overspends the budget, the second must be rejected with 429.
say "admission probe: 1-op tenant HE budget on ${PROBE_ADDR}"
"${WORK}/vfpsserve" -addr "${PROBE_ADDR}" -tenant-he-budget 1 \
    >"${WORK}/probe_serve.log" 2>&1 &
PIDS+=($!)
wait_tcp "${PROBE_ADDR}" || die "probe vfpsserve did not come up"
PCID=$(curl -sf -X POST "http://${PROBE_ADDR}/v1/consortiums" \
    -d '{"dataset":"Rice","rows":80,"parties":3,"scheme":"plain"}' | jq -r '.id')
curl -sf -X POST "http://${PROBE_ADDR}/v1/consortiums/${PCID}/select" \
    -H 'X-Tenant: probe' -d '{"count":2,"k":4,"numQueries":4,"seed":1}' >/dev/null \
    || die "probe selection within budget failed"
REJ_CODE=$(curl -s -o "${WORK}/probe_reject.json" -w '%{http_code}' \
    -X POST "http://${PROBE_ADDR}/v1/consortiums/${PCID}/select" \
    -H 'X-Tenant: probe' -d '{"count":2,"k":4,"numQueries":4,"seed":1}')
[ "${REJ_CODE}" = "429" ] || die "over-budget probe got HTTP ${REJ_CODE}, want 429 ($(cat "${WORK}/probe_reject.json"))"
curl -sf "http://${PROBE_ADDR}/metrics" > "${WORK}/probe_metrics.txt" \
    || die "probe /metrics scrape failed"
REJECTED=$(awk '/^vfps_admission_rejected_total\{reason="tenant-budget"\} / {print $2}' "${WORK}/probe_metrics.txt")
[ -n "${REJECTED}" ] && [ "${REJECTED}" -ge 1 ] \
    || die "rejected counter missing tenant-budget rejection"
say "admission probe: budget rejection recorded (${REJECTED} rejection(s))"

# --- summary + gate-key contract ---------------------------------------------
jq -n \
    --argjson queries "${TOTAL}" --argjson qps "${QPS}" \
    --argjson p50 "${P50MS}" --argjson p99 "${P99MS}" \
    --argjson procs "${PROCESSES}" --arg trace "${TRACE_ID}" \
    --argjson slow "${SLOW_COUNT}" \
    --argjson mtsels "${MT_TOTAL}" --argjson mtseq "${SEQ_QPS}" \
    --argjson mtconc "${CONC_QPS}" --argjson mtspeed "${MT_SPEEDUP}" \
    --argjson mtpairs "${MT_SPEEDUPS}" \
    --argjson mtfloor "${MIN_MT_SPEEDUP}" --argjson mtp99 "${MT_P99}" \
    --argjson admitted "${ADMITTED}" --argjson rejected "${REJECTED}" \
    '{soak: {queries: $queries, qps: $qps, p50Ms: $p50, p99Ms: $p99,
             processes: $procs, traceId: $trace, slowEvents: $slow,
             mtSelections: $mtsels,
             mtSeqQps: $mtseq, mtConcQps: $mtconc,
             mtSpeedup: $mtspeed, mtPairSpeedups: $mtpairs,
             mtSpeedupFloor: $mtfloor, mtP99Ms: $mtp99,
             admitted: $admitted, rejected: $rejected}}' > "${OUT}"
say "summary written to ${OUT}"

say "OK"
