#!/usr/bin/env bash
# obs_smoke.sh — end-to-end observability smoke test.
#
# Builds vfpsserve, starts it on a loopback port, drives one encrypted
# selection through the API, then asserts the /metrics exposition carries
# every wired family (transport histograms, HE counters, cost-model gauges)
# and that /metrics.json, /v1/trace and /debug/vars respond. Exits non-zero
# on the first failed assertion.
set -euo pipefail

PORT="${OBS_SMOKE_PORT:-18974}"
ADDR="127.0.0.1:${PORT}"
BASE="http://${ADDR}"
BIN="$(mktemp -d)/vfpsserve"
LOG="$(mktemp)"

cleanup() {
    [[ -n "${SRV_PID:-}" ]] && kill "${SRV_PID}" 2>/dev/null || true
    [[ -n "${SRV_PID:-}" ]] && wait "${SRV_PID}" 2>/dev/null || true
    rm -f "${BIN}" "${LOG}"
}
trap cleanup EXIT

echo "obs-smoke: building vfpsserve"
go build -o "${BIN}" ./cmd/vfpsserve

"${BIN}" -addr "${ADDR}" >"${LOG}" 2>&1 &
SRV_PID=$!

echo "obs-smoke: waiting for ${BASE}/healthz"
for i in $(seq 1 50); do
    if curl -sf "${BASE}/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "${SRV_PID}" 2>/dev/null; then
        echo "obs-smoke: server died during startup:" >&2
        cat "${LOG}" >&2
        exit 1
    fi
    sleep 0.1
done
curl -sf "${BASE}/healthz" >/dev/null

echo "obs-smoke: driving three encrypted selections around a join (delta-cached)"
# Paillier blocks are always delta-cached. An identical repeat would be
# answered by the similarity cache without any protocol traffic, so a join
# sits between the two selections: the second runs the protocol on a new
# roster, and the survivors' BASE blocks (a candidate set the join cannot
# move) must hit the cache the selections before it warmed — so the
# cache-hit counter below carries a real value, not just a declared family.
# A fresh consortium's first round packs static and its second at the width
# the first taught the aggregation server, so two selections (k 4, then 5:
# BASE encrypts the same blocks at any k) warm the cache at the width the
# post-join selection packs under.
ID=$(curl -sf -X POST "${BASE}/v1/consortiums" \
    -d '{"dataset":"Rice","rows":150,"parties":3,"scheme":"paillier"}' \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[[ -n "${ID}" ]] || { echo "obs-smoke: consortium creation failed" >&2; exit 1; }
for k in 4 5; do
    curl -sf -X POST "${BASE}/v1/consortiums/${ID}/select" \
        -d '{"count":2,"k":'"${k}"',"numQueries":6,"seed":1,"topk":"base"}' >/dev/null
done
curl -sf -X POST "${BASE}/v1/consortiums/${ID}/participants" \
    -d '{"cloneOf":0,"noise":0.1,"seed":1}' >/dev/null
curl -sf -X POST "${BASE}/v1/consortiums/${ID}/select" \
    -d '{"count":2,"k":5,"numQueries":6,"seed":1,"topk":"base"}' >/dev/null

echo "obs-smoke: scraping /metrics"
METRICS=$(curl -sf "${BASE}/metrics")
for family in \
    vfps_transport_calls_total \
    vfps_transport_errors_total \
    vfps_transport_call_seconds \
    vfps_transport_request_bytes \
    vfps_transport_response_bytes \
    vfps_he_ops_total \
    vfps_he_op_seconds \
    vfps_he_randomizer_pool_depth \
    vfps_he_randomizer_fallback_rate \
    vfps_paillier_pool_errors \
    vfps_cost_ops \
    vfps_he_pack_slots \
    vfps_delta_cache_hits_total \
    vfps_delta_cache_misses_total \
    vfps_wire_bytes \
    vfps_http_requests_total; do
    if ! grep -q "^# TYPE ${family} " <<<"${METRICS}"; then
        echo "obs-smoke: /metrics missing family ${family}" >&2
        exit 1
    fi
done
# Traffic must actually have been recorded, not just declared.
if ! grep -q "^vfps_he_ops_total{.*} [1-9]" <<<"${METRICS}"; then
    echo "obs-smoke: no HE ops recorded after an encrypted selection" >&2
    exit 1
fi
# Paillier packs: the slot-geometry gauge must carry a live pack factor.
if ! grep -q "^vfps_he_pack_slots{.*} [1-9]" <<<"${METRICS}"; then
    echo "obs-smoke: no pack-slot geometry recorded for a packed selection" >&2
    exit 1
fi
# The selection after the join must have hit the cross-round delta cache.
if ! grep -q "^vfps_delta_cache_hits_total{.*} [1-9]" <<<"${METRICS}"; then
    echo "obs-smoke: no delta-cache hits recorded after the post-join selection" >&2
    exit 1
fi
# Every encoded message feeds both shares of the wire-byte split.
for kind in payload framing; do
    if ! grep -q "^vfps_wire_bytes{kind=\"${kind}\"} [1-9]" <<<"${METRICS}"; then
        echo "obs-smoke: vfps_wire_bytes{kind=\"${kind}\"} not exported non-zero" >&2
        exit 1
    fi
done

echo "obs-smoke: checking /metrics.json, /v1/trace, /debug/vars"
# Buffer each response before grepping: `curl | grep -q` lets the early grep
# exit close the pipe mid-write, failing curl (and the script, via pipefail)
# once a response outgrows one write chunk.
curl -sf "${BASE}/metrics.json" > "${LOG}" && grep -q '"name"' "${LOG}"
curl -sf "${BASE}/v1/trace" > "${LOG}" && grep -q '"select.similarity"' "${LOG}"
curl -sf "${BASE}/debug/vars" > "${LOG}" && grep -q 'vfps_metrics' "${LOG}"

echo "obs-smoke: OK"
