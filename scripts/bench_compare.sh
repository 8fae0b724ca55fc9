#!/usr/bin/env bash
# bench_compare.sh — gate the hot-path benchmarks against regressions.
#
# Usage:
#   scripts/bench_compare.sh <candidate.json>
#
# The candidate JSON's top-level key picks the gate set; a candidate with no
# recognized top-level key (.churn / .soak), and any recognized
# section missing a key the gates read, is itself a hard failure — a renamed
# or dropped field must never silently pass. Every gate is an absolute
# contract of the candidate, independent of machine.
#
# A `.churn` result (BENCH_churn.json, from `make bench-churn`) must show:
#
#   * the in-place join paying at least MIN_CHURN_HE_REDUCTION fewer
#     encryptions than a cold rebuild at the same final membership (the
#     delta cache spares every survivor; the base roster is floored at 6),
#   * every churn arm — join, leave, roster revisit — selecting
#     bit-identically to its cold twin,
#   * the roster revisit through the set-keyed similarity cache paying
#     exactly 0 HE operations.
#
# A `.soak` result (SOAK_summary.json, from `make soak`) must carry the full
# key set the soak gates computed — queries, qps, p50Ms, p99Ms, processes,
# plus the multi-tenant arm's shardWorkers, mtSelections, mtSeqQps,
# mtConcQps, mtSpeedup, mtSpeedupFloor, mtP99Ms, admitted, rejected — plus
# sanity floors (the latency/throughput gates themselves fire inside
# scripts/soak.sh, where the raw query log lives):
#
#   * at least one query was driven and throughput is positive,
#   * the distinguished trace spans at least 3 distinct processes,
#   * the multi-tenant concurrent/sequential speedup meets its recorded
#     floor, and that floor is itself >= 0.9 (so an override can tune the
#     gate for the machine's core count but never disable it),
#   * admission accounting is live: every load selection admitted and the
#     budget probe rejected at least once.
set -euo pipefail

CANDIDATE=${1:?usage: bench_compare.sh <candidate.json>}
MIN_CHURN_HE_REDUCTION=${MIN_CHURN_HE_REDUCTION:-2.0}

command -v jq >/dev/null || { echo "bench_compare: jq not found" >&2; exit 1; }
[ -f "$CANDIDATE" ] || { echo "bench_compare: candidate $CANDIDATE not found (run make bench-churn / soak)" >&2; exit 1; }

fail=0
say() { echo "bench_compare: $*"; }
bad() { echo "bench_compare: FAIL: $*" >&2; fail=1; }

# require <jq-expr> <description> — assert the candidate carries a key the
# gates below read. jq -e exits non-zero on null/false/missing, so a renamed
# field, an empty result array or a dropped arm fails loudly instead of
# letting its gate silently evaporate. Returns non-zero so callers can skip
# the dependent gate and avoid a cascade of jq errors.
require() {
  if ! jq -e "$1" "$CANDIDATE" >/dev/null 2>&1; then
    bad "candidate is missing expected data: $2 (jq: $1)"
    return 1
  fi
}

recognized=0

# --- membership churn gates --------------------------------------------------
if jq -e '.churn' "$CANDIDATE" >/dev/null 2>&1; then
  recognized=1
  for key in ColdEncryptions JoinEncryptions HEReduction BaseParties; do
    require ".churn.${key}" "churn key ${key}" || true
  done
  if require '.churn.HEReduction' "churn HE-op reduction"; then
    red=$(jq -r '.churn.HEReduction' "$CANDIDATE")
    cold=$(jq -r '.churn.ColdEncryptions // "?"' "$CANDIDATE")
    joine=$(jq -r '.churn.JoinEncryptions // "?"' "$CANDIDATE")
    # The survivor-reuse contract only binds at non-trivial rosters; the
    # benchmark floors the base membership at 6, and the gate re-checks it so
    # a shrunken run can never pass trivially.
    jq -e '.churn.BaseParties >= 6' "$CANDIDATE" >/dev/null \
      || bad "churn base roster $(jq -r '.churn.BaseParties' "$CANDIDATE") below the 6-party floor"
    jq -e --argjson min "$MIN_CHURN_HE_REDUCTION" '.churn.HEReduction >= $min' "$CANDIDATE" >/dev/null \
      && say "incremental join cut encryptions ${red}x (cold $cold vs join $joine, floor ${MIN_CHURN_HE_REDUCTION}x)" \
      || bad "incremental join cut encryptions only ${red}x (cold $cold vs join $joine), floor ${MIN_CHURN_HE_REDUCTION}x"
  fi
  for arm in JoinMatch LeaveMatch RevisitMatch; do
    if require ".churn.${arm}" "churn identity flag ${arm}"; then
      if [ "$(jq -r ".churn.${arm}" "$CANDIDATE")" = "true" ]; then
        say "churn arm ${arm%Match}: selected bit-identically to its cold twin"
      else
        bad "churn arm ${arm%Match}: selected a DIFFERENT set than its cold twin"
      fi
    fi
  done
  if require '.churn | has("RevisitHEOps")' "churn revisit HE-op count"; then
    ops=$(jq -r '.churn.RevisitHEOps' "$CANDIDATE")
    jq -e '.churn.RevisitHEOps == 0' "$CANDIDATE" >/dev/null \
      && say "roster revisit paid 0 HE ops through the set-keyed similarity cache" \
      || bad "roster revisit still paid $ops HE ops — the similarity cache did not engage"
  fi
fi

# --- soak summary gates ------------------------------------------------------
if jq -e '.soak' "$CANDIDATE" >/dev/null 2>&1; then
  recognized=1
  # Require every key the soak harness gates on, so a renamed summary field
  # can never turn the soak into a silent no-op.
  soak_ok=1
  for key in queries qps p50Ms p99Ms processes shardWorkers mtSelections \
             mtSeqQps mtConcQps mtSpeedup mtSpeedupFloor mtP99Ms admitted rejected; do
    require ".soak.${key}" "soak summary key ${key}" || soak_ok=0
  done
  if [ "$soak_ok" -eq 1 ]; then
    qn=$(jq -r '.soak.queries' "$CANDIDATE")
    qps=$(jq -r '.soak.qps' "$CANDIDATE")
    p50=$(jq -r '.soak.p50Ms' "$CANDIDATE")
    p99=$(jq -r '.soak.p99Ms' "$CANDIDATE")
    procs=$(jq -r '.soak.processes' "$CANDIDATE")
    jq -e '.soak.queries >= 1 and .soak.qps > 0' "$CANDIDATE" >/dev/null \
      && say "soak drove $qn queries at $qps q/s (p50 ${p50}ms, p99 ${p99}ms)" \
      || bad "soak summary shows no throughput ($qn queries at $qps q/s)"
    jq -e '.soak.processes >= 3' "$CANDIDATE" >/dev/null \
      && say "soak trace spans $procs distinct processes (floor 3)" \
      || bad "soak trace spans only $procs distinct processes, want >= 3"

    mtsels=$(jq -r '.soak.mtSelections' "$CANDIDATE")
    mtspeed=$(jq -r '.soak.mtSpeedup' "$CANDIDATE")
    mtfloor=$(jq -r '.soak.mtSpeedupFloor' "$CANDIDATE")
    mtp99=$(jq -r '.soak.mtP99Ms' "$CANDIDATE")
    admitted=$(jq -r '.soak.admitted' "$CANDIDATE")
    rejected=$(jq -r '.soak.rejected' "$CANDIDATE")
    jq -e '.soak.mtSelections >= 1 and .soak.mtConcQps > 0' "$CANDIDATE" >/dev/null \
      && say "multi-tenant arm drove $mtsels concurrent selections (p99 ${mtp99}ms)" \
      || bad "multi-tenant arm shows no concurrent throughput"
    # The floor itself is part of the contract: a per-machine override may
    # relax the core-scaled default, but never below break-even minus 10%.
    jq -e '.soak.mtSpeedupFloor >= 0.9' "$CANDIDATE" >/dev/null \
      || bad "multi-tenant speedup floor $mtfloor below 0.9 — the gate has been defeated"
    jq -e '.soak.mtSpeedup >= .soak.mtSpeedupFloor' "$CANDIDATE" >/dev/null \
      && say "multi-tenant speedup ${mtspeed}x meets its recorded floor ${mtfloor}x" \
      || bad "multi-tenant speedup ${mtspeed}x below its recorded floor ${mtfloor}x"
    jq -e '.soak.admitted >= .soak.mtSelections' "$CANDIDATE" >/dev/null \
      && say "admission admitted $admitted selections (>= $mtsels load selections)" \
      || bad "admission admitted only $admitted of $mtsels load selections"
    jq -e '.soak.rejected >= 1' "$CANDIDATE" >/dev/null \
      && say "admission budget probe recorded $rejected rejection(s)" \
      || bad "admission budget probe recorded no rejection"
  fi
fi

if [ "$recognized" -eq 0 ]; then
  bad "candidate $CANDIDATE has no recognized top-level section (.churn / .soak)"
fi
if [ "$fail" -ne 0 ]; then
  echo "bench_compare: REGRESSION DETECTED" >&2
  exit 1
fi
say "all gates passed"
