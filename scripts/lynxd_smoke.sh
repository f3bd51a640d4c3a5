#!/bin/sh
# lynxd end-to-end smoke: start the daemon on an ephemeral port, submit
# a seeded one-cell load job through lynxctl, and assert the streamed
# result table is byte-identical to the same sweep run via the CLI
# (`lynxload -json`) — the daemon's determinism contract. Then check
# that cache hits serve the cold job's rows and metrics rollup, and
# that the daemon shuts down cleanly on SIGTERM.
#
# Usage: scripts/lynxd_smoke.sh [BIN_DIR]   (default ./bin)
set -eu

BIN=${1:-./bin}
OUT=$(mktemp -d)
DPID=
cleanup() {
	[ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
	rm -rf "$OUT"
}
trap cleanup EXIT

"$BIN/lynxd" -addr 127.0.0.1:0 >"$OUT/lynxd.log" 2>&1 &
DPID=$!

# The daemon's first stdout line announces the actual address.
ADDR=
i=0
while [ $i -lt 100 ]; do
	ADDR=$(sed -n 's/^lynxd: listening on //p' "$OUT/lynxd.log")
	[ -n "$ADDR" ] && break
	kill -0 "$DPID" 2>/dev/null || { echo "lynxd-smoke: daemon died at startup"; cat "$OUT/lynxd.log"; exit 1; }
	sleep 0.1
	i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "lynxd-smoke: daemon never announced its address"; cat "$OUT/lynxd.log"; exit 1; }
export LYNXD_ADDR="$ADDR"

# One seeded single-cell sweep: charlotte at 40/s over a 200ms window
# (the same cell CI's seeded lynxload run exercises).
"$BIN/lynxctl" submit '{"kind":"load","client":"smoke","load":{"substrates":["charlotte"],"rates":[40],"window":"200ms","seed":1}}' >"$OUT/submit.json"
ID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$OUT/submit.json")
[ -n "$ID" ] || { echo "lynxd-smoke: submit returned no job id"; cat "$OUT/submit.json"; exit 1; }

# `result` blocks on the stream until the job completes, emitting only
# the verbatim table lines.
"$BIN/lynxctl" result "$ID" >"$OUT/daemon.jsonl"
"$BIN/lynxload" -substrates charlotte -rates 40 -window 200ms -seed 1 -json >"$OUT/cli.jsonl"
if ! cmp -s "$OUT/daemon.jsonl" "$OUT/cli.jsonl"; then
	echo "lynxd-smoke: daemon result differs from lynxload -json (determinism contract broken)"
	diff "$OUT/daemon.jsonl" "$OUT/cli.jsonl" | head -10 || true
	exit 1
fi

# Second leg: a faulted load job. The scenario name rides through the
# job spec, becomes a grid axis value on the daemon side, and the
# streamed table must still match the CLI byte for byte.
"$BIN/lynxctl" submit '{"kind":"load","client":"smoke","load":{"substrates":["charlotte"],"rates":[40],"window":"200ms","seed":1,"faults":["drop10"]}}' >"$OUT/submit2.json"
FID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$OUT/submit2.json")
[ -n "$FID" ] || { echo "lynxd-smoke: faults submit returned no job id"; cat "$OUT/submit2.json"; exit 1; }
"$BIN/lynxctl" result "$FID" >"$OUT/daemon_faults.jsonl"
"$BIN/lynxload" -substrates charlotte -rates 40 -window 200ms -seed 1 -faults drop10 -json >"$OUT/cli_faults.jsonl"
if ! cmp -s "$OUT/daemon_faults.jsonl" "$OUT/cli_faults.jsonl"; then
	echo "lynxd-smoke: daemon faults result differs from lynxload -faults -json"
	diff "$OUT/daemon_faults.jsonl" "$OUT/cli_faults.jsonl" | head -10 || true
	exit 1
fi

# Cached-path leg: a cold two-cell load job, then its repeat (served
# wholly from the cell cache) and an extend by one rate (two hits, one
# fresh cell). A hit serves the rows the cold job stored, and the
# per-job metrics rollup is built on request from the job's table, so
# the repeat's rows and rollup must equal the cold job's byte for byte,
# and the extend's first two rows and its rollup entries for those
# cells must too. The seed is one no other leg uses, so the first job
# is cold.
CACHED='"substrates":["charlotte"],"window":"200ms","seed":3'
job_result() { # NAME SPEC: submit, write NAME.jsonl and NAME.metrics
	"$BIN/lynxctl" submit "{\"kind\":\"load\",\"client\":\"smoke\",\"load\":{$2}}" >"$OUT/$1.submit"
	JID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$OUT/$1.submit")
	[ -n "$JID" ] || { echo "lynxd-smoke: $1 submit returned no job id"; cat "$OUT/$1.submit"; exit 1; }
	"$BIN/lynxctl" result "$JID" >"$OUT/$1.jsonl"
	"$BIN/lynxctl" metrics "$JID" >"$OUT/$1.metrics"
}
cache_hits() {
	"$BIN/lynxctl" metrics | sed -n 's/.*"lynxd_cache_hits":\([0-9]*\).*/\1/p'
}
# entries splits a flat JSON counter object into one "name":value line each.
entries() { grep -o '"[^"]*":-\{0,1\}[0-9][0-9]*' "$1"; }
job_result cold "$CACHED,\"rates\":[30,60]"
HITS0=$(cache_hits)
job_result repeat "$CACHED,\"rates\":[30,60]"
job_result extend "$CACHED,\"rates\":[30,60,90]"
HITS1=$(cache_hits)
[ "$(wc -l <"$OUT/cold.jsonl")" -eq 2 ] || { echo "lynxd-smoke: cold job streamed $(wc -l <"$OUT/cold.jsonl") rows, want 2"; exit 1; }
cmp -s "$OUT/cold.jsonl" "$OUT/repeat.jsonl" || { echo "lynxd-smoke: repeat rows differ from the cold job's"; exit 1; }
head -n 2 "$OUT/extend.jsonl" | cmp -s - "$OUT/cold.jsonl" || { echo "lynxd-smoke: extend's shared rows differ from the cold job's"; exit 1; }
cmp -s "$OUT/cold.metrics" "$OUT/repeat.metrics" || { echo "lynxd-smoke: repeat metrics rollup differs from the cold job's"; exit 1; }
entries "$OUT/cold.metrics" >"$OUT/cold.entries"
entries "$OUT/extend.metrics" >"$OUT/extend.entries"
[ -s "$OUT/cold.entries" ] || { echo "lynxd-smoke: cold job has an empty metrics rollup"; cat "$OUT/cold.metrics"; exit 1; }
if grep -vxFf "$OUT/extend.entries" "$OUT/cold.entries" >"$OUT/missing.entries"; then
	echo "lynxd-smoke: extend metrics rollup differs from the cold job's on the shared cells:"
	head -3 "$OUT/missing.entries"
	exit 1
fi
[ "$HITS1" -ge $((HITS0 + 4)) ] || { echo "lynxd-smoke: lynxd_cache_hits went $HITS0 -> $HITS1, want +4 (repeat 2, extend 2)"; exit 1; }

# Third leg: the flight recorder. Submit a sampled-mode job at a rate
# no earlier leg used (25/s — a cached cell would run nothing and emit
# no events), follow its live trace with `lynxtrace -follow`, and
# assert the stream is well-formed JSONL carrying both sampled events
# and a non-empty end-of-run ring dump.
"$BIN/lynxctl" submit '{"kind":"load","client":"smoke","load":{"substrates":["charlotte"],"rates":[25],"window":"200ms","seed":1,"trace":"sampled"}}' >"$OUT/submit3.json"
TID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$OUT/submit3.json")
[ -n "$TID" ] || { echo "lynxd-smoke: traced submit returned no job id"; cat "$OUT/submit3.json"; exit 1; }
"$BIN/lynxtrace" -follow "$TID" -addr "$ADDR" -format jsonl >"$OUT/trace.jsonl"
[ -s "$OUT/trace.jsonl" ] || { echo "lynxd-smoke: traced job streamed no trace lines"; exit 1; }
# Every line must be a JSON object (JSONL), and the stream must carry a
# dump header whose ring is non-empty.
if grep -qv '^{.*}$' "$OUT/trace.jsonl"; then
	echo "lynxd-smoke: trace stream is not well-formed JSONL:"
	grep -v '^{.*}$' "$OUT/trace.jsonl" | head -3
	exit 1
fi
grep -q '"type":"dump"' "$OUT/trace.jsonl" || { echo "lynxd-smoke: trace stream carried no ring dump"; exit 1; }
if grep '"type":"dump"' "$OUT/trace.jsonl" | grep -q '"ring":0'; then
	echo "lynxd-smoke: ring dump is empty"
	grep '"type":"dump"' "$OUT/trace.jsonl"
	exit 1
fi
grep -qv '"type":"dump"' "$OUT/trace.jsonl" || { echo "lynxd-smoke: trace stream carried no sampled events"; exit 1; }

# Clean shutdown: SIGTERM must end the process with exit 0.
kill "$DPID"
st=0
wait "$DPID" || st=$?
DPID=
if [ "$st" -ne 0 ]; then
	echo "lynxd-smoke: daemon exited $st on SIGTERM, want 0"
	cat "$OUT/lynxd.log"
	exit 1
fi
grep -q "shutting down" "$OUT/lynxd.log" || { echo "lynxd-smoke: no shutdown line"; cat "$OUT/lynxd.log"; exit 1; }

echo "lynxd-smoke: ok (daemon table byte-identical to CLI, cache hits serve the cold job's bytes, clean shutdown)"
