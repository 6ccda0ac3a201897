#!/usr/bin/env sh
# Runs the `roundtrip`, `obs_overhead`, `rpc_loopback`, and tracker
# (`taskproc` + `taskproc_compaction`) Criterion groups and the
# `driver_ceiling` sweep, snapshotting machine-readable results (one JSON
# object per line, appended by the harness via CRITERION_JSON) to
# BENCH_roundtrip.json, BENCH_obs_overhead.json, BENCH_rpc_loopback.json,
# BENCH_tracker.json, and BENCH_driver_ceiling.json. Exits non-zero if
#   * the windowed fixed-base modexp does not hold its >=3x speedup over
#     generic square-and-multiply, or
#   * one SHA-256 compression through the dispatch point costs more than
#     0.5x the portable rounds on a CPU whose SHA extensions the bench
#     detected, or more than 1.1x on one without (the dispatch itself
#     must be free), or
#   * on a host with at least two cores, signing a 4096-transaction batch
#     through the pipelined signers costs more than 0.75x signing it on
#     one thread (the chunked hand-off must leave the second core its
#     gain; on one core the ratio is printed, not gated), or
#   * folding the report's aggregates from 100k rows in one pass costs more
#     than 0.5x filling a Performance table with them and asking it the
#     four queries (what the report stage did before PR 19 and the frozen
#     driver_e2e's store.report_ns_per_row still times; nothing on the run
#     path fills a table any more; ~0.15x here), or
#   * signing through a *disabled* observability context costs more than
#     5% over the plain path (the near-zero-when-off guarantee), or
#   * a loopback-TCP RPC call costs more than 50x the in-process
#     dispatch (the distributed mode's transport stays in the same
#     order of magnitude as the work it wraps), or
#   * matching a 1000-tx block against 100k in-flight records through the
#     task-processing table is not at least 100x cheaper than through the
#     batch-testing baseline (Fig. 9's claim; ~3000x here), or
#   * inserting a key into the Bloom filter costs more than 1.4x looking
#     one up (best samples; both touch one 64-byte block and allocate
#     nothing: 0.9-1.2x here, 1.4-2.0x with a probe Vec per insert), or
#   * the driver_ceiling sweep fails its accounting identity or cannot
#     sustain the million-record in-flight depth.
#
# Usage: scripts/bench_snapshot.sh [roundtrip.json] [obs_overhead.json] [driver_ceiling.json] [rpc_loopback.json] [tracker.json]
set -eu

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_roundtrip.json}"
OBS_OUT="${2:-BENCH_obs_overhead.json}"
CEILING_OUT="${3:-BENCH_driver_ceiling.json}"
RPC_OUT="${4:-BENCH_rpc_loopback.json}"
TRACKER_OUT="${5:-BENCH_tracker.json}"
abspath() {
    case "$1" in
        /*) printf '%s\n' "$1" ;;
        *) printf '%s/%s\n' "$(pwd)" "$1" ;;
    esac
}
OUT_ABS="$(abspath "$OUT")"
OBS_OUT_ABS="$(abspath "$OBS_OUT")"

: > "$OUT_ABS"
CRITERION_JSON="$OUT_ABS" cargo bench --offline -p bench --bench roundtrip

generic=$(awk -F'"mean_ns":' '/"roundtrip\/modexp_generic"/ { split($2, a, ","); print a[1] }' "$OUT_ABS")
fixed=$(awk -F'"mean_ns":' '/"roundtrip\/modexp_fixed_base"/ { split($2, a, ","); print a[1] }' "$OUT_ABS")
if [ -z "$generic" ] || [ -z "$fixed" ]; then
    echo "bench_snapshot: modexp results missing from $OUT" >&2
    exit 1
fi

awk -v g="$generic" -v f="$fixed" 'BEGIN {
    r = g / f
    printf "fixed-base modexp speedup: %.1fx (generic %.0f ns/batch -> windowed %.0f ns/batch)\n", r, g, f
    if (r < 3.0) {
        print "bench_snapshot: speedup below the 3x floor" > "/dev/stderr"
        exit 1
    }
}'
# The first line of the snapshot is the host (cores, SHA extensions as
# the program detected them); the compress gate depends on it.
sha_ext=$(awk -F'"sha_extensions":' '/"roundtrip\/_host"/ { split($2, a, "}"); print a[1] }' "$OUT_ABS")
dispatched=$(awk -F'"mean_ns":' '/"roundtrip\/sha256_compress"/ { split($2, a, ","); print a[1] }' "$OUT_ABS")
portable=$(awk -F'"mean_ns":' '/"roundtrip\/sha256_compress_portable"/ { split($2, a, ","); print a[1] }' "$OUT_ABS")
if [ -z "$sha_ext" ] || [ -z "$dispatched" ] || [ -z "$portable" ]; then
    echo "bench_snapshot: sha256_compress results or host line missing from $OUT" >&2
    exit 1
fi
awk -v e="$sha_ext" -v d="$dispatched" -v p="$portable" 'BEGIN {
    r = d / p
    limit = (e == "true") ? 0.5 : 1.1
    printf "sha256 compress, dispatched / portable: %.2fx (%.0f ns / %.0f ns; SHA extensions detected: %s, limit %.1fx)\n", r, d, p, e, limit
    if (r > limit) {
        print "bench_snapshot: dispatched sha256 compress above its limit against the portable rounds" > "/dev/stderr"
        exit 1
    }
}'
# The signer ratio is taken between the best samples, not the means: a
# sample is a few 2 ms bursts of freshly spawned threads, and whether the
# host's scheduler spreads a burst over both cores varies sample to sample
# (the mean of the pipelined row wanders between 0.6x and 1.0x of serial on
# the same code). The best sample is the one where it did; a per-item
# hand-off costs more than serial signing even there (parent: 0.98-1.18x).
cores=$(awk -F'"host_cores":' '/"roundtrip\/_host"/ { split($2, a, ","); print a[1] }' "$OUT_ABS")
serial=$(awk -F'"min_ns":' '/"roundtrip\/sign_serial_4096"/ { split($2, a, ","); print a[1] }' "$OUT_ABS")
pipelined=$(awk -F'"min_ns":' '/"roundtrip\/sign_pipelined_4096"/ { split($2, a, ","); print a[1] }' "$OUT_ABS")
if [ -z "$cores" ] || [ -z "$serial" ] || [ -z "$pipelined" ]; then
    echo "bench_snapshot: sign_serial_4096 / sign_pipelined_4096 results or host line missing from $OUT" >&2
    exit 1
fi
awk -v c="$cores" -v s="$serial" -v p="$pipelined" 'BEGIN {
    r = p / s
    printf "signing 4096 tx, pipelined / serial (best samples): %.2fx (%.0f ns / %.0f ns; host cores: %d, limit %s)\n", r, p, s, c, (c >= 2) ? "0.75x" : "none on one core"
    if (c >= 2 && r > 0.75) {
        print "bench_snapshot: pipelined signing above 0.75x of serial on a multi-core host" > "/dev/stderr"
        exit 1
    }
}'
queries=$(awk -F'"mean_ns":' '/"roundtrip\/store_table_queries_100k"/ { split($2, a, ","); print a[1] }' "$OUT_ABS")
summary=$(awk -F'"mean_ns":' '/"roundtrip\/store_summary_100k"/ { split($2, a, ","); print a[1] }' "$OUT_ABS")
if [ -z "$queries" ] || [ -z "$summary" ]; then
    echo "bench_snapshot: store_table_queries_100k / store_summary_100k results missing from $OUT" >&2
    exit 1
fi
awk -v q="$queries" -v s="$summary" 'BEGIN {
    r = s / q
    printf "report aggregates over 100k rows, one-pass fold / table + four queries: %.2fx (%.0f ns / %.0f ns)\n", r, s, q
    if (r > 0.5) {
        print "bench_snapshot: the one-pass summary above 0.5x of the table queries it replaced" > "/dev/stderr"
        exit 1
    }
}'
echo "snapshot written to $OUT"

# Before/after: a snapshot of the previous state of the code, taken on
# this host, sits beside the live one.
BEFORE="${OUT_ABS%.json}.before.json"
if [ -f "$BEFORE" ]; then
    echo "before ($(basename "$BEFORE")) -> after ($(basename "$OUT_ABS")), mean ns:"
    awk -F'"' '
        function mean(line,   a) { split(line, a, "\"mean_ns\":"); split(a[2], a, ","); return a[1] }
        /"mean_ns"/ && FNR == NR { before[$4] = mean($0); next }
        /"mean_ns"/ {
            if ($4 in before) printf "  %-36s %10.1f -> %10.1f  (%.2fx)\n", $4, before[$4], mean($0), mean($0) / before[$4]
            else printf "  %-36s %10s -> %10.1f\n", $4, "-", mean($0)
        }' "$BEFORE" "$OUT_ABS"
fi

: > "$OBS_OUT_ABS"
CRITERION_JSON="$OBS_OUT_ABS" cargo bench --offline -p bench --bench obs_overhead

plain=$(awk -F'"mean_ns":' '/"obs_signing\/sign_plain"/ { split($2, a, ","); print a[1] }' "$OBS_OUT_ABS")
disabled=$(awk -F'"mean_ns":' '/"obs_signing\/sign_obs_disabled"/ { split($2, a, ","); print a[1] }' "$OBS_OUT_ABS")
if [ -z "$plain" ] || [ -z "$disabled" ]; then
    echo "bench_snapshot: obs signing results missing from $OBS_OUT" >&2
    exit 1
fi

awk -v p="$plain" -v d="$disabled" 'BEGIN {
    r = d / p
    printf "disabled-obs signing overhead: %.3fx (plain %.0f ns/batch -> obs-disabled %.0f ns/batch)\n", r, p, d
    if (r > 1.05) {
        print "bench_snapshot: disabled-obs overhead above the 5% ceiling" > "/dev/stderr"
        exit 1
    }
}'
echo "snapshot written to $OBS_OUT"

RPC_OUT_ABS="$(abspath "$RPC_OUT")"
: > "$RPC_OUT_ABS"
CRITERION_JSON="$RPC_OUT_ABS" cargo bench --offline -p bench --bench rpc_loopback

inproc=$(awk -F'"mean_ns":' '/"rpc_loopback\/inproc_call"/ { split($2, a, ","); print a[1] }' "$RPC_OUT_ABS")
tcp=$(awk -F'"mean_ns":' '/"rpc_loopback\/tcp_loopback_call"/ { split($2, a, ","); print a[1] }' "$RPC_OUT_ABS")
if [ -z "$inproc" ] || [ -z "$tcp" ]; then
    echo "bench_snapshot: rpc_loopback results missing from $RPC_OUT" >&2
    exit 1
fi

awk -v i="$inproc" -v t="$tcp" 'BEGIN {
    r = t / i
    printf "loopback-TCP RPC overhead: %.2fx (in-process %.0f ns/call -> TCP %.0f ns/call)\n", r, i, t
    if (r > 50.0) {
        print "bench_snapshot: loopback transport overhead above the 50x ceiling" > "/dev/stderr"
        exit 1
    }
}'
echo "snapshot written to $RPC_OUT"

TRACKER_OUT_ABS="$(abspath "$TRACKER_OUT")"
: > "$TRACKER_OUT_ABS"
CRITERION_JSON="$TRACKER_OUT_ABS" cargo bench --offline -p bench --bench taskproc
CRITERION_JSON="$TRACKER_OUT_ABS" cargo bench --offline -p bench --bench taskproc_compaction

baseline=$(awk -F'"mean_ns":' '/"block_matching\/batch_baseline\/100000"/ { split($2, a, ","); print a[1] }' "$TRACKER_OUT_ABS")
taskproc=$(awk -F'"mean_ns":' '/"block_matching\/hammer_taskproc\/100000"/ { split($2, a, ","); print a[1] }' "$TRACKER_OUT_ABS")
if [ -z "$baseline" ] || [ -z "$taskproc" ]; then
    echo "bench_snapshot: block_matching results missing from $TRACKER_OUT" >&2
    exit 1
fi

awk -v b="$baseline" -v t="$taskproc" 'BEGIN {
    r = b / t
    printf "block matching at 100k in flight, batch baseline / task processing: %.0fx (%.0f ns / %.0f ns per 1000-tx block)\n", r, b, t
    if (r < 100.0) {
        print "bench_snapshot: task-processing matching below the 100x floor over the batch baseline" > "/dev/stderr"
        exit 1
    }
}'
bloom_insert=$(awk -F'"min_ns":' '/"bloom\/insert"/ { split($2, a, ","); print a[1] }' "$TRACKER_OUT_ABS")
bloom_hit=$(awk -F'"min_ns":' '/"bloom\/contains_hit"/ { split($2, a, ","); print a[1] }' "$TRACKER_OUT_ABS")
if [ -z "$bloom_insert" ] || [ -z "$bloom_hit" ]; then
    echo "bench_snapshot: bloom/insert / bloom/contains_hit results missing from $TRACKER_OUT" >&2
    exit 1
fi
awk -v i="$bloom_insert" -v h="$bloom_hit" 'BEGIN {
    r = i / h
    printf "bloom filter, insert / lookup hit (best samples): %.2fx (%.1f ns / %.1f ns)\n", r, i, h
    if (r > 1.4) {
        print "bench_snapshot: a Bloom insert above 1.4x of a lookup (is it allocating or dividing again?)" > "/dev/stderr"
        exit 1
    }
}'
echo "snapshot written to $TRACKER_OUT"

CEILING_OUT_ABS="$(abspath "$CEILING_OUT")"
# Full sweep: 1M sustained in-flight records, single-lock (shards=1)
# baseline against the sharded tracker. The bin asserts the accounting
# identity internally and writes its JSON summary, which we adopt as the
# committed snapshot.
cargo run --release --offline -p bench --bin driver_ceiling -- \
    --inflight 1000000 --blocks 50 --block-size 10000 --shards 1,2,4,8,16
cp target/bench-results/driver_ceiling.json "$CEILING_OUT_ABS"
echo "snapshot written to $CEILING_OUT"
