#!/usr/bin/env sh
# One-command offline CI gate: formatting, the architecture's rules, lints,
# docs, the tier-1 suite and the smokes. The rules live where they can be
# held: in the compiler (the [lints] tables of the manifests, clippy.toml,
# private fields) and, for what a compiler cannot say, in one table of
# patterns, scripts/grep_gates.tsv, read below.
#
# Usage: scripts/ci_check.sh
set -eu

cd "$(dirname "$0")/.."

# Print what broke a gate (its reason, then the offending lines), and stop.
fail_on() {
    printf 'ci_check: %s\n' "$1" >&2
    [ -z "${2:-}" ] || printf '%s\n' "$2" >&2
    exit 1
}

# Non-test code of a file, up to its first #[cfg(test)], as grep prints it.
non_test() { awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$1"; }

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> architecture rules: [lints] inherited, scripts/grep_gates.tsv, four bespoke checks"
# Every first-party manifest inherits the workspace's `unsafe_code =
# "forbid"` and `unreachable_pub = "warn"`; hammer-crypto, whose
# sha256::x86 holds the one allow, denies unsafe_code in its own
# [lints.rust] instead and names unreachable_pub there too.
grep -qx 'unreachable_pub = "warn"' Cargo.toml \
    || fail_on "Cargo.toml's [workspace.lints.rust] does not warn on unreachable_pub"
for manifest in Cargo.toml crates/*/Cargo.toml; do
    grep -A1 -x '\[lints\]' "$manifest" | grep -qx 'workspace = true' \
        || { grep -qx 'unsafe_code = "deny"' "$manifest" \
            && grep -qx 'unreachable_pub = "warn"' "$manifest"; } \
        || fail_on "$manifest has no [lints] workspace = true and does not set both unsafe_code = \"deny\" and unreachable_pub = \"warn\""
done
# One row, one rule (the file's header gives the columns). A row fails
# closed: a missing path, a pattern or except grep cannot compile (exit 2),
# an unknown mode or a short row fails the gate like a hit does.
tab=$(printf '\t')
while IFS=$tab read -r mode paths except pattern reason; do
    case $mode in '#'* | '') continue ;; esac
    [ -n "$reason" ] || fail_on "grep_gates.tsv: a row has fewer than five columns: $mode $paths"
    for path in $paths; do
        [ -e "$path" ] || fail_on "$reason" "grep_gates.tsv: no such path: $path"
    done
    [ "$except" != - ] || except='^$'
    rc=0
    case $mode in
    all) hits=$(grep -rnHIE -- "$pattern" $paths) || rc=$? ;;
    rs) hits=$(grep -rnHIE --include='*.rs' -- "$pattern" $paths) || rc=$? ;;
    non-test) hits=$(find $paths -name '*.rs' | while read -r file; do non_test "$file"; done \
        | grep -E -- "$pattern") || rc=$? ;;
    *) fail_on "$reason" "grep_gates.tsv: unknown mode: $mode" ;;
    esac
    hits=$(printf '%s\n' "$hits" | grep -vE -e "$except" -e '^$') || [ $? -eq 1 ] || rc=2
    [ "$rc" -le 1 ] || fail_on "$reason" "grep_gates.tsv: grep cannot run this row's pattern or except"
    [ -z "$hits" ] || fail_on "$reason" "$hits"
done <scripts/grep_gates.tsv
# What is not "this pattern is absent". The ledger's write guard is private
# to kernel.rs (ShardCtx::ledger), where it is taken once, for seal_block's
# push (the file is read with its newlines folded, so a chain rustfmt split
# over lines is seen too).
[ "$(tr '\n' ' ' <crates/hammer-chain/src/kernel.rs \
    | grep -oE 'ledger[[:space:]]*\.write\(\)([[:space:]]*\.append\()?' | tr -d '[:space:]')" \
    = 'ledger.write().append(' ] \
    || fail_on "the ledger's write guard is taken beside seal_block's push (PR 28, DESIGN §5)"
# One known-keys check, hammer_rpc::json's.
[ "$(grep -rnE --include='*.rs' '\bfn known_keys\b' crates src tests examples | cut -d: -f1)" \
    = crates/hammer-rpc/src/json.rs ] \
    || fail_on "known_keys is defined other than once, in hammer-rpc/src/json.rs (PR 26, DESIGN §5)"
# One epoch loop in hammer-predict's non-test code, SeqTrainer's.
[ "$(find crates/hammer-predict/src -name '*.rs' | while read -r file; do non_test "$file"; done \
    | grep -cE 'for .* in 0\.\.[a-z_.]*epochs\b')" = 1 ] \
    || fail_on "hammer-predict's non-test code has other than one epoch loop (PR 27, DESIGN §3)"
# No commit bus module.
[ ! -e crates/hammer-chain/src/events.rs ] \
    || fail_on "crates/hammer-chain/src/events.rs is back: a commit is observed by reading blocks (PR 30, DESIGN §5)"

echo "==> cargo clippy (-D warnings)"
# The [lints] tables: the workspace forbids unsafe_code, hammer-crypto
# denies it and clippy::undocumented_unsafe_blocks; both warn on
# unreachable_pub, so a `pub` item no other crate can reach fails here.
# The driver module opts into clippy::too_many_lines (threshold 150,
# clippy.toml), so no stage function can grow back into a monolith.
# clippy.toml's disallowed-methods rejects the four std thread spawns
# (std::thread::spawn, Builder::spawn, Builder::spawn_scoped, Scope::spawn)
# in every target, tests included: a thread starts through
# hammer_net::thread, which names it.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (-D warnings)"
# Vendored crates.io stand-ins (vendor/*) mimic external APIs and are
# exempt from the documentation gate; every first-party crate must
# document cleanly.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet \
    --exclude rand --exclude proptest --exclude criterion \
    --exclude crossbeam --exclude parking_lot

echo "==> tier-1: cargo build --release && cargo test"
cargo build --workspace --release --offline
cargo test --workspace --release --offline -q
# The vendored channel carries logic the driver's liveness depends on (it
# wakes a peer only when one is parked). `vendor/*` are workspace members,
# so the line above already ran its tests; naming the package keeps them
# from being dropped with a narrower test line.
cargo test --offline -q -p crossbeam

echo "==> hammer-crypto under both profiles"
# The crate holds the repo's one unsafe block and a page of wrapping
# arithmetic: the dev profile (opt-level 3 for this crate) keeps overflow
# checks and std's debug precondition checks on, release is what ships.
cargo test --offline -q -p hammer-crypto
cargo test --release --offline -q -p hammer-crypto

echo "==> obs-overhead smoke: disabled registry must not tax the hot path"
# Short samples (the vendored criterion has no CLI filter, so the whole
# group runs): the sign_obs_disabled/sign_plain ratio must stay within
# noise. The smoke threshold is looser than bench_snapshot.sh's 5% gate
# because 5 ms samples on a loaded 1-core host are jittery.
SMOKE_JSON="$(mktemp)"
CRITERION_JSON="$SMOKE_JSON" CRITERION_SAMPLE_MS=5 \
    cargo bench --offline -p bench --bench obs_overhead >/dev/null
plain=$(awk -F'"mean_ns":' '/"obs_signing\/sign_plain"/ { split($2, a, ","); print a[1] }' "$SMOKE_JSON")
disabled=$(awk -F'"mean_ns":' '/"obs_signing\/sign_obs_disabled"/ { split($2, a, ","); print a[1] }' "$SMOKE_JSON")
rm -f "$SMOKE_JSON"
[ -n "$plain" ] && [ -n "$disabled" ] || fail_on "obs signing results missing from smoke run"
awk -v p="$plain" -v d="$disabled" 'BEGIN {
    r = d / p
    printf "disabled-obs signing overhead (smoke): %.3fx\n", r
    if (r > 1.25) {
        print "ci_check: disabled-obs overhead far above noise" > "/dev/stderr"
        exit 1
    }
}'

echo "==> driver-ceiling smoke: sharded tracker accounting identity"
# Small sweep point (2 shards x 50k in-flight) of the driver_ceiling
# bench: the bin asserts the accounting identity internally and exits
# non-zero on any mismatch; the grep pins the summary line too.
ceiling_out=$(cargo run --release --offline -p bench --bin driver_ceiling -- --smoke)
echo "$ceiling_out" | tail -n 3
echo "$ceiling_out" | grep -q 'accounting identity holds' \
    || fail_on "driver_ceiling accounting identity missing"

echo "==> scenario_sweep smokes: seeded chaos, corpus scenarios, a SIGKILLed node-host"
# One bin, three cell sets: `--seeds 3` is 3 seeds x 4 backends of seeded
# chaos under the invariant oracle (the full matrix is `--seeds 10`);
# `--smoke` two fast corpus scenarios x two fast backends graded by their
# expectations (the bare bin runs 8 x 4); `--crash-smoke` one backend
# behind loopback TCP whose node-host the crash window SIGKILLs and the
# supervisor restarts, with the accounting identity intact and no node
# process left behind. The bin exits non-zero on any violation or run
# error, or when the kill or the restart never happened; the summary line
# is a belt-and-suspenders check.
sweep() { # sweep <cells> <scenario_sweep args...>
    cells=$1
    shift
    out=$(cargo run --release --offline -p bench --bin scenario_sweep -- "$@")
    echo "$out" | tail -n 2
    echo "$out" | grep -qx "scenario sweep: $cells cells, 0 violations" \
        || fail_on "scenario_sweep $* reported violations"
}
sweep 12 --seeds 3
sweep 4 --smoke
cargo build --release --offline --bin node-host
sweep 1 --crash-smoke

echo "==> Table III shape: the predictor's checked claims hold at full epochs"
# table3_models trains the five Table III models on the three paper traces
# (one thread per trace: ~40 s on two cores) and exits non-zero unless
# "Ours" is the only model with R2 > 0 on all three datasets and has the
# lowest MAE on DeFi and Sandbox. The bit-for-bit pin at 5 epochs is
# hammer-predict's tests/golden.rs, which the tier-1 line runs.
table3_out=$(cargo run --release --offline -p bench --bin table3_models)
echo "$table3_out" | tail -n 2
echo "$table3_out" | grep -q '^shape holds: ' || fail_on "table3_models printed no shape verdict"

echo "==> virtual figures: Fig. 6, 7, 8, 10, the poll-interval ablation and correctness_check read the same twice"
# Each binary runs its chains and driver on virtual clocks, so its table is
# a function of the code alone: the second run must print the same bytes,
# and a tie broken by thread id, hash order or the host's scheduler fails
# here. fig8_pipeline times signer::sign_serial_obs, sign_async_obs and
# sign_chunks, each signature paying 2 ms of simulated client CPU, and exits
# non-zero unless the pipeline is >= 6x serial and async lies between the
# two at every batch size (a signer that holds its chunks until the batch
# ends reads ~4x); fig6_chains exits non-zero unless neuchain-sim has the
# highest TPS and the lowest mean and p95 latency and ethereum-sim the
# lowest TPS and the highest p95; correctness_check exits non-zero on any driver / ledger
# mismatch over its 100 000 transactions. The six take about 30 s twice.
figures_dir=$(mktemp -d)
for figure in fig6_chains fig7_frameworks fig8_pipeline fig10_scaling ablation_poll_interval \
    correctness_check; do
    for run in first second; do
        cargo run -q --release --offline -p bench --bin "$figure" >"$figures_dir/$run" 2>/dev/null \
            || fail_on "$figure exited non-zero on its $run run"
    done
    tail -n 2 "$figures_dir/first"
    case "$figure" in
        fig6_chains | fig8_pipeline)
            grep -q '^shape holds: ' "$figures_dir/first" || fail_on "$figure printed no shape verdict"
            ;;
    esac
    figure_diff=$(diff "$figures_dir/first" "$figures_dir/second") || true
    cmp -s "$figures_dir/first" "$figures_dir/second" \
        || fail_on "$figure printed two different tables: a reading depends on the host's scheduler" "$figure_diff"
done
rm -r "$figures_dir"

echo "==> the whole corpus: 8 scenarios x 4 backends, twice, the same JSON, the two known red cells"
# In process every cell runs on a virtual clock, so two sweeps write the
# same verdict matrix but for each report's wall time. Two cells are red:
# ingress-blackhole and crash-restart on ethereum-sim commit 320 of 400
# against min_inclusion >= 0.9 (ROADMAP, State). The
# summary is pinned to exactly those two, so a new break and a mend both
# fail here until the pin is changed with them. About 1 s twice.
corpus_dir=$(mktemp -d)
for run in first second; do
    rc=0
    cargo run -q --release --offline -p bench --bin scenario_sweep >"$corpus_dir/$run.out" 2>/dev/null \
        || rc=$?
    [ "$rc" -le 1 ] || fail_on "scenario_sweep (the whole corpus) failed to run: exit $rc"
    sed 's/"wall_time_s":[^,}]*/"wall_time_s":0/g' target/bench-results/scenario_sweep.json \
        >"$corpus_dir/$run.json"
done
tail -n 1 "$corpus_dir/first.out"
grep -qx 'scenario sweep: 32 cells, 2 violations' "$corpus_dir/first.out" \
    || fail_on "the corpus no longer reads 32 cells, 2 violations" "$(tail -n 1 "$corpus_dir/first.out")"
red=$(grep -E '\| *FAIL *\|' "$corpus_dir/first.out" | awk -F'|' '{ gsub(/ /, ""); print $2 "/" $3 }' | sort | tr '\n' ' ')
[ "$red" = "crash-restart/ethereum-sim ingress-blackhole/ethereum-sim " ] \
    || fail_on "the corpus's red cells moved from crash-restart and ingress-blackhole on ethereum-sim" "$red"
corpus_diff=$(diff "$corpus_dir/first.json" "$corpus_dir/second.json" | head -n 20) || true
cmp -s "$corpus_dir/first.json" "$corpus_dir/second.json" \
    || fail_on "two corpus sweeps wrote different verdicts: a cell depends on the host's scheduler" "$corpus_diff"
rm -r "$corpus_dir"

echo "==> non-test lines of code (scripts/loc.sh)"
scripts/loc.sh

echo "==> driver_e2e's Cargo.lock: no dependency edge changed under the frozen package"
# ci_smoke.sh builds the benchmark without --locked, so a new edge between
# the crates it builds (hammer-net gaining crossbeam, say) would rewrite its
# lock without an error. The lock is not tracked (the root .gitignore): a
# checkout that never built the package has none to hold yet.
driver_lock=crates/bench/src/bin/driver_e2e/Cargo.lock
[ ! -e "$driver_lock" ] || cargo metadata --locked --offline --format-version 1 \
    --manifest-path crates/bench/src/bin/driver_e2e/Cargo.toml >/dev/null \
    || fail_on "the crates driver_e2e builds changed their dependencies: $driver_lock would be rewritten"

echo "==> driver_e2e smoke: the benchmark's tests and every workload at 1/50 size"
crates/bench/src/bin/driver_e2e/ci_smoke.sh

echo "==> idle-CPU gate: a paced run costs at most 2.2x a saturated run's CPU per transaction"
# inproc_paced drives at 7 % of capacity, so what it spends beyond
# inproc_saturate's CPU per transaction is what the instrument burns while
# it waits (3.4x with a yield tail on every wall-mode wait, 1.5x without).
# A ratio of two readings of one binary minutes apart: the host's slow days
# cancel.
cpu_us_per_tx() {
    cargo run --release --offline --quiet \
        --manifest-path crates/bench/src/bin/driver_e2e/Cargo.toml -- \
        --workload "$1" --seconds 10 --trace 0 2>/dev/null | tail -n 1 \
        | sed -n 's/.*"cpu_us_per_tx":{"value":\([0-9.eE+-]*\).*/\1/p'
}
paced=$(cpu_us_per_tx inproc_paced)
saturate=$(cpu_us_per_tx inproc_saturate)
[ -n "$paced" ] && [ -n "$saturate" ] || fail_on "driver_e2e printed no cpu_us_per_tx"
awk -v p="$paced" -v s="$saturate" 'BEGIN {
    r = p / s
    printf "cpu_us_per_tx: inproc_paced %.2f / inproc_saturate %.2f = %.2fx\n", p, s, r
    if (r > 2.2) {
        print "ci_check: an idle driver is burning CPU (a yield or poll loop on a wall-mode wait?)" > "/dev/stderr"
        exit 1
    }
}'

echo "ci_check: all gates passed"
