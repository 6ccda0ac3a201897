#!/usr/bin/env sh
# One-command offline CI gate: formatting, lints, the tier-1 suite, and
# the error-taxonomy grep (no direct `ChainError::` variant use outside
# hammer-chain — retry decisions must go through kind()/is_retryable()).
#
# Usage: scripts/ci_check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
# The driver module also opts into clippy::too_many_lines (threshold 150,
# clippy.toml), so no stage function can grow back into a monolith, and
# hammer-crypto into clippy::undocumented_unsafe_blocks (its lib.rs).
# clippy.toml's disallowed-methods rejects the four std thread spawns
# (std::thread::spawn, Builder::spawn, Builder::spawn_scoped,
# Scope::spawn) in every target, tests included: a thread starts through
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

echo "==> grep gate: unsafe lives in one file"
# First-party code is safe Rust except the SHA-extension kernel in
# hammer-crypto's private sha256::x86 module (the benchmark package under
# driver_e2e is its own crate with its own rules). `-w` keeps lint names
# such as unsafe_code out of it.
violations=$(grep -rnw 'unsafe' --include='*.rs' crates src examples tests 2>/dev/null \
    | grep -v '^crates/bench/src/bin/driver_e2e/' \
    | grep -v '^crates/hammer-crypto/src/sha256.rs:' || true)
if [ -n "$violations" ]; then
    echo "ci_check: unsafe outside crates/hammer-crypto/src/sha256.rs:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: ChainError variants stay inside hammer-chain"
# `ChainError::constructor(...)` helpers (lowercase) are the public API;
# only variant paths (uppercase after ::) are forbidden outside the
# defining crate.
violations=$(grep -rn 'ChainError::[A-Z]' crates src examples tests benches 2>/dev/null \
    | grep -v '^crates/hammer-chain/' || true)
if [ -n "$violations" ]; then
    echo "ci_check: direct ChainError variant use outside hammer-chain:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: sim crates stay on the node kernel"
# The four sim crates are consensus policies on the shared chain-node
# runtime: thread lifecycle belongs to the kernel's Worker/shutdown-join
# machinery, and block-seal instrumentation (sealed counters, mempool
# gauge, block_seal journal) is emitted by Kernel::seal_block only.
# Hand-rolled threads or duplicate instrumentation in a sim crate means
# the kernel is being bypassed. The disallowed-methods lint (clippy step)
# only says a thread starts through hammer_net::thread; this grep says a
# sim crate starts none but its kernel Workers, and its pattern matches
# hammer_net::thread::spawn{,_scoped} too.
sim_crates="crates/hammer-ethereum crates/hammer-fabric crates/hammer-neuchain crates/hammer-meepo"
violations=$(grep -rnE 'thread::Builder::new|thread::spawn' $sim_crates 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: raw thread creation in a sim crate (use kernel Workers):" >&2
    echo "$violations" >&2
    exit 1
fi
violations=$(grep -rnE 'hammer_chain_blocks_sealed_total|hammer_chain_txs_sealed_total|hammer_chain_mempool_depth|journal\(\)\.block_seal|block_seal\(' $sim_crates 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: direct block-seal instrumentation in a sim crate (Kernel::seal_block emits it):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: one node handle"
# A running in-process chain is a ChainNode<P>: a backend crate exports
# its config, its ConsensusPolicy and `start`, never a wrapper that
# forwards to the node; the Prometheus role is hammer-obs, not a second
# sampler in hammer-store.
violations=$(grep -rnIE 'impl_sim_handle|(Ethereum|Fabric|Meepo|Neuchain)Sim\b|ResourceMonitor' \
    crates src tests examples 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: a per-chain facade or the resource monitor is back (use ChainNode / hammer-obs):" >&2
    echo "$violations" >&2
    exit 1
fi

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
if [ -z "$plain" ] || [ -z "$disabled" ]; then
    echo "ci_check: obs signing results missing from smoke run" >&2
    exit 1
fi
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
if ! echo "$ceiling_out" | grep -q 'accounting identity holds'; then
    echo "ci_check: driver_ceiling accounting identity missing" >&2
    exit 1
fi

echo "==> chaos smoke: seeded schedules x all backends, invariant oracle"
# Fixed small matrix (3 seeds x 4 backends, 20 one-second slices) so the
# gate stays well under a minute on a 1-core host; the full acceptance
# matrix is `scenario_sweep --seeds 10`. Every sweep gate below runs the
# one bin: it exits non-zero on any violation or run error, and the grep
# is a belt-and-suspenders check on its one summary line.
chaos_out=$(cargo run --release --offline -p bench --bin scenario_sweep -- --seeds 3)
echo "$chaos_out" | tail -n 1
if ! echo "$chaos_out" | grep -q '^scenario sweep: 12 cells, 0 violations$'; then
    echo "ci_check: seeded-chaos sweep reported invariant violations" >&2
    exit 1
fi

echo "==> scenario smoke: corpus scenarios graded by their expectations"
# Two fast corpus scenarios x two fast backends through the scenario
# DSL (retarget + run + expectation grading); the full matrix is the
# bare `scenario_sweep` (8 scenarios x 4 backends).
scenario_out=$(cargo run --release --offline -p bench --bin scenario_sweep -- --smoke)
echo "$scenario_out" | tail -n 1
if ! echo "$scenario_out" | grep -q '^scenario sweep: 4 cells, 0 violations$'; then
    echo "ci_check: scenario sweep reported expectation violations" >&2
    exit 1
fi

echo "==> multi-process smoke: crash window SIGKILLs a real node-host"
# One backend behind loopback TCP: the supervisor spawns node-host as
# its own OS process, the crash-fault window kills it with SIGKILL, the
# supervisor restarts it, and the run must complete with the accounting
# identity intact and no node process left behind. The binary exits
# non-zero if the kill or the restart never happened.
cargo build --release --offline --bin node-host
smoke_out=$(cargo run --release --offline -p bench --bin scenario_sweep -- --crash-smoke)
echo "$smoke_out" | tail -n 2
if ! echo "$smoke_out" | grep -q '^scenario sweep: 1 cells, 0 violations$'; then
    echo "ci_check: multi-process crash smoke reported violations" >&2
    exit 1
fi

echo "==> grep gate: EvalConfig is built, never constructed"
# The validating builder is the only way to make an EvalConfig; a
# struct literal would bypass every invariant it enforces. Only the
# defining module (driver/) may construct one.
violations=$(grep -rn 'EvalConfig {' crates src examples tests benches 2>/dev/null \
    | grep -v '^crates/hammer-core/src/driver/' \
    | grep -vE -- '->[[:space:]]*&?EvalConfig \{' || true)
if [ -n "$violations" ]; then
    echo "ci_check: EvalConfig struct literal outside the driver builder:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: one way to deploy (the registry)"
# The ChainSpec enum and Deployment::up/up_on were the second deploy
# path; chains are deployed by name through BackendRegistry, and a
# non-default configuration is a registered closure.
violations=$(grep -rnE 'ChainSpec|Deployment::up(_on)?\b' crates src examples tests 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: the ChainSpec deploy path is back (use BackendRegistry):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: one fault-drill runner, one sweep"
# Chaos and fault drills are scenario cells: Scenario::run_on is the
# runner (LeakProbe wraps it from outside) and scenario_sweep the sweep.
violations=$(grep -rnIE 'run_chaos_case|ChaosCase|ChaosVerdict|chaos_sweep|fault_sweep' \
    crates src tests examples scripts 2>/dev/null \
    | grep -v '^scripts/ci_check.sh:' || true)
if [ -n "$violations" ]; then
    echo "ci_check: a second chaos runner or sweep bin is back (use Scenario + scenario_sweep):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: the driver hands work over in chunks"
# Budget tokens are a counter (submit::Tokens) and signed transactions
# travel as Vec chunks (signer::SignedStream); a channel of `()` or of
# single transactions puts a lock hand-off and a wake-up back on every
# transaction.
violations=$(grep -rnE 'Sender<\(\)>|Receiver<\(\)>|Receiver<SignedTransaction>' \
    crates/hammer-core/src/driver crates/hammer-core/src/signer.rs 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: a per-item hand-off is back in the driver:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: one chain-over-RPC client, one wire table"
# RemoteChain over a Transport is the client for both deploy modes, and
# rpc_adapter.rs is the only first-party file that spells a wire method
# name (everything else goes through its `Method` constants; the frozen
# driver_e2e benchmark package is its own crate).
violations=$(grep -rnIE 'RpcChainClient|TcpChainClient|SupervisedChain' \
    crates src tests examples 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: a second chain-over-RPC client is back (use RemoteChain):" >&2
    echo "$violations" >&2
    exit 1
fi
wire_methods='submit_transaction|latest_height|get_block|pending_txs|seed_account|get_account|verify_ledgers|progress_mark|shutdown_chain|install_faults'
violations=$(grep -rnIE "\"($wire_methods)\"" crates src tests examples 2>/dev/null \
    | grep -v '^crates/hammer-chain/src/rpc_adapter.rs:' \
    | grep -v '^crates/bench/src/bin/driver_e2e/' || true)
if [ -n "$violations" ]; then
    echo "ci_check: a wire method name is spelled outside the wire table (rpc_adapter.rs):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: the network delivers nothing"
# SimNetwork accounts traffic (counters, per-link bytes, fault and loss
# drops) and owns no thread: no node reads replicated blocks, so there is
# no inbox, no delivery scheduler and no sink thread to carry or drop
# them. The frozen driver_e2e package is included — it uses none of these.
violations=$({
    grep -rnIE 'sink_endpoint|sink_loop|scheduler_loop|sim-net-scheduler|sample_delay|extra_latency' \
        crates src tests examples
    grep -rnIE 'hammer_net::\{?[^;]*\b(Message|Endpoint)\b' crates src tests examples
    grep -n 'thread::' crates/hammer-net/src/network.rs
} 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: the message bus is back (SimNetwork::send accounts, nothing receives):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: the head and tail stay off the run"
# Generation streams from a thread of its own (prepare never builds the
# whole workload), the report folds its aggregates from the records (no
# throwaway Performance table; only report.rs's tests fill one, to check
# the fold against it), and the ledger keeps no per-transaction index for
# the sealer to fill under its write lock. Rust sources only: the frozen
# driver_e2e README describes the parent in prose.
# Non-test code of a file: up to its first #[cfg(test)].
non_test() { awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$1"; }
violations=$({
    grep -n 'generate_all' crates/hammer-core/src/driver/prepare.rs
    non_test crates/hammer-core/src/driver/report.rs | grep -E 'insert_batch|TableStore'
    grep -rnE --include='*.rs' 'tx_index|find_tx' crates src tests examples
} 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: a serial head or tail is back on the run path:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: a committed block is shared, never copied"
# A shard's ledger stores Arc<Block>. The monitor reads each poll's new
# blocks through BlockchainClient::blocks (pointer copies in process) and
# matches them from their two columns where they lie: no `.block_at(` call
# under the driver. Verified::new checks the Merkle root and hashes the
# header before any lock, so the write guard is taken in one place,
# Kernel::seal_block, for the push. Each file is read with its newlines
# folded, so a `.ledger` / `.write()` / `.append(` chain that rustfmt split
# over lines is seen too.
violations=$({
    grep -rn '\.block_at(' crates/hammer-core/src/driver
    writes=$(find crates src examples tests -name '*.rs' -not -path '*/driver_e2e/*' \
        -not -path '*/target/*' | while read -r file; do
        tr '\n' ' ' <"$file" \
            | grep -oE 'ledger[[:space:]]*\.write\(\)([[:space:]]*\.append\()?' \
            | sed "s|^|$file: |"
    done)
    if [ "$(echo "$writes" | grep -c .)" -ne 1 ] \
        || ! echo "$writes" | grep -qE '^crates/hammer-chain/src/kernel\.rs: .*\.append\($'; then
        echo "ledger write guards (want one, kernel.rs's append): ${writes:-none}"
    fi
} 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: the monitor copies blocks again, or the ledger's write lock is taken beside seal_block's push:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: a submission allocates nothing and takes no network-wide lock"
# Tracking a submission touches one Bloom block (no probe Vec, no division:
# block and slot counts are multiplied or masked) and the node asks its
# policy for the ingress and sealer names once, at start, so the gate in
# front of every submission and sealer tick compares a cached &str against
# a flag. Non-test code only (`non_test`, above).
violations=$({
    non_test crates/hammer-core/src/bloom.rs | grep -F 'collect()'
    non_test crates/hammer-core/src/bloom.rs | grep -F ' % '
    non_test crates/hammer-core/src/index.rs | grep -F ' % '
    non_test crates/hammer-chain/src/kernel.rs \
        | grep -E 'policy\.(ingress|sealer)_node\(' | grep -vE 'let (ingress|sealers): Vec<String> ='
} 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: an allocation, a division or a per-call name lookup is back on the submit path:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: one path from a record to the report"
# A finished transaction is a TxRecord; report::build folds the records and
# report::perf_row is the only way one becomes a Performance-table row.
# No status pipeline through the KV store (no list operations there, no
# merger thread, no second record encoding, no option that selects it) and
# no SQL interpreter beside TableStore::{tps_query, latency_query}.
violations=$(grep -rnE 'live_sync|LiveSync|StatusSyncer|StatusRecord|run_merger|synced_rows|outcome_of|store::sql|sql::query|rpush|ltake' \
    crates src tests examples 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: the status pipeline or the SQL front end is back (records -> report::build / report::perf_row):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: fault kinds are spelled in one file"
# hammer_net::fault owns the four kinds: the one window type, its one JSON
# form and the one placeholder resolver. Non-test code elsewhere matches on
# no Fault variant and spells no kind (it asks the plan: crash_windows,
# node_fault, to_value / from_value), and the second vocabulary — the
# scenario layer's fault and node-reference enums, the generator's config
# and schedule wrappers, the microsecond wire keys — stays gone everywhere
# (the frozen driver_e2e package included: it uses none of them).
violations=$({
    find crates src examples -name '*.rs' -not -path '*/driver_e2e/*' -not -path '*/target/*' \
        -not -path 'crates/hammer-net/src/fault.rs' | while read -r file; do
        non_test "$file" \
            | grep -E '\bFault::(Crash|Blackhole|Partition|LatencySpike)\b|"(crash|blackhole|partition|latency_spike)"'
    done
    grep -rnIE 'FaultSpec|ChaosSpec|ChaosConfig|ChaosSchedule|NodeRef|start_us|extra_us' \
        crates src tests examples
} 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: a fault kind is enumerated outside crates/hammer-net/src/fault.rs, or the second fault vocabulary is back:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: outside input is read in one place"
# hammer_rpc::json holds the one strict reader: Fields (known_keys, req,
# opt, set), uint / millis / secs / list / entries, and ReadError, which
# names the JSON path. The five decoders of outside input — the scenario
# spec, the fault plan, the workload profile, the wire codec and the RPC
# method table — read through it and define no field or integer helper of
# their own.
decoders="crates/hammer-core/src/scenario.rs crates/hammer-net/src/fault.rs
    crates/hammer-workload/src/config.rs crates/hammer-chain/src/codec.rs
    crates/hammer-chain/src/rpc_adapter.rs"
known_keys=$(grep -rnE --include='*.rs' '\bfn known_keys\b' crates src tests examples 2>/dev/null || true)
violations=$({
    if [ "$(echo "$known_keys" | grep -c .)" -ne 1 ]; then echo "$known_keys"; fi
    echo "$known_keys" | grep -v '^crates/hammer-rpc/src/json.rs:'
    # shellcheck disable=SC2086
    grep -nE '\bfn (req|opt|required|optional|field|set|uint|u64_field|u64s_field|str_field|shard_field|account_field|as_u32)\b' $decoders
} 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: a second known-keys check or a decoder's private field reader is back (use hammer_rpc::json::Fields):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: the simulation waits in one place"
# Simulated code blocks on a timer in one function, SimClock::wait_until
# (hammer-net/src/clock.rs), and is stopped by one signal type raised at
# teardown. So the node kernel, the four backend crates and the driver
# (non-test code, `non_test` above) contain no OS wait, no yield loop, no
# wall-clock receive timeout and no wall-clock read — but for the driver's
# `wall_start`, a measurement and not a wait; a backend models a cost
# through Kernel::sleep_interruptible, never through the clock's own
# entries (the driver's `clock.sleep` / `sleep_until` are those entries and
# stay); and the kernel's chunked copy of the loop stays gone. The socket
# side follows the same rule: the RPC server's threads block in accept and
# read and are woken at shutdown (a self-connect, a shutdown(Both)), so
# tcp.rs has no non-blocking listener, no would-block arm and no read poll.
# And the process supervisor (deploy.rs) waits in one channel for a window
# edge, a restart deadline (both simulated), an exit or a stop: no sleep,
# yield, wall-clock read or StopSignal tick.
violations=$({
    find crates/hammer-chain/src/kernel.rs $sim_crates crates/hammer-core/src/driver \
        -name '*.rs' | while read -r file; do
        non_test "$file" \
            | grep -E 'thread::sleep|yield_now|park_timeout|recv_timeout\(Duration::from|Instant::now' \
            | grep -vE '^crates/hammer-core/src/driver/mod\.rs:[0-9]+: +let wall_start = Instant::now\(\);$'
    done
    find $sim_crates -name '*.rs' | while read -r file; do
        non_test "$file" | grep -E '\.sleep\(|\.sleep_until\('
    done
    grep -rnE 'SLEEP_CHUNK|SLEEP_SPIN' crates src tests examples
    non_test crates/hammer-net/src/tcp.rs | grep -E 'set_nonblocking|WouldBlock|read_poll'
    non_test crates/hammer-core/src/deploy.rs | grep -E 'thread::sleep|yield_now|Instant::now|stop\.wait\('
} 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: a wait or a wall-clock read outside SimClock (use Kernel::sleep_interruptible / StopSignal), a poll in the RPC server, or a tick in the supervisor:" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: a commit is observed by reading blocks"
# Every testing mode learns of a commit one way: the monitor reads sealed
# blocks (latest_height + blocks); the interactive listener expands them
# into its SDK buffer itself. So there is no commit bus (and no
# hammer-chain events.rs); BlockchainClient::subscribe_commits is a
# provided method that pushes nothing, called nowhere but where client.rs
# declares it and the frozen driver_e2e forwards it; RemoteChain's non-test
# code starts no thread and holds no stop signal; and StopSignal's wall-time
# wait is private to clock.rs (`non_test` above).
violations=$({
    grep -rnw 'CommitBus' crates src tests examples
    ls crates/hammer-chain/src/events.rs
    grep -rn 'subscribe_commits(' crates src tests examples \
        | grep -v '^crates/hammer-chain/src/client.rs:' \
        | grep -v '^crates/bench/src/bin/driver_e2e/'
    non_test crates/hammer-chain/src/remote.rs | grep -E '\bspawn|thread::|StopSignal'
    grep -nE 'pub(\([a-z]+\))? fn wait\b' crates/hammer-net/src/clock.rs
} 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: a second way to observe a commit is back (read blocks through latest_height / blocks):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> grep gate: one model type, one training loop"
# A predictor is a hammer_predict::models::Model, the mean of its members,
# each a body and a head trained by the one SeqTrainer loop under the
# vanilla or the tuned recipe. The five model structs, their trait, the
# public trainer handle, and the layer, optimiser and loss of hammer-nn that
# no model reached stay gone; hammer-predict's non-test code has one epoch
# loop (`non_test` above).
violations=$({
    grep -rnwE 'LayerNorm|Sgd|mse_loss|SeqTrainerHandle|SeriesModel|LinearModel|RnnModel|TcnModel|TransformerModel|HammerModel' \
        crates src tests examples
    epoch_loops=$(find crates/hammer-predict/src -name '*.rs' | while read -r file; do
        non_test "$file"
    done | grep -cE 'for .* in 0\.\.[a-z_.]*epochs\b')
    if [ "$epoch_loops" -ne 1 ]; then
        echo "crates/hammer-predict/src: $epoch_loops epoch loops in non-test code, not 1"
    fi
} 2>/dev/null || true)
if [ -n "$violations" ]; then
    echo "ci_check: a second model type, training loop or unreached hammer-nn layer is back (use models::Model):" >&2
    echo "$violations" >&2
    exit 1
fi

echo "==> Table III shape: the predictor's checked claims hold at full epochs"
# table3_models trains the five Table III models on the three paper traces
# (one thread per trace: ~40 s on two cores) and exits non-zero unless
# "Ours" is the only model with R2 > 0 on all three datasets and has the
# lowest MAE on DeFi and Sandbox. The bit-for-bit pin at 5 epochs is
# hammer-predict's tests/golden.rs, which the tier-1 line runs.
table3_out=$(cargo run --release --offline -p bench --bin table3_models)
echo "$table3_out" | tail -n 2
if ! echo "$table3_out" | grep -q '^shape holds: '; then
    echo "ci_check: table3_models printed no shape verdict" >&2
    exit 1
fi

echo "==> non-test lines of code (scripts/loc.sh)"
scripts/loc.sh

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
if [ -z "$paced" ] || [ -z "$saturate" ]; then
    echo "ci_check: driver_e2e printed no cpu_us_per_tx" >&2
    exit 1
fi
awk -v p="$paced" -v s="$saturate" 'BEGIN {
    r = p / s
    printf "cpu_us_per_tx: inproc_paced %.2f / inproc_saturate %.2f = %.2fx\n", p, s, r
    if (r > 2.2) {
        print "ci_check: an idle driver is burning CPU (a yield or poll loop on a wall-mode wait?)" > "/dev/stderr"
        exit 1
    }
}'

echo "ci_check: all gates passed"
