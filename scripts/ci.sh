#!/usr/bin/env bash
# Offline CI gate for the tcni workspace.
#
# The workspace has zero third-party dependencies, so everything here runs
# with --offline: a network-less builder must pass this script end to end.
#
#   scripts/ci.sh           build + full test suite + smoke runs
#   scripts/ci.sh --soak    same, with 10x randomized-test cases
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--soak" ]]; then
    export TCNI_CHECK_CASES=2560
fi

echo "== rustfmt =="
cargo fmt --check

echo "== build (offline) =="
cargo build --workspace --release --offline

echo "== clippy (offline, warnings are errors) =="
cargo clippy --workspace --release --offline --all-targets -- -D warnings

echo "== rustdoc (offline, warnings are errors) =="
# Catches doc links that dangle after a rename or removal.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tests (offline, all crates) =="
cargo test --workspace --release --offline -q

echo "== fabric tests in debug mode (overflow checks and debug assertions on) =="
# Every other step builds --release, where integer overflow wraps silently
# and debug_assert! compiles away. The fabric's ring-index arithmetic and
# the drawn-capacity properties run here with both checked.
cargo test --offline -q -p tcni-net
cargo test --offline -q --test prop_network
# The NI queues allocate their buffer on first push; their length and
# capacity arithmetic runs checked here too.
cargo test --offline -q -p tcni-core

echo "== benchmark package tests (its own workspace, quick schedules) =="
# The benchmark is a separate package that builds the simulator crates from
# source; `--workspace` above does not reach its tests.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== golden artifacts (byte-exact paper outputs, hot-set scheduler on) =="
# The hot-set scheduler is the default path; these artifacts were blessed
# before it existed, so a byte-identical pass proves the scheduler is
# invisible to every paper output.
cargo test --release --offline -q --test golden_artifacts

echo "== smoke: Table 1 =="
cargo run --release --offline -p tcni-bench --bin table1 -- --obs > /dev/null

echo "== smoke: netstats (tcni-trace/1 artifact) =="
cargo run --release --offline -p tcni-bench --bin netstats -- \
    --width 2 --height 2 --msgs 4 --quiet --out target/TRACE_netstats.ci.json
grep -q '"schema": "tcni-trace/1"' target/TRACE_netstats.ci.json

echo "== smoke: loadgen (tcni-load/1 artifact) =="
cargo run --release --offline -p tcni-bench --bin loadgen -- \
    --width 2 --height 2 --models opt-reg --fabrics mesh --patterns uniform \
    --rates 100,400 --windows none --warmup 500 --measure 1500 --quiet \
    --out target/BENCH_loadgen.ci.json
grep -q '"schema": "tcni-load/1"' target/BENCH_loadgen.ci.json

echo "== smoke: loadgen fault sweep (delivery protocol on) =="
cargo run --release --offline -p tcni-bench --bin loadgen -- \
    --width 2 --height 2 --models opt-reg --fabrics mesh --patterns uniform \
    --rates 100,400 --windows none --fault-rates 0,50 --warmup 500 \
    --measure 1500 --quiet --out target/BENCH_loadgen_faults.ci.json
grep -q '"schema": "tcni-load/1"' target/BENCH_loadgen_faults.ci.json
grep -q '"fault_rates_pm": \[0, 50\]' target/BENCH_loadgen_faults.ci.json
grep -q '"goodput_pm": ' target/BENCH_loadgen_faults.ci.json

echo "== smoke: 16x16 mesh export (TCNI_THREADS=4) matches serial =="
# The machine's cycle is serial at any worker count; TCNI_THREADS widens
# only the loadgen's cell fan-out. The tcni-load/1 artifact is the
# machine's stats export: the serial and 4-worker runs must be
# byte-identical, so the worker-count setting reaches no simulated byte.
run_16x16() {
    TCNI_THREADS="$1" cargo run --release --offline -p tcni-bench --bin loadgen -- \
        --width 16 --height 16 --models opt-reg --fabrics mesh \
        --patterns uniform --rates 5 --windows none --warmup 200 \
        --measure 800 --quiet --out "$2"
}
run_16x16 1 target/BENCH_loadgen_16x16.serial.json
run_16x16 4 target/BENCH_loadgen_16x16.par4.json
cmp target/BENCH_loadgen_16x16.serial.json target/BENCH_loadgen_16x16.par4.json

echo "== smoke: closed-loop 16x16 (reply-driven wakeups) matches serial under TCNI_THREADS=4 =="
# Closed-loop injectors reopen their window only when a reply arrives, so
# this export exercises the pending-input list and the calendar's window
# reopenings; the 4-worker run must match the serial one byte for byte.
run_16x16_closed() {
    TCNI_THREADS="$1" cargo run --release --offline -p tcni-bench --bin loadgen -- \
        --width 16 --height 16 --models opt-reg --fabrics mesh \
        --patterns uniform --rates 5 --windows 2 --warmup 200 \
        --measure 800 --quiet --out "$2"
}
run_16x16_closed 1 target/BENCH_loadgen_16x16_closed.serial.json
run_16x16_closed 4 target/BENCH_loadgen_16x16_closed.par4.json
cmp target/BENCH_loadgen_16x16_closed.serial.json target/BENCH_loadgen_16x16_closed.par4.json

echo "== smoke: topology axis (torus/ring/full at 1 and 4 workers, ring/full schema, torus collective) =="
# `--topology` pins the sweep to one switched fabric. The torus, ring and
# full 16×16 points must export the same tcni-load/1 bytes at one and at
# four workers, like the mesh one; ring and full also
# get 4×4 schema smokes; the faulty torus collective proves the
# wrap-embedded tree computes correctly (its golden has "wrong_results": 0).
run_torus_16x16() {
    TCNI_THREADS="$1" cargo run --release --offline -p tcni-bench --bin loadgen -- \
        --width 16 --height 16 --models opt-reg --topology torus \
        --patterns uniform --rates 5 --windows none --warmup 200 \
        --measure 800 --quiet --out "$2"
}
run_torus_16x16 1 target/BENCH_loadgen_torus.serial.json
run_torus_16x16 4 target/BENCH_loadgen_torus.par4.json
cmp target/BENCH_loadgen_torus.serial.json target/BENCH_loadgen_torus.par4.json
grep -q '"fabric": "torus"' target/BENCH_loadgen_torus.serial.json
# Ring and fully-connected fabrics are the two channel layouts furthest from
# the mesh's (four dateline-VC ports per node, one port per destination),
# so these two exports check injection and ejection on both.
run_topo_16x16() {
    TCNI_THREADS="$2" cargo run --release --offline -p tcni-bench --bin loadgen -- \
        --width 16 --height 16 --models opt-reg --topology "$1" \
        --patterns uniform --rates 5 --windows none --warmup 200 \
        --measure 800 --quiet --out "$3"
}
for topo in ring full; do
    run_topo_16x16 "${topo}" 1 "target/BENCH_loadgen_${topo}_16x16.serial.json"
    run_topo_16x16 "${topo}" 4 "target/BENCH_loadgen_${topo}_16x16.par4.json"
    cmp "target/BENCH_loadgen_${topo}_16x16.serial.json" \
        "target/BENCH_loadgen_${topo}_16x16.par4.json"
    grep -q "\"fabric\": \"${topo}\"" "target/BENCH_loadgen_${topo}_16x16.serial.json"
done
cargo run --release --offline -p tcni-bench --bin loadgen -- \
    --width 4 --height 4 --models opt-reg --topology ring --patterns uniform \
    --rates 100 --windows none --warmup 500 --measure 1500 --quiet \
    --out target/BENCH_loadgen_ring.ci.json
grep -q '"fabric": "ring"' target/BENCH_loadgen_ring.ci.json
cargo run --release --offline -p tcni-bench --bin loadgen -- \
    --width 4 --height 4 --models opt-reg --topology full --patterns uniform \
    --rates 100 --windows none --warmup 500 --measure 1500 --quiet \
    --out target/BENCH_loadgen_full.ci.json
grep -q '"fabric": "full"' target/BENCH_loadgen_full.ci.json
# The faulty torus collective is pinned byte-for-byte against its golden
# snapshot at 1 and 4 workers.
run_coll_torus() {
    TCNI_THREADS="$1" cargo run --release --offline -p tcni-bench --bin loadgen -- \
        --collective --topology torus --width 8 --height 8 --ops barrier,sum \
        --rounds 4 --fault 25 --quiet --out "$2"
}
run_coll_torus 1 target/BENCH_collective_torus.serial.json
run_coll_torus 4 target/BENCH_collective_torus.par4.json
cmp tests/golden/collective_torus_8x8_faulty.json target/BENCH_collective_torus.serial.json
cmp tests/golden/collective_torus_8x8_faulty.json target/BENCH_collective_torus.par4.json

echo "== smoke: wide-format 64x64 sweep (TCNI_THREADS=4) matches the committed snapshot =="
# 4096 nodes sits past the compact format's 256-node ceiling, so this run
# exercises the wide wire format end to end. The tcni-load/1 export is
# pinned byte-for-byte against a committed snapshot, and the 4-worker run
# must reproduce it exactly.
run_64x64() {
    TCNI_THREADS="$1" cargo run --release --offline -p tcni-bench --bin loadgen -- \
        --width 64 --height 64 --models opt-reg --fabrics mesh \
        --patterns uniform --rates 5 --windows none --warmup 200 \
        --measure 800 --quiet --out "$2"
}
run_64x64 1 target/BENCH_loadgen_64x64.serial.json
run_64x64 4 target/BENCH_loadgen_64x64.par4.json
cmp tests/golden/loadgen_64x64.json target/BENCH_loadgen_64x64.serial.json
cmp tests/golden/loadgen_64x64.json target/BENCH_loadgen_64x64.par4.json

echo "== smoke: delivery-enabled 64x64 sweep (sparse flow store, TCNI_THREADS=4) matches serial =="
# 4096 nodes with the end-to-end delivery protocol on: the old dense flow
# tables would pin 2*4096^2 slots here; the sparse store keys state by
# active pair. The serial and 4-worker exports must be byte-identical —
# including the delivery counters the protocol adds to the artifact.
run_64x64_e2e() {
    TCNI_THREADS="$1" cargo run --release --offline -p tcni-bench --bin loadgen -- \
        --width 64 --height 64 --models opt-reg --fabrics mesh \
        --patterns uniform --rates 5 --windows none --fault-rates 20 \
        --warmup 200 --measure 800 --quiet --out "$2"
}
run_64x64_e2e 1 target/BENCH_loadgen_64x64_e2e.serial.json
run_64x64_e2e 4 target/BENCH_loadgen_64x64_e2e.par4.json
cmp target/BENCH_loadgen_64x64_e2e.serial.json target/BENCH_loadgen_64x64_e2e.par4.json
grep -q '"goodput_pm": ' target/BENCH_loadgen_64x64_e2e.serial.json

echo "== smoke: tcni-trace/1 export unchanged under TCNI_THREADS=4 =="
# An instrumented 16×16 ring (256 running CPUs): the machine's cycle is
# serial, so the export must not move at all when the env var asks for
# workers.
run_netstats_16x16() {
    TCNI_THREADS="$1" cargo run --release --offline -p tcni-bench --bin netstats -- \
        --width 16 --height 16 --msgs 2 --quiet --out "$2"
}
run_netstats_16x16 1 target/TRACE_netstats_16x16.serial.json
run_netstats_16x16 4 target/TRACE_netstats_16x16.par4.json
cmp target/TRACE_netstats_16x16.serial.json target/TRACE_netstats_16x16.par4.json

echo "== smoke: 4x4 ring tcni-trace/1 export matches the committed snapshot =="
# The instrumented ring with running CPUs (obs mirroring, span order, the
# injection walk over running, halting and draining nodes), pinned
# byte-for-byte against the golden snapshot at 1 and 4 workers.
run_netstats_4x4() {
    TCNI_THREADS="$1" cargo run --release --offline -p tcni-bench --bin netstats -- \
        --width 4 --height 4 --msgs 8 --spans 16 --quiet --out "$2"
}
run_netstats_4x4 1 target/TRACE_netstats_4x4.serial.json
run_netstats_4x4 4 target/TRACE_netstats_4x4.par4.json
cmp tests/golden/netstats_ring_4x4.json target/TRACE_netstats_4x4.serial.json
cmp tests/golden/netstats_ring_4x4.json target/TRACE_netstats_4x4.par4.json

echo "== smoke: loadgen collective (tcni-coll/1 artifact) =="
# NIC combining vs software gather/scatter on a small mesh, fault-free and
# with the delivery protocol over a faulty fabric. The console summary line
# and the schema tag prove both modes completed their rounds.
cargo run --release --offline -p tcni-bench --bin loadgen -- \
    --collective --width 4 --height 4 --ops barrier,sum --rounds 4 \
    --quiet --out target/BENCH_collective.ci.json
grep -q '"schema": "tcni-coll/1"' target/BENCH_collective.ci.json
grep -q '"wrong_results": 0' target/BENCH_collective.ci.json
cargo run --release --offline -p tcni-bench --bin loadgen -- \
    --collective --width 4 --height 4 --ops min --rounds 4 --fault 25 \
    --quiet --out target/BENCH_collective_faults.ci.json
grep -q '"fault_pm": 25' target/BENCH_collective_faults.ci.json
grep -q '"wrong_results": 0' target/BENCH_collective_faults.ci.json

echo "== smoke: collective 16x16 export (TCNI_THREADS=4) matches serial =="
# The collective engine runs in the serial network phases; the tcni-coll/1
# export of a 16×16 storm must be byte-identical serial vs 4 workers.
run_coll_16x16() {
    TCNI_THREADS="$1" cargo run --release --offline -p tcni-bench --bin loadgen -- \
        --collective --width 16 --height 16 --ops barrier,sum --rounds 4 \
        --rates 0,200 --quiet --out "$2"
}
run_coll_16x16 1 target/BENCH_collective_16x16.serial.json
run_coll_16x16 4 target/BENCH_collective_16x16.par4.json
cmp target/BENCH_collective_16x16.serial.json target/BENCH_collective_16x16.par4.json

echo "== golden artifacts under TCNI_THREADS=4 (byte-exact, unblessed) =="
# Includes the collective_16x16 tcni-coll/1 golden, so the committed
# snapshot is re-proved at 1 worker (above) and 4 workers (here).
TCNI_THREADS=4 cargo test --release --offline -q --test golden_artifacts

echo "ci.sh: all green"
