#!/usr/bin/env bash
# Sanitized CI job: builds everything with
# -DDFI_SANITIZE=<address|undefined|thread> and runs the full test suite
# (tier-1 plus the chaos suite) and the chaos consensus bench. Zero reports
# is the acceptance bar — teardown/poison code is where lifetime bugs hide.
# The engine runs every actor as a fiber on one OS thread; TSan checks the
# fiber switches and anything that still starts a thread.
set -euo pipefail

KIND="${1:-address}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-$KIND"

cmake -B "$BUILD" -S "$ROOT" -DDFI_SANITIZE="$KIND" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc)"

# Make sanitizer findings fatal and loud.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
# The unified transport layer (FlowEndpoint/FlowSink) concentrates the
# ring/teardown lifetime hazards the sanitizers exist for — rerun its suite
# standalone with shuffling and repetition to shake out latent races.
"$BUILD/tests/core_endpoint_test" --gtest_repeat=5 --gtest_shuffle
# The replicated control plane: failover promotion and the exactly-once
# dedup window are lifetime- and race-prone by construction — rerun the
# suite shuffled.
"$BUILD/tests/registry_service_test" --gtest_repeat=3 --gtest_shuffle
# Adaptive shuffle: sink-side work stealing shares columns between target
# threads and hot-key migration rewires routing mid-flow — both are prime
# race/lifetime territory, so shake the property suite too.
"$BUILD/tests/core_adaptive_shuffle_property_test" --gtest_repeat=3 --gtest_shuffle
# The engine's hand-written fiber switch: repeat the scheduler unit tests
# under every sanitizer. ASan catches stale stack poison on recycled fiber
# stacks; TSan follows each switch through its fiber annotations.
"$BUILD/tests/exec_engine_test" --gtest_repeat=10 --gtest_shuffle
# Multi-Paxos leader failover: RunMultiPaxos with a leader crash scripted
# on the fault plan (abort/poison teardown across two flow sets).
"$BUILD/bench/chaos_consensus" --seed "${DFI_CHAOS_SEED:-7}"
# The graph layer: one batched publish per graph, whole-graph poison on
# operator failure, and per-edge handle teardown — run the graph suite and
# the multi-stage pipeline (source/window/aggregate/subscriber actors over
# four flows) under the sanitizer, plus the examples so they can't rot.
"$BUILD/tests/core_graph_test" --gtest_repeat=3 --gtest_shuffle
"$BUILD/bench/pipeline_streaming" --smoke
"$BUILD/examples/quickstart"
"$BUILD/examples/stream_aggregation"
"$BUILD/examples/distributed_join"
"$BUILD/examples/replicated_kv"
echo "sanitized ($KIND) tier-1 + endpoint + graph + chaos suite passed"
