#!/usr/bin/env bash
# Race-check the parallel subsystems under ThreadSanitizer: the
# work-stealing pool and its per-call parallelFor completion
# (util/thread_pool), the offline training sweep, the graph
# measurement substrate (flat-frontier BFS + stats cache), the
# telemetry layer (lock-free metrics, counter sources read at
# snapshot time, and the per-thread ring collector behind trace
# spans and the flight recorder, with its own pushers-vs-drainer
# test), and the serving subsystem (MPMC queue, batching workers,
# RCU model hot-swap) together with its fault-tolerance layer (chaos
# injection, watchdog restarts, retrying client, and the fixed-seed
# chaos soak), the forensics layer (flight-recorder rings, drift
# monitor, SLO tracker), the batched-inference
# equivalence suite (the thread_local MLP batch workspace must stay
# private per worker), and the network serving tier (epoll loop +
# harvester threads + outbox handoff, NetClient connections, the
# multi-tenant admission bucket map, and the multi-tenant loopback
# mix over shared connections).
# Run from the repo root; uses a separate build tree so the normal
# build and the tier-1 ctest run stay fast.
#
#   tools/check_tsan.sh [-R <ctest-regex>] [build-dir]
#
# -R narrows (or widens) the test selection; the default regex covers
# the parallel subsystems. E.g. race-check only the serving layer
# with: tools/check_tsan.sh -R "Serve|Chaos"

set -euo pipefail
cd "$(dirname "$0")/.."

REGEX="ThreadPool|Training|Props|Telemetry|Serve|Chaos|Forensics|BatchInference|Net"
while getopts "R:" opt; do
    case "$opt" in
      R) REGEX="$OPTARG" ;;
      *) echo "usage: $0 [-R <ctest-regex>] [build-dir]" >&2
         exit 2 ;;
    esac
done
shift $((OPTIND - 1))
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DHETEROMAP_SANITIZE=thread
cmake --build "$BUILD_DIR" -j \
    --target test_training test_props test_telemetry telemetry_tour \
             test_serve serving_tour test_chaos bench_serving_chaos \
             test_forensics test_batch_inference test_net
ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$REGEX"
echo "TSan check passed for '$REGEX'"
