#!/usr/bin/env bash
# CI entry point: tier-1 verify (Release build + full ctest suite, which
# holds the fork == cold staged-sweep gate over every study), the
# API docs build when Doxygen is available, an ASan+UBSan build running
# the kernel timed-queue/scheduler/UniqueFunction/tracer suites
# (timer-cancellation churn, set-reference ordering, callback lifetimes),
# the word-packed framing / burst-transport suites (quiet-prefix
# receiver catch-up, run fallback, pinned noisy creation VCD,
# zero-allocation round trip), the system suite (with stack
# use-after-return detection), the integration tests and the threaded
# sweep-determinism
# test — so memory/UB bugs and data races in the end-to-end paths cannot
# regress silently — plus a metadata audit of the committed benchmark
# baseline (Release tree + burst-transport stamp), a fig08/fig10 sweep
# byte-compare across 1/2/8 threads (the dispatch-order gate),
# a fig06-12 + throughput/coexistence/backoff byte-compare between the
# burst and per-bit PHY transports (the burst swap-safety gate), a
# ThreadSanitizer build (build-tsan) running
# the threaded sweep and sweep-service suites, and a crash-injection
# gate (SIGKILL a journaled fig08/fig10 sweep mid-flight, resume it,
# byte-compare against the uninterrupted run at 1/2/8 threads — the
# durability gate for --journal/--resume), plus the
# btsc-sweepd service kill-point matrix (SIGKILL at job-accept /
# mid-replication / mid-append and a SIGTERM drain, restart,
# byte-compare every job artifact — the crash-only recovery gate for
# the sweep service), and last the caller gate (scripts/coverage.sh:
# every src/ function that no entry point calls must be allowlisted
# with a role). Every byte gate compares whole artifact files:
# artifacts hold results only.
#
#   scripts/ci.sh              # full gate suite
#   scripts/ci.sh --coverage   # coverage preset: instrumented build +
#                              # full ctest + per-file gcov line summary
#                              # artifact (build-cov/coverage-summary.txt)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

if [[ "${1:-}" == "--coverage" ]]; then
  echo "=== coverage preset: instrumented Debug build + gcov summary ==="
  # gcovr/lcov are not part of the image; the summary is aggregated from
  # raw gcov output instead (gcov ships with the toolchain; llvm-cov
  # gcov is the drop-in spelling if gcc's gcov is ever absent). The
  # btsc library objects are shared by every test binary, so their
  # .gcda counters merge across the whole suite automatically.
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="--coverage" \
        -DCMAKE_EXE_LINKER_FLAGS="--coverage" \
        -DBTSC_BUILD_BENCHES=OFF -DBTSC_BUILD_EXAMPLES=OFF
  find build-cov -name '*.gcda' -delete
  cmake --build build-cov -j "$jobs"
  ctest --test-dir build-cov -j "$jobs" --output-on-failure
  gcov_tool="gcov"
  command -v gcov >/dev/null 2>&1 || gcov_tool="llvm-cov gcov"
  artifact=build-cov/coverage-summary.txt
  per_file=$(
    find build-cov -name '*.gcda' -print0 |
      xargs -0 -n 1 $gcov_tool -n 2>/dev/null |
      awk '
        /^File / { f = substr($0, 7); f = substr(f, 2, length(f) - 2) }
        /^Lines executed:/ {
          if (f ~ /\/src\/.*\.cpp$/) {
            split($0, a, ":"); split(a[2], b, "% of ")
            short = f; sub(/^.*\/src\//, "src/", short)
            printf "%7.2f %6d  %s\n", b[1], b[2], short
          }
          f = ""
        }' | sort -k3
  )
  {
    echo "# btsc line coverage per translation unit (gcov, Debug tree)"
    echo "# generated by scripts/ci.sh --coverage; headers are counted"
    echo "# within their including TUs and not listed separately."
    echo "#  pct%   lines  file"
    echo "$per_file"
    echo "$per_file" | awk '
      { total += $2; covered += $1 / 100.0 * $2 }
      END {
        if (total > 0) {
          printf "%7.2f %6d  TOTAL\n", covered / total * 100.0, total
        }
      }'
  } > "$artifact"
  cat "$artifact"
  echo "coverage summary written to $artifact"
  exit 0
fi

echo "=== tier-1: Release build + full test suite ==="
cmake -B build -S .
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

if command -v doxygen >/dev/null 2>&1; then
  echo "=== docs: Doxygen API reference ==="
  cmake --build build --target docs
else
  echo "=== docs: skipped (doxygen not installed) ==="
fi

echo "=== bench baseline: metadata audit ==="
# The committed baseline must have been recorded from a Release tree.
# bench/run_benches stamps the btsc build type into the JSON context and
# rewrites library_build_type to match (the distro's debug libbenchmark
# would otherwise mislabel it); a "debug"/missing stamp means someone
# recorded numbers from the wrong tree.
for key in library_build_type btsc_build_type; do
  if ! grep -q "\"$key\": \"release\"" BENCH_kernel.json; then
    echo "error: BENCH_kernel.json $key is not \"release\" — the committed" >&2
    echo "       baseline was not recorded from a Release tree." >&2
    echo "       Refresh it with bench/run_benches (uses build-bench/)." >&2
    exit 1
  fi
done
# The baseline must also carry the burst-transport telemetry: the
# context stamp proving the word-packed transport was on, and the
# recorded batched-vs-per-bit paper-scenario pair.
if ! grep -q '"burst_transport": "on"' BENCH_kernel.json; then
  echo "error: BENCH_kernel.json context lacks \"burst_transport\": \"on\" —" >&2
  echo "       the baseline was recorded without the PHY burst transport." >&2
  echo "       Refresh it with bench/run_benches (uses build-bench/)." >&2
  exit 1
fi
if ! grep -q '"per_bit_sim_clock_cycles_per_s"' BENCH_kernel.json; then
  echo "error: BENCH_kernel.json lacks the burst_transport comparison block" >&2
  echo "       (batched vs per-bit paper scenario); refresh it with" >&2
  echo "       bench/run_benches." >&2
  exit 1
fi
echo "BENCH_kernel.json metadata OK (release build, burst transport on," \
     "per-bit pair recorded)"

echo "=== ASan+UBSan: kernel + integration + threaded determinism tests ==="
# Drop -DNDEBUG from the RelWithDebInfo flags: the kernel's heap-invariant
# asserts (stale heap indices, find_live consistency) must be armed here —
# index corruption stays inside valid allocations, so the sanitizers alone
# would never see it.
cmake -B build-asan -S . -DBTSC_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
      -DBTSC_BUILD_BENCHES=OFF -DBTSC_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$jobs" --target \
      sim_test_scheduler sim_test_timer_queue sim_test_unique_function \
      sim_test_tracer sim_test_snapshot sim_test_snapshot_fuzz \
      baseband_test_bt_clock baseband_test_access_code \
      baseband_test_framing_word baseband_test_receiver_word \
      phy_test_burst_transport phy_test_noise_stream \
      integration_test_burst_equivalence integration_test_clean_path \
      integration_test_transport_fuzz \
      integration_test_link integration_test_multislave integration_test_noise_stress \
      runner_test_sweep runner_test_determinism \
      core_test_checkpoint runner_test_checkpoint_sweep \
      sim_test_checkpoint_store runner_test_journal runner_test_supervision \
      io_test_fault_plan runner_test_warmup_store service_test_sweepd \
      core_test_system core_test_coexistence core_test_experiments
# sim_test_scheduler/sim_test_timer_queue/sim_test_tracer exercise the
# timed queue's dispatch and cancellation paths (heap removal, the
# seeded std::set reference storm, schedule/cancel churn, slot reuse,
# mid-instant removal) with the kernel asserts armed and the sanitizers
# watching; sim_test_unique_function covers the allocation-free callback
# type (inline/heap storage, move lifetimes, capture destruction). runner_test_determinism spreads real
# simulations across 8 threads under the sanitizers: the bitwise-
# equality assertions double as a data-race smoke for the whole
# sim -> phy -> baseband -> core stack.
# baseband_test_bt_clock holds the analytic-clock differential suite
# (computed CLKN vs a timer-ticked reference across the 28-bit wrap,
# phase resets, tick-instant reads and mid-half-slot save/restore): the
# clock's wake timer is cancelled and re-armed on every state change,
# so it runs with the kernel asserts armed.
# baseband_test_framing_word / phy_test_burst_transport /
# integration_test_burst_equivalence cover the word-packed framing stack
# and the burst transport (lazy receiver catch-up, run fallback, the
# pinned digest of a traced noisy creation VCD, which runs per-bit under
# either transport switch, and the zero-allocation round trip) with the
# debug asserts armed under the sanitizers.
# integration_test_clean_path drives every way a receiver leaves a taken
# clean packet (contention, abort, reconfiguration, a rejecting header
# hook, a checkpoint) against the per-bit reference, and
# integration_test_transport_fuzz the seeded whole-system burst-vs-per-bit
# cases: the taken packet's replay indexes the composed bits from a saved
# position, so both run with the asserts armed.
# baseband_test_receiver_word is the receiver's word-vs-bit differential
# suite (every packet type, whitening, noise, all-'Z' sources, every
# consume split point); with asserts armed consume_quiet() also replays
# each span through the per-bit step and compares machines. Its
# SilentProbeMatchesPushReference case consumes every span the silent
# probe (the correlator weight bound) certifies, so consume_quiet's
# per-bit oracle asserts ("consume_quiet crossed a sync fire") run
# against that bound here. baseband_test_access_code pins the sync word
# (the word form against a bit-serial reference) and the correlator.
# sim_test_snapshot / core_test_checkpoint / runner_test_checkpoint_sweep
# cover the checkpoint subsystem: the tagged-stream codecs and their
# malformed-input rejection paths, whole-system save/restore round trips
# (including a mid-flight half-slot snapshot and a connected coexistence
# snapshot), and the forked-vs-cold
# sweep equivalence -- serialisation code is exactly where stale
# pointers and uninitialised reads hide, so it runs sanitized.
# sim_test_snapshot_fuzz drives the truncation/bit-flip corpus over both
# crafted and whole-system images: "rejects with SnapshotError, never
# crashes" is only a real property with ASan+UBSan watching the reader.
# phy_test_noise_stream is the per-port noise-stream differential suite
# (gap sampler vs per-bit draws, noisy-copy fallback/rewind at every
# bit, traced channels staying per-bit, mid-burst and traced mid-packet
# checkpoints) -- the noisy copy's word-packed flips and the stream
# rewinds index raw words, so they run sanitized.
# sim_test_checkpoint_store / runner_test_journal drive the durability
# layer's adversarial corpora (torn files, bit flips, stale recipes,
# truncated journals) over real file descriptors, and
# runner_test_supervision exercises the supervised executor's
# quarantine/retry/timeout paths including a detached abandoned worker —
# raw POSIX I/O and thread-lifetime hand-offs are exactly what the
# sanitizers are for.
# io_test_fault_plan injects every scheduled disk failure (ENOSPC, short
# write, failed fsync, crash-after-rename) under the journal and
# checkpoint store; runner_test_warmup_store covers the warn-once
# degradation of the durable warm-up cache; service_test_sweepd runs the
# whole sweep service in-process — job codec, worker pool, recovery
# scan, Unix-socket front end — with real jobs and real sockets, which
# is exactly the kind of fd/thread lifecycle code sanitizers exist for.
for t in sim_test_scheduler sim_test_timer_queue sim_test_unique_function \
         sim_test_tracer sim_test_snapshot sim_test_snapshot_fuzz \
         baseband_test_bt_clock baseband_test_access_code \
         baseband_test_framing_word baseband_test_receiver_word \
         phy_test_burst_transport phy_test_noise_stream \
         integration_test_burst_equivalence integration_test_clean_path \
         integration_test_transport_fuzz \
         integration_test_link integration_test_multislave integration_test_noise_stress \
         runner_test_sweep runner_test_determinism \
         core_test_checkpoint runner_test_checkpoint_sweep \
         sim_test_checkpoint_store runner_test_journal \
         runner_test_supervision \
         io_test_fault_plan runner_test_warmup_store service_test_sweepd; do
  "./build-asan/tests/$t"
done
# core_test_system drives BluetoothSystem's run_inquiry/run_page, whose
# completion handlers capture the calling frame; with fake stacks on,
# a handler left installed past its call turns into a
# stack-use-after-return report instead of a silent stray write. The
# same holds for TwoPiconets::create and run_coexistence_from
# (core_test_coexistence) and run_throughput_from (the handler case of
# core_test_experiments; its paper-band cases are release-speed work).
ASAN_OPTIONS=detect_stack_use_after_return=1 ./build-asan/tests/core_test_system
ASAN_OPTIONS=detect_stack_use_after_return=1 ./build-asan/tests/core_test_coexistence
ASAN_OPTIONS=detect_stack_use_after_return=1 ./build-asan/tests/core_test_experiments \
  --gtest_filter='*LeavesNoHandler*'

echo "=== TSan: threaded sweep + sweep service suites ==="
# ThreadSanitizer build (build-tsan, the `tsan` CMake preset): the sweep
# engine spreads replications across std::thread workers. ASan cannot
# see data races; TSan exists for exactly these suites.
# runner_test_sweep / runner_test_determinism run real simulations on
# the worker pool and fold their samples after the join -- any missing
# happens-before edge is a hard error here, not a flaky sweep somewhere
# downstream.
# runner_test_supervision joins the list: the supervisor publishes
# results through a commit fence shared with detached (abandoned)
# workers and journal appends happen from every worker thread — the
# mutex must carry all of those happens-before edges.
# service_test_sweepd joins too: the sweep service layers a worker pool,
# a drain flag polled from sweep workers, socket connection threads and
# per-job progress callbacks on top of that machinery — its submit/run/
# drain/recover cycle is the densest thread hand-off surface in the
# tree.
cmake -B build-tsan -S . -DBTSC_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
      -DBTSC_BUILD_BENCHES=OFF -DBTSC_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$jobs" --target \
      runner_test_sweep runner_test_determinism runner_test_supervision \
      service_test_sweepd
for t in runner_test_sweep runner_test_determinism \
         runner_test_supervision service_test_sweepd; do
  "./build-tsan/tests/$t"
done

echo "=== dispatch-order gate: fig08/fig10 sweep byte-compare at 1/2/8 threads ==="
# Kernel dispatch order must not depend on the thread count: the same
# Monte-Carlo sweeps must produce byte-identical JSON (%.17g doubles)
# at 1, 2 and 8 threads. A divergence here means the kernel dispatch
# order (the (when, seq) contract) broke.
# Start empty: a reference left by an earlier run of an older tree would
# be compared instead of this tree's output.
gate_dir=build/swap-gate
rm -rf "$gate_dir"
mkdir -p "$gate_dir"
for fig in 8 10; do
  ref="$gate_dir/fig${fig}_1t.json"
  ./build/bench/btsc-sweep --fig "$fig" --quick --seeds 8 --threads 1 \
      --out "$ref" >/dev/null
  for threads in 2 8; do
    out="$gate_dir/fig${fig}_${threads}t.json"
    ./build/bench/btsc-sweep --fig "$fig" --quick --seeds 8 \
        --threads "$threads" --out "$out" >/dev/null
    if ! cmp -s "$ref" "$out"; then
      echo "error: fig$fig sweep output differs between 1 and $threads threads" >&2
      echo "       (kernel dispatch-order contract violated; see" >&2
      echo "       docs/ARCHITECTURE.md, 'Event kernel & timer lifecycle')" >&2
      exit 1
    fi
  done
  echo "fig$fig sweep byte-identical at 1/2/8 threads"
done

echo "=== burst-transport gate: fig06-fig12 + extension studies, batched vs per-bit ==="
# The word-packed burst transport must never change simulation results
# either: with --no-burst the same sweeps run on the one-event-per-bit
# reference path and must produce byte-identical artifacts at every
# thread count; see docs/ARCHITECTURE.md, "Word-packed bit transport &
# burst delivery".
# Every Monte-Carlo figure (fig06-08, fig10-12; fig09 is a waveform, not
# a sweep) is compared burst-on vs per-bit; fig08/fig10 additionally
# cross thread counts (the others are already thread-gated above via the
# shared sweep engine). fig06-08 are BER sweeps, so this is a genuine
# noisy gate: their BER > 0 points run as noisy burst runs (flips drawn
# up front from each port's noise stream) on the left side and per-bit
# draws on the right, and must still agree byte for byte.
for fig in 6 7 8 10 11 12; do
  ref="$gate_dir/fig${fig}_1t.json"   # fig08/fig10 exist from above
  if [[ ! -f "$ref" ]]; then
    ./build/bench/btsc-sweep --fig "$fig" --quick --seeds 8 --threads 1 \
        --out "$ref" >/dev/null
  fi
  threads_list="1"
  # The BER sweeps (fig06-08) cross thread counts too: noisy runs share
  # no state across worker threads, and this is where a hidden
  # noisy-copy race would surface. fig10 keeps its crossing from the
  # swap gate above.
  case "$fig" in 6 | 7 | 8 | 10) threads_list="1 2 8" ;; esac
  for threads in $threads_list; do
    out="$gate_dir/fig${fig}_${threads}t_noburst.json"
    ./build/bench/btsc-sweep --fig "$fig" --quick --seeds 8 \
        --threads "$threads" --no-burst --out "$out" >/dev/null
    if ! cmp -s "$ref" "$out"; then
      echo "error: fig$fig sweep results differ between burst and per-bit" >&2
      echo "       transport at $threads thread(s) (PHY equivalence broken;" >&2
      echo "       see docs/ARCHITECTURE.md, 'Word-packed bit transport &" >&2
      echo "       burst delivery')" >&2
      exit 1
    fi
  done
  echo "fig$fig sweep results identical with burst transport on/off ($threads_list thread(s))"
done
# The extension studies decode the most payload (throughput: every DM/DH
# type under noise; backoff: inquiry storms) and carry the only
# contending transmitters (coexistence: collided samples, per-bit
# fallbacks, same-instant collision draws across receivers), so they
# are compared burst-on vs per-bit too.
for id in throughput coexistence backoff; do
  ref="$gate_dir/${id}_burst.json"
  out="$gate_dir/${id}_noburst.json"
  ./build/bench/btsc-sweep --scenario "$id" --quick --seeds 2 --threads 1 \
      --out "$ref" >/dev/null
  ./build/bench/btsc-sweep --scenario "$id" --quick --seeds 2 --threads 1 \
      --no-burst --out "$out" >/dev/null
  if ! cmp -s "$ref" "$out"; then
    echo "error: $id sweep results differ between burst and per-bit" >&2
    echo "       transport (PHY/receiver equivalence broken; see" >&2
    echo "       docs/ARCHITECTURE.md, 'Word-packed bit transport &" >&2
    echo "       burst delivery')" >&2
    exit 1
  fi
  echo "$id sweep results identical with burst transport on/off"
done
# The two piconets of coexistence keep one burst run each while they hop
# on different frequencies, so runs start, end and degrade at shared
# instants, where the order in which receivers sample decides whose
# collision draw comes first. Base seeds 30 and 57 are the ones found
# sensitive to that same-instant sampling order, so they are gated too.
for seed in 30 57; do
  ref="$gate_dir/coexistence_s${seed}_burst.json"
  out="$gate_dir/coexistence_s${seed}_noburst.json"
  ./build/bench/btsc-sweep --scenario coexistence --quick --seeds 2 \
      --base-seed "$seed" --threads 1 --out "$ref" >/dev/null
  ./build/bench/btsc-sweep --scenario coexistence --quick --seeds 2 \
      --base-seed "$seed" --threads 1 --no-burst --out "$out" >/dev/null
  if ! cmp -s "$ref" "$out"; then
    echo "error: coexistence sweep results differ between burst and" >&2
    echo "       per-bit transport at --base-seed $seed (same-instant" >&2
    echo "       sampling order broken; see docs/ARCHITECTURE.md," >&2
    echo "       'Word-packed bit transport & burst delivery')" >&2
    exit 1
  fi
  echo "coexistence sweep results identical with burst transport on/off" \
       "(base seed $seed)"
done

echo "=== durability gate: kill+resume byte-compare, fig08/fig10 ==="
# --journal/--resume must be crash-safe AND invisible in the results: a
# journaled sweep SIGKILLed mid-flight and resumed must merge to the
# same artifact as an uninterrupted run, at every thread count, and an
# uninterrupted journaled run must equal the plain run; see
# docs/ARCHITECTURE.md, "Durability & supervised sweeps". The kill
# lands only after the journal has grown past its header, so at least
# one fsynced record is genuinely replayed on every pass.
for id in fig08 fig10; do
  bash tests/integration/kill_resume_test.sh ./build/bench/btsc-sweep \
      "$gate_dir/kill-resume" "$id"
done

echo "=== service durability gate: btsc-sweepd kill-point matrix ==="
# The sweep service's crash-only recovery must hold at every kill point:
# SIGKILL at job-accept, mid-replication and mid-append, or a SIGTERM
# drain mid-replication (which must exit 0), restart with the same jobs
# directory, and every job artifact must come out byte-identical to an
# uninterrupted btsc-sweep run — at 1, 2 and 8 sweep threads. See
# docs/ARCHITECTURE.md, "Sweep service".
bash tests/integration/service_kill_resume_test.sh \
    ./build/bench/btsc-sweepd ./build/bench/btsc-sweep \
    "$gate_dir/service-kill-resume"

echo "=== caller gate: no src/ code without a caller ==="
bash scripts/coverage.sh

echo "=== CI OK ==="
