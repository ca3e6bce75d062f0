#!/usr/bin/env bash
# Service kill-point matrix for btsc-sweepd's crash-only recovery.
#
# A two-job batch (fig08 + fig10, quick, inflated replications) is
# SIGKILLed at three points — right after job accept, mid-replication
# (some journal grew past its header), and mid-run after several journal
# appends — and, as a fourth case, drained by SIGTERM mid-replication,
# which must exit 0. Each case then restarts with the same jobs
# directory and job file. The restart must report resumed jobs, exit 0,
# and produce final artifacts byte-identical to uninterrupted
# `btsc-sweep` runs. The whole matrix runs at 1, 2 and 8 sweep threads.
#
# usage: service_kill_resume_test.sh BTSC_SWEEPD BTSC_SWEEP WORKDIR
set -u

SWEEPD=${1:?usage: service_kill_resume_test.sh BTSC_SWEEPD BTSC_SWEEP WORKDIR}
SWEEP=${2:?usage: service_kill_resume_test.sh BTSC_SWEEPD BTSC_SWEEP WORKDIR}
WORKDIR=${3:?usage: service_kill_resume_test.sh BTSC_SWEEPD BTSC_SWEEP WORKDIR}

mkdir -p "$WORKDIR"

# Job workloads: quick scenarios with replication counts inflated to
# ~1-2 s so a mid-flight kill has committed work both behind and ahead
# of it.
F8_REPS=60
F10_REPS=40

journal_bytes() {
  # Combined size of every job journal in a jobs dir (0 when none).
  local total=0 f
  for f in "$1"/*.journal; do
    [ -e "$f" ] || continue
    total=$((total + $(stat -c %s "$f" 2> /dev/null || echo 0)))
  done
  echo "$total"
}

make_refs() {
  local threads=$1
  "$SWEEP" --scenario fig08 --quick --threads "$threads" \
    --replications "$F8_REPS" --json \
    --out "$WORKDIR/ref-f8-t$threads.json" > /dev/null || return 1
  "$SWEEP" --scenario fig10 --quick --threads "$threads" \
    --replications "$F10_REPS" --json \
    --out "$WORKDIR/ref-f10-t$threads.json" > /dev/null || return 1
}

write_job_file() {
  local threads=$1 file=$2
  cat > "$file" << EOF
{"id": "f8", "scenario": "fig08", "quick": true, "threads": $threads, "replications": $F8_REPS}
{"id": "f10", "scenario": "fig10", "quick": true, "threads": $threads, "replications": $F10_REPS}
EOF
}

# Waits for this kill mode's trigger condition while the victim runs.
# Returns 0 once the condition holds, 1 if the victim exited first.
await_kill_point() {
  local mode=$1 pid=$2 jobs_dir=$3
  local deadline=$((SECONDS + 60))
  local header_sizes="" size grown=0 last=0
  while kill -0 "$pid" 2> /dev/null && [ "$SECONDS" -lt "$deadline" ]; do
    case "$mode" in
      accept)
        # Both durable .job files are in place: the accept point.
        if [ -e "$jobs_dir/f8.job" ] && [ -e "$jobs_dir/f10.job" ]; then
          return 0
        fi
        ;;
      rep)
        # Some journal grew past its first observed (header) size: at
        # least one replication record is mid-stream.
        size=$(journal_bytes "$jobs_dir")
        if [ -z "$header_sizes" ] && [ "$size" -gt 0 ]; then
          header_sizes=$size
        fi
        if [ -n "$header_sizes" ] && [ "$size" -gt "$header_sizes" ]; then
          return 0
        fi
        ;;
      append)
        # The combined journal size increased on several distinct
        # observations: the kill lands amid a stream of appends.
        size=$(journal_bytes "$jobs_dir")
        if [ "$size" -gt "$last" ]; then
          [ "$last" -gt 0 ] && grown=$((grown + 1))
          last=$size
        fi
        if [ "$grown" -ge 3 ]; then
          return 0
        fi
        ;;
    esac
    sleep 0.005
  done
  return 1
}

run_case() {
  local threads=$1 mode=$2
  local tag="t$threads-$mode"
  local jobs_dir="$WORKDIR/jobs-$tag"
  local job_file="$WORKDIR/jobs-$tag.jsonl"
  local resume_log="$WORKDIR/resume-$tag.log"
  write_job_file "$threads" "$job_file"
  # The drain case stops the service at the mid-replication point with
  # SIGTERM instead of SIGKILL.
  local trigger=$mode signal=KILL
  if [ "$mode" = drain ]; then
    trigger=rep
    signal=TERM
  fi

  local attempt
  for attempt in 1 2 3 4 5 6 7 8; do
    rm -rf "$jobs_dir"
    "$SWEEPD" --jobs-dir "$jobs_dir" --job-file "$job_file" --workers 2 \
      > /dev/null 2>&1 &
    local pid=$!

    if ! await_kill_point "$trigger" "$pid" "$jobs_dir"; then
      wait "$pid" 2> /dev/null
      continue  # finished before the kill condition: retry
    fi
    if ! kill -"$signal" "$pid" 2> /dev/null; then
      wait "$pid" 2> /dev/null
      continue
    fi
    local victim_rc=0
    wait "$pid" 2> /dev/null || victim_rc=$?
    if [ "$signal" = TERM ] && [ "$victim_rc" -ne 0 ]; then
      echo "error: $tag: btsc-sweepd exited $victim_rc after SIGTERM" >&2
      echo "       (a drain must exit 0; see docs/SCENARIOS.md, 'Drain" >&2
      echo "       semantics')" >&2
      return 1
    fi

    # Restart with the same jobs dir + job file: recovery re-enqueues
    # every incomplete job (duplicate-id rejections of the batch lines
    # are informational) and the batch must now complete cleanly.
    "$SWEEPD" --jobs-dir "$jobs_dir" --job-file "$job_file" --workers 2 \
      > "$resume_log" 2>&1
    local rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "error: restart failed (rc=$rc) for $tag" >&2
      cat "$resume_log" >&2
      return 1
    fi
    if ! grep -q "resuming [0-9]* incomplete job" "$resume_log"; then
      continue  # the batch had already completed when the kill landed
    fi

    local id ref
    for id in f8 f10; do
      ref="$WORKDIR/ref-$id-t$threads.json"
      if [ ! -e "$jobs_dir/$id.json" ]; then
        echo "error: $tag left no artifact for job $id" >&2
        cat "$resume_log" >&2
        return 1
      fi
      if ! cmp -s "$ref" "$jobs_dir/$id.json"; then
        echo "error: $tag artifact for $id differs from the" >&2
        echo "       uninterrupted run (service resume broken; see" >&2
        echo "       docs/ARCHITECTURE.md, 'Sweep service')" >&2
        return 1
      fi
    done
    echo "service kill+resume ok: threads=$threads kill=$mode" \
      "attempts=$attempt"
    return 0
  done

  echo "error: could not land a $mode-point kill at $threads thread(s)" >&2
  echo "       after 8 attempts (batch too fast?)" >&2
  return 1
}

rc=0
for threads in 1 2 8; do
  make_refs "$threads" || {
    echo "error: reference runs failed at $threads thread(s)" >&2
    exit 1
  }
  for mode in accept rep append drain; do
    run_case "$threads" "$mode" || rc=1
  done
done
exit $rc
