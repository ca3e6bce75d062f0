#!/usr/bin/env bash
# Kill-and-resume gate for the crash-safe sweep journal.
#
# For each thread count: run a reference sweep, require an uninterrupted
# fresh --journal run to write the same bytes (journaling is invisible
# in the artifact), then start the same sweep with --journal in the
# background, SIGKILL it once the journal holds at least one record past
# the header, resume with --resume, and require the resumed artifact to
# be byte-identical to the reference.
#
# usage: kill_resume_test.sh BTSC_SWEEP_BINARY WORKDIR [SCENARIO]
set -u

BIN=${1:?usage: kill_resume_test.sh BTSC_SWEEP_BINARY WORKDIR [SCENARIO]}
WORKDIR=${2:?usage: kill_resume_test.sh BTSC_SWEEP_BINARY WORKDIR [SCENARIO]}
SCENARIO=${3:-fig08}

mkdir -p "$WORKDIR"

# Shared sweep arguments: quick but big enough that a mid-flight kill has
# replications both behind and ahead of it. Ten replications per point
# (fig08's --quick default): at one replication per point, fig10's nine
# equally long forked replications finish in a single wave on 8 threads,
# leaving no instant between two journal records for the kill to land.
sweep_args() {
  local threads=$1
  echo "--scenario $SCENARIO --quick --seeds 10 --threads $threads --json"
}

journal_size() {
  stat -c %s "$1" 2> /dev/null || echo 0
}

run_one() {
  local threads=$1
  local tag="$WORKDIR/$SCENARIO-t$threads"
  local ref="$tag-ref.json"
  local out="$tag-resumed.json"
  local journal="$tag.journal"
  local resume_log="$tag-resume.log"

  # shellcheck disable=SC2086  # word splitting of the arg list is intended
  "$BIN" $(sweep_args "$threads") --out "$ref" > /dev/null || {
    echo "error: reference run failed ($SCENARIO, $threads threads)" >&2
    return 1
  }

  rm -f "$journal" "$out"
  # shellcheck disable=SC2086
  "$BIN" $(sweep_args "$threads") --journal "$journal" \
    --out "$out" > /dev/null || {
    echo "error: journaled run failed ($SCENARIO, $threads threads)" >&2
    return 1
  }
  if ! cmp -s "$ref" "$out"; then
    echo "error: $SCENARIO journaled sweep differs from the plain run at" >&2
    echo "       $threads thread(s) (journaling changed the artifact; see" >&2
    echo "       docs/ARCHITECTURE.md, 'Durability & supervised sweeps')" >&2
    return 1
  fi

  # A successful crash injection needs the victim killed strictly
  # mid-flight: after at least one record was journaled, before the run
  # finished. Timing is load-dependent, so retry the whole attempt.
  local attempt
  for attempt in 1 2 3 4 5 6 7 8; do
    rm -f "$journal" "$out"
    # shellcheck disable=SC2086
    "$BIN" $(sweep_args "$threads") --journal "$journal" \
      --out "$out" > /dev/null 2>&1 &
    local pid=$!

    # Wait for the journal to grow past its header block.
    local header_size=0
    local deadline=$((SECONDS + 60))
    while kill -0 "$pid" 2> /dev/null && [ "$SECONDS" -lt "$deadline" ]; do
      local size
      size=$(journal_size "$journal")
      if [ "$header_size" -eq 0 ] && [ "$size" -gt 0 ]; then
        header_size=$size  # first observation: header (maybe + records)
      fi
      if [ "$header_size" -gt 0 ] && [ "$size" -gt "$header_size" ]; then
        break
      fi
      sleep 0.005
    done

    if ! kill -KILL "$pid" 2> /dev/null; then
      wait "$pid" 2> /dev/null
      continue  # finished before the kill landed: retry
    fi
    wait "$pid" 2> /dev/null

    # shellcheck disable=SC2086
    "$BIN" $(sweep_args "$threads") --journal "$journal" --resume \
      --out "$out" > "$resume_log" || {
      echo "error: resume run failed ($SCENARIO, $threads threads)" >&2
      cat "$resume_log" >&2
      return 1
    }

    local resumed
    resumed=$(sed -nE 's/.*journal resumed ([0-9]+) completed.*/\1/p' \
      "$resume_log")
    if [ -z "$resumed" ]; then
      echo "error: resume run did not report its resume count" >&2
      cat "$resume_log" >&2
      return 1
    fi
    if [ "$resumed" -eq 0 ]; then
      continue  # killed before anything committed: retry
    fi

    if ! cmp -s "$ref" "$out"; then
      echo "error: $SCENARIO resumed sweep differs from the uninterrupted" >&2
      echo "       run at $threads thread(s) (journal/resume broken; see" >&2
      echo "       docs/ARCHITECTURE.md, 'Durability & supervised sweeps')" >&2
      return 1
    fi
    echo "kill+resume ok: $SCENARIO threads=$threads" \
      "resumed=$resumed attempts=$attempt"
    return 0
  done

  echo "error: could not land a mid-flight kill for $SCENARIO at" >&2
  echo "       $threads thread(s) after 8 attempts (sweep too fast?)" >&2
  return 1
}

rc=0
for threads in 1 2 8; do
  run_one "$threads" || rc=1
done
exit $rc
