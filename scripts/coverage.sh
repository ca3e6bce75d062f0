#!/usr/bin/env bash
# Caller gate: no code in src/ without a production caller.
#
# Builds the production entry points with gcc --coverage, runs every one
# of them, and lists
#   * each src/ function that no run called (call counts summed across
#     all objects, so a header function counts wherever it was emitted),
#   * each src/ object that no entry point links at all.
# The gate fails on any of them that scripts/coverage-allow.txt does not
# name with a role (see the header of that file).
#
#   scripts/coverage.sh                       # build + run + gate
#   BTSC_COV_DIR=/tmp/cov scripts/coverage.sh # other build directory
#
# Entry points run: --list and --help, the nine studies (--quick, burst
# and --no-burst, text/CSV/JSON output, a 2-thread pool, --journal +
# --resume + --checkpoint-dir, and the supervised grid via --keep-going
# --rep-timeout), the fig05/fig09 waveform harnesses, the four examples,
# a btsc-sweepd --job-file batch and a btsc-sweepd --socket session
# (ping, submit, status, drain).
#
# The build is Release with -fno-early-inlining: gcc's early inliner
# runs before the counters go in, so a small function it inlined would
# read 0 calls; the later inliner keeps the counters, and the studies
# still run near full speed. Runs use one sweep thread (except the pool
# run) because the counters are shared and two threads bumping them run
# ~10x slower. -fkeep-inline-functions makes gcc emit every inline
# function, also one that no translation unit uses, which would
# otherwise never reach gcov at all; -ffunction-sections with
# --gc-sections drops the unreferenced ones at link time again, without
# which btsc-sweep fails to link on a libstdc++ internal that is
# declared but never defined (std::filesystem::path::_List::type).
# A constexpr function the compiler folds into a constant still reads 0
# calls: the allowlist names those with the compile-time role.
# Dead branches inside called functions are not this gate's concern.
# Needs gcc, gcov and python3 (no gcovr/lcov).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
dir=${BTSC_COV_DIR:-build-callers}
allow=scripts/coverage-allow.txt
jobs=$(nproc 2>/dev/null || echo 4)

echo "=== caller coverage: instrumented build in $dir ==="
flags="--coverage -fno-early-inlining -fkeep-inline-functions"
flags+=" -ffunction-sections"
cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS="$flags" \
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" -DBTSC_BUILD_TESTS=OFF >/dev/null
examples=(quickstart discovery_scan file_transfer power_modes)
cmake --build "$dir" -j "$jobs" --target btsc-sweep btsc-sweepd \
      fig05_piconet_waveform fig09_sniff_waveform "${examples[@]}"
dir=$(cd "$dir" && pwd)
find "$dir" -name '*.gcda' -delete

run="$dir/caller-run"
rm -rf "$run"
mkdir -p "$run"
sweep="$dir/bench/btsc-sweep"
studies=(fig06 fig07 fig08 fig10 fig11 fig12 throughput coexistence backoff)

echo "=== caller coverage: running every entry point ==="
for id in "${studies[@]}"; do
  "$sweep" --scenario "$id" --quick --threads 1 --out "$run/$id.json" >/dev/null
  "$sweep" --scenario "$id" --quick --threads 1 --no-burst >/dev/null
done
"$sweep" --list >/dev/null
"$sweep" --help >/dev/null
"$sweep" --fig 8 --quick --threads 2 --csv >/dev/null
"$sweep" --fig 8 --quick --threads 1 --out "$run/fig08.csv" >/dev/null
"$sweep" --fig 10 --quick --threads 1 --json >/dev/null
# Journaled runs (two replications, so samples merge) and resumes that
# replay every record; the first pass fills the checkpoint directory and
# a third fig08 run loads its warm-ups back from disk.
for id in "${studies[@]}"; do
  for extra in "" --resume; do
    "$sweep" --scenario "$id" --quick --seeds 2 --threads 1 \
        --journal "$run/$id.journal" --checkpoint-dir "$run/ckpt" $extra \
        --out "$run/$id-journaled.json" >/dev/null
  done
done
"$sweep" --fig 8 --quick --seeds 2 --threads 1 --checkpoint-dir "$run/ckpt" \
    >/dev/null
# Supervised grid: per-replication deadlines, retries, quarantine report.
"$sweep" --fig 10 --quick --threads 1 --keep-going --rep-timeout 60 \
    --max-retries 1 --quarantine-out "$run/quarantine.json" >/dev/null
(
  cd "$run"
  "$dir/bench/fig05_piconet_waveform" >/dev/null
  "$dir/bench/fig09_sniff_waveform" >/dev/null
  for ex in "${examples[@]}"; do "$dir/examples/$ex" >/dev/null; done
)
# Sweep service, batch mode.
cat > "$run/jobs.jsonl" <<'EOF'
{"id": "f8", "scenario": "fig08", "quick": true, "threads": 1}
{"id": "f10", "scenario": "fig10", "quick": true, "threads": 1, "base_seed": 7, "rep_timeout_s": 60}
EOF
"$dir/bench/btsc-sweepd" --jobs-dir "$run/batch" \
    --job-file "$run/jobs.jsonl" >/dev/null
# Sweep service, socket mode: ping, submit, status, drain. The socket
# path is relative so it stays within the sun_path limit.
(
  cd "$run"
  "$dir/bench/btsc-sweepd" --jobs-dir daemon --socket sweepd.sock >/dev/null &
  pid=$!
  trap 'kill "$pid" 2>/dev/null || true' EXIT
  python3 - <<'EOF'
import socket, time
for _ in range(200):
    try:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect("sweepd.sock")
        break
    except OSError:
        s.close()
        time.sleep(0.05)
else:
    raise SystemExit("btsc-sweepd did not open its socket")
f = s.makefile("rw")
for req in ('{"op": "ping"}',
            '{"op": "submit", "id": "s10", "scenario": "fig10", '
            '"quick": true, "threads": 1}',
            '{"op": "status"}',
            '{"op": "drain"}'):
    f.write(req + "\n")
    f.flush()
    reply = f.readline()
    if '"ok": true' not in reply:
        raise SystemExit("btsc-sweepd: " + req + " -> " + reply.strip())
EOF
  wait "$pid"
)

echo "=== caller coverage: zero-call src/ functions ==="
find "$dir/CMakeFiles/btsc.dir" -name '*.gcno' | sort > "$run/gcno.txt"
find "$dir" -name '*.gcda' -print0 |
  (cd "$run" && xargs -0 gcov -t -j 2>/dev/null) > "$run/gcov.jsonl"
python3 - "$root" "$dir" "$run" "$allow" <<'EOF'
import json, os, sys

root, build, run, allow_path = sys.argv[1:]
roles = {"compile-time", "oracle", "test-fake", "test-only", "fault-hook",
         "lmp-procedure", "restore-path", "error-path", "bench-caller",
         "perfbench-reader"}
src = os.path.join(root, "src") + os.sep


def depth_split(name):
    """Splits on spaces outside (), <> and []."""
    parts, depth, cur = [], 0, ""
    for ch in name:
        depth += {"(": 1, "<": 1, "[": 1, ")": -1, ">": -1, "]": -1}.get(ch, 0)
        if ch == " " and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    return parts + [cur]


def strip_nested(name, open_ch, close_ch):
    out, depth = "", 0
    for ch in name:
        if ch == open_ch:
            depth += 1
        elif ch == close_ch and depth > 0:
            depth -= 1
        elif depth == 0:
            out += ch
    return out


def display(name):
    """Qualified source name: no return type, template arguments,
    parameter list or ABI tag (instantiations of one template share it)."""
    head, op, tail = name.partition("::operator")
    if op:
        tail = tail[: tail.index("(", 1)] if "(" in tail[1:] else tail
        return strip_nested(head, "<", ">").split(" ")[-1] + op + tail
    name = strip_nested(strip_nested(name, "[", "]"), "<", ">")
    for suffix in (" const", " &&", " &"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    if name.endswith(")"):
        depth = 0
        for i in range(len(name) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(name[i], 0)
            if depth == 0:
                name = name[:i]
                break
    return depth_split(name)[-1]


# One entry per source function, keyed by where it is defined: template
# instantiations and the constructor/destructor variants share a line.
# Lambdas are left out; their enclosing function is the unit.
calls, names = {}, {}
with open(os.path.join(run, "gcov.jsonl")) as f:
    for line in f:
        if not line.strip():
            continue
        for fe in json.loads(line)["files"]:
            path = os.path.normpath(os.path.join(root, fe["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, root)
            for fn in fe["functions"]:
                if "{lambda(" in fn["demangled_name"]:
                    continue
                key = (rel, fn["start_line"])
                calls[key] = calls.get(key, 0) + fn["execution_count"]
                names.setdefault(key, display(fn["demangled_name"]))
zero = sorted({(k[0], names[k]) for k, n in calls.items() if n == 0})

unlinked = []
obj_root = os.path.join(build, "CMakeFiles", "btsc.dir") + os.sep
with open(os.path.join(run, "gcno.txt")) as f:
    for gcno in f.read().split():
        if not os.path.exists(gcno[: -len(".gcno")] + ".gcda"):
            unlinked.append(gcno[len(obj_root): -len(".cpp.gcno")] + ".cpp")

allowed, errors = {}, []
with open(os.path.join(root, allow_path)) as f:
    for n, line in enumerate(f, 1):
        body, _, role = line.partition("#")
        if not body.strip():
            continue
        file, _, func = body.strip().partition(" ")
        role = role.strip().split(" ")[0] if role.strip() else ""
        if role.rstrip(":") not in roles:
            errors.append(f"{allow_path}:{n}: no valid role: {line.strip()}")
        allowed[(file, func.strip())] = False

found = [(f, fn) for f, fn in zero] + [(f, "*") for f in unlinked]
bad = []
for key in found:
    if key in allowed:
        allowed[key] = True
    else:
        bad.append(key)

print(f"{len(calls)} src/ functions seen, {len(zero)} never called, "
      f"{len(unlinked)} object(s) linked into no entry point")
for f, fn in found:
    print(f"  {'ALLOWED' if (f, fn) not in bad else 'NO CALLER'}  {f} {fn}")
for (f, fn), hit in allowed.items():
    if not hit:
        errors.append(f"{allow_path}: stale entry (now called or gone): "
                      f"{f} {fn}")
for f, fn in bad:
    errors.append(f"no caller and not allowlisted: {f} {fn}")
if errors:
    print("\n".join(errors), file=sys.stderr)
    sys.exit(1)
print("caller coverage OK: every uncalled src/ function has a role")
EOF
