#!/usr/bin/env bash
# Copyright 2026 The LTAM Authors.
#
# CI entry point. Usage:
#   ./ci.sh            # every job below, tier1 through replication
#   ./ci.sh tier1      # plain build + full ctest suite (the tier-1 gate)
#   ./ci.sh asan       # AddressSanitizer + UBSan build, full ctest suite
#   ./ci.sh tsan       # ThreadSanitizer build, concurrency-relevant tests
#   ./ci.sh examples   # build + run every example binary (facade surface)
#   ./ci.sh service    # ltam_serve round-trip + concurrent smoke + shutdown
#                      # + live v5 metrics scrape (exposition must parse,
#                      # ingest counters must have moved) + a one-shard
#                      # durable server with retention that must recover
#                      # cleanly after SIGTERM, a kill -9 crash round
#                      # whose first relaunch must replay at least every
#                      # event ltam_load saw acknowledged (the burst takes
#                      # no checkpoint, so all of them are in the logs)
#                      # and whose two relaunches must answer the same
#                      # history, checks that each boot commits at most
#                      # one checkpoint (a fresh boot leaves MANIFEST at
#                      # epoch 0, a crash relaunch adds exactly one), that
#                      # each boot leaves exactly one events-<epoch>.wal
#                      # (the runtime's one log), that every cleanly
#                      # stopped directory holds exactly the files its
#                      # version-2 MANIFEST names (plus REPL_EPOCH), and
#                      # inputs that must be refused: a
#                      # removed-layout (state.snap) directory, a
#                      # --replica-of server without --durable, and bad
#                      # flag values (out-of-range --port, malformed
#                      # numbers, the removed interval and batch sync
#                      # modes, removed flags)
#   ./ci.sh bench      # facade vs loopback-server throughput (1 and 4
#                      # shards) -> BENCH_pr6.json,
#                      # the durable batch pipeline and the durable
#                      # loopback server -> BENCH_pr5.json,
#                      # checkpoint latency full-rewrite vs incremental+tiered
#                      # -> BENCH_pr10.json; fails loudly if any expected
#                      # BENCH_pr<N>.json artifact is missing or empty
#   ./ci.sh load       # open-loop tail latency: ltam_load vs a live
#                      # ltam_serve per scenario family x arrival rate
#                      # -> BENCH_pr7.json (p50/p90/p99/p999 end-to-end);
#                      # the replication family runs against a durable
#                      # primary + read replica (queries routed to the
#                      # replica via --query-host). Each run also scrapes
#                      # the server's metrics over the wire and gates the
#                      # reconciliation (stage histogram counts == frames
#                      # the client got acked, stage sums bounded by the
#                      # client-observed latency) -> BENCH_pr9.json, which
#                      # also carries the instrumented-vs-baseline
#                      # loopback bench rows (the telemetry tax). Ends
#                      # with a soak pass against a retention-enabled
#                      # durable server: cold tier must seal + compact
#                      # and resident bytes must plateau -> BENCH_pr10.json.
#                      # Before stopping each server it prints the
#                      # server's per-thread CPU table (CPU ms and
#                      # context switches per thread name), kept as
#                      # THREADS_* rows in BENCH_pr9.json / BENCH_pr10.json
#   ./ci.sh replication # 2-shard primary + 2 replicas (one of them
#                      # 1-shard) over real TCP: kill -9
#                      # the primary mid-ingest, promote the freshest
#                      # survivor, repoint the other, assert convergence
#                      # (including the per-replica lag gauges draining
#                      # to zero) and byte-identical query answers
#
# Every future PR is expected to pass `./ci.sh` locally; the tier-1 gate
# is exactly the ROADMAP verify command. For a quick pre-commit signal,
# `ctest --test-dir build -L fast` skips the slow crash-matrix suites.
# The bench and load jobs write every artifact and intermediate file
# under build/ci-bench/ (ignored by git), never over the BENCH_pr<N>.json
# files committed at the repository root: those are the historical
# record and are never rewritten. Emitted BENCH_*.json artifacts carry
# context.host_nproc so scaling rows can be read against the machine
# shape they were measured on. Every job boots ltam_serve on --port=0
# (see boot_serve), so no job can collide with a port already in use.

set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
BENCH_OUT=build/ci-bench

tier1() {
  echo "=== tier1: build + full test suite ==="
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  ctest --test-dir build --output-on-failure -j"$JOBS"
}

asan() {
  echo "=== asan: address+undefined sanitizers, full test suite ==="
  cmake -B build-asan -S . -DLTAM_SANITIZE=address,undefined \
    -DLTAM_BUILD_BENCHMARKS=OFF -DLTAM_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j"$JOBS"
  ctest --test-dir build-asan --output-on-failure -j"$JOBS"
}

tsan() {
  echo "=== tsan: thread sanitizer, concurrency tests ==="
  cmake -B build-tsan -S . -DLTAM_SANITIZE=thread \
    -DLTAM_BUILD_BENCHMARKS=OFF -DLTAM_BUILD_EXAMPLES=OFF
  # The sharded pipeline (a large batch's slices on the workers, a small
  # one's all on the caller), the shared authorization lookups it leans
  # on (read by many threads at once, with no lock), the durable runtime
  # (worker-thread appends into the one log, flushers racing on its
  # round mutex and watermark readers), the facade that drives them, and
  # the TCP server around it all (the I/O thread that runs the ingest
  # rounds + read-worker pool + a replica's upstream link and its
  # per-chunk flush + log shippers + client threads) are the concurrent
  # surface; engine/movement tests ride along as controls.
  local targets=(sharded_engine_test auth_cache_test auth_database_test
                 engine_test movement_db_test durable_sharded_test
                 durable_equivalence_test access_runtime_test
                 movement_view_test service_loopback_test
                 log_pipeline_test loadgen_test replication_test
                 telemetry_test)
  cmake --build build-tsan -j"$JOBS" --target "${targets[@]}"
  for t in "${targets[@]}"; do
    "./build-tsan/tests/$t"
  done
}

examples() {
  echo "=== examples: build + run every example binary ==="
  cmake -B build -S .
  cmake --build build -j"$JOBS" --target \
    quickstart ltam_shell ntu_campus hospital_tracking building_security
  ./build/examples/quickstart > /dev/null
  ./build/examples/ntu_campus > /dev/null
  ./build/examples/hospital_tracking > /dev/null
  ./build/examples/building_security > /dev/null
  printf 'WHEN CAN Alice ACCESS CAIS\nquit\n' \
    | ./build/examples/ltam_shell > /dev/null
  echo "examples: all ran clean"
}

# Boots ltam_serve on --port=0 with its output in $1 and the remaining
# arguments as its flags, then reads the port the kernel picked back from
# the "listening on 127.0.0.1:PORT " banner (as perfbench does). A fixed
# or random port can collide with a listener or an ephemeral port
# already in use; port 0 cannot. Sets serve_pid and serve_port. If the
# banner never shows, prints the log, stops the server and returns 1.
boot_serve() {
  local log=$1
  shift
  ./build/examples/ltam_serve --port=0 "$@" > "$log" 2>&1 &
  serve_pid=$!
  serve_port=""
  local _
  for _ in $(seq 1 100); do
    serve_port="$(sed -n 's/^ltam_serve: listening on 127\.0\.0\.1:\([0-9][0-9]*\) .*/\1/p' \
      "$log" 2>/dev/null || true)"
    [ -n "$serve_port" ] && return 0
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
  done
  echo "ltam_serve $* never printed its listening banner" >&2
  cat "$log" >&2
  kill "$serve_pid" 2>/dev/null || true
  return 1
}

service() {
  echo "=== service: ltam_serve round-trip + concurrent smoke + shutdown ==="
  cmake -B build -S .
  cmake --build build -j"$JOBS" --target \
    ltam_serve ltam_shell ltam_load service_loopback_test \
    service_protocol_fuzz_test telemetry_test
  # Concurrent-client smoke: >=4 connections, coalesced ingest, byte-
  # identical to the direct facade (in-memory + durable), plus the
  # protocol fuzz suite.
  ./build/tests/service_protocol_fuzz_test > /dev/null
  ./build/tests/service_loopback_test > /dev/null
  ./build/tests/telemetry_test > /dev/null
  # End-to-end: a real server process, a real client round-trip through
  # the shell's remote mode, and a clean SIGTERM shutdown.
  local log
  log="$(mktemp)"
  # Scenario world so the metrics gate below can drive real ingest at
  # the server (the shell's remote mode only speaks the query/control
  # surface).
  boot_serve "$log" --scenario=surge --scenario-events=500 \
    || { echo "service: server never printed its listening banner" >&2; exit 1; }
  local server_pid=$serve_pid port=$serve_port
  # Capture the shell output (no grep -q on the live pipe: the early
  # close would SIGPIPE the shell under pipefail) and demand the
  # remote-mode banner — a failed connect falls back to local mode,
  # whose stats would satisfy a naive check.
  local shell_out
  shell_out="$(mktemp)"
  printf 'connect 127.0.0.1:%d\nWHEN CAN Alice ACCESS CAIS\nstats\nquit\n' "$port" \
    | ./build/examples/ltam_shell > "$shell_out" 2>&1
  grep -q "connected to 127.0.0.1:$port" "$shell_out" \
    || { echo "service: shell never entered remote mode" >&2; kill "$server_pid"; exit 1; }
  grep -q 'events-applied' "$shell_out" \
    || { echo "service: remote stats round-trip failed" >&2; kill "$server_pid"; exit 1; }
  rm -f "$shell_out"
  # Live metrics gate: drive real ingest with a short open-loop burst,
  # then scrape the metrics frame through the shell, which renders the
  # Prometheus text exposition. The exposition must be well-formed and the ingest counters
  # must have moved — a server that silently lost its instrumentation
  # fails here, not in a dashboard weeks later.
  ./build/examples/ltam_load --port="$port" --scenario=surge \
    --rate=500 --duration-s=1 --connections=2 > /dev/null \
    || { echo "service: metrics ingest burst failed" >&2; kill "$server_pid"; exit 1; }
  local prom_out
  prom_out="$(mktemp)"
  printf 'connect 127.0.0.1:%d\nmetrics prom\nquit\n' "$port" \
    | ./build/examples/ltam_shell 2>/dev/null \
    | grep -E '^(#|ltam_)' > "$prom_out"
  python3 - "$prom_out" <<'EOF' || { kill "$server_pid" 2>/dev/null; exit 1; }
import sys

values = {}
with open(sys.argv[1]) as f:
    for line in f:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        assert name.startswith("ltam_"), f"malformed exposition line: {line!r}"
        values[name] = float(value)  # must parse
frames = values.get("ltam_ingest_frames", 0)
assert frames > 0, "ingest.frames never moved"
assert values.get("ltam_ingest_events", 0) >= frames, "events below frames"
assert values.get("ltam_ingest_e2e_seconds_count") == frames, \
    "e2e histogram count diverges from the frame counter"
EOF
  rm -f "$prom_out"
  kill -TERM "$server_pid"
  wait "$server_pid" \
    || { echo "service: server exited uncleanly" >&2; exit 1; }
  grep -q "bye" "$log" \
    || { echo "service: server skipped the shutdown path" >&2; exit 1; }
  rm -f "$log"
  # The default (one-shard) durable runtime with retention. Boots it on
  # directory $1 (boot name $2) and waits for its banner.
  start_durable() {
    log="$(mktemp)"
    boot_serve "$log" --durable="$1" --retention-hot-events=512 \
      --scenario=surge --scenario-events=500 \
      || { echo "service: durable server failed its $2 boot" >&2; exit 1; }
    server_pid=$serve_pid
    port=$serve_port
    expect_one_wal "$1" "$2"
  }
  # Demands that directory $1 holds exactly one log, whatever the shard
  # count: the runtime's events-<epoch>.wal ($2 names the boot).
  expect_one_wal() {
    local wals
    wals="$(find "$1" -maxdepth 1 -name 'events-*.wal' | wc -l)"
    [ "$wals" = 1 ] \
      || { echo "service: $2 left $wals WAL files, expected one" >&2; ls -A "$1" >&2; kill "$server_pid"; exit 1; }
  }
  # The burst's summary line stays in $burst_summary.
  durable_burst() {
    burst_summary="$(./build/examples/ltam_load --port="$port" \
      --scenario=surge --rate=500 --duration-s=1 --connections=2)" \
      || { echo "service: durable ingest burst failed ($1)" >&2; kill "$server_pid"; exit 1; }
  }
  # The committed checkpoint epoch of directory $1: the third field of
  # the MANIFEST header ("manifest<TAB>version<TAB>epoch<TAB>shards").
  manifest_epoch() {
    awk -F'\t' 'NR == 1 && $1 == "manifest" { print $3 }' "$1/MANIFEST"
  }
  # Demands that directory $1 sits at epoch $2 ($3 names the boot).
  expect_epoch() {
    local got
    got="$(manifest_epoch "$1")"
    [ "$got" = "$2" ] \
      || { echo "service: $3 left MANIFEST at epoch '$got', expected $2" >&2; kill "$server_pid"; exit 1; }
  }
  # SIGTERM, then demand a clean exit through the shutdown path.
  stop_durable() {
    kill -TERM "$server_pid"
    wait "$server_pid" \
      || { echo "service: durable server exited uncleanly ($1)" >&2; cat "$log" >&2; exit 1; }
    grep -q "bye" "$log" \
      || { echo "service: durable server skipped the shutdown path ($1)" >&2; exit 1; }
    rm -f "$log"
  }
  # Demands that stopped directory $1 mirrors its MANIFEST ($2 names the
  # boot): it holds exactly the MANIFEST, the files it names (base, the
  # WAL, each shard's snapshot, each cold segment) and REPL_EPOCH if
  # present, so no *.tmp an interrupted write left and no file a
  # checkpoint failed to sweep. The MANIFEST must be format version 2.
  expect_mirror() {
    local named present version
    version="$(awk -F'\t' 'NR == 1 && $1 == "manifest" { print $2 }' "$1/MANIFEST")"
    [ "$version" = 2 ] \
      || { echo "service: $2 left a version '$version' MANIFEST, expected 2" >&2; exit 1; }
    named="$( { echo MANIFEST
                if [ -e "$1/REPL_EPOCH" ]; then echo REPL_EPOCH; fi
                awk -F'\t' '$1 == "base" || $1 == "wal" { print $2 }
                            $1 == "shard" { print $3 }
                            $1 == "cold" { for (i = 4; i <= NF; i++) print $i }' \
                  "$1/MANIFEST"
              } | sort -u)"
    present="$(ls -A "$1" | sort)"
    [ "$named" = "$present" ] || {
      echo "service: $2 left a directory that does not mirror its MANIFEST" >&2
      diff <(echo "$named") <(echo "$present") >&2 || true
      exit 1
    }
  }
  # Boot, take the same ingest burst, SIGTERM, then relaunch on the same
  # directory and demand a clean recovery boot and a clean second
  # shutdown. The fresh boot commits one cut, epoch 0 (the scenario's
  # rules are derived before the runtime opens); the relaunch finds the
  # logs empty after the SIGTERM checkpoint and commits none.
  local durable_dir boot epoch
  durable_dir="$(mktemp -d)"
  for boot in first relaunch; do
    start_durable "$durable_dir" "$boot"
    if [ "$boot" = first ]; then
      expect_epoch "$durable_dir" 0 "the fresh boot"
      durable_burst "$boot"
    else
      expect_epoch "$durable_dir" "$epoch" "the clean relaunch"
    fi
    stop_durable "$boot"
    expect_mirror "$durable_dir" "$boot"
    epoch="$(manifest_epoch "$durable_dir")"
  done
  rm -rf "$durable_dir"
  # Crash round on a fresh directory: the same server takes the ingest
  # burst and is kill -9'd, then relaunches twice. The first relaunch
  # replays the logged burst and commits exactly one recovery cut; that
  # cut (and the SIGTERM checkpoint after it) must keep the tail, so the
  # second relaunch, which finds empty logs and commits no cut, must
  # answer exactly the pre-crash history the first one recovered.
  history_sweep() {
    { printf 'connect 127.0.0.1:%d\n' "$1"
      local i
      for i in 0 1 2 3 4 5 6 7 8 9; do
        printf 'HISTORY OF u%d\n' "$i"
      done
      printf 'quit\n'
    } | ./build/examples/ltam_shell 2>&1 \
      | sed 's/connected to 127.0.0.1:[0-9]*/connected/'
  }
  local crash_dir sweep first_sweep="" acked replayed
  crash_dir="$(mktemp -d)"
  start_durable "$crash_dir" crash
  durable_burst crash
  # Every event ltam_load saw answered, granted or denied, is
  # acknowledged: "(N events: G grant / D deny)". The burst sends no
  # Checkpoint, so all of them must still be in the logs when the
  # relaunch replays them.
  grep -q ', 0 checkpoints,' <<< "$burst_summary" \
    || { echo "service: the crash burst checkpointed: $burst_summary" >&2; kill "$server_pid"; exit 1; }
  acked="$(sed -n 's|.* events: \([0-9]*\) grant / \([0-9]*\) deny).*|\1 + \2|p' \
    <<< "$burst_summary")"
  [ -n "$acked" ] \
    || { echo "service: no acknowledged-event count in: $burst_summary" >&2; kill "$server_pid"; exit 1; }
  acked=$((acked))
  kill -9 "$server_pid"
  wait "$server_pid" 2>/dev/null || true
  rm -f "$log"
  epoch="$(manifest_epoch "$crash_dir")"
  for boot in relaunch-1 relaunch-2; do
    start_durable "$crash_dir" "$boot"
    if [ "$boot" = relaunch-1 ]; then
      expect_epoch "$crash_dir" "$((epoch + 1))" "$boot"
    else
      expect_epoch "$crash_dir" "$epoch" "$boot"
    fi
    sweep="$(history_sweep "$port")"
    if [ "$boot" = relaunch-1 ]; then
      # The startup line: "open ... (recovered, N records replayed, ...)".
      replayed="$(sed -n 's/.*recovered, \([0-9]*\) records replayed.*/\1/p' "$log")"
      [ -n "$replayed" ] && [ "$replayed" -ge "$acked" ] || {
        echo "service: $boot replayed '$replayed' records, but $acked events were acknowledged" >&2
        cat "$log" >&2; kill "$server_pid"; exit 1
      }
      echo "service: crash round: $acked events acknowledged, $replayed records replayed"
    fi
    stop_durable "$boot"
    expect_mirror "$crash_dir" "$boot"
    epoch="$(manifest_epoch "$crash_dir")"
    grep -Eq '^[0-9]+ *\|' <<< "$sweep" \
      || { echo "service: $boot answered no history rows: $sweep" >&2; exit 1; }
    if [ -z "$first_sweep" ]; then
      first_sweep="$sweep"
    elif [ "$sweep" != "$first_sweep" ]; then
      echo "service: $boot lost history the first relaunch recovered" >&2
      diff <(echo "$first_sweep") <(echo "$sweep") >&2 || true
      exit 1
    fi
  done
  rm -rf "$crash_dir"
  # A directory in the removed sequential layout (a state.snap, no
  # MANIFEST) must be refused with the actionable message, never
  # shadowed by a fresh cut.
  local legacy_dir
  legacy_dir="$(mktemp -d)"
  : > "$legacy_dir/state.snap"
  log="$(mktemp)"
  if timeout 10 ./build/examples/ltam_serve --port=0 --durable="$legacy_dir" \
      > "$log" 2>&1; then
    echo "service: ltam_serve opened a removed-layout directory" >&2
    exit 1
  fi
  grep -q "state.snap.*removed" "$log" \
    || { echo "service: removed-layout refusal lacks its message" >&2; cat "$log" >&2; exit 1; }
  rm -rf "$legacy_dir" "$log"
  # A replica needs a durable runtime: the server refuses to start one
  # over an in-memory runtime, before it listens, and says why.
  log="$(mktemp)"
  if timeout 10 ./build/examples/ltam_serve --port=0 \
      --replica-of=127.0.0.1:1 > "$log" 2>&1; then
    echo "service: ltam_serve followed a primary without --durable" >&2
    exit 1
  fi
  if grep -q "listening" "$log" || ! grep -q "durable" "$log"; then
    echo "service: the in-memory replica refusal is wrong" >&2
    cat "$log" >&2
    exit 1
  fi
  rm -f "$log"
  # A bad flag value is a usage error (exit 2) naming the flag, never a
  # listener booted with a guessed value: an out-of-range port, a
  # malformed number, a sync mode, or a knob that does not exist
  # (--max-batch and --pipeline-depth were both removed).
  local bad_flag flag_status
  for bad_flag in --port=70000 --shards=abc --max-batch=12x \
      --sync-mode=interval --sync-mode=batch --pipeline-depth=4; do
    log="$(mktemp)"
    flag_status=0
    timeout 5 ./build/examples/ltam_serve --port=0 "$bad_flag" > "$log" 2>&1 \
      || flag_status=$?
    if [ "$flag_status" -ne 2 ] || grep -q "listening" "$log"; then
      echo "service: ltam_serve $bad_flag was not refused (exit $flag_status)" >&2
      cat "$log" >&2
      exit 1
    fi
    grep -q -- "${bad_flag%%=*}" "$log" \
      || { echo "service: the $bad_flag refusal does not name the flag" >&2; cat "$log" >&2; exit 1; }
    rm -f "$log"
  done
  # The load driver refuses the same way, before it dials: port 1 has no
  # listener, so a run that got past its flags fails some other way.
  for bad_flag in --duration-s=1x --connections=2x --scenario-subjects=abc; do
    log="$(mktemp)"
    flag_status=0
    timeout 5 ./build/examples/ltam_load --port=1 "$bad_flag" > "$log" 2>&1 \
      || flag_status=$?
    if [ "$flag_status" -ne 2 ]; then
      echo "service: ltam_load $bad_flag was not refused (exit $flag_status)" >&2
      cat "$log" >&2
      exit 1
    fi
    grep -q -- "${bad_flag%%=*}" "$log" \
      || { echo "service: the ltam_load $bad_flag refusal does not name the flag" >&2; cat "$log" >&2; exit 1; }
    rm -f "$log"
  done
  echo "service: round-trip + smoke + clean shutdown + durable relaunch + crash round + in-memory replica refusal + flag refusals passed"
}

# Stamps the host core count into an emitted BENCH_*.json's context.
# Shard-scaling rows are only meaningful relative to the machine shape (on a 1-core container they measure scheduling
# overhead), so the standing caveat is machine-readable in the artifact
# itself instead of living as a ROADMAP footnote.
record_host_meta() {
  python3 - "$@" <<'EOF'
import json
import os
import sys

for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    doc.setdefault("context", {})["host_nproc"] = os.cpu_count()
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
EOF
}

# The per-thread CPU table of a live server: one row per thread name
# (the library names its threads, see src/util/thread_name.h) with the
# thread count, CPU ms and context switches summed over that name's live
# threads, read from /proc/<pid>/task/*/{comm,schedstat}, plus the
# process total from /proc/<pid>/stat, which also counts threads that
# already exited. Prints the table and appends its rows, tagged with
# the label, as JSON lines to the file. Call it just before stopping the
# server: the counters go with the process.
# Usage: thread_table <pid> <label> <jsonl-file>
thread_table() {
  python3 - "$@" <<'EOF'
import json
import os
import sys

pid, label, out = sys.argv[1], sys.argv[2], sys.argv[3]
rows = {}
task_dir = f"/proc/{pid}/task"
for tid in os.listdir(task_dir):
    try:
        with open(f"{task_dir}/{tid}/comm") as f:
            name = f.read().strip()
        with open(f"{task_dir}/{tid}/schedstat") as f:
            run_ns, _, switches = (int(x) for x in f.read().split())
    except OSError:
        continue  # The thread exited mid-read.
    row = rows.setdefault(name, {"threads": 0, "cpu_ms": 0.0, "switches": 0})
    row["threads"] += 1
    row["cpu_ms"] += run_ns / 1e6
    row["switches"] += switches
with open(f"/proc/{pid}/stat") as f:
    fields = f.read().rsplit(")", 1)[1].split()
process_ms = (int(fields[11]) + int(fields[12])) * 1e3 / os.sysconf("SC_CLK_TCK")
print(f"threads of {label} (pid {pid}): process CPU {process_ms:.0f} ms")
print(f"  {'thread':16s} {'n':>3s} {'cpu_ms':>9s} {'switches':>9s}")
with open(out, "a") as f:
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["cpu_ms"]):
        print(f"  {name:16s} {row['threads']:3d} {row['cpu_ms']:9.1f} "
              f"{row['switches']:9d}")
        f.write(json.dumps({"name": f"THREADS_{label}/{name}",
                            "run_type": "iteration", "iterations": 1,
                            **row, "process_cpu_ms": process_ms}) + "\n")
EOF
}

# Appends the JSON-line rows of $2 to the benchmark artifact $1, then
# deletes $2. Usage: append_rows <artifact> <jsonl-file>
append_rows() {
  python3 - "$1" "$2" <<'EOF'
import json
import sys

artifact, rows = sys.argv[1], sys.argv[2]
with open(artifact) as f:
    doc = json.load(f)
with open(rows) as f:
    doc["benchmarks"].extend(json.loads(line) for line in f if line.strip())
with open(artifact, "w") as f:
    json.dump(doc, f, indent=1)
EOF
  rm -f "$2"
}

# Loud artifact gate: a bench/load job that "passed" without emitting
# the BENCH_pr<N>.json rows it exists to produce is a silent regression
# in the trajectory record. Usage: require_bench_artifacts <job> <name>...
# (each name is looked up under $BENCH_OUT).
require_bench_artifacts() {
  local job=$1
  shift
  local artifact
  for artifact in "${@/#/$BENCH_OUT/}"; do
    if [ ! -s "$artifact" ]; then
      echo "$job: expected artifact $artifact is missing or empty" >&2
      exit 1
    fi
    python3 -c "
import json, sys
with open('$artifact') as f:
    doc = json.load(f)
assert doc.get('benchmarks'), '$artifact has no benchmark rows'
" || { echo "$job: $artifact is not a valid benchmark artifact" >&2; exit 1; }
  done
}

bench() {
  echo "=== bench: loopback overhead -> BENCH_pr6.json, durable write path -> BENCH_pr5.json (under $BENCH_OUT) ==="
  cmake -B build -S .
  if ! cmake --build build -j"$JOBS" --target bench_service bench_access_engine; then
    echo "bench: google-benchmark not available; skipping" >&2
    return 0
  fi
  mkdir -p "$BENCH_OUT"
  # BM_FacadeBatch is the direct AccessRuntime baseline on the service
  # workload; BM_ServiceLoopbackBatch drives the identical per-stream
  # batches through a loopback ltam-serve with 4 pipelined connections
  # at 1 and 4 shards — the gap is the network + coalescing overhead,
  # and frames_per_merge reports how much the I/O thread's ingest rounds
  # amortize. The filter is deliberately unanchored: the shard arg
  # suffixes benchmark names ("BM_ServiceLoopbackBatch/4/real_time"), so
  # a '$'-anchored filter would silently drop every loopback row.
  ./build/bench/bench_service \
    --benchmark_filter='FacadeBatch|ServiceLoopbackBatch/' \
    --benchmark_min_time=0.05 \
    --benchmark_out="$BENCH_OUT/BENCH_pr6.json" --benchmark_out_format=json
  record_host_meta "$BENCH_OUT/BENCH_pr6.json"
  echo "bench: wrote $(pwd)/$BENCH_OUT/BENCH_pr6.json"
  # BENCH_pr5.json: the durable write path on the same stream as the
  # facade rows (every iteration ends at the durability barrier), plus
  # the durable loopback server, whose every answer waits for its fsync.
  # Longer min time than the service benches: the durable rows carry
  # ~10% run-to-run noise at 1-2 iterations.
  ./build/bench/bench_access_engine \
    --benchmark_filter='BM_DurableBatch' \
    --benchmark_min_time=0.2 \
    --benchmark_out="$BENCH_OUT/BENCH_pr5_durable.json" --benchmark_out_format=json
  ./build/bench/bench_service \
    --benchmark_filter='ServiceLoopbackBatchDurable' \
    --benchmark_min_time=0.05 \
    --benchmark_out="$BENCH_OUT/BENCH_pr5_service.json" --benchmark_out_format=json
  python3 - "$BENCH_OUT" <<'EOF'
import json
import os
import sys

out_dir = sys.argv[1]
out = None
for name in ("BENCH_pr5_durable.json", "BENCH_pr5_service.json"):
    with open(os.path.join(out_dir, name)) as f:
        part = json.load(f)
    if out is None:
        out = part
    else:
        out["benchmarks"].extend(part["benchmarks"])
with open(os.path.join(out_dir, "BENCH_pr5.json"), "w") as f:
    json.dump(out, f, indent=1)
EOF
  rm -f "$BENCH_OUT/BENCH_pr5_durable.json" "$BENCH_OUT/BENCH_pr5_service.json"
  record_host_meta "$BENCH_OUT/BENCH_pr5.json"
  echo "bench: wrote $(pwd)/$BENCH_OUT/BENCH_pr5.json"
  # PR 10: checkpoint latency, full rewrite vs incremental + tiered.
  # Same dirtying work per timed checkpoint at every history length;
  # the full variant dirties every shard (all snapshots rewritten, cost
  # grows with history), the incremental variant dirties one shard with
  # the cold tier bounding its hot snapshot (cost plateaus). The soak
  # rows from `./ci.sh load` merge into the same artifact.
  ./build/bench/bench_access_engine \
    --benchmark_filter='BM_Checkpoint(Full|Incremental)' \
    --benchmark_min_time=0.05 \
    --benchmark_out="$BENCH_OUT/BENCH_pr10.json" --benchmark_out_format=json
  record_host_meta "$BENCH_OUT/BENCH_pr10.json"
  echo "bench: wrote $(pwd)/$BENCH_OUT/BENCH_pr10.json"
  require_bench_artifacts bench BENCH_pr5.json BENCH_pr6.json BENCH_pr10.json
}

load() {
  echo "=== load: open-loop tail latency per scenario family -> BENCH_pr7.json (under $BENCH_OUT) ==="
  cmake -B build -S .
  cmake --build build -j"$JOBS" --target ltam_serve ltam_load ltam_shell
  mkdir -p "$BENCH_OUT"
  # One short open-loop pass per (scenario family, arrival rate) against
  # a real ltam_serve process booted with the matching world. The
  # loader measures latency from each frame's SCHEDULED arrival, so a
  # server that falls behind shows up in p99/p999 — the tail-latency
  # signal the closed-loop bench jobs cannot produce. --scenario-events
  # must equal rate*duration on both sides: it sizes the authorization
  # horizon the two processes derive the shared world from.
  local duration=1
  local connections=2
  local parts=() proms=()
  local threads="$BENCH_OUT/BENCH_pr9_threads.jsonl"
  rm -f "$threads"
  local scenario rate
  for scenario in surge contact churn tenant replication; do
    for rate in 2000 6000; do
      local events=$((rate * duration))
      local log
      log="$(mktemp)"
      # The replication family runs in its real topology: a durable
      # primary taking ingest and a read replica answering the query
      # mix over --query-host — the tail this row gates is the
      # replicated-serving read path, not a single-node stand-in.
      local server_extra=() load_extra=()
      local repl_root="" replica_pid="" replica_log=""
      if [ "$scenario" = replication ]; then
        repl_root="$(mktemp -d)"
        mkdir -p "$repl_root/primary" "$repl_root/replica"
        server_extra=(--durable="$repl_root/primary" --shards=2
                      --sync-mode=pipelined)
      fi
      boot_serve "$log" --scenario="$scenario" \
        --scenario-events="$events" "${server_extra[@]}" \
        || { echo "load: $scenario server never came up" >&2; exit 1; }
      local server_pid=$serve_pid port=$serve_port
      grep -q "scenario $scenario" "$log" \
        || { echo "load: server missing the scenario banner" >&2; kill "$server_pid"; exit 1; }
      if [ "$scenario" = replication ]; then
        replica_log="$(mktemp)"
        boot_serve "$replica_log" --scenario="$scenario" \
          --scenario-events="$events" --durable="$repl_root/replica" \
          --shards=2 --replica-of=127.0.0.1:"$port" \
          || { echo "load: replica never came up" >&2; kill "$server_pid"; exit 1; }
        replica_pid=$serve_pid
        grep -q "replica of" "$replica_log" \
          || { echo "load: replica missing its replica banner" >&2; kill "$server_pid" "$replica_pid"; exit 1; }
        load_extra=(--query-host=127.0.0.1 --query-port="$serve_port")
      fi
      local out="$BENCH_OUT/BENCH_pr7_${scenario}_${rate}.json"
      ./build/examples/ltam_load --port="$port" --scenario="$scenario" \
        --rate="$rate" --duration-s="$duration" \
        --connections="$connections" --json-out="$out" "${load_extra[@]}" \
        || { echo "load: $scenario @ $rate ev/s failed" >&2; kill "$server_pid"; exit 1; }
      parts+=("$out")
      # Scrape the server the run just hammered, before teardown: the
      # per-stage snapshot rides into BENCH_pr9.json next to the client
      # rows, and the merge below gates the reconciliation between them.
      local prom="$BENCH_OUT/BENCH_pr9_${scenario}_${rate}.prom"
      printf 'connect 127.0.0.1:%d\nmetrics prom\nquit\n' "$port" \
        | ./build/examples/ltam_shell 2>/dev/null \
        | grep -E '^(#|ltam_)' > "$prom" \
        || { echo "load: metrics scrape failed for $scenario @ $rate" >&2; kill "$server_pid"; exit 1; }
      proms+=("$prom")
      if [ -n "$replica_pid" ]; then
        thread_table "$replica_pid" "${scenario}_replica/rate:${rate}" "$threads"
        kill -TERM "$replica_pid"
        wait "$replica_pid" \
          || { echo "load: replica exited uncleanly after $scenario @ $rate" >&2; exit 1; }
        rm -f "$replica_log"
      fi
      thread_table "$server_pid" "${scenario}/rate:${rate}" "$threads"
      kill -TERM "$server_pid"
      wait "$server_pid" \
        || { echo "load: server exited uncleanly after $scenario @ $rate" >&2; exit 1; }
      rm -f "$log"
      [ -n "$repl_root" ] && rm -rf "$repl_root"
    done
  done
  # Merge the per-run reports and hard-fail if any (family, rate) row
  # lost its latency percentiles — the trajectory gate, not a warning.
  python3 - "$BENCH_OUT" "${parts[@]}" <<'EOF'
import json
import os
import sys

out_dir = sys.argv[1]
merged = {"context": {"executable": "ltam_load", "open_loop": True,
                      "host_nproc": os.cpu_count()},
          "benchmarks": []}
for path in sys.argv[2:]:
    with open(path) as f:
        merged["benchmarks"].extend(json.load(f)["benchmarks"])
families = set()
rates_per_family = {}
for row in merged["benchmarks"]:
    for key in ("p50_ms", "p90_ms", "p99_ms", "p999_ms", "max_ms"):
        assert key in row, f"{row['name']} lost {key}"
    family = row["name"].split("_")[1]
    families.add(family)
    rates_per_family.setdefault(family, set()).add(
        row["name"].split("/rate:")[1].split("/")[0])
assert len(families) >= 3, f"need >=3 scenario families, got {families}"
for family, rates in rates_per_family.items():
    assert len(rates) >= 2, f"{family} needs >=2 arrival rates, got {rates}"
with open(os.path.join(out_dir, "BENCH_pr7.json"), "w") as f:
    json.dump(merged, f, indent=1)
EOF
  # BENCH_pr9.json: the same client rows plus each run's server-side
  # telemetry snapshot, with the reconciliation gated hard — the stage
  # histograms must count exactly the frames the client got acked, and
  # their sums must nest inside the latency the client observed. A
  # drifting count basis or a non-monotonic clock fails the job, not a
  # code-review eyeball.
  python3 - "$BENCH_OUT" "${parts[@]}" "${proms[@]}" <<'EOF'
import json
import os
import sys

out_dir = sys.argv[1]
paths = sys.argv[2:]
half = len(paths) // 2
client_paths, prom_paths = paths[:half], paths[half:]

def parse_prom(path):
    values = {}
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name.startswith("ltam_"), f"{path}: malformed line {line!r}"
            values[name] = float(value)
    return values

merged = {"context": {"executable": "ltam_load+ltam_serve",
                      "open_loop": True, "host_nproc": os.cpu_count()},
          "benchmarks": []}
for cpath, ppath in zip(client_paths, prom_paths):
    with open(cpath) as f:
        doc = json.load(f)
    merged["benchmarks"].extend(doc["benchmarks"])
    ingest = next(r for r in doc["benchmarks"] if "_ingest/" in r["name"])
    family = ingest["name"].split("_")[1]
    rate = ingest["name"].split("/rate:")[1].split("/")[0]
    m = parse_prom(ppath)

    # Count reconciliation: the server's frame counter and every
    # per-frame stage histogram agree with the client's acked-frame
    # count (quota-refused frames are counted by neither side).
    frames = m["ltam_ingest_frames"]
    assert frames == ingest["hist_count"], \
        f"{family}@{rate}: server saw {frames} frames, client acked {ingest['hist_count']}"
    for stage in ("queue_wait", "decode", "apply", "write", "e2e"):
        count = m[f"ltam_ingest_{stage}_seconds_count"]
        assert count == frames, \
            f"{family}@{rate}: ingest.{stage} counted {count}, expected {frames}"
    assert m["ltam_ingest_events"] >= frames

    # One fsync-wait span per merged batch, recorded before the batch
    # is answered; runtime.apply_batch ticks at least once per batch
    # (plus any world-boot applies).
    fsync = m["ltam_ingest_fsync_wait_seconds_count"]
    batches = m["ltam_runtime_apply_batch_seconds_count"]
    assert 0 < fsync <= batches, f"{family}@{rate}: fsync={fsync} batches={batches}"

    # Sum consistency: stage spans nest inside the server's e2e span,
    # which nests inside the client's scheduled-arrival latency.
    e2e_sum = m["ltam_ingest_e2e_seconds_sum"]
    stage_sum = sum(m[f"ltam_ingest_{s}_seconds_sum"]
                    for s in ("queue_wait", "decode", "apply", "write"))
    assert stage_sum <= e2e_sum * 1.000001 + 1e-6, \
        f"{family}@{rate}: stage sums {stage_sum}s exceed e2e sum {e2e_sum}s"
    client_sum = ingest["hist_sum_ns"] / 1e9
    assert e2e_sum <= client_sum * 1.000001 + 1e-6, \
        f"{family}@{rate}: server e2e {e2e_sum}s exceeds client-observed {client_sum}s"

    row = {"name": f"SERVER_{family}_metrics/rate:{rate}",
           "run_type": "iteration", "iterations": 1,
           "ingest_frames": int(frames),
           "ingest_events": int(m["ltam_ingest_events"]),
           "fsync_wait_count": int(fsync),
           "apply_batch_count": int(batches),
           "wal_sync_count": int(m.get("ltam_wal_sync_seconds_count", 0)),
           "e2e_sum_s": e2e_sum, "stage_sum_s": stage_sum,
           "client_sum_s": client_sum}
    for s in ("queue_wait", "decode", "apply", "write", "e2e"):
        row[f"{s}_p99_ms"] = \
            m[f'ltam_ingest_{s}_seconds{{quantile="0.99"}}'] * 1e3
    merged["benchmarks"].append(row)
with open(os.path.join(out_dir, "BENCH_pr9.json"), "w") as f:
    json.dump(merged, f, indent=1)
EOF
  rm -f "${parts[@]}" "${proms[@]}"
  echo "load: wrote $(pwd)/$BENCH_OUT/BENCH_pr7.json"
  # The telemetry tax: the identical loopback workload with and without
  # a registry wired in, 10 randomly interleaved repetitions of each. The
  # tax is reported from the two medians, and as unresolved when the two
  # rows' min-max ranges overlap (one short run of each spans less than
  # the row's own run-to-run spread). Every repetition row lands in
  # BENCH_pr9.json. Reported, not gated: CI containers are too noisy.
  if cmake --build build -j"$JOBS" --target bench_service 2>/dev/null; then
    ./build/bench/bench_service \
      --benchmark_filter='ServiceLoopbackBatch(Instrumented)?/4/' \
      --benchmark_repetitions=10 --benchmark_enable_random_interleaving=true \
      --benchmark_min_time=0.2 \
      --benchmark_out="$BENCH_OUT/BENCH_pr9_bench.json" --benchmark_out_format=json
    python3 - "$BENCH_OUT" <<'EOF'
import json
import os
import sys

out_dir = sys.argv[1]
with open(os.path.join(out_dir, "BENCH_pr9.json")) as f:
    doc = json.load(f)
with open(os.path.join(out_dir, "BENCH_pr9_bench.json")) as f:
    bench = json.load(f)["benchmarks"]
doc["benchmarks"].extend(bench)
scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
times = {"baseline": [], "instrumented": []}
for row in bench:
    if row.get("run_type") != "iteration":
        continue
    key = ("instrumented"
           if row["name"].startswith("BM_ServiceLoopbackBatchInstrumented")
           else "baseline")
    times[key].append(row["real_time"] * scale[row["time_unit"]])
assert all(len(t) == 10 for t in times.values()), \
    f"expected 10 repetitions per telemetry-tax row: {times}"
median = {}
for key, t in times.items():
    t.sort()
    median[key] = (t[4] + t[5]) / 2
    print(f"load: {key:12s} median {median[key]:.2f} ms "
          f"(min-max {t[0]:.2f}-{t[-1]:.2f} ms over {len(t)} runs)")
tax = 100.0 * (median["instrumented"] / median["baseline"] - 1.0)
overlap = (times["instrumented"][0] <= times["baseline"][-1] and
           times["baseline"][0] <= times["instrumented"][-1])
print(f"load: telemetry tax {tax:+.1f}% from the medians"
      + (" (unresolved: the two ranges overlap)" if overlap else ""))
with open(os.path.join(out_dir, "BENCH_pr9.json"), "w") as f:
    json.dump(doc, f, indent=1)
EOF
    rm -f "$BENCH_OUT/BENCH_pr9_bench.json"
  else
    echo "load: google-benchmark not available; BENCH_pr9.json carries no telemetry-tax rows" >&2
  fi
  append_rows "$BENCH_OUT/BENCH_pr9.json" "$threads"
  record_host_meta "$BENCH_OUT/BENCH_pr9.json"
  echo "load: wrote $(pwd)/$BENCH_OUT/BENCH_pr9.json"

  # PR 10 soak: sustained ingest against a retention-enabled durable
  # server, checkpointing as it goes so the cold tier seals, compacts,
  # and the process's resident set plateaus instead of tracking total
  # history. The run is backgrounded so the server can be scraped
  # mid-flight: the end-of-run scrape must show compaction.runs moved
  # and resident bytes staying near the mid-run level.
  local soak_root soak_log
  soak_root="$(mktemp -d)"
  soak_log="$(mktemp)"
  local soak_events=12000
  boot_serve "$soak_log" --scenario=soak \
    --scenario-events="$soak_events" --durable="$soak_root" --shards=2 \
    --sync-mode=pipelined --retention-horizon-s=100000 \
    --retention-hot-events=128 \
    || { echo "load: soak server never came up" >&2; exit 1; }
  local soak_server_pid=$serve_pid soak_port=$serve_port
  grep -q "scenario soak" "$soak_log" \
    || { echo "load: soak server missing the scenario banner" >&2; kill "$soak_server_pid"; exit 1; }
  soak_scrape() {
    printf 'connect 127.0.0.1:%d\nmetrics prom\nquit\n' "$soak_port" \
      | ./build/examples/ltam_shell 2>/dev/null | grep -E '^(#|ltam_)'
  }
  ./build/examples/ltam_load --port="$soak_port" --scenario=soak \
    --rate=4000 --duration-s=3 --connections=2 \
    --checkpoint-every-frames=8 --json-out="$BENCH_OUT/BENCH_pr10_soak.json" &
  local soak_load_pid=$!
  sleep 1.8
  local soak_mid
  soak_mid="$(soak_scrape)" \
    || { echo "load: soak mid-run scrape failed" >&2; kill "$soak_server_pid" "$soak_load_pid"; exit 1; }
  wait "$soak_load_pid" \
    || { echo "load: soak run failed" >&2; kill "$soak_server_pid"; exit 1; }
  local soak_end
  soak_end="$(soak_scrape)" \
    || { echo "load: soak end scrape failed" >&2; kill "$soak_server_pid"; exit 1; }
  local soak_threads="$BENCH_OUT/BENCH_pr10_threads.jsonl"
  rm -f "$soak_threads"
  thread_table "$soak_server_pid" "soak/rate:4000" "$soak_threads"
  kill -TERM "$soak_server_pid"
  wait "$soak_server_pid" \
    || { echo "load: soak server exited uncleanly" >&2; exit 1; }
  rm -f "$soak_log"
  rm -rf "$soak_root"
  SOAK_MID="$soak_mid" SOAK_END="$soak_end" python3 - "$BENCH_OUT" <<'EOF'
import json
import os
import sys

def parse(text):
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values

mid = parse(os.environ["SOAK_MID"])
end = parse(os.environ["SOAK_END"])

# The tier must actually operate under load: segments sealed, at least
# one compaction run, dirty-segment accounting flowing.
assert end.get("ltam_storage_cold_segments", 0) > 0, \
    f"no cold segments sealed: {end.get('ltam_storage_cold_segments')}"
assert end.get("ltam_storage_cold_bytes", 0) > 0
assert end.get("ltam_compaction_runs", 0) >= 1, \
    f"compaction never ran: {end.get('ltam_compaction_runs')}"
assert end.get("ltam_checkpoint_dirty_segments", 0) > 0

# The plateau gate: resident bytes at end-of-run must stay near the
# mid-run level — memory tracking TOTAL history would blow through
# this margin on any sustained run.
rss_mid = mid.get("ltam_storage_resident_bytes", 0)
rss_end = end.get("ltam_storage_resident_bytes", 0)
assert rss_mid > 0 and rss_end > 0, \
    f"resident-bytes gauge missing (mid={rss_mid}, end={rss_end})"
assert rss_end <= rss_mid * 1.75 + 32 * 1024 * 1024, \
    f"resident set kept growing: mid={rss_mid} end={rss_end}"

row = {"name": "SOAK_retention_metrics/rate:4000", "run_type": "iteration",
       "iterations": 1,
       "cold_segments": int(end["ltam_storage_cold_segments"]),
       "cold_bytes": int(end["ltam_storage_cold_bytes"]),
       "compaction_runs": int(end["ltam_compaction_runs"]),
       "checkpoint_dirty_segments":
           int(end["ltam_checkpoint_dirty_segments"]),
       "retention_dropped_segments":
           int(end.get("ltam_retention_dropped_segments", 0)),
       "resident_bytes_mid": int(rss_mid),
       "resident_bytes_end": int(rss_end)}

out_dir = sys.argv[1]
with open(os.path.join(out_dir, "BENCH_pr10_soak.json")) as f:
    soak = json.load(f)
soak["benchmarks"].append(row)
# Merge into the checkpoint rows `./ci.sh bench` wrote, replacing the
# rows of any earlier soak pass so repeated runs do not pile up.
pr10 = os.path.join(out_dir, "BENCH_pr10.json")
try:
    with open(pr10) as f:
        doc = json.load(f)
    names = {r["name"] for r in soak["benchmarks"]}
    doc["benchmarks"] = [r for r in doc["benchmarks"]
                         if r["name"] not in names] + soak["benchmarks"]
except FileNotFoundError:
    doc = soak
with open(pr10, "w") as f:
    json.dump(doc, f, indent=1)
print(f"load: soak plateau ok (rss mid={rss_mid/1e6:.0f}MB "
      f"end={rss_end/1e6:.0f}MB, compaction_runs="
      f"{int(end['ltam_compaction_runs'])})")
EOF
  rm -f "$BENCH_OUT/BENCH_pr10_soak.json"
  append_rows "$BENCH_OUT/BENCH_pr10.json" "$soak_threads"
  record_host_meta "$BENCH_OUT/BENCH_pr10.json"
  echo "load: wrote $(pwd)/$BENCH_OUT/BENCH_pr10.json (soak rows)"
  require_bench_artifacts load BENCH_pr7.json BENCH_pr9.json BENCH_pr10.json
}

replication() {
  echo "=== replication: kill -9 failover across real processes ==="
  cmake -B build -S .
  cmake --build build -j"$JOBS" --target \
    ltam_serve ltam_load ltam_shell replication_test
  # The in-process contracts first: catch-up byte-identity, crash-
  # promote-repoint equivalence against a direct replay, and stale-
  # epoch fencing (a fenced primary's writes provably never land).
  ./build/tests/replication_test > /dev/null

  # Then the real thing: three ltam_serve processes over TCP. Ingest
  # flows to the primary while replica 1 serves the scenario's query
  # mix; the primary is kill -9'd mid-ingest, the freshest survivor is
  # promoted (epoch 0 -> 1), the other survivor repointed at it, and
  # the pair must converge to the identical watermark and answer a
  # query sweep byte-identically. The primary and replica 1 run two
  # shards and replica 2 runs one, so whichever survivor leads, the
  # convergence check and the sweep cover mixed shard counts.
  local root
  root="$(mktemp -d)"
  mkdir -p "$root/primary" "$root/r1" "$root/r2"
  local events=4000
  local world=(--scenario=replication --scenario-events="$events")

  # Prints a server's applied offset (the "durable/applied" watermark's
  # right half) via the shell's remote stats.
  applied_of() {
    printf 'connect 127.0.0.1:%d\nstats\nquit\n' "$1" \
      | ./build/examples/ltam_shell 2>/dev/null \
      | sed -n 's|.*durability-watermark:[[:space:]]*[0-9]*/\([0-9]*\).*|\1|p'
  }
  # A fixed query sweep with the endpoint-specific banner stripped —
  # the byte-identity probe.
  query_sweep() {
    { printf 'connect 127.0.0.1:%d\n' "$1"
      local i
      for i in 0 1 2 3 4 5 6 7; do
        printf 'WHERE WAS u%d AT 40\nWHERE WAS u%d AT 1000\n' "$i" "$i"
      done
      printf 'quit\n'
    } | ./build/examples/ltam_shell 2>&1 \
      | sed 's/connected to 127.0.0.1:[0-9]*/connected/'
  }

  boot_serve "$root/primary.log" --durable="$root/primary" \
    --sync-mode=pipelined "${world[@]}" --shards=2 \
    || { echo "replication: primary never came up" >&2; exit 1; }
  local primary_pid=$serve_pid pport=$serve_port
  boot_serve "$root/r1.log" --durable="$root/r1" "${world[@]}" --shards=2 \
    --replica-of=127.0.0.1:"$pport" \
    || { echo "replication: replica 1 never came up" >&2; kill "$primary_pid"; exit 1; }
  local r1_pid=$serve_pid r1port=$serve_port
  boot_serve "$root/r2.log" --durable="$root/r2" "${world[@]}" --shards=1 \
    --replica-of=127.0.0.1:"$pport" \
    || { echo "replication: replica 2 never came up" >&2; kill "$primary_pid" "$r1_pid"; exit 1; }
  local r2_pid=$serve_pid r2port=$serve_port
  grep -q "replica of" "$root/r1.log" && grep -q "replica of" "$root/r2.log" \
    || { echo "replication: a replica is missing its replica banner" >&2; kill "$primary_pid" "$r1_pid" "$r2_pid"; exit 1; }

  ./build/examples/ltam_load --port="$pport" --scenario=replication \
    --query-host=127.0.0.1 --query-port="$r1port" \
    --rate="$events" --duration-s=1 --connections=2 \
    > "$root/load.log" 2>&1 &
  local load_pid=$!
  sleep 0.6
  kill -9 "$primary_pid"
  # The severed ingest stream fails the load run — that's the scenario,
  # not a harness error.
  wait "$load_pid" || true
  wait "$primary_pid" 2>/dev/null || true
  sleep 0.5  # Let in-flight chunks the replicas already hold drain.

  # Promote whichever survivor saw more of the stream (the laggard's
  # state is a prefix of the leader's, so repointing it converges).
  local a1 a2
  a1="$(applied_of "$r1port")"; a1="${a1:-0}"
  a2="$(applied_of "$r2port")"; a2="${a2:-0}"
  [ "$a1" -gt 0 ] || [ "$a2" -gt 0 ] \
    || { echo "replication: no survivor applied any of the stream" >&2; exit 1; }
  local lead_port follow_port
  if [ "$a1" -ge "$a2" ]; then
    lead_port=$r1port; follow_port=$r2port
  else
    lead_port=$r2port; follow_port=$r1port
  fi
  # Capture, then grep: grep -q on the live pipe would SIGPIPE the
  # shell under pipefail the moment it matches (same trap as the
  # service job).
  local ctl_out
  ctl_out="$(printf 'connect 127.0.0.1:%d\npromote\nquit\n' "$lead_port" \
    | ./build/examples/ltam_shell)"
  grep -q "promoted to primary at replication epoch 1" <<< "$ctl_out" \
    || { echo "replication: promote failed: $ctl_out" >&2; exit 1; }
  ctl_out="$(printf 'connect 127.0.0.1:%d\nrepoint 127.0.0.1:%d\nquit\n' \
      "$follow_port" "$lead_port" | ./build/examples/ltam_shell)"
  grep -q "repointed" <<< "$ctl_out" \
    || { echo "replication: repoint failed: $ctl_out" >&2; exit 1; }

  # Convergence: the follower reaches the new primary's watermark AND
  # adopts its epoch (equal watermarks alone can predate the link's
  # redial — the epoch only moves once the new subscription is live).
  local lead_applied="" follow_stats="" converged=no
  for _ in $(seq 1 100); do
    lead_applied="$(applied_of "$lead_port")"
    follow_stats="$(printf 'connect 127.0.0.1:%d\nstats\nquit\n' \
        "$follow_port" | ./build/examples/ltam_shell)"
    if [ -n "$lead_applied" ] &&
       grep -Eq 'replication-epoch:[[:space:]]*1' <<< "$follow_stats" &&
       grep -Eq "durability-watermark:[[:space:]]*[0-9]+/$lead_applied " \
         <<< "$follow_stats"; then
      converged=yes
      break
    fi
    sleep 0.1
  done
  [ "$converged" = yes ] \
    || { echo "replication: survivors never converged (lead applied=$lead_applied, follower: $follow_stats)" >&2; exit 1; }

  # The new primary's per-replica lag gauges (shipped vs the follower's
  # durable position, exported by its log shipper and rendered by the
  # shell's remote stats) must drain to zero once the follower has
  # converged — a gauge stuck nonzero means the shipper and the
  # watermark disagree about the same replica.
  local lag_ok=no lead_stats=""
  for _ in $(seq 1 50); do
    lead_stats="$(printf 'connect 127.0.0.1:%d\nstats\nquit\n' \
        "$lead_port" | ./build/examples/ltam_shell)"
    if grep -q 'lag_records: ' <<< "$lead_stats" &&
       ! grep -Eq 'lag_records: (-|[1-9])' <<< "$lead_stats"; then
      lag_ok=yes
      break
    fi
    sleep 0.1
  done
  [ "$lag_ok" = yes ] \
    || { echo "replication: replica lag gauge never drained to zero: $lead_stats" >&2; exit 1; }

  diff <(query_sweep "$lead_port") <(query_sweep "$follow_port") \
    || { echo "replication: survivors answer queries differently" >&2; exit 1; }

  kill -TERM "$r1_pid" "$r2_pid"
  wait "$r1_pid" || { echo "replication: replica 1 exited uncleanly" >&2; exit 1; }
  wait "$r2_pid" || { echo "replication: replica 2 exited uncleanly" >&2; exit 1; }
  rm -rf "$root"
  echo "replication: kill -9 promote/repoint failover converged byte-identically"
}

case "${1:-all}" in
  tier1) tier1 ;;
  asan) asan ;;
  tsan) tsan ;;
  examples) examples ;;
  service) service ;;
  bench) bench ;;
  load) load ;;
  replication) replication ;;
  all)
    tier1
    asan
    tsan
    examples
    service
    bench
    load
    replication
    ;;
  *)
    echo "usage: $0 [tier1|asan|tsan|examples|service|bench|load|replication|all]" >&2
    exit 2
    ;;
esac

echo "ci.sh: all requested jobs passed"
