#!/usr/bin/env sh
# Tier-1 verification: build, full test suite (unit + bench-smoke), a
# prefetch guard (the dynamic store's hot loops keep their prefetch
# instructions), an observability smoke run (--metrics/--trace on a tiny
# graph), a bench-json smoke run (--json + hyve_report --check/--compare,
# byte-diffed across --jobs), a functional-cache smoke run (the always-on
# memo must hit and stay byte-identical across --jobs, and the
# hash-balanced sweep must build no second graph image), a graph-file
# smoke run (a .bin graph and its text conversion simulate identically;
# out-of-range R-MAT vertex counts exit 2), a live-telemetry smoke run
# (--live-status snapshots, hyve_top, and the SIGTERM flight-record
# path), a docs/METRICS.md drift check, a kernel-regression smoke run
# (bench_micro's built-in layout-equivalence gate plus a --jobs 1 vs 8
# byte-diff of a frontier sweep), the
# sweep-engine concurrency tests under ThreadSanitizer, then every unit
# test in a Debug AddressSanitizer + UBSan build.
set -eu

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# prefetch-guard: the dynamic store's build and request loops overlap
# their cache misses with prefetch hints. GCC deletes every call to an
# out-of-line function whose only effect is a prefetch, and no test can
# see that, so check the object code: both functions must hold prefetch
# instructions (prefetch* on x86, prfm on aarch64). The constructor's
# bulk loads may stay out of line as FlatTable::insert_all and
# find_or_insert_all instances; their prefetches count as its own.
prefetch_fns=$(objdump -d -C --no-show-raw-insn \
  build/src/dynamic/libhyve_dynamic.a |
  awk '/^[0-9a-f]+ <.*>:$/ { fn = $0 }
       /^ *[0-9a-f]+:\t(prefetch|prfm)/ { print fn }')
for fn in 'hyve::apply_requests\(' \
  'hyve::DynamicGraphStore::DynamicGraphStore\(|hyve::FlatTable::(insert_all|find_or_insert_all)<'
do
  printf '%s\n' "$prefetch_fns" | grep -qE "$fn" ||
    { echo "prefetch-guard: no prefetch instruction in $fn" >&2; exit 1; }
done
echo "prefetch-guard: OK"

# obs-smoke: a traced, metered run must produce a non-empty registry
# dump and a trace with events; both outputs are asserted, not just the
# exit code.
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
./build/tools/hyve_sim --rmat 5000x30000 --algo pr \
  --metrics --trace "$obs_dir/trace.json" >/dev/null 2>"$obs_dir/metrics.txt"
grep -q '=' "$obs_dir/metrics.txt" ||
  { echo "obs-smoke: empty metrics dump" >&2; exit 1; }
grep -q 'sim\.pipeline\.blocks=' "$obs_dir/metrics.txt" ||
  { echo "obs-smoke: pipeline counters missing" >&2; exit 1; }
grep -q '"ph"' "$obs_dir/trace.json" ||
  { echo "obs-smoke: trace has no events" >&2; exit 1; }
grep -q '"traceEvents"' "$obs_dir/trace.json" ||
  { echo "obs-smoke: not a trace-event document" >&2; exit 1; }
# The graph is generated after the host profiler starts, so its span
# lands in the profile, and so does the run's one §4.3 hash-balance
# permutation (on by default; graph.remap times only the permutation,
# which the partition build then applies as it reads the edges).
./build/tools/hyve_sim --rmat 5000x30000 --host-profile --metrics \
  >/dev/null 2>"$obs_dir/host_metrics.txt"
grep -q '^host\.span\.rmat\.generate\.count=1$' "$obs_dir/host_metrics.txt" ||
  { echo "obs-smoke: --rmat generation escaped the host profiler" >&2
    exit 1; }
grep -q '^host\.span\.graph\.remap\.count=1$' "$obs_dir/host_metrics.txt" ||
  { echo "obs-smoke: the hash-balance remap escaped the host profiler" >&2
    exit 1; }
echo "obs-smoke: OK"

# bench-json: a smoke bench must emit a report hyve_report accepts, the
# document must be byte-identical for any --jobs value, and comparing a
# report against itself must find no regressions.
./build/bench/bench_fig13 --smoke --jobs 1 --json "$obs_dir/bench_j1.json" \
  >/dev/null 2>&1
./build/bench/bench_fig13 --smoke --jobs 8 --json "$obs_dir/bench_j8.json" \
  >/dev/null 2>&1
./build/tools/hyve_report --check "$obs_dir/bench_j1.json" >/dev/null ||
  { echo "bench-json: --check rejected a fresh report" >&2; exit 1; }
# The single "host":{...} object is the report's only wall-clock
# content; strip it and the rest must be byte-identical across --jobs.
strip_host() { sed 's/,"host":{[^}]*}//' "$1"; }
strip_host "$obs_dir/bench_j1.json" > "$obs_dir/bench_j1.nohost"
strip_host "$obs_dir/bench_j8.json" > "$obs_dir/bench_j8.nohost"
cmp "$obs_dir/bench_j1.nohost" "$obs_dir/bench_j8.nohost" ||
  { echo "bench-json: --jobs 1 and --jobs 8 reports differ" >&2; exit 1; }
# bench_ablation's eleven cells all run one dataset and algorithm, so its
# report is the one that loses runs when two cells share a config label.
for jobs in 1 8; do
  ./build/bench/bench_ablation --smoke --datasets YT --jobs "$jobs" \
    --json "$obs_dir/ablation_j$jobs.json" >/dev/null 2>&1 ||
    { echo "bench-json: bench_ablation --jobs $jobs failed" >&2; exit 1; }
  strip_host "$obs_dir/ablation_j$jobs.json" > "$obs_dir/ablation_j$jobs.nohost"
done
cmp "$obs_dir/ablation_j1.nohost" "$obs_dir/ablation_j8.nohost" ||
  { echo "bench-json: bench_ablation --jobs 1 and --jobs 8 reports differ" >&2
    exit 1; }
./build/tools/hyve_report --compare "$obs_dir/bench_j1.json" \
  "$obs_dir/bench_j8.json" >/dev/null ||
  { echo "bench-json: identical reports flagged as regressed" >&2; exit 1; }
echo "bench-json: OK"

# functional-cache: the sweep engine always memoises functional phases.
# The memo must actually hit on a memory-config sweep, and its output
# must stay byte-identical across --jobs (exp_test diffs it against
# uncached HyveMachine::run records). The sweep hash-balances every
# cell, yet its graph cache must hold no bytes: the dataset is pinned
# and the schedule builds apply the permutation themselves, so no
# second (remapped) edge image may appear.
./build/tools/hyve_experiments --datasets YT --algos bfs,pr --jobs 1 \
  --cache-stats > "$obs_dir/exp_j1.jsonl" 2>"$obs_dir/exp_stats.txt"
./build/tools/hyve_experiments --datasets YT --algos bfs,pr --jobs 8 \
  > "$obs_dir/exp_j8.jsonl"
cmp "$obs_dir/exp_j1.jsonl" "$obs_dir/exp_j8.jsonl" ||
  { echo "functional-cache: --jobs 1 and --jobs 8 outputs differ" >&2; exit 1; }
grep -q 'functional cache: hits=[1-9]' "$obs_dir/exp_stats.txt" ||
  { echo "functional-cache: --cache-stats reported no memo hits" >&2; exit 1; }
grep -q '^graph cache: .* resident_bytes=0$' "$obs_dir/exp_stats.txt" ||
  { echo "functional-cache: a hash-balanced sweep built a second graph image" >&2
    exit 1; }
# The plain bench stdout the live-smoke step diffs against.
./build/bench/bench_fig13 --smoke --jobs 2 > "$obs_dir/bench_plain.out" \
  2>/dev/null
echo "functional-cache: OK"

# partitioner-smoke: sweeping every partitioning strategy must stay
# order-stable (byte-identical --jobs 1 vs 8), every strategy must show
# up in the records with its own label annotation and per-strategy
# cache counters, and a bench run must accept --partitioner.
./build/tools/hyve_experiments --datasets YT --algos bfs,pr --jobs 1 \
  --partitioner interval,hep:tau=2,splitmerge:chunks=8 --cache-stats \
  > "$obs_dir/part_j1.jsonl" 2>"$obs_dir/part_stats.txt"
./build/tools/hyve_experiments --datasets YT --algos bfs,pr --jobs 8 \
  --partitioner interval,hep:tau=2,splitmerge:chunks=8 \
  > "$obs_dir/part_j8.jsonl"
cmp "$obs_dir/part_j1.jsonl" "$obs_dir/part_j8.jsonl" ||
  { echo "partitioner-smoke: --jobs 1 and --jobs 8 outputs differ" >&2
    exit 1; }
grep -q '~hep:tau=2' "$obs_dir/part_j1.jsonl" ||
  { echo "partitioner-smoke: hep cells missing from output" >&2; exit 1; }
grep -q '~splitmerge:chunks=8' "$obs_dir/part_j1.jsonl" ||
  { echo "partitioner-smoke: splitmerge cells missing" >&2; exit 1; }
grep -q '"partition":{"n_avg":' "$obs_dir/part_j1.jsonl" ||
  { echo "partitioner-smoke: partition stats missing" >&2; exit 1; }
grep -q 'partition cache\[hep:tau=2\]:' "$obs_dir/part_stats.txt" ||
  { echo "partitioner-smoke: per-strategy cache stats missing" >&2; exit 1; }
./build/bench/bench_fig13 --smoke --jobs 2 --partitioner hep:tau=2 \
  --json "$obs_dir/bench_hep.json" >/dev/null 2>&1
./build/tools/hyve_report --check "$obs_dir/bench_hep.json" >/dev/null ||
  { echo "partitioner-smoke: hep bench report rejected" >&2; exit 1; }
echo "partitioner-smoke: OK"

# graph-file-smoke: a generated .bin graph and its text conversion must
# simulate to the same hyve_sim --csv output, apart from the path
# column; R-MAT vertex counts beyond 2^31 must be usage errors (exit 2)
# in both tools, never a silently different graph.
./build/tools/hyve_graphgen rmat 40000 240000 "$obs_dir/g.bin" >/dev/null
./build/tools/hyve_graphgen convert "$obs_dir/g.bin" "$obs_dir/g.txt" \
  >/dev/null
for f in bin txt; do
  ./build/tools/hyve_sim --graph "$obs_dir/g.$f" --algo pr --csv \
    > "$obs_dir/g_$f.csv" 2>/dev/null
  cut -d, -f2- "$obs_dir/g_$f.csv" > "$obs_dir/g_$f.cut"
done
cmp "$obs_dir/g_bin.cut" "$obs_dir/g_txt.cut" ||
  { echo "graph-file-smoke: .bin and text runs differ" >&2; exit 1; }
rc=0
./build/tools/hyve_graphgen rmat 5000000000 10 "$obs_dir/x.bin" \
  >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] && [ ! -e "$obs_dir/x.bin" ] ||
  { echo "graph-file-smoke: hyve_graphgen took V = 5000000000" \
         "(exit $rc)" >&2; exit 1; }
rc=0
./build/tools/hyve_sim --rmat 3000000000x10 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] ||
  { echo "graph-file-smoke: hyve_sim took --rmat 3000000000x10" \
         "(exit $rc)" >&2; exit 1; }
echo "graph-file-smoke: OK"

# perf-history: record two smoke reports into a throwaway ledger, the
# trend must pass; a sed-injected wall-clock regression appended as a
# third record must flip the trend's exit code. Then the dashboard:
# hyve_dash output must be byte-identical for reports produced with
# different --jobs (the host object is excluded by default).
hist_dir="$obs_dir/history"
./build/bench/bench_fig10 --smoke --jobs 1 --host-profile \
  --json "$obs_dir/perf_a.json" >/dev/null 2>&1
./build/bench/bench_fig10 --smoke --jobs 1 \
  --json "$obs_dir/perf_b.json" >/dev/null 2>&1
./build/tools/hyve_report --record "$obs_dir/perf_a.json" \
  --history "$hist_dir" >/dev/null ||
  { echo "perf-history: --record rejected a fresh report" >&2; exit 1; }
./build/tools/hyve_report --record "$obs_dir/perf_b.json" \
  --history "$hist_dir" >/dev/null
./build/tools/hyve_report --trend "$hist_dir" >/dev/null ||
  { echo "perf-history: clean ledger flagged as regressed" >&2; exit 1; }
tail -n 1 "$hist_dir/bench_fig10.jsonl" |
  sed 's/"wall_ms":[0-9.eE+-]*/"wall_ms":9.9e9/' \
  >> "$hist_dir/bench_fig10.jsonl"
if ./build/tools/hyve_report --trend "$hist_dir" >/dev/null; then
  echo "perf-history: injected wall-clock regression not flagged" >&2
  exit 1
fi
./build/bench/bench_fig10 --smoke --jobs 8 \
  --json "$obs_dir/perf_j8.json" >/dev/null 2>&1
./build/tools/hyve_dash "$obs_dir/perf_b.json" \
  --out "$obs_dir/dash_j1.html" >/dev/null 2>&1 ||
  { echo "perf-history: hyve_dash failed" >&2; exit 1; }
./build/tools/hyve_dash "$obs_dir/perf_j8.json" \
  --out "$obs_dir/dash_j8.html" >/dev/null 2>&1
cmp "$obs_dir/dash_j1.html" "$obs_dir/dash_j8.html" ||
  { echo "perf-history: dashboard differs across --jobs" >&2; exit 1; }
grep -q '<html>' "$obs_dir/dash_j1.html" ||
  { echo "perf-history: dashboard is not HTML" >&2; exit 1; }
echo "perf-history: OK"

# live-smoke: a bench run with --live-status must publish at least two
# snapshots and finish with state "done" — without changing a byte of
# stdout (diffed against the plain run from the functional-cache step).
# hyve_top must render the final snapshot. Then a second, full-size run
# is SIGTERMed mid-sweep: the flight recorder must exit with code 75
# and leave a hyve_report-clean partial report, a truncated trace and
# an "interrupted" final snapshot.
./build/bench/bench_fig13 --smoke --jobs 2 \
  --live-status "$obs_dir/live.json,40" \
  > "$obs_dir/bench_live.out" 2>/dev/null
grep -q '"state":"done"' "$obs_dir/live.json" ||
  { echo "live-smoke: final snapshot state is not done" >&2; exit 1; }
snaps=$(sed -n 's/.*"snapshot":\([0-9]*\).*/\1/p' "$obs_dir/live.json")
[ -n "$snaps" ] && [ "$snaps" -ge 2 ] ||
  { echo "live-smoke: fewer than 2 snapshots published" >&2; exit 1; }
cmp "$obs_dir/bench_live.out" "$obs_dir/bench_plain.out" ||
  { echo "live-smoke: --live-status changed bench stdout" >&2; exit 1; }
./build/tools/hyve_top "$obs_dir/live.json" --once > "$obs_dir/top.txt" ||
  { echo "live-smoke: hyve_top failed on a status file" >&2; exit 1; }
grep -q 'cells' "$obs_dir/top.txt" ||
  { echo "live-smoke: hyve_top rendered no progress line" >&2; exit 1; }
rm -f "$obs_dir/live.json"
./build/bench/bench_fig13 --jobs 2 --live-status "$obs_dir/live.json,30" \
  --json "$obs_dir/bench_flight.json" --trace "$obs_dir/flight_trace.json" \
  >/dev/null 2>&1 &
flight_pid=$!
tries=0
while [ "$tries" -lt 600 ]; do
  if grep -q '"done":[1-9]' "$obs_dir/live.json" 2>/dev/null; then break; fi
  kill -0 "$flight_pid" 2>/dev/null ||
    { echo "live-smoke: bench exited before it could be interrupted" >&2
      exit 1; }
  sleep 0.05
  tries=$((tries + 1))
done
kill -TERM "$flight_pid"
flight_rc=0
wait "$flight_pid" || flight_rc=$?
[ "$flight_rc" -eq 75 ] ||
  { echo "live-smoke: flight-record exit code $flight_rc != 75" >&2; exit 1; }
./build/tools/hyve_report --check "$obs_dir/bench_flight.json" >/dev/null ||
  { echo "live-smoke: partial flight report rejected" >&2; exit 1; }
grep -q '"truncated":true' "$obs_dir/flight_trace.json" ||
  { echo "live-smoke: flight trace missing truncation marker" >&2; exit 1; }
grep -q '"state":"interrupted"' "$obs_dir/live.json" ||
  { echo "live-smoke: final snapshot state is not interrupted" >&2; exit 1; }
echo "live-smoke: OK"

# metrics-doc: the checked-in metrics reference must match what the
# binary actually registers.
./build/tools/hyve_sim --list-metrics | cmp - docs/METRICS.md ||
  { echo "metrics-doc: docs/METRICS.md is stale — regenerate with" \
         "./build/tools/hyve_sim --list-metrics > docs/METRICS.md" >&2
    exit 1; }
echo "metrics-doc: OK"

# kernel-regression: bench_micro runs every program through every edge
# layout and aborts itself if any kernel drifts from the per-edge
# reference, so a clean exit IS the equivalence check; its smoke report
# must satisfy hyve_report and be byte-identical across --jobs, and so
# must a frontier sweep that really skips blocks.
./build/bench/bench_micro --smoke --jobs 1 \
  --json "$obs_dir/micro_j1.json" >/dev/null 2>&1 ||
  { echo "kernel-regression: bench_micro layout equivalence failed" >&2
    exit 1; }
./build/bench/bench_micro --smoke --jobs 8 \
  --json "$obs_dir/micro_j8.json" >/dev/null 2>&1
./build/tools/hyve_report --check "$obs_dir/micro_j1.json" >/dev/null ||
  { echo "kernel-regression: --check rejected the kernel report" >&2
    exit 1; }
strip_host "$obs_dir/micro_j1.json" > "$obs_dir/micro_j1.nohost"
strip_host "$obs_dir/micro_j8.json" > "$obs_dir/micro_j8.nohost"
cmp "$obs_dir/micro_j1.nohost" "$obs_dir/micro_j8.nohost" ||
  { echo "kernel-regression: --jobs 1 and --jobs 8 reports differ" >&2
    exit 1; }
./build/tools/hyve_experiments --datasets YT --algos bfs,pr --frontier \
  --jobs 1 > "$obs_dir/exp_frontier_j1.jsonl"
./build/tools/hyve_experiments --datasets YT --algos bfs,pr --frontier \
  --jobs 8 > "$obs_dir/exp_frontier_j8.jsonl"
cmp "$obs_dir/exp_frontier_j1.jsonl" "$obs_dir/exp_frontier_j8.jsonl" ||
  { echo "kernel-regression: frontier sweep differs across --jobs" >&2
    exit 1; }
echo "kernel-regression: OK"

cmake -B build-tsan -S . -DHYVE_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)"
ctest --test-dir build-tsan -L sweep-engine --output-on-failure

# asan: the unit tests (bench smoke runs excluded) under ASan + UBSan in
# a Debug build; any undefined-behaviour report fails the run.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DHYVE_SANITIZE=address
cmake --build build-asan -j "$(nproc)"
UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-asan -LE bench-smoke --output-on-failure
echo "asan: OK"

echo "verify: OK"
