#!/usr/bin/env bash
# Hygiene gates beyond the plain test suite.
#
#   tools/check.sh            # asan + tsan (the sanitizer gate)
#   tools/check.sh asan       # Address+UndefinedBehavior only
#   tools/check.sh tsan       # Thread sanitizer only
#   tools/check.sh tidy       # clang-tidy over src/, tools/, and tests/
#   tools/check.sh tsafety    # Clang -Wthread-safety over the full tree
#                             # (compile-time lock checking against the
#                             # annotations in src/util/sync.h), plus a
#                             # configure-time self-test proving the
#                             # analysis rejects a seeded GUARDED_BY
#                             # violation; skips when clang is absent
#   tools/check.sh lint       # icewafl_cli lint over configs/*.json
#                             # (pipelines, cleaner, serve sessions)
#   tools/check.sh obs        # end-to-end observability smoke: run a
#                             # scenario with --metrics-out/--trace-out
#                             # and validate both exports parse
#   tools/check.sh bench      # hot-path hygiene: grep-gate the per-tuple
#                             # pollute/validate sources against
#                             # Schema::IndexOf, then build Release and
#                             # smoke-run bench_micro_polluters (tiny
#                             # iteration budget) so its built-in
#                             # assertions break the build on regression;
#                             # then the offline CLI legs (wearable
#                             # generate -> pollute -> validate, and an
#                             # air-quality generate and temporal_scale
#                             # run) whose CSVs, log JSON and report must
#                             # match pinned sha256s;
#                             # finally the end-to-end benchmark's smoke
#                             # (e2ebench/run.py --smoke), which checks
#                             # every workload's served rows against the
#                             # offline reference
#   tools/check.sh net        # pollution-as-a-service smoke: serve a
#                             # scenario on an ephemeral loopback port,
#                             # tail it, and require the received CSV to
#                             # be byte-identical to the offline run;
#                             # then a two-named-session server tailed
#                             # with --session, each stream compared to
#                             # its per-session offline run
#   tools/check.sh admin      # live control-plane smoke: serve with
#                             # --admin-port 0, drive the admin channel
#                             # with icewafl_cli admin (list/get/swap/
#                             # set_rate/metrics), byte-compare a
#                             # post-swap tail to the offline run of the
#                             # swapped-in scenario, swap mid-stream
#                             # under an active tail, and require
#                             # lint-rejected swaps to exit 1 with
#                             # Diagnostics on stderr; a paced P=2 tail
#                             # must be byte-identical to the unpaced
#                             # run
#
# The sanitizer presets compile with -Werror, so this script is also the
# warning gate. (-Wmaybe-uninitialized is excluded there: GCC 12 emits
# false positives inside libstdc++'s <regex> and variant<string>
# machinery when sanitizers are enabled — see GCC PR105562.) The tsan pass is what keeps the pipelined runtime
# (stream/channel.h, stream/runtime.cc) and the serving path data-race
# free. The tidy and tsafety modes degrade to a skip (exit 0
# with a notice) when the clang tooling is not installed, so they can
# sit in the same CI matrix as the sanitizers without making clang a
# hard dependency. The tsafety preset promotes only the thread-safety
# diagnostic groups to errors (-Werror=thread-safety) rather than a
# blanket -Werror: the gate is about lock discipline, not about chasing
# clang/gcc differences in -Wall warnings.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

run_preset() {
  local preset="$1"
  echo "=== ${preset}: configure ==="
  cmake --preset "${preset}"
  echo "=== ${preset}: build ==="
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "=== ${preset}: test ==="
  ctest --preset "${preset}" -j "${jobs}"
  echo "=== ${preset}: OK ==="
}

run_tidy() {
  local tidy=""
  for candidate in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      tidy="${candidate}"
      break
    fi
  done
  if [ -z "${tidy}" ]; then
    echo "=== tidy: SKIPPED (clang-tidy not installed) ==="
    return 0
  fi
  echo "=== tidy: configure (compile_commands.json) ==="
  cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  echo "=== tidy: ${tidy} over src/, tools/, and tests/ ==="
  # Checks come from the top-level .clang-tidy; -quiet keeps the output
  # to actual findings.
  local files
  files=$(find src tools tests -name '*.cc' -o -name '*.h' | sort)
  local status=0
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -clang-tidy-binary "${tidy}" -p build -quiet ${files} ||
      status=$?
  else
    # shellcheck disable=SC2086  # intentional word splitting of the list
    "${tidy}" -p build --quiet ${files} || status=$?
  fi
  if [ "${status}" -ne 0 ]; then
    echo "=== tidy: FAILED ==="
    return "${status}"
  fi
  echo "=== tidy: OK ==="
}

run_tsafety() {
  local cxx=""
  for candidate in clang++ clang++-19 clang++-18 clang++-17 clang++-16; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      cxx="${candidate}"
      break
    fi
  done
  if [ -z "${cxx}" ]; then
    echo "=== tsafety: SKIPPED (clang not installed) ==="
    return 0
  fi
  echo "=== tsafety: configure (${cxx}; negative self-test runs here) ==="
  # The configure step itself is a gate: ICEWAFL_TSAFETY_NEGATIVE_CHECK
  # try_compiles a correctly locked control (must pass) and a seeded
  # GUARDED_BY violation (must fail) before anything else builds.
  cmake --preset tsafety -DCMAKE_CXX_COMPILER="${cxx}"
  echo "=== tsafety: build full tree (-Werror=thread-safety) ==="
  cmake --build --preset tsafety -j "${jobs}"
  echo "=== tsafety: OK ==="
}

run_lint() {
  echo "=== lint: build icewafl_cli ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${jobs}" --target icewafl_cli
  local cli=build/tools/icewafl_cli
  echo "=== lint: configs/*.json ==="
  # Every shipped document must lint without a finding: a new warning
  # fails this mode as an error does.
  local status=0
  lint_clean() {
    local report
    report="$("${cli}" lint "$@")" || true
    echo "${report}"
    if [ "$(echo "${report}" | tail -n 1)" != "0 errors, 0 warnings" ]; then
      echo "lint: want '0 errors, 0 warnings' for: $*"
      status=1
    fi
  }
  for config in configs/random_temporal.json configs/software_update.json \
                configs/network_delay.json; do
    echo "--- ${config}"
    lint_clean "${config}" --schema configs/wearable_schema.json
    echo "--- ${config} + wearable_suite.json"
    lint_clean "${config}" --schema configs/wearable_schema.json \
      --suite configs/wearable_suite.json
  done
  echo "--- configs/software_update_clean.json (IW70x cleaner surface)"
  lint_clean configs/software_update_clean.json \
    --schema configs/wearable_schema.json
  echo "--- configs/serve_sessions.json (IW6xx serve surface)"
  lint_clean configs/serve_sessions.json
  if [ "${status}" -ne 0 ]; then
    echo "=== lint: FAILED ==="
    return "${status}"
  fi
  echo "=== lint: OK ==="
}

run_obs() {
  echo "=== obs: build icewafl_cli ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${jobs}" --target icewafl_cli
  local cli=build/tools/icewafl_cli
  local outdir
  outdir=$(mktemp -d)
  trap 'rm -rf "${outdir}"' RETURN
  echo "=== obs: run software_update with exports ==="
  "${cli}" run --scenario software_update --parallelism 2 \
    --metrics-out "${outdir}/metrics.prom" --trace-out "${outdir}/trace.json"
  echo "=== obs: validate Prometheus exposition ==="
  # Every non-comment line must be `name{labels} value` or `name value`,
  # and the series instrumented by the runtime must be present.
  if grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$)' \
      "${outdir}/metrics.prom" | grep -q .; then
    echo "obs: malformed exposition line(s):"
    grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$)' \
      "${outdir}/metrics.prom"
    return 1
  fi
  for metric in icewafl_stage_tuples_in_total icewafl_polluter_applied_total \
                icewafl_dq_expectations_total icewafl_runtime_wall_seconds; do
    if ! grep -q "^${metric}" "${outdir}/metrics.prom"; then
      echo "obs: missing metric family ${metric}"
      return 1
    fi
  done
  echo "=== obs: validate Chrome trace JSON ==="
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${outdir}/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "no trace events"
for e in events:
    assert e["ph"] in ("X", "i"), e
    assert "ts" in e and "tid" in e and "name" in e, e
print(f"obs: {len(events)} trace events OK")
EOF
  else
    grep -q '"traceEvents"' "${outdir}/trace.json"
  fi
  echo "=== obs: determinism (instrumented == uninstrumented) ==="
  "${cli}" run --scenario software_update --output "${outdir}/plain.csv" \
    >/dev/null
  "${cli}" run --scenario software_update --output "${outdir}/obs.csv" \
    --metrics-out "${outdir}/m2.prom" --trace-out "${outdir}/t2.json" \
    >/dev/null
  cmp "${outdir}/plain.csv" "${outdir}/obs.csv"
  echo "=== obs: OK ==="
}

run_bench() {
  echo "=== bench: hot-path grep gate (no Schema::IndexOf) ==="
  # Two-phase bind/run lifecycle (DESIGN.md section 8): attribute names
  # resolve to column indices once at Bind time, so the per-tuple
  # pollute/validate sources must never call Schema::IndexOf.
  # stream/bind.h hosts the one sanctioned call site.
  local hot_files=(
    src/core/condition.h src/core/condition.cc
    src/core/error_function.h src/core/error_function.cc
    src/core/errors_numeric.h src/core/errors_numeric.cc
    src/core/errors_value.h src/core/errors_value.cc
    src/core/errors_temporal.h src/core/errors_temporal.cc
    src/core/derived_error.h src/core/derived_error.cc
    src/core/polluter.h src/core/polluter.cc
    src/core/composite_polluter.h src/core/composite_polluter.cc
    src/core/pipeline.h src/core/pipeline.cc
    src/dq/expectation.h src/dq/expectation.cc
    src/dq/suite.h src/dq/suite.cc
    src/forecast/encodings.h
  )
  if grep -n "IndexOf" "${hot_files[@]}"; then
    echo "bench: Schema::IndexOf crept back onto a pollute/validate hot" \
         "path — resolve names in Bind() instead (DESIGN.md section 8)"
    return 1
  fi
  echo "=== bench: Release build ==="
  cmake -S . -B build-rel -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-rel -j "${jobs}" --target bench_micro_polluters \
    --target bench_net_wire --target bench_clean
  echo "=== bench: smoke run ==="
  # The tiny time budget keeps this a compile-and-assert smoke, not a
  # measurement; the built-in batch-frame encode floor still runs at
  # full strength, and bench_net_wire emits BENCH_wire.json.
  ./build-rel/bench/bench_micro_polluters --benchmark_min_time=0.01
  ./build-rel/bench/bench_net_wire --benchmark_min_time=0.01 \
    --out BENCH_wire.json
  if command -v python3 >/dev/null 2>&1; then
    python3 - BENCH_wire.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    wire = json.load(f)
for key in ("tuple_encode_seconds", "batch_encode_seconds",
            "tuple_decode_seconds", "batch_decode_seconds",
            "tuple_wire_bytes", "batch_wire_bytes"):
    assert wire[key] > 0, key
assert wire["encode_speedup"] >= 1.0, wire["encode_speedup"]
print(f"bench: BENCH_wire.json OK "
      f"(batch encode {wire['encode_speedup']:.2f}x)")
EOF
  else
    grep -q '"encode_speedup"' BENCH_wire.json
  fi
  echo "=== bench: bench_clean → BENCH_clean.json ==="
  # Tiny stream again: the binary's built-in assertion (every rule
  # family fires and measures) runs at full strength regardless of
  # stream size.
  ./build-rel/bench/bench_clean --tuples 50000 --out BENCH_clean.json \
    >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 - BENCH_clean.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "clean", report
assert report["tuples"] == 50000, report["tuples"]
families = report["families"]
expected = {"range", "not_null", "regex", "type", "cross_field",
            "rate_of_change", "stuck_at"}
assert set(families) == expected, set(families)
for name, entry in families.items():
    assert entry["seconds"] > 0 and entry["fired"] > 0, name
assert report["stateful_overhead"] > 0, report["stateful_overhead"]
print(f"bench: BENCH_clean.json OK "
      f"(stateful overhead {report['stateful_overhead']:.2f}x)")
EOF
  else
    grep -q '"stateful_overhead"' BENCH_clean.json
  fi
  echo "=== bench: offline CLI bytes (generate -> pollute -> validate) ==="
  # The paper's offline path through the CLI. The polluted CSV and the
  # JSON pollution log (util/json's number formatting) must keep the
  # exact bytes recorded with the 17-precision %g probe formatter that
  # shortest-digit formatting replaced; validate re-parses every
  # formatted double and must print the same report (two expectations
  # of the suite fail on this stream, hence exit 1).
  cmake --build build-rel -j "${jobs}" --target icewafl_cli
  local cli=build-rel/tools/icewafl_cli
  local offdir
  offdir=$(mktemp -d)
  trap 'rm -rf "${offdir}"' RETURN
  "${cli}" generate --dataset wearable --seed 3 --hours 48 \
    --output "${offdir}/clean.csv" >/dev/null
  "${cli}" pollute --schema configs/wearable_schema.json \
    --config configs/software_update.json --input "${offdir}/clean.csv" \
    --output "${offdir}/polluted.csv" --seed 5 --log "${offdir}/log.json" \
    >/dev/null
  local validate_rc=0
  "${cli}" validate --suite configs/wearable_suite.json \
    --schema configs/wearable_schema.json --input "${offdir}/polluted.csv" \
    >"${offdir}/validate.txt" || validate_rc=$?
  if [ "${validate_rc}" -ne 1 ]; then
    echo "bench: validate exited ${validate_rc}, expected 1"
    return 1
  fi
  (cd "${offdir}" && sha256sum polluted.csv log.json validate.txt) \
    >"${offdir}/got.sha256"
  cat >"${offdir}/want.sha256" <<'EOF'
f12a0639928ff14cb2965c76ecd54364ecdf1a279241afca5a2af71d05df69f0  polluted.csv
422bd2c90a0742b6410fd64df49943873ad70644ce9472da62d495c55bd46a59  log.json
7c72f614115a88a01ce43fb6da8b0f8d3f5a23ac601d1cf4bedbe8f4906fab7f  validate.txt
EOF
  cmp "${offdir}/want.sha256" "${offdir}/got.sha256"
  # The cleaner's bytes: the stock software-update cleaner over that
  # polluted stream (file mode, with its repair log), and the closed
  # loop's cleaned stream and report (scenario mode). Each runs twice
  # and must write the same bytes both times.
  local run
  for run in 1 2; do
    "${cli}" clean --rules configs/software_update_clean.json \
      --schema configs/wearable_schema.json --input "${offdir}/polluted.csv" \
      --output "${offdir}/cleaned${run}.csv" \
      --log "${offdir}/repairs${run}.json" >/dev/null
    "${cli}" clean --scenario software_update \
      --output "${offdir}/loop${run}.csv" \
      --report "${offdir}/loop${run}.json" >/dev/null
  done
  cmp "${offdir}/cleaned1.csv" "${offdir}/cleaned2.csv"
  cmp "${offdir}/repairs1.json" "${offdir}/repairs2.json"
  cmp "${offdir}/loop1.csv" "${offdir}/loop2.csv"
  cmp "${offdir}/loop1.json" "${offdir}/loop2.json"
  (cd "${offdir}" && sha256sum cleaned1.csv repairs1.json loop1.csv \
    loop1.json) >"${offdir}/clean_got.sha256"
  cat >"${offdir}/clean_want.sha256" <<'EOF'
e28de00d566348559a348de72f08417ea00d5f69d1d38ac79bbb9d23b9fe2ae2  cleaned1.csv
b1989ba559ef91c443f4252c235f8439b40f31b59b49243b79f14fb8d8b31d87  repairs1.json
adf50ba8f5335f6362ff5ff77097c0e54fc897a391bd7a2673bc669d94935be2  loop1.csv
8275064ee257077acc20b68e42a9740e39182298bdd4de8a46302fec91c1bffc  loop1.json
EOF
  cmp "${offdir}/clean_want.sha256" "${offdir}/clean_got.sha256"
  # The same for the air-quality stream (18 attributes, mostly
  # non-integral doubles): the generated CSV and a temporal-scale run.
  "${cli}" generate --dataset airquality --seed 3 --hours 720 \
    --output "${offdir}/aq_clean.csv" >/dev/null
  "${cli}" run --scenario temporal_scale --seed 3 \
    --output "${offdir}/aq_run.csv" >/dev/null
  (cd "${offdir}" && sha256sum aq_clean.csv aq_run.csv) \
    >"${offdir}/aq_got.sha256"
  cat >"${offdir}/aq_want.sha256" <<'EOF'
4b63332711634e559ba35bb7fa26d6a1c806f1833aa5423714f388b759cc425b  aq_clean.csv
fa5514b29ef2bd21b9917d31f8392cea4666a72133b6282f7d32974244a39b8d  aq_run.csv
EOF
  cmp "${offdir}/aq_want.sha256" "${offdir}/aq_got.sha256"
  echo "=== bench: e2ebench smoke (served digests == offline reference) ==="
  # Every workload at smoke size with all correctness checks on: a served
  # row that differs from the offline reference fails the run.
  python3 e2ebench/run.py --smoke
  echo "=== bench: OK ==="
}

run_net() {
  echo "=== net: build icewafl_cli ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${jobs}" --target icewafl_cli
  local cli=build/tools/icewafl_cli
  local outdir
  outdir=$(mktemp -d)
  trap 'rm -rf "${outdir}"' RETURN
  echo "=== net: offline reference run ==="
  "${cli}" run --scenario random_temporal --output "${outdir}/offline.csv" \
    >/dev/null
  echo "=== net: serve on an ephemeral loopback port ==="
  "${cli}" serve --scenario random_temporal --port 0 --max-sessions 2 \
    --metrics-out "${outdir}/serve.prom" >"${outdir}/serve.log" 2>&1 &
  local server_pid=$!
  # The server prints "serving scenario ... on 127.0.0.1:PORT (...)"
  # once it is listening; wait for that line and extract the port.
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^serving scenario .* on [^ ]*:\([0-9]*\) .*/\1/p' \
      "${outdir}/serve.log")
    [ -n "${port}" ] && break
    if ! kill -0 "${server_pid}" 2>/dev/null; then
      echo "net: server exited before listening:"
      cat "${outdir}/serve.log"
      return 1
    fi
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "net: server never reported its port:"
    cat "${outdir}/serve.log"
    kill "${server_pid}" 2>/dev/null || true
    return 1
  fi
  echo "=== net: session 1 — full tail must equal the offline run ==="
  "${cli}" tail --connect "127.0.0.1:${port}" --csv-out "${outdir}/tail.csv"
  cmp "${outdir}/offline.csv" "${outdir}/tail.csv"
  echo "net: full-stream digest match ($(wc -c <"${outdir}/tail.csv")B)"
  echo "=== net: session 2 — tail --limit 1000 is an exact prefix ==="
  "${cli}" tail --connect "127.0.0.1:${port}" --limit 1000 \
    --csv-out "${outdir}/tail1000.csv"
  head -n 1001 "${outdir}/offline.csv" >"${outdir}/offline1000.csv"
  cmp "${outdir}/offline1000.csv" "${outdir}/tail1000.csv"
  echo "=== net: server drains after --max-sessions 2 ==="
  if ! wait "${server_pid}"; then
    echo "net: server exited non-zero:"
    cat "${outdir}/serve.log"
    return 1
  fi
  echo "=== net: serve metrics present in Prometheus export ==="
  for metric in icewafl_server_sessions_total \
                icewafl_server_tuples_sent_total \
                icewafl_server_clients_accepted_total; do
    if ! grep -q "^${metric}" "${outdir}/serve.prom"; then
      echo "net: missing metric family ${metric}"
      return 1
    fi
  done

  echo "=== net: air-quality strings over Tuple frames ==="
  # The air-quality stream carries string columns (station, WD), so this
  # compares served string values byte for byte with the offline run.
  "${cli}" run --scenario temporal_noise --output "${outdir}/aq_offline.csv" \
    >/dev/null
  "${cli}" serve --scenario temporal_noise --port 0 --max-sessions 1 \
    >"${outdir}/serve_aq.log" 2>&1 &
  server_pid=$!
  port=$(scrape_port "${outdir}/serve_aq.log" "serving scenario" \
    "${server_pid}")
  if [ -z "${port}" ]; then
    echo "net: air-quality server never reported its port:"
    cat "${outdir}/serve_aq.log"
    kill "${server_pid}" 2>/dev/null || true
    return 1
  fi
  "${cli}" tail --connect "127.0.0.1:${port}" --csv-out "${outdir}/aq_tail.csv"
  if ! wait "${server_pid}"; then
    echo "net: air-quality server exited non-zero:"
    cat "${outdir}/serve_aq.log"
    return 1
  fi
  cmp "${outdir}/aq_offline.csv" "${outdir}/aq_tail.csv"
  echo "net: air-quality digest match ($(wc -c <"${outdir}/aq_tail.csv")B)"

  echo "=== net: two named sessions on one server ==="
  cat >"${outdir}/two_sessions.json" <<'EOF'
{
  "sessions": [
    {"name": "alpha", "scenario": "random_temporal", "seed": 42,
     "max_runs": 1},
    {"name": "beta", "scenario": "network_delay", "seed": 7, "max_runs": 1}
  ],
  "port": 0,
  "workers": 2
}
EOF
  "${cli}" lint "${outdir}/two_sessions.json"
  "${cli}" run --scenario random_temporal --seed 42 \
    --output "${outdir}/alpha_offline.csv" >/dev/null
  "${cli}" run --scenario network_delay --seed 7 \
    --output "${outdir}/beta_offline.csv" >/dev/null
  "${cli}" serve --config "${outdir}/two_sessions.json" \
    >"${outdir}/serve2.log" 2>&1 &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^serving scenario .* on [^ ]*:\([0-9]*\) .*/\1/p' \
      "${outdir}/serve2.log")
    [ -n "${port}" ] && break
    if ! kill -0 "${server_pid}" 2>/dev/null; then
      echo "net: two-session server exited before listening:"
      cat "${outdir}/serve2.log"
      return 1
    fi
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "net: two-session server never reported its port:"
    cat "${outdir}/serve2.log"
    kill "${server_pid}" 2>/dev/null || true
    return 1
  fi
  "${cli}" tail --connect "127.0.0.1:${port}" --session alpha \
    --csv-out "${outdir}/alpha_tail.csv" &
  local alpha_pid=$!
  "${cli}" tail --connect "127.0.0.1:${port}" --session beta \
    --csv-out "${outdir}/beta_tail.csv"
  wait "${alpha_pid}"
  if ! wait "${server_pid}"; then
    echo "net: two-session server exited non-zero:"
    cat "${outdir}/serve2.log"
    return 1
  fi
  cmp "${outdir}/alpha_offline.csv" "${outdir}/alpha_tail.csv"
  cmp "${outdir}/beta_offline.csv" "${outdir}/beta_tail.csv"
  echo "net: per-session digest match (alpha, beta)"

  echo "=== net: four subscribers behind a queue narrower than a batch ==="
  # The runtime hands the fan-out 256-row batches; an 8-frame queue makes
  # each batch enter as pieces, and the run starts only once all four
  # tails are subscribed, so they share one fan-out.
  cat >"${outdir}/four_subscribers.json" <<'EOF'
{
  "sessions": [
    {"name": "alpha", "scenario": "random_temporal", "seed": 42,
     "min_subscribers": 4, "max_runs": 1}
  ],
  "port": 0,
  "queue_capacity": 8
}
EOF
  "${cli}" lint "${outdir}/four_subscribers.json"
  "${cli}" serve --config "${outdir}/four_subscribers.json" \
    >"${outdir}/serve4.log" 2>&1 &
  server_pid=$!
  port=$(scrape_port "${outdir}/serve4.log" "serving scenario" \
    "${server_pid}")
  if [ -z "${port}" ]; then
    echo "net: four-subscriber server never reported its port:"
    cat "${outdir}/serve4.log"
    kill "${server_pid}" 2>/dev/null || true
    return 1
  fi
  local tail_pids=()
  for i in 1 2 3 4; do
    "${cli}" tail --connect "127.0.0.1:${port}" --session alpha \
      --csv-out "${outdir}/four_${i}.csv" &
    tail_pids+=($!)
  done
  for pid in "${tail_pids[@]}"; do
    if ! wait "${pid}"; then
      echo "net: a four-subscriber tail failed"
      kill "${server_pid}" 2>/dev/null || true
      return 1
    fi
  done
  if ! wait "${server_pid}"; then
    echo "net: four-subscriber server exited non-zero:"
    cat "${outdir}/serve4.log"
    return 1
  fi
  for i in 1 2 3 4; do
    cmp "${outdir}/alpha_offline.csv" "${outdir}/four_${i}.csv"
  done
  echo "net: four-subscriber digest match"

  echo "=== net: OK ==="
}

# Scrapes "<banner> ... on HOST:PORT" from a serve log, polling until
# the server prints it (or dies). Echoes the port, empty on timeout.
scrape_port() {
  local log="$1" banner="$2" pid="$3" port=""
  for _ in $(seq 1 100); do
    port=$(sed -n "s/^${banner} .*:\([0-9]*\).*/\1/p" "${log}" | head -n 1)
    [ -n "${port}" ] && break
    kill -0 "${pid}" 2>/dev/null || break
    sleep 0.1
  done
  echo "${port}"
}

run_admin() {
  echo "=== admin: build icewafl_cli ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${jobs}" --target icewafl_cli
  local cli=build/tools/icewafl_cli
  local outdir
  outdir=$(mktemp -d)
  trap 'rm -rf "${outdir}"' RETURN

  echo "=== admin: serve random_temporal with the admin channel ==="
  "${cli}" serve --scenario random_temporal --seed 7 --port 0 \
    --admin-port 0 --max-sessions 1 >"${outdir}/serve.log" 2>&1 &
  local server_pid=$!
  local port admin_port
  port=$(scrape_port "${outdir}/serve.log" "serving scenario" \
    "${server_pid}")
  admin_port=$(scrape_port "${outdir}/serve.log" "admin channel on" \
    "${server_pid}")
  if [ -z "${port}" ] || [ -z "${admin_port}" ]; then
    echo "admin: server never printed both banners:"
    cat "${outdir}/serve.log"
    kill "${server_pid}" 2>/dev/null || true
    return 1
  fi
  local connect="--connect 127.0.0.1:${admin_port}"

  echo "=== admin: list_sessions / get_config ==="
  # shellcheck disable=SC2086
  "${cli}" admin list_sessions ${connect} | grep -q random_temporal
  # shellcheck disable=SC2086
  "${cli}" admin get_config ${connect} --session random_temporal |
    grep -q '"plan_version": 1'

  echo "=== admin: lint-rejected swap exits 1 with Diagnostics ==="
  cat >"${outdir}/bad_pipeline.json" <<'EOF'
{
  "name": "broken",
  "polluters": [
    {"type": "standard", "label": "bad", "attributes": ["Nope"],
     "condition": {"type": "always"}, "error": {"type": "missing_value"}}
  ]
}
EOF
  local swap_status=0
  # shellcheck disable=SC2086
  "${cli}" admin swap_pipeline ${connect} --session random_temporal \
    --pipeline "${outdir}/bad_pipeline.json" \
    >"${outdir}/swap.out" 2>"${outdir}/swap.err" || swap_status=$?
  if [ "${swap_status}" -ne 1 ]; then
    echo "admin: lint-rejected swap exited ${swap_status}, want 1"
    return 1
  fi
  grep -q IW101 "${outdir}/swap.err"

  echo "=== admin: swap to software_update, then byte-compare a tail ==="
  # shellcheck disable=SC2086
  "${cli}" admin swap_pipeline ${connect} --session random_temporal \
    --scenario software_update | grep -q '"plan_version": 2'
  # The waiting session adopts the newest plan at its next run, with the
  # session's own seed (7): the tail must equal the offline run.
  "${cli}" run --scenario software_update --seed 7 \
    --output "${outdir}/offline.csv" >/dev/null
  "${cli}" tail --connect "127.0.0.1:${port}" \
    --csv-out "${outdir}/tail.csv"
  cmp "${outdir}/offline.csv" "${outdir}/tail.csv"
  echo "admin: post-swap digest match ($(wc -c <"${outdir}/tail.csv")B)"
  if ! wait "${server_pid}"; then
    echo "admin: server exited non-zero:"
    cat "${outdir}/serve.log"
    return 1
  fi

  echo "=== admin: mid-stream swap under an active tail ==="
  "${cli}" serve --scenario random_temporal --port 0 --admin-port 0 \
    --max-sessions 1 --metrics-out "${outdir}/serve2.prom" \
    >"${outdir}/serve2.log" 2>&1 &
  server_pid=$!
  port=$(scrape_port "${outdir}/serve2.log" "serving scenario" \
    "${server_pid}")
  admin_port=$(scrape_port "${outdir}/serve2.log" "admin channel on" \
    "${server_pid}")
  connect="--connect 127.0.0.1:${admin_port}"
  # Pace the stream so the swap lands mid-run, then tail through it.
  # shellcheck disable=SC2086
  "${cli}" admin set_rate ${connect} --session random_temporal \
    --rate 2000 >/dev/null
  "${cli}" tail --connect "127.0.0.1:${port}" \
    --csv-out "${outdir}/tail2.csv" &
  local tail_pid=$!
  sleep 0.3
  # shellcheck disable=SC2086
  "${cli}" admin swap_pipeline ${connect} --session random_temporal \
    --scenario software_update >/dev/null
  # The subscriber must ride through the swap on one connection.
  if ! wait "${tail_pid}"; then
    echo "admin: tail disconnected across the swap"
    return 1
  fi
  [ "$(wc -l <"${outdir}/tail2.csv")" -gt 1 ]
  if ! wait "${server_pid}"; then
    echo "admin: mid-stream server exited non-zero:"
    cat "${outdir}/serve2.log"
    return 1
  fi
  echo "=== admin: swap metrics in the Prometheus export ==="
  grep -q 'icewafl_server_plan_swaps_total{session="random_temporal"} 2' \
    "${outdir}/serve2.prom"
  grep -q 'icewafl_server_plan_version{session="random_temporal"} 3' \
    "${outdir}/serve2.prom"

  echo "=== admin: paced P=2 tail carries the offline bytes ==="
  "${cli}" serve --scenario random_temporal --seed 7 --parallelism 2 \
    --port 0 --admin-port 0 --max-sessions 1 >"${outdir}/serve3.log" 2>&1 &
  server_pid=$!
  port=$(scrape_port "${outdir}/serve3.log" "serving scenario" \
    "${server_pid}")
  admin_port=$(scrape_port "${outdir}/serve3.log" "admin channel on" \
    "${server_pid}")
  connect="--connect 127.0.0.1:${admin_port}"
  # shellcheck disable=SC2086
  "${cli}" admin set_rate ${connect} --session random_temporal \
    --rate 5000 >/dev/null
  "${cli}" tail --connect "127.0.0.1:${port}" \
    --csv-out "${outdir}/tail3.csv"
  "${cli}" run --scenario random_temporal --seed 7 --parallelism 2 \
    --output "${outdir}/offline3.csv" >/dev/null
  if ! wait "${server_pid}"; then
    echo "admin: paced P=2 server exited non-zero:"
    cat "${outdir}/serve3.log"
    return 1
  fi
  cmp "${outdir}/offline3.csv" "${outdir}/tail3.csv"
  echo "admin: paced P=2 byte match ($(wc -l <"${outdir}/tail3.csv") lines)"
  echo "=== admin: OK ==="
}

modes=("$@")
if [ "${#modes[@]}" -eq 0 ]; then
  modes=(asan tsan)
fi

for mode in "${modes[@]}"; do
  case "${mode}" in
    asan | tsan) run_preset "${mode}" ;;
    tidy) run_tidy ;;
    tsafety) run_tsafety ;;
    lint) run_lint ;;
    obs) run_obs ;;
    bench) run_bench ;;
    net) run_net ;;
    admin) run_admin ;;
    *)
      echo "unknown mode '${mode}' (expected asan, tsan, tidy, tsafety, lint, obs, bench, net, or admin)" >&2
      exit 2
      ;;
  esac
done
