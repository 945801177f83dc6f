#!/usr/bin/env sh
# Tier-1 verification, split into named stages so CI jobs and local runs
# share one entry point:
#
#   build      full plain build + the complete ctest suite
#   lint       presp-lint --werror must report zero errors and zero
#              warnings on every shipped examples/configs/*.esp_config
#              (the designs double as the lint suite's clean fixtures),
#              so a section no tool reads fails the stage
#   trace      trace smoke: presp-flow runs a shipped example with
#              --trace and the Chrome JSON must summarize through
#              presp-trace with zero dropped events
#   workflows  .github/workflows/*.yml parse (actionlint when available,
#              else a PyYAML structural check) and ci.yml's jobs must
#              map 1:1 onto this script's stage names
#   ops        live ops plane gate: the ops_test suite (HTTP endpoints,
#              SSE fan-out, snapshot-under-mutation), a bench_soak fleet
#              run with the embedded server live (8 SSE clients, one
#              deliberately slow — drops must be counted, the replay must
#              stay bit-identical) and a presp-lint --watch regression (an
#              injected config edit must be re-linted within one poll)
#   golden     the paper/ablation benches, `wami_app 4` and the default
#              bench_soak chaos soak write their stdout, and short
#              bench_soak fleet and defrag runs their --json reports, to
#              $BUILD_DIR/golden/; `diff -u` against tests/golden/ fails
#              the stage on any changed byte, and so does a soak's own
#              failure (an acceptance check, or a replay mismatch on any
#              seed). presp-flow builds soc_{x,y,z} with --out twice, on a
#              cold flow cache with --threads 4 and then serially on the
#              warm cache; the sha256 of every
#              partial bitstream and floorplan JSON it writes must match
#              tests/golden/flow_artifacts.sha256 both times, and the
#              warm pass's --cache-stats must report 0 misses and 0
#              poisoned for each SoC (a warm pass that rejected its
#              entries would rebuild them cold and write the same
#              bytes). Then one byte in the middle of one module entry
#              is flipped and the three SoCs rebuilt: --cache-stats must
#              report exactly 1 poisoned entry and 1 miss in all, and
#              the digests must match again. To regenerate, copy those
#              files over tests/golden/ and name the diff in CHANGES.md
#   asan       AddressSanitizer+UBSan build running the full ctest suite
#   tsan       ThreadSanitizer build running the exec unit tests
#              (the owner-vs-thieves deque fan-out at pool widths 2/4/8,
#              TaskGraph cancel/exception sweeps over pool widths, the
#              TaskGroup destroy-after-wait stress), the serial/
#              parallel determinism test, the trace tests
#              (concurrent emitters), the fleet tests, the ops
#              tests (server + registries under real threads) and the
#              dynamic-floorplan + repacker tests (compaction racing a
#              request-pool of allocator threads)
#
# Usage: tools/run_tier1.sh [--stage <name>]...
#   No --stage: every stage runs (minus SKIP_ASAN/SKIP_TSAN skips).
#   --stage may repeat; stages run in the order given and the script
#   exits non-zero if any selected stage fails.
#
# Every run writes a machine-readable per-stage summary (pass/fail +
# wall-clock seconds) to $TIER1_SUMMARY (default: tier1_summary.json).
#
# Environment:
#   BUILD_DIR       plain build directory    (default: build)
#   ASAN_BUILD_DIR  ASan+UBSan build dir     (default: build-asan)
#   TSAN_BUILD_DIR  TSan build directory     (default: build-tsan)
#   CONFIG_FLAGS    extra cmake configure flags for the plain build
#                   (CI passes -DCMAKE_BUILD_TYPE and the ccache launcher)
#   TIER1_SUMMARY   summary JSON path        (default: tier1_summary.json)
#   SKIP_ASAN=1     drop the asan stage from the default selection
#   SKIP_TSAN=1     drop the tsan stage from the default selection
set -u

BUILD_DIR=${BUILD_DIR:-build}
ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}
CONFIG_FLAGS=${CONFIG_FLAGS:-}
TIER1_SUMMARY=${TIER1_SUMMARY:-tier1_summary.json}

ALL_STAGES="build lint trace workflows ops golden asan tsan"

# ----------------------------------------------------------------- stages
# Each stage body runs in a `set -e` subshell; any failing command fails
# the stage, and the runner records it without aborting later stages.

stage_build() {
  # shellcheck disable=SC2086  # CONFIG_FLAGS is intentionally word-split
  cmake -B "$BUILD_DIR" -S . $CONFIG_FLAGS >/dev/null
  cmake --build "$BUILD_DIR" -j
  (cd "$BUILD_DIR" && ctest --output-on-failure -j)
}

stage_lint() {
  LINT_BIN="$BUILD_DIR/tools/presp-lint"
  [ -x "$LINT_BIN" ] || {
    echo "tier-1: $LINT_BIN missing; run the build stage first" >&2
    return 1
  }
  # Rule rows are "<layer>.<name> ..."; skips the header and footer lines.
  lint_rules=$("$LINT_BIN" --list-rules | grep -c '^[a-z]*\.')
  lint_out=$("$LINT_BIN" --werror examples/configs/*.esp_config) || {
    echo "$lint_out"
    echo "tier-1: presp-lint reported errors or warnings on the shipped" \
      "examples" >&2
    return 1
  }
  lint_summary=$(printf '%s\n' "$lint_out" | tail -n 1)
  echo "tier-1 lint: $lint_rules rule(s) checked, $lint_summary"
}

stage_trace() {
  TRACE_OUT="$BUILD_DIR/tier1_trace.json"
  "$BUILD_DIR/tools/presp-flow" examples/configs/soc_2.esp_config \
      --trace "$TRACE_OUT" >/dev/null
  trace_summary=$("$BUILD_DIR/tools/presp-trace" summarize "$TRACE_OUT")
  printf '%s\n' "$trace_summary" | head -n 4
  printf '%s\n' "$trace_summary" | grep -q 'dropped events: 0' || {
    echo "tier-1: trace smoke dropped events (buffer overflow?)" >&2
    return 1
  }
  "$BUILD_DIR/tools/presp-trace" inspect "$TRACE_OUT" >/dev/null
  echo "tier-1 trace: summarize + inspect clean, zero drops"
}

stage_workflows() {
  WF_DIR=.github/workflows
  [ -d "$WF_DIR" ] || {
    echo "tier-1: no $WF_DIR directory" >&2
    return 1
  }
  for wf in "$WF_DIR"/*.yml; do
    if command -v actionlint >/dev/null 2>&1; then
      actionlint "$wf"
    elif command -v python3 >/dev/null 2>&1 &&
        python3 -c 'import yaml' 2>/dev/null; then
      python3 - "$wf" <<'PYEOF'
import sys
import yaml

path = sys.argv[1]
with open(path) as fh:
    doc = yaml.safe_load(fh)
assert isinstance(doc, dict), f"{path}: not a mapping"
# PyYAML parses the bare `on:` trigger key as boolean True.
assert "on" in doc or True in doc, f"{path}: no trigger (on:) block"
jobs = doc.get("jobs")
assert isinstance(jobs, dict) and jobs, f"{path}: no jobs"
for name, job in jobs.items():
    assert isinstance(job, dict), f"{path}: job {name} is not a mapping"
    assert "runs-on" in job or "uses" in job, \
        f"{path}: job {name} has neither runs-on nor uses"
    if "steps" in job:
        assert isinstance(job["steps"], list) and job["steps"], \
            f"{path}: job {name} has an empty steps list"
PYEOF
    else
      echo "tier-1: neither actionlint nor python3+pyyaml available" >&2
      return 1
    fi
    echo "tier-1 workflows: $wf parses"
  done

  # ci.yml's jobs and this script's stages must map 1:1: every stage
  # name appears as a --stage invocation, and every --stage invocation
  # names a real stage.
  CI_YML="$WF_DIR/ci.yml"
  [ -f "$CI_YML" ] || {
    echo "tier-1: $CI_YML missing" >&2
    return 1
  }
  for s in $ALL_STAGES; do
    grep -q -- "--stage $s" "$CI_YML" || {
      echo "tier-1: $CI_YML never invokes run_tier1.sh --stage $s" >&2
      return 1
    }
  done
  for used in $(grep -o -- '--stage [a-z]*' "$CI_YML" |
      awk '{print $2}' | sort -u); do
    case " $ALL_STAGES " in
      *" $used "*) ;;
      *)
        echo "tier-1: $CI_YML references unknown stage '$used'" >&2
        return 1
        ;;
    esac
  done
  echo "tier-1 workflows: ci.yml stages map 1:1 onto run_tier1.sh stages"
}

stage_ops() {
  cmake --build "$BUILD_DIR" --target ops_test bench_soak presp-lint -j

  # Unit + endpoint suite: options, SSE ring/hub/framing, snapshot
  # consistency under writer threads, the server end to end (404/405,
  # the 503 connection cap, publish round-trips, slow-client drops) and
  # the lint watcher.
  "$BUILD_DIR"/tests/ops_test

  # Fleet soak with the ops overlay live: bench_soak itself fails on
  # any endpoint error mid-run, on a slow SSE client whose drops never
  # got counted, and on a replay (no server) that is not bit-identical
  # to the observed run.
  OPS_JSON="$BUILD_DIR/tier1_ops_fleet.json"
  "$BUILD_DIR"/bench/bench_soak fleet 1 1 120 --ops-port 0 --json "$OPS_JSON"
  grep -q '"ops_enabled": true' "$OPS_JSON" || {
    echo "tier-1: $OPS_JSON does not record the ops overlay" >&2
    return 1
  }

  # Watch-mode lint regression: start presp-lint --watch on a copy of a
  # shipped config, inject a broken [ops] section mid-run, and require
  # the re-lint (with its findings) to land in the watch log before the
  # bounded poll loop exits.
  WATCH_DIR="$BUILD_DIR/tier1_ops_watch"
  rm -rf "$WATCH_DIR"
  mkdir -p "$WATCH_DIR"
  cp examples/configs/soc_2.esp_config "$WATCH_DIR/watched.esp_config"
  "$BUILD_DIR"/tools/presp-lint --watch "$WATCH_DIR/watched.esp_config" \
      --poll-ms 100 --max-polls 30 --watch-log "$WATCH_DIR/watch.log" &
  watch_pid=$!
  sleep 1
  printf '\n[ops]\nenabled = true\nport = 99999\n' \
      >> "$WATCH_DIR/watched.esp_config"
  wait "$watch_pid" || {
    echo "tier-1: presp-lint --watch exited non-zero" >&2
    return 1
  }
  # One record per report; the embedded findings JSON is multi-line.
  watch_reports=$(grep -c '^{"path":' "$WATCH_DIR/watch.log")
  [ "$watch_reports" -ge 2 ] || {
    echo "tier-1: watch log has $watch_reports report(s); the injected" \
        "edit was never re-linted" >&2
    return 1
  }
  grep -q '"errors":[1-9]' "$WATCH_DIR/watch.log" || {
    echo "tier-1: the injected ops.port error never reached the watch" \
        "log" >&2
    return 1
  }

  # Surface the soak's ops counters into tier1_summary.json.
  sse_dropped=$(sed -n 's/.*"ops_sse_dropped": \([0-9]*\).*/\1/p' \
      "$OPS_JSON")
  endpoint_checks=$(sed -n 's/.*"ops_endpoint_checks": \([0-9]*\).*/\1/p' \
      "$OPS_JSON")
  printf '"ops_sse_dropped":%s,"ops_endpoint_checks":%s,"watch_reports":%s' \
      "${sse_dropped:-0}" "${endpoint_checks:-0}" "$watch_reports" \
      > .tier1_stage_extra
  echo "tier-1 ops: soak + endpoints + watch-lint clean" \
      "($endpoint_checks endpoint checks, $sse_dropped slow-client" \
      "drops, $watch_reports watch reports)"
}

GOLDEN_BENCHES="bench_table1_strategies bench_table2_resources \
bench_table3_characterization bench_table4_parallelism \
bench_table5_vs_monolithic bench_table6_bitstreams bench_fig3_profiles \
bench_fig4_wami_socs bench_ablation_runtime bench_ablation_devices \
bench_ablation_model bench_ablation_strategy"

# flow_artifact_digests <cache dir> <out dir> [presp-flow options...]
# Runs presp-flow on soc_{x,y,z} with --out into a fresh <out dir> against
# the flow cache in <cache dir>, passing any further options through, and
# prints the sha256 of every artifact, by name. Each run's --cache-stats
# line, prefixed by its SoC, goes to <out dir>.cache_stats.
flow_artifact_digests() {
  cache_dir=$1
  out_dir=$2
  shift 2
  rm -rf "$out_dir" "$out_dir.cache_stats"
  mkdir -p "$out_dir"
  for soc in soc_x soc_y soc_z; do
    "$BUILD_DIR/tools/presp-flow" "examples/configs/$soc.esp_config" \
        --out "$out_dir" --cache-dir "$cache_dir" --cache-stats "$@" \
        > "$out_dir.log"
    grep '^cache ' "$out_dir.log" | sed "s/^/$soc /" \
        >> "$out_dir.cache_stats"
  done
  rm -f "$out_dir.log"
  (cd "$out_dir" && sha256sum -- *.pbs *.floorplan.json) | LC_ALL=C sort -k 2
}

# poison_module_entry <cache dir>
# Flips (xor 0xFF) the middle byte of the first module entry (blob kind
# 3: the little-endian u32 after the magic) in <cache dir>, by name
# order, and prints its path.
poison_module_entry() {
  for entry in "$1"/*.pfc; do
    kind=$(od -An -tu1 -j4 -N4 "$entry" | tr -s ' ' | sed 's/^ //')
    [ "$kind" = "3 0 0 0" ] || continue
    offset=$(( $(wc -c < "$entry") / 2 ))
    byte=$(od -An -tu1 -j "$offset" -N1 "$entry" | tr -d ' ')
    # shellcheck disable=SC2059  # the format is the octal escape
    printf "$(printf '\\%03o' $(( byte ^ 255 )))" |
        dd of="$entry" bs=1 seek="$offset" conv=notrunc 2>/dev/null
    echo "$entry"
    return 0
  done
  echo "tier-1: no module entry in $1" >&2
  return 1
}

stage_golden() {
  # shellcheck disable=SC2086  # GOLDEN_BENCHES is a word list
  cmake --build "$BUILD_DIR" --target $GOLDEN_BENCHES bench_soak wami_app \
      presp-flow -j
  GOLDEN_OUT="$BUILD_DIR/golden"
  rm -rf "$GOLDEN_OUT"
  mkdir -p "$GOLDEN_OUT"
  for b in $GOLDEN_BENCHES; do
    "$BUILD_DIR/bench/$b" > "$GOLDEN_OUT/$b.txt"
  done
  "$BUILD_DIR/examples/wami_app" 4 > "$GOLDEN_OUT/wami_app_4.txt"
  SOAK="$BUILD_DIR/bench/bench_soak"
  "$SOAK" chaos > "$GOLDEN_OUT/soak_chaos.txt" || {
    cat "$GOLDEN_OUT/soak_chaos.txt"
    return 1
  }
  # Their stdout names the --json path, so only the reports are compared.
  "$SOAK" fleet 1 1 200 --json "$GOLDEN_OUT/soak_fleet.json"
  "$SOAK" defrag 1 1 150 --json "$GOLDEN_OUT/soak_defrag.json"
  # Cold build into an empty cache on a 4-thread pool, then a serial
  # warm rebuild from it: both must write byte-identical partials and
  # floorplans, so pool width cannot change an artifact byte.
  FLOW_DIR="$BUILD_DIR/golden_flow"
  rm -rf "$FLOW_DIR"
  flow_artifact_digests "$FLOW_DIR/cache" "$FLOW_DIR/cold" --threads 4 \
      > "$GOLDEN_OUT/flow_artifacts.sha256"
  flow_artifact_digests "$FLOW_DIR/cache" "$FLOW_DIR/warm" \
      > "$FLOW_DIR/flow_artifacts_warm.sha256"
  diff -u tests/golden/flow_artifacts.sha256 \
      "$FLOW_DIR/flow_artifacts_warm.sha256"
  # Identical bytes alone do not show the warm pass used its cache.
  warm_hits=$(grep -c ', 0 misses, .*, 0 poisoned,' \
      "$FLOW_DIR/warm.cache_stats" || true)
  [ "$warm_hits" -eq 3 ] || {
    cat "$FLOW_DIR/warm.cache_stats"
    echo "tier-1: the warm flow pass missed or rejected cache entries" >&2
    return 1
  }
  # Corruption pass: one byte flipped mid-file in one module entry must
  # be caught by the shipped binary (1 poisoned, 1 miss across the three
  # SoCs), and the rebuilt partial must still match the golden digests.
  victim=$(poison_module_entry "$FLOW_DIR/cache")
  flow_artifact_digests "$FLOW_DIR/cache" "$FLOW_DIR/poisoned" \
      > "$FLOW_DIR/flow_artifacts_poisoned.sha256"
  diff -u tests/golden/flow_artifacts.sha256 \
      "$FLOW_DIR/flow_artifacts_poisoned.sha256"
  poisoned=$(sed -n 's/.*, \([0-9]*\) poisoned,.*/\1/p' \
      "$FLOW_DIR/poisoned.cache_stats" | awk '{ n += $1 } END { print n }')
  missed=$(sed -n 's/.*, \([0-9]*\) misses,.*/\1/p' \
      "$FLOW_DIR/poisoned.cache_stats" | awk '{ n += $1 } END { print n }')
  [ "$poisoned" -eq 1 ] && [ "$missed" -eq 1 ] || {
    cat "$FLOW_DIR/poisoned.cache_stats"
    echo "tier-1: a flipped byte in $victim was not rejected as exactly" \
        "1 poisoned entry and 1 miss" >&2
    return 1
  }
  diff -u -r tests/golden "$GOLDEN_OUT"
  echo "tier-1 golden: $(ls "$GOLDEN_OUT" | wc -l) outputs match" \
      "tests/golden; warm flow pass all hits on $warm_hits SoCs;" \
      "a flipped module-entry byte rejected and rebuilt"
}

stage_asan() {
  cmake -B "$ASAN_BUILD_DIR" -S . \
      -DPRESP_SANITIZE=address,undefined >/dev/null
  cmake --build "$ASAN_BUILD_DIR" -j
  (cd "$ASAN_BUILD_DIR" && ctest --output-on-failure -j)
}

stage_tsan() {
  cmake -B "$TSAN_BUILD_DIR" -S . -DPRESP_SANITIZE=thread >/dev/null
  cmake --build "$TSAN_BUILD_DIR" \
      --target exec_test exec_determinism_test trace_test fleet_test \
      ops_test dynamic_floorplan_test repacker_test -j
  "$TSAN_BUILD_DIR"/tests/exec_test
  "$TSAN_BUILD_DIR"/tests/exec_determinism_test
  "$TSAN_BUILD_DIR"/tests/trace_test
  "$TSAN_BUILD_DIR"/tests/fleet_test
  "$TSAN_BUILD_DIR"/tests/ops_test
  "$TSAN_BUILD_DIR"/tests/dynamic_floorplan_test
  "$TSAN_BUILD_DIR"/tests/repacker_test
}

# ----------------------------------------------------------------- runner

usage() {
  echo "Usage: tools/run_tier1.sh [--stage <name>]..."
  echo "Stages: $ALL_STAGES"
}

SELECTED=""
while [ $# -gt 0 ]; do
  case "$1" in
    --stage)
      [ $# -ge 2 ] || {
        usage >&2
        exit 2
      }
      case " $ALL_STAGES " in
        *" $2 "*) SELECTED="$SELECTED $2" ;;
        *)
          echo "tier-1: unknown stage '$2' (stages: $ALL_STAGES)" >&2
          exit 2
          ;;
      esac
      shift 2
      ;;
    -h | --help)
      usage
      exit 0
      ;;
    *)
      echo "tier-1: unknown argument '$1'" >&2
      usage >&2
      exit 2
      ;;
  esac
done

if [ -z "$SELECTED" ]; then
  for s in $ALL_STAGES; do
    if [ "$s" = asan ] && [ "${SKIP_ASAN:-0}" = "1" ]; then
      echo "tier-1: asan stage skipped (SKIP_ASAN=1)"
      continue
    fi
    if [ "$s" = tsan ] && [ "${SKIP_TSAN:-0}" = "1" ]; then
      echo "tier-1: tsan stage skipped (SKIP_TSAN=1)"
      continue
    fi
    SELECTED="$SELECTED $s"
  done
fi

summary_rows=""
failed_stages=""
overall=0
for stage in $SELECTED; do
  echo "== tier-1 stage: $stage =="
  rm -f .tier1_stage_extra
  stage_start=$(date +%s)
  # Not inside `if`: the shell ignores `set -e` in a condition, which
  # would let every command but a stage's last one fail unnoticed.
  (
    set -e
    "stage_$stage"
  )
  stage_status=$?
  if [ "$stage_status" -eq 0 ]; then
    status=pass
  else
    status=fail
    overall=1
    failed_stages="$failed_stages $stage"
    echo "tier-1: stage '$stage' FAILED" >&2
  fi
  stage_seconds=$(($(date +%s) - stage_start))
  # A stage may leave extra JSON fields (e.g. ops SSE drop counts)
  # in .tier1_stage_extra; merge them into its summary row.
  stage_extra=""
  if [ -s .tier1_stage_extra ]; then
    stage_extra=",$(tr -d '\n' < .tier1_stage_extra)"
    rm -f .tier1_stage_extra
  fi
  summary_rows="$summary_rows{\"name\":\"$stage\",\
\"status\":\"$status\",\"seconds\":$stage_seconds$stage_extra},"
done

[ $overall -eq 0 ] && passed=true || passed=false
printf '{"stages":[%s],"passed":%s}\n' "${summary_rows%,}" "$passed" \
    > "$TIER1_SUMMARY"
echo "tier-1: summary written to $TIER1_SUMMARY"

if [ $overall -ne 0 ]; then
  echo "tier-1: FAILED stages:$failed_stages" >&2
else
  echo "tier-1: all selected stages passed (${SELECTED# })"
fi
exit $overall
