#!/usr/bin/env bash
# Verification build matrix — the single entry point for the whole
# verification story: the tier-1 test suite under AddressSanitizer and
# ThreadSanitizer (with the collective-correctness checker enabled), the
# kernel suite swept over every ORBIT_KERNELS dispatch level under UBSan,
# orbit_lint project-invariant analysis, clang-tidy, and shellcheck over
# the tooling scripts. Every leg configures with ORBIT_WERROR=ON so new
# compiler warnings fail the matrix. Prints a pass/fail matrix and exits
# non-zero if any leg fails. Legs whose tooling is unavailable are
# reported SKIP.
#
# Usage: tools/check_build.sh [--quick] [--list-legs] [--json <path>]
#   --quick        run only the comm-labelled checker tests in the sanitizer
#                  legs (fast smoke of the verification layer itself)
#   --list-legs    print the leg names and exit (for CI orchestration)
#   --json <path>  also write a machine-readable leg-by-leg summary
#                  (mirrors the bench_* --json convention)
set -u

cd "$(dirname "$0")/.." || exit 1
JOBS="$(nproc 2>/dev/null || echo 4)"
# --no-tests=error: a leg whose filter matches nothing (e.g. a half-built
# tree after an earlier leg failure) must FAIL, not silently pass.
CTEST_ARGS=(--output-on-failure --no-tests=error "-j${JOBS}")
LEGS=(asan tsan trace checkpoint elastic kernels resilience telemetry analyze tidy shellcheck)

JSON_PATH=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --quick)
      CTEST_ARGS+=(-L comm)
      ;;
    --list-legs)
      printf '%s\n' "${LEGS[@]}"
      exit 0
      ;;
    --json)
      if [ "$#" -lt 2 ]; then
        echo "check_build: --json needs a path" >&2
        exit 2
      fi
      JSON_PATH="$2"
      shift
      ;;
    *)
      echo "check_build: unknown argument $1" >&2
      echo "usage: tools/check_build.sh [--quick] [--list-legs] [--json <path>]" >&2
      exit 2
      ;;
  esac
  shift
done

declare -A RESULT

run_leg() {
  # run_leg <name> <build-dir> <sanitize-mode>
  local name="$1" dir="$2" mode="$3"
  echo "==== [${name}] configure + build (ORBIT_SANITIZE=${mode}, ORBIT_WERROR=ON) ===="
  if ! cmake -B "${dir}" -S . -DORBIT_SANITIZE="${mode}" -DORBIT_WERROR=ON \
        -DORBIT_BUILD_BENCH=OFF -DORBIT_BUILD_EXAMPLES=OFF; then
    RESULT[${name}]="FAIL (configure)"
    return 1
  fi
  if ! cmake --build "${dir}" "-j${JOBS}"; then
    RESULT[${name}]="FAIL (build)"
    return 1
  fi
  echo "==== [${name}] ctest ===="
  if (cd "${dir}" && ctest "${CTEST_ARGS[@]}"); then
    RESULT[${name}]="PASS"
  else
    RESULT[${name}]="FAIL (tests)"
    return 1
  fi
}

overall=0

run_leg asan build-asan address || overall=1
run_leg tsan build-tsan thread || overall=1

echo "==== [trace] traced 2x2x2 smoke run ===="
# End-to-end observability check: a traced Hybrid-STOP run on a 2x2x2
# simulated mesh must produce a structurally valid Chrome trace
# (`trace_report --validate` checks per-track timestamp monotonicity and
# span nesting). Reuses the ASan build, so the hot recording path runs
# instrumented too.
if [ -x build-asan/trace_report ]; then
  trace_tmp="$(mktemp /tmp/orbit_trace_smoke.XXXXXX.json)"
  if ORBIT_TRACE=1 build-asan/trace_report --capture "${trace_tmp}" \
        --tp 2 --fsdp 2 --ddp 2 --steps 2 >/dev/null \
      && build-asan/trace_report --validate "${trace_tmp}"; then
    RESULT[trace]="PASS"
  else
    RESULT[trace]="FAIL"
    overall=1
  fi
  rm -f "${trace_tmp}"
else
  RESULT[trace]="SKIP (trace_report not built)"
fi

echo "==== [checkpoint] kill-and-resume + corruption matrix (ASan) ===="
# Crash-safety check: the checkpoint-labelled tests cover the corruption
# matrix for both IO layers and the fault-injected kill-and-resume runs on
# a 2x2x2 mesh (resumed training must be bitwise identical to an
# uninterrupted run). Reuses the ASan build so the whole save/kill/resume
# path runs instrumented.
if [ -d build-asan ]; then
  if (cd build-asan && ctest --output-on-failure --no-tests=error "-j${JOBS}" -L checkpoint); then
    RESULT[checkpoint]="PASS"
  else
    RESULT[checkpoint]="FAIL"
    overall=1
  fi
else
  RESULT[checkpoint]="SKIP (ASan build unavailable)"
fi

echo "==== [elastic] mesh-resharding + shrink-on-failure soak (ASan) ===="
# Elastic-training check: the elastic-labelled tests run the cross-mesh
# checkpoint round-trip matrix (2x2x2 onto 2x2x1 / 1x2x2 / 1x1x2, bitwise),
# the transactional failed-load contract, the ckpt_inspect offline verifier,
# and the mid-soak capacity-loss shrink (2x2x2 -> 2x2x1 with matching loss
# trajectory). Reuses the ASan build — the gather/re-slice path is raw
# buffer arithmetic, exactly ASan's beat.
if [ -d build-asan ]; then
  if (cd build-asan && ctest --output-on-failure --no-tests=error "-j${JOBS}" -L elastic); then
    RESULT[elastic]="PASS"
  else
    RESULT[elastic]="FAIL"
    overall=1
  fi
else
  RESULT[elastic]="SKIP (ASan build unavailable)"
fi

echo "==== [kernels] dispatch-level sweep (UBSan) ===="
# Microkernel check: the kernels-labelled suite (tail-shape GEMM
# correctness, q8_0 round-trip bounds, dispatch strictness) re-runs with
# ORBIT_KERNELS forcing each level, under the ASan build — whose
# undefined-behavior sanitizer half is the part with teeth here (misaligned
# SIMD loads, int8 conversion overflow, out-of-bounds tail reads). Scalar
# runs anywhere; the SIMD levels run when the CPU reports the feature.
if [ -d build-asan ]; then
  kernel_levels="scalar"
  if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    kernel_levels="${kernel_levels} avx2"
  fi
  if grep -q avx512f /proc/cpuinfo 2>/dev/null; then
    kernel_levels="${kernel_levels} avx512"
  fi
  kernels_status="PASS (${kernel_levels})"
  for lvl in ${kernel_levels}; do
    echo "---- ORBIT_KERNELS=${lvl} ----"
    if ! (cd build-asan && ORBIT_KERNELS="${lvl}" ctest --output-on-failure \
          --no-tests=error "-j${JOBS}" -L kernels); then
      kernels_status="FAIL (${lvl})"
      overall=1
      break
    fi
  done
  RESULT[kernels]="${kernels_status}"
else
  RESULT[kernels]="SKIP (ASan build unavailable)"
fi

echo "==== [resilience] supervised chaos soak (TSan) ===="
# Self-healing check: the resilience-labelled tests run the supervisor's
# retry/backoff loop, the chaos-scheduled kill-every-k-steps soak on a
# 2x2x2 mesh (bitwise-identical convergence), and the strict fault-env
# parser. Reuses the TSan build: every relaunch tears down and restarts
# the whole simulated cluster, exactly the thread-lifecycle churn TSan is
# best at catching.
if [ -d build-tsan ]; then
  if (cd build-tsan && ctest --output-on-failure --no-tests=error "-j${JOBS}" -L resilience); then
    RESULT[resilience]="PASS"
  else
    RESULT[resilience]="FAIL"
    overall=1
  fi
else
  RESULT[resilience]="SKIP (TSan build unavailable)"
fi

echo "==== [telemetry] metrics registry + flight recorder (TSan) ===="
# Observability check: the telemetry-labelled tests stress N registry
# writers against a rotating snapshot reader, run the exporter thread's
# start/append/final-flush lifecycle, and drive supervised chaos kills
# through the flight recorder. Reuses the TSan build — the registry's whole
# design claim is a lock-free hot path, so its races belong to TSan.
if [ -d build-tsan ]; then
  if (cd build-tsan && ctest --output-on-failure --no-tests=error "-j${JOBS}" -L telemetry); then
    RESULT[telemetry]="PASS"
  else
    RESULT[telemetry]="FAIL"
    overall=1
  fi
else
  RESULT[telemetry]="SKIP (TSan build unavailable)"
fi

echo "==== [analyze] orbit_lint project invariants ===="
# The project-invariant analyzer (tools/analyze, DESIGN.md §4g): R1-R8 over
# src/ tools/ bench/ tests/. Zero findings required — a finding here means
# an ORBIT module boundary was crossed (raw getenv, collective under a
# lock, unseeded randomness, ...) and fails the matrix. The analysis ctest
# label (fixture self-tests) already ran inside the asan/tsan legs; this
# leg runs the real tree.
if [ -x build-asan/tools/analyze/orbit_lint ]; then
  if build-asan/tools/analyze/orbit_lint --root .; then
    RESULT[analyze]="PASS"
  else
    RESULT[analyze]="FAIL"
    overall=1
  fi
else
  RESULT[analyze]="SKIP (orbit_lint not built)"
fi

echo "==== [tidy] clang-tidy ===="
# Reuse the ASan build's compilation database; flags are identical modulo
# the sanitizer switches, which clang-tidy tolerates.
tidy_out="$(tools/lint.sh build-asan 2>&1)"
tidy_rc=$?
echo "${tidy_out}"
if echo "${tidy_out}" | grep -q "SKIPPED"; then
  RESULT[tidy]="SKIP (clang-tidy not installed)"
elif [ "${tidy_rc}" -eq 0 ]; then
  RESULT[tidy]="PASS"
else
  RESULT[tidy]="FAIL"
  overall=1
fi

echo "==== [shellcheck] tools/*.sh ===="
# The verification scripts themselves are part of the verification surface:
# a quoting bug in check_build.sh can silently skip a leg.
if command -v shellcheck >/dev/null 2>&1; then
  if shellcheck tools/*.sh; then
    RESULT[shellcheck]="PASS"
  else
    RESULT[shellcheck]="FAIL"
    overall=1
  fi
else
  RESULT[shellcheck]="SKIP (shellcheck not installed)"
fi

write_json() {
  # Machine-readable mirror of the matrix (the bench_* --json convention):
  # {"overall": "...", "legs": [{"name","status","detail"}]}.
  local path="$1" first=1 leg raw status detail
  {
    echo "{"
    if [ "${overall}" -eq 0 ]; then
      echo "  \"overall\": \"PASS\","
    else
      echo "  \"overall\": \"FAIL\","
    fi
    echo "  \"legs\": ["
    for leg in "${LEGS[@]}"; do
      raw="${RESULT[${leg}]:-UNKNOWN (not run)}"
      status="${raw%% *}"
      detail="${raw#"${status}"}"
      detail="${detail# }"
      detail="${detail#(}"
      detail="${detail%)}"
      if [ "${first}" -eq 0 ]; then
        echo ","
      fi
      first=0
      printf '    {"name": "%s", "status": "%s", "detail": "%s"}' \
        "${leg}" "${status}" "${detail}"
    done
    echo ""
    echo "  ]"
    echo "}"
  } > "${path}"
  echo "check_build: wrote JSON summary to ${path}"
}

echo
echo "==== verification matrix ===="
for leg in "${LEGS[@]}"; do
  printf '  %-10s %s\n' "${leg}" "${RESULT[${leg}]:-not run}"
done

if [ -n "${JSON_PATH}" ]; then
  write_json "${JSON_PATH}"
fi
exit "${overall}"
