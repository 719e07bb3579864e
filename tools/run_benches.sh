#!/usr/bin/env bash
# Builds and runs every bench binary (the paper-reproduction tables,
# figures and ablations) on a small preset dataset: a smoke run that fails
# when any bench fails. Performance is gated by tools/pipebench_gate.py.
#
# Usage: tools/run_benches.sh [build_dir] [scale] [out_dir]
#   build_dir  CMake build directory            (default: build)
#   scale      --scale multiplier per bench     (default: 0.05)
#   out_dir    where BENCH_*.json + CSVs land   (default: <build_dir>/bench_out)
#
# Every bench accepts --scale/--seed/--out (see bench/bench_util.h) and
# writes one BENCH_<name>.json timing record.
#
# TMOTIF_BENCH_DRY_RUN=1 skips the build and prints "would run <name>" for
# every bench the glob enumerates without executing any of them — the CTest
# smoke test uses it to pin the enumeration (new bench binaries must show
# up; stray bench_*.json/csv files must stay excluded).

set -euo pipefail

BUILD_DIR="${1:-build}"
SCALE="${2:-0.05}"
OUT_DIR="${3:-${BUILD_DIR}/bench_out}"
SEED="${BENCH_SEED:-42}"
DRY_RUN="${TMOTIF_BENCH_DRY_RUN:-0}"

if [ "${DRY_RUN}" = "0" ]; then
  if [ ! -d "${BUILD_DIR}" ]; then
    cmake -B "${BUILD_DIR}" -S .
  fi
  cmake --build "${BUILD_DIR}" --target bench -j "$(nproc)"
fi

mkdir -p "${OUT_DIR}"
failures=0
ran=0

for bin in "${BUILD_DIR}"/bench_*; do
  # Regular executables only: the default OUT_DIR (<build>/bench_out) and
  # stray bench_*.log/csv files match the glob too.
  [ -f "${bin}" ] && [ -x "${bin}" ] || continue
  name="$(basename "${bin}")"
  case "${name}" in
    *.json | *.csv) continue ;;
  esac
  if [ "${DRY_RUN}" != "0" ]; then
    echo "would run ${name}"
    ran=$((ran + 1))
    continue
  fi
  echo "== ${name} (scale ${SCALE}, seed ${SEED})"
  if "${bin}" "--scale=${SCALE}" "--seed=${SEED}" "--out=${OUT_DIR}" \
      > "${OUT_DIR}/${name}.log" 2>&1; then
    ran=$((ran + 1))
  else
    echo "   FAILED (see ${OUT_DIR}/${name}.log)"
    failures=$((failures + 1))
  fi
done

echo
echo "Ran ${ran} benches, ${failures} failures. Timing records:"
for record in "${OUT_DIR}"/BENCH_*.json; do
  [ -e "${record}" ] || continue
  echo "  ${record}"
done
exit "$((failures > 0 ? 1 : 0))"
