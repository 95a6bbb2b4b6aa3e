#!/usr/bin/env bash
# Pinned benchmark runner: builds the bench harnesses, runs each one
# pinned (taskset) for stable numbers, collects their `#METRIC` JSON lines
# plus wall-clock, and writes BENCH_<n>.json at the repo root (n = first
# unused index, so committed baselines are never overwritten). Serial
# harnesses run on core 0; the ones that sweep a worker or client count P
# get cores 0..nproc-1, so their P>1 rows are not oversubscribed. Each
# bench's core list is recorded under "host"."masks".
#
# Usage: scripts/bench.sh [--quick]
#   --quick  skip om_micro (the google-benchmark microbench is the slow one)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

BUILD=build-bench
cmake -B "${BUILD}" -S . -DBUILD_BENCH=ON -DBUILD_TESTS=OFF >/dev/null
cmake --build "${BUILD}" -j "$(nproc)" >/dev/null

HAVE_TASKSET=0
if command -v taskset >/dev/null 2>&1; then
  HAVE_TASKSET=1
fi
ALL_CORES="0-$(($(nproc) - 1))"
# Harnesses that sweep P; every other one is serial.
declare -A SWEEPS_P=([thm10_sphybrid_scaling]=1 [naive_vs_hybrid]=1
                     [om_shootout]=1 [ext_stream_ingest]=1
                     [ext_parallel_racedetect]=1)

# Next free BENCH_<n>.json index.
n=1
while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
OUT="BENCH_${n}.json"

BENCHES=(fig3_serial_comparison thm5_sporder_scaling thm10_sphybrid_scaling
         naive_vs_hybrid cor6_race_overhead ext_stream_ingest om_shootout
         ext_parallel_racedetect ext_allsets ablation_dsu)
if [[ "${QUICK}" == "0" ]]; then
  BENCHES+=(om_micro)
fi

LOGDIR=$(mktemp -d)
trap 'rm -rf "${LOGDIR}"' EXIT

declare -A WALL MASK
for b in "${BENCHES[@]}"; do
  MASK[${b}]=none
  PIN=""
  if [[ "${HAVE_TASKSET}" == "1" ]]; then
    MASK[${b}]=$([[ -n "${SWEEPS_P[${b}]:-}" ]] && echo "${ALL_CORES}" || echo 0)
    PIN="taskset -c ${MASK[${b}]}"
  fi
  echo "== ${b} (cores: ${MASK[${b}]}) =="
  start=$(date +%s.%N)
  # om_micro reports through google-benchmark's own JSON.
  if [[ "${b}" == "om_micro" ]]; then
    ${PIN} "./${BUILD}/${b}" \
      --benchmark_out="${LOGDIR}/${b}.bench.json" \
      --benchmark_out_format=json | tee "${LOGDIR}/${b}.log"
  else
    ${PIN} "./${BUILD}/${b}" | tee "${LOGDIR}/${b}.log"
  fi
  end=$(date +%s.%N)
  WALL[${b}]=$(echo "${end} ${start}" | awk '{printf "%.3f", $1 - $2}')
done

# Assemble the combined JSON: environment, per-bench wall time, and every
# parsed #METRIC line.
{
  echo "{"
  echo "  \"run\": ${n},"
  echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"host\": {\"nproc\": $(nproc), \"pinned\": $( [[ "${HAVE_TASKSET}" == "1" ]] && echo true || echo false ),"
  echo "    \"masks\": {"
  first=1
  for b in "${BENCHES[@]}"; do
    [[ "${first}" == "0" ]] && echo "      ,"
    first=0
    echo "      \"${b}\": \"${MASK[${b}]}\""
  done
  echo "    }},"
  echo "  \"benches\": {"
  first=1
  for b in "${BENCHES[@]}"; do
    [[ "${first}" == "0" ]] && echo "    ,"
    first=0
    echo "    \"${b}\": {"
    echo "      \"wall_s\": ${WALL[${b}]},"
    echo "      \"metrics\": ["
    sed -n 's/^#METRIC //p' "${LOGDIR}/${b}.log" | paste -sd, - || true
    echo "      ]"
    if [[ "${b}" == "om_micro" && -f "${LOGDIR}/${b}.bench.json" ]]; then
      echo "      ,\"google_benchmark\": $(jq -c '.benchmarks' "${LOGDIR}/${b}.bench.json")"
    fi
    echo "    }"
  done
  echo "  }"
  echo "}"
} | jq . > "${OUT}"

echo
echo "wrote ${OUT}"
