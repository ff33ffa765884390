#!/usr/bin/env bash
# Bench baseline harness.
#
#   tools/bench_baseline.sh record [out.json]   # run quick benches, write baseline
#
# Runs the short (SOLROS_BENCH_QUICK) fig11/fig12/fig17 configs plus the
# cache_paths staged-path bench with --csv, and emits a machine-readable
# BENCH_baseline.json (one row object per line, so a fresh recording diffs
# line by line). Every row is the "current" variant, the default
# configuration CI protects: CI records a fresh file and `cmp`s it against
# the committed one, so any drift in any row fails. EXPERIMENTS.md records
# the seed-path numbers these replaced.
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
MODE="${1:-record}"
BASELINE="${2:-BENCH_baseline.json}"

cd "$(dirname "$0")/.."

if [[ ! -x "$BUILD_DIR/bench/fig11_fs_random_read" ]]; then
  echo "error: benches not built under $BUILD_DIR (set BUILD_DIR=...)" >&2
  exit 2
fi

# Acceptance gate: readahead + coalescing must keep the quick sequential
# O_BUFFER read at or below this many NVMe commands (the seed path issued
# 256, one per 64 KiB request).
SEQ_READ_MAX_CMDS=64

run_bench() { # <binary>
  SOLROS_BENCH_QUICK=1 "$BUILD_DIR/bench/$1" --csv
}

# fig11/fig12 output -> "fig,variant,threads,block,host,solros,buffered,virtio,nfs"
parse_fs_fig() { # <fig> <variant>
  awk -v fig="$1" -v variant="$2" '
    /^--- [0-9]+ thread/ { threads = $2 }
    /^csv:$/             { incsv = 1; next }
    incsv && /^block,/   { next }
    incsv && /^[0-9]/    { print fig "," variant "," threads "," $0; next }
                         { incsv = 0 }
  '
}

# fig17 output -> "fig17,variant,app,config,time_ms"
parse_fig17() { # <variant>
  awk -v variant="$1" -F, '
    /^--- text indexing/ { app = "text_index" }
    /^--- image search/  { app = "image_search" }
    /^csv:$/             { incsv = 1; next }
    incsv && /^config,/  { next }
    incsv && NF >= 2     { print "fig17," variant "," app "," $1 "," $2; next }
                         { incsv = 0 }
  '
}

# cache_paths output -> "cache_paths,scenario,variant,gbps,cmds"
parse_cache_paths() {
  awk -F, '
    /^--- sequential/    { scen = "seq_read" }
    /^--- hot-set/       { scen = "scan_mix" }
    /^--- random/        { scen = "rand_write" }
    /^csv:$/             { incsv = 1; header = 1; next }
    incsv && header      { header = 0; next }
    incsv && NF >= 2     { print "cache_paths," scen ",current," $1 "," $2; next }
                         { incsv = 0 }
  '
}

json_escape_rows() { # stdin: csv rows -> JSON row objects, one per line
  awk -F, '
    $1 == "fig11" || $1 == "fig12" {
      printf "    {\"fig\": \"%s\", \"variant\": \"%s\", \"threads\": %s, \"block\": \"%s\", \"host_gbps\": %s, \"solros_gbps\": %s, \"buffered_gbps\": %s, \"virtio_gbps\": %s, \"nfs_gbps\": %s},\n",
             $1, $2, $3, $4, $5, $6, $7, $8, $9
    }
    $1 == "fig17" {
      printf "    {\"fig\": \"fig17\", \"variant\": \"%s\", \"app\": \"%s\", \"config\": \"%s\", \"time_ms\": %s},\n",
             $2, $3, $4, $5
    }
    $1 == "cache_paths" {
      printf "    {\"fig\": \"cache_paths\", \"scenario\": \"%s\", \"variant\": \"%s\", \"gbps\": %s, \"nvme_cmds\": %s},\n",
             $2, $3, $4, $5
    }
  '
}

record() {
  local tmp seq_cmds
  tmp="$(mktemp -d)"
  trap "rm -rf '$tmp'" EXIT

  echo ">> fig11" >&2
  run_bench fig11_fs_random_read | parse_fs_fig fig11 current >"$tmp/rows"
  echo ">> fig12" >&2
  run_bench fig12_fs_random_write | parse_fs_fig fig12 current >>"$tmp/rows"
  echo ">> fig17" >&2
  run_bench fig17_applications | parse_fig17 current >>"$tmp/rows"
  echo ">> cache_paths" >&2
  run_bench cache_paths | parse_cache_paths >>"$tmp/rows"

  seq_cmds="$(awk -F, '$1 == "cache_paths" && $2 == "seq_read" {print $5}' \
              "$tmp/rows")"
  if ! awk -v c="${seq_cmds:-x}" -v max="$SEQ_READ_MAX_CMDS" \
       'BEGIN { exit !(c ~ /^[0-9]+$/ && c + 0 <= max) }'; then
    echo "error: seq-read nvme cmds ${seq_cmds:-missing} > $SEQ_READ_MAX_CMDS" >&2
    exit 1
  fi

  {
    echo "{"
    echo "  \"schema\": 1,"
    echo "  \"generator\": \"tools/bench_baseline.sh\","
    echo "  \"bench_mode\": \"quick\","
    echo "  \"rows\": ["
    json_escape_rows <"$tmp/rows" | sed '$ s/},$/}/'
    echo "  ]"
    echo "}"
  } >"$BASELINE"
  echo "wrote $BASELINE ($(grep -c '"fig"' "$BASELINE") rows," \
       "seq-read nvme cmds $seq_cmds)" >&2
}

case "$MODE" in
  record) record ;;
  *)
    echo "usage: $0 record [baseline.json]" >&2
    exit 2
    ;;
esac
