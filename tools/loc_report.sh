#!/usr/bin/env bash
# Analogue of the paper's Table 1: lines of code per module.
cd "$(dirname "$0")/.."
echo "module            files  lines"
echo "--------------------------------"
total=0
for dir in src/base src/sim src/hw src/transport src/nvme src/fs src/rpc src/net src/core src/apps tests bench examples tools; do
  files=$(find $dir -name '*.cc' -o -name '*.h' -o -name '*.cpp' | wc -l)
  lines=$(find $dir -name '*.cc' -o -name '*.h' -o -name '*.cpp' | xargs cat 2>/dev/null | wc -l)
  printf "%-17s %5d  %6d\n" "$dir" "$files" "$lines"
  total=$((total + lines))
done
echo "--------------------------------"
printf "%-17s %5s  %6d\n" "TOTAL" "" "$total"
