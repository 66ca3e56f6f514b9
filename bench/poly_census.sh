#!/bin/sh
# Polymorphic-comparison census of the cold path's native objects.
#
# Usage, from the root of a checkout after `dune build`:
#
#     sh bench/poly_census.sh [BUILD_DIR]        (BUILD_DIR defaults to _build)
#
# For each module on the cycle loop, the warm walk, the caches, the port
# schedule and the mapping path, `objdump -dr` lists the object's
# relocations. Per object the script prints three counts:
#
#   minmax   calls of the polymorphic Stdlib.max / Stdlib.min;
#   compare  calls of the runtime's polymorphic comparisons (caml_compare,
#            caml_equal, caml_notequal, caml_lessthan, caml_lessequal,
#            caml_greaterthan, caml_greaterequal);
#   apply    generic applications (caml_applyN), for information only:
#            the dev profile's -opaque turns every multi-argument call
#            into another module into one.
#
# It exits 1 when any object has a minmax or compare relocation (or
# is missing), and 0 otherwise. Int.max / Int.min and comparisons at a
# known int type compile to inline code and leave no relocation.

set -u

build=${1:-_build}

modules="
pipeline/pipeline__Core pipeline/pipeline__Trace pipeline/pipeline__Machine
uarch/uarch__Port_schedule
memsim/memsim__Cache memsim/memsim__Mmu memsim/memsim__Page_table memsim/memsim__Phys_mem
xsem/xsem__Step_log xsem/xsem__Compile xsem/xsem__Executor xsem/xsem__Machine_state
harness/harness__Mapping harness/harness__Mapping_memo harness/harness__Profiler harness/harness__Unroll
"

relocs() {
  objdump -dr "$1" | awk '$2 ~ /^R_X86_64_/ { sub(/[-+]0x[0-9a-f]+$/, "", $3); print $3 }'
}

status=0
total=0
printf '%-28s %7s %8s %6s\n' object minmax compare apply
for m in $modules; do
  lib=${m%%/*}
  name=${m#*/}
  obj="$build/default/lib/$lib/.$lib.objs/native/$name.o"
  if [ ! -f "$obj" ]; then
    echo "poly_census: $obj is missing: run dune build first" >&2
    status=1
    continue
  fi
  r=$(relocs "$obj")
  minmax=$(printf '%s\n' "$r" | grep -cE '^camlStdlib\.(max|min)_[0-9]+$')
  cmp=$(printf '%s\n' "$r" \
    | grep -cE '^caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)$')
  apply=$(printf '%s\n' "$r" | grep -cE '^caml_apply[0-9]+$')
  printf '%-28s %7d %8d %6d\n' "$name.o" "$minmax" "$cmp" "$apply"
  total=$((total + minmax + cmp))
done
echo "polymorphic comparisons: $total"
if [ "$total" -ne 0 ]; then status=1; fi
exit $status
