#!/bin/sh
# Export census: every value a library interface exports is used by
# another compilation unit.
#
# Usage, from the root of a checkout:
#
#     sh bench/export_census.sh
#
# It runs `dune build @check`, which writes a .cmt for every
# compilation unit (a plain build writes none for executables), then
# `ocamlcmt -annot` on each .cmt under lib/, bin/, test/, examples/,
# bench/ and perfbench/. The annotations list every identifier a unit
# references, with the location of the definition it resolves to. A
# reference to a value declared in an .mli resolves to the line of its
# `val` there; a module's references to its own values resolve to its
# .ml.
#
# It exits 1 on any `val` in lib/**/*.mli that no compilation unit
# references, printing FILE:LINE: VALUE. Tests and perfbench count as
# references. A value that only its own module uses belongs out of the
# .mli; one that nothing uses belongs out of the code.

set -eu

dune build @check 2>&1

b=_build/default
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

incs=$(find "$b" -type d \( -path '*.objs/byte' -o -path '*.eobjs/byte' \) \
  | sed 's/^/-I /')
# shellcheck disable=SC2086
find "$b/lib" "$b/bin" "$b/test" "$b/examples" "$b/bench" "$b/perfbench" \
  -name '*.cmt' | sort | while read -r cmt; do
  ocamlcmt -annot $incs -o - "$cmt"
done > "$work/annot"

# Reference targets as FILE:LINE. An annotation's int_ref/ext_ref
# line names the location of the definition it resolves to.
awk '/^  (int_ref|ext_ref) / && $3 ~ /^"/ {
  f = $3; gsub(/"/, "", f)
  print f ":" $4
}' "$work/annot" > "$work/refs"

find lib -name '*.mli' | sort | while read -r mli; do
  awk -v f="$mli" '/^[ \t]*val[ \t]/ {
    n = $0; sub(/^[ \t]*val[ \t]+/, "", n); sub(/[ \t:].*/, "", n)
    print f ":" NR, n
  }' "$mli"
done > "$work/vals"

awk 'NR == FNR { seen[$1] = 1; next } !($1 in seen) { print $1 ": " $2 }' \
  "$work/refs" "$work/vals" > "$work/unused"

echo "interface values with no reference from another unit: $(wc -l < "$work/unused")"
sed 's/^/  /' "$work/unused"
if [ -s "$work/unused" ]; then exit 1; fi
exit 0
