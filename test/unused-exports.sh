#!/usr/bin/env bash
# Unused-export check: every top-level `val` of a library interface
# (lib/*/*.mli) must be referenced as `Module.value` by some .ml file of
# lib/, bin/, bench/, perfbench/, examples/ or test/ other than the
# module's own.  A value used only inside its module belongs out of the
# .mli, where the compiler's unused-value warning then catches it if it
# is dead.  A value reached only through a local open (`Module.( ... )`)
# is listed in test/unused-exports.allow as `Module.value  reason`.
#
# Run from the repository root: bash test/unused-exports.sh
set -euo pipefail

allow=test/unused-exports.allow
sources=$(find lib bin bench perfbench examples test -name '*.ml' \
  -not -path '*/_build/*' | sort)
missing=()

for mli in lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  mod="$(tr '[:lower:]' '[:upper:]' <<< "${base:0:1}")${base:1}"
  others=$(grep -vxF "$(dirname "$mli")/$base.ml" <<< "$sources")
  # every `Module.ident` written outside the module's own files
  used=$(grep -ohE "\\b$mod\\.[a-z_][A-Za-z0-9_']*" $others | sort -u || true)
  for v in $(sed -nE "s/^val ([a-z_][A-Za-z0-9_']*).*/\\1/p" "$mli"); do
    name="$mod.$v"
    grep -qxF "$name" <<< "$used" && continue
    grep -qE "^$(sed 's/\./\\./' <<< "$name")([[:space:]]|$)" "$allow" && continue
    missing+=("$name")
  done
done

if ((${#missing[@]})); then
  echo "unused exports (${#missing[@]}): referenced by no other module" >&2
  printf '  %s\n' "${missing[@]}" >&2
  exit 1
fi
echo "unused-exports: every exported value has an outside reference"
