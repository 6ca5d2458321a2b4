#!/bin/sh
# Size of the code, per crate under crates/: non-test lines (the lines of
# each src/ file before its first unindented `#[cfg(test)]`, where its test
# module or test-only impl blocks begin; a test-only method or field gated
# in place counts as non-test), public items (the
# `pub fn|struct|enum|trait|type|const|mod|use` lines among them) and public
# fields (the `pub <name>:` lines among them: the settable values). Then a
# `total` line over all crates, the crate count, an `examples` line (every
# line of examples/*.rs), and the store layer: cstore + hstore + node +
# core/src/store.rs, without hstore's filesystem module (src/dfs/).
#
# Usage: tools/loc.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."

# Prints "<non-test lines> <public items> <public fields>" summed over the
# files given.
count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { lines++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|type|const|mod|use)[[:space:]]/ { items++ }
        /^[[:space:]]*pub [A-Za-z_][A-Za-z0-9_]*:/ { fields++ }
        END { print lines + 0, items + 0, fields + 0 }
    ' "$@"
}

printf '%-10s %9s %10s %10s\n' crate non-test pub-items pub-fields
for dir in crates/*/; do
    name=$(basename "$dir")
    # shellcheck disable=SC2046 # paths hold no spaces
    set -- $(count $(find "$dir/src" -name '*.rs' | sort))
    printf '%-10s %9s %10s %10s\n' "$name" "$1" "$2" "$3"
done
# shellcheck disable=SC2046
set -- $(count $(find crates/*/src -name '*.rs' | sort))
printf '%-10s %9s %10s %10s\n' total "$1" "$2" "$3"
set -- crates/*/
printf '%-10s %9s\n' crates "$#"
# shellcheck disable=SC2046
set -- $(cat $(find examples -name '*.rs' | sort) | wc -l)
printf '%-10s %9s\n' examples "$1"
# shellcheck disable=SC2046
set -- $(count $(find crates/cstore/src crates/hstore/src crates/node/src -name '*.rs' \
    -not -path 'crates/hstore/src/dfs/*' | sort) crates/core/src/store.rs)
echo "store layer (cstore + hstore without src/dfs + node + core/src/store.rs): $1 non-test lines"
