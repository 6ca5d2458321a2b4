#!/bin/sh
# Size of the code, per crate under crates/: non-test lines (the lines of
# each src/ file before its first `#[cfg(test)]`) and public items (the
# `pub fn|struct|enum|trait|type|const|mod|use` lines among them). Then a
# `total` line over all crates, an `examples` line (every line of
# examples/*.rs), and the store layer: cstore + hstore + node +
# core/src/store.rs.
#
# Usage: tools/loc.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."

# Prints "<non-test lines> <public items>" summed over the files given.
count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { lines++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|type|const|mod|use)[[:space:]]/ { items++ }
        END { print lines + 0, items + 0 }
    ' "$@"
}

printf '%-10s %9s %10s\n' crate non-test pub-items
for dir in crates/*/; do
    name=$(basename "$dir")
    # shellcheck disable=SC2046 # paths hold no spaces
    set -- $(count $(find "$dir/src" -name '*.rs' | sort))
    printf '%-10s %9s %10s\n' "$name" "$1" "$2"
done
# shellcheck disable=SC2046
set -- $(count $(find crates/*/src -name '*.rs' | sort))
printf '%-10s %9s %10s\n' total "$1" "$2"
# shellcheck disable=SC2046
set -- $(cat $(find examples -name '*.rs' | sort) | wc -l)
printf '%-10s %9s\n' examples "$1"
# shellcheck disable=SC2046
set -- $(count $(find crates/cstore/src crates/hstore/src crates/node/src -name '*.rs' | sort) \
    crates/core/src/store.rs)
echo "store layer (cstore + hstore + node + core/src/store.rs): $1 non-test lines"
