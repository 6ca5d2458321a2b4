#!/bin/sh
# Fails when a workspace package (the root package, crates/*, shims/*)
# declares a dependency in [dependencies] or [dev-dependencies] that none of
# its src/, tests/, benches/ or examples/ files names. A dependency counts as
# named when a file has `<crate>::` (not behind `crate::`, `self::` or
# `super::`), `use <crate>` or `extern crate <crate>`, where <crate> is the
# dependency's name with `-` as `_`.
#
# Usage: tools/deps.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."

status=0
for manifest in Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    deps=$(awk '
        /^\[/ { in_deps = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
        in_deps && /^[A-Za-z0-9_-]+[.[:space:]=]/ { sub(/[.[:space:]=].*/, ""); print }
    ' "$manifest")
    files=$(for sub in src tests benches examples; do
        if [ -d "$dir/$sub" ]; then find "$dir/$sub" -name '*.rs'; fi
    done)
    for dep in $deps; do
        ident=$(printf '%s' "$dep" | tr - _)
        # shellcheck disable=SC2086 # paths hold no spaces
        if [ -z "$files" ] || ! grep -Eq \
            "(^|[^A-Za-z0-9_:])(::)?$ident::|(^|[^A-Za-z0-9_])use $ident\\b|extern crate $ident\\b" \
            $files; then
            echo "$manifest: dependency \`$dep\` is never named under $dir" >&2
            status=1
        fi
    done
done
exit "$status"
