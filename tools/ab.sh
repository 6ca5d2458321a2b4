#!/bin/sh
# Alternating A/B pairs of the benchmark between a parent revision and this
# checkout's working tree.
#
#   tools/ab.sh <parent-rev> <workload> <pairs> [seed]
#
# Builds `benchmark/` (release, offline) twice in one `git worktree` under
# ${TMPDIR:-/tmp}, into one target directory: first at <parent-rev>, then
# at this checkout's working tree (tracked and untracked files, less those
# git ignores). Both sides build from the same path because the source
# path reaches the binary (path package ids enter the symbol hashes), and
# two builds of one source at two paths can differ by a few percent in
# speed. It prints whether the two binaries are identical. Then it runs
# <pairs> pairs of untraced (`--trace 0`) runs of <workload> at <seed>
# (default 42), the parent first in odd pairs and the change first in
# even ones, so that drift in the box's speed falls on both sides alike.
# For every end-to-end metric of BENCHMARK.json it prints both medians
# with their quartiles, the change of the median in %, and in how many
# pairs the change was the better side; then whether every run gave the
# same model fingerprint per side.
#
# On exit it removes the worktree and its builds. It edits nothing in this
# checkout.
set -eu

usage() {
    echo "usage: tools/ab.sh <parent-rev> <workload> <pairs> [seed]" >&2
    exit 2
}
[ $# -ge 3 ] && [ $# -le 4 ] || usage
rev=$1
workload=$2
pairs=$3
seed=${4:-42}
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
case $seed in '' | *[!0-9]*) usage ;; esac

root=$(git rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
    echo "tools/ab.sh: no commit $rev" >&2
    exit 2
}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")

cleanup() {
    git -C "$root" worktree remove --force "$tmp/src" 2> /dev/null || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# The working tree as a commit, through an index of its own: the real
# index and the working tree stay as they are.
cp "$(git -C "$root" rev-parse --path-format=absolute --git-path index)" "$tmp/index"
GIT_INDEX_FILE=$tmp/index git -C "$root" add -A
tree=$(GIT_INDEX_FILE=$tmp/index git -C "$root" write-tree)
change=$(GIT_AUTHOR_NAME=ab GIT_AUTHOR_EMAIL=ab GIT_COMMITTER_NAME=ab \
    GIT_COMMITTER_EMAIL=ab git -C "$root" commit-tree -m "working tree" "$tree")

git -C "$root" worktree add --detach --quiet "$tmp/src" "$rev"

# build <commit> <side>: check <commit> out in the worktree and build the
# side's benchmark binary there, then keep it as <side>.bin.
build() {
    echo "building $2 ($1)" >&2
    git -C "$tmp/src" checkout --quiet --force --detach "$1"
    CARGO_TARGET_DIR=$tmp/target cargo build --release --quiet --offline \
        --manifest-path "$tmp/src/benchmark/Cargo.toml"
    cp "$tmp/target/release/layered-benchmark" "$tmp/$2.bin"
}
build "$rev" parent
build "$change" change
if cmp -s "$tmp/parent.bin" "$tmp/change.bin"; then
    binaries=identical
else
    binaries=different
fi

# run <side> <pair>: one run; its stdout goes to <side>.<pair>. A run that
# fails the benchmark's own checks exits non-zero: say which, and why (its
# `wrong` and `ops_failed` lines), before the cleanup removes its stdout.
run() {
    echo "pair $2/$pairs: $1" >&2
    "$tmp/$1.bin" --workload "$workload" \
        --seed "$seed" --trace 0 > "$tmp/$1.$2" || {
        status=$?
        echo "tools/ab.sh: the $1 run of pair $2/$pairs exited $status:" >&2
        grep -E '^(wrong |info [^ ]+ ops_failed )' "$tmp/$1.$2" >&2 || true
        exit 1
    }
}
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
    i=$((i + 1))
done

# The end-to-end metrics (those with a bound) and which way is better.
sed -n 's/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)", "bound".*/\1 \2/p' \
    "$root/BENCHMARK.json" > "$tmp/metrics"

# Lines `<side> <pair> <metric> <value>`, then the table.
for side in parent change; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        awk -v side="$side" -v pair="$i" \
            '$1 == "metric" { print side, pair, $3, $4 }
             $1 == "info" && $3 == "model_fingerprint" { print side, pair, "fingerprint", $4 }' \
            "$tmp/$side.$i"
        i=$((i + 1))
    done
done > "$tmp/values"

echo "$workload, seed $seed, $pairs pairs: parent $(git -C "$root" rev-parse --short "$rev"), change = working tree"
echo "benchmark binaries: $binaries"
awk -v pairs="$pairs" '
    # Quantile p of the sorted values v[1..n], interpolated between ranks.
    function quantile(v, n, p,    pos, lo) {
        pos = 1 + (n - 1) * p
        lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    function sorted(side, m, out,    i, j, t) {
        for (i = 1; i <= pairs; i++) out[i] = val[side, m, i]
        for (i = 2; i <= pairs; i++)
            for (j = i; j > 1 && out[j - 1] > out[j]; j--) {
                t = out[j]; out[j] = out[j - 1]; out[j - 1] = t
            }
    }
    FILENAME == ARGV[1] { better[++n] = $2; name[n] = $1; next }
    $3 == "fingerprint" { prints[$1, $4] = 1; next }
    { val[$1, $3, $2] = $4 }
    END {
        printf "| metric | better | parent median [q1, q3] | change median [q1, q3] | change | wins |\n"
        printf "|---|---|---|---|---|---|\n"
        for (k = 1; k <= n; k++) {
            m = name[k]
            sorted("parent", m, a); sorted("change", m, b)
            pm = quantile(a, pairs, 0.5); cm = quantile(b, pairs, 0.5)
            wins = 0
            for (i = 1; i <= pairs; i++) {
                d = val["change", m, i] - val["parent", m, i]
                if ((better[k] == "higher" && d > 0) || (better[k] == "lower" && d < 0)) wins++
            }
            pct = pm == 0 ? 0 : 100 * (cm - pm) / pm
            printf "| %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.2f%% | %d/%d |\n", \
                m, better[k], pm, quantile(a, pairs, 0.25), quantile(a, pairs, 0.75), \
                cm, quantile(b, pairs, 0.25), quantile(b, pairs, 0.75), pct, wins, pairs
        }
        for (key in prints) { split(key, s, SUBSEP); fp[s[1]] = fp[s[1]] (fp[s[1]] == "" ? "" : ",") s[2]; count[s[1]]++ }
        printf "model_fingerprint: parent %s, change %s%s\n", fp["parent"], fp["change"], \
            count["parent"] == 1 && count["change"] == 1 && fp["parent"] == fp["change"] ? " (equal)" : " (DIFFERENT)"
    }' "$tmp/metrics" "$tmp/values"
