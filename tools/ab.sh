#!/bin/sh
# Alternating A/B pairs of the benchmark between a parent revision and this
# checkout's working tree.
#
#   tools/ab.sh <parent-rev> <workload | all> <pairs> [seed]
#
# Builds `benchmark/` (release, offline) twice in one `git clone --shared`
# of this repository under ${TMPDIR:-/tmp}, into one target directory:
# first at <parent-rev>, then at this checkout's working tree (tracked and
# untracked files, less those git ignores). Both sides build from the same
# path because the source path reaches the binary (path package ids enter
# the symbol hashes), and two builds of one source at two paths can differ
# by a few percent in speed. It prints whether the two binaries are
# identical. Then, for <workload> or, with `all`, for each workload of
# BENCHMARK.json in its order, it runs <pairs> pairs of untraced
# (`--trace 0`) runs at <seed> (default 42), the parent first in odd pairs
# and the change first in even ones, so that drift in the box's speed falls
# on both sides alike. Per workload it prints a table: for every end-to-end
# metric of BENCHMARK.json both medians with their quartiles, the change of
# the median in %, in how many pairs the change was the better side, and
# the verdict of the metric's `bound` on the medians: `better`, `within
# bound` (equal, or worse by no more than the bound, a fraction of the
# parent's median) or `WORSE beyond bound`; then whether every run gave the same model fingerprint per side; then one
# `summary` line with `sim_ops_per_calibrated_s`'s median change, wins and
# both quartile ranges. With `all`, the five summary lines are repeated
# together at the end.
#
# On exit it removes the clone and its builds. It edits nothing in this
# checkout; the working-tree commit it builds is written to the object
# store as an unreferenced object, which `git gc` prunes.
set -eu

usage() {
    echo "usage: tools/ab.sh <parent-rev> <workload | all> <pairs> [seed]" >&2
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
parent=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || {
    echo "tools/ab.sh: no commit $rev" >&2
    exit 2
}

# The workloads to run, checked against BENCHMARK.json before anything is
# built.
known=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$root/BENCHMARK.json")
if [ "$workload" = all ]; then
    workloads=$known
else
    echo "$known" | grep -qxF "$workload" || {
        echo "tools/ab.sh: no workload $workload; one of:" $known all >&2
        exit 2
    }
    workloads=$workload
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

# The working tree as a commit, through an index of its own: the real
# index and the working tree stay as they are.
cp "$(git -C "$root" rev-parse --path-format=absolute --git-path index)" "$tmp/index"
GIT_INDEX_FILE=$tmp/index git -C "$root" add -A
tree=$(GIT_INDEX_FILE=$tmp/index git -C "$root" write-tree)
change=$(GIT_AUTHOR_NAME=ab GIT_AUTHOR_EMAIL=ab GIT_COMMITTER_NAME=ab \
    GIT_COMMITTER_EMAIL=ab git -C "$root" commit-tree -m "working tree" "$tree")

# A clone that borrows this repository's object store, so it reaches the
# unreferenced working-tree commit too.
git clone --quiet --shared --no-checkout "$root" "$tmp/src"

# build <commit> <side>: check <commit> out in the clone and build the
# side's benchmark binary there, then keep it as <side>.bin.
build() {
    echo "building $2 ($1)" >&2
    git -C "$tmp/src" checkout --quiet --force --detach "$1"
    CARGO_TARGET_DIR=$tmp/target cargo build --release --quiet --offline \
        --manifest-path "$tmp/src/benchmark/Cargo.toml"
    cp "$tmp/target/release/layered-benchmark" "$tmp/$2.bin"
}
build "$parent" parent
build "$change" change
if cmp -s "$tmp/parent.bin" "$tmp/change.bin"; then
    binaries=identical
else
    binaries=different
fi

# The end-to-end metrics (those with a bound), which way is better, and
# the bound.
sed -n 's/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)", "bound": \([0-9.]*\).*/\1 \2 \3/p' \
    "$root/BENCHMARK.json" > "$tmp/metrics"

# run <workload> <side> <pair>: one run; its stdout goes to <side>.<pair>. A
# run that fails the benchmark's own checks exits non-zero: say which, and
# why (its `wrong` and `ops_failed` lines), before the cleanup removes its
# stdout.
run() {
    echo "$1 pair $3/$pairs: $2" >&2
    "$tmp/$2.bin" --workload "$1" \
        --seed "$seed" --trace 0 > "$tmp/$2.$3" || {
        status=$?
        echo "tools/ab.sh: the $2 run of $1 pair $3/$pairs exited $status:" >&2
        grep -E '^(wrong |info [^ ]+ ops_failed )' "$tmp/$2.$3" >&2 || true
        exit 1
    }
}

# compare <workload>: the pairs of one workload, then its table, its
# fingerprints and its summary line.
compare() {
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run "$1" parent "$i"
            run "$1" change "$i"
        else
            run "$1" change "$i"
            run "$1" parent "$i"
        fi
        i=$((i + 1))
    done

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

    echo
    echo "$1, seed $seed, $pairs pairs: parent $(git -C "$root" rev-parse --short "$parent"), change = working tree"
    echo "benchmark binaries: $binaries"
    awk -v pairs="$pairs" -v workload="$1" -v seed="$seed" '
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
        FILENAME == ARGV[1] { better[++n] = $2; name[n] = $1; bound[n] = $3; next }
        $3 == "fingerprint" { prints[$1, $4] = 1; next }
        { val[$1, $3, $2] = $4 }
        END {
            printf "| metric | better | parent median [q1, q3] | change median [q1, q3] | change | wins | bound |\n"
            printf "|---|---|---|---|---|---|---|\n"
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
                worse = better[k] == "higher" ? -pct : pct
                verdict = worse < 0 ? "better" : worse <= 100 * bound[k] ? "within bound" : "WORSE beyond bound"
                printf "| %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.2f%% | %d/%d | %s |\n", \
                    m, better[k], pm, quantile(a, pairs, 0.25), quantile(a, pairs, 0.75), \
                    cm, quantile(b, pairs, 0.25), quantile(b, pairs, 0.75), pct, wins, pairs, verdict
                if (m == "sim_ops_per_calibrated_s")
                    summary = sprintf("summary %s seed %d: sim_ops_per_calibrated_s %+.2f%%, wins %d/%d, parent %.6g [%.6g, %.6g], change %.6g [%.6g, %.6g]", \
                        workload, seed, pct, wins, pairs, pm, quantile(a, pairs, 0.25), \
                        quantile(a, pairs, 0.75), cm, quantile(b, pairs, 0.25), quantile(b, pairs, 0.75))
            }
            for (key in prints) { split(key, s, SUBSEP); fp[s[1]] = fp[s[1]] (fp[s[1]] == "" ? "" : ",") s[2]; count[s[1]]++ }
            same = count["parent"] == 1 && count["change"] == 1 && fp["parent"] == fp["change"]
            printf "model_fingerprint: parent %s, change %s%s\n", fp["parent"], fp["change"], \
                same ? " (equal)" : " (DIFFERENT)"
            printf "%s, fingerprints %s\n", summary, same ? "equal" : "DIFFERENT"
        }' "$tmp/metrics" "$tmp/values" | tee "$tmp/table"
    grep '^summary ' "$tmp/table" >> "$tmp/summaries"
}

for w in $workloads; do
    compare "$w"
done
if [ "$workload" = all ]; then
    echo
    cat "$tmp/summaries"
fi
