#!/usr/bin/env bash
# Paired in-process A/B probe of arch::simulate against another
# revision (docs/PERFORMANCE.md, "Trajectory workflow").
#
#   scripts/abprobe.sh <rev>
#
# Builds this tree's libraries (build/, RelWithDebInfo), extracts
# <rev>'s src/ from the local git history (git archive), compiles its
# src/arch with -Darch=arch_proto beside scripts/abprobe.cc, and runs
# the 224 figure5 cells' traces through both simulate calls back to
# back, alternating which goes first. Prints each tree's simulate
# time, the ratio <rev> / this tree (above 1: this tree is faster)
# and the number of cell runs whose SimStats differ; exits 1 on any
# difference.
#
# The probe hands this tree's TaskStream, SimConfig and SimStats to
# <rev>'s simulate. Before compiling anything it refuses (exit 2,
# naming the files) unless src/arch/{taskstream,config,stats}.h and
# every header outside src/arch that <rev>'s src/arch includes,
# directly or through other headers, are the same in both trees,
# comments aside.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: scripts/abprobe.sh <rev>" >&2
    exit 2
fi
rev=$1
if ! commit=$(git rev-parse --verify --quiet "$rev^{commit}"); then
    echo "abprobe: unknown revision $rev" >&2
    exit 2
fi

# tokens: stdin without its comments, so a comment edit does not
# count as a layout change.
tokens() { g++ -fpreprocessed -dD -E -P -w -x c++ -; }

# Headers outside src/arch that <rev>'s src/arch reaches.
queue=($(git ls-tree --name-only "$commit" src/arch/))
declare -A seen
shared=()
while ((${#queue[@]})); do
    f=${queue[0]}
    queue=("${queue[@]:1}")
    [[ -n "${seen[$f]:-}" ]] && continue
    seen[$f]=1
    [[ $f == src/arch/* ]] || shared+=("$f")
    for inc in $(git show "$commit:$f" |
                 sed -n 's/^#include "\(.*\)"/\1/p'); do
        if git cat-file -e "$commit:src/$inc" 2>/dev/null; then
            queue+=("src/$inc")
        fi
    done
done

differ=()
for f in src/arch/taskstream.h src/arch/config.h src/arch/stats.h \
         $(printf '%s\n' "${shared[@]}" | sort); do
    if [[ ! -f $f ]] ||
       ! cmp -s <(git show "$commit:$f" 2>/dev/null | tokens) \
                <(tokens <"$f"); then
        differ+=("$f")
    fi
done
if ((${#differ[@]})); then
    echo "abprobe: refusing: $rev and this tree differ in" >&2
    printf '  %s\n' "${differ[@]}" >&2
    echo "abprobe: the probe passes this tree's TaskStream, SimConfig" \
         "and SimStats to $rev's simulate, so these must match" >&2
    exit 2
fi

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
# bench_figure5 links every library the probe needs.
cmake --build build -j "$(nproc)" --target bench_figure5 >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$commit" src | tar -x -C "$tmp"

# The flags of the RelWithDebInfo libraries, minus -g (no codegen
# effect).
cxx=(g++ -std=c++20 -O2 -DNDEBUG)
other=("${cxx[@]}" -I"$tmp/src" -Darch=arch_proto)
pids=()
for src in "$tmp"/src/arch/*.cc; do
    "${other[@]}" -c "$src" -o "$tmp/other_$(basename "$src" .cc).o" &
    pids+=($!)
done
"${other[@]}" -DABPROBE_OTHER -c scripts/abprobe.cc -o "$tmp/bridge.o" &
pids+=($!)
"${cxx[@]}" -Isrc -Ibench -c scripts/abprobe.cc -o "$tmp/main.o" &
pids+=($!)
for pid in "${pids[@]}"; do
    wait "$pid"
done
"${cxx[@]}" -o "$tmp/abprobe" "$tmp"/*.o \
    -Wl,--start-group build/src/*/libmsc_*.a -Wl,--end-group -pthread

"$tmp/abprobe" "$rev"
