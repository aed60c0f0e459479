#!/usr/bin/env bash
# The performance gate: measures a base commit and the working tree with
# the benchmark each of them carries (bash bench/run.sh, BENCHMARK.json's
# command), three runs a side in alternating order so a drifting machine
# hits both alike, and lets the working tree's `-compare` judge the sets.
#
#	scripts/bench-gate.sh <base-commit>
#
# Exit status: 0 every metric agrees, 2 none worse but some unresolved (the
# runs spread too widely to tell), 1 some metric is worse — or anything
# else went wrong. The six result documents stay in bench/out/gate/.
set -euo pipefail
trap 'exit 1' ERR
base=${1:?usage: scripts/bench-gate.sh <base-commit>}
cd "$(dirname "${BASH_SOURCE[0]}")/.."
head=$PWD
out=$head/bench/out/gate
rm -rf "$out"
mkdir -p "$out"

tree=$(mktemp -d)
trap 'rm -rf "$tree"; git worktree prune' EXIT
git worktree add --quiet --detach "$tree" "$base"

for i in 1 2 3; do
	sides=(base head)
	((i % 2)) || sides=(head base)
	for side in "${sides[@]}"; do
		dir=$head
		[[ $side == base ]] && dir=$tree
		echo "bench-gate: pair $i, $side" >&2
		(cd "$dir" && bash bench/run.sh -out "$out/$side$i.json" >/dev/null)
	done
done

verdict=0
bench/.build/x100bench -compare \
	"$out/base1.json,$out/base2.json,$out/base3.json" \
	"$out/head1.json,$out/head2.json,$out/head3.json" | tee "$out/compare.txt" || verdict=$?
{
	echo "### bench gate against $base: exit $verdict (0 agree, 1 worse, 2 unresolved)"
	echo '```'
	cat "$out/compare.txt"
	echo '```'
} >>"${GITHUB_STEP_SUMMARY:-/dev/null}"
exit "$verdict"
