#!/usr/bin/env bash
# Surface counts (ROADMAP: "lines, options and refusals go down"): run from
# anywhere, prints one markdown table for the tree it lives in.
#
#	scripts/surface.sh [--max-options N] [--max-refusals N] [--max-persisted-refusals N]
#
# Report only, except under the bounds: more than N exported With* options
# (--max-options), more than N layout/mode refusal messages
# (--max-refusals), or more than N persisted-only / cannot-reconfigure
# refusal messages (--max-persisted-refusals), exits 1, so CI lets each
# count fall in any change but rise only in one that edits N in the same
# diff.
set -euo pipefail
usage='usage: scripts/surface.sh [--max-options N] [--max-refusals N] [--max-persisted-refusals N]'
max_options= max_refusals= max_persisted_refusals=
while (($#)); do
	case $1 in
	--max-options) max_options=${2:?$usage} ;;
	--max-refusals) max_refusals=${2:?$usage} ;;
	--max-persisted-refusals) max_persisted_refusals=${2:?$usage} ;;
	*) echo "$usage" >&2 && exit 2 ;;
	esac
	shift 2
done
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mapfile -t files < <(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort)
lines=$(cat "${files[@]}" | wc -l)
options=$(grep -hE '^func With[A-Z]' "${files[@]}" | wc -l)
engine_options=$(grep -cE '^func With[A-Z]' options.go)
# Functional-option types: each is one more place a knob can be declared.
option_types=$(grep -hE '^type ([A-Z][A-Za-z]*)?Option func\(' "${files[@]}" | wc -l)
# Error messages that refuse an operation because of the directory's
# layout, its statistics or the server's mode, not because of the data.
refusals=$(grep -hE 'errors\.New\(|fmt\.Errorf\(|resp\.Err = ' "${files[@]}" |
	grep -cE 'needs? a segmented|monolithic|not a live ingest|does not own its statistics|served from memory|in-memory index|unsupported for this layout' || true)
# ... and those that refuse an option because of how the engine was opened.
persisted_refusals=$(grep -hE 'errors\.New\(|fmt\.Errorf\(' "${files[@]}" |
	grep -cE 'needs a persisted index|cannot reconfigure' || true)
ci=.github/workflows/ci.yml
ci_lines=$(wc -l <"$ci")
uploads=$(grep -c 'uses: actions/upload-artifact' "$ci" || true)
# Names in the -experiment help string, which lists every experiment.
experiments=$(go run ./cmd/trecbench -h 2>&1 | grep -oE '[a-z0-9]+(\|[a-z0-9]+)+' | head -1 |
	tr '|' '\n' | grep -vcx all || true)
cat <<EOF
| surface | count |
|---|---|
| non-test Go lines outside bench/ | $lines |
| exported With* options (all packages) | $options |
| exported With* engine options (options.go) | $engine_options |
| functional-option types | $option_types |
| layout/mode refusal messages | $refusals |
| persisted-only / cannot-reconfigure refusal messages | $persisted_refusals |
| lines of ci.yml | $ci_lines |
| upload-artifact steps in ci.yml | $uploads |
| registered trecbench experiments | $experiments |
EOF
status=0
if [[ -n $max_options ]] && ((options > max_options)); then
	echo "surface.sh: $options exported With* options, the bound is $max_options: delete one, or raise --max-options in ci.yml in this same change and say why" >&2
	status=1
fi
if [[ -n $max_refusals ]] && ((refusals > max_refusals)); then
	echo "surface.sh: $refusals layout/mode refusal messages, the bound is $max_refusals: merge the mode that refuses, or raise --max-refusals in ci.yml in this same change and say why" >&2
	status=1
fi
if [[ -n $max_persisted_refusals ]] && ((persisted_refusals > max_persisted_refusals)); then
	echo "surface.sh: $persisted_refusals persisted-only / cannot-reconfigure refusal messages, the bound is $max_persisted_refusals: let every entry point take the option, or raise --max-persisted-refusals in ci.yml in this same change and say why" >&2
	status=1
fi
exit $status
