#!/usr/bin/env bash
# Report-only surface counts (ROADMAP: "lines, options and refusals go
# down"): run from anywhere, prints one markdown table for the tree it
# lives in. Nothing here gates a build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mapfile -t files < <(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort)
lines=$(cat "${files[@]}" | wc -l)
options=$(grep -hE '^func With[A-Z]' "${files[@]}" | wc -l)
engine_options=$(grep -cE '^func With[A-Z]' options.go)
# Error messages that refuse an operation because of the directory's
# layout or the server's mode, not because of the data.
refusals=$(grep -hE 'errors\.New\(|fmt\.Errorf\(|resp\.Err = ' "${files[@]}" |
	grep -cE 'needs? a segmented|monolithic|not a live ingest' || true)
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
| layout/mode refusal messages | $refusals |
| lines of ci.yml | $ci_lines |
| upload-artifact steps in ci.yml | $uploads |
| registered trecbench experiments | $experiments |
EOF
