#!/bin/sh
# Prints the non-test Go lines of every package in the module (bench/ and
# testdata/ excluded), the lint toolchain's subtotal (internal/analysis*,
# internal/analyzers*, cmd/lintscape) and the total and, given a base ref,
# each line's delta against it. CI runs it against the merge base.
#
#	sh tools/loc.sh [base-ref]
set -eu

# loc DIR: "package lines" for every package under DIR, then "toolchain
# lines" and "total lines".
loc() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -exec wc -l {} + |
		awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1; t += $1
				if (d ~ /^\.\/internal\/analy(sis|zers)(\/|$)/ || d == "./cmd/lintscape") tc += $1 }
			END { for (d in n) print d, n[d]; print "toolchain", tc; print "total", t }' | sort)
}

if [ $# -eq 0 ]; then
	loc . | awk '{ printf "%7d  %s\n", $2, $1 }'
	exit
fi

base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$1" | tar -x -C "$base"
loc "$base" >"$base/.loc"
loc . | awk -v basefile="$base/.loc" '
	BEGIN { while ((getline line < basefile) > 0) { split(line, f, " "); was[f[1]] = f[2] } }
	{ printf "%7d  %+6d  %s\n", $2, $2 - was[$1], $1; seen[$1] = 1 }
	END { for (d in was) if (!(d in seen)) printf "%7d  %+6d  %s (removed)\n", 0, -was[d], d }'
