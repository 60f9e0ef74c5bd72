#!/usr/bin/env bash
# Prints the non-test library functions that no program links: every
# `^func` of the tracked non-test Go files outside bench/, cmd/ and
# examples/ whose symbol appears in none of the eleven binaries built
# from cmd/*, examples/* and bench with inlining off for this module.
#
#   bash .github/reachability.sh          # print the unlinked names
#   bash .github/reachability.sh -check   # fail unless they equal the
#                                         # keep-list beside this script
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for main in cmd/* examples/*; do
	go build -gcflags='repro/...=-l' -o "$out/bin/${main//\//_}" "./$main"
done
go -C bench build -gcflags='repro/...=-l' -o "$out/bin/bench" .

# Text symbols of every binary, with each [...] type-argument list
# stripped by bracket depth: shape names contain spaces and brackets.
for bin in "$out"/bin/*; do go tool nm "$bin"; done |
	sed -nE 's/^ *[0-9a-f]+ [Tt] //p' |
	awk '{ s = ""; d = 0
		for (i = 1; i <= length($0); i++) {
			c = substr($0, i, 1)
			if (c == "[") d++
			else if (c == "]") d--
			else if (d == 0) s = s c
		}
		print s }' | sort -u >"$out/linked"

# Symbol names of the declarations: pkg.F, pkg.T.M or pkg.(*T).M.
git ls-files '*.go' ':!:*_test.go' ':!:bench/' ':!:cmd/' ':!:examples/' |
	while read -r file; do
		dir=$(dirname "$file")
		pkg=repro
		[ "$dir" = . ] || pkg="repro/$dir"
		sed -nE \
			-e 's/^func \(([A-Za-z_0-9]+ )?\*([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*/(*\2).\4/p' \
			-e 's/^func \(([A-Za-z_0-9]+ )?([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*/\2.\4/p' \
			-e 's/^func ([A-Za-z_0-9]+).*/\1/p' "$file" | sed "s|^|$pkg.|"
	done | sort -u >"$out/declared"

comm -23 "$out/declared" "$out/linked" >"$out/unlinked"
if [ "${1:-}" != -check ]; then
	cat "$out/unlinked"
	exit 0
fi
keep=.github/reachability-keep.txt
if ! diff -u <(grep -v -e '^#' -e '^$' "$keep" | sort) "$out/unlinked"; then
	echo "the functions no program links differ from $keep (- kept, + unlinked)" >&2
	exit 1
fi
