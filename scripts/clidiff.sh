#!/bin/sh
# clidiff.sh — checks that a change leaves the figure CLI's output
# alone: it builds cachepart at the parent commit and from the working
# tree, runs `cachepart -fast [flags] <name>` on both, and compares
# their stdout minus the "completed in" footer, the one line that
# carries host timing.
#
# Usage: clidiff.sh <parent-ref> [flags...] [name]
#   parent-ref  commit to compare the working tree against
#   flags       cachepart flags passed to both sides, e.g. -retries 1
#   name        one figure name to compare (default: every figure the
#               working tree's cachepart lists, all but "all")
#
# Prints "same" or "DIFF" per figure, with the diff of each that
# differs, and exits 1 if any differed.
set -eu

if [ $# -lt 1 ]; then
	sed -n '2,15p' "$0" >&2
	exit 2
fi
ref=$1
shift

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
go build -C "$tmp/parent" -o "$tmp/cachepart_parent" ./cmd/cachepart
go build -C "$root" -o "$tmp/cachepart_change" ./cmd/cachepart

# The usage line lists the figure names: "usage: cachepart [flags] <a|b|...|all>".
names=$("$tmp/cachepart_change" -help 2>&1 | sed -n 's/^usage: cachepart \[flags\] <\(.*\)>$/\1/p' | tr '|' ' ')
names=${names% all}

# compare <name> <args...>: runs both sides with -fast <args...> and
# diffs their stdout minus the footer, plus each side's exit status.
failed=
compare() {
	name=$1
	shift
	for side in parent change; do
		status=0
		"$tmp/cachepart_$side" -fast "$@" >"$tmp/$side.raw" 2>"$tmp/$side.err" || status=$?
		{
			grep -v 'completed in [0-9.]*s)$' "$tmp/$side.raw" || true
			echo "exit status $status"
		} >"$tmp/$side.out"
	done
	if diff -u "$tmp/parent.out" "$tmp/change.out" >"$tmp/diff"; then
		echo "same  $name"
	else
		echo "DIFF  $name"
		cat "$tmp/diff" "$tmp/parent.err" "$tmp/change.err"
		failed="$failed $name"
	fi
}

# A trailing figure name narrows the run to that figure; its args
# already end in the name.
last=
if [ $# -gt 0 ]; then
	eval "last=\${$#}"
fi
case " $names " in
*" ${last:-all} "*) compare "$last" "$@" ;;
*)
	for name in $names; do
		compare "$name" "$@" "$name"
	done
	;;
esac

if [ -n "$failed" ]; then
	echo "clidiff: output differs from $ref for:$failed" >&2
	exit 1
fi
