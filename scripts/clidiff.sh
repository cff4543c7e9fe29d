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
#   name        one figure name to compare (default: every figure
#               either side's cachepart lists, all but "all": the
#               working tree's in its order, then those only the
#               parent has)
#
# Prints "same" or "DIFF" per figure, with the diff of each that
# differs, "GONE" for a figure only the parent lists and "NEW" for one
# only the working tree lists, and exits 1 if any differed or was
# listed on one side only.
set -eu

if [ $# -lt 1 ]; then
	sed -n '2,18p' "$0" >&2
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
names() {
	n=$("$tmp/cachepart_$1" -help 2>&1 | sed -n 's/^usage: cachepart \[flags\] <\(.*\)>$/\1/p' | tr '|' ' ')
	echo "${n% all}"
}
old=$(names parent)
new=$(names change)

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

# check <name> <args...>: compares a figure both sides list, and
# names one that only one side lists.
check() {
	case " $old " in
	*" $1 "*) ;;
	*)
		echo "NEW   $1"
		failed="$failed $1"
		return
		;;
	esac
	case " $new " in
	*" $1 "*) ;;
	*)
		echo "GONE  $1"
		failed="$failed $1"
		return
		;;
	esac
	compare "$@"
}

# A trailing figure name narrows the run to that figure; its args
# already end in the name.
last=
if [ $# -gt 0 ]; then
	eval "last=\${$#}"
fi
case " $new $old " in
*" ${last:-all} "*) check "$last" "$@" ;;
*)
	for name in $(printf '%s\n' $new $old | awk '!seen[$0]++'); do
		check "$name" "$@" "$name"
	done
	;;
esac

if [ -n "$failed" ]; then
	echo "clidiff: output differs from $ref for:$failed" >&2
	exit 1
fi
