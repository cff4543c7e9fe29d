#!/bin/sh
# loc.sh — counts the module's Go lines the one way CHANGES.md reports
# them: non-test and test files, outside bench/ (a module of its own)
# and outside every testdata/ directory (lint fixtures, fuzz seeds).
#
# Usage: loc.sh [ref]
#   ref  commit to count (default: the working tree, untracked files
#        included)
#
# Prints "non-test N" and "test N", one a line.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
ref=${1:-}

files() {
	if [ -n "$ref" ]; then
		git -C "$root" ls-tree -r --name-only "$ref"
	else
		git -C "$root" ls-files --cached --others --exclude-standard
	fi | grep '\.go$' | grep -v -e '^bench/' -e '\(^\|/\)testdata/'
}

# lines <-v|-e>: the line count of the non-test (-v) or test (-e) files.
lines() {
	files | grep "$1" '_test\.go$' | while read -r f; do
		if [ -n "$ref" ]; then
			git -C "$root" show "$ref:$f"
		elif [ -f "$root/$f" ]; then
			cat "$root/$f"
		fi
	done | wc -l | tr -d ' '
}

echo "non-test $(lines -v)"
echo "test $(lines -e)"
