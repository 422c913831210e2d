#!/bin/sh
# gatecheck.sh TARGET...: check that every test gate still selects what its
# -run pattern names. For each Makefile target, it takes the go test commands
# the target runs (make -n), splits each -run pattern into its alternatives,
# and lists with go test -list the tests each alternative matches in that
# command's packages. It fails when an alternative matches no test, which is
# what a renamed or deleted test leaves behind.
#
# Run it through the Makefile: make gate-check.
set -euf

make=${MAKE:-make}
failed=0
for target in "$@"; do
	cmds=$($make -s -n "$target") || exit 1
	echo "$cmds" | grep '^go test ' >/dev/null || {
		echo "gatecheck: $target runs no go test command"
		exit 1
	}
	echo "$cmds" | grep '^go test ' | while IFS= read -r cmd; do
		eval "set -- $cmd"
		shift 2 # go test
		run='' pkgs=''
		while [ $# -gt 0 ]; do
			case $1 in
			-run) run=$2; shift 2 ;;
			-*) shift ;;
			*) pkgs="$pkgs $1"; shift ;;
			esac
		done
		if [ -z "$run" ]; then
			echo "gatecheck: $target: no -run pattern in: $cmd"
			exit 1
		fi
		for alt in $(echo "$run" | tr '|' ' '); do
			# shellcheck disable=SC2086 # pkgs is a word list
			listed=$(go test -list "$alt" $pkgs) || exit 1
			n=$(echo "$listed" | grep -c -E '^(Test|Fuzz|Example|Benchmark)') || true
			if [ "$n" -eq 0 ]; then
				echo "gatecheck: $target: -run alternative $alt matches no test in$pkgs"
				exit 1
			fi
			echo "$target: $alt: $n"
		done
	done || failed=1
done
exit $failed
