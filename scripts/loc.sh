#!/usr/bin/env bash
# Non-test Go lines per package outside benchmark/, and a total: the one
# agreed count for "net line count down". Counts committed files only.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' |
	xargs wc -l | awk '
		$2 != "total" { n = split($2, p, "/"); d = (n == 1) ? "." : substr($2, 1, length($2) - length(p[n]) - 1); pkg[d] += $1; sum += $1 }
		END { for (d in pkg) printf "%7d %s\n", pkg[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", sum }'
