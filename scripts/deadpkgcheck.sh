#!/bin/sh
# Dead-package gate: every package under internal/ must be imported by at
# least one non-test package of the module. A package reachable only from
# its own tests is dead code that still costs review, build and test time.
#
# Usage: sh scripts/deadpkgcheck.sh   (GO overrides the go binary)
set -eu
GO=${GO:-go}
module=$($GO list -m)
imports=$($GO list -f '{{range .Imports}}{{.}}
{{end}}' ./... | sort -u)
fail=0
for pkg in $($GO list "./internal/..."); do
	if ! printf '%s\n' "$imports" | grep -qx "$pkg"; then
		echo "deadpkgcheck: $pkg has no non-test importer"
		fail=1
	fi
done
if [ $fail -ne 0 ]; then
	exit 1
fi
echo "deadpkgcheck: every internal package of $module has a non-test importer"
