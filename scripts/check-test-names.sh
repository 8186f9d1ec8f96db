#!/usr/bin/env bash
# check-test-names.sh fails when a name in a -run, -fuzz or -bench pattern
# of the CI workflows or of a SKILL.md recipe in the repository matches no
# test, fuzz target or benchmark of the module. go test runs nothing for
# such a pattern and passes, so a renamed or deleted test would drop out of
# its gate unseen.
#
# Usage: bash scripts/check-test-names.sh [file ...]
#
# Each |-separated alternative of a pattern is checked on its own, up to
# its first '/' (a subtest), as an extended regular expression against the
# names `go test -list` prints. '^$', 'NONE' and '.' are taken as meant.
set -euo pipefail
cd "$(dirname "$0")/.."
files=("$@")
if [ ${#files[@]} -eq 0 ]; then
  mapfile -t files < <(git ls-files '.github/workflows/*.yml' '*SKILL.md')
fi

names=$(go test -list '.*' ./... | grep -E '^(Test|Fuzz|Benchmark|Example)')
status=0
for f in "${files[@]}"; do
  patterns=$(grep -oE -- "(^|[[:space:]])-(run|fuzz|bench)[= ]+('[^']*'|\"[^\"]*\"|[^[:space:]]+)" "$f" |
    sed -E "s/^[[:space:]]*-(run|fuzz|bench)[= ]+//; s/^['\"]//; s/['\"]$//")
  while read -r pattern; do
    IFS='|' read -ra alts <<<"$pattern"
    for alt in "${alts[@]}"; do
      alt=${alt%%/*}
      case "$alt" in '' | '^$' | NONE | .) continue ;; esac
      if ! grep -qE -- "$alt" <<<"$names"; then
        echo "$f: '$alt' (in -run/-fuzz/-bench '$pattern') matches no test" >&2
        status=1
      fi
    done
  done <<<"$patterns"
done
exit $status
