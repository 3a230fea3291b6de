#!/usr/bin/env bash
# Run every example experiment config from this source checkout and list
# the verdict lines of this run, each config with its wall seconds. Exits 1
# if any run exits non-zero or prints a [FAIL] verdict (dispersia run keeps
# verdicts out of its own exit code). Output goes to DISPERSIA_OUTPUT_ROOT
# (default: ./results).
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
export PYTHONPATH="$here/../src${PYTHONPATH:+:$PYTHONPATH}"
export DISPERSIA_OUTPUT_ROOT="${DISPERSIA_OUTPUT_ROOT:-./results}"

status=0
verdicts=()
for cfg in "$here"/configs/*.cfg; do
    name="$(basename "$cfg" .cfg)"
    code=0
    start="$(date +%s.%N)"
    out="$(python3 -m dispersia.cli run "$cfg")" || code=$?
    seconds="$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')"
    echo "== $name (${seconds} s)"
    printf '%s\n' "$out"
    while IFS= read -r line; do
        verdicts+=("$name (${seconds} s): $line")
    done < <(grep -E '^\[(PASS|FAIL)\]' <<<"$out" || true)
    if [ "$code" -ne 0 ]; then
        verdicts+=("$name (${seconds} s): exit code $code")
        status=1
    fi
    if grep -q '^\[FAIL\]' <<<"$out"; then
        status=1
    fi
    echo
done

echo "== verdicts of this run"
printf '%s\n' "${verdicts[@]}"
exit "$status"
