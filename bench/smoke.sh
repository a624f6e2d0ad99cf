#!/usr/bin/env bash
# smoke.sh — CI-sized check: every workload with 1 s windows, traced pass
# and correctness gate included, bounds off. Exits non-zero on any mismatch
# or failed operation. Prints the JSON document to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./bench -smoke "$@"
