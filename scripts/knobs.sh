#!/usr/bin/env bash
# Test-only API gate: fails when an exported field of a `Config` under
# internal/ is set by no non-test code outside its own package — an
# option whose only value in use is its default, which should be a
# constant — or when an exported function or method under internal/
# is used by no non-test code at all, which should be deleted.
# Deliberate exceptions are scripts/knobs_allow.txt, one
# `name reason` line each:
#
#   scripts/knobs.sh
set -euo pipefail
cd "$(dirname "$0")/.."
go run scripts/knobs.go scripts/knobs_allow.txt
