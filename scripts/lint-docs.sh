#!/bin/sh
# lint-docs.sh fails when an exported declaration in the audited packages
# (tuner, dtree, core, perf — the auto-tuning API surface — plus serve,
# fleet, apihttp and pkg/client, the serving/fleet API surface, proxy, and
# campaign, the qualification harness, and motif and aimotif, the kernels)
# lacks a preceding doc comment.  It is a grep-level approximation of
# revive's `exported` rule so CI can enforce the godoc contract without
# external dependencies.
set -eu
cd "$(dirname "$0")/.."

status=0
for f in internal/tuner/*.go internal/dtree/*.go internal/core/*.go internal/perf/*.go internal/serve/*.go internal/proxy/*.go internal/campaign/*.go internal/fleet/*.go internal/apihttp/*.go pkg/client/*.go internal/motif/*.go internal/aimotif/*.go; do
  case "$f" in
  *_test.go) continue ;;
  esac
  out=$(awk '
    /^(func|type|var|const) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
      if (prev !~ /^\/\//) print FILENAME ":" FNR ": missing doc comment: " $0
    }
    { prev = $0 }
  ' "$f")
  if [ -n "$out" ]; then
    echo "$out"
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "lint-docs: every exported symbol of the audited packages needs a doc comment (state units and defaults)."
fi
exit $status
