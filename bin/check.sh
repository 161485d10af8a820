#!/bin/sh
# Tier-1 gate for this repo (documented in README): full build, the
# test suite — including the golden stdout byte-compares in test/ —
# and the smoke cases in bin/smoke.sh (multicore, obs + obs-check,
# cache, fault/retry, checkpoint/resume, domain-count identity,
# serve).  bin/smoke.sh is the single source of truth for the smoke
# cases: this wrapper only builds and hands it the artifacts (the
# bin/dune `smokes` alias runs the same script under dune, so
# `dune build @check` composes the same three pieces).
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== smokes (bin/smoke.sh) =="
sh bin/smoke.sh _build/default/bin/potx.exe _build/default/bench/main.exe \
  test/serve_script_c17.jsonl test/golden/serve_script_c17.txt BENCH_perf.json

# Perf-regression gate: fresh quick perf bench diffed against the
# committed BENCH_perf.json.  Non-fatal warnings by default;
# POTX_PERF_GATE=1 makes timing regressions fail the build
# (identical:false correctness failures are fatal either way).
echo "== perfdiff (bin/perfdiff.sh) =="
sh bin/perfdiff.sh _build/default/bin/potx.exe _build/default/bench/main.exe \
  BENCH_perf.json
