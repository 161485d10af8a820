#!/bin/sh
# Tier-1 gate for this repo (documented in README): full build, the
# test suite — including the golden stdout byte-compares in test/ —
# the smoke cases in bin/smoke.sh (multicore, obs + obs-check,
# checkpoint/resume, domain-count identity, serve), and
# one perfbench correctness pass per workload.  bin/smoke.sh is the
# single source of truth for the smoke cases: this wrapper only builds
# and hands it the artifacts (the bin/dune `smokes` alias runs the
# same script under dune, so `dune build @check` composes the first
# three pieces).
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== smokes (bin/smoke.sh) =="
sh bin/smoke.sh _build/default/bin/potx.exe _build/default/bench/main.exe \
  test/serve_script_c17.jsonl test/golden/serve_script_c17.txt

# Output gate on the benchmark workloads: one untimed pass each, whose
# output digest must match perfbench/expected.json.  Fatal on any
# host; timing is judged by the benchmark itself, not here.
for w in flow_cold window_ssta serve_mix; do
  echo "== perfbench correctness: $w =="
  out=$(python3 perfbench/run.py --workload "$w" --seconds 0 --trace 0)
  printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ok = r["correct"] and r["failed"] == 0
print("perfbench %s: correct=%s attempted=%d failed=%d%s"
      % (sys.argv[1], r["correct"], r["attempted"], r["failed"],
         "" if ok else " -- FAILED"))
sys.exit(0 if ok else 1)
' "$w"
done
echo "check.sh: OK"
