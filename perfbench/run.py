#!/usr/bin/env python3
"""Repository benchmark: three workloads of the post-OPC timing flow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the repository root.  Builds perfbench/pass.exe with dune, then
runs workload passes, each in a fresh process with every POTX_* variable
removed from its environment, so a pass's peak RSS, tile cache and
calibration memo are its own.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 runs untraced passes while the next one still fits in --seconds
(at least one) and reports the medians of the end-to-end metrics.
--trace 1 runs one untraced and one traced pass and reports the per-layer
ledger of the traced pass (see README.md).

Each pass hashes the output its user sees; a digest that differs from the
one in expected.json makes the run incorrect and counts every operation of
that pass as failed.  --record re-runs every workload (all serve_mix script
variants) and rewrites expected.json; use it only after a deliberate
change of program output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "pass.exe")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("flow_cold", "window_ssta", "serve_mix")
# serve_mix draws its request script from one of this many script seeds
# (seed mod SCRIPT_VARIANTS), each with its own recorded digest.
SCRIPT_VARIANTS = 16
BUILD_TIMEOUT_S = 850
PASS_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("POTX_")}


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from a full checkout" % ROOT)
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/pass.exe"],
            cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout)
        fail("build failed")


def script_seed(workload, seed):
    return seed % SCRIPT_VARIANTS if workload == "serve_mix" else seed


def run_pass(workload, seed, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(script_seed(workload, seed)),
           "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s pass timed out" % workload)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("%s pass exited with %d" % (workload, p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def expected_digest(expected, workload, seed):
    want = expected.get(workload)
    if workload == "serve_mix":
        return want[seed % SCRIPT_VARIANTS] if want else None
    return want


def quantile(xs, q):
    """Nearest-rank quantile of a non-empty list."""
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes):
    med = lambda key: statistics.median(p[key] for p in passes)
    return {
        "wall_s": metric(med("wall_s"), "s"),
        "setup_s": metric(med("setup_s"), "s"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
    }


def per_layer(plain, traced):
    """Ledger of the traced pass plus figures taken from the untraced one."""
    absent = list(traced["absent"])
    out = dict(traced["ledger"])
    out["trace.overhead_frac"] = metric(traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    out["fail_frac"] = metric(failed / attempted, "ratio")
    # serve_mix request latencies, from the untraced pass.
    lat = plain["latencies_s"]
    for name, kind, q, scale, unit in (
            ("move_p50_s", "move", 0.5, 1.0, "s"),
            ("corner_p50_s", "corner", 0.5, 1.0, "s"),
            ("read_p50_us", "read", 0.5, 1e6, "us"),
            ("read_p99_us", "read", 0.99, 1e6, "us")):
        xs = lat.get(kind, [])
        if xs:
            out[name] = metric(quantile(xs, q) * scale, unit)
        else:
            out[name] = metric(0.0, unit)
            absent.append(name)
    for kind in ("read", "corner", "move"):
        name = "serve.script.%s" % kind
        if kind in plain["mix"]:
            out[name] = metric(plain["mix"][kind], "count")
        else:
            out[name] = metric(0, "count")
            absent.append(name)
    return out, sorted(set(absent))


def record():
    build()
    expected = {}
    for w in ("flow_cold", "window_ssta"):
        expected[w] = run_pass(w, 0, 0)["digest"]
        print("%s %s" % (w, expected[w]), file=sys.stderr)
    expected["serve_mix"] = []
    for s in range(SCRIPT_VARIANTS):
        expected["serve_mix"].append(run_pass("serve_mix", s, 0)["digest"])
        print("serve_mix[%d] %s" % (s, expected["serve_mix"][-1]), file=sys.stderr)
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from the current program")
    args = ap.parse_args()
    if args.record:
        record()
        return
    if args.workload is None:
        ap.error("--workload is required")
    try:
        with open(EXPECTED) as f:
            expected = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read expected digests: %s" % e)
    build()

    w, seed = args.workload, args.seed
    passes = []
    start = time.monotonic()
    if args.trace == 0:
        longest = 0.0
        while not passes or time.monotonic() - start + longest <= args.seconds:
            t0 = time.monotonic()
            passes.append(run_pass(w, seed, 0))
            longest = max(longest, time.monotonic() - t0)
    else:
        passes = [run_pass(w, seed, 0), run_pass(w, seed, 1)]

    want = expected_digest(expected, w, seed)
    correct = True
    attempted = failed = 0
    for p in passes:
        attempted += p["attempted"]
        if p["digest"] != want:
            correct = False
            failed += p["attempted"]
            print("perfbench: %s digest %s, expected %s" % (w, p["digest"], want),
                  file=sys.stderr)
        else:
            failed += p["failed"]
    if failed:
        correct = False

    print("perfbench: %s seed %d: %d pass(es), %.1f s" %
          (w, seed, len(passes), time.monotonic() - start))
    if args.trace == 0:
        metrics = end_to_end(passes)
    else:
        metrics, absent = per_layer(passes[0], passes[1])
        print("perfbench: absent: %s" % (" ".join(absent) or "none"))
    if passes[0]["mix"]:
        print("perfbench: verb mix: %s" % json.dumps(passes[0]["mix"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
