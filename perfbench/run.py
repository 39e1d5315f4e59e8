"""corebist benchmark: run one workload's CLI commands and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the corebist sources under
``src/`` and keeps its scratch files under ``.perfbench_run/``, removing
them when it ends.

A run first checks the benchmark's reference against corebist's scalar
oracle (``selfcheck.py``), then runs rounds until the next round would end
after ``--seconds``. A round times two fresh set-up processes (``setup_s``)
and then each of the workload's commands in a fresh process. Round 1's
reports are checked against the reference; every later round must write
byte-identical reports. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates plain and traced rounds and prints the per-layer
metrics. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
FIX = os.path.join(SRC, "corebist", "fixtures")
WORK = os.path.join(ROOT, ".perfbench_run")

SETUP_SAMPLES = 2

CLI = "import sys; from corebist.cli import main; sys.exit(main())"
SETUP_PROBE = """
import sys
from corebist import bist, circuit
netlist = circuit.load_netlist(sys.argv[1])
plan = bist.BistPlan.load(sys.argv[2])
if len(bist.plan_patterns(netlist, plan, count=int(sys.argv[3]))) != int(sys.argv[3]):
    sys.exit("pattern stream has the wrong length")
"""

END_TO_END = {"report_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "fault_patterns_per_s": "1/s"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("COREBIST_WORKERS", None)
    env["TMPDIR"] = WORK      # keep any temporary files inside the checkout
    return env


def spawn(argv, out_dir):
    """Run argv to completion; (wall s, peak RSS MiB, exit code, stdout).

    ``wait4`` reports the largest resident set of the process and of every
    descendant it waited for, so pool workers count too.
    """
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".stdout"), "w+") as out, \
            open(os.path.join(out_dir, ".stderr"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, text


def measure_setup(setup, work, samples):
    """Wall times of ``samples`` fresh set-up processes."""
    bench, plan, count = setup
    argv = [sys.executable, "-c", SETUP_PROBE, bench, plan, str(count)]
    times = []
    for _ in range(samples):
        wall, _, code, _ = spawn(argv, os.path.join(work, "setup"))
        if code != 0:
            raise RuntimeError("set-up probe failed")
        times.append(wall)
    return times


def run_round(wl, work, index, traced):
    """Run every op once; per-op (wall, rss, code, stdout, out dir, spans)."""
    results = []
    for op in wl.ops:
        out_dir = os.path.join(work, f"round{index}", op.label)
        os.makedirs(out_dir, exist_ok=True)
        if traced:
            spans = os.path.join(out_dir, ".spans")
            argv = [sys.executable, os.path.join(HERE, "trace_shim.py"), spans]
        else:
            spans = None
            argv = [sys.executable, "-c", CLI]
        wall, rss, code, text = spawn(argv + op.args + ["--out", out_dir], out_dir)
        results.append({"wall": wall, "rss": rss, "code": code, "stdout": text,
                        "dir": out_dir, "spans": spans})
    return {"traced": traced, "ops": results,
            "report_s": sum(r["wall"] for r in results),
            "rss": max(r["rss"] for r in results)}


def judge(wl, rounds):
    """Per-round, per-op pass/fail plus the problems found."""
    first = rounds[0]["ops"]
    verdicts, problems = [], []
    for op, res in zip(wl.ops, first):
        found = [f"exit code {res['code']}"] if res["code"] else []
        if not found:
            try:
                found = op.check(res["dir"], res["stdout"])
            except Exception as e:   # a malformed report fails its operation
                found = [f"check could not read the report: {e!r}"]
        verdicts.append(not found)
        problems += [f"{op.label}: {p}" for p in found]
    table = [verdicts]
    for rnd in rounds[1:]:
        row = []
        for op, res, ok, ref_res in zip(wl.ops, rnd["ops"], verdicts, first):
            same = res["code"] == ref_res["code"] and all(
                filecmp.cmp(os.path.join(res["dir"], f),
                            os.path.join(ref_res["dir"], f), shallow=False)
                for f in op.outputs)
            if not same:
                problems.append(f"{op.label}: output differs from round 1")
            row.append(ok and same)
        table.append(row)
    return table, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description="corebist benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "corebist", "cli.py")):
        print("error: run from the root of a corebist checkout "
              "(src/corebist not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import layers
    import selfcheck
    import workloads
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = workloads.BUILDERS[args.workload](FIX, work, args.seed)
        self_problems = selfcheck.run(SRC)
        measure_setup(wl.setup, work, 1)   # warms the byte-code cache
        setup_times = []

        rounds = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            # set-up samples spread over the run, so one slow spell of the
            # host does not decide the median
            setup_times += measure_setup(wl.setup, work, SETUP_SAMPLES)
            rounds.append(run_round(wl, work, len(rounds), traced))
            took = time.perf_counter() - t0
            need_traced = args.trace and len(rounds) < 2
            if not need_traced and time.perf_counter() + took > deadline:
                break

        table, problems = judge(wl, rounds)
        problems = [f"self-check: {p}" for p in self_problems] + problems
        attempted = sum(len(row) for row in table)
        failed = sum(row.count(False) for row in table)
        unexpected = [op.label for row in table for op, ok in zip(wl.ops, row)
                      if not ok and not op.known_fault]
        correct = not self_problems and not unexpected
        for op, ok in zip(wl.ops, table[0]):
            if op.known_fault and ok:
                print(f"note: known fault no longer shows: {op.label}",
                      file=sys.stderr)
        for p in problems:
            print("problem:", p, file=sys.stderr)

        plain = [r for r in rounds if not r["traced"]]
        report_s = statistics.median(r["report_s"] for r in plain)
        if args.trace:
            metrics = layers.metrics([r for r in rounds if r["traced"]], report_s)
            units = layers.UNITS
        else:
            pairs = sum(op.pairs(res["dir"]) for op, res, ok in
                        zip(wl.ops, rounds[0]["ops"], table[0]) if ok)
            metrics = {"report_s": report_s,
                       "setup_s": statistics.median(setup_times),
                       "peak_rss_mib": statistics.median(r["rss"] for r in plain),
                       "fault_patterns_per_s": pairs / report_s}
            units = END_TO_END
        print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
              f"({len(plain)} plain), round report_s "
              + ", ".join(f"{r['report_s']:.3f}" for r in rounds))
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units[name]}")
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
