"""The four workloads: which corebist commands run, and how each report is
checked against the independent reference.

Every check recomputes the expected figures from the inputs with
``reference.py``; no check compares against a stored copy of an earlier
output. A check returns a list of problems (empty when the report holds).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import gen_inputs
import reference as ref

CORE_DIAGNOSE_PATTERNS = 64
MINI10_SIGNATURE_PATTERNS = 16
SEQ_WORKERS = 2


@dataclass
class Op:
    """One corebist command; run.py appends ``--out DIR``."""

    label: str
    args: list
    outputs: list                 # files written to --out, compared across rounds
    check: object                 # (out_dir, stdout text) -> [problem, ...]
    pairs: object                 # out_dir -> fault x pattern pairs decided
    known_fault: str = None       # why this operation fails on every run


@dataclass
class Workload:
    ops: list
    setup: tuple                  # (bench, plan, pattern count) a command loads


def _load_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _differs(what, got, want):
    return [] if got == want else [f"{what}: report {got!r}, reference {want!r}"]


# -- coverage tables (bist, faultsim) -------------------------------------------

def _coverage_problems(report, cov, count):
    problems = []
    for kind, want in cov.items():
        got = {}
        for block, entry in report["coverage"].items():
            if kind in entry:
                row = entry[kind]
                got[block] = [row["faults"], row["detected"]]
                if row["fc_percent"] != round(100.0 * row["detected"] / row["faults"], 2):
                    problems.append(f"{kind} {block}: fc_percent inconsistent")
                if entry["clock_cycles"] != count:
                    problems.append(f"{block}: clock_cycles {entry['clock_cycles']}")
        problems += _differs(f"{kind} [faults, detected] per block", got, want)
    return problems


def _coverage_pairs(report):
    return sum(entry[k]["faults"] * entry["clock_cycles"]
               for entry in report["coverage"].values()
               for k in ("SAF", "TDF") if k in entry)


# -- diagnosis reports --------------------------------------------------------

_FIGURES = ("fault_count", "class_count", "max_size", "mean_size",
            "mean_size_with_undetected", "undetected")


def _class_problems(report, figures, count, granularity, unassigned):
    overall_want, blocks_want = figures
    problems = _differs("header pattern_count", report["pattern_count"], count)
    rows = {"overall": report["overall"], **report["per_block"]}
    for name, row in rows.items():
        problems += _differs(f"{name} pattern_count", row["pattern_count"], count)
        problems += _differs(f"{name} granularity", row["granularity"], granularity)
        detected = row["fault_count"] - row["undetected"]
        # the classes partition the detected faults
        if round(row["mean_size"] * row["class_count"]) != detected or \
                row["max_size"] > detected or row["class_count"] > detected:
            problems.append(f"{name}: classes do not partition {detected} faults")
    problems += _differs("overall figures",
                         {k: report["overall"][k] for k in _FIGURES}, overall_want)
    problems += _differs("per-block figures",
                         {b: {k: r[k] for k in _FIGURES}
                          for b, r in report["per_block"].items()}, blocks_want)
    for key in ("fault_count", "undetected"):
        total = sum(r[key] for r in report["per_block"].values()) + unassigned[key]
        problems += _differs(f"per-block {key} sum", total, report["overall"][key])
    return problems


def _unassigned(net, detected):
    owner = ref.block_of(net)
    idx = [i for i, f in enumerate(ref.collapsed(net)) if owner[f[0]] == "-"]
    return {"fault_count": len(idx),
            "undetected": sum(1 for i in idx if not detected[i])}


def _diagnosis_pairs(out_dir):
    overall = _load_json(out_dir, "diagnosis_report.json")["overall"]
    return overall["fault_count"] * overall["pattern_count"]


def pattern_classes(net, sim):
    syndromes = [sim.detection(f) for f in ref.collapsed(net)]
    detected = [s != 0 for s in syndromes]
    return ref.class_figures(net, syndromes, detected), detected


def signature_classes(net, plan, sim, count):
    golden = ref.session_signatures(net, plan, count, lambda n: sim.value[n])
    ports = {n for b in net.blocks for n in b[2]}
    syndromes = []
    for f in ref.collapsed(net):
        if sim.planes is not None and not ports & set(sim.planes.faulty(f)):
            syndromes.append(tuple(golden))   # no block output ever differs
        else:
            syndromes.append(tuple(ref.session_signatures(
                net, plan, count, sim.plane_under(f))))
    detected = [s != tuple(golden) for s in syndromes]
    return ref.class_figures(net, syndromes, detected), detected


def diagnose_check(bench, plan_path, count, granularity):
    def check(out_dir, stdout):
        net, plan = ref.load(bench, plan_path)
        sim = ref.Simulation(net, ref.input_planes(net, plan, count), count)
        if granularity == "pattern":
            figures, detected = pattern_classes(net, sim)
        else:
            figures, detected = signature_classes(net, plan, sim, count)
        report = _load_json(out_dir, "diagnosis_report.json")
        return _class_problems(report, figures, count, granularity,
                               _unassigned(net, detected))
    return check


# -- workloads ------------------------------------------------------------------

def core_bist(fix, work, seed):
    bench = os.path.join(fix, "ldpc_like_core.bench")
    plan_path = os.path.join(fix, "ldpc_like_core.plan.json")
    trace = os.path.join(fix, "golden_session.trace")
    cache = {}

    def expected():
        if not cache:
            net, plan = ref.load(bench, plan_path)
            count = plan.pattern_count
            sim = ref.Simulation(net, ref.input_planes(net, plan, count), count)
            cache.update(net=net, plan=plan, count=count, cov=ref.coverage(net, sim),
                         sigs=ref.session_signatures(net, plan, count,
                                                     lambda n: sim.value[n]))
        return cache

    def check_bist(out_dir, stdout):
        e = expected()
        r = _load_json(out_dir, "bist_report.json")
        problems = _differs("patterns_applied", r["patterns_applied"], e["count"])
        problems += _differs("signatures",
                             [int(s["value"], 16) for s in r["signatures"]], e["sigs"])
        problems += _differs("pass", r["pass"],
                             [s == g for s, g in zip(e["sigs"], e["plan"].golden)])
        if not all(r["pass"]):
            problems.append("self-test does not pass against the plan's golden values")
        return problems + _coverage_problems(r, e["cov"], e["count"])

    def check_tap(out_dir, stdout):
        e = expected()
        problems = [] if "TDO matches golden trace" in stdout else \
            ["tap did not report a TDO match"]
        scans = ref.tap_scans(ref.read_trace(os.path.join(out_dir, "tap_trace.out")))
        select, count, reads = 0, None, []
        for ir, tdi, tdo in scans:
            if ir == 0b010 and tdi >> 12 == 0x2:       # WCDR SET_COUNT
                count = (tdi & 0xFFF) or 1 << e["plan"].counter_width
            elif ir == 0b010 and tdi >> 12 == 0x4:     # WCDR SELECT
                select = tdi & 0x3
            elif ir == 0b011:                          # WDR read
                reads.append((select, tdo >> 16, tdo & 0xFFFF))
        problems += _differs("session pattern count", count, e["count"])
        problems += _differs("WDR reads (select, status, slice)", reads,
                             [(s, 2, e["sigs"][s] & 0xFFFF) for s in range(3)])
        return problems

    return Workload(
        ops=[Op("bist", ["bist", bench, "--plan", plan_path, "--workers", "1"],
                ["bist_report.json"], check_bist,
                lambda d: _coverage_pairs(_load_json(d, "bist_report.json"))),
             Op("tap", ["tap", trace, bench, "--plan", plan_path,
                        "--expect", trace, "--workers", "1"],
                ["tap_trace.out"], check_tap, lambda d: 0)],
        setup=(bench, plan_path, 4096))


def core_diagnose(fix, work, seed):
    bench = os.path.join(fix, "ldpc_like_core.bench")
    plan_path = os.path.join(fix, "ldpc_like_core.plan.json")
    n = CORE_DIAGNOSE_PATTERNS
    return Workload(
        ops=[Op("diagnose", ["diagnose", bench, "--plan", plan_path,
                             "--patterns", str(n), "--workers", "1"],
                ["diagnosis_report.json"],
                diagnose_check(bench, plan_path, n, "pattern"), _diagnosis_pairs)],
        setup=(bench, plan_path, n))


def cu_signature_diagnose(fix, work, seed):
    bench = os.path.join(fix, "ldpc_like_cu.bench")
    plan_path = gen_inputs.cu_plan(seed, work)
    count = gen_inputs.CU_PATTERNS
    mini = os.path.join(fix, "mini10.bench")
    mini_plan = os.path.join(fix, "mini10.plan.json")
    m = MINI10_SIGNATURE_PATTERNS
    return Workload(
        ops=[Op("diagnose-signature",
                ["diagnose", bench, "--plan", plan_path, "--granularity",
                 "signature", "--workers", "1"],
                ["diagnosis_report.json"],
                diagnose_check(bench, plan_path, count, "signature"),
                _diagnosis_pairs),
             Op("mini10-signature-16",
                ["diagnose", mini, "--plan", mini_plan, "--granularity",
                 "signature", "--patterns", str(m), "--workers", "1"],
                ["diagnosis_report.json"],
                diagnose_check(mini, mini_plan, m, "signature"), _diagnosis_pairs,
                known_fault="signature granularity ignores --patterns and "
                            "simulates the plan's pattern_count (64)")],
        setup=(bench, plan_path, count))


def seq_faultsim(fix, work, seed):
    bench, plan_path = gen_inputs.seq_core(seed, work)
    count = gen_inputs.SEQ_SHAPE["patterns"]

    def check(out_dir, stdout):
        net, plan = ref.load(bench, plan_path)
        sim = ref.Simulation(net, ref.input_planes(net, plan, count), count)
        r = _load_json(out_dir, "coverage_report.json")
        problems = _differs("pattern_count", r["pattern_count"], count)
        problems += _coverage_problems(r, ref.coverage(net, sim), count)
        for kind, summary in r["summary"].items():
            total = summary["total"]
            for key in ("faults", "detected"):
                per_block = sum(e[kind][key] for e in r["coverage"].values()
                                if kind in e)
                per_kind = sum(v[key] for k, v in summary.items() if k != "total")
                problems += _differs(f"{kind} {key}: total vs per-block",
                                     total[key], per_block)
                problems += _differs(f"{kind} {key}: total vs per-kind",
                                     total[key], per_kind)
        return problems

    def pairs(out_dir):
        r = _load_json(out_dir, "coverage_report.json")
        return sum(s["total"]["faults"] for s in r["summary"].values()) * r["pattern_count"]

    return Workload(
        ops=[Op("faultsim", ["faultsim", bench, "--plan", plan_path, "--kinds",
                             "saf,tdf", "--workers", str(SEQ_WORKERS)],
                ["coverage_report.json"], check, pairs)],
        setup=(bench, plan_path, count))


BUILDERS = {"core-bist": core_bist, "core-diagnose": core_diagnose,
            "cu-signature-diagnose": cu_signature_diagnose,
            "seq-faultsim": seq_faultsim}
