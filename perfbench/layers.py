"""Per-layer metrics from the spans that ``trace_shim.py`` writes.

A span's self time is its duration minus the durations of its direct
children. Times are summed over one traced round's commands; with several
traced rounds each metric is the median over rounds.
"""

from __future__ import annotations

import statistics

from trace_shim import read_spans

UNITS = {
    "circuit.parse_s": "s", "circuit.evaluate_s": "s",
    "circuit.evaluate_calls": "count",
    "tpg.self_s": "s", "tpg.assemble_calls": "count",
    "compactor.self_s": "s", "compactor.absorb_calls": "count",
    "faultsim.universe_s": "s", "faultsim.saf_s": "s", "faultsim.tdf_s": "s",
    "faultsim.faults": "count", "faultsim.detected": "count",
    "bist.patterns_s": "s", "bist.session_s": "s", "bist.session_runs": "count",
    "access.replay_s": "s", "access.edges": "count",
    "diagnosis.matrix_s": "s", "diagnosis.classify_s": "s", "diagnosis.rows": "count",
    "cli.self_s": "s", "trace_overhead_s": "s",
}

# metric -> (statistic, spans it sums); "total" is inclusive time
TIMES = {
    "circuit.parse_s": ("total", ["circuit.parse_netlist"]),
    "circuit.evaluate_s": ("total", ["circuit.evaluate"]),
    "tpg.self_s": ("self", ["tpg.assemble_pattern", "tpg.alfsr_step", "tpg.cg_step"]),
    "compactor.self_s": ("self", ["compactor.fold", "compactor.misr_absorb"]),
    "faultsim.universe_s": ("total", ["faultsim.enumerate_faults", "faultsim.collapse"]),
    "faultsim.saf_s": ("self", ["faultsim.parallel_fault_sim",
                                "faultsim.serial_fault_sim"]),
    "faultsim.tdf_s": ("self", ["faultsim.tdf_sim"]),
    "bist.patterns_s": ("total", ["bist.plan_patterns"]),
    "bist.session_s": ("self", ["bist.run_selftest", "bist.compute_golden",
                                "bist.BistSession.run"]),
    "access.replay_s": ("self", ["access.drive_trace"]),
    "diagnosis.matrix_s": ("self", ["diagnosis.build_matrix"]),
    "diagnosis.classify_s": ("total", ["diagnosis.classify",
                                       "diagnosis.classify_per_block"]),
    "cli.self_s": ("self", ["cli.main"]),
}
CALLS = {
    "circuit.evaluate_calls": "circuit.evaluate",
    "tpg.assemble_calls": "tpg.assemble_pattern",
    "compactor.absorb_calls": "compactor.misr_absorb",
    "bist.session_runs": "bist.BistSession.run",
}
SIMULATORS = ("faultsim.parallel_fault_sim", "faultsim.serial_fault_sim",
              "faultsim.tdf_sim")


def _add_file(path, acc):
    names, name, parent, start, end, attrs = read_spans(path)
    n = len(name)
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    for i in range(n):
        label = names[name[i]]
        dur = end[i] - start[i]
        row = acc.setdefault(label, [0.0, 0.0, 0])
        row[0] += dur
        row[1] += dur - child[i]
        row[2] += 1
        if i not in attrs:                    # no count, or the call raised
            continue
        if label in SIMULATORS and not (
                parent[i] >= 0 and names[name[parent[i]]] in SIMULATORS):
            faults, detected = attrs[i]       # outermost simulator call only
            acc["#faults"] = acc.get("#faults", 0) + faults
            acc["#detected"] = acc.get("#detected", 0) + detected
        elif label == "access.drive_trace":
            acc["#edges"] = acc.get("#edges", 0) + attrs[i]
        elif label == "diagnosis.build_matrix":
            acc["#rows"] = acc.get("#rows", 0) + attrs[i]


def round_metrics(rnd):
    acc = {}
    for res in rnd["ops"]:
        _add_file(res["spans"], acc)
    out = {}
    for metric, (stat, labels) in TIMES.items():
        col = 0 if stat == "total" else 1
        out[metric] = sum(acc[l][col] for l in labels if l in acc)
    for metric, label in CALLS.items():
        out[metric] = acc.get(label, [0, 0, 0])[2]
    out["faultsim.faults"] = acc.get("#faults", 0)
    out["faultsim.detected"] = acc.get("#detected", 0)
    out["access.edges"] = acc.get("#edges", 0)
    out["diagnosis.rows"] = acc.get("#rows", 0)
    return out


def metrics(traced_rounds, plain_report_s):
    """Median per-layer metrics over traced rounds plus the trace overhead."""
    per_round = [round_metrics(r) for r in traced_rounds]
    out = {m: statistics.median(r[m] for r in per_round) for m in per_round[0]}
    out["trace_overhead_s"] = (statistics.median(r["report_s"] for r in traced_rounds)
                               - plain_report_s)
    return {m: out[m] for m in UNITS}
