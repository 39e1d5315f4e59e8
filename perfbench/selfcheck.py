"""Self-check: the benchmark's reference agrees with corebist's scalar oracle.

On the small shipped fixtures (and2, mini10, seventeen, seqmini) it compares
the reference against ``faultsim.serial_fault_sim`` (first detection of
every stuck-at fault), ``faultsim.collapse`` (class representatives),
``bist.compute_golden`` and ``bist.run_selftest`` with every collapsed fault
injected. Two independent implementations that agree here guard the report
checks made on the large workloads.

    python3 perfbench/selfcheck.py      # from the repository root
"""

from __future__ import annotations

import json
import os
import sys

import reference as ref

# plans for the fixtures that ship without one: small ALFSR, 2-bit MISR
_PLANS = {
    "seventeen": {"alfsr": "x^8+x^4+x^3+x^2+1", "seed": 0x5A, "width": 6, "out": 3},
    "seqmini": {"alfsr": "x^4+x+1", "seed": 0x9, "width": 2, "out": 2},
}
PATTERNS = 64


def _plan_dict(block, spec):
    degree = ref.parse_poly(spec["alfsr"])[0]
    return {"schema_version": 1, "counter_width": 12, "pattern_count": PATTERNS,
            "alfsr": {"poly": spec["alfsr"], "seed": hex(spec["seed"])},
            "bindings": [{"block": block, "width": spec["width"],
                          "alfsr_slice": {str(b): b % degree
                                          for b in range(spec["width"])}}],
            "misrs": [{"block": block, "poly": "x^2+x+1",
                       "cascade": {"in": spec["out"], "out": 2}}]}


def _first(plane):
    return (plane & -plane).bit_length() - 1 if plane else None


def check_fixture(name, fixtures):
    """Problems found on one fixture (empty list when all agree)."""
    from corebist import bist, circuit, faultsim

    path = os.path.join(fixtures, f"{name}.bench")
    netlist = circuit.load_netlist(path)
    with open(path) as fh:
        net = ref.Net(fh.read())
    plan_d = None
    if name == "mini10":
        with open(os.path.join(fixtures, "mini10.plan.json")) as fh:
            plan_d = json.load(fh)
    elif name in _PLANS:
        plan_d = _plan_dict(net.blocks[0][0], _PLANS[name])
    if plan_d is None:   # no block to bind: every input combination, twice
        n = len(net.inputs)
        combos = [t % (1 << n) for t in range(2 << n)]
        planes = {p: sum(((c >> k) & 1) << t for t, c in enumerate(combos))
                  for k, p in enumerate(net.inputs)}
        count = len(combos)
    else:
        count = plan_d["pattern_count"]
        planes = ref.input_planes(net, ref.Plan(plan_d), count)
    patterns = [tuple((planes[p] >> t) & 1 for p in net.inputs)
                for t in range(count)]
    sim = ref.Simulation(net, planes, count)
    problems = []

    universe = faultsim.enumerate_faults(netlist, ("SA0", "SA1"))
    keys = [f.key for f in universe.faults]
    if keys != [ref.fault_key(f) for f in ref.sa_universe(net)]:
        problems.append(f"{name}: fault universe differs")
    reps = faultsim.collapse(universe, netlist)
    if [f.key for f in reps.faults] != [ref.fault_key(f) for f in ref.collapsed(net)]:
        problems.append(f"{name}: collapsed representatives differ")
    report = faultsim.serial_fault_sim(netlist, universe, patterns)
    mine = {ref.fault_key(f): _first(sim.detection(f)) for f in ref.sa_universe(net)}
    bad = [k for k, d in zip(keys, report.first_detect) if mine.get(k, -1) != d]
    if bad:
        problems.append(f"{name}: serial_fault_sim first detection differs "
                        f"on {len(bad)} faults, e.g. {bad[0]}")
    if plan_d is None:
        return problems

    plan = bist.compute_golden(netlist, bist.BistPlan.from_dict(plan_d))
    rplan = ref.Plan(plan_d)
    golden = ref.session_signatures(net, rplan, count, lambda n: sim.value[n])
    if [s.value for s in plan.golden] != golden:
        problems.append(f"{name}: golden signatures differ")
    by_key = {f.key: f for f in universe.faults}
    wrong = 0
    for f in ref.collapsed(net):
        got = bist.run_selftest(netlist, plan, injected=by_key[ref.fault_key(f)])
        want = ref.session_signatures(net, rplan, count, sim.plane_under(f))
        wrong += [s.value for s in got.signatures] != want
    if wrong:
        problems.append(f"{name}: run_selftest signatures differ on {wrong} faults")
    return problems


def run(src):
    """All fixture problems; imports corebist from ``src``."""
    if src not in sys.path:
        sys.path.insert(0, src)
    fixtures = os.path.join(src, "corebist", "fixtures")
    problems = []
    for name in ("and2", "mini10", "seventeen", "seqmini"):
        problems += check_fixture(name, fixtures)
    return problems


if __name__ == "__main__":
    found = run(os.path.join(os.getcwd(), "src"))
    for p in found:
        print("MISMATCH", p)
    print("self-check:", "FAIL" if found else "PASS")
    sys.exit(1 if found else 0)
