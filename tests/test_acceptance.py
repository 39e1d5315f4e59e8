"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line. Criterion 8 freezes its measured reports as regression
baselines under tests/baselines/ on first run and compares bytes afterwards.
"""

import os
import random
import shutil
import time

from corebist import (access, bist, circuit, cli, compactor, diagnosis,
                      faultsim, fixture_path, tpg)
from corebist.access import TapState as T

import oracle
from conftest import exhaustive_patterns, random_combinational, random_patterns

BASELINES = os.path.join(os.path.dirname(__file__), "baselines")


def _verdict(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _load(name):
    return circuit.load_netlist(fixture_path(name))


def test_criterion_1_lfsr_periods():
    """Primitive polynomials of degree 4, 8, 16, 20 have period 2^n - 1."""
    t0 = time.monotonic()
    periods = {}
    for degree in (4, 8, 16, 20):
        poly = tpg.Polynomial.parse(tpg.DEFAULT_POLYNOMIALS[degree])
        st = tpg.AlfsrState(poly, 1)
        d0 = time.monotonic()
        periods[degree] = tpg.alfsr_period(st)
        if degree == 20:
            deg20_secs = time.monotonic() - d0
    ok = all(periods[d] == (1 << d) - 1 for d in periods) and deg20_secs < 10.0
    _verdict(1, ok, f"periods {periods}, degree-20 in {deg20_secs:.2f}s, "
                    f"total {time.monotonic() - t0:.2f}s")


def test_criterion_2_parallel_serial_equivalence():
    """Parallel fault sim is bit-identical to the serial oracle on 100
    random combinational netlists."""
    rng = random.Random(0xC0FFEE)
    t0 = time.monotonic()
    checked = 0
    for trial in range(100):
        n_gates = rng.randint(5, 200)
        n_in = rng.randint(3, 10)
        netlist = random_combinational(rng, n_in=n_in, n_gates=n_gates,
                                       name=f"acc2_{trial}")
        max_pats = 512 if n_gates <= 30 else (128 if n_gates <= 100 else 48)
        pats = random_patterns(rng, netlist, rng.randint(16, max_pats))
        universe = faultsim.collapse(faultsim.enumerate_faults(netlist),
                                     netlist)
        r_serial = faultsim.serial_fault_sim(netlist, universe, pats)
        r_parallel = faultsim.parallel_fault_sim(netlist, universe, pats)
        assert r_serial.faults == r_parallel.faults
        assert r_serial.first_detect == r_parallel.first_detect, netlist.name
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(2, checked == 100 and elapsed < 120.0,
             f"{checked} netlists, {elapsed:.1f}s")


def test_criterion_3_misr_aliasing():
    """k=8 aliasing rate within 25% of 2^-8 over 10^6 trials; single-word
    errors never alias (exhaustive for k <= 8)."""
    rate = compactor.aliasing_estimate(8, 1_000_000, rng=random.Random(8))
    rate_ok = 0.75 * 2 ** -8 <= rate <= 1.25 * 2 ** -8
    primitive = {2: "x^2+x+1", 3: "x^3+x+1", 4: "x^4+x+1", 5: "x^5+x^2+1",
                 6: "x^6+x+1", 7: "x^7+x+1", 8: "x^8+x^4+x^3+x^2+1"}
    single_ok = True
    for k, text in primitive.items():
        poly = tpg.Polynomial.parse(text)
        for pos in range(4):
            for err in range(1, 1 << k):
                words = [0] * 4
                words[pos] = err
                if compactor.signature_of_stream(poly, words) == 0:
                    single_ok = False
    _verdict(3, rate_ok and single_ok,
             f"rate {rate:.6f} vs 2^-8 = {2 ** -8:.6f}, "
             f"single-word aliases: {'none' if single_ok else 'found'}")


def test_criterion_4_collapsing_soundness():
    """Every fault's detection status equals its representative's on the
    17-gate fixture under exhaustive patterns."""
    netlist = _load("seventeen.bench")
    pats = exhaustive_patterns(netlist)
    full = faultsim.enumerate_faults(netlist)
    collapsed = faultsim.collapse(full, netlist)
    r_full = faultsim.serial_fault_sim(netlist, full, pats)
    r_col = faultsim.serial_fault_sim(netlist, collapsed, pats)
    det_full = dict(zip(r_full.faults,
                        (d is not None for d in r_full.first_detect)))
    det_col = dict(zip(r_col.faults,
                       (d is not None for d in r_col.first_detect)))
    mismatches = [f.key for f in full.faults
                  if det_full[f] != det_col[collapsed.collapse_map[f]]]
    _verdict(4, not mismatches,
             f"{len(full)} faults -> {len(collapsed)} classes, "
             f"{len(mismatches)} mismatches")


def test_criterion_5_tap_conformance():
    """All 32 (state, TMS) transitions match the 1149.1 diagram; TMS=1 x5
    resets from every state."""
    from test_access import _DIAGRAM
    wrong = [(s, tms) for s in T for tms in (0, 1)
             if access.tap_step(s, tms) != _DIAGRAM[s][tms]]
    reset_ok = True
    for s in T:
        cur = s
        for _ in range(5):
            cur = access.tap_step(cur, 1)
        if cur is not T.TEST_LOGIC_RESET:
            reset_ok = False
    _verdict(5, not wrong and reset_ok,
             f"{32 - len(wrong)}/32 transitions, reset-from-all "
             f"{'ok' if reset_ok else 'broken'}")


def test_criterion_6_serial_equivalence():
    """Scripted serial session returns the direct-run signatures and the
    golden TDO trace replays byte-identically."""
    netlist = _load("ldpc_like_core.bench")
    plan = bist.BistPlan.load(fixture_path("ldpc_like_core.plan.json"))
    direct = bist.run_selftest(netlist, plan)

    tap = access.TapSession(bist.BistSession(netlist, plan))
    tap.tap_reset()
    tap.write_wcdr(access.CMD_RESET)
    tap.write_wcdr(access.CMD_SET_COUNT, 4096 & 0xFFF)
    tap.write_wcdr(access.CMD_START)
    serial_sigs = []
    for code in range(3):
        tap.write_wcdr(access.CMD_SELECT, code)
        tap.write_wcdr(access.CMD_READ_STATUS)
        status, slice16 = tap.read_wdr()
        serial_sigs.append((status, slice16))
    sigs_ok = all(st == access.STATUS_DONE and sl == s.value & 0xFFFF
                  for (st, sl), s in zip(serial_sigs, direct.signatures))

    golden_path = fixture_path("golden_session.trace")
    trace = access.SerialTrace.load(golden_path)
    fresh = access.TapSession(bist.BistSession(netlist, plan))
    tdo = access.drive_trace(fresh, trace)
    rendered = access.SerialTrace(trace.samples).render(
        tdo=[0 if b is None else b for b in tdo])
    with open(golden_path) as fh:
        trace_ok = rendered == fh.read()
    _verdict(6, sigs_ok and trace_ok,
             f"signatures {[f'{s:#06x}' for _, s in serial_sigs]}, "
             f"trace replay {'byte-identical' if trace_ok else 'DIVERGED'}")


def test_criterion_7_diagnosis_refinement(capsys, tmp_path):
    """Class partition equals brute-force pairwise comparison; doubling
    patterns never increases mean class size; the CLI report has the
    per-component max/mean class-size columns."""
    netlist = _load("seventeen.bench")
    universe = faultsim.collapse(faultsim.enumerate_faults(netlist), netlist)
    poly = tpg.Polynomial.parse(tpg.DEFAULT_POLYNOMIALS[8])
    st = tpg.AlfsrState(poly, 0x2F)
    pats = []
    for _ in range(64):
        pats.append(tuple(st.bit(i % 8)
                          for i in range(len(netlist.primary_inputs))))
        st = tpg.alfsr_step(st)

    matrix = diagnosis.build_matrix(netlist, universe, pats)
    report = diagnosis.classify(matrix)
    # brute force: pairwise syndrome comparison straight off replay data
    brute = oracle.brute_force_detection(
        netlist, universe.faults, pats,
        observe=faultsim.observation_nets(netlist))
    groups = {}
    undetected = []
    for i, f in enumerate(universe.faults):
        vec = tuple(brute[f])
        if not any(vec):
            undetected.append(i)
        else:
            groups.setdefault(vec, []).append(i)
    brute_classes = sorted(tuple(g) for g in groups.values())
    partition_ok = (sorted(report.classes) == brute_classes
                    and list(report.undetected) == undetected)

    means = []
    for k in (8, 16, 32, 64):
        rep = diagnosis.classify(
            diagnosis.build_matrix(netlist, universe, pats[:k]))
        means.append(rep.mean_size)
    monotone_ok = all(a >= b - 1e-9 for a, b in zip(means, means[1:]))

    mini = str(fixture_path("mini10.bench"))
    mini_plan = str(fixture_path("mini10.plan.json"))
    capsys.readouterr()
    assert cli.main(["diagnose", mini, "--plan", mini_plan,
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    table_ok = "Max size" in out and "Med size" in out and "Component" in out
    with capsys.disabled():
        _verdict(7, partition_ok and monotone_ok and table_ok,
                 f"{len(report.classes)} classes match brute force: "
                 f"{partition_ok}, means {means}, table shape: {table_ok}")


def _check_baseline(name, produced_path):
    """First run freezes the report; later runs compare bytes."""
    os.makedirs(BASELINES, exist_ok=True)
    baseline = os.path.join(BASELINES, name)
    with open(produced_path, "rb") as fh:
        got = fh.read()
    if not os.path.exists(baseline):
        shutil.copyfile(produced_path, baseline)
        return True, f"{name}: frozen"
    with open(baseline, "rb") as fh:
        want = fh.read()
    return got == want, f"{name}: {'matches' if got == want else 'DIVERGED'}"


def test_criterion_8_case_study_reports(capsys, tmp_path):
    """cmd_bist and cmd_diagnose run on the case-study-shaped fixtures;
    measured values are frozen as regression baselines."""
    core = str(fixture_path("ldpc_like_core.bench"))
    plan = str(fixture_path("ldpc_like_core.plan.json"))
    widths = {b.name: (len(b.input_port), len(b.output_port))
              for b in _load("ldpc_like_core.bench").blocks}
    shape_ok = widths == {"BIT_NODE": (54, 55), "CHECK_NODE": (53, 53),
                          "CONTROL_UNIT": (45, 44)}

    assert cli.main(["bist", core, "--plan", plan,
                     "--out", str(tmp_path)]) == 0
    bist_out = capsys.readouterr().out
    bist_table_ok = all(s in bist_out for s in
                        ("Component", "FC [%]", "Cycles", "BIT_NODE",
                         "CHECK_NODE", "CONTROL_UNIT"))
    ok_b, msg_b = _check_baseline("core_bist_report.json",
                                  os.path.join(tmp_path, "bist_report.json"))

    assert cli.main(["diagnose", core, "--plan", plan, "--patterns", "256",
                     "--out", str(tmp_path)]) == 0
    diag_out = capsys.readouterr().out
    diag_table_ok = "Max size" in diag_out and "Med size" in diag_out
    ok_d, msg_d = _check_baseline(
        "core_diagnosis_report.json",
        os.path.join(tmp_path, "diagnosis_report.json"))

    with capsys.disabled():
        _verdict(8, shape_ok and bist_table_ok and diag_table_ok
                 and ok_b and ok_d,
                 f"widths ok: {shape_ok}, tables ok: "
                 f"{bist_table_ok and diag_table_ok}, {msg_b}, {msg_d}")


def test_criterion_9_determinism(tmp_path):
    """Identical inputs give byte-identical reports regardless of workers."""
    core = str(fixture_path("ldpc_like_core.bench"))
    plan = str(fixture_path("ldpc_like_core.plan.json"))
    mini = str(fixture_path("mini10.bench"))
    mini_plan = str(fixture_path("mini10.plan.json"))
    outputs = []
    for i, workers in enumerate(("1", "2", "1")):
        d = tmp_path / f"run{i}"
        d.mkdir()
        assert cli.main(["faultsim", core, "--plan", plan,
                         "--patterns", "256", "--workers", workers,
                         "--out", str(d)]) == 0
        outputs.append((d / "coverage_report.json").read_bytes())
    workers_ok = outputs[0] == outputs[1] == outputs[2]
    reruns = []
    for i in range(2):
        d = tmp_path / f"bist{i}"
        d.mkdir()
        assert cli.main(["bist", mini, "--plan", mini_plan,
                         "--out", str(d)]) == 0
        reruns.append((d / "bist_report.json").read_bytes())
    rerun_ok = reruns[0] == reruns[1]
    _verdict(9, workers_ok and rerun_ok,
             f"worker-count invariance: {workers_ok}, rerun: {rerun_ok}")
