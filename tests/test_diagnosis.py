import json

import pytest

from corebist import (bist, circuit, cli, compactor, diagnosis, faultsim,
                      fixture_path, tpg)
from corebist.errors import SimulationError

import oracle
from conftest import exhaustive_patterns, seqmini_plan
from test_equivalence import cells

MINI = str(fixture_path("mini10.bench"))
MINI_PLAN = str(fixture_path("mini10.plan.json"))


def _alfsr_patterns(netlist, count, degree=8, seed=0x33):
    poly = tpg.Polynomial.parse(tpg.DEFAULT_POLYNOMIALS[degree])
    st = tpg.seed_int(poly, seed)
    pats = []
    for _ in range(count):
        pats.append(tuple(st.bit(i % degree)
                          for i in range(len(netlist.primary_inputs))))
        st = tpg.alfsr_step(st)
    return pats


# -- matrix ------------------------------------------------------------------------

def test_single_fault_single_row(and2):
    u = faultsim.FaultUniverse((faultsim.FaultDescriptor("y", "SA0"),))
    m = diagnosis.build_matrix(and2, u, exhaustive_patterns(and2))
    assert len(m.rows) == 1
    assert m.detected == (True,)
    # y SA0 only differs on input 11, the last exhaustive pattern
    assert m.rows[0] == bytes([0b1000])


def test_and_equivalent_sa0_rows_identical(and2):
    u = faultsim.FaultUniverse(tuple(
        faultsim.FaultDescriptor(n, "SA0") for n in ("a", "b", "y")))
    m = diagnosis.build_matrix(and2, u, exhaustive_patterns(and2))
    assert m.rows[0] == m.rows[1] == m.rows[2]


def test_unknown_granularity(and2):
    u = faultsim.enumerate_faults(and2)
    with pytest.raises(SimulationError):
        diagnosis.build_matrix(and2, u, [(0, 0)], granularity="per-net")


# -- classification -----------------------------------------------------------------

def test_classify_matches_pairwise_oracle(seventeen):
    pats = _alfsr_patterns(seventeen, 48)
    u = faultsim.collapse(faultsim.enumerate_faults(seventeen), seventeen)
    m = diagnosis.build_matrix(seventeen, u, pats)
    report = diagnosis.classify(m)
    classes, undetected = oracle.pairwise_classes(m)
    assert sorted(report.classes) == sorted(classes)
    assert report.undetected == undetected
    covered = [i for c in report.classes for i in c] + list(report.undetected)
    assert sorted(covered) == list(range(len(u.faults)))


def test_class_statistics(and2):
    u = faultsim.enumerate_faults(and2)
    m = diagnosis.build_matrix(and2, u, exhaustive_patterns(and2))
    report = diagnosis.classify(m)
    # a/b/y SA0 indistinguishable; a SA1, b SA1 distinguishable from each
    # other (01 vs 10) and from y SA1 (which fails three patterns)
    assert report.max_size == 3
    assert report.fault_count == 6
    assert not report.undetected
    assert sum(len(c) for c in report.classes) == 6


def test_collapsed_equivalents_share_syndrome(mini10):
    pats = exhaustive_patterns(mini10)
    full = faultsim.enumerate_faults(mini10)
    collapsed = faultsim.collapse(full, mini10)
    m = diagnosis.build_matrix(mini10, full, pats)
    row = {f: r for f, r in zip(m.faults, m.rows)}
    for f, rep in collapsed.collapse_map.items():
        assert row[f] == row[rep], f.key


# -- refinement ---------------------------------------------------------------------

def test_refine_with_same_patterns_never_splits(mini10):
    pats = _alfsr_patterns(mini10, 16, degree=4, seed=0x9)
    u = faultsim.enumerate_faults(mini10)
    before, after = (diagnosis.classify(diagnosis.build_matrix(mini10, u, p))
                     for p in (pats, pats + pats))
    assert after.classes == before.classes
    assert after.undetected == before.undetected


def test_refine_splits_with_distinguishing_pattern(and2):
    # a SA1 and y SA1 look identical under pattern 01 alone; pattern 00
    # detects y SA1 only and splits the pair
    u = faultsim.FaultUniverse((faultsim.FaultDescriptor("a", "SA1"),
                                faultsim.FaultDescriptor("y", "SA1")))
    before, after = (diagnosis.classify(diagnosis.build_matrix(and2, u, p))
                     for p in ([(0, 1)], [(0, 1), (0, 0)]))
    assert before.classes == ((0, 1),)
    assert after.classes == ((0,), (1,))


def test_doubling_patterns_never_increases_mean_size(seventeen):
    u = faultsim.collapse(faultsim.enumerate_faults(seventeen), seventeen)
    pats = _alfsr_patterns(seventeen, 64)
    prev_mean = None
    for k in (8, 16, 32, 64):
        report = diagnosis.classify(
            diagnosis.build_matrix(seventeen, u, pats[:k]))
        if prev_mean is not None and report.classes:
            assert report.mean_size <= prev_mean + 1e-9
        prev_mean = report.mean_size
    # refinement monotonicity, stated directly: each class over all 64
    # patterns lies inside one class over the first 8, or their undetected
    base = diagnosis.classify(diagnosis.build_matrix(seventeen, u, pats[:8]))
    for c in report.classes:
        assert any(set(c) <= set(b) for b in
                   list(base.classes) + [base.undetected])


# -- signature granularity -----------------------------------------------------------

def test_signature_needs_plan(mini10):
    u = faultsim.enumerate_faults(mini10)
    with pytest.raises(SimulationError, match="plan"):
        diagnosis.build_matrix(mini10, u, [], granularity="signature")


def test_signature_classes_no_finer_than_output_response(mini10):
    plan = bist.BistPlan.load(fixture_path("mini10.plan.json"))
    u = faultsim.collapse(faultsim.enumerate_faults(mini10), mini10)
    pats = bist.plan_patterns(mini10, plan)
    m_sig = diagnosis.build_matrix(mini10, u, pats, granularity="signature",
                                   plan=plan)
    # faults with identical full output responses must share a signature row
    obs = faultsim.observation_nets(mini10)
    by_response = {}
    for i, f in enumerate(u.faults):
        resp = tuple(oracle.run_sequence(mini10, pats,
                                         fault=oracle.fault_tuple(f),
                                         observe=obs))
        by_response.setdefault(resp, []).append(i)
    assert any(len(v) > 1 for v in by_response.values())
    for members in by_response.values():
        assert len({m_sig.rows[i] for i in members}) == 1


def test_signature_rows_match_session_control_unit():
    # every collapsed fault of the CU, through a 44 -> 16 cascade, against
    # the scalar session
    cu = circuit.load_netlist(fixture_path("ldpc_like_cu.bench"))
    (block,) = cu.blocks
    misr = tpg.Polynomial.parse("x^16+x^12+x^3+x+1")
    plan = bist.BistPlan(
        tpg.Polynomial.parse("x^20+x^3+1"), 0x5B0D7,
        (tpg.modular_binding(block.name, len(block.input_port), 20),),
        (bist.MisrAssignment(block.name, misr, compactor.XorCascade(
            len(block.output_port), misr.degree)),),
        pattern_count=64)
    u = faultsim.collapse(faultsim.enumerate_faults(cu), cu)
    m = diagnosis.build_matrix(cu, u, bist.plan_stimulus(cu, plan),
                               granularity="signature", plan=plan)
    golden = bist.compute_golden(cu, plan).golden
    for f, row, det in zip(u.faults, m.rows, m.detected):
        session = bist.BistSession(cu, plan)
        session.run(inject=f)
        sigs = session.signatures()
        assert row == b"".join(s.value.to_bytes(8, "little") for s in sigs)
        assert det == (sigs != golden), f.key
    assert 0 < sum(m.detected) < len(m.detected)


def test_signature_cli_honours_pattern_count(tmp_path, mini10):
    assert cli.main(["diagnose", MINI, "--plan", MINI_PLAN, "--granularity",
                     "signature", "--patterns", "16",
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "diagnosis_report.json").read_text())
    assert report["pattern_count"] == 16
    assert report["overall"]["pattern_count"] == 16
    plan = bist.BistPlan.load(MINI_PLAN)._replace(pattern_count=16, golden=None)
    u = faultsim.collapse(faultsim.enumerate_faults(mini10), mini10)
    expected = diagnosis.classify(diagnosis.build_matrix(
        mini10, u, bist.plan_stimulus(mini10, plan), granularity="signature",
        plan=plan))
    assert report["overall"] == expected.to_dict()


def test_signature_rows_on_a_pattern_count_plan_match_session(mini10, seqmini):
    cells("matrix_signature", ["mini10", "seqmini"])
    # a kernel over another pattern count is refused
    for netlist, plan in ((mini10, bist.BistPlan.load(MINI_PLAN)),
                          (seqmini, seqmini_plan())):
        u = faultsim.collapse(faultsim.enumerate_faults(netlist), netlist)
        with pytest.raises(SimulationError, match="patterns for a plan"):
            diagnosis.build_matrix(netlist, u, bist.plan_stimulus(
                                       netlist, plan._replace(pattern_count=9)),
                                   granularity="signature",
                                   plan=plan._replace(pattern_count=16))


def test_signature_cli_rejects_pattern_file(tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("0101\n1010\n")
    assert cli.main(["diagnose", MINI, "--plan", MINI_PLAN, "--granularity",
                     "signature", "--patterns", str(vectors),
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "diagnosis_report.json").exists()


def test_per_block_partition(seventeen):
    pats = _alfsr_patterns(seventeen, 64)
    u = faultsim.collapse(faultsim.enumerate_faults(seventeen), seventeen)
    m = diagnosis.build_matrix(seventeen, u, pats)
    report = faultsim.serial_fault_sim(seventeen, u, pats)
    table = diagnosis.classify_per_block(m, report.fault_blocks)
    assert set(table) == {"MAIN"}
    blk = table["MAIN"]
    in_block = sum(1 for b in report.fault_blocks if b == "MAIN")
    assert blk.fault_count == in_block
