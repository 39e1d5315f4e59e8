import random

import pytest

from corebist import bist, circuit, compactor, faultsim, fixture_path, tpg
from corebist.errors import PlanError, SimulationError

import oracle
from conftest import perfbench, random_plan_case, seqmini_plan
from test_equivalence import cells


@pytest.fixture
def mini_plan():
    return bist.BistPlan.load(fixture_path("mini10.plan.json"))


@pytest.fixture
def core():
    return circuit.load_netlist(fixture_path("ldpc_like_core.bench"))


@pytest.fixture
def core_plan():
    return bist.BistPlan.load(fixture_path("ldpc_like_core.plan.json"))


# -- plan validation ---------------------------------------------------------------

def test_plan_roundtrip(core_plan):
    again = bist.BistPlan.from_dict(core_plan.to_dict())
    assert again == core_plan
    assert again.to_json() == core_plan.to_json()


def test_plan_rejects_zero_patterns(mini_plan):
    with pytest.raises(PlanError, match="pattern_count"):
        mini_plan._replace(pattern_count=0)


def test_plan_rejects_count_beyond_counter(mini_plan):
    with pytest.raises(PlanError):
        mini_plan._replace(pattern_count=(1 << 12) + 1)


def test_plan_rejects_more_than_4_misrs(mini_plan):
    b = mini_plan.bindings[0]
    m = mini_plan.misrs[0]
    bindings = tuple(b._replace(block=f"B{i}") for i in range(5))
    misrs = tuple(m._replace(block=f"B{i}") for i in range(5))
    with pytest.raises(PlanError, match="2-bit"):
        mini_plan._replace(bindings=bindings, misrs=misrs, golden=None)


def test_plan_binding_width_checked_against_netlist(mini10, mini_plan):
    bad = mini_plan._replace(bindings=(tpg.modular_binding("MAIN", 5, 8),),
                             golden=None)
    with pytest.raises(PlanError, match="width"):
        bist.BistSession(mini10, bad)


def test_plan_unknown_block_rejected(mini10, mini_plan):
    bad = mini_plan._replace(
        bindings=(mini_plan.bindings[0]._replace(block="NOPE"),),
        misrs=(mini_plan.misrs[0]._replace(block="NOPE"),),
        golden=None)
    with pytest.raises(PlanError, match="unknown block"):
        bist.BistSession(mini10, bad)


# -- golden signatures --------------------------------------------------------------

def test_compute_golden_is_deterministic(mini10, mini_plan):
    base = mini_plan._replace(golden=None)
    g1 = bist.compute_golden(mini10, base)
    g2 = bist.compute_golden(mini10, base)
    assert g1.golden == g2.golden


def test_stored_golden_matches_recomputation(mini10, mini_plan):
    fresh = bist.compute_golden(mini10, mini_plan._replace(golden=None))
    assert [s.value for s in fresh.golden] == \
        [s.value for s in mini_plan.golden]


def test_golden_matches_stagewise_pipeline_oracle(mini10, mini_plan):
    # recompose the whole pipeline from independent pieces: list-based LFSR,
    # recursive evaluation, hand parity fold, stage-by-stage MISR
    poly_taps = sorted(mini_plan.alfsr_poly.taps)
    reg = [(mini_plan.alfsr_seed >> i) & 1 for i in range(8)]
    binding = mini_plan.bindings[0]
    misr = mini_plan.misrs[0]
    block = mini10.blocks[0]
    words = []
    for _ in range(mini_plan.pattern_count):
        assignment = {}
        for bit, net in enumerate(block.input_port):
            assignment[net] = reg[binding.alfsr_slice[bit]]
        memo = oracle.eval_recursive(mini10, assignment)
        out_word = [memo[n] for n in block.output_port]
        folded = [0] * misr.cascade.out_width
        for i, v in enumerate(out_word):
            folded[i % misr.cascade.out_width] ^= v
        words.append(folded)
        fb = 0
        for t in poly_taps:
            fb ^= reg[t - 1]
        reg = [fb] + reg[:-1]
    sig_bits = oracle.misr_stepwise(sorted(misr.polynomial.taps),
                                    misr.polynomial.degree, words)
    expected = sum(b << i for i, b in enumerate(sig_bits))
    assert mini_plan.golden[0].value == expected


def test_case_study_plan_shape(core, core_plan):
    assert core_plan.pattern_count == 4096
    assert core_plan.counter_width == 12
    assert core_plan.alfsr_poly.degree == 20
    assert [b.block for b in core_plan.bindings] == \
        ["BIT_NODE", "CHECK_NODE", "CONTROL_UNIT"]
    assert all(m.polynomial.degree == 16 for m in core_plan.misrs)
    session = bist.BistSession(core, core_plan)
    for code in (0, 1, 2):
        session.select(code)
        assert session.selected_signature().block == \
            core_plan.misrs[code].block
    with pytest.raises(PlanError):
        session.select(3)


# -- sessions -----------------------------------------------------------------------

def test_phase_progression(mini10, mini_plan):
    session = bist.BistSession(mini10, mini_plan)
    assert session.control.phase == "idle"
    session.set_count(16)
    assert session.control.phase == "loading"
    session.run()
    assert session.control.phase == "done"
    assert session.control.pattern_counter == 16
    assert not session.control.test_enable


def test_reset_clears_everything(mini10, mini_plan):
    session = bist.BistSession(mini10, mini_plan)
    session.run()
    session.reset()
    assert session.control.phase == "idle"
    assert session.control.pattern_counter == 0
    assert all(m.register == 0 for m in session.misrs.values())
    assert session.alfsr.register == mini_plan.alfsr_seed


def test_pattern_stream_matches_stepping(mini10, mini_plan):
    session = bist.BistSession(mini10, mini_plan)
    stream = session.pattern_stream()
    assert len(stream) == mini_plan.pattern_count
    # replay by stepping and recording assembled inputs
    session.reset()
    for i, pat in enumerate(stream):
        assert session.assemble_inputs(i) == pat
        session.step()


def test_selftest_fault_free_passes(mini10, mini_plan):
    result = bist.run_selftest(mini10, mini_plan)
    assert result.all_pass
    assert result.patterns_applied == 64


def test_selftest_requires_golden(mini10, mini_plan):
    bare = mini_plan._replace(golden=None)
    with pytest.raises(PlanError, match="golden"):
        bist.run_selftest(mini10, bare)


def test_injected_fault_flips_signature_or_aliases(mini10, mini_plan):
    # any fault the pattern set detects at the block outputs either fails the
    # signature compare or is aliased; undetected faults always pass
    universe = faultsim.enumerate_faults(mini10)
    patterns = bist.plan_patterns(mini10, mini_plan)
    report = faultsim.serial_fault_sim(mini10, universe, patterns)
    aliased = 0
    for f, first in zip(report.faults, report.first_detect):
        result = bist.run_selftest(mini10, mini_plan, injected=f)
        if first is None:
            assert result.all_pass, f.key
        elif result.all_pass:
            aliased += 1
    # with a 2-bit MISR some aliasing is expected, but not total
    assert aliased < report.detected


def test_misr_detection_rate_mini(mini10, mini_plan):
    universe = faultsim.enumerate_faults(mini10)
    rate, aliased = bist.misr_detection_rate(mini10, mini_plan, universe)
    assert 0.0 < rate <= 1.0
    # cross-check against direct injection
    patterns = bist.plan_patterns(mini10, mini_plan)
    report = faultsim.serial_fault_sim(mini10, universe, patterns)
    assert rate == (report.detected - len(aliased)) / report.detected
    for f in aliased:
        assert bist.run_selftest(mini10, mini_plan, injected=f).all_pass
    # the signature path has no transition-fault model
    tdf = faultsim.enumerate_faults(mini10, ("SA0", "STR"))
    with pytest.raises(SimulationError, match="stuck-at faults only"):
        bist.misr_detection_rate(mini10, mini_plan, tdf)


def test_signature_path_refuses_transition_faults(mini10, mini_plan, seqmini):
    # a transition fault has no stuck value: simulating a slow-to-rise fault
    # as its stuck-at-0 stem would report the SA0 signature for it, on the
    # kernels' signature path and on every scalar entry point alike
    for netlist, plan in ((mini10, mini_plan), (seqmini, seqmini_plan())):
        fault = faultsim.FaultDescriptor(netlist.primary_outputs[0], "STR")
        with pytest.raises(SimulationError, match="stuck-at faults only"):
            bist.selftest_results(netlist, plan, (fault,),
                                  bist.plan_stimulus(netlist, plan))
    pattern = (1,) * len(mini10.primary_inputs)
    tdf = faultsim.enumerate_faults(mini10, faultsim.TDF_KINDS)
    scalar = (
        lambda f: circuit.evaluate(mini10, circuit.initial_state(mini10),
                                   pattern, fault=f),
        lambda f: list(circuit.run_patterns(mini10, [pattern], f)),
        lambda f: bist.run_selftest(mini10, mini_plan, injected=f),
        lambda f: faultsim.serial_fault_sim(mini10, tdf, [pattern]),
    )
    for kind in faultsim.TDF_KINDS:
        fault = faultsim.FaultDescriptor(mini10.primary_outputs[0], kind)
        for entry in scalar:
            with pytest.raises(SimulationError, match="stuck-at faults only"):
                entry(fault)


def test_case_study_golden_signatures_stable(core, core_plan):
    fresh = bist.compute_golden(core, core_plan._replace(golden=None))
    assert [s.value for s in fresh.golden] == \
        [s.value for s in core_plan.golden]


def test_case_study_injected_fault_fails(core, core_plan):
    f = faultsim.FaultDescriptor(core.primary_outputs[0], "SA0")
    result = bist.run_selftest(core, core_plan, injected=f)
    golden_val = {s.block: s.value for s in core_plan.golden}
    changed = [s.block for s in result.signatures
               if s.value != golden_val[s.block]]
    assert changed   # stuck output net shows up in at least one signature


# -- linear signatures against the scalar session ----------------------------------

def _scalar(netlist, plan, faults):
    """The scalar session's signatures under each entry of ``faults``
    (None: fault-free)."""
    out = []
    for f in faults:
        session = bist.BistSession(netlist, plan)
        session.run(inject=f)
        out.append(session.signatures())
    return out


def _passed(plan, signatures):
    return tuple(s.value == g.value for s, g in zip(signatures, plan.golden))


def _assert_same_results(netlist, plan, faults, label=""):
    results = bist.selftest_results(netlist, plan, faults,
                                    bist.plan_stimulus(netlist, plan))
    for f, got, want in zip(faults, results, _scalar(netlist, plan, faults)):
        key = f.key if f is not None else "fault-free"
        assert got.signatures == want, (label, key)
        if plan.golden is not None:
            assert got.passed == _passed(plan, want), (label, key)
        assert got.patterns_applied == want[0].pattern_count


def test_linear_signatures_match_session_core_sample(core, core_plan):
    # the case study at its full 4096 patterns, a seeded handful of faults
    u = faultsim.collapse(faultsim.enumerate_faults(core), core)
    faults = tuple(random.Random(0xC0DE).sample(u.faults, 3))
    results = bist.selftest_results(core, core_plan, (None,) + faults,
                                    bist.plan_stimulus(core, core_plan))
    assert all(results[0].passed)
    assert [s.value for s in results[0].signatures] == \
        [s.value for s in core_plan.golden]
    for f, got, want in zip(faults, results[1:],
                            _scalar(core, core_plan, faults)):
        assert got.signatures == want, f.key
        assert got.passed == _passed(core_plan, want), f.key


def test_misr_detection_rate_matches_session():
    rng = random.Random(0xA11A5)
    checked = 0
    for trial in range(4):
        netlist, plan = random_plan_case(rng, rng.choice((16, 17, 64)),
                                         f"rate{trial}")
        u = faultsim.enumerate_faults(netlist)
        try:
            rate, aliased = bist.misr_detection_rate(netlist, plan, u)
        except SimulationError:
            continue                  # no fault reaches an observed net
        patterns = bist.plan_patterns(netlist, plan)
        report = faultsim.serial_fault_sim(netlist, u, patterns)
        detected = report.detected_faults()
        want = tuple(f for f, r in zip(detected, _scalar(netlist, plan, detected))
                     if all(_passed(plan, r)))
        assert aliased == want
        assert rate == (len(detected) - len(want)) / len(detected)
        checked += 1
    assert checked >= 3


def test_stale_stored_golden_keeps_meaning(mini10, mini_plan):
    # pass/fail and detection are judged against the stored values, even
    # when they are not what the plan produces
    stale = mini_plan._replace(golden=tuple(
        s._replace(value=s.value ^ 1) for s in mini_plan.golden))
    u = faultsim.collapse(faultsim.enumerate_faults(mini10), mini10)
    _assert_same_results(mini10, stale, (None,) + u.faults)
    stream = bist.plan_stimulus(mini10, stale)
    (fault_free,) = bist.selftest_results(mini10, stale, (None,), stream)
    assert fault_free.passed == (False,)
    from corebist import diagnosis
    m = diagnosis.build_matrix(mini10, u, stream, "signature", plan=stale)
    stale_values = tuple(s.value for s in stale.golden)
    assert m.detected == tuple(
        tuple(s.value for s in r) != stale_values
        for r in _scalar(mini10, stale, u.faults))


def test_sequential_signatures_transpose_only_the_folded_bits(monkeypatch):
    # the benchmark's sequential core folds its 24 outputs into 16 MISR
    # bits: the signature pass transposes the fault-free planes, the
    # detection planes and one plane set per folded bit, not one per
    # observation net
    g = perfbench("gen_inputs")
    s = g.SEQ_SHAPE
    rng = random.Random("folded-bits")
    netlist = circuit.parse_netlist(g.seq_bench(
        rng, s["inputs"], s["outputs"], s["gates"], s["flops"]))
    plan = bist.BistPlan.from_dict(g.plan_dict(
        "SEQ", s["inputs"], s["outputs"], 0x5EED, s["patterns"]))
    width = plan.misrs[0].cascade.out_width
    assert (len(faultsim.observation_nets(netlist)), width) == (24, 16)
    faults = faultsim.collapse(faultsim.enumerate_faults(netlist),
                               netlist).faults
    kernel = bist.plan_stimulus(netlist, plan)
    calls = []
    real = faultsim._columns

    def counting(rows):
        calls.append(1)
        return real(rows)
    monkeypatch.setattr(faultsim, "_columns", counting)
    values = bist.signature_values(netlist, plan, kernel, (None, *faults))
    assert len(calls) <= width + 2
    assert any(v != values[0] for v in values[1:])


def test_signature_paths_never_step_the_session(seqmini, mini10, mini_plan,
                                                 monkeypatch):
    seq_plan = seqmini_plan()
    cases = [(seqmini, seq_plan), (mini10, mini_plan)]
    want = [_scalar(n, p, (None,) + faultsim.enumerate_faults(n).faults)
            for n, p in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a signature path ran the scalar session")
    monkeypatch.setattr(bist.BistSession, "run", refuse)
    monkeypatch.setattr(bist, "run_selftest", refuse)
    monkeypatch.setattr(bist, "compute_golden", refuse)
    for (netlist, plan), scalar in zip(cases, want):
        faults = (None,) + faultsim.enumerate_faults(netlist).faults
        got = bist.selftest_results(netlist, plan, faults,
                                    bist.plan_stimulus(netlist, plan))
        assert [r.signatures for r in got] == scalar
    # the compaction-loss study on a flop core, against the oracle's
    golden = want[0][0]
    u = faultsim.enumerate_faults(seqmini)
    detected = faultsim.serial_fault_sim(
        seqmini, u, bist.plan_patterns(seqmini, seq_plan)).detected_faults()
    scalar = dict(zip(u.faults, want[0][1:]))
    _, aliased = bist.misr_detection_rate(
        seqmini, seq_plan._replace(golden=golden), u)
    assert aliased == tuple(f for f in detected
                            if scalar[f] == golden)


def test_session_oracle_never_calls_the_kernel(mini10, mini_plan, seqmini,
                                               monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the scalar session used the fault kernel")
    monkeypatch.setattr(faultsim, "FaultKernel", refuse)
    monkeypatch.setattr(faultsim, "SequentialStimulus", refuse)
    # nor the signature path or the plane builder
    monkeypatch.setattr(bist, "signature_values", refuse)
    monkeypatch.setattr(bist, "plan_planes", refuse)
    monkeypatch.setattr(compactor, "signature_of_planes", refuse)
    for netlist, plan in ((mini10, mini_plan),
                          (seqmini, bist.compute_golden(seqmini,
                                                        seqmini_plan()))):
        bare = plan._replace(golden=None)
        assert bist.compute_golden(netlist, bare).golden == plan.golden
        f = faultsim.FaultDescriptor(netlist.primary_outputs[0], "SA1")
        bist.run_selftest(netlist, plan, injected=f)
        session = bist.BistSession(netlist, plan)
        patterns = session.pattern_stream()
        session.run()
        faultsim.serial_fault_sim(netlist, faultsim.enumerate_faults(netlist),
                                  patterns)


# -- one kernel from the plan's planes ------------------------------------------------

def test_kernel_from_plan_planes_matches_kernel_from_tuples(core, core_plan):
    # the case-study core; the matrix's plan_planes row holds the small cores
    a = bist.plan_stimulus(core, core_plan)
    planes = bist.plan_planes(core, core_plan)
    b = faultsim.stimulus(core, [tuple(p >> t & 1 for p in planes)
                                 for t in range(len(a))])
    assert len(a) == len(b) and a.good == b.good
    for f in faultsim.collapse(faultsim.enumerate_faults(core), core).faults:
        assert a.faulty(f) == b.faulty(f), f.key
        assert a.planes((f,))[0] == b.planes((f,))[0], f.key
    cells("plan_planes", ["mini10", "seventeen"])


def test_tdf_on_a_shared_kernel_matches_tdf_from_patterns(mini10, mini_plan,
                                                          core, core_plan):
    for netlist, plan in ((mini10, mini_plan), (core, core_plan)):
        kernel = bist.plan_stimulus(netlist, plan)
        saf = faultsim.collapse(faultsim.enumerate_faults(netlist), netlist)
        faultsim.parallel_fault_sim(netlist, saf, kernel)
        tdf = faultsim.enumerate_faults(netlist, ("STR", "STF"))
        stems = {faultsim.FaultDescriptor(f.net, "SA0" if f.kind == "STR"
                                          else "SA1") for f in tdf.faults}
        assert stems & set(saf.faults) and stems - set(saf.faults)
        shared = faultsim.tdf_sim(netlist, tdf, kernel)
        want = faultsim.tdf_sim(netlist, tdf, bist.plan_patterns(netlist, plan))
        assert shared == want, netlist.name
        assert any(d is not None for d in shared.first_detect)


# -- input planes against the scalar pattern stream ---------------------------------

def _random_stimulus_case(rng, degree, count):
    """Netlist of 1-3 blocks whose input ports may share nets, with a random
    plan over a random degree-``degree`` ALFSR: replicated sources, cyclic
    and non-cyclic constraint programs with holds of 1-7 cycles."""
    n_in = rng.randint(2, 12)
    pis = [f"i{k}" for k in range(n_in)]
    n_blocks = rng.randint(1, min(3, n_in))
    cuts = sorted(rng.sample(range(1, n_in), n_blocks - 1))
    ports = [pis[a:b] for a, b in zip([0] + cuts, cuts + [n_in])]
    if n_blocks > 1 and rng.random() < 0.5:
        ports[-1] = ports[-1] + [rng.choice(ports[0])]   # a later binding overrides
    lines = [f"INPUT({n})" for n in pis]
    for k, port in enumerate(ports):
        lines += [f"o{k} = XOR({', '.join(port)})", f"OUTPUT(o{k})",
                  f"#@block B{k} in: {','.join(port)} out: o{k},{port[0]}"]
    netlist = circuit.parse_netlist("\n".join(lines), name=f"stim{degree}")
    taps = {degree} | {t for t in range(1, degree) if rng.random() < 0.3}
    poly = tpg.Polynomial(degree, frozenset(taps))
    misr_poly = tpg.Polynomial.parse("x^2+x+1")
    bindings, misrs = [], []
    for k, port in enumerate(ports):
        cg, cg_bits = None, ()
        if rng.random() < 0.6:
            cg_bits = tuple(rng.sample(range(len(port)), rng.randint(1, len(port))))
            cg = tpg.ConstraintProgram(
                len(cg_bits),
                tuple((rng.randrange(1 << len(cg_bits)), rng.randint(1, 7))
                      for _ in range(rng.randint(1, 4))),
                rng.random() < 0.5)
        slice_ = {bit: rng.randrange(degree)
                  for bit in range(len(port)) if bit not in cg_bits}
        bindings.append(tpg.PortBinding(f"B{k}", len(port), slice_, cg, cg_bits))
        misrs.append(bist.MisrAssignment(f"B{k}", misr_poly,
                                         compactor.XorCascade(2, 2)))
    plan = bist.BistPlan(poly, rng.randrange(1, 1 << degree), tuple(bindings),
                         tuple(misrs), pattern_count=count)
    return netlist, plan


def test_plan_planes_match_pattern_stream_random_plans():
    rng = random.Random(0x91A7E)
    counts = (1, 2, 63, 64, 65, 4096)
    seen = {"cyclic": 0, "held": 0, "replicated": 0}
    for degree in range(2, 21):
        for count in (counts[degree % 6], counts[(degree + 3) % 6]):
            netlist, plan = _random_stimulus_case(rng, degree, count)
            for b in plan.bindings:
                if b.cg is not None:
                    seen["cyclic" if b.cg.cyclic else "held"] += 1
                values = list(b.alfsr_slice.values())
                seen["replicated"] += len(set(values)) < len(values)
            want = bist.BistSession(netlist, plan).pattern_stream()
            width = len(netlist.primary_inputs)
            assert bist.plan_planes(netlist, plan) == oracle.transpose(want, width), \
                (degree, count)
            assert bist.plan_patterns(netlist, plan) == want, (degree, count)
    assert all(seen.values()), seen


def test_plan_planes_count_prefix_matches_set_count(core, core_plan):
    for count in (1, 2, 63, 64, 65):
        session = bist.BistSession(core, core_plan)
        session.set_count(count)
        want = session.pattern_stream()
        assert bist.plan_patterns(core, core_plan, count=count) == want
        assert bist.plan_planes(core, core_plan._replace(pattern_count=count)) \
            == oracle.transpose(want, len(core.primary_inputs))
    with pytest.raises(PlanError, match="pattern_count 0 outside"):
        bist.plan_patterns(core, core_plan, count=0)


def test_plan_patterns_on_core_match_pattern_stream(core, core_plan):
    assert bist.plan_patterns(core, core_plan) == \
        bist.BistSession(core, core_plan).pattern_stream()


@pytest.mark.parametrize("src", [8, 9, -1])
def test_alfsr_source_out_of_range_rejected_on_both_paths(mini10, mini_plan, src):
    binding = mini_plan.bindings[0]._replace(
        alfsr_slice={0: 0, 1: 1, 2: 2, 3: src})
    bad = mini_plan._replace(bindings=(binding,), golden=None)
    for build in (bist.BistSession, bist.plan_planes, bist.plan_patterns):
        with pytest.raises(PlanError, match=f"ALFSR bit {src} out of range"):
            build(mini10, bad)
