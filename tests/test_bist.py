import random

import pytest

from corebist import access, bist, circuit, compactor, faultsim, fixture_path, tpg
from corebist.errors import PlanError, SimulationError

import oracle
from conftest import random_combinational, random_sequential, seqmini_plan


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
    order = mini10.primary_inputs
    for i, pat in enumerate(stream):
        a = session.assemble_inputs(i)
        assert tuple(a[n] for n in order) == pat
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
    return [bist.run_selftest(netlist, plan, injected=f, require_golden=False)
            for f in faults]


def _assert_same_results(netlist, plan, faults, label=""):
    results = bist.selftest_results(netlist, plan, faults,
                                    bist.plan_stimulus(netlist, plan))
    for f, got, want in zip(faults, results, _scalar(netlist, plan, faults)):
        key = f.key if f is not None else "fault-free"
        assert got.signatures == want.signatures, (label, key)
        if plan.golden is not None:
            assert got.passed == want.passed, (label, key)
        assert got.patterns_applied == want.patterns_applied


def test_linear_signatures_match_session_mini10(mini10, mini_plan):
    u = faultsim.collapse(faultsim.enumerate_faults(mini10), mini10)
    _assert_same_results(mini10, mini_plan, (None,) + u.faults)


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
        assert got.signatures == want.signatures, f.key
        assert got.passed == want.passed, f.key


_MISR_POLYS = ("x^2+x+1", "x^3+x+1", "x^4+x+1", "x^5+x^2+1")


def _random_plan_case(rng, count, name, flops=0):
    """Random netlist cut into 1-4 blocks, with a random plan: CG-driven
    input bits, cascades with in % out != 0, MISR widths 2-5. With
    ``flops``, a :func:`random_sequential` core with that many flops, whose
    Q nets output ports may read."""
    n_blocks = rng.randint(1, 4)
    n_in = rng.randint(n_blocks, 9)
    n_gates = rng.randint(8, 30)
    if flops:
        base = random_sequential(rng, n_in=n_in, n_flops=flops,
                                 n_gates=n_gates, name=name)
    else:
        base = random_combinational(rng, n_in=n_in, n_gates=n_gates, name=name)
    pis = list(base.primary_inputs)
    cuts = sorted(rng.sample(range(1, n_in), n_blocks - 1))
    in_ports = [pis[a:b] for a, b in zip([0] + cuts, cuts + [n_in])]
    polys = [tpg.Polynomial.parse(rng.choice(_MISR_POLYS))
             for _ in range(n_blocks)]
    out_ports = [rng.sample(base.nets, rng.randint(p.degree, min(
        len(base.nets), 3 * p.degree + 1))) for p in polys]
    pragmas = [f"#@block B{k} in: {','.join(i)} out: {','.join(o)}"
               for k, (i, o) in enumerate(zip(in_ports, out_ports))]
    bench = [line for line in base.to_bench().splitlines()
             if not line.startswith("#@block")]
    netlist = circuit.parse_netlist("\n".join(pragmas + bench), name=name)
    alfsr = tpg.Polynomial.parse(tpg.DEFAULT_POLYNOMIALS[8])
    bindings, misrs = [], []
    for k, (port, poly) in enumerate(zip(in_ports, polys)):
        cg, cg_bits = None, ()
        if rng.random() < 0.5:
            cg_bits = tuple(rng.sample(range(len(port)),
                                       rng.randint(1, len(port))))
            width = len(cg_bits)
            cg = tpg.ConstraintProgram(
                width, tuple((rng.randrange(1 << width), rng.randint(1, 5))
                             for _ in range(rng.randint(1, 4))),
                rng.random() < 0.5)
        bindings.append(tpg.modular_binding(f"B{k}", len(port), 8, cg, cg_bits))
        misrs.append(bist.MisrAssignment(
            f"B{k}", poly,
            compactor.XorCascade(len(out_ports[k]), poly.degree)))
    plan = bist.BistPlan(alfsr, rng.randrange(1, 256), tuple(bindings),
                         tuple(misrs), pattern_count=count)
    return netlist, bist.compute_golden(netlist, plan)


def test_linear_signatures_match_session_random_plans():
    rng = random.Random(0x51C)
    misr_counts, uneven, cg = set(), 0, 0
    for trial in range(4):
        for count in (1, 15, 16, 17, 64):
            netlist, plan = _random_plan_case(rng, count, f"sig{trial}")
            misr_counts.add(len(plan.misrs))
            uneven += sum(m.cascade.in_width % m.cascade.out_width != 0
                          for m in plan.misrs)
            cg += sum(b.cg is not None for b in plan.bindings)
            u = faultsim.enumerate_faults(netlist)   # stems and branches
            _assert_same_results(netlist, plan, (None,) + u.faults,
                                 (trial, count))
    assert len(misr_counts) > 2 and uneven and cg


def test_misr_detection_rate_matches_session():
    rng = random.Random(0xA11A5)
    checked = 0
    for trial in range(4):
        netlist, plan = _random_plan_case(rng, rng.choice((16, 17, 64)),
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
                     if r.all_pass)
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
        tuple(s.value for s in r.signatures) != stale_values
        for r in _scalar(mini10, stale, u.faults))


def test_linear_signatures_match_session_sequential_cores(seqmini):
    for count in (1, 2, 20, 63, 64, 65):
        u = faultsim.enumerate_faults(seqmini)
        _assert_same_results(seqmini, seqmini_plan(count), (None,) + u.faults,
                             ("seqmini", count))
    rng = random.Random(0x5E9)
    misr_counts, uneven, cg, q_ports = set(), 0, 0, 0
    for trial in range(3):
        for count in (1, 2, 63, 64, 65):
            netlist, plan = _random_plan_case(rng, count, f"seqsig{trial}",
                                              flops=rng.randint(1, 4))
            misr_counts.add(len(plan.misrs))
            uneven += sum(m.cascade.in_width % m.cascade.out_width != 0
                          for m in plan.misrs)
            cg += sum(b.cg is not None for b in plan.bindings)
            qs = {f.q for f in netlist.flops}
            q_ports += sum(bool(qs & set(b.output_port))
                           for b in netlist.blocks)
            u = faultsim.collapse(faultsim.enumerate_faults(netlist), netlist)
            _assert_same_results(netlist, plan, (None,) + u.faults,
                                 (trial, count))
            if count == 65:       # a stored golden that is not the plan's
                stale = plan._replace(golden=tuple(
                    s._replace(value=s.value ^ 1) for s in plan.golden))
                _assert_same_results(netlist, stale, (None,) + u.faults,
                                     (trial, "stale"))
    assert len(misr_counts) > 1 and uneven and cg and q_ports


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
        assert [r.signatures for r in got] == [r.signatures for r in scalar]
    # the compaction-loss study on a flop core, against the oracle's
    golden = want[0][0].signatures
    u = faultsim.enumerate_faults(seqmini)
    detected = faultsim.serial_fault_sim(
        seqmini, u, bist.plan_patterns(seqmini, seq_plan)).detected_faults()
    scalar = dict(zip(u.faults, want[0][1:]))
    _, aliased = bist.misr_detection_rate(
        seqmini, seq_plan._replace(golden=golden), u)
    assert aliased == tuple(f for f in detected
                            if scalar[f].signatures == golden)


def test_session_oracle_never_calls_the_kernel(mini10, mini_plan, seqmini,
                                               monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the scalar session used the fault kernel")
    monkeypatch.setattr(faultsim, "FaultKernel", refuse)
    monkeypatch.setattr(faultsim, "SequentialStimulus", refuse)
    monkeypatch.setattr(faultsim, "sequential_sim", refuse)
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

def _transposed_kernel(netlist, planes, n):
    """The kernel of the same patterns handed over as tuples."""
    rows = [tuple(p >> t & 1 for p in planes) for t in range(n)]
    return faultsim.stimulus(netlist, rows)


def _assert_same_kernel(netlist, a, b, label):
    assert len(a) == len(b) and a.good == b.good, label
    u = faultsim.collapse(faultsim.enumerate_faults(netlist), netlist)
    for f in u.faults:
        assert a.faulty(f) == b.faulty(f), (label, f.key)
        assert a.planes((f,))[0] == b.planes((f,))[0], (label, f.key)


def test_kernel_from_plan_planes_matches_kernel_from_tuples(mini10, seventeen,
                                                            core, core_plan,
                                                            mini_plan):
    for netlist, plan in ((mini10, mini_plan), (core, core_plan)):
        n = plan.pattern_count
        kernel = bist.plan_stimulus(netlist, plan)
        _assert_same_kernel(netlist, kernel, _transposed_kernel(
            netlist, bist.plan_planes(netlist, plan), n), netlist.name)
    rng = random.Random(0x17)
    for n in (1, 2, 64, 65, 300):
        planes = [rng.getrandbits(n) for _ in seventeen.primary_inputs]
        _assert_same_kernel(seventeen, faultsim.FaultKernel(seventeen, planes, n),
                            _transposed_kernel(seventeen, planes, n), n)


def test_tdf_on_a_shared_kernel_matches_tdf_from_patterns(mini10, mini_plan,
                                                          core, core_plan):
    for netlist, plan in ((mini10, mini_plan), (core, core_plan)):
        kernel = bist.plan_stimulus(netlist, plan)
        # stuck-at first, as the commands run it, so TDF reads kept planes
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


def _transpose(patterns, width):
    return [sum(p[i] << t for t, p in enumerate(patterns)) for i in range(width)]


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
            assert bist.plan_planes(netlist, plan) == _transpose(want, width), \
                (degree, count)
            assert bist.plan_patterns(netlist, plan) == want, (degree, count)
    assert all(seen.values()), seen


def test_plan_planes_count_prefix_matches_set_count(core, core_plan):
    for count in (1, 2, 63, 64, 65):
        session = bist.BistSession(core, core_plan)
        session.set_count(count)
        want = session.pattern_stream()
        assert bist.plan_patterns(core, core_plan, count=count) == want
        assert bist.plan_planes(core, core_plan, count=count) == \
            _transpose(want, len(core.primary_inputs))
    with pytest.raises(PlanError, match="counter range"):
        bist.plan_planes(core, core_plan, count=0)


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


# -- TAP START through the signature engine -----------------------------------------

def _tap_script(rng, plan):
    """WCDR commands (command, operand) covering RESET, SET_COUNT with operand
    0 (the full counter range), START twice, a smaller count after START, a
    larger count then START without RESET, SELECT and READ_STATUS."""
    full = 1 << plan.counter_width
    small = rng.randint(1, 40)
    script = [(access.CMD_RESET, 0), (access.CMD_SET_COUNT, small),
              (access.CMD_START, 0), (access.CMD_START, 0),
              (access.CMD_READ_STATUS, 0),
              (access.CMD_SET_COUNT, rng.randint(1, small)), (access.CMD_START, 0),
              (access.CMD_READ_STATUS, 0),
              (access.CMD_SET_COUNT, small + rng.randint(1, 60)),
              (access.CMD_START, 0), (access.CMD_READ_STATUS, 0),
              (access.CMD_SET_COUNT, 0), (access.CMD_START, 0),
              (access.CMD_READ_STATUS, 0)]
    commands = [access.CMD_RESET, access.CMD_SET_COUNT, access.CMD_START,
                access.CMD_SELECT, access.CMD_READ_STATUS]
    for _ in range(12):
        command = rng.choice(commands)
        operand = 0
        if command == access.CMD_SET_COUNT:
            operand = rng.choice((0, rng.randint(1, 200), rng.randrange(full)))
        elif command == access.CMD_SELECT:
            operand = rng.randrange(len(plan.misrs))
        script.insert(rng.randrange(len(script) + 1), (command, operand))
    return script


def _session_state(session, wrapper):
    return (session.signatures(), session.alfsr.register,
            session.control.pattern_counter, session.control.phase,
            session.control.test_enable, session.control.output_select,
            wrapper.status, wrapper.wdr)


def _assert_engine_session_matches(netlist, plan, script, label):
    scalar = access.TapSession(bist.BistSession(netlist, plan))
    engine = access.TapSession(bist.EngineSession(netlist, plan))
    for tap in (scalar, engine):
        tap.tap_reset()
    for i, (command, operand) in enumerate(script):
        rec = access.TraceRecorder(scalar)
        rec.write_wcdr(command, operand)
        if command == access.CMD_READ_STATUS:
            rec.read_wdr()
        got = access.drive_trace(engine, access.SerialTrace(tuple(rec.samples)))
        where = (label, i, command, operand)
        assert got == rec.tdo, where
        assert _session_state(engine.bist, engine.wrapper) == \
            _session_state(scalar.bist, scalar.wrapper), where


def test_engine_session_matches_scalar_session_mini10(mini10, mini_plan):
    rng = random.Random(0x7A9)
    for trial in range(3):
        _assert_engine_session_matches(mini10, mini_plan,
                                       _tap_script(rng, mini_plan),
                                       trial)


def test_engine_session_matches_scalar_session_random_plans():
    rng = random.Random(0x5E55)
    misr_counts = set()
    for trial in range(4):
        netlist, plan = _random_plan_case(rng, rng.choice((16, 17, 64)),
                                          f"tap{trial}")
        misr_counts.add(len(plan.misrs))
        _assert_engine_session_matches(netlist, plan,
                                       _tap_script(rng, plan), trial)
    assert len(misr_counts) > 1


def test_engine_session_matches_scalar_session_sequential_cores(seqmini):
    # START after START, or after a smaller count, continues from the state
    # the scalar session's core holds: the state of the plan's prefix
    rng = random.Random(0x5E56)
    plan = bist.compute_golden(seqmini, seqmini_plan())
    _assert_engine_session_matches(seqmini, plan, _tap_script(rng, plan),
                                   "seqmini")
    misr_counts = {len(plan.misrs)}
    for trial in range(3):
        netlist, plan = _random_plan_case(rng, rng.choice((16, 17, 64)),
                                          f"seqtap{trial}",
                                          flops=rng.randint(1, 4))
        misr_counts.add(len(plan.misrs))
        _assert_engine_session_matches(netlist, plan,
                                       _tap_script(rng, plan), trial)
    assert len(misr_counts) > 1
