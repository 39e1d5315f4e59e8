import random
from collections import Counter

import pytest

from corebist import bist, circuit, faultsim, fixture_path, tpg
from corebist.errors import SimulationError

import oracle
from conftest import (exhaustive_patterns, random_patterns, random_sequential,
                      seqmini_plan)
from test_equivalence import CORES, COUNTS, matrix_case, matrix_core, tdf_firsts


# -- enumeration -----------------------------------------------------------------

def test_single_and_gate_has_6_saf(and2):
    u = faultsim.enumerate_faults(and2)
    # 3 fanout-free nets, pin faults coincide with stems: 3 sites x 2
    assert len(u) == 6
    assert Counter(f.kind for f in u.faults) == {"SA0": 3, "SA1": 3}


def test_single_and_gate_has_6_tdf(and2):
    u = faultsim.enumerate_faults(and2, ("STR", "STF"))
    assert len(u) == 6
    assert Counter(f.kind for f in u.faults) == {"STR": 3, "STF": 3}


def test_fanout_adds_branch_faults():
    n = circuit.parse_netlist(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n"
        "y = AND(a, b)\nz = OR(a, b)")
    u = faultsim.enumerate_faults(n)
    # 4 stems x 2 plus branch faults on a and b (fanout 2 each): 4 pins x 2
    assert len(u) == 8 + 8


def test_mini10_count_matches_independent_enumeration(mini10):
    u = faultsim.enumerate_faults(mini10)
    # independent count straight from the structure
    readers = {n: 0 for n in mini10.nets}
    for g in mini10.gates:
        for i in g.inputs:
            readers[i] += 1
    expected = 2 * len(mini10.nets) + \
        2 * sum(c for c in readers.values() if c > 1)
    assert len(u) == expected


def test_enumeration_is_deterministic(mini10):
    u1 = faultsim.enumerate_faults(mini10)
    u2 = faultsim.enumerate_faults(mini10)
    assert u1.faults == u2.faults


# -- collapsing --------------------------------------------------------------------

def test_and_gate_sa0_class(and2):
    u = faultsim.collapse(faultsim.enumerate_faults(and2), and2)
    classes = {}
    for f, rep in u.collapse_map.items():
        classes.setdefault(rep, set()).add(f)
    sa0_class = {frozenset(fs.key for fs in c) for c in classes.values()
                 if len(c) > 1}
    assert frozenset({"a:SA0", "b:SA0", "y:SA0"}) in sa0_class
    assert len(u) == 4   # {a,b,y} SA0 collapse into one; three SA1 remain


def test_not_gate_input_sa0_equiv_output_sa1():
    n = circuit.parse_netlist("INPUT(a)\nOUTPUT(y)\ny = NOT(a)")
    u = faultsim.collapse(faultsim.enumerate_faults(n), n)
    m = {f.key: rep.key for f, rep in u.collapse_map.items()}
    assert m["a:SA0"] == m["y:SA1"]
    assert m["a:SA1"] == m["y:SA0"]
    assert len(u) == 2


def test_collapsed_set_detection_equivalent_under_exhaustive(mini10):
    pats = exhaustive_patterns(mini10)
    full = faultsim.enumerate_faults(mini10)
    collapsed = faultsim.collapse(full, mini10)
    r_full = faultsim.serial_fault_sim(mini10, full, pats)
    r_col = faultsim.serial_fault_sim(mini10, collapsed, pats)
    det_full = {f: d is not None
                for f, d in zip(r_full.faults, r_full.first_detect)}
    det_col = {f: d is not None
               for f, d in zip(r_col.faults, r_col.first_detect)}
    for f in full.faults:
        assert det_full[f] == det_col[collapsed.collapse_map[f]]


def test_collapsing_is_a_partition(seventeen):
    full = faultsim.enumerate_faults(seventeen)
    collapsed = faultsim.collapse(full, seventeen)
    assert set(collapsed.collapse_map) == set(full.faults)
    reps = set(collapsed.faults)
    for f, rep in collapsed.collapse_map.items():
        assert rep in reps
        assert collapsed.collapse_map[rep] == rep


@pytest.mark.parametrize("kinds", [faultsim.SA_KINDS,
                                   faultsim.SA_KINDS + faultsim.TDF_KINDS],
                         ids=["saf", "saf+tdf"])
@pytest.mark.parametrize("core", CORES + ("ldpc_like_core", "ldpc_like_cu"))
def test_collapse_equals_the_union_find_closure(core, kinds):
    if core in CORES:
        netlist = matrix_core(core)[0]
    else:
        netlist = circuit.load_netlist(fixture_path(f"{core}.bench"))
    full = faultsim.enumerate_faults(netlist, kinds)
    pairs = oracle.gate_equivalences(full.faults, netlist)
    # each fault links up to at most one output fault, so classes are trees
    assert max(Counter(a for a, _ in pairs).values()) == 1
    assert faultsim.collapse(full, netlist).collapse_map == \
        oracle.collapse_closure(full.faults, netlist)


@pytest.mark.xfail(strict=True, reason=(
    "collapse merges an input-pin fault into the gate's output fault when "
    "the input net has one gate reader, even if that net is also observed; "
    "perfbench/reference.py collapsed() has the same rule and "
    "perfbench/selfcheck.py compares the two, so both change together"))
def test_collapse_keeps_observed_inputs_apart(seqmini):
    # every fault must be detected by the patterns that detect its class
    # representative; a net that is observed shows its own fault directly
    obs = circuit.parse_netlist(
        "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(y)\ny = AND(a, b)\n",
        name="observed_input")
    cases = [(obs, [(1, 0), (0, 1)]),
             (seqmini, bist.plan_patterns(seqmini, seqmini_plan(20)))]
    mismatched = []
    for n, pats in cases:
        full = faultsim.enumerate_faults(n)
        report = faultsim.serial_fault_sim(n, full, pats)
        first = dict(zip(report.faults, report.first_detect))
        mismatched += [(n.name, f.key, rep.key) for f, rep in
                       faultsim.collapse(full, n).collapse_map.items()
                       if first[f] != first[rep]]
    # the observed input's class hides b:SA0 and y:SA0 (4 of 6 detected, the
    # collapsed set reports 4 of 4); seqmini's q1:SA0 (first detect 1) sits
    # in b:SA0's class (first detect 6)
    assert not mismatched, mismatched


def test_fault_records_keep_their_value_contract(and2):
    f = faultsim.FaultDescriptor("a", "SA0")
    assert repr(f) == "FaultDescriptor(net='a', kind='SA0', gate=None, pin=None)"
    assert f == faultsim.FaultDescriptor("a", "SA0", None, None)
    assert hash(f) == hash(faultsim.FaultDescriptor("a", "SA0"))
    assert f != faultsim.FaultDescriptor("a", "SA0", "y", 0)
    assert len(faultsim.FaultUniverse((f,))) == 1
    # a collapsed universe, whose collapse map is a dict, hashes (by identity)
    hash(faultsim.collapse(faultsim.enumerate_faults(and2), and2))


# -- serial simulation ---------------------------------------------------------------

def test_and_y_sa0_detected_at_pattern_0(and2):
    u = faultsim.FaultUniverse((faultsim.FaultDescriptor("y", "SA0"),))
    r = faultsim.serial_fault_sim(and2, u, [(1, 1)])
    assert r.first_detect == (0,)


def test_and_y_sa0_undetected_without_11(and2):
    u = faultsim.FaultUniverse((faultsim.FaultDescriptor("y", "SA0"),))
    r = faultsim.serial_fault_sim(and2, u, [(0, 0), (0, 1), (1, 0)])
    assert r.first_detect == (None,)


def test_seventeen_matches_brute_force_oracle(seventeen):
    poly = tpg.Polynomial.parse("x^8+x^4+x^3+x^2+1")
    st = tpg.AlfsrState(poly, 0x41)
    pats = []
    for _ in range(256):
        pats.append(tuple(st.bit(i % 8) for i in range(6)))
        st = tpg.alfsr_step(st)
    u = faultsim.enumerate_faults(seventeen)
    r = faultsim.serial_fault_sim(seventeen, u, pats)
    brute = oracle.brute_force_detection(
        seventeen, u.faults, pats,
        observe=faultsim.observation_nets(seventeen))
    for f, first in zip(r.faults, r.first_detect):
        vec = brute[f]
        expected = vec.index(True) if True in vec else None
        assert first == expected, f.key


def test_sequential_fault_sim_matches_oracle(seqmini):
    rng = random.Random(77)
    pats = random_patterns(rng, seqmini, 40)
    u = faultsim.enumerate_faults(seqmini)
    r = faultsim.serial_fault_sim(seqmini, u, pats)
    brute = oracle.brute_force_detection(
        seqmini, u.faults, pats,
        observe=faultsim.observation_nets(seqmini))
    for f, first in zip(r.faults, r.first_detect):
        vec = brute[f]
        expected = vec.index(True) if True in vec else None
        assert first == expected, f.key


# -- parallel simulation -----------------------------------------------------------

# The equivalence matrix (test_equivalence.py) holds the kernel-vs-oracle
# cases.

def test_parallel_rejects_empty_patterns(seventeen):
    u = faultsim.enumerate_faults(seventeen)
    with pytest.raises(SimulationError, match="no patterns"):
        faultsim.parallel_fault_sim(seventeen, u, [])


# -- compiled kernel against the oracle ------------------------------------------

def test_kernel_toggle_activity_matches_scalar():
    # the case-study core; the matrix's toggle row holds the small cores
    core = circuit.load_netlist(fixture_path("ldpc_like_core.bench"))
    rng = random.Random(0x7066)
    for count in (2, 63, 64, 65):
        pats = random_patterns(rng, core, count)
        want = circuit.toggle_activity(core, pats)
        assert faultsim.stimulus(core, pats).toggle_activity() == want, count
        # read off the fault-free planes of a fault simulation's pass
        stim = faultsim.stimulus(core, pats)
        faultsim.parallel_fault_sim(core, faultsim.enumerate_faults(core), stim)
        assert stim.toggle_activity() == want, count


def _stems(tdf):
    """The stem stuck-at fault each transition fault of ``tdf`` reads."""
    return {faultsim.FaultDescriptor(f.net, "SA0" if f.kind == "STR" else "SA1")
            for f in tdf.faults}


def test_also_on_fault_kernel_keeps_the_tdf_stems(monkeypatch):
    # one planes call over stuck-at faults and the transition faults that
    # read stem stuck-at faults walks at most one cone per distinct stem of
    # a fanout-free region, with that stem complemented, however many
    # faults reach it; first detects stay those of tdf_sim
    core = circuit.load_netlist(fixture_path("ldpc_like_core.bench"))
    pats = random_patterns(random.Random(0xA150), core, 200)
    saf = faultsim.collapse(faultsim.enumerate_faults(core), core)
    tdf = faultsim.enumerate_faults(core, ("STR", "STF"))
    stems = _stems(tdf)
    assert stems & set(saf.faults) and stems - set(saf.faults)
    want = faultsim.tdf_sim(core, tdf, pats)
    kernel = faultsim.stimulus(core, pats)
    obs = set(faultsim.observation_nets(core))
    roots = {kernel.index[net] for net, readers in core.readers.items()
             if faultsim._is_stem(readers, net in obs)}
    walked = []
    real = faultsim.FaultKernel._walk

    def counting(self, site, value):
        assert value == self.good[site] ^ self.mask
        walked.append(site)
        return real(self, site, value)
    monkeypatch.setattr(faultsim.FaultKernel, "_walk", counting)
    planes = kernel.planes(saf.faults + tdf.faults)
    assert len(walked) == len(set(walked))
    assert set(walked) <= roots
    assert len(walked) < len(set(saf.faults) | stems) / 4
    assert tuple((p & -p).bit_length() - 1 if p else None
                 for p in planes[len(saf):]) == want.first_detect


def test_kernel_rejects_sequential_and_empty(seqmini, mini10):
    with pytest.raises(SimulationError, match="combinational"):
        faultsim.FaultKernel(seqmini, [0, 0], 1)
    with pytest.raises(SimulationError, match="no patterns"):
        faultsim.FaultKernel(mini10, [0] * 4, 0)
    with pytest.raises(SimulationError, match="no patterns"):
        faultsim.stimulus(mini10, [])
    with pytest.raises(SimulationError, match="width"):
        faultsim.stimulus(mini10, [(0, 1)])
    with pytest.raises(SimulationError, match="2 input planes for 4"):
        faultsim.FaultKernel(mini10, [0, 1], 1)


# -- fault-parallel sequential kernel against the oracle ----------------------------

def test_serial_oracle_never_calls_the_sequential_kernel(seqmini, monkeypatch):
    rng = random.Random(12)
    n = random_sequential(rng, n_in=3, n_flops=3, n_gates=14)
    cases = [(net, random_patterns(rng, net, 20)) for net in (seqmini, n)]
    want = [faultsim.stimulus(net, pats).planes(
                faultsim.enumerate_faults(net).faults) for net, pats in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the serial oracle used the sequential kernel")
    monkeypatch.setattr(faultsim.SequentialStimulus, "_errors", refuse)
    for (net, pats), planes in zip(cases, want):
        u = faultsim.enumerate_faults(net)
        r = faultsim.serial_fault_sim(net, u, pats)
        assert r.first_detect == tuple(
            (p & -p).bit_length() - 1 if p else None for p in planes)
    with pytest.raises(AssertionError, match="sequential kernel"):
        faultsim.parallel_fault_sim(seqmini, faultsim.enumerate_faults(seqmini),
                                    cases[0][1])


def test_shared_sequential_stimulus_matches_separate_passes(monkeypatch):
    cases = [(core, count) for core in ("seqmini", "rseq", "seqbench")
             for count in COUNTS]
    passes = []
    real = faultsim.SequentialStimulus._errors

    def counting(kernel, faults, *fold):
        passes.append(set(faults))
        return real(kernel, faults, *fold)
    for core, count in cases:
        n, _, pats = matrix_case(core, count)
        saf = faultsim.collapse(faultsim.enumerate_faults(n), n)
        tdf = faultsim.enumerate_faults(n, ("STR", "STF"))
        # separate passes: each call builds its own stimulus
        monkeypatch.setattr(faultsim.SequentialStimulus, "_errors", real)
        r_saf = faultsim.parallel_fault_sim(n, saf, pats)
        planes = faultsim.stimulus(n, pats).planes(saf.faults)
        r_tdf = faultsim.tdf_sim(n, tdf, pats) if len(pats) > 1 else None
        assert planes == [diff for diff, _ in real(
            faultsim.stimulus(n, pats), saf.faults, {}, 0)]
        assert r_saf.first_detect == \
            faultsim.serial_fault_sim(n, saf, pats).first_detect
        if r_tdf is not None:
            assert r_tdf.first_detect == tdf_firsts(core, count), \
                (n.name, len(pats))
        # one shared stimulus: SAF and TDF off a single pass over the
        # stuck-at faults and the stems TDF reads
        monkeypatch.setattr(faultsim.SequentialStimulus, "_errors", counting)
        tdf_kinds = faultsim.TDF_KINDS if r_tdf is not None else ()
        mixed = faultsim.collapse(
            faultsim.enumerate_faults(n, faultsim.SA_KINDS + tdf_kinds), n)
        passes.clear()
        report = faultsim.parallel_fault_sim(n, mixed,
                                             faultsim.stimulus(n, pats))
        stems = _stems(tdf) if r_tdf is not None else set()
        assert passes == [set(saf.faults) | stems], (n.name, len(pats))
        assert report.of_kinds(faultsim.SA_KINDS) == r_saf
        if r_tdf is not None:
            assert report.of_kinds(faultsim.TDF_KINDS) == r_tdf


def test_sequential_kernel_rejects_empty_and_width(seqmini):
    with pytest.raises(SimulationError, match="no patterns"):
        faultsim.stimulus(seqmini, [])
    with pytest.raises(SimulationError, match="width"):
        faultsim.stimulus(seqmini, [(0, 1, 1)])


def test_kernel_builds_its_op_table_once(seqmini, mini10, monkeypatch):
    # every pass reads the op table the kernel built; at width 0 each fault
    # gets an empty list of folded planes, as it gets width planes otherwise
    calls = []
    real = faultsim._op_table

    def counting(netlist):
        calls.append(netlist.name)
        return real(netlist)
    monkeypatch.setattr(faultsim, "_op_table", counting)
    rng = random.Random(23)
    for netlist in (seqmini, mini10):
        calls.clear()
        k = faultsim.stimulus(netlist, random_patterns(rng, netlist, 20))
        faults = faultsim.enumerate_faults(netlist).faults
        taps = {k.index[netlist.primary_outputs[0]]: [0]}
        k.planes(faults)
        assert all(len(words) == 1 for words in k.folded(faults, taps, 1))
        assert len(k.good) == len(netlist.nets)
        assert calls == [netlist.name], netlist.name
        assert list(k.folded(faults, {}, 0)) == [[]] * len(faults)


# -- transition-delay faults ----------------------------------------------------------

def test_buf_str_detected_by_rising_pair():
    n = circuit.parse_netlist("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    u = faultsim.FaultUniverse((faultsim.FaultDescriptor("a", "STR"),))
    r = faultsim.tdf_sim(n, u, [(0,), (1,)])
    assert r.first_detect == (1,)


def test_buf_str_needs_a_launch():
    n = circuit.parse_netlist("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    u = faultsim.FaultUniverse((faultsim.FaultDescriptor("a", "STR"),))
    r = faultsim.tdf_sim(n, u, [(1,), (1,)])
    assert r.first_detect == (None,)


def test_tdf_needs_two_patterns(and2):
    u = faultsim.enumerate_faults(and2, ("STR", "STF"))
    with pytest.raises(SimulationError):
        faultsim.tdf_sim(and2, u, [(1, 1)])


def test_tdf_detection_implies_sa_observable(mini10):
    rng = random.Random(4)
    pats = random_patterns(rng, mini10, 32)
    u = faultsim.enumerate_faults(mini10, ("STR", "STF"))
    r = faultsim.tdf_sim(mini10, u, pats)
    for f, first in zip(r.faults, r.first_detect):
        if first is None:
            continue
        sa = "SA0" if f.kind == "STR" else "SA1"
        [plane] = faultsim.stimulus(mini10, pats).planes(
            [faultsim.FaultDescriptor(f.net, sa)])
        assert (plane >> first) & 1


# -- coverage ---------------------------------------------------------------------

def test_coverage_arithmetic():
    faults = tuple(faultsim.FaultDescriptor(f"n{i}", "SA0") for i in range(10))
    r = faultsim.CoverageReport(4, faults, tuple([0] * 9 + [None]),
                                (None,) * 10)
    assert r.coverage == 0.9
    summary = faultsim.coverage(r)
    assert summary["total"]["coverage"] == 0.9


def test_empty_universe_is_an_error():
    r = faultsim.CoverageReport(4, (), (), ())
    with pytest.raises(SimulationError, match="empty"):
        faultsim.coverage(r)


def test_coverage_monotone_in_prefix(mini10):
    rng = random.Random(99)
    pats = random_patterns(rng, mini10, 64)
    u = faultsim.enumerate_faults(mini10)
    prev = -1
    for k in (2, 8, 16, 32, 64):
        r = faultsim.parallel_fault_sim(mini10, u, pats[:k])
        assert r.detected >= prev
        prev = r.detected
