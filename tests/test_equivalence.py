"""One equivalence matrix: every fast path behind the reports against its
scalar oracle.

A cell is one (row, core, count), with the pytest id ``row-core-count``:

* a row is a fast path and its oracle, one function marked ``@row``;
* a core is one of ``CORES``: mini10, seventeen, seqmini, a seeded random
  combinational core, a seeded random sequential core with hidden state,
  a small core of the benchmark's generator and a hand-written core of
  the stem rule's cases (``STEMS``), each with a plan;
* a count is one of ``COUNTS``: the cell runs that many seeded random
  patterns, or the core's plan cut to that many.

The oracles run once per (core, count), with every kernel refused
(:func:`scalar`), so no oracle ever calls a kernel. A cell that cannot
exist asserts the refusal: the combinational kernel on a flop core, and
transition faults or toggle activity over one pattern. A new fast path
adds one row.
"""

import functools
import random

import pytest

from corebist import (access, bist, circuit, compactor, diagnosis, faultsim,
                      fixture_path, tpg)
from corebist.errors import SimulationError

import oracle
from conftest import (perfbench, random_combinational, random_patterns,
                      random_plan, random_sequential, seqmini_plan, tap_script)

# core -> the blocks the plan builder cuts it into (None: its own plan)
CORE_BLOCKS = {"mini10": None, "seventeen": 4, "seqmini": None, "rcomb": 3,
               "rseq": 2, "seqbench": 3, "stems": None}
CORES = tuple(CORE_BLOCKS)
# one pattern, one launch/capture pair, around the 64-bit machine word, and
# an odd count near 100
COUNTS = (1, 2, 63, 64, 65, 97)

# the stem rule's cases: n1 fans out and reconverges at n4; b, d, n2, n4
# and n5 each feed one gate pin, so b -> n1 and d -> n3 are one-gate
# regions and n2 -> n4 -> n5 -> n6 -> w a longer one; w is observed and
# read by z and v; AND reads d2 on both pins (its only reader) and XNOR
# reads n3 on two pins beside n4; input h and gate u are read by nothing
STEMS = """\
#@block MAIN in: a,b,c,d,e,f,h out: w,z,v
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
INPUT(h)
OUTPUT(w)
OUTPUT(z)
OUTPUT(v)
n1 = NAND(a, b)
n2 = OR(n1, c)
n3 = AND(n1, d)
n4 = XOR(n2, n3)
n5 = NOT(n4)
n6 = NOR(n5, e)
w = BUF(n6)
d2 = XOR(c, f)
n7 = AND(d2, d2)
k = XNOR(n3, n3, e)
z = OR(w, n7)
v = NAND(n7, w, k)
u = OR(a, f)
"""


@functools.cache
def matrix_core(name):
    """The netlist and plan of core ``name``."""
    if name == "mini10":
        return (circuit.load_netlist(fixture_path("mini10.bench")),
                bist.BistPlan.load(fixture_path("mini10.plan.json")))
    if name == "seqmini":
        return circuit.load_netlist(fixture_path("seqmini.bench")), seqmini_plan()
    if name == "stems":
        return circuit.parse_netlist(STEMS, name=name), bist.BistPlan(
            tpg.Polynomial.parse(tpg.DEFAULT_POLYNOMIALS[8]), 0x5B,
            (tpg.modular_binding("MAIN", 7, 8),),
            (bist.MisrAssignment("MAIN", tpg.Polynomial.parse("x^3+x+1"),
                                 compactor.XorCascade(3, 3)),),
            pattern_count=64)
    rng = random.Random(f"core:{name}")
    if name == "seventeen":
        base = circuit.load_netlist(fixture_path("seventeen.bench"))
    elif name == "rcomb":
        base = random_combinational(rng, n_in=6, n_gates=20, name=name)
    elif name == "rseq":
        base = random_sequential(rng, n_in=4, n_flops=4, n_gates=20, name=name)
    else:   # from the benchmark's generator
        bench = perfbench("gen_inputs").seq_bench(rng, 6, 6, 30, 4)
        base = circuit.parse_netlist(bench, name=name)
    return random_plan(rng, base, 64, CORE_BLOCKS[name])


@functools.cache
def matrix_case(name, count):
    """``(netlist, plan, patterns)`` of a cell: the core's plan cut to
    ``count`` patterns, with the scalar session's golden signatures, and
    ``count`` seeded random patterns."""
    netlist, plan = matrix_core(name)
    plan = bist.compute_golden(netlist, plan._replace(pattern_count=count,
                                                      golden=None))
    return netlist, plan, random_patterns(random.Random(f"{name}:{count}"),
                                          netlist, count)


# -- oracles, once per (core, count) ---------------------------------------------

# what an oracle must never call
KERNELS = ((faultsim, "FaultKernel"), (faultsim, "SequentialStimulus"),
           (bist, "signature_values"), (bist, "plan_planes"),
           (compactor, "signature_of_planes"))


def _refuse(*args, **kwargs):
    raise AssertionError("an oracle called a kernel")


def scalar(fn, *args):
    """``fn(*args)`` with every kernel refused."""
    with pytest.MonkeyPatch.context() as mp:
        for module, name in KERNELS:
            mp.setattr(module, name, _refuse)
        return fn(*args)


@functools.cache
def replay(core, count):
    """Every net's plane (bit t = pattern t, flop Q pre-edge) from the
    recursive replay from reset: fault-free, fault -> under that stuck-at
    fault (stems and branches), and fault -> its detection plane at the
    observation nets."""
    netlist, _, patterns = matrix_case(core, count)

    def planes(fault):
        values = oracle.run_sequence(netlist, patterns, fault, netlist.nets)
        return [oracle.plane(column) for column in zip(*values)]
    faults = faultsim.enumerate_faults(netlist).faults
    good, faulty = scalar(lambda: (planes(None), {
        f: planes(oracle.fault_tuple(f)) for f in faults}))
    obs = [netlist.nets.index(n) for n in faultsim.observation_nets(netlist)]
    detect = {}
    for f in faults:
        detect[f] = 0
        for i in obs:
            detect[f] |= faulty[f][i] ^ good[i]
    return good, faulty, detect


@functools.cache
def serial_report(core, count):
    netlist, _, patterns = matrix_case(core, count)
    return scalar(faultsim.serial_fault_sim, netlist,
                  faultsim.enumerate_faults(netlist), patterns)


@functools.cache
def tdf_firsts(core, count):
    """Each transition fault's first detect: the pairwise brute force on a
    combinational core, the sequential one on a core with flops."""
    netlist, _, patterns = matrix_case(core, count)
    faults = faultsim.enumerate_faults(netlist, ("STR", "STF")).faults
    obs = faultsim.observation_nets(netlist)
    if netlist.flops:
        return scalar(oracle.sequential_tdf_brute, netlist, faults, patterns, obs)
    brute = scalar(oracle.tdf_brute, netlist, faults, patterns, obs)
    return tuple(brute[f] for f in faults)


@functools.cache
def selftests(core, count):
    """``run_selftest`` of the cell's plan, fault-free and per stuck-at fault."""
    netlist, plan, _ = matrix_case(core, count)
    faults = (None,) + faultsim.enumerate_faults(netlist).faults
    return scalar(lambda: [bist.run_selftest(netlist, plan, injected=f)
                           for f in faults])


def _tap_state(tap):
    session, control = tap.bist, tap.bist.control
    return (session.signatures(), session.alfsr.register,
            control.pattern_counter, control.phase, control.test_enable,
            control.output_select, tap.wrapper.status,
            tap.wrapper.update["WDR"])


@functools.cache
def scalar_tap(core, count):
    """A ``tap_script`` for the cell's plan and, per WCDR command on the
    scalar session, its edges, their TDO and the state after them."""
    netlist, plan, _ = matrix_case(core, count)
    script = tap_script(random.Random(f"tap:{core}:{count}"), plan)

    def steps():
        tap = access.TapSession(bist.BistSession(netlist, plan))
        tap.tap_reset()
        for command, operand in script:
            start = len(tap.edges)
            tap.write_wcdr(command, operand)
            if command == access.CMD_READ_STATUS:
                tap.read_wdr()
            yield (command, operand), tap.trace(start), _tap_state(tap)
    return scalar(lambda: list(steps()))


# -- rows ------------------------------------------------------------------------

ROWS = {}


def row(fn):
    ROWS[fn.__name__] = fn
    return fn


@row
def planes(core, count):
    """``planes`` and ``parallel_fault_sim`` -> ``serial_fault_sim`` and the
    brute-force replay; a rebuilt kernel gives the same planes."""
    netlist, _, patterns = matrix_case(core, count)
    u = faultsim.enumerate_faults(netlist)
    kernel = faultsim.stimulus(netlist, patterns)
    report = faultsim.parallel_fault_sim(netlist, u, kernel)
    assert report == faultsim.parallel_fault_sim(netlist, u, patterns)
    assert report.faults == serial_report(core, count).faults
    assert report.first_detect == serial_report(core, count).first_detect
    got = kernel.planes(u.faults)
    assert got == faultsim.stimulus(netlist, patterns).planes(u.faults)
    detect = replay(core, count)[2]
    assert got == [detect[f] for f in u.faults]
    assert report.first_detect == tuple(
        next((t for t in range(count) if detect[f] >> t & 1), None)
        for f in u.faults)


def net_errors(kernel, faults):
    """Per stuck-at fault, every net's error plane (faulty ^ fault-free) in
    ``netlist.nets`` order: ``folded`` with each net on a word bit of its
    own, on either kernel."""
    width = len(kernel.netlist.nets)
    return kernel.folded(faults, {i: [i] for i in range(width)}, width)


@row
def faulty(core, count):
    """Every net's error plane, ``net_errors`` on the netlist's kernel ->
    the recursive evaluation; on a flop core, hidden-state nets included,
    after the combinational kernel refuses the netlist."""
    netlist, _, patterns = matrix_case(core, count)
    if netlist.flops:
        with pytest.raises(SimulationError, match="combinational"):
            faultsim.FaultKernel(netlist, oracle.transpose(
                patterns, len(netlist.primary_inputs)), count)
    kernel = faultsim.stimulus(netlist, patterns)
    good, want, _ = replay(core, count)
    for f, got in zip(want, net_errors(kernel, list(want)), strict=True):
        for i, net in enumerate(netlist.nets):
            assert got[i] == want[f][i] ^ good[i], (f.key, net)


@row
def errors(core, count):
    """The error planes ``folded`` gives -> the replay's faulty ^ fault-free
    planes XOR-folded over ``taps``: one bit per observation net, whose OR
    is the fault's ``planes`` entry, the first net also on a second bit, a
    net listed twice on one bit (it cancels), a bit no net feeds and a bit
    fed by the first net that is not observed and feeds one gate pin, so
    it lies inside a fanout-free region unless its tap makes it a stem."""
    netlist, _, patterns = matrix_case(core, count)
    faults = faultsim.enumerate_faults(netlist).faults
    planes = faultsim.stimulus(netlist, patterns).planes(faults)
    good, want, _ = replay(core, count)
    kernel = faultsim.stimulus(netlist, patterns)
    observed = faultsim.observation_nets(netlist)
    obs = [kernel.index[n] for n in observed]
    m = len(obs)
    taps = {i: [bit] for bit, i in enumerate(obs)}
    taps[obs[0]].append(m)
    taps.setdefault(len(netlist.nets) - 1, []).extend([m + 1, m + 1])
    pins = [i for g in netlist.gates for i in g.inputs]
    inner = next(n for n in netlist.nets
                 if n not in observed and pins.count(n) == 1)
    taps.setdefault(kernel.index[inner], []).append(m + 3)
    width = m + 4
    for f, got, plane in zip(faults, kernel.folded(faults, taps, width),
                             planes, strict=True):
        expect = [0] * width
        for i, bits in taps.items():
            for bit in bits:
                expect[bit] ^= want[f][i] ^ good[i]
        assert got == expect, f.key
        assert got[m] == got[0] and got[m + 1] == got[m + 2] == 0, f.key
        union = 0
        for e in got[:m]:
            union |= e
        assert union == plane, f.key
    assert kernel.good == good


@row
def good(core, count):
    """``good`` on both kernels -> the fault-free replay."""
    netlist, _, patterns = matrix_case(core, count)
    want = replay(core, count)[0]
    assert faultsim.stimulus(netlist, patterns).good == want


@row
def tdf(core, count):
    """``tdf_sim``, and the transition faults of ``parallel_fault_sim`` over
    stuck-at and transition faults -> the pairwise or the sequential brute
    force; that run's stuck-at faults -> the stuck-at run's."""
    netlist, _, patterns = matrix_case(core, count)
    u = faultsim.enumerate_faults(netlist, ("STR", "STF"))
    mixed = faultsim.collapse(faultsim.enumerate_faults(
        netlist, faultsim.SA_KINDS + faultsim.TDF_KINDS), netlist)
    if count < 2:
        for sim, faults in ((faultsim.tdf_sim, u),
                            (faultsim.parallel_fault_sim, mixed)):
            with pytest.raises(SimulationError, match=">= 2 patterns"):
                sim(netlist, faults, patterns)
        return
    want = faultsim.tdf_sim(netlist, u, patterns)
    assert want.first_detect == tdf_firsts(core, count)
    report = faultsim.parallel_fault_sim(netlist, mixed, patterns)
    assert report.of_kinds(faultsim.TDF_KINDS) == want
    saf = faultsim.collapse(faultsim.enumerate_faults(netlist), netlist)
    assert report.of_kinds(faultsim.SA_KINDS) == \
        faultsim.parallel_fault_sim(netlist, saf, patterns)


@row
def toggle(core, count):
    """``toggle_activity``, fresh and off a fault simulation's pass ->
    ``circuit.toggle_activity``."""
    netlist, _, patterns = matrix_case(core, count)
    if count < 2:
        with pytest.raises(SimulationError, match="at least 2"):
            faultsim.stimulus(netlist, patterns).toggle_activity()
        return
    want = scalar(circuit.toggle_activity, netlist, patterns)
    assert faultsim.stimulus(netlist, patterns).toggle_activity() == want
    kernel = faultsim.stimulus(netlist, patterns)
    faultsim.parallel_fault_sim(netlist, faultsim.enumerate_faults(netlist),
                                kernel)
    assert kernel.toggle_activity() == want


@row
def selftest(core, count):
    """``selftest_results`` / ``signature_values`` -> ``run_selftest`` per
    fault, against the plan's golden and against a stale stored one."""
    netlist, plan, _ = matrix_case(core, count)
    faults = (None,) + faultsim.enumerate_faults(netlist).faults
    want = selftests(core, count)
    got = bist.selftest_results(netlist, plan, faults,
                                bist.plan_stimulus(netlist, plan))
    assert got == want
    stale = plan._replace(golden=tuple(
        s._replace(value=s.value ^ 1) for s in plan.golden))
    got = bist.selftest_results(netlist, stale, faults,
                                bist.plan_stimulus(netlist, stale))
    assert [r.signatures for r in got] == [r.signatures for r in want]
    assert [r.passed for r in got] == [
        tuple(s.value == g.value for s, g in zip(r.signatures, stale.golden))
        for r in want]


@row
def engine(core, count):
    """``EngineSession`` under a ``tap_script`` trace -> ``BistSession``
    under the same edges: TDO and session state after every command."""
    netlist, plan, _ = matrix_case(core, count)
    tap = access.TapSession(bist.EngineSession(netlist, plan))
    tap.tap_reset()
    for command, (trace, tdo), state in scalar_tap(core, count):
        assert tuple(access.drive_trace(tap, trace)) == tdo, command
        assert _tap_state(tap) == state, command


@row
def matrix_pattern(core, count):
    """``build_matrix`` at pattern granularity -> the brute-force syndromes."""
    netlist, _, patterns = matrix_case(core, count)
    m = diagnosis.build_matrix(netlist, faultsim.enumerate_faults(netlist),
                               patterns)
    detect = replay(core, count)[2]
    for f, got, det in zip(m.faults, m.rows, m.detected):
        vec = tuple(bool(detect[f] >> t & 1) for t in range(count))
        assert got == oracle.Syndrome(f, vec, "pattern").canonical(), f.key
        assert det == any(vec), f.key


@row
def matrix_signature(core, count):
    """``build_matrix`` at signature granularity, on the kernel ``diagnose
    --patterns N`` builds (the plan cut to N) -> ``run_selftest``."""
    netlist, plan, _ = matrix_case(core, count)
    u = faultsim.enumerate_faults(netlist)
    kernel = bist.plan_stimulus(netlist, matrix_core(core)[1]._replace(
        pattern_count=count))
    m = diagnosis.build_matrix(netlist, u, kernel, granularity="signature",
                               plan=plan)
    assert m.pattern_count == count
    for f, got, det, want in zip(u.faults, m.rows, m.detected,
                                 selftests(core, count)[1:]):
        assert got == b"".join(s.value.to_bytes(8, "little")
                               for s in want.signatures), f.key
        assert det == (want.signatures != plan.golden), f.key


@row
def plan_planes(core, count):
    """``plan_planes`` and ``plan_patterns`` -> ``BistSession.pattern_stream``;
    the kernel of the plan's planes equals the kernel of the stream, down
    to every net's error plane."""
    netlist, plan, _ = matrix_case(core, count)
    want = scalar(lambda: bist.BistSession(netlist, plan).pattern_stream())
    assert bist.plan_planes(netlist, plan) == \
        oracle.transpose(want, len(netlist.primary_inputs))
    assert bist.plan_patterns(netlist, plan) == want
    a = bist.plan_stimulus(netlist, plan)
    b = faultsim.stimulus(netlist, want)
    assert len(a) == len(b) and a.good == b.good
    faults = faultsim.enumerate_faults(netlist).faults
    assert a.planes(faults) == b.planes(faults)
    for f, x, y in zip(faults, net_errors(a, faults), net_errors(b, faults),
                       strict=True):
        assert x == y, f.key


@pytest.mark.parametrize("name, core, count", [
    (name, core, count) for name in ROWS for core in CORES for count in COUNTS])
def test_fast_path_equals_oracle(name, core, count):
    ROWS[name](core, count)


# -- the matrix's cores ----------------------------------------------------------

def _site(netlist, fault):
    if fault.pin is not None:
        return "branch"
    if fault.net in netlist.primary_inputs:
        return "input"
    if any(fault.net == f.q for f in netlist.flops):
        return "Q"
    if any(fault.net == f.d for f in netlist.flops):
        return "D"
    return "gate"


@pytest.mark.parametrize("flops", [False, True])
def test_matrix_cores_cover_every_site_and_plan_feature(flops):
    # among the combinational cores and among the flop cores: stuck-at sites
    # of every kind, and plans with CG bits, cascades with in % out != 0 and
    # several MISR counts, up to 4; among the flop cores also a flop whose
    # D net is not observed (hidden state) and a Q net on an output port;
    # among the combinational cores every case of the stem rule: a gate
    # reading one net on two pins, an observed net that gates read and a
    # net that is neither observed nor read; and in every core random_plan
    # re-blocks a chain, an unobserved single-reader net whose reader's
    # output is one too, so the stem walk is not left to mini10 and stems
    sites, misrs, uneven, cg, q_ports, hidden = set(), set(), 0, 0, 0, 0
    two_pins, observed_read, unread, chains = 0, 0, 0, []
    for core in CORES:
        netlist, plan = matrix_core(core)
        if bool(netlist.flops) != flops:
            continue
        sites.update(_site(netlist, f)
                     for f in faultsim.enumerate_faults(netlist).faults)
        obs = set(faultsim.observation_nets(netlist))
        hidden += sum(f.d not in obs for f in netlist.flops)
        misrs.add(len(plan.misrs))
        uneven += sum(m.cascade.in_width % m.cascade.out_width != 0
                      for m in plan.misrs)
        cg += sum(b.cg is not None for b in plan.bindings)
        qs = {f.q for f in netlist.flops}
        q_ports += sum(bool(qs & set(b.output_port)) for b in netlist.blocks)
        read = {i for g in netlist.gates for i in g.inputs}
        two_pins += sum(len(set(g.inputs)) < len(g.inputs) for g in netlist.gates)
        observed_read += len(obs & read)
        unread += sum(n not in obs and n not in read for n in netlist.nets)

        def single(net):
            return net not in obs and len(netlist.readers[net]) == 1
        if CORE_BLOCKS[core]:
            chains.append(sum(single(n) and single(netlist.readers[n][0][0])
                              for n in netlist.nets))
    assert {"branch", "input", "gate"} | ({"Q", "D"} if flops else set()) <= sites
    assert uneven and cg and len(misrs) > 2
    assert flops or 4 in misrs
    assert flops or (two_pins and observed_read and unread and all(chains))
    assert not flops or (hidden and q_ports)


@pytest.mark.parametrize("core", CORES)
def test_matrix_cells_detect_something(core):
    # at the odd count each core's stuck-at, transition and signature cells
    # see detected faults, so no row compares only empty planes
    netlist, plan, patterns = matrix_case(core, COUNTS[-1])
    u = faultsim.enumerate_faults(netlist)
    assert faultsim.parallel_fault_sim(netlist, u, patterns).detected
    tdf = faultsim.enumerate_faults(netlist, ("STR", "STF"))
    assert faultsim.tdf_sim(netlist, tdf, patterns).detected
    m = diagnosis.build_matrix(netlist, u, bist.plan_stimulus(netlist, plan),
                               granularity="signature", plan=plan)
    assert any(m.detected)
