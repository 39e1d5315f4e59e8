import itertools
import random

import pytest

from corebist import bist, circuit, compactor, fixture_path, tpg


@pytest.fixture
def and2():
    return circuit.load_netlist(fixture_path("and2.bench"))


@pytest.fixture
def mini10():
    return circuit.load_netlist(fixture_path("mini10.bench"))


@pytest.fixture
def seventeen():
    return circuit.load_netlist(fixture_path("seventeen.bench"))


@pytest.fixture
def seqmini():
    return circuit.load_netlist(fixture_path("seqmini.bench"))


def seqmini_plan(count=20):
    """A ``count``-pattern plan for seqmini: its 2-bit MAIN port driven
    from a 4-bit ALFSR, its 2-bit output into a 2-bit MISR."""
    return bist.BistPlan(
        tpg.Polynomial.parse("x^4+x+1"), 0x9,
        (tpg.modular_binding("MAIN", 2, 4),),
        (bist.MisrAssignment("MAIN", tpg.Polynomial.parse("x^2+x+1"),
                             compactor.XorCascade(2, 2)),),
        pattern_count=count)


def exhaustive_patterns(netlist):
    return [tuple(p) for p in
            itertools.product([0, 1], repeat=len(netlist.primary_inputs))]


def random_combinational(rng, n_in=4, n_gates=10, name="rand"):
    """Random combinational netlist builder shared by property tests."""
    kinds2 = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]
    nets = [f"i{k}" for k in range(n_in)]
    lines = [f"INPUT({n})" for n in nets]
    for k in range(n_gates):
        out = f"g{k}"
        if rng.random() < 0.15:
            kind = rng.choice(["NOT", "BUF"])
            fanin = [rng.choice(nets)]
        else:
            kind = rng.choice(kinds2)
            fanin = rng.sample(nets, min(rng.choice([2, 2, 3]), len(nets)))
        lines.append(f"{out} = {kind}({', '.join(fanin)})")
        nets.append(out)
    n_out = max(1, n_gates // 4)
    for j, net in enumerate(nets[-n_out:]):
        lines.append(f"OUTPUT({net})")
    return circuit.parse_netlist("\n".join(lines), name=name)


def random_sequential(rng, n_in=3, n_flops=3, n_gates=12, name="rseq"):
    """Random sequential netlist builder for fault-parallel property tests.

    Flop Q nets feed the logic like inputs and at least one flop resets to 1
    (``#@init``). The first flop's D net is a gate output other gates also
    read; the other D nets are any net (an input, a Q net, a gate output).
    The outputs read the first Q net directly, and one block ``SEQ`` spans
    every input and every output, so a plan can drive it.
    """
    kinds2 = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]
    ins = [f"i{k}" for k in range(n_in)]
    qs = [f"q{k}" for k in range(n_flops)]
    nets = ins + qs
    gates, outs, read = [], [], set()
    for k in range(n_gates):
        out = f"g{k}"
        if rng.random() < 0.15:
            kind = rng.choice(["NOT", "BUF"])
            fanin = [rng.choice(nets)]
        else:
            kind = rng.choice(kinds2)
            fanin = rng.sample(nets, min(rng.choice([2, 2, 3]), len(nets)))
        read.update(fanin)
        gates.append(f"{out} = {kind}({', '.join(fanin)})")
        outs.append(out)
        nets.append(out)
    read_outs = [g for g in outs if g in read] or outs
    ds = [rng.choice(read_outs)] + [rng.choice(nets) for _ in qs[1:]]
    ones = [q for q in qs if rng.random() < 0.5] or [qs[-1]]
    pos = list(dict.fromkeys(outs[-max(1, n_gates // 4):] + [qs[0]]))
    lines = [f"#@block SEQ in: {','.join(ins)} out: {','.join(pos)}"]
    lines += [f"#@init {q} 1" for q in ones]
    lines += [f"INPUT({n})" for n in ins] + [f"OUTPUT({n})" for n in pos]
    lines += [f"{q} = DFF({d})" for q, d in zip(qs, ds)] + gates
    return circuit.parse_netlist("\n".join(lines), name=name)


def random_patterns(rng, netlist, count):
    return [tuple(rng.randint(0, 1) for _ in netlist.primary_inputs)
            for _ in range(count)]
