import functools
import importlib.util
import itertools
import pathlib

import pytest

from corebist import access, bist, circuit, compactor, fixture_path, tpg


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


@functools.cache
def perfbench(name):
    """The benchmark's module ``perfbench/<name>.py`` (the input generator
    ``gen_inputs``, the span table ``trace_shim``), imported, not copied."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exhaustive_patterns(netlist):
    return [tuple(p) for p in
            itertools.product([0, 1], repeat=len(netlist.primary_inputs))]


def to_bench(netlist):
    """``netlist`` as .bench text that :func:`circuit.parse_netlist` reads
    back to the same netlist, block and init pragmas included."""
    lines = [f"# {netlist.name}"]
    for b in netlist.blocks:
        lines.append(f"#@block {b.name} in: {','.join(b.input_port)} "
                     f"out: {','.join(b.output_port)}")
    for f in netlist.flops:
        if f.init:
            lines.append(f"#@init {f.q} 1")
    for n in netlist.primary_inputs:
        lines.append(f"INPUT({n})")
    for n in netlist.primary_outputs:
        lines.append(f"OUTPUT({n})")
    for f in netlist.flops:
        lines.append(f"{f.q} = DFF({f.d})")
    for g in netlist.gates:
        lines.append(f"{g.output} = {g.kind}({', '.join(g.inputs)})")
    return "\n".join(lines) + "\n"


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


MISR_POLYS = ("x^2+x+1", "x^3+x+1", "x^4+x+1", "x^5+x^2+1")


def random_plan(rng, base, count, n_blocks):
    """``base`` cut into ``n_blocks`` blocks, with a random plan over them:
    CG-driven input bits, cascades with in % out != 0, MISR widths 2-5.
    Each block reads a slice of the primary inputs and any nets as its
    output port (on a flop core, Q nets too). Returns the re-blocked
    netlist and the plan, its golden signatures from the scalar session."""
    pis = list(base.primary_inputs)
    n_in = len(pis)
    cuts = sorted(rng.sample(range(1, n_in), n_blocks - 1))
    in_ports = [pis[a:b] for a, b in zip([0] + cuts, cuts + [n_in])]
    polys = [tpg.Polynomial.parse(rng.choice(MISR_POLYS))
             for _ in range(n_blocks)]
    out_ports = [rng.sample(base.nets, rng.randint(p.degree, min(
        len(base.nets), 3 * p.degree + 1))) for p in polys]
    pragmas = [f"#@block B{k} in: {','.join(i)} out: {','.join(o)}"
               for k, (i, o) in enumerate(zip(in_ports, out_ports))]
    bench = [line for line in to_bench(base).splitlines()
             if not line.startswith("#@block")]
    netlist = circuit.parse_netlist("\n".join(pragmas + bench),
                                    name=base.name)
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


def random_plan_case(rng, count, name, flops=0):
    """Random netlist cut into 1-4 blocks, with a random plan
    (:func:`random_plan`). With ``flops``, a :func:`random_sequential` core
    with that many flops."""
    n_blocks = rng.randint(1, 4)
    n_in = rng.randint(n_blocks, 9)
    n_gates = rng.randint(8, 30)
    if flops:
        base = random_sequential(rng, n_in=n_in, n_flops=flops,
                                 n_gates=n_gates, name=name)
    else:
        base = random_combinational(rng, n_in=n_in, n_gates=n_gates, name=name)
    return random_plan(rng, base, count, n_blocks)


def tap_script(rng, plan):
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

