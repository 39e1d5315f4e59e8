#!/usr/bin/env python3
"""Regenerate the bundled benchmark fixtures.

The LDPC-shaped netlists are synthetic random logic with the documented
port widths (54/55, 53/53, 45/44); only their shapes matter. Rerunning
this script reproduces the exact same files (fixed seeds).
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from corebist import access, bist, circuit, compactor, tpg  # noqa: E402

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "src", "corebist", "fixtures")

KINDS2 = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]


def random_block(rng, prefix, n_in, n_out, n_gates):
    """Random combinational block; returns (lines, input nets, output nets).

    The last n_out gates sweep up every otherwise-unreferenced net so the
    block has no dead logic cones.
    """
    assert n_gates > n_out
    ins = [f"{prefix}_i{k}" for k in range(n_in)]
    nets = list(ins)
    lines = []
    referenced = set()
    for k in range(n_gates - n_out):
        out = f"{prefix}_g{k}"
        if rng.random() < 0.12:
            kind = rng.choice(["NOT", "BUF"])
            fanin = [rng.choice(nets)]
        else:
            kind = rng.choice(KINDS2)
            arity = rng.choice([2, 2, 2, 3])
            fanin = rng.sample(nets, min(arity, len(nets)))
        lines.append(f"{out} = {kind}({', '.join(fanin)})")
        referenced.update(fanin)
        nets.append(out)
    unused = [n for n in nets if n not in referenced]
    rng.shuffle(unused)
    chunks = [unused[k::n_out] for k in range(n_out)]
    outs = []
    for k in range(n_out):
        out = f"{prefix}_o{k}"
        fanin = chunks[k] or [rng.choice(nets)]
        if len(fanin) == 1:
            fanin.append(rng.choice(nets))
        kind = rng.choice(KINDS2)
        lines.append(f"{out} = {kind}({', '.join(fanin)})")
        outs.append(out)
    return lines, ins, outs


def write(name, text):
    path = os.path.join(FIXDIR, name)
    with open(path, "w") as fh:
        fh.write(text)
    print("wrote", path)


def make_and2():
    write("and2.bench", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")


def make_mini10():
    rng = random.Random(101)
    lines, ins, outs = random_block(rng, "m", 4, 2, 10)
    text = ["# mini10: 10-gate combinational fixture"]
    text.append(f"#@block MAIN in: {','.join(ins)} out: {','.join(outs)}")
    text += [f"INPUT({n})" for n in ins]
    text += [f"OUTPUT({n})" for n in outs]
    text += lines
    write("mini10.bench", "\n".join(text) + "\n")


def make_c17ish():
    # 17 gates, 6 inputs: exhaustive = 64 patterns
    rng = random.Random(1717)
    lines, ins, outs = random_block(rng, "c", 6, 3, 17)
    text = ["# seventeen: 17-gate combinational fixture"]
    text.append(f"#@block MAIN in: {','.join(ins)} out: {','.join(outs)}")
    text += [f"INPUT({n})" for n in ins]
    text += [f"OUTPUT({n})" for n in outs]
    text += lines
    write("seventeen.bench", "\n".join(text) + "\n")


def make_sequential():
    text = """# seqmini: small sequential fixture (2 flops)
#@block MAIN in: a,b out: y,q1
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(q1)
n1 = XOR(a, q0)
n2 = AND(b, q1)
y = OR(n1, n2)
q0 = DFF(n1)
q1 = DFF(y)
"""
    write("seqmini.bench", text)


def ldpc_like(rng_seed, prefix, bname, n_in, n_out, n_gates):
    rng = random.Random(rng_seed)
    lines, ins, outs = random_block(rng, prefix, n_in, n_out, n_gates)
    head = [f"# synthetic {bname} shaped block ({n_in} in / {n_out} out)"]
    head.append(f"#@block {bname} in: {','.join(ins)} out: {','.join(outs)}")
    head += [f"INPUT({n})" for n in ins]
    head += [f"OUTPUT({n})" for n in outs]
    return head + lines, ins, outs, lines


def make_ldpc():
    specs = [
        (5401, "bn", "BIT_NODE", 54, 55, 170),
        (5302, "cn", "CHECK_NODE", 53, 53, 160),
        (4503, "cu", "CONTROL_UNIT", 45, 44, 130),
    ]
    combined = ["# synthetic logic core with the three case-study-shaped blocks"]
    combined_body = []
    for seed_v, prefix, bname, n_in, n_out, n_gates in specs:
        text, ins, outs, lines = ldpc_like(seed_v, prefix, bname, n_in, n_out, n_gates)
        write(f"ldpc_like_{prefix}.bench", "\n".join(text) + "\n")
        combined.append(f"#@block {bname} in: {','.join(ins)} out: {','.join(outs)}")
        combined += [f"INPUT({n})" for n in ins]
        combined += [f"OUTPUT({n})" for n in outs]
        combined_body += lines
    write("ldpc_like_core.bench", "\n".join(combined + combined_body) + "\n")


def make_plan():
    netlist = circuit.load_netlist(os.path.join(FIXDIR, "ldpc_like_core.bench"))
    poly20 = tpg.Polynomial.parse(tpg.DEFAULT_POLYNOMIALS[20])
    poly16 = tpg.Polynomial.parse(tpg.DEFAULT_POLYNOMIALS[16])
    cg = tpg.ConstraintProgram(4, ((0b1111, 4), (0b0101, 2),
                                   (0b1010, 2), (0b0011, 4)), cyclic=True)
    bindings = (
        tpg.modular_binding("BIT_NODE", 54, 20, cg, (0, 1, 2, 3)),
        tpg.modular_binding("CHECK_NODE", 53, 20, cg, (0, 1, 2, 3)),
        tpg.modular_binding("CONTROL_UNIT", 45, 20),
    )
    misrs = (
        bist.MisrAssignment("BIT_NODE", poly16, compactor.XorCascade(55, 16)),
        bist.MisrAssignment("CHECK_NODE", poly16, compactor.XorCascade(53, 16)),
        bist.MisrAssignment("CONTROL_UNIT", poly16, compactor.XorCascade(44, 16)),
    )
    plan = bist.BistPlan(poly20, 0xBEEF1, bindings, misrs,
                         counter_width=12, pattern_count=4096)
    plan = bist.compute_golden(netlist, plan)
    plan.save(os.path.join(FIXDIR, "ldpc_like_core.plan.json"))
    print("wrote plan with golden:",
          [(s.block, s.hex()) for s in plan.golden])
    return netlist, plan


def make_mini_plan():
    netlist = circuit.load_netlist(os.path.join(FIXDIR, "mini10.bench"))
    poly8 = tpg.Polynomial.parse(tpg.DEFAULT_POLYNOMIALS[8])
    poly2 = tpg.Polynomial.parse(tpg.DEFAULT_POLYNOMIALS[2])
    bindings = (tpg.modular_binding("MAIN", 4, 8),)
    misrs = (bist.MisrAssignment("MAIN", poly2, compactor.XorCascade(2, 2)),)
    plan = bist.BistPlan(poly8, 0x1D, bindings, misrs,
                         counter_width=12, pattern_count=64)
    plan = bist.compute_golden(netlist, plan)
    plan.save(os.path.join(FIXDIR, "mini10.plan.json"))
    print("wrote mini10 plan:", [(s.block, s.hex()) for s in plan.golden])


def make_golden_trace():
    """Scripted serial session against the core fixture, frozen as golden."""
    netlist = circuit.load_netlist(os.path.join(FIXDIR, "ldpc_like_core.bench"))
    plan = bist.BistPlan.load(os.path.join(FIXDIR, "ldpc_like_core.plan.json"))
    tap = access.TapSession(bist.BistSession(netlist, plan))
    tap.tap_reset()
    tap.write_wcdr(access.CMD_RESET)
    tap.write_wcdr(access.CMD_SET_COUNT, 4096 & 0xFFF)
    tap.write_wcdr(access.CMD_START)
    for sel in range(3):
        tap.write_wcdr(access.CMD_SELECT, sel)
        tap.write_wcdr(access.CMD_READ_STATUS)
        tap.read_wdr()
    trace, tdo = tap.trace()
    write("golden_session.trace", trace.render(tdo=tdo))


if __name__ == "__main__":
    os.makedirs(FIXDIR, exist_ok=True)
    make_and2()
    make_mini10()
    make_c17ish()
    make_sequential()
    make_ldpc()
    make_plan()
    make_mini_plan()
    make_golden_trace()
