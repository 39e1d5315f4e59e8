"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's evaluation machinery:
nets are computed by demand-driven recursion instead of topological order,
faults by brute-force forcing, signatures by stage-by-stage list shifting.
"""

import itertools
from collections import namedtuple

GATE_FN = {
    "AND": lambda vs: int(all(vs)),
    "NAND": lambda vs: int(not all(vs)),
    "OR": lambda vs: int(any(vs)),
    "NOR": lambda vs: int(not any(vs)),
    "XOR": lambda vs: sum(vs) % 2,
    "XNOR": lambda vs: (sum(vs) + 1) % 2,
    "NOT": lambda vs: 1 - vs[0],
    "BUF": lambda vs: vs[0],
}


def eval_recursive(netlist, assignment, fault=None, flop_q=None):
    """Demand-driven evaluation of every net; returns net -> value.

    ``fault`` = (net, value) stem forcing or (net, value, gate, pin) branch
    forcing. ``flop_q`` supplies flop outputs (sequential circuits).
    """
    by_output = {g.output: g for g in netlist.gates}
    memo = dict(assignment)
    if flop_q:
        memo.update(flop_q)
    stem = fault if fault and len(fault) == 2 else None
    branch = fault if fault and len(fault) == 4 else None
    if stem and stem[0] in memo:
        memo[stem[0]] = stem[1]

    def get(net):
        if net in memo:
            return memo[net]
        g = by_output[net]
        vs = []
        for pin, i in enumerate(g.inputs):
            v = get(i)
            if branch and branch[0] == i and branch[2] == g.output and branch[3] == pin:
                v = branch[1]
            vs.append(v)
        v = GATE_FN[g.kind](vs)
        if stem and stem[0] == net:
            v = stem[1]
        memo[net] = v
        return v

    for net in netlist.nets:
        get(net)
    return memo


def truth_table(netlist):
    """Exhaustive outputs for every input combination (combinational only)."""
    assert not netlist.flops
    table = {}
    for bits in itertools.product([0, 1], repeat=len(netlist.primary_inputs)):
        memo = eval_recursive(netlist, dict(zip(netlist.primary_inputs, bits)))
        table[bits] = tuple(memo[o] for o in netlist.primary_outputs)
    return table


def run_sequence(netlist, patterns, fault=None, observe=None):
    """Replay patterns from reset; returns observed tuples per pattern.

    Observation matches the library contract: combinational nets settled for
    the pattern, flop Q values pre-edge.
    """
    observe = observe or netlist.primary_outputs
    flop_q = {f.q: f.init for f in netlist.flops}
    outs = []
    for p in patterns:
        assignment = dict(zip(netlist.primary_inputs, p))
        memo = eval_recursive(netlist, assignment, fault=fault, flop_q=dict(flop_q))
        outs.append(tuple(memo[n] for n in observe))
        flop_q = {f.q: memo[f.d] for f in netlist.flops}
    return outs


def fault_tuple(f):
    """Library FaultDescriptor -> oracle fault tuple."""
    value = 1 if f.kind == "SA1" else 0
    if f.gate is None:
        return (f.net, value)
    return (f.net, value, f.gate, f.pin)


def brute_force_detection(netlist, faults, patterns, observe=None):
    """fault -> list of per-pattern detection booleans (full replay)."""
    golden = run_sequence(netlist, patterns, observe=observe)
    out = {}
    for f in faults:
        faulty = run_sequence(netlist, patterns, fault=fault_tuple(f),
                              observe=observe)
        out[f] = [a != b for a, b in zip(faulty, golden)]
    return out


def plane(bits):
    """Sequence of truth values -> int with bit t = item t."""
    return sum(1 << t for t, hit in enumerate(bits) if hit)


def transpose(patterns, width):
    """Pattern tuples -> one plane per input position, bit t = pattern t."""
    return [sum(p[i] << t for t, p in enumerate(patterns)) for i in range(width)]


def tdf_brute(netlist, faults, patterns, observe):
    """Pairwise brute force applying the launch-on-capture definition on a
    combinational netlist: fault -> first detect (the capture pattern)."""
    values = [eval_recursive(netlist, dict(zip(netlist.primary_inputs, p)))
              for p in patterns]
    result = {}
    for f in faults:
        launch, sa = ((0, 1), 0) if f.kind == "STR" else ((1, 0), 1)
        first = None
        for i in range(len(patterns) - 1):
            if values[i][f.net] != launch[0] or values[i + 1][f.net] != launch[1]:
                continue
            clean = values[i + 1]
            faulty = eval_recursive(
                netlist, dict(zip(netlist.primary_inputs, patterns[i + 1])),
                fault=(f.net, sa))
            if any(clean[n] != faulty[n] for n in observe):
                first = i + 1
                break
        result[f] = first
    return result


def sequential_tdf_brute(netlist, faults, patterns, observe):
    """Launch-on-capture by definition: the fault-free run (flop Q pre-edge)
    launches the transition, the stem stuck-at replay from reset detects
    it. One first detect per fault, in order."""
    values = run_sequence(netlist, patterns, observe=netlist.nets)
    column = {n: [v[i] for v in values] for i, n in enumerate(netlist.nets)}
    golden = run_sequence(netlist, patterns, observe=observe)
    firsts = []
    for f in faults:
        launch, sa = ([0, 1], 0) if f.kind == "STR" else ([1, 0], 1)
        vec = [a != b for a, b in zip(run_sequence(
            netlist, patterns, fault=(f.net, sa), observe=observe), golden)]
        col = column[f.net]
        firsts.append(next((t for t in range(1, len(patterns))
                            if col[t - 1:t + 1] == launch and vec[t]), None))
    return tuple(firsts)


def pairwise_classes(matrix):
    """O(n^2) partition of a diagnostic matrix by direct row comparison:
    the classes of detected faults and the undetected faults, by index."""
    classes = []
    undetected = []
    for i in range(len(matrix.faults)):
        if not matrix.detected[i]:
            undetected.append(i)
            continue
        for c in classes:
            if matrix.rows[c[0]] == matrix.rows[i]:
                c.append(i)
                break
        else:
            classes.append([i])
    return [tuple(c) for c in classes], tuple(undetected)


class Syndrome(namedtuple("Syndrome", "fault observations granularity")):
    """A fault's observations at one granularity."""

    __slots__ = ()

    def canonical(self):
        """Platform-independent bytes used as the classification key."""
        if self.granularity == "pattern":
            bits = 0
            for i, b in enumerate(self.observations):
                bits |= int(bool(b)) << i
            n = (len(self.observations) + 7) // 8
            return bits.to_bytes(n, "little")
        return b"".join(v.to_bytes(8, "little") for v in self.observations)


def misr_stepwise(taps, degree, words):
    """Stage-by-stage list-based MISR; words are LSB-first bit lists."""
    reg = [0] * degree
    for w in words:
        fb = 0
        for t in taps:
            fb ^= reg[t - 1]
        reg = [fb] + reg[:-1]          # feedback enters at bit 0
        reg = [r ^ b for r, b in zip(reg, w)]
    return reg


def lfsr_orbit(taps, degree, start):
    """Exhaustive orbit length by stepping bit lists (no integers)."""
    def step(reg):
        fb = 0
        for t in taps:
            fb ^= reg[t - 1]
        return [fb] + reg[:-1]
    reg = step(list(start))
    n = 1
    while reg != list(start):
        reg = step(reg)
        n += 1
        if n > 2 ** degree:
            raise AssertionError("orbit did not close")
    return n
