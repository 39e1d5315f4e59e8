"""Independent reference for the benchmark's report checks.

Nothing here imports corebist. It reads the same plain inputs the CLI reads
(a bench netlist and a plan JSON) and recomputes what the reports claim:

* the ALFSR is stepped on its own and the pattern stream is built as one
  integer plane per primary input (bit t = pattern t);
* combinational nets are evaluated as whole-pattern-set planes; a fault is
  re-evaluated only over the gates of its fanout cone;
* sequential cores run a plain cycle loop in which every fault is one bit
  of a machine word (the fault-free machine is the top bit);
* the XOR cascade and the MISR are computed by shifting a list of stages.

Fault sites, structural collapsing and block assignment follow the rules
the README documents; they are re-derived here, not imported.
"""

from __future__ import annotations

import json
import re

GATES = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF")


# -- inputs -------------------------------------------------------------------

class Net:
    """A parsed bench netlist: plain lists and dicts, nothing else."""

    def __init__(self, text):
        self.inputs, self.outputs, self.gates, self.flops = [], [], [], []
        self.blocks = []   # (name, input nets, output nets), file order
        inits = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = re.match(r"#@block\s+(\w+)\s+in:\s*(.*?)\s*out:\s*(.*?)\s*$", line)
                if m:
                    self.blocks.append((m.group(1), _names(m.group(2)),
                                        _names(m.group(3))))
                m = re.match(r"#@init\s+(\w+)\s+([01])\s*$", line)
                if m:
                    inits[m.group(1)] = int(m.group(2))
                continue
            m = re.match(r"(INPUT|OUTPUT)\s*\(\s*(\w+)\s*\)$", line)
            if m:
                (self.inputs if m.group(1) == "INPUT" else self.outputs).append(m.group(2))
                continue
            m = re.match(r"(\w+)\s*=\s*(\w+)\s*\((.*)\)$", line)
            if not m:
                raise ValueError(f"unparsed bench line {line!r}")
            out, kind, args = m.group(1), m.group(2), _names(m.group(3))
            if kind == "DFF":
                self.flops.append((out, args[0]))
            elif kind in GATES:
                self.gates.append((out, kind, args))
            else:
                raise ValueError(f"unknown gate {kind!r}")
        self.init = {q: inits.get(q, 0) for q, _ in self.flops}
        self.nets = (self.inputs + [q for q, _ in self.flops]
                     + [g[0] for g in self.gates])
        self.order = _topo(self.gates)
        self.fanout = {n: [] for n in self.nets}     # net -> [(gate out, pin)]
        for out, _, ins in self.gates:
            for pin, n in enumerate(ins):
                self.fanout[n].append((out, pin))
        seen = set()
        self.observed = []   # primary outputs, then block outputs
        for n in self.outputs + [n for b in self.blocks for n in b[2]]:
            if n not in seen:
                seen.add(n)
                self.observed.append(n)


def _names(text):
    return [s.strip() for s in text.split(",") if s.strip()]


def _topo(gates):
    by_out = {g[0]: g for g in gates}
    done, order = set(), []

    def visit(g):
        stack = [g]
        while stack:
            top = stack[-1]
            pending = [by_out[i] for i in top[2] if i in by_out and i not in done]
            if pending:
                stack.append(pending[0])
                continue
            stack.pop()
            if top[0] not in done:
                done.add(top[0])
                order.append(top)

    for g in gates:
        visit(g)
    return order


def parse_poly(text):
    """``x^20+x^3+1`` -> (degree, exponents)."""
    exps = []
    for term in text.replace(" ", "").split("+"):
        if term == "1":
            continue
        exps.append(1 if term == "x" else int(term[2:]))
    return max(exps), sorted(exps)


class Plan:
    def __init__(self, d):
        self.alfsr = parse_poly(d["alfsr"]["poly"])
        self.seed = int(d["alfsr"]["seed"], 0)
        self.counter_width = d.get("counter_width", 12)
        self.pattern_count = d.get("pattern_count", 4096)
        self.bindings = []
        for b in d["bindings"]:
            cg = None
            if "cg" in b:
                c = b["cg"]
                cg = ([(int(v, 2), h) for v, h in c["schedule"]],
                      c.get("cyclic", True), list(b["cg_bits"]))
            self.bindings.append((b["block"], {int(k): v for k, v in
                                               b["alfsr_slice"].items()}, cg))
        self.misrs = [(m["block"], parse_poly(m["poly"]), m["cascade"]["out"])
                      for m in d["misrs"]]
        self.golden = ([int(g["value"], 0) for g in d["golden"]]
                       if "golden" in d else None)


def load(bench_path, plan_path=None):
    with open(bench_path) as fh:
        net = Net(fh.read())
    if plan_path is None:
        return net, None
    with open(plan_path) as fh:
        return net, Plan(json.load(fh))


# -- pattern generation ----------------------------------------------------------

def alfsr_registers(poly, seed, count):
    """Register contents for cycles 0..count-1 of a Fibonacci ALFSR."""
    degree, exps = poly
    mask = (1 << degree) - 1
    regs = []
    r = seed
    for _ in range(count):
        regs.append(r)
        fb = 0
        for e in exps:
            fb ^= (r >> (e - 1)) & 1
        r = ((r << 1) | fb) & mask
    return regs


def _cg_value(schedule, cyclic, cycle):
    total = sum(h for _, h in schedule)
    if cyclic:
        cycle %= total
    elif cycle >= total:
        return schedule[-1][0]
    for value, hold in schedule:
        if cycle < hold:
            return value
        cycle -= hold
    return schedule[-1][0]


def input_planes(net, plan, count):
    """Primary input -> plane of ``count`` patterns from the plan's ALFSR."""
    degree = plan.alfsr[0]
    regs = alfsr_registers(plan.alfsr, plan.seed, count)
    stage = [0] * degree
    for t, r in enumerate(regs):
        for s in range(degree):
            if (r >> s) & 1:
                stage[s] |= 1 << t
    ports = {b[0]: b[1] for b in net.blocks}
    planes = {}
    for block, alfsr_slice, cg in plan.bindings:
        port = ports[block]
        for bit, src in alfsr_slice.items():
            planes[port[bit]] = stage[src]
        if cg is not None:
            schedule, cyclic, cg_bits = cg
            for t in range(count):
                v = _cg_value(schedule, cyclic, t)
                for j, bit in enumerate(cg_bits):
                    if (v >> j) & 1:
                        planes[port[bit]] = planes.get(port[bit], 0) | (1 << t)
            for bit in cg_bits:
                planes.setdefault(port[bit], 0)
    return planes


# -- gate evaluation ----------------------------------------------------------------

def gate(kind, vals, full):
    if kind in ("AND", "NAND"):
        r = full
        for v in vals:
            r &= v
    elif kind in ("OR", "NOR"):
        r = 0
        for v in vals:
            r |= v
    elif kind in ("XOR", "XNOR"):
        r = 0
        for v in vals:
            r ^= v
    else:
        r = vals[0]
    if kind in ("NAND", "NOR", "XNOR", "NOT"):
        r ^= full
    return r


# -- faults --------------------------------------------------------------------------

# A fault is (net, kind, gate, pin); gate/pin are None for a stem fault.

def fault_key(f):
    net, kind, g, pin = f
    return f"{net}:{kind}" if g is None else f"{net}->{g}.{pin}:{kind}"


def sa_universe(net):
    """Every stuck-at site: stems first, then branch pins of fanout stems."""
    faults = [(n, k, None, None) for n in net.nets for k in ("SA0", "SA1")]
    for n in net.nets:
        if len(net.fanout[n]) > 1:
            faults += [(n, k, g, pin) for g, pin in net.fanout[n]
                       for k in ("SA0", "SA1")]
    return faults


# gate kind -> {input fault kind: equivalent output stem fault kind}
_EQUIV = {"AND": {"SA0": "SA0"}, "NAND": {"SA0": "SA1"}, "OR": {"SA1": "SA1"},
          "NOR": {"SA1": "SA0"}, "BUF": {"SA0": "SA0", "SA1": "SA1"},
          "NOT": {"SA0": "SA1", "SA1": "SA0"}}


def collapsed(net):
    """Class representatives of gate-local stuck-at equivalence.

    Each class is represented by its member listed first in
    :func:`sa_universe`, which the block assignment depends on.
    """
    faults = sa_universe(net)
    pos = {f: i for i, f in enumerate(faults)}
    rep = list(range(len(faults)))

    def root(i):
        while rep[i] != i:
            i = rep[i]
        return i

    for out, kind, ins in net.gates:
        for in_kind, out_kind in _EQUIV.get(kind, {}).items():
            o = root(pos[(out, out_kind, None, None)])
            for pin, n in enumerate(ins):
                site = ((n, in_kind, out, pin) if len(net.fanout[n]) > 1
                        else (n, in_kind, None, None))
                i = root(pos[site])
                if i != o:
                    lo, hi = min(i, o), max(i, o)
                    rep[hi] = lo
                    o = lo
    return [f for i, f in enumerate(faults) if root(i) == i]


def block_of(net):
    """Net -> first block (file order) whose fanin cone holds it, else '-'."""
    drivers = {g[0]: g[2] for g in net.gates}
    drivers.update({q: [d] for q, d in net.flops})
    owner = {}
    for name, ins, outs in net.blocks:
        cone, stack = set(), list(outs) + list(ins)
        while stack:
            n = stack.pop()
            if n not in cone:
                cone.add(n)
                stack += drivers.get(n, [])
        for n in cone:
            owner.setdefault(n, name)
    return {n: owner.get(n, "-") for n in net.nets}


# -- combinational: whole-pattern-set planes -------------------------------------------

class Planes:
    """Fault-free planes of every net plus per-fault cone re-evaluation."""

    def __init__(self, net, pi_planes, count):
        if net.flops:
            raise ValueError("plane evaluation needs a combinational netlist")
        self.net = net
        self.full = (1 << count) - 1
        self.value = {n: pi_planes[n] for n in net.inputs}
        for out, kind, ins in net.order:
            self.value[out] = gate(kind, [self.value[i] for i in ins], self.full)
        self._gate = {g[0]: g for g in net.order}
        self._rank = {g[0]: i for i, g in enumerate(net.order)}
        self._cone = {}
        self._observed = set(net.observed)

    def cone(self, n):
        """Gates reachable from net ``n``, in evaluation order."""
        if n not in self._cone:
            seen, stack = set(), [n]
            while stack:
                for g, _ in self.net.fanout[stack.pop()]:
                    if g not in seen:
                        seen.add(g)
                        stack.append(g)
            self._cone[n] = sorted(seen, key=self._rank.__getitem__)
        return self._cone[n]

    def faulty(self, fault):
        """Net -> faulty plane, for the nets whose plane the fault changes."""
        n, kind, site, pin = fault
        stuck = self.full if kind == "SA1" else 0
        if site is None:
            changed, gates = {n: stuck}, self.cone(n)
        else:
            changed, gates = {}, [site] + self.cone(site)
        for g in gates:
            out, kind_g, ins = self._gate[g]
            vals = [changed.get(i, self.value[i]) for i in ins]
            if out == site:
                vals[pin] = stuck
            changed[out] = gate(kind_g, vals, self.full)
        return {k: v for k, v in changed.items() if v != self.value[k]}

    def detect(self, fault):
        """Plane of the patterns at which the fault shows at an observed net."""
        diff = 0
        for k, v in self.faulty(fault).items():
            if k in self._observed:
                diff |= v ^ self.value[k]
        return diff


# -- sequential: plain cycle loop, one machine per bit ---------------------------------

def cycle_loop(net, pi_values, faults):
    """Run every fault machine and the fault-free one side by side.

    ``pi_values`` holds one dict per cycle (net -> 0/1). Bit i of a word is
    fault i; bit len(faults) is the fault-free machine. Returns one dict per
    cycle: net -> word, for every net, with flop Q nets at their pre-edge
    value (the value the logic and the observer see in that cycle).
    """
    nf = len(faults)
    full = (1 << (nf + 1)) - 1
    s0, s1, b0, b1 = {}, {}, {}, {}
    for i, (n, kind, g, pin) in enumerate(faults):
        if g is None:
            d = s1 if kind == "SA1" else s0
            d[n] = d.get(n, 0) | (1 << i)
        else:
            d = b1 if kind == "SA1" else b0
            d[(g, pin)] = d.get((g, pin), 0) | (1 << i)

    def force(n, v):
        return (v | s1.get(n, 0)) & ~s0.get(n, 0) & full

    q = {qn: (full if net.init[qn] else 0) for qn, _ in net.flops}
    trace = []
    for pis in pi_values:
        v = {n: force(n, full if pis[n] else 0) for n in net.inputs}
        for qn in q:
            v[qn] = force(qn, q[qn])
        for out, kind, ins in net.order:
            vals = []
            for pin, i in enumerate(ins):
                x = v[i]
                if (out, pin) in b1 or (out, pin) in b0:
                    x = (x | b1.get((out, pin), 0)) & ~b0.get((out, pin), 0) & full
                vals.append(x)
            v[out] = force(out, gate(kind, vals, full))
        trace.append(v)
        q = {qn: v[d] for qn, d in net.flops}
    return trace


def pi_dicts(net, planes, count):
    return [{n: (planes[n] >> t) & 1 for n in net.inputs} for t in range(count)]


# -- compaction ----------------------------------------------------------------------------

def signature(poly, words):
    """MISR over LSB-first bit lists, one stage list shifted per cycle."""
    degree, exps = poly
    stages = [0] * degree
    for w in words:
        fb = 0
        for e in exps:
            fb ^= stages[e - 1]
        stages = [fb] + stages[:-1]
        for i, b in enumerate(w):
            stages[i] ^= b
    return sum(b << i for i, b in enumerate(stages))


def cascade_words(port_planes, width, count):
    """XOR cascade: output bit j folds port bits i with i mod width == j."""
    folded = [0] * width
    for i, p in enumerate(port_planes):
        folded[i % width] ^= p
    return [[(folded[j] >> t) & 1 for j in range(width)] for t in range(count)]


def session_signatures(net, plan, count, plane_of):
    """Signature per plan block; ``plane_of(n)`` is net n's observed plane."""
    ports = {b[0]: b[2] for b in net.blocks}
    return [signature(poly, cascade_words([plane_of(n) for n in ports[block]],
                                          width, count))
            for block, poly, width in plan.misrs]


def machine_plane(trace, n, bit):
    """Plane of net n for one machine of a :func:`cycle_loop` trace."""
    return sum(((v[n] >> bit) & 1) << t for t, v in enumerate(trace))


# -- serial access -----------------------------------------------------------------------

_TAP = {  # state: (next on TMS=0, next on TMS=1)
    "TLR": ("RTI", "TLR"), "RTI": ("RTI", "SDS"), "SDS": ("CDR", "SIS"),
    "CDR": ("SHDR", "E1DR"), "SHDR": ("SHDR", "E1DR"), "E1DR": ("PDR", "UDR"),
    "PDR": ("PDR", "E2DR"), "E2DR": ("SHDR", "UDR"), "UDR": ("RTI", "SDS"),
    "SIS": ("CIR", "TLR"), "CIR": ("SHIR", "E1IR"), "SHIR": ("SHIR", "E1IR"),
    "E1IR": ("PIR", "UIR"), "PIR": ("PIR", "E2IR"), "E2IR": ("SHIR", "UIR"),
    "UIR": ("RTI", "SDS"),
}


def tap_scans(rows):
    """Decode a (tms, tdi, tdo) edge list into data-register scans.

    Returns (ir, bits in, bits out) per Shift-DR scan, LSB first. The IR is
    3 bits shifted LSB first; Test-Logic-Reset selects bypass (0).
    """
    state, ir, ir_shift = "TLR", 0, 0
    scans, cur = [], None
    for tms, tdi, tdo in rows:
        if state == "SHIR":
            ir_shift = (ir_shift >> 1) | (tdi << 2)
        elif state == "SHDR":
            cur[1].append(tdi)
            cur[2].append(tdo)
        nxt = _TAP[state][tms]
        if nxt == "TLR":
            ir = 0
        elif nxt == "CIR":
            ir_shift = ir
        elif nxt == "UIR":
            ir = ir_shift
        elif nxt == "CDR":
            cur = (ir, [], [])
            scans.append(cur)
        state = nxt
    return [(i, sum(b << k for k, b in enumerate(tin)),
             sum(b << k for k, b in enumerate(tout))) for i, tin, tout in scans]


def read_trace(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            f = line.split("#")[0].split()
            if f:
                rows.append((int(f[1]), int(f[2]), int(f[3]) if len(f) > 3 else 0))
    return rows


# -- report figures ------------------------------------------------------------------------

class Simulation:
    """Fault-free planes of every net and per-fault detection planes.

    Combinational netlists use :class:`Planes`; sequential ones run
    :func:`cycle_loop` once over the whole stuck-at universe.
    """

    def __init__(self, net, pi_planes, count):
        self.full = (1 << count) - 1
        if not net.flops:
            self.planes = Planes(net, pi_planes, count)
            self.value = self.planes.value
            self._detect = {}
            return
        self.planes = None
        faults = sa_universe(net)
        trace = cycle_loop(net, pi_dicts(net, pi_planes, count), faults)
        nf = len(faults)
        self.value = {n: machine_plane(trace, n, nf) for n in net.nets}
        self._machine = {f: i for i, f in enumerate(faults)}
        self._trace = trace
        faulty = (1 << nf) - 1
        diffs = []
        for v in trace:
            d = 0
            for n in net.observed:
                d |= (v[n] ^ (faulty if (v[n] >> nf) & 1 else 0)) & faulty
            diffs.append(d)
        self._detect = {f: sum(((d >> i) & 1) << t for t, d in enumerate(diffs))
                        for f, i in self._machine.items()}

    def detection(self, fault):
        """Plane of the patterns at which ``fault`` is observed."""
        if fault not in self._detect:
            self._detect[fault] = self.planes.detect(fault)
        return self._detect[fault]

    def plane_under(self, fault):
        """``plane_of`` for the observed planes with ``fault`` present."""
        if self.planes is not None:
            faulty = self.planes.faulty(fault)
            return lambda n: faulty.get(n, self.value[n])
        bit = self._machine[fault]
        return lambda n: machine_plane(self._trace, n, bit)


def coverage(net, sim, kinds=("SAF", "TDF")):
    """{kind: {block: [faults, detected]}} as the coverage tables count them."""
    owner = block_of(net)
    table = {}
    if "SAF" in kinds:
        rows = table["SAF"] = {}
        for f in collapsed(net):
            row = rows.setdefault(owner[f[0]], [0, 0])
            row[0] += 1
            row[1] += sim.detection(f) != 0
    if "TDF" in kinds:
        rows = table["TDF"] = {}
        full = sim.full
        for n in net.nets:
            v = sim.value[n]
            for launch, sa in (((~v << 1) & v & full & ~1, "SA0"),   # slow to rise
                               ((v << 1) & ~v & full & ~1, "SA1")):  # slow to fall
                row = rows.setdefault(owner[n], [0, 0])
                row[0] += 1
                row[1] += (launch & sim.detection((n, sa, None, None))) != 0
    return table


def class_figures(net, syndromes, detected):
    """Class statistics overall and per block, keyed like the report.

    ``syndromes`` and ``detected`` run parallel to :func:`collapsed`.
    """
    owner = block_of(net)
    faults = collapsed(net)

    def figures(idx):
        groups = {}
        undetected = 0
        for i in idx:
            if detected[i]:
                groups[syndromes[i]] = groups.get(syndromes[i], 0) + 1
            else:
                undetected += 1
        sizes = list(groups.values())
        n_all = len(sizes) + (1 if undetected else 0)
        return {"fault_count": len(idx), "class_count": len(sizes),
                "max_size": max(sizes, default=0),
                "mean_size": round(sum(sizes) / len(sizes), 4) if sizes else 0.0,
                "mean_size_with_undetected":
                    round(len(idx) / n_all, 4) if n_all else 0.0,
                "undetected": undetected}

    blocks = {}
    for i, f in enumerate(faults):
        if owner[f[0]] != "-":
            blocks.setdefault(owner[f[0]], []).append(i)
    return (figures(range(len(faults))),
            {b: figures(idx) for b, idx in blocks.items()})
