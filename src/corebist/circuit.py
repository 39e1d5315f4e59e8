"""Gate-level netlist model: bench-format parser, logic evaluation, toggle activity.

The textual format is ISCAS-89 flavored:

    # comment
    INPUT(a)
    OUTPUT(y)
    y = AND(a, b)
    q = DFF(d)
    #@block NAME in: a,b out: y

Identifiers are case-sensitive ``[A-Za-z_][A-Za-z0-9_]*``. Block pragmas list
ports LSB-first. DFFs initialize to 0 unless the pragma ``#@init q 1`` is
given.

Pragma errors, each a NetlistError naming the line: a ``#@block`` or
``#@init`` line that does not parse (``#@block B in: a`` with no ``out:``,
``#@init q 2``), an ``#@init`` on a net no DFF drives, and a second
``#@init`` for one flop. The structural errors name the line of the item
they are about as well: a second ``INPUT`` or ``OUTPUT`` of one net, a
second driver of a net, a gate, DFF, ``OUTPUT`` or ``#@block`` that reads a
net nothing drives, a gate on a combinational loop, and a second block of
one name. A netlist that declares no net at all is refused too.
"""

from __future__ import annotations

import re

from .errors import NetlistError, SimulationError
from .records import record

GATE_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF")
_UNARY = ("NOT", "BUF")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class Gate(record("Gate", "kind inputs output")):
    __slots__ = ()

    def __new__(cls, kind, inputs, output):
        if kind not in GATE_KINDS:
            raise NetlistError(f"unknown gate kind {kind!r}")
        if kind in _UNARY and len(inputs) != 1:
            raise NetlistError(f"{kind} takes exactly 1 input")
        if kind not in _UNARY and len(inputs) < 1:
            raise NetlistError(f"{kind} needs at least 1 input")
        return super().__new__(cls, kind, inputs, output)


class Flop(record("Flop", "d q init", defaults=(0,))):
    __slots__ = ()


class Block(record("Block", "name input_port output_port")):
    """A named sub-circuit; ports list net names LSB-first."""

    __slots__ = ()


class Netlist:
    """Validated, immutable gate-level circuit.

    Construction checks the structural invariants: at least one net,
    every net has exactly one driver, fan-ins reference declared nets,
    port lists are duplicate-free, and the combinational part is acyclic.
    It then builds the connectivity every reader of the netlist shares:
    ``nets`` (inputs, flop Q nets, gate outputs), ``driver`` (net -> the
    :class:`Gate` driving it), ``readers`` (net -> the ``(gate output,
    pin)`` pairs reading it, in gate order), ``block_by_name`` (name ->
    :class:`Block`) and ``topo_gates``.
    """

    def __init__(self, name, primary_inputs, primary_outputs, gates,
                 flops=(), blocks=()):
        self.name = name
        self.primary_inputs = tuple(primary_inputs)
        self.primary_outputs = tuple(primary_outputs)
        self.gates = tuple(gates)
        self.flops = tuple(flops)
        self.blocks = tuple(blocks)
        self._validate()
        self.nets = self._collect_nets()
        self.driver = {g.output: g for g in self.gates}
        self.topo_gates = self._toposort()
        readers = {n: [] for n in self.nets}
        for g in self.gates:
            for pin, net in enumerate(g.inputs):
                readers[net].append((g.output, pin))
        self.readers = {n: tuple(r) for n, r in readers.items()}
        self.block_by_name = {b.name: b for b in self.blocks}

    # -- structure ---------------------------------------------------------

    def _collect_nets(self):
        # every net has one driver (:meth:`_validate`), so none repeats
        return (self.primary_inputs + tuple(f.q for f in self.flops)
                + tuple(g.output for g in self.gates))

    def _validate(self):
        drivers = {}
        for k, n in enumerate(self.primary_inputs):
            if n in drivers:
                raise _invalid(f"duplicate primary input {n!r}",
                               "primary_inputs", k)
            drivers[n] = "input"
        seen = set()
        for k, n in enumerate(self.primary_outputs):
            if n in seen:
                raise _invalid(f"duplicate primary output {n!r}",
                               "primary_outputs", k)
            seen.add(n)
        for k, f in enumerate(self.flops):
            if f.q in drivers:
                raise _invalid(f"multiply-driven net {f.q!r}", "flops", k)
            drivers[f.q] = "flop"
        for k, g in enumerate(self.gates):
            if g.output in drivers:
                raise _invalid(f"multiply-driven net {g.output!r}", "gates", k)
            drivers[g.output] = "gate"
        declared = set(drivers)
        for k, g in enumerate(self.gates):
            for i in g.inputs:
                if i not in declared:
                    raise _invalid(f"undriven net {i!r}", "gates", k)
        for k, f in enumerate(self.flops):
            if f.d not in declared:
                raise _invalid(f"undriven net {f.d!r} (flop {f.q!r})",
                               "flops", k)
        for k, n in enumerate(self.primary_outputs):
            if n not in declared:
                raise _invalid(f"undriven net {n!r} (primary output)",
                               "primary_outputs", k)
        names = set()
        for k, b in enumerate(self.blocks):
            if b.name in names:
                raise _invalid(f"duplicate block {b.name!r}", "blocks", k)
            names.add(b.name)
            for port in (b.input_port, b.output_port):
                if len(set(port)) != len(port):
                    raise _invalid(f"duplicate net in port of block {b.name!r}",
                                   "blocks", k)
                for n in port:
                    if n not in declared:
                        raise _invalid(f"block {b.name!r} references unknown "
                                       f"net {n!r}", "blocks", k)
        if not declared:      # nothing to simulate, and no toggle fraction
            raise NetlistError("netlist declares no nets (no INPUT, gate or DFF)")

    def _toposort(self):
        # flop Q nets break cycles: they are sources like primary inputs
        order = []
        state = {}  # net -> 0 visiting, 1 done

        for root in self.gates:
            stack = [(root, iter(root.inputs))]
            if state.get(root.output) == 1:
                continue
            state[root.output] = 0
            while stack:
                gate, it = stack[-1]
                advanced = False
                for net in it:
                    dep = self.driver.get(net)
                    if dep is None:
                        continue
                    st = state.get(dep.output)
                    if st == 0:
                        raise _invalid("combinational loop through net "
                                       f"{dep.output!r}", "gates",
                                       self.gates.index(dep))
                    if st is None:
                        state[dep.output] = 0
                        stack.append((dep, iter(dep.inputs)))
                        advanced = True
                        break
                if not advanced:
                    state[gate.output] = 1
                    order.append(gate)
                    stack.pop()
        return tuple(order)


def _invalid(message, field, k):
    """A structural error in item ``k`` of the netlist's ``field``
    (``"gates"``, ``"primary_inputs"``, ...); :func:`parse_netlist` adds
    the line that item came from."""
    error = NetlistError(message)
    error.item = field, k
    return error


def initial_state(netlist):
    """Reset flop state as a dict Q net -> bit: each flop at its declared
    init value."""
    return {f.q: f.init for f in netlist.flops}


_EVAL = {
    "AND": lambda vs: int(all(vs)),
    "NAND": lambda vs: int(not all(vs)),
    "OR": lambda vs: int(any(vs)),
    "NOR": lambda vs: int(not any(vs)),
    "XOR": lambda vs: sum(vs) & 1,
    "XNOR": lambda vs: (sum(vs) & 1) ^ 1,
    "NOT": lambda vs: vs[0] ^ 1,
    "BUF": lambda vs: vs[0],
}


def evaluate(netlist, state, inputs, fault=None):
    """One clock cycle: settle combinational nets, then clock the flops.

    ``inputs`` holds one bit per primary input, in
    ``netlist.primary_inputs`` order; ``state`` is the flop state (Q net ->
    bit) as :func:`initial_state` or an earlier call leaves it. Returns
    ``(values, state)``: ``values`` holds every net as the cycle shows it,
    flop Q nets at the value the logic read (a stuck Q net at its stuck
    value), and ``state`` is the flop state the edge leaves, Q net -> the
    settled D value. ``fault`` optionally injects a stuck-at fault (see
    faultsim; a transition fault is refused); this single scalar path is
    shared by golden and faulty runs.
    """
    pis = netlist.primary_inputs
    if len(inputs) != len(pis):
        raise SimulationError("input vector width mismatch")
    vals = {n: b & 1 for n, b in zip(pis, inputs)}
    for f in netlist.flops:
        q = state.get(f.q)
        if q is None:
            raise SimulationError(f"uninitialized flop {f.q!r}")
        vals[f.q] = q

    # the faulted gate (stem driver or branch reader), decoded once
    faulted = pin = None
    if fault is not None:
        stuck = fault.stuck(1)
        if fault.pin is None:
            if fault.net in vals:
                vals[fault.net] = stuck
            faulted = netlist.driver.get(fault.net)
        else:
            faulted = netlist.driver.get(fault.gate)
            pin = fault.pin

    for g in netlist.topo_gates:
        if g is faulted:
            if pin is None:
                vals[g.output] = stuck
                continue
            ins = [vals[i] for i in g.inputs]
            ins[pin] = stuck
            vals[g.output] = _EVAL[g.kind](ins)
            continue
        kind = g.kind
        if kind == "AND" or kind == "NAND":
            v = 1
            for i in g.inputs:
                v &= vals[i]
            if kind == "NAND":
                v ^= 1
        elif kind == "OR" or kind == "NOR":
            v = 0
            for i in g.inputs:
                v |= vals[i]
            if kind == "NOR":
                v ^= 1
        elif kind == "XOR" or kind == "XNOR":
            v = 0
            for i in g.inputs:
                v ^= vals[i]
            if kind == "XNOR":
                v ^= 1
        elif kind == "NOT":
            v = vals[g.inputs[0]] ^ 1
        else:  # BUF
            v = vals[g.inputs[0]]
        vals[g.output] = v

    return vals, {f.q: vals[f.d] for f in netlist.flops}


def run_patterns(netlist, patterns, fault=None):
    """Apply a pattern sequence from reset; yield each cycle's values as
    :func:`evaluate` gives them: combinational nets settled for the
    pattern, flop Q nets pre-edge.
    """
    state = initial_state(netlist)
    for p in patterns:
        values, state = evaluate(netlist, state, p, fault=fault)
        yield values


def toggle_activity(netlist, patterns):
    """Fraction of nets that changed value across consecutive patterns.

    The initial X -> value settle of the first pattern is excluded. Returns
    (fraction, per-net toggle counts).
    """
    patterns = list(patterns)
    if len(patterns) < 2:
        raise SimulationError("toggle activity needs at least 2 patterns")
    counts = {n: 0 for n in netlist.nets}
    prev = None
    for st in run_patterns(netlist, patterns):
        if prev is not None:
            for n in netlist.nets:
                if st[n] != prev[n]:
                    counts[n] += 1
        prev = st
    toggled = sum(1 for c in counts.values() if c > 0)
    return toggled / len(netlist.nets), counts


# -- parser ----------------------------------------------------------------

_BLOCK_RE = re.compile(r"#@block\s+(\w+)\s+in:\s*([\w,\s]*?)\s*out:\s*([\w,\s]*?)\s*$")
_INIT_RE = re.compile(r"#@init\s+(\w+)\s+([01])\s*$")
_PRAGMA_RE = re.compile(r"#@(block|init)\b")
_PORT_RE = re.compile(r"(INPUT|OUTPUT)\s*\(\s*(\S+?)\s*\)\s*$")
_ASSIGN_RE = re.compile(r"(\S+)\s*=\s*(\w+)\s*\(\s*(.*?)\s*\)\s*$")


def _check_ident(name, lineno):
    if not _IDENT.match(name):
        raise NetlistError(f"bad identifier {name!r}", line=lineno)


def parse_netlist(text, name="netlist"):
    """Parse bench-format text into a validated Netlist; a structural error
    names the line of the item it is about."""
    inputs, outputs, gates, flops, blocks = [], [], [], [], []
    inits = {}
    lines = {"primary_inputs": [], "primary_outputs": [], "gates": [],
             "flops": [], "blocks": []}   # field -> line of each item
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _BLOCK_RE.match(line)
            if m:
                bname, ins, outs = m.groups()
                blocks.append(Block(
                    bname,
                    tuple(s.strip() for s in ins.split(",") if s.strip()),
                    tuple(s.strip() for s in outs.split(",") if s.strip()),
                ))
                lines["blocks"].append(lineno)
                continue
            m = _INIT_RE.match(line)
            if m:
                q = m.group(1)
                if q in inits:
                    raise NetlistError(f"second #@init for {q!r}", line=lineno)
                inits[q] = (int(m.group(2)), lineno)
            elif _PRAGMA_RE.match(line):
                raise NetlistError(f"malformed pragma {line!r}", line=lineno)
            continue
        m = _PORT_RE.match(line)
        if m:
            kind, net = m.groups()
            _check_ident(net, lineno)
            (inputs if kind == "INPUT" else outputs).append(net)
            lines["primary_inputs" if kind == "INPUT" else
                  "primary_outputs"].append(lineno)
            continue
        m = _ASSIGN_RE.match(line)
        if m:
            out, kind, args = m.groups()
            _check_ident(out, lineno)
            fanin = tuple(s.strip() for s in args.split(",") if s.strip())
            for a in fanin:
                _check_ident(a, lineno)
            if kind == "DFF":
                if len(fanin) != 1:
                    raise NetlistError("DFF takes exactly 1 input", line=lineno)
                flops.append(Flop(fanin[0], out))
                lines["flops"].append(lineno)
                continue
            if kind not in GATE_KINDS:
                raise NetlistError(f"unknown gate kind {kind!r}", line=lineno)
            try:
                gates.append(Gate(kind, fanin, out))
            except NetlistError as e:
                raise NetlistError(str(e), line=lineno) from None
            lines["gates"].append(lineno)
            continue
        raise NetlistError(f"syntax error: {raw.strip()!r}", line=lineno,
                           column=len(raw) - len(raw.lstrip()) + 1)
    qs = {f.q for f in flops}
    for q, (_, lineno) in inits.items():
        if q not in qs:
            raise NetlistError(f"#@init on {q!r}, which no DFF drives",
                               line=lineno)
    flops = [Flop(f.d, f.q, inits[f.q][0]) if f.q in inits else f
             for f in flops]
    try:
        netlist = Netlist(name, inputs, outputs, gates, flops, blocks)
    except NetlistError as e:
        if not hasattr(e, "item"):      # about no one item: no line to add
            raise
        field, k = e.item
        raise NetlistError(str(e), line=lines[field][k]) from None
    return netlist


def load_netlist(path):
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise NetlistError(f"{path}: not a text netlist ({e})") from None
    import os
    return parse_netlist(text, name=os.path.splitext(os.path.basename(path))[0])
