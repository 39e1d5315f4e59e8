"""Fault universe, structural collapsing, stuck-at and transition-delay
fault simulation, and coverage computation.

Stuck-at simulation paths are kept deliberately separate:

* :func:`serial_fault_sim` replays every fault one pattern at a time through
  the scalar evaluator in :mod:`corebist.circuit` - the oracle path. It
  never calls either kernel.
* :func:`kernel` builds the kernel that fits the netlist from one input
  plane per primary input (bit t = pattern t), as the BIST plan builds
  them; :func:`stimulus` transposes a pattern list once. Each kernel has
  one fault primitive, ``_errors``; on it both build ``len()``, ``index``,
  the fault-free planes ``good``, ``planes(faults)`` (one detection plane
  per stuck-at or transition fault), ``folded(faults, taps, width)`` (per
  stuck-at fault, its error planes XOR-folded into MISR word bits) and
  ``toggle_activity()``.
* :class:`FaultKernel` (combinational): each net is one integer plane over
  the whole pattern set, and faults are simulated by stem-region tracing:
  a fault's effect plane is carried gate by gate through its fanout-free
  region to the region's stem, and each stem costs one walk of its fanout
  cone per call, re-evaluating only the gates whose inputs differ from the
  fault-free planes (critical path tracing over parallel patterns).
* :class:`SequentialStimulus` (flops): its ``_errors`` is the PROOFS pass
  itself, fault-parallel: one word per net per cycle, bit 0 the fault-free
  machine and bit k+1 fault k, one pass from reset for the whole fault set,
  on the op table the kernel built once.

:func:`parallel_fault_sim` (any fault kinds) and :func:`tdf_sim` run on
either kernel. Given a pattern list they build their own kernel; given a
built one they share it, and so do the self-test signatures in
:mod:`corebist.bist`, which read :meth:`folded` off the kernel they are
given, so one command simulates the fault-free planes once, and its
stuck-at and transition faults ride one :meth:`planes` call. Every kernel
runs in this process. Their results must be bit-identical to the serial
oracle's, and that equivalence is the main regression property.

Fault model: stuck-at faults live on net stems and, where a net fans out to
more than one gate pin, on the individual branch pins; transition-delay
faults (slow-to-rise STR, slow-to-fall STF) live on net stems only and are
detected launch-on-capture over consecutive pattern pairs. A transition
fault has no stuck value, so every path that would simulate it as stuck-at
refuses it; :meth:`_Kernel.planes` reads its stem stuck-at fault instead.
"""

from __future__ import annotations

import bisect

from . import circuit
from .errors import SimulationError
from .records import record

SA_KINDS = ("SA0", "SA1")
TDF_KINDS = ("STR", "STF")


class FaultDescriptor(record("FaultDescriptor", "net kind gate pin",
                             defaults=(None, None))):
    """One fault site. ``gate`` (the output net of the gate owning the
    faulted input pin) and ``pin`` name a branch; both None means the net
    stem (driver output)."""

    __slots__ = ()

    @property
    def site(self):
        if self.gate is None:
            return self.net
        return f"{self.net}->{self.gate}.{self.pin}"

    @property
    def key(self):
        return f"{self.site}:{self.kind}"

    def stuck(self, one):
        """The value the fault forces: ``one`` (a bit, plane or word of
        ones) for SA1, 0 for SA0; a transition fault has none."""
        if self.kind == "SA1":
            return one
        if self.kind == "SA0":
            return 0
        raise SimulationError(f"{self.key}: a transition fault has no stuck "
                              "value; this path simulates stuck-at faults only")


class FaultUniverse:
    """A fault list; ``collapse_map`` (fault -> representative fault) is
    kept by :func:`collapse`. ``len(universe)`` is the fault count;
    universes compare and hash by identity."""

    __slots__ = ("faults", "collapse_map")

    def __init__(self, faults, collapse_map=None):
        self.faults = faults
        self.collapse_map = collapse_map

    def __len__(self):
        return len(self.faults)


def _fanout(netlist):
    """Net -> list of (gate output net, pin index) reading it."""
    fan = {n: [] for n in netlist.nets}
    for g in netlist.gates:
        for pin, net in enumerate(g.inputs):
            fan[net].append((g.output, pin))
    return fan


def _is_stem(readers, seen):
    """Whether a net is a stem, the root of a fanout-free region: it is
    ``seen`` (observed, or tapped into a word bit) or its ``readers``, the
    (gate, pin) pairs that read it, are not exactly one gate pin. A net no
    gate reads is a stem, and so is a net one gate reads on two pins."""
    return seen or len(readers) != 1


def enumerate_faults(netlist, kinds=("SA0", "SA1")):
    """Deterministic full fault universe for the requested kinds.

    Stuck-at: one stem fault per net plus branch faults on every gate input
    pin of nets with fanout > 1 (on fanout-free nets the pin fault is the
    stem fault). Transition faults: stems only.
    """
    kinds = tuple(kinds)
    for k in kinds:
        if k not in SA_KINDS + TDF_KINDS:
            raise SimulationError(f"unknown fault kind {k!r}")
    fan = _fanout(netlist)
    faults = []
    sa = [k for k in kinds if k in SA_KINDS]
    tdf = [k for k in kinds if k in TDF_KINDS]
    for net in netlist.nets:
        for k in sa:
            faults.append(FaultDescriptor(net, k))
        for k in tdf:
            faults.append(FaultDescriptor(net, k))
    for net in netlist.nets:
        if len(fan[net]) > 1:
            for gate, pin in fan[net]:
                for k in sa:
                    faults.append(FaultDescriptor(net, k, gate, pin))
    return FaultUniverse(tuple(faults))


# gate-local equivalences: pin fault (kind) == output stem fault (kind)
_EQUIV_IN_OUT = {
    "AND": {"SA0": "SA0"},
    "NAND": {"SA0": "SA1"},
    "OR": {"SA1": "SA1"},
    "NOR": {"SA1": "SA0"},
    "BUF": {"SA0": "SA0", "SA1": "SA1"},
    "NOT": {"SA0": "SA1", "SA1": "SA0"},
}


def collapse(universe, netlist):
    """Structural equivalence collapsing of the stuck-at faults.

    Classic gate-local rules (e.g. any AND input SA0 is equivalent to the
    output SA0). Transition faults pass through uncollapsed. Returns a
    universe holding class representatives with the full map recorded.
    """
    fan = _fanout(netlist)
    index = {f: i for i, f in enumerate(universe.faults)}

    parent = list(range(len(universe.faults)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for g in netlist.gates:
        rules = _EQUIV_IN_OUT.get(g.kind)
        if not rules:
            continue
        for in_kind, out_kind in rules.items():
            out_f = FaultDescriptor(g.output, out_kind)
            if out_f not in index:
                continue
            for pin, net in enumerate(g.inputs):
                if len(fan[net]) > 1:
                    in_f = FaultDescriptor(net, in_kind, g.output, pin)
                else:
                    in_f = FaultDescriptor(net, in_kind)
                if in_f in index:
                    union(index[in_f], index[out_f])

    collapse_map = {}
    reps = []
    for i, f in enumerate(universe.faults):
        r = universe.faults[find(i)]
        collapse_map[f] = r
        if r == f:
            reps.append(f)
    return FaultUniverse(tuple(reps), collapse_map)


# -- observation and reporting ----------------------------------------------

def observation_nets(netlist):
    """Primary outputs plus every block output net, deduplicated in order."""
    ports = (n for b in netlist.blocks for n in b.output_port)
    return tuple(dict.fromkeys([*netlist.primary_outputs, *ports]))


def _block_cones(netlist):
    """Block name -> set of nets in the fanin cone of its output port."""
    flop_d = {f.q: f.d for f in netlist.flops}
    cones = {}
    for b in netlist.blocks:
        cone = set()
        stack = list(b.output_port) + list(b.input_port)
        while stack:
            n = stack.pop()
            if n in cone:
                continue
            cone.add(n)
            g = netlist.driver.get(n)
            if g is not None:
                stack.extend(g.inputs)
            elif n in flop_d:
                stack.append(flop_d[n])
        cones[b.name] = cone
    return cones


class CoverageReport(record("CoverageReport",
                            "pattern_count faults first_detect fault_blocks")):
    """Per-fault first-detection indices plus per-block rollup.

    ``faults`` are FaultDescriptors in universe order; ``first_detect`` (an
    int pattern index or None) and ``fault_blocks`` (a block name or None)
    run parallel to them.
    """

    __slots__ = ()

    @property
    def detected(self):
        return sum(1 for d in self.first_detect if d is not None)

    @property
    def coverage(self):
        if not self.faults:
            raise SimulationError("empty fault universe")
        return self.detected / len(self.faults)

    def of_kinds(self, kinds):
        """The report restricted to the faults of ``kinds``, in order."""
        keep = [i for i, f in enumerate(self.faults) if f.kind in kinds]
        return CoverageReport(self.pattern_count,
                              *(tuple(column[i] for i in keep) for column in
                                (self.faults, self.first_detect,
                                 self.fault_blocks)))

    def detected_faults(self):
        return tuple(f for f, d in zip(self.faults, self.first_detect)
                     if d is not None)

    def per_block(self):
        table = {}
        for f, d, b in zip(self.faults, self.first_detect, self.fault_blocks):
            row = table.setdefault(b or "-", {"faults": 0, "detected": 0})
            row["faults"] += 1
            if d is not None:
                row["detected"] += 1
        for row in table.values():
            row["coverage"] = row["detected"] / row["faults"] if row["faults"] else 0.0
        return table


def fault_blocks(netlist, faults):
    """Block of each fault: the first block whose cone holds its net, or None."""
    cones = _block_cones(netlist)
    order = [b.name for b in netlist.blocks]
    out = []
    for f in faults:
        name = None
        for bname in order:
            if f.net in cones[bname]:
                name = bname
                break
        out.append(name)
    return tuple(out)


def coverage(report):
    """Summary table over a report; an empty universe is an error, not 100%
    (:attr:`CoverageReport.coverage` raises it)."""
    summary = {"total": {"faults": len(report.faults),
                         "detected": report.detected,
                         "coverage": report.coverage}}
    for kind in SA_KINDS + TDF_KINDS:
        idx = [i for i, f in enumerate(report.faults) if f.kind == kind]
        if not idx:
            continue
        det = sum(1 for i in idx if report.first_detect[i] is not None)
        summary[kind] = {"faults": len(idx), "detected": det,
                         "coverage": det / len(idx)}
    return summary


# -- serial (oracle) path ----------------------------------------------------

def _serial_detect(netlist, patterns, obs, golden, fault):
    """First pattern index whose observed outputs differ from ``golden``."""
    for i, values in enumerate(circuit.run_patterns(netlist, patterns, fault)):
        if tuple(values[n] for n in obs) != golden[i]:
            return i
    return None


def serial_fault_sim(netlist, universe, patterns):
    """Oracle stuck-at fault simulation: one fault, one pattern at a time,
    in this process; :func:`circuit.evaluate` refuses a transition fault."""
    patterns = [tuple(p) for p in patterns]
    if not patterns:
        raise SimulationError("no patterns")
    faults = universe.faults
    obs = observation_nets(netlist)
    golden = [tuple(st[n] for n in obs)
              for st in circuit.run_patterns(netlist, patterns)]
    firsts = [_serial_detect(netlist, patterns, obs, golden, f) for f in faults]
    return CoverageReport(len(patterns), faults, tuple(firsts),
                          fault_blocks(netlist, faults))


# -- planes ----------------------------------------------------------------------

# byte value -> ASCII '0'/'1' of its low bit, for packing bit columns
_BIT_CHARS = bytes(48 + (b & 1) for b in range(256))
# ASCII '0'/'1' -> byte value 0/1, for unpacking planes
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def plane(bits):
    """Sequence of bits -> int with bit t = item t."""
    return int(bytes(bits)[::-1].translate(_BIT_CHARS), 2)


def _columns(rows):
    """Rows of bits (or of ASCII '0'/'1') -> one plane per column, bit t =
    row t: a bit-matrix transpose."""
    return [plane(col) for col in zip(*rows)]


def pattern_rows(planes, n):
    """The ``n`` patterns that one ``n``-bit plane per primary input holds,
    one tuple per pattern: the transpose back to a pattern list."""
    columns = {}         # replicated inputs share one column
    for plane in planes:
        if plane not in columns:
            columns[plane] = format(plane, f"0{n}b")[::-1].encode().translate(_BITS)
    return list(zip(*(columns[p] for p in planes))) if planes else [()] * n


def _lowest(plane):
    """Index of the lowest set bit, or None for 0."""
    return (plane & -plane).bit_length() - 1 if plane else None


def _eval_gate(kind, planes, mask):
    if kind == "AND" or kind == "NAND":
        r = mask
        for p in planes:
            r &= p
        return r ^ mask if kind == "NAND" else r
    if kind == "OR" or kind == "NOR":
        r = 0
        for p in planes:
            r |= p
        return r ^ mask if kind == "NOR" else r
    if kind == "XOR" or kind == "XNOR":
        r = 0
        for p in planes:
            r ^= p
        return r ^ mask if kind == "XNOR" else r
    if kind == "NOT":
        return planes[0] ^ mask
    return planes[0]  # BUF


def _op_table(netlist):
    """The net index (position in ``netlist.nets``), the gates in
    topological order as ``(kind, output, inputs)`` net indices, each gate
    output's position among them, and the observation nets' indices as the
    keys of a dict (ordered, and quick to test for membership)."""
    index = {net: i for i, net in enumerate(netlist.nets)}
    ops = [(g.kind, index[g.output], tuple(index[i] for i in g.inputs))
           for g in netlist.topo_gates]
    driver = {out: pos for pos, (_, out, _) in enumerate(ops)}
    return index, ops, driver, dict.fromkeys(index[n] for n in
                                             observation_nets(netlist))


class _Kernel:
    """What both kernels share: ``n`` patterns given as one input plane per
    primary input, the op table of :func:`_op_table` (built once; ``index``
    is its net index), and, on top of each kernel's one fault primitive, the
    fault-free planes (:attr:`good`, kept once computed), the detection
    planes and the folded error planes. ``len(kernel)`` is the pattern
    count. A subclass sets ``_good`` and has the primitive ``_errors(faults,
    taps, width)`` (stem-region tracing, or the PROOFS pass on flops): per
    stuck-at fault (a transition fault has no stuck value, so it is
    refused), its detection plane and a list of ``width`` planes, each the
    XOR of ``faulty ^ fault-free`` over the nets that feed that word bit
    (``taps``: net index -> the bits 0..width-1 it feeds; a net listed twice
    on one bit cancels)."""

    def __init__(self, netlist, inputs, n):
        if n < 1:
            raise SimulationError("no patterns")
        if len(inputs) != len(netlist.primary_inputs):
            raise SimulationError(f"{len(inputs)} input planes for "
                                  f"{len(netlist.primary_inputs)} primary inputs")
        self.netlist = netlist
        self.n = n
        self.mask = mask = (1 << n) - 1
        self.inputs = [plane & mask for plane in inputs]
        self.index, self._ops, self._driver, self._obs = _op_table(netlist)
        self._good = None

    def __len__(self):
        return self.n

    @property
    def good(self):
        """Every net's fault-free plane, in ``netlist.nets`` order."""
        if self._good is None:
            self._errors((), {}, 0)
        return self._good

    def planes(self, faults):
        """Detection plane of each fault of ``faults``: bit t is set iff
        pattern t detects it. A stuck-at fault is detected when the
        observed outputs differ from the fault-free ones. A slow-to-rise
        (slow-to-fall) fault on net n is detected launch-on-capture at
        pattern t >= 1 when n rises (falls) from pattern t-1 to t and n
        stuck-at-0 (stuck-at-1) is detected at t. One simulation covers the
        stuck-at faults and the stems the transition faults read, so on a
        core with flops one pass serves both, as in PROOFS."""
        stems = {f: FaultDescriptor(f.net, "SA0" if f.kind == "STR" else "SA1")
                 for f in faults if f.kind in TDF_KINDS}
        if stems and self.n < 2:
            raise SimulationError(
                "transition fault simulation needs >= 2 patterns")
        run = list(dict.fromkeys(stems.get(f, f) for f in faults))
        diffs = {f: plane for f, (plane, _) in
                 zip(run, self._errors(run, {}, 0))}
        good, full = self.good, self.mask & ~1
        out = []
        for f in faults:
            plane = diffs[stems.get(f, f)]
            if f in stems:
                v = good[self.index[f.net]]
                edge = (~v << 1) & v if f.kind == "STR" else (v << 1) & ~v
                plane &= edge & full
            out.append(plane)
        return out

    def folded(self, faults, taps, width):
        """Per stuck-at fault, its ``width`` folded error planes over
        ``taps`` (:class:`_Kernel`); as lazy as ``_errors``."""
        return (words for _, words in self._errors(faults, taps, width))

    def toggle_activity(self):
        """:func:`circuit.toggle_activity` over the kernel's patterns, read
        from the fault-free planes: a net changes between patterns t and
        t+1 iff bit t of ``v ^ v >> 1`` is set, for t < n - 1."""
        if self.n < 2:
            raise SimulationError("toggle activity needs at least 2 patterns")
        pairs = self.mask >> 1
        counts = {net: ((v ^ v >> 1) & pairs).bit_count()
                  for net, v in zip(self.netlist.nets, self.good)}
        return sum(1 for c in counts.values() if c) / len(counts), counts


class FaultKernel(_Kernel):
    """The kernel of a combinational netlist, as :func:`kernel` builds it.

    Every net holds one integer plane over the whole pattern set; the
    fault-free planes are computed once, here. Faults are simulated by
    stem-region tracing (critical path tracing inside fanout-free regions:
    Abramovici, Menon & Miller, IEEE D&T 1984; Antreich & Schulz, IEEE TCAD
    1987), exact for single stuck-at faults. A fault's effect plane is
    walked gate by gate along the single-reader chain from its site to its
    stem (:func:`_is_stem`). Each stem reached costs one cone walk with the
    stem complemented, which gives the patterns at which flipping it shows
    at the observation nets and at each word bit; a fault's planes are its
    effect plane ANDed with its stem's. :meth:`faulty` and the stem walk
    share one cone walk (:meth:`_walk`), which re-evaluates only the cone's
    gates whose inputs differ from the fault-free planes.
    """

    def __init__(self, netlist, inputs, n):
        if netlist.flops:
            raise SimulationError("the fault kernel needs a combinational netlist")
        super().__init__(netlist, inputs, n)
        # the (gate position, pin) pairs reading each net; positions follow
        # the topological order
        self._pins = [[] for _ in netlist.nets]
        for pos, (_, _, ins) in enumerate(self._ops):
            for pin, i in enumerate(ins):
                self._pins[i].append((pos, pin))
        good = [0] * len(netlist.nets)
        for net, plane in zip(netlist.primary_inputs, self.inputs):
            good[self.index[net]] = plane
        for kind, out, ins in self._ops:
            good[out] = _eval_gate(kind, [good[i] for i in ins], self.mask)
        self._good = good

    def _walk(self, site, value):
        """Net index -> faulty plane when net ``site`` carries ``value`` (not
        its fault-free plane), for the nets whose plane differs. A gate is
        queued when one of its inputs changes and evaluated in position
        order, so after every gate that drives it; no other gate is."""
        good, ops, pins, mask = self._good, self._ops, self._pins, self.mask
        faulty = {site: value}
        queue = sorted({pos for pos, _ in pins[site]})
        while queue:
            kind, out, ins = ops[queue.pop(0)]
            value = _eval_gate(kind, [faulty.get(i, good[i]) for i in ins], mask)
            if value != good[out]:
                faulty[out] = value
                for pos, _ in pins[out]:
                    if pos not in queue:
                        bisect.insort(queue, pos)
        return faulty

    def _site(self, fault):
        """The net a stuck-at fault changes first and its plane there: the
        net itself for a stem fault, the reading gate's output for a branch
        fault."""
        stuck = fault.stuck(self.mask)
        if fault.pin is None:
            return self.index[fault.net], stuck
        return self._force(self._driver[self.index[fault.gate]], fault.pin,
                           stuck)

    def _force(self, pos, pin, value):
        """Output net and plane of the gate at ``pos`` with ``pin`` reading
        ``value`` and every other pin its fault-free plane."""
        kind, out, ins = self._ops[pos]
        planes = [self._good[i] for i in ins]
        planes[pin] = value
        return out, _eval_gate(kind, planes, self.mask)

    def faulty(self, fault):
        """Net index -> faulty plane under the stuck-at ``fault``, for the
        nets whose plane differs from the fault-free one."""
        site, value = self._site(fault)
        return {} if value == self._good[site] else self._walk(site, value)

    def _errors(self, faults, taps, width):
        """Lazily, by stem-region tracing (the contract: :class:`_Kernel`).
        Each fault's effect plane ``e`` (faulty ^ fault-free) is carried
        from its site along the single-reader chain to its stem, or until
        it is 0; its detection plane is then ``e & D`` and its folded
        planes ``e & F`` for the stem's ``D`` (the OR of the observed errors
        when the stem is complemented) and ``F`` (the tapped errors folded
        per word bit). The stems of this call, taps included, get one cone
        walk each on first use."""
        good, obs, pins = self._good, self._obs, self._pins
        regions = {}
        for fault in faults:
            net, value = self._site(fault)
            e = value ^ good[net]
            while e and not _is_stem(pins[net], net in obs or net in taps):
                (pos, pin), = pins[net]
                net, value = self._force(pos, pin, good[net] ^ e)
                e = value ^ good[net]
            if not e:
                yield 0, [0] * width
                continue
            region = regions.get(net)
            if region is None:
                diff, words = 0, [0] * width
                for i, value in self._walk(net, good[net] ^ self.mask).items():
                    error = value ^ good[i]
                    if i in obs:
                        diff |= error
                    for bit in taps.get(i, ()):
                        words[bit] ^= error
                region = regions[net] = diff, words
            diff, words = region
            yield e & diff, [e & w for w in words]


# -- fault-parallel sequential kernel -----------------------------------------

class SequentialStimulus(_Kernel):
    """The kernel of a netlist with flops, as :func:`kernel` builds it. Its
    primitive :meth:`_errors` is the pass of PROOFS (Niermann, Cheng &
    Patel, IEEE TCAD 1992): the fault-free machine and every stuck-at fault
    of a fault list in one pass from reset, which also gives the fault-free
    planes. A :meth:`planes` call runs one pass over its stuck-at faults and
    the stems its transition faults read, a :meth:`folded` call one pass
    over its faults.
    """

    def _errors(self, faults, taps, width):
        """One pass (the contract: :class:`_Kernel`), run when called.

        Every net holds one integer word per cycle: bit 0 is the fault-free
        machine and bit k+1 the machine with fault k. A stuck-at fault is
        forced by AND/OR masks, on the net's word for a stem fault and on the
        (gate, pin) input for a branch fault. Flop Q nets take their D words
        at the edge, and a Q net's stem masks apply again every cycle, so a
        stuck Q net stays stuck before the edge. Each cycle keeps the
        observed error word (bit k+1 set iff fault k's observed outputs
        differ) and, per word bit, the XOR ``x`` of the words of the nets
        that feed it, whose bit 0 is the fault-free XOR, so its error is
        ``x ^ full`` if ``x & 1`` else ``x``. Each kept column is then
        transposed into one plane per fault. The fault-free planes
        (:attr:`good`, flop Q nets pre-edge) come from bit 0 of every net.
        """
        index, driver = self.index, self._driver
        pis = [index[n] for n in self.netlist.primary_inputs]
        flops = [(index[f.q], index[f.d]) for f in self.netlist.flops]

        full = (2 << len(faults)) - 1
        stems, pins = {}, {}
        for k, f in enumerate(faults):
            if f.pin is None:
                table, key = stems, index[f.net]
            else:
                table, key = pins, (driver[index[f.gate]], f.pin)
            keep, force = table.get(key, (full, 0))
            table[key] = (keep & ~(2 << k), force | f.stuck(2 << k))
        ops = []
        for pos, (kind, out, ins) in enumerate(self._ops):
            forced = tuple(pins.get((pos, pin)) for pin in range(len(ins)))
            ops.append((kind, out, ins, forced if any(forced) else None,
                        stems.pop(out, None)))
        sources = list(stems.items())   # stem masks on inputs and Q nets
        taps = list(taps.items())

        v = [0] * len(index)
        state = [full if f.init else 0 for f in self.netlist.flops]
        rows, kept = [], []
        for p in pattern_rows(self.inputs, self.n):
            for i, b in zip(pis, p):
                v[i] = full if b else 0
            for (q, _), w in zip(flops, state):
                v[q] = w
            for i, (keep, force) in sources:
                v[i] = v[i] & keep | force
            for kind, out, ins, forced, stuck in ops:
                if forced is None:
                    w = _eval_gate(kind, [v[i] for i in ins], full)
                else:
                    w = _eval_gate(kind, [v[i] if m is None else
                                          v[i] & m[0] | m[1]
                                          for i, m in zip(ins, forced)], full)
                v[out] = w if stuck is None else w & stuck[0] | stuck[1]
            diff = 0
            for i in self._obs:
                w = v[i]
                diff |= w ^ full if w & 1 else w
            xor = [0] * width
            for i, bits in taps:
                for bit in bits:
                    xor[bit] ^= v[i]
            kept.append([diff] + [x ^ full if x & 1 else x for x in xor])
            rows.append(bytes(w & 1 for w in v))
            state = [v[d] for _, d in flops]
        self._good = _columns(rows)

        def machines(cycles):     # per-cycle words -> one plane per fault
            return _columns(format(w, f"0{len(faults) + 1}b")[::-1].encode()
                            for w in cycles)[1:]
        return [(diff, words) for diff, *words in
                zip(*map(machines, zip(*kept)))]


def kernel(netlist, inputs, n):
    """The kernel of ``netlist`` over ``n`` patterns given as one input
    plane per primary input (bit t = pattern t): a
    :class:`SequentialStimulus` for a netlist with flops, else a
    :class:`FaultKernel`. Build one per pattern set and share it between
    every simulation over those patterns."""
    if netlist.flops:
        return SequentialStimulus(netlist, inputs, n)
    return FaultKernel(netlist, inputs, n)


def stimulus(netlist, patterns):
    """The :func:`kernel` over a pattern list, transposed once into input
    planes; ``patterns`` itself when it already is a kernel."""
    if isinstance(patterns, _Kernel):
        return patterns
    patterns = [tuple(p) for p in patterns]
    if any(len(p) != len(netlist.primary_inputs) for p in patterns):
        raise SimulationError("input vector width mismatch")
    return kernel(netlist, _columns(patterns), len(patterns))


def parallel_fault_sim(netlist, universe, patterns):
    """Fault simulation of stuck-at and transition faults on the netlist's
    kernel (``patterns``: a pattern list or a kernel from :func:`stimulus`
    or :func:`kernel` to share); first detect is each detection plane's
    lowest set bit (:meth:`_Kernel.planes`). Its stuck-at entries are
    bit-identical to :func:`serial_fault_sim`.
    """
    patterns = stimulus(netlist, patterns)
    firsts = tuple(_lowest(p) for p in patterns.planes(universe.faults))
    return CoverageReport(len(patterns), universe.faults, firsts,
                          fault_blocks(netlist, universe.faults))


# -- transition-delay faults --------------------------------------------------

def tdf_sim(netlist, universe, patterns):
    """Launch-on-capture transition-delay fault simulation.

    A slow-to-rise fault at net n is detected by the consecutive pair
    (p_i, p_i+1) iff the fault-free run drives n 0 -> 1 across the pair and
    n stuck-at-0 is observable at an output under p_i+1 (dual for
    slow-to-fall). First detection is recorded at the capture pattern.
    This is :func:`parallel_fault_sim` over transition faults only.
    """
    for f in universe.faults:
        if f.kind not in TDF_KINDS:
            raise SimulationError("tdf_sim handles transition faults only")
    return parallel_fault_sim(netlist, universe, patterns)
