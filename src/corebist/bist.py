"""The BIST engine: plan configuration, control unit, golden signatures,
and full self-test sessions.

Per-cycle timing, used identically by golden and faulty runs: the pattern for
cycle c is assembled from the current ALFSR register, the DUT settles, each
block's output word is folded and absorbed by its MISR in that same cycle,
then the ALFSR steps. Flops (if any) clock at the end of the cycle.

Two paths produce signatures. :class:`BistSession` (with
:func:`compute_golden` and :func:`run_selftest`) steps that cycle loop one
scalar evaluation at a time; it is the oracle, no command reads its
signatures, and it never touches a fault-sim kernel, the plane builder or
the closed-form MISR. :func:`signature_values` simulates the plan's whole
pattern stream once in the netlist's :func:`faultsim.kernel`, on a
combinational and a sequential core alike, and reduces each MISR's folded
output planes with :func:`compactor.signature_of_planes`; since that map
is linear over GF(2), a faulty signature is the fault-free one XOR the
signature of the error planes the kernel folds into the same word bits.
:func:`selftest_results` is what the reports use, and TAP replay runs
:class:`EngineSession`, whose START reads its signatures from
:func:`signature_values` too.

The stimulus is built as whole-stream bit planes by :func:`plan_planes`
(one integer per primary input, bit t = cycle t, straight from the ALFSR
sequence), and :func:`plan_stimulus` compiles them into the one kernel a
command shares between its signatures, SAF, TDF and toggle activity, on a
combinational and a sequential core alike. :func:`plan_patterns` is their
transpose, for the scalar paths that replay patterns one at a time, and
:meth:`BistSession.pattern_stream` the cycle-by-cycle oracle of both.
"""

from __future__ import annotations

import json

from . import circuit as circuit_mod
from . import compactor, faultsim, tpg
from .errors import PlanError, SimulationError
from .records import record

PLAN_SCHEMA_VERSION = 1

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", bool: "true or false", float: "a number",
               type(None): "null"}
_MISSING = object()


def _expect(value, kind, path):
    """``value`` if it is a ``kind`` (a bool is no integer), else a
    :class:`PlanError` naming the field ``path``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise PlanError(f"{path}: expected {_JSON_TYPES[kind]}, got "
                        f"{_JSON_TYPES.get(type(value), type(value).__name__)}")
    return value


def _get(obj, key, kind, path="", default=_MISSING):
    """Field ``key`` of the JSON object ``obj`` at ``path``, checked by
    :func:`_expect`; ``default`` when it is absent, if one is given."""
    where = f"{path}.{key}" if path else key
    if key not in obj:
        if default is _MISSING:
            raise PlanError(f"{where}: missing")
        return default
    return _expect(obj[key], kind, where)


def _at(path, build, *args):
    """``build(*args)``, a PlanError re-raised naming the field ``path``."""
    try:
        return build(*args)
    except PlanError as e:
        raise PlanError(f"{path}: {e}") from None


def _literal(text, base):
    """``int(text, base)``, or a :class:`PlanError` naming the literal's
    expected form (base 0 takes any Python integer literal)."""
    try:
        return int(text, base)
    except ValueError:
        form = {0: "an integer", 2: "a binary", 10: "a decimal"}[base]
        raise PlanError(f"expected {form} literal, got {text!r}") from None


class MisrAssignment(record("MisrAssignment", "block polynomial cascade")):
    """The MISR (a :class:`tpg.Polynomial`) and the
    :class:`compactor.XorCascade` that compact one block's output port."""

    __slots__ = ()


class BistPlan(record("BistPlan", "alfsr_poly alfsr_seed bindings misrs "
                      "counter_width pattern_count golden")):
    """Full engine configuration, serializable to JSON.

    ``bindings`` holds one :class:`tpg.PortBinding` per block in selector
    order and ``misrs`` one :class:`MisrAssignment` per block in the same
    order; ``golden`` is the tuple of :class:`compactor.Signature` once
    computed. Copies with changed fields (``plan._replace(...)``) are
    checked like a new plan. This is the one check of the ALFSR seed: a
    plan file and ``--seed`` both pass through it, so every
    :class:`tpg.AlfsrState` built from ``alfsr_seed`` is nonzero and fits
    the register.
    """

    __slots__ = ()

    def __new__(cls, alfsr_poly, alfsr_seed, bindings, misrs, counter_width=12,
                pattern_count=4096, golden=None):
        if not 1 <= counter_width <= 32:
            raise PlanError(f"counter_width {counter_width} outside 1..32")
        if not 1 <= pattern_count <= (1 << counter_width):
            raise PlanError(f"pattern_count {pattern_count} outside "
                            f"1..2^{counter_width}")
        blocks = [b.block for b in bindings]
        if len(set(blocks)) != len(blocks):
            raise PlanError("a block is bound more than once")
        if [m.block for m in misrs] != blocks:
            raise PlanError("MISR assignment order must match binding order")
        if len(misrs) > 4:
            raise PlanError("output selector is a 2-bit code (at most 4 MISRs)")
        if not 1 <= alfsr_seed < 1 << alfsr_poly.degree:
            raise PlanError(f"ALFSR seed {alfsr_seed:#x} outside "
                            f"1..2^{alfsr_poly.degree}-1")
        if golden is not None and [s.block for s in golden] != blocks:
            raise PlanError("golden signatures must list every MISR in plan order")
        return super().__new__(cls, alfsr_poly, alfsr_seed, bindings, misrs,
                               counter_width, pattern_count, golden)

    # -- JSON ----------------------------------------------------------------

    def to_dict(self):
        d = {
            "schema_version": PLAN_SCHEMA_VERSION,
            "alfsr": {"poly": str(self.alfsr_poly),
                      "seed": f"{self.alfsr_seed:#x}"},
            "counter_width": self.counter_width,
            "pattern_count": self.pattern_count,
            "bindings": [],
            "misrs": [],
        }
        for b in self.bindings:
            entry = {"block": b.block, "width": b.width,
                     "alfsr_slice": {str(k): v for k, v in sorted(b.alfsr_slice.items())}}
            if b.cg is not None:
                entry["cg"] = {
                    "port_width": b.cg.port_width,
                    "cyclic": b.cg.cyclic,
                    "schedule": [[f"{v:0{b.cg.port_width}b}", h]
                                 for v, h in b.cg.schedule],
                }
                entry["cg_bits"] = list(b.cg_bits)
            d["bindings"].append(entry)
        for m in self.misrs:
            d["misrs"].append({"block": m.block, "poly": str(m.polynomial),
                               "cascade": {"in": m.cascade.in_width,
                                           "out": m.cascade.out_width}})
        if self.golden is not None:
            d["golden"] = [{"block": s.block, "value": "0x" + s.hex(),
                            "pattern_count": s.pattern_count}
                           for s in self.golden]
        return d

    @classmethod
    def from_dict(cls, d):
        """Plan from its JSON form; a missing field, a wrong type or a bad
        value raises :class:`PlanError` naming the field's path."""
        _expect(d, dict, "plan")
        version = d.get("schema_version")
        if type(version) is not int or version != PLAN_SCHEMA_VERSION:
            raise PlanError(f"unsupported plan schema {version!r}")
        alfsr = _get(d, "alfsr", dict)
        poly = _at("alfsr.poly", tpg.Polynomial.parse, _get(alfsr, "poly", str, "alfsr"))
        seed_val = _at("alfsr.seed", _literal, _get(alfsr, "seed", str, "alfsr"), 0)
        bindings = []
        for i, e in enumerate(_get(d, "bindings", list)):
            path = f"bindings[{i}]"
            _expect(e, dict, path)
            cg = None
            if "cg" in e:
                c = _get(e, "cg", dict, path)
                cpath = f"{path}.cg"
                schedule = []
                for j, step in enumerate(_get(c, "schedule", list, cpath)):
                    spath = f"{cpath}.schedule[{j}]"
                    if not isinstance(step, list) or len(step) != 2:
                        raise PlanError(f"{spath}: expected a [value, hold] pair")
                    value = _expect(step[0], str, f"{spath}[0]")
                    schedule.append((_at(f"{spath}[0]", _literal, value, 2),
                                     _expect(step[1], int, f"{spath}[1]")))
                cg = _at(cpath, tpg.ConstraintProgram,
                         _get(c, "port_width", int, cpath), tuple(schedule),
                         _get(c, "cyclic", bool, cpath, True))
            cg_bits = tuple(_expect(b, int, f"{path}.cg_bits[{j}]")
                            for j, b in enumerate(_get(e, "cg_bits", list, path, ())))
            alfsr_slice = {}
            for k, v in _get(e, "alfsr_slice", dict, path).items():
                kpath = f"{path}.alfsr_slice.{k}"
                alfsr_slice[_at(kpath, _literal, k, 10)] = _expect(v, int, kpath)
            bindings.append(_at(path, tpg.PortBinding, _get(e, "block", str, path),
                                _get(e, "width", int, path), alfsr_slice, cg, cg_bits))
        misrs = []
        for i, e in enumerate(_get(d, "misrs", list)):
            path = f"misrs[{i}]"
            _expect(e, dict, path)
            cascade = _get(e, "cascade", dict, path)
            cpath = f"{path}.cascade"
            misrs.append(MisrAssignment(
                _get(e, "block", str, path),
                _at(f"{path}.poly", tpg.Polynomial.parse, _get(e, "poly", str, path)),
                _at(cpath, compactor.XorCascade, _get(cascade, "in", int, cpath),
                    _get(cascade, "out", int, cpath))))
        golden = None
        if "golden" in d:
            by_block = {m.block: m for m in misrs}
            golden = []
            for i, g in enumerate(_get(d, "golden", list)):
                path = f"golden[{i}]"
                _expect(g, dict, path)
                block = _get(g, "block", str, path)
                if block not in by_block:
                    raise PlanError(f"{path}.block: no MISR for block {block!r}")
                golden.append(compactor.Signature(
                    block, by_block[block].polynomial,
                    _at(f"{path}.value", _literal, _get(g, "value", str, path), 0),
                    _get(g, "pattern_count", int, path)))
            golden = tuple(golden)
        return cls(poly, seed_val, tuple(bindings), tuple(misrs),
                   _get(d, "counter_width", int, default=12),
                   _get(d, "pattern_count", int, default=4096), golden)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                d = json.load(fh)
            except ValueError as e:          # JSON syntax or text encoding
                raise PlanError(f"{path}: not a JSON plan ({e})") from None
        return cls.from_dict(d)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())


class ControlUnitState:
    """The control unit's registers; ``phase`` runs idle -> loading ->
    running -> done."""

    __slots__ = ("pattern_counter", "test_enable", "output_select", "phase")

    def __init__(self):
        self.pattern_counter = 0
        self.test_enable = False
        self.output_select = 0
        self.phase = "idle"


class BistResult(record("BistResult", "signatures passed patterns_applied")):
    """A self-test's signatures; ``passed`` holds one bool per block."""

    __slots__ = ()

    @property
    def all_pass(self):
        return all(self.passed)


def check_plan(netlist, plan):
    """Raise :class:`PlanError` unless ``plan`` fits ``netlist``: every
    binding and MISR names a block of matching width, every ALFSR source is
    a stage, and every primary input is bound."""
    degree = plan.alfsr_poly.degree
    for binding, misr in zip(plan.bindings, plan.misrs):
        blk = netlist.block_by_name.get(binding.block)
        if blk is None:
            raise PlanError(f"plan binds unknown block {binding.block!r}")
        if binding.width != len(blk.input_port):
            raise PlanError(f"binding width {binding.width} != block "
                            f"{binding.block!r} port width {len(blk.input_port)}")
        for src in binding.alfsr_slice.values():
            if not 0 <= src < degree:
                raise PlanError(f"ALFSR bit {src} out of range for degree {degree}")
        if misr.cascade.in_width != len(blk.output_port):
            raise PlanError(f"cascade input width mismatch for {binding.block!r}")
        if misr.cascade.out_width != misr.polynomial.degree:
            raise PlanError(f"cascade/MISR width mismatch for {binding.block!r}")
    bound_inputs = set()
    for binding in plan.bindings:
        bound_inputs.update(netlist.block_by_name[binding.block].input_port)
    for n in netlist.primary_inputs:
        if n not in bound_inputs:
            raise PlanError(f"primary input {n!r} driven by no binding")


class BistSession:
    """One self-test execution context: control unit + generators + MISRs."""

    def __init__(self, netlist, plan):
        check_plan(netlist, plan)
        self.netlist = netlist
        self.plan = plan
        self.reset()

    def reset(self):
        """Core reset: ALFSR to seed, MISRs to zero, counter cleared."""
        self.alfsr = tpg.AlfsrState(self.plan.alfsr_poly, self.plan.alfsr_seed)
        self.misrs = {m.block: compactor.MisrState(m.polynomial)
                      for m in self.plan.misrs}
        self.dut_state = circuit_mod.initial_state(self.netlist)
        self._pattern_count = self.plan.pattern_count
        self.control = ControlUnitState()

    def set_count(self, n):
        if not 1 <= n <= (1 << self.plan.counter_width):
            raise PlanError(f"pattern count {n} outside counter range")
        self._pattern_count = n
        self.control.phase = "loading"

    def select(self, code):
        if not 0 <= code < len(self.plan.misrs):
            raise PlanError(f"selector {code} out of range")
        self.control.output_select = code

    def assemble_inputs(self, cycle):
        """This cycle's pattern from all bindings: one bit per primary
        input, in ``netlist.primary_inputs`` order."""
        assignment = {}
        for binding in self.plan.bindings:
            word = tpg.assemble_pattern(binding, self.alfsr, cycle)
            port = self.netlist.block_by_name[binding.block].input_port
            for net, bit in zip(port, word):
                assignment[net] = bit
        # via a list: tuple(genexpr) resizes, which fills CPython's tuple free list
        return tuple([assignment[n] for n in self.netlist.primary_inputs])

    def step(self, inject=None):
        """One test cycle: apply pattern, settle, fold and absorb, advance."""
        cycle = self.control.pattern_counter
        values, self.dut_state = circuit_mod.evaluate(
            self.netlist, self.dut_state, self.assemble_inputs(cycle),
            fault=inject)
        for binding, misr in zip(self.plan.bindings, self.plan.misrs):
            port = self.netlist.block_by_name[binding.block].output_port
            word = tuple(values[n] for n in port)
            folded = compactor.fold(misr.cascade, word)
            self.misrs[misr.block] = compactor.misr_absorb(
                self.misrs[misr.block], folded)
        self.alfsr = tpg.alfsr_step(self.alfsr)
        self.control.pattern_counter = cycle + 1

    def run(self, inject=None):
        self.control.test_enable = True
        self.control.phase = "running"
        while self.control.pattern_counter < self._pattern_count:
            self.step(inject=inject)
        self.control.test_enable = False
        self.control.phase = "done"

    def signatures(self):
        return tuple(
            compactor.Signature(m.block, m.polynomial,
                                self.misrs[m.block].register,
                                self.control.pattern_counter)
            for m in self.plan.misrs)

    def selected_signature(self):
        return compactor.select_output(self.signatures(),
                                       self.control.output_select)

    def pattern_stream(self):
        """The primary-input vectors this plan applies, for fault simulation."""
        saved = self.alfsr
        self.alfsr = tpg.AlfsrState(self.plan.alfsr_poly, self.plan.alfsr_seed)
        patterns = []
        for cycle in range(self._pattern_count):
            patterns.append(self.assemble_inputs(cycle))
            self.alfsr = tpg.alfsr_step(self.alfsr)
        self.alfsr = saved
        return patterns


def _cg_planes(program, n):
    """One plane per constraint-program bit over cycles 0..n-1: one period
    from :func:`tpg.cg_step`, repeated by doubling when the program is
    cyclic, its last value held when it is not."""
    period = min(program.total_cycles, n)
    values = [tpg.cg_step(program, t) for t in range(period)]
    planes = []
    for j in range(program.port_width):
        plane = faultsim.plane([v >> j & 1 for v in values])
        if program.cyclic:
            span = period
            while span < n:
                plane |= plane << span
                span *= 2
        elif values[-1] >> j & 1:
            plane |= -1 << period
        planes.append(plane & ((1 << n) - 1))
    return planes


def plan_planes(netlist, plan):
    """The plan's stimulus as one integer plane per primary input, in
    ``netlist.primary_inputs`` order: bit t is the value driven in cycle t,
    for the plan's pattern count of cycles.

    At every shift stage 0 of the Fibonacci ALFSR takes the feedback bit and
    stage i takes what stage i-1 held (:func:`tpg.lfsr_next`). So stage i in
    cycle t holds what stage 0 held in cycle t-i, and for t < i the seed's
    bit i-t: every stage emits the same sequence, only delayed (Golomb,
    *Shift Register Sequences*, 1967; Bardell, McAnney & Savir, 1987,
    ch. 3). n register steps give stage 0's sequence; prefixed with the
    seed's high bits it yields each stage's plane by one shift and one mask.
    Replicated inputs read the same plane. Constraint-generator bits come
    from :func:`_cg_planes`. :meth:`BistSession.pattern_stream` is the
    cycle-by-cycle oracle of this function.
    """
    check_plan(netlist, plan)
    n = plan.pattern_count
    poly = plan.alfsr_poly
    top = poly.degree - 1
    register = plan.alfsr_seed
    # bit k of `sequence` is stage 0 in cycle k - top: bits 0..top-1 are
    # the seed's stages top down to 1, then one bit per register step
    head = sum((register >> (top - k) & 1) << k for k in range(top))
    steps = []
    for _ in range(n):
        steps.append(register & 1)
        register = tpg.lfsr_next(poly, register)
    sequence = faultsim.plane(steps) << top | head
    mask = (1 << n) - 1
    planes = {}
    for binding in plan.bindings:
        word = [None] * binding.width
        for bit, src in binding.alfsr_slice.items():
            word[bit] = sequence >> (top - src) & mask
        if binding.cg is not None:
            for bit, plane in zip(binding.cg_bits, _cg_planes(binding.cg, n)):
                word[bit] = plane
        planes.update(zip(netlist.block_by_name[binding.block].input_port,
                          word))
    return [planes[net] for net in netlist.primary_inputs]


def plan_patterns(netlist, plan, count=None):
    """Primary-input pattern list the plan would apply: the transpose of
    :func:`plan_planes`, one tuple per cycle, for the first ``count``
    cycles (default: the plan's pattern count, which a count replaces)."""
    if count is not None:
        plan = plan._replace(pattern_count=count)
    return faultsim.pattern_rows(plan_planes(netlist, plan),
                                 plan.pattern_count)


def compute_golden(netlist, plan):
    """Fault-free run; returns the plan with golden signatures stored."""
    session = BistSession(netlist, plan)
    session.run()
    return plan._replace(golden=session.signatures())


def run_selftest(netlist, plan, injected=None):
    """Execute the full self-test against the plan's golden signatures;
    optional stuck-at injection for MISR-level detection studies (a
    transition fault is refused)."""
    if plan.golden is None:
        raise PlanError("plan has no golden signatures (run compute_golden)")
    session = BistSession(netlist, plan)
    session.run(inject=injected)
    sigs = session.signatures()
    ref = {s.block: s.value for s in plan.golden}
    return BistResult(sigs, tuple(s.value == ref[s.block] for s in sigs),
                      session.control.pattern_counter)


def plan_stimulus(netlist, plan):
    """The plan's patterns as the fault simulators take them:
    :func:`faultsim.kernel` over :func:`plan_planes`, built once and shared
    by every simulation over those patterns."""
    return faultsim.kernel(netlist, plan_planes(netlist, plan),
                           plan.pattern_count)


def signature_values(netlist, plan, kernel, faults):
    """Self-test signatures of ``netlist`` from its :func:`faultsim.kernel`
    over the plan's pattern stream: per entry of ``faults`` (None:
    fault-free), the signature values, one per MISR in plan order; one
    kernel call serves every fault.

    Each MISR's cascade folds its block's output-port planes (port bit i
    into word bit i mod out) and :func:`compactor.signature_of_planes`
    reduces the folded planes to the fault-free signature in closed form.
    Under a stuck-at fault the kernel folds the error planes (faulty ^
    fault-free) into the same word bits (:meth:`faultsim._Kernel.folded`),
    and since the closed form is linear the faulty signature is the
    fault-free one XOR the signature of the folded error planes. On a core
    with flops one fault-parallel pass from reset gives them for every
    fault, and the fault-free planes with them.

    ``kernel`` must be compiled over the plan's own stream
    (:func:`plan_stimulus`); it is shared, not copied.
    """
    check_plan(netlist, plan)
    n = plan.pattern_count
    if len(kernel) != n:
        raise SimulationError(f"{len(kernel)} patterns for a plan of {n}")
    # net index -> the folded word bits it feeds, numbered across the MISRs
    # in plan order, and each MISR's polynomial and slice of those bits
    taps, spans, width = {}, [], 0
    for binding, misr in zip(plan.bindings, plan.misrs):
        out = misr.cascade.out_width
        for i, net in enumerate(netlist.block_by_name[binding.block].output_port):
            taps.setdefault(kernel.index[net], []).append(width + i % out)
        spans.append((misr.polynomial, slice(width, width + out)))
        width += out

    def signature_of(words):
        """One signature per MISR of the folded word planes."""
        return tuple(compactor.signature_of_planes(poly, words[bits], n)
                     if any(words[bits]) else 0 for poly, bits in spans)

    run = [f for f in dict.fromkeys(faults) if f is not None]
    folded = kernel.folded(run, taps, width) if run else ()
    good = kernel.good  # after the error pass, which gives it on flops
    words = [0] * width
    for i, bits in taps.items():
        for bit in bits:
            words[bit] ^= good[i]
    values = {None: signature_of(words)}
    for fault, planes in zip(run, folded):
        values[fault] = tuple(g ^ e for g, e in
                              zip(values[None], signature_of(planes)))
    return [values[f] for f in faults]


class EngineSession(BistSession):
    """A :class:`BistSession` whose :meth:`run` reads the signatures from
    :func:`signature_values`; TAP replay uses it.

    Only :meth:`reset` and :meth:`run` move a session. So after ``start``
    cycles its ALFSR stands ``start`` steps past the seed, its MISRs at the
    signatures of the plan's first ``start`` patterns, and a flop core's
    state at the state those patterns reach from reset. The scalar loop,
    continued up to the pattern count n, thus ends with the MISRs at the
    signatures of the plan's first n patterns: one :func:`signature_values`
    call from reset over them. TAP never reads ``dut_state``, which this run
    leaves alone.
    """

    def run(self):
        self.control.test_enable = True
        self.control.phase = "running"
        n = self._pattern_count
        start = self.control.pattern_counter
        if start < n:
            plan = self.plan._replace(pattern_count=n, golden=None)
            (golden,) = signature_values(self.netlist, plan,
                                         plan_stimulus(self.netlist, plan),
                                         (None,))
            self.misrs = {m.block: compactor.MisrState(m.polynomial, value)
                          for m, value in zip(self.plan.misrs, golden)}
            poly = self.alfsr.polynomial
            register = self.alfsr.register
            for _ in range(n - start):
                register = tpg.lfsr_next(poly, register)
            self.alfsr = tpg.AlfsrState(poly, register)
            self.control.pattern_counter = n
        self.control.test_enable = False
        self.control.phase = "done"


def selftest_results(netlist, plan, faults, kernel):
    """One :class:`BistResult` per entry of ``faults`` (None: fault-free),
    each what ``run_selftest(netlist, plan, injected=f)`` returns.

    Pass/fail is judged against the plan's stored golden signatures, or the
    fault-free ones when none are stored. The signatures come from
    :func:`signature_values` on ``kernel``, which must be compiled over the
    plan's stream (:func:`plan_stimulus`).
    """
    n = plan.pattern_count
    reference, *values = signature_values(netlist, plan, kernel,
                                          (None, *faults))
    if plan.golden is not None:
        reference = tuple(s.value for s in plan.golden)
    return [BistResult(tuple(compactor.Signature(m.block, m.polynomial, v, n)
                             for m, v in zip(plan.misrs, sig)),
                       tuple(v == r for v, r in zip(sig, reference)), n)
            for sig in values]


def misr_detection_rate(netlist, plan, universe):
    """Compaction loss: put every pre-MISR-detected fault through the
    signature path and list the ones the MISRs alias away. A transition
    fault has no stuck value, so the signature path refuses it."""
    if plan.golden is None:
        raise PlanError("plan has no golden signatures")
    stimulus = plan_stimulus(netlist, plan)
    report = faultsim.parallel_fault_sim(netlist, universe, stimulus)
    detected = report.detected_faults()
    if not detected:
        raise SimulationError("empty fault universe" if not universe.faults
                              else "no detected faults to compact")
    results = selftest_results(netlist, plan, detected, stimulus)
    aliased = tuple(f for f, r in zip(detected, results) if r.all_pass)
    rate = (len(detected) - len(aliased)) / len(detected)
    return rate, aliased
