"""The BIST engine: plan configuration, control unit, golden signatures,
and full self-test sessions.

Per-cycle timing, used identically by golden and faulty runs: the pattern for
cycle c is assembled from the current ALFSR register, the DUT settles, each
block's output word is folded and absorbed by its MISR in that same cycle,
then the ALFSR steps. Flops (if any) clock at the end of the cycle.

Two paths produce signatures. :class:`BistSession` (with
:func:`compute_golden` and :func:`run_selftest`) steps that cycle loop one
scalar evaluation at a time; it is the oracle, it serves sequential cores
and TAP replay, and it never touches a fault-sim kernel. For a
combinational core, :class:`SignatureEngine` simulates the plan's whole
pattern stream once in a :class:`faultsim.FaultKernel` and, since the
compactor is linear over GF(2), gets each faulty signature as the
fault-free one XOR the signature of the folded error planes.
:func:`selftest_results` picks the path and is what the reports use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from . import circuit as circuit_mod
from . import compactor, faultsim, tpg
from .errors import PlanError, SimulationError

PLAN_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MisrAssignment:
    block: str
    polynomial: tpg.Polynomial
    cascade: compactor.XorCascade


@dataclass(frozen=True)
class BistPlan:
    """Full engine configuration, serializable to JSON."""

    alfsr_poly: tpg.Polynomial
    alfsr_seed: int
    bindings: tuple            # PortBinding per block, selector order
    misrs: tuple               # MisrAssignment per block, same order
    counter_width: int = 12
    pattern_count: int = 4096
    golden: tuple = None       # Signature list once computed

    def __post_init__(self):
        if not 1 <= self.pattern_count <= (1 << self.counter_width):
            raise PlanError(f"pattern_count {self.pattern_count} outside "
                            f"1..2^{self.counter_width}")
        blocks = [b.block for b in self.bindings]
        if len(set(blocks)) != len(blocks):
            raise PlanError("a block is bound more than once")
        if [m.block for m in self.misrs] != blocks:
            raise PlanError("MISR assignment order must match binding order")
        if len(self.misrs) > 4:
            raise PlanError("output selector is a 2-bit code (at most 4 MISRs)")
        if self.alfsr_seed == 0:
            raise PlanError("all-zero ALFSR seed")

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
        if d.get("schema_version") != PLAN_SCHEMA_VERSION:
            raise PlanError(f"unsupported plan schema {d.get('schema_version')!r}")
        poly = tpg.Polynomial.parse(d["alfsr"]["poly"])
        seed_val = int(d["alfsr"]["seed"], 0)
        bindings = []
        for e in d["bindings"]:
            cg = None
            cg_bits = tuple(e.get("cg_bits", ()))
            if "cg" in e:
                c = e["cg"]
                cg = tpg.ConstraintProgram(
                    c["port_width"],
                    tuple((int(v, 2), h) for v, h in c["schedule"]),
                    c.get("cyclic", True))
            bindings.append(tpg.PortBinding(
                e["block"], e["width"],
                {int(k): v for k, v in e["alfsr_slice"].items()},
                cg, cg_bits))
        misrs = []
        for e in d["misrs"]:
            misrs.append(MisrAssignment(
                e["block"], tpg.Polynomial.parse(e["poly"]),
                compactor.XorCascade(e["cascade"]["in"], e["cascade"]["out"])))
        golden = None
        if "golden" in d:
            by_block = {m.block: m for m in misrs}
            golden = tuple(
                compactor.Signature(g["block"], by_block[g["block"]].polynomial,
                                    int(g["value"], 0), g["pattern_count"])
                for g in d["golden"])
        return cls(poly, seed_val, tuple(bindings), tuple(misrs),
                   d.get("counter_width", 12), d.get("pattern_count", 4096),
                   golden)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())


@dataclass
class ControlUnitState:
    pattern_counter: int = 0
    test_enable: bool = False
    output_select: int = 0
    phase: str = "idle"   # idle -> loading -> running -> done


@dataclass(frozen=True)
class BistResult:
    signatures: tuple
    passed: tuple          # per-block bool, or None when no golden available
    patterns_applied: int

    @property
    def all_pass(self):
        if self.passed is None:
            raise PlanError("pass/fail requested without golden signatures")
        return all(self.passed)


def _check_plan(netlist, plan):
    blocks = {b.name: b for b in netlist.blocks}
    for binding, misr in zip(plan.bindings, plan.misrs):
        blk = blocks.get(binding.block)
        if blk is None:
            raise PlanError(f"plan binds unknown block {binding.block!r}")
        if binding.width != len(blk.input_port):
            raise PlanError(f"binding width {binding.width} != block "
                            f"{binding.block!r} port width {len(blk.input_port)}")
        if misr.cascade.in_width != len(blk.output_port):
            raise PlanError(f"cascade input width mismatch for {binding.block!r}")
        if misr.cascade.out_width != misr.polynomial.degree:
            raise PlanError(f"cascade/MISR width mismatch for {binding.block!r}")
    bound_inputs = set()
    for binding in plan.bindings:
        bound_inputs.update(blocks[binding.block].input_port)
    for n in netlist.primary_inputs:
        if n not in bound_inputs:
            raise PlanError(f"primary input {n!r} driven by no binding")


class BistSession:
    """One self-test execution context: control unit + generators + MISRs."""

    def __init__(self, netlist, plan):
        _check_plan(netlist, plan)
        self.netlist = netlist
        self.plan = plan
        self.blocks = {b.name: b for b in netlist.blocks}
        self.control = ControlUnitState()
        self._pattern_count = plan.pattern_count
        self.reset()

    def reset(self):
        """Core reset: ALFSR to seed, MISRs to zero, counter cleared."""
        self.alfsr = tpg.seed_int(self.plan.alfsr_poly, self.plan.alfsr_seed)
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
        """Full primary-input assignment for this cycle from all bindings."""
        assignment = {}
        for binding in self.plan.bindings:
            word = tpg.assemble_pattern(binding, self.alfsr, cycle)
            port = self.blocks[binding.block].input_port
            for net, bit in zip(port, word):
                assignment[net] = bit
        return assignment

    def step(self, inject=None):
        """One test cycle: apply pattern, settle, fold and absorb, advance."""
        cycle = self.control.pattern_counter
        inputs = self.assemble_inputs(cycle)
        seen = circuit_mod.pre_edge_q(self.netlist, self.dut_state, inject)
        nxt = circuit_mod.evaluate(self.netlist, self.dut_state, inputs,
                                   fault=inject)
        for binding, misr in zip(self.plan.bindings, self.plan.misrs):
            port = self.blocks[binding.block].output_port
            word = tuple(seen[n] if n in seen else nxt[n] for n in port)
            folded = compactor.fold(misr.cascade, word)
            self.misrs[misr.block] = compactor.misr_absorb(
                self.misrs[misr.block], folded)
        self.dut_state = nxt
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
        self.alfsr = tpg.seed_int(self.plan.alfsr_poly, self.plan.alfsr_seed)
        patterns = []
        order = self.netlist.primary_inputs
        for cycle in range(self._pattern_count):
            a = self.assemble_inputs(cycle)
            patterns.append(tuple(a[n] for n in order))
            self.alfsr = tpg.alfsr_step(self.alfsr)
        self.alfsr = saved
        return patterns


def plan_patterns(netlist, plan, count=None):
    """Primary-input pattern list the plan would apply."""
    session = BistSession(netlist, plan)
    if count is not None:
        session.set_count(count)
    return session.pattern_stream()


def compute_golden(netlist, plan):
    """Fault-free run; returns the plan with golden signatures stored."""
    session = BistSession(netlist, plan)
    session.run()
    return replace(plan, golden=session.signatures())


def run_selftest(netlist, plan, injected=None, require_golden=True):
    """Execute the full self-test; optional stuck-at injection for
    MISR-level detection studies."""
    if require_golden and plan.golden is None:
        raise PlanError("plan has no golden signatures (run compute_golden)")
    session = BistSession(netlist, plan)
    session.run(inject=injected)
    sigs = session.signatures()
    passed = None
    if plan.golden is not None:
        ref = {s.block: s.value for s in plan.golden}
        passed = tuple(s.value == ref[s.block] for s in sigs)
    return BistResult(sigs, passed, session.control.pattern_counter)


class SignatureEngine:
    """Self-test signatures of a combinational netlist from one
    :class:`faultsim.FaultKernel` over the plan's pattern stream.

    Each MISR's cascade folds its block's output-port planes (port bit i
    into word bit i mod out) and one register pass over the folded planes
    gives the fault-free signature. Under a stuck-at fault only the nets in
    the fault's cone change; their error planes (faulty ^ fault-free) fold
    the same way, and by linearity the faulty signature is the fault-free
    one XOR :func:`compactor.signature_image` of the folded error planes.
    """

    def __init__(self, netlist, plan, patterns=None):
        _check_plan(netlist, plan)
        if netlist.flops:
            raise SimulationError("the signature engine needs a combinational "
                                  "netlist; sequential cores run BistSession")
        if patterns is None:
            patterns = plan_patterns(netlist, plan)
        if len(patterns) != plan.pattern_count:
            raise SimulationError(f"{len(patterns)} patterns for a plan of "
                                  f"{plan.pattern_count}")
        self.plan = plan
        self.kernel = kernel = faultsim.FaultKernel(netlist, patterns)
        self._rows = {}          # polynomial -> compactor.image_rows
        blocks = {b.name: b for b in netlist.blocks}
        # net index -> (MISR position, folded word bit) of every port bit it feeds
        self._taps = {}
        for k, (binding, misr) in enumerate(zip(plan.bindings, plan.misrs)):
            out = misr.cascade.out_width
            for i, net in enumerate(blocks[binding.block].output_port):
                self._taps.setdefault(kernel.index[net], []).append((k, i % out))
        good = kernel.good
        self.golden = tuple(
            compactor.signature_of_planes(m.polynomial, words, plan.pattern_count)
            for m, words in zip(plan.misrs,
                                self._fold({i: good[i] for i in self._taps})))

    def _fold(self, planes):
        """Folded word planes per MISR from ``{net index: plane}``."""
        words = [[0] * m.cascade.out_width for m in self.plan.misrs]
        for net, plane in planes.items():
            for k, j in self._taps[net]:
                words[k][j] ^= plane
        return words

    def signatures(self, fault=None):
        """Signature values, one per MISR in plan order, under ``fault``."""
        if fault is None:
            return self.golden
        good = self.kernel.good
        errors = self._fold({net: plane ^ good[net] for net, plane
                             in self.kernel.faulty(fault).items()
                             if net in self._taps})
        return tuple(g ^ self._image(m.polynomial, words) if any(words) else g
                     for g, m, words in zip(self.golden, self.plan.misrs, errors))

    def _image(self, poly, words):
        """Signature of an error stream; the row masks of ``poly`` are built
        on the first non-zero stream and kept."""
        n = self.plan.pattern_count
        rows = self._rows.get(poly)
        if rows is None:
            rows = self._rows[poly] = compactor.image_rows(poly, n)
        return compactor.signature_image(rows, words, n)


def selftest_results(netlist, plan, faults, patterns=None):
    """One :class:`BistResult` per entry of ``faults`` (None: fault-free),
    each what ``run_selftest(netlist, plan, injected=f)`` returns.

    Pass/fail is judged against the plan's stored golden signatures, or the
    fault-free ones when none are stored. Combinational netlists go through
    :class:`SignatureEngine` (``patterns``, if given, must be the plan's
    stream); sequential ones replay :class:`BistSession` per fault.
    """
    n = plan.pattern_count
    if netlist.flops:
        if plan.golden is None:
            plan = compute_golden(netlist, plan)
        values = [tuple(s.value for s in run_selftest(netlist, plan,
                                                      injected=f).signatures)
                  for f in faults]
        reference = tuple(s.value for s in plan.golden)
    else:
        engine = SignatureEngine(netlist, plan, patterns)
        values = [engine.signatures(f) for f in faults]
        reference = engine.golden if plan.golden is None else \
            tuple(s.value for s in plan.golden)
    return [BistResult(tuple(compactor.Signature(m.block, m.polynomial, v, n)
                             for m, v in zip(plan.misrs, sig)),
                       tuple(v == r for v, r in zip(sig, reference)), n)
            for sig in values]


def misr_detection_rate(netlist, plan, universe, workers=1):
    """Compaction loss: put every pre-MISR-detected fault through the
    signature path and list the ones the MISRs alias away."""
    if plan.golden is None:
        raise PlanError("plan has no golden signatures")
    patterns = plan_patterns(netlist, plan)
    report = faultsim.parallel_fault_sim(netlist, universe, patterns,
                                         workers=workers)
    detected = report.detected_faults()
    if not detected:
        raise SimulationError("empty fault universe" if not universe.faults
                              else "no detected faults to compact")
    results = selftest_results(netlist, plan, detected, patterns)
    aliased = tuple(f for f, r in zip(detected, results) if r.all_pass)
    rate = (len(detected) - len(aliased)) / len(detected)
    return rate, aliased
