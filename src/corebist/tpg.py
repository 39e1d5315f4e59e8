"""Pseudo-random pattern generation: ALFSR, constraint generators, port bindings.

The ALFSR uses the Fibonacci (external-XOR) configuration: the feedback bit is
the XOR of the stages selected by the characteristic polynomial's exponents,
shifted into stage degree-1 while every other stage moves down one position.
Register bit 0 is the LSB of the emitted pattern word.
"""

from __future__ import annotations

import re
from functools import cached_property

from .errors import PlanError, SimulationError
from .records import record


# primitive polynomials used as engine defaults, verified by the period
# property tests (orbit length 2^n - 1)
DEFAULT_POLYNOMIALS = {
    2: "x^2+x+1",
    4: "x^4+x+1",
    8: "x^8+x^4+x^3+x^2+1",
    16: "x^16+x^12+x^3+x+1",
    20: "x^20+x^3+1",
}


class Polynomial(record("Polynomial", "degree taps")):
    """Characteristic polynomial over GF(2); constant term implicit.

    ``taps`` holds the exponents of every non-constant term, the degree
    included. Canonical text form: ``x^20+x^3+1``. Unlike the other
    records it keeps an instance ``__dict__``, where :attr:`tap_mask` is
    cached.
    """

    def __new__(cls, degree, taps):
        if not 2 <= degree <= 64:
            raise PlanError(f"polynomial degree {degree} outside 2..64")
        if not taps:
            raise PlanError("empty tap set")
        if degree not in taps:
            raise PlanError("tap set must include the degree term")
        for t in taps:
            if not 0 < t <= degree:
                raise PlanError(f"tap {t} out of range for degree {degree}")
        return super().__new__(cls, degree, taps)

    @classmethod
    def parse(cls, text):
        terms = [t.strip() for t in text.replace(" ", "").split("+") if t.strip()]
        taps = set()
        has_one = False
        for t in terms:
            if t == "1":
                has_one = True
            elif t == "x":
                taps.add(1)
            else:
                m = re.fullmatch(r"x\^(\d+)", t)
                if not m:
                    raise PlanError(f"bad polynomial term {t!r} in {text!r}")
                taps.add(int(m.group(1)))
        if not has_one:
            raise PlanError(f"polynomial {text!r} missing constant term")
        if not taps:
            raise PlanError(f"polynomial {text!r} has no x terms")
        return cls(max(taps), frozenset(taps))

    def __str__(self):
        parts = []
        for t in sorted(self.taps, reverse=True):
            parts.append("x" if t == 1 else f"x^{t}")
        parts.append("1")
        return "+".join(parts)

    @cached_property
    def tap_mask(self):
        """Register bits the feedback XORs (bit t-1 for tap t), computed on
        first use and kept; not a field, so equality, hashing and the
        pickled tuple stay ``degree`` and ``taps``."""
        return sum(1 << (t - 1) for t in self.taps)


def lfsr_next(poly, register):
    """One Fibonacci shift of an integer register under ``poly``."""
    fb = (register & poly.tap_mask).bit_count() & 1
    return ((register << 1) | fb) & ((1 << poly.degree) - 1)


class AlfsrState(record("AlfsrState", "polynomial register")):
    """Autonomous LFSR state; the all-zero register is rejected at seed time."""

    __slots__ = ()

    @property
    def bits(self):
        return tuple((self.register >> i) & 1 for i in range(self.polynomial.degree))

    def bit(self, i):
        return (self.register >> i) & 1


def seed(polynomial, seed_bits):
    """Build a validated ALFSR state from LSB-first seed bits."""
    seed_bits = tuple(seed_bits)
    if len(seed_bits) != polynomial.degree:
        raise PlanError(f"seed length {len(seed_bits)} != degree {polynomial.degree}")
    reg = 0
    for i, b in enumerate(seed_bits):
        reg |= (b & 1) << i
    if reg == 0:
        raise PlanError("all-zero ALFSR seed (fixed point of the feedback)")
    return AlfsrState(polynomial, reg)


def seed_int(polynomial, value):
    return seed(polynomial, tuple((value >> i) & 1 for i in range(polynomial.degree)))


def alfsr_step(state):
    """Advance one clock: shift with external-XOR feedback."""
    return AlfsrState(state.polynomial, lfsr_next(state.polynomial, state.register))


def alfsr_period(state):
    """Orbit length of ``state`` under repeated stepping (exhaustive, at most
    2^degree steps)."""
    poly = state.polynomial
    mask = poly.tap_mask
    regmask = (1 << poly.degree) - 1
    start = state.register
    r = start
    for n in range(1, (1 << poly.degree) + 1):
        fb = (r & mask).bit_count() & 1
        r = ((r << 1) | fb) & regmask
        if r == start:
            return n
    raise SimulationError("orbit longer than 2^degree")


class ConstraintProgram(record("ConstraintProgram", "port_width schedule cyclic")):
    """Declarative constraint-generator schedule.

    ``schedule`` is a tuple of (value, hold) pairs; ``value`` is an int of
    ``port_width`` bits held for ``hold`` cycles. Cyclic programs wrap;
    non-cyclic ones hold the last value forever.
    """

    __slots__ = ()

    def __new__(cls, port_width, schedule, cyclic=True):
        if port_width < 1:
            raise PlanError("constraint port width must be >= 1")
        if not schedule:
            raise PlanError("constraint schedule is empty")
        for value, hold in schedule:
            if hold < 1:
                raise PlanError("hold count must be >= 1")
            if value >> port_width:
                raise PlanError(f"value {value:#x} exceeds port width {port_width}")
        return super().__new__(cls, port_width, schedule, cyclic)

    @property
    def total_cycles(self):
        return sum(h for _, h in self.schedule)


def cg_step(program, cycle):
    """Constraint value driven at ``cycle`` (int, ``port_width`` bits)."""
    if cycle < 0:
        raise SimulationError("cycle must be >= 0")
    total = program.total_cycles
    if program.cyclic:
        cycle %= total
    elif cycle >= total:
        return program.schedule[-1][0]
    for value, hold in program.schedule:
        if cycle < hold:
            return value
        cycle -= hold


class PortBinding(record("PortBinding", "block width alfsr_slice cg cg_bits")):
    """How one block's input port is driven (the a-d wiring situations).

    ``alfsr_slice`` maps block input bit -> ALFSR bit index (None: a new
    empty dict); bits listed in ``cg_bits`` (LSB-first order) are driven by
    the constraint program ``cg`` instead and must not appear in the slice.
    Replication (several input bits reading the same ALFSR bit) is allowed.
    """

    __slots__ = ()

    def __new__(cls, block, width, alfsr_slice=None, cg=None, cg_bits=()):
        if alfsr_slice is None:
            alfsr_slice = {}
        cg_set = set(cg_bits)
        if len(cg_set) != len(cg_bits):
            raise PlanError(f"duplicate CG bit in binding for {block!r}")
        if cg_set and cg is None:
            raise PlanError(f"CG bits given without a program for {block!r}")
        if cg is not None and len(cg_bits) != cg.port_width:
            raise PlanError(f"CG port width mismatch for {block!r}")
        if cg_set & set(alfsr_slice):
            raise PlanError(f"bit driven by both CG and ALFSR in {block!r}")
        # count the bits instead of building range(width): a plan file can
        # give any width, and the message names only the first few bits
        covered = cg_set | set(alfsr_slice)
        extra = sorted(b for b in covered if not 0 <= b < width)
        missing = max(0, width - (len(covered) - len(extra)))
        if missing or extra:
            absent = [b for b in range(min(width, len(covered) + _SHOWN))
                      if b not in covered]
            raise PlanError(f"binding for {block!r} must drive every input bit "
                            f"exactly once (missing {_first(absent, missing)}, "
                            f"extra {_first(extra, len(extra))})")
        return super().__new__(cls, block, width, alfsr_slice, cg, cg_bits)


_SHOWN = 8   # bits a binding error lists before it only counts them


def _first(bits, count):
    """``count`` bits named by the first few of ``bits``."""
    shown = ", ".join(map(str, bits[:_SHOWN]))
    if count > _SHOWN:
        shown += f", ... ({count} bits)"
    return f"[{shown}]"


def modular_binding(block_name, width, degree, cg=None, cg_bits=()):
    """Default binding: CG bits as given, the rest replicated modulo degree.

    Covers all four wiring situations: with no CG and width == degree this is
    the identity slice; width > degree replicates.
    """
    cg_set = set(cg_bits)
    remaining = [i for i in range(width) if i not in cg_set]
    alfsr_slice = {bit: j % degree for j, bit in enumerate(remaining)}
    return PortBinding(block_name, width, alfsr_slice, cg, tuple(cg_bits))


def assemble_pattern(binding, alfsr, cycle):
    """Block input word for this cycle (LSB-first bit tuple); the plan
    check keeps every ALFSR source below the register's degree."""
    out = [0] * binding.width
    for bit, src in binding.alfsr_slice.items():
        out[bit] = alfsr.bit(src)
    if binding.cg is not None:
        value = cg_step(binding.cg, cycle)
        for j, bit in enumerate(binding.cg_bits):
            out[bit] = (value >> j) & 1
    return tuple(out)
