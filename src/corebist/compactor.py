"""Response compaction: XOR-cascade width folding, MISRs, signatures.

The MISR is the same Fibonacci LFSR as the pattern generator with the
incoming word XORed into the register after the shift:

    next = shift(state) XOR word

so an all-zero register absorbing an all-zero stream stays zero, and the
whole compactor is linear over GF(2).

The shift is :func:`tpg.lfsr_next`, the one copy of the Fibonacci step.
Signatures can be computed three ways. :func:`misr_absorb` steps the
register one word at a time; the scalar self-test session in
:mod:`corebist.bist`, the oracle, does this for every cycle.
:func:`signature_of_stream` does the same over integer words; it judges
each trial of :func:`aliasing_estimate`. ``bist.signature_values`` knows
the whole response up front as bit planes (one integer per folded output
bit, bit t = cycle t), on a combinational and a sequential core alike, and
:func:`signature_of_planes` reduces them in closed form over GF(2), with a
few shift-XORs per tap instead of one register step per word, and is
held to :func:`signature_of_stream`. Being linear, the closed form also
gives a faulty signature as the fault-free one XOR the signature of the
error planes, which the fault-sim kernel folds into the MISR's word bits
first (Bardell, McAnney & Savir, 1987).
"""

from __future__ import annotations

import random

from .errors import PlanError, SimulationError
from .records import record
from .tpg import DEFAULT_POLYNOMIALS, Polynomial, lfsr_next


class XorCascade(record("XorCascade", "in_width out_width")):
    """Width folder: output bit j collects input bits i with i mod out == j."""

    __slots__ = ()

    def __new__(cls, in_width, out_width):
        if out_width > in_width:
            raise PlanError("cascade cannot widen a word")
        if out_width < 1:
            raise PlanError("cascade output width must be >= 1")
        return super().__new__(cls, in_width, out_width)


def fold(cascade, word):
    """Fold an ``in_width`` bit word (LSB-first tuple) down to ``out_width``."""
    word = tuple(word)
    if len(word) != cascade.in_width:
        raise SimulationError(f"fold width mismatch: got {len(word)}, "
                              f"expected {cascade.in_width}")
    out = [0] * cascade.out_width
    for i, b in enumerate(word):
        out[i % cascade.out_width] ^= b & 1
    return tuple(out)


class MisrState(record("MisrState", "polynomial register", defaults=(0,))):
    """Multiple-input signature register; all-zero is a legal state."""

    __slots__ = ()


def misr_absorb(state, word):
    """Absorb one parallel word (LSB-first bit tuple of the MISR width)."""
    word = tuple(word)
    k = state.polynomial.degree
    if len(word) != k:
        raise SimulationError(f"MISR word width {len(word)} != degree {k}")
    w = 0
    for i, b in enumerate(word):
        w |= (b & 1) << i
    return MisrState(state.polynomial, lfsr_next(state.polynomial, state.register) ^ w)


class Signature(record("Signature", "block polynomial value pattern_count")):
    """Final compacted response of one block."""

    __slots__ = ()

    def hex(self):
        return f"{self.value:0{(self.polynomial.degree + 3) // 4}x}"


def signature_of_stream(poly, words):
    """Signature of a word stream (ints) absorbed from the all-zero
    register one word at a time: the reference of
    :func:`signature_of_planes`, and the signature of an error stream in
    :func:`aliasing_estimate`."""
    register = 0
    for w in words:
        register = lfsr_next(poly, register) ^ w
    return register


def signature_of_planes(poly, planes, n):
    """Signature of the ``n``-word stream whose word t has bit j = bit t of
    ``planes[j]``, absorbed from the all-zero register, in closed form.

    Write a plane as a polynomial over GF(2), bit t the coefficient of x^t,
    so ``W_j`` is word bit j's plane; let B be the plane of register stage 0
    after each absorb (bit t: after word t) and Q = sum of x^tau over the
    taps tau. Each absorb moves stage i-1 into stage i and XORs in word bit
    i, so stage i after word t holds B[t-i] XOR sum_{j=1..i} W_j[t-i+j]
    (terms before cycle 0 are 0). Stage 0 takes the feedback, the XOR of
    stages tau-1 over the taps, XOR W_0; substituting the line above::

        (1 + Q) * B = U  mod x^n,  U = W_0 + sum_tau sum_{j=1..tau-1} W_j * x^(tau-j)

    Over GF(2), squaring is additive, so Q^(2^m) = Q(x^(2^m)) and
    (1 + Q) * prod_{m<M} (1 + Q(x^(2^m))) = 1 + Q(x^(2^M)), which is 1 mod
    x^n once 2^M * min(tau) >= n. Hence B = U * prod_m (1 + Q(x^(2^m))) mod
    x^n: ceil(log2 n) rounds of one shift-XOR per tap. The signature is the
    register after word n-1, so its bit i is B[n-1-i] XOR sum_{j=1..i}
    W_j[n-1-i+j]: bit n+d-2-i of (B << (d-1)) XOR sum_{j>=1} W_j << (d-1-j),
    d the degree, read from the d-bit window at bit n-1 bit-reversed (the
    W_j terms with j > i fall above bit n-1 of W_j, which is 0). Both sums
    over j come from one prefix XOR, so the cost is O(d + |taps| log n)
    operations on n-bit integers instead of n register steps (Bardell,
    McAnney & Savir, *Built-In Test for VLSI*, 1987, on MISRs as polynomial
    division). :func:`signature_of_stream` is the word-by-word reference,
    which the tests hold this closed form to.
    """
    d = poly.degree
    if len(planes) != d:
        raise SimulationError(f"MISR word width {len(planes)} != degree {d}")
    if n < 1:
        return 0
    mask = (1 << n) - 1
    # prefix[k] = XOR over j = 1..k of W_j << (d - j)
    prefix = [0]
    for j in range(1, d):
        prefix.append(prefix[-1] ^ (planes[j] & mask) << (d - j))
    taps = sorted(poly.taps)
    u = planes[0]
    for tau in taps:
        u ^= prefix[tau - 1] >> (d - tau)
    b = u & mask
    step = 1                            # 2^m
    while taps[0] * step < n:
        acc = b
        for tau in taps:
            if tau * step >= n:
                break
            acc ^= b << (tau * step)
        b = acc & mask
        step <<= 1
    window = ((b << (d - 1)) ^ (prefix[-1] >> 1)) >> (n - 1) & ((1 << d) - 1)
    return int(format(window, f"0{d}b")[::-1], 2)


def aliasing_estimate(width, trials, rng=None):
    """Monte-Carlo aliasing rate of a ``width``-bit MISR over the default
    polynomial of that width.

    Each trial corrupts a stream of 4 words with uniform random error words
    (all-zero error streams are redrawn); by linearity the trial aliases iff
    the error stream's own signature (:func:`signature_of_stream`) is zero.
    Expected rate is about 2^-width.
    """
    if trials < 10_000:
        raise SimulationError("aliasing estimate needs >= 10^4 trials")
    rng = rng or random.Random(0)
    poly = Polynomial.parse(DEFAULT_POLYNOMIALS[width])
    top = 1 << width
    aliased = 0
    randrange = rng.randrange
    for _ in range(trials):
        while True:
            words = [randrange(top) for _ in range(4)]
            if any(words):
                break
        if signature_of_stream(poly, words) == 0:
            aliased += 1
    return aliased / trials
