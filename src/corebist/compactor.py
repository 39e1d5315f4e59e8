"""Response compaction: XOR-cascade width folding, MISRs, output selection.

The MISR is the same Fibonacci LFSR as the pattern generator with the
incoming word XORed into the register after the shift:

    next = shift(state) XOR word

so an all-zero register absorbing an all-zero stream stays zero, and the
whole compactor is linear over GF(2).

Signatures can be computed two ways. :func:`misr_absorb` steps the register
one word at a time; the scalar self-test session in :mod:`corebist.bist`
does this for every cycle, and it is the path for sequential cores and TAP
replay. For a combinational core the whole response is known up front as
bit planes (one integer per folded output bit, bit t = cycle t):
:func:`signature_of_planes` makes one register pass over those planes, and
:func:`signature_image` maps an error stream straight to its signature
difference through the row masks of :func:`image_rows` (a faulty signature
is the fault-free one XOR the signature of the error stream; Bardell,
McAnney & Savir, 1987).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PlanError, SimulationError
from .tpg import Polynomial, lfsr_next


@dataclass(frozen=True)
class XorCascade:
    """Width folder: output bit j collects input bits i with i mod out == j."""

    in_width: int
    out_width: int

    def __post_init__(self):
        if self.out_width > self.in_width:
            raise PlanError("cascade cannot widen a word")
        if self.out_width < 1:
            raise PlanError("cascade output width must be >= 1")


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


@dataclass(frozen=True)
class MisrState:
    """Multiple-input signature register; all-zero is a legal state."""

    polynomial: Polynomial
    register: int = 0

    @property
    def bits(self):
        return tuple((self.register >> i) & 1 for i in range(self.polynomial.degree))


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


@dataclass(frozen=True)
class Signature:
    """Final compacted response of one block."""

    block: str
    polynomial: Polynomial
    value: int
    pattern_count: int

    def hex(self):
        return f"{self.value:0{(self.polynomial.degree + 3) // 4}x}"


def select_output(signatures, sel):
    """Pick the MISR addressed by the 2-bit output selector."""
    if not 0 <= sel < len(signatures):
        raise PlanError(f"selector {sel} out of range (have {len(signatures)} signatures)")
    if sel > 3:
        raise PlanError("selector is a 2-bit code")
    return signatures[sel]


def signature_of_stream(poly, words, init=0):
    """Signature of a word stream (ints) from ``init``; linearity helper."""
    register = init
    for w in words:
        register = lfsr_next(poly, register) ^ w
    return register


def signature_of_planes(poly, planes, n):
    """Signature of the ``n``-word stream whose word t has bit j = bit t of
    ``planes[j]``, by one register pass from zero."""
    if len(planes) != poly.degree:
        raise SimulationError(f"MISR word width {len(planes)} != degree {poly.degree}")
    # column strings, word bit degree-1 first, so each zipped row reads as
    # one word in binary
    columns = [format(p, f"0{n}b")[::-1] for p in reversed(planes)]
    return signature_of_stream(poly, (int("".join(bits), 2)
                                      for bits in zip(*columns)))


def image_rows(poly, n):
    """Row masks of the linear map from an ``n``-word stream to its signature.

    The stream is given as ``degree`` planes concatenated (plane j at bit
    offset j * n, bit t of plane j = bit j of word t). Signature bit r is the
    parity of that concatenation AND ``rows[r]``: after n absorbs from zero
    the register is XOR over t of A^(n-1-t) word_t, with A one shift.
    """
    degree = poly.degree
    width = f"0{degree}b"
    rows = [0] * degree
    for j in range(degree):
        column = []        # A^k e_j for k = 0 .. n-1
        v = 1 << j
        for _ in range(n):
            column.append(format(v, width))
            v = lfsr_next(poly, v)
        # zip row c holds register bit degree-1-c of every A^k e_j, k
        # ascending, so as a binary number bit t = bit of A^(n-1-t) e_j
        for c, bits in enumerate(zip(*column)):
            rows[degree - 1 - c] |= int("".join(bits), 2) << (j * n)
    return tuple(rows)


def signature_image(rows, planes, n):
    """Signature of the ``n``-word stream given as ``planes`` (see
    :func:`signature_of_planes`), by linearity through ``rows`` from
    :func:`image_rows`."""
    stream = 0
    for j, p in enumerate(planes):
        stream |= p << (j * n)
    sig = 0
    for r, row in enumerate(rows):
        sig |= ((stream & row).bit_count() & 1) << r
    return sig


def aliasing_estimate(width, trials, stream_len=4, rng=None,
                      polynomial=None):
    """Monte-Carlo aliasing rate of a ``width``-bit MISR.

    Each trial corrupts a stream of ``stream_len`` words with uniform random
    error words (all-zero error streams are redrawn); by linearity the trial
    aliases iff the error stream's own signature is zero. Expected rate is
    about 2^-width.
    """
    if trials < 10_000:
        raise SimulationError("aliasing estimate needs >= 10^4 trials")
    rng = rng or random.Random(0)
    if polynomial is None:
        from .tpg import DEFAULT_POLYNOMIALS
        polynomial = Polynomial.parse(DEFAULT_POLYNOMIALS[width])
    mask = polynomial.tap_mask
    regmask = (1 << width) - 1
    top = 1 << width
    aliased = 0
    randrange = rng.randrange
    for _ in range(trials):
        while True:
            words = [randrange(top) for _ in range(stream_len)]
            if any(words):
                break
        s = 0
        for w in words:
            fb = (s & mask).bit_count() & 1
            s = (((s << 1) | fb) & regmask) ^ w
        if s == 0:
            aliased += 1
    return aliased / trials
