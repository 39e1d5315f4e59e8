import random

import pytest

from corebist import compactor, tpg
from corebist.errors import PlanError, SimulationError

import oracle


def _poly(text):
    return tpg.Polynomial.parse(text)


# -- fold ------------------------------------------------------------------------

def test_fold_identity_when_widths_equal():
    c = compactor.XorCascade(4, 4)
    assert compactor.fold(c, (1, 0, 1, 1)) == (1, 0, 1, 1)


def test_fold_8_to_4_xors_aligned_halves():
    c = compactor.XorCascade(8, 4)
    # word 1111_0000 MSB-left: bits 7..4 = 1, bits 3..0 = 0
    word = (0, 0, 0, 0, 1, 1, 1, 1)
    assert compactor.fold(c, word) == (1, 1, 1, 1)


def test_fold_55_to_16_parity_classes():
    c = compactor.XorCascade(55, 16)
    rng = random.Random(55)
    for _ in range(20):
        word = tuple(rng.randint(0, 1) for _ in range(55))
        folded = compactor.fold(c, word)
        for j in range(16):
            parity = 0
            for i in range(55):
                if i % 16 == j:
                    parity ^= word[i]
            assert folded[j] == parity


def test_fold_width_mismatch():
    with pytest.raises(SimulationError, match="width"):
        compactor.fold(compactor.XorCascade(8, 4), (1, 0, 1))


def test_fold_is_linear():
    c = compactor.XorCascade(10, 4)
    rng = random.Random(1)
    for _ in range(50):
        a = tuple(rng.randint(0, 1) for _ in range(10))
        b = tuple(rng.randint(0, 1) for _ in range(10))
        ab = tuple(x ^ y for x, y in zip(a, b))
        fa, fb, fab = (compactor.fold(c, w) for w in (a, b, ab))
        assert fab == tuple(x ^ y for x, y in zip(fa, fb))


# -- MISR ----------------------------------------------------------------------

def test_absorb_into_zero_state_is_word():
    m = compactor.MisrState(_poly("x^4+x+1"))
    nxt = compactor.misr_absorb(m, (1, 0, 1, 0))
    assert nxt.bits == (1, 0, 1, 0)


def test_zero_stream_keeps_zero_signature():
    m = compactor.MisrState(_poly("x^8+x^4+x^3+x^2+1"))
    for _ in range(100):
        m = compactor.misr_absorb(m, (0,) * 8)
    assert m.register == 0


def test_absorb_matches_stepwise_oracle():
    poly = _poly("x^4+x+1")
    words = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)]
    # the words 1000, 0100, 0010 written MSB-left
    m = compactor.MisrState(poly)
    for w in words:
        m = compactor.misr_absorb(m, w)
    expected = oracle.misr_stepwise(sorted(poly.taps), 4,
                                    [list(w) for w in words])
    assert list(m.bits) == expected


def test_absorb_width_mismatch():
    m = compactor.MisrState(_poly("x^4+x+1"))
    with pytest.raises(SimulationError):
        compactor.misr_absorb(m, (1, 0))


def test_misr_with_zero_words_steps_autonomously():
    poly = _poly("x^8+x^4+x^3+x^2+1")
    m = compactor.MisrState(poly, 0x3C)
    a = tpg.AlfsrState(poly, 0x3C)
    for _ in range(50):
        m = compactor.misr_absorb(m, (0,) * 8)
        a = tpg.alfsr_step(a)
        assert m.register == a.register


def test_signature_linearity():
    poly = _poly("x^8+x^4+x^3+x^2+1")
    rng = random.Random(9)
    for _ in range(30):
        sa = [rng.randrange(256) for _ in range(10)]
        sb = [rng.randrange(256) for _ in range(10)]
        sab = [a ^ b for a, b in zip(sa, sb)]
        siga = compactor.signature_of_stream(poly, sa)
        sigb = compactor.signature_of_stream(poly, sb)
        assert compactor.signature_of_stream(poly, sab) == siga ^ sigb


def test_plane_signatures_match_word_stream():
    # the closed form equals the word-by-word MISR on seeded random
    # polynomials of degree 2-24, around the degree and the 64-cycle
    # boundary, for one word and at the case study's 4096 cycles
    rng = random.Random(12)
    for degree in range(2, 25):
        taps = {degree} | {t for t in range(1, degree) if rng.random() < 0.3}
        poly = tpg.Polynomial(degree, frozenset(taps))
        for n in (1, 2, degree - 1, degree, degree + 1, 63, 64, 65, 4096):
            planes = [rng.getrandbits(n) for _ in range(degree)]
            words = [sum(((p >> t) & 1) << j for j, p in enumerate(planes))
                     for t in range(n)]
            expected = compactor.signature_of_stream(poly, words)
            assert compactor.signature_of_planes(poly, planes, n) == expected, \
                (str(poly), n)
    # bits above the stream's n cycles are not part of it
    poly = _poly("x^5+x^2+1")
    assert compactor.signature_of_planes(poly, [0b1101] * 5, 3) == \
        compactor.signature_of_planes(poly, [0b101] * 5, 3)
    assert compactor.signature_of_planes(poly, [0] * 5, 0) == 0


def test_image_rows_of_single_word_errors():
    # an error in word t alone yields A^(n-1-t) applied to the error word
    poly = _poly("x^4+x+1")
    n = 6
    for t in range(n):
        for j in range(4):
            planes = [(1 << t) if k == j else 0 for k in range(4)]
            reg = 1 << j
            for _ in range(n - 1 - t):
                reg = tpg.lfsr_next(poly, reg)
            assert compactor.signature_of_planes(poly, planes, n) == reg


def test_replay_determinism():
    poly = _poly("x^16+x^12+x^3+x+1")
    rng = random.Random(2)
    words = [rng.randrange(1 << 16) for _ in range(200)]
    assert compactor.signature_of_stream(poly, words) == \
        compactor.signature_of_stream(poly, words)


# -- output selector --------------------------------------------------------------

def _sigs(n):
    poly = _poly("x^16+x^12+x^3+x+1")
    names = ["BIT_NODE", "CHECK_NODE", "CONTROL_UNIT"]
    return [compactor.Signature(names[i], poly, i + 1, 16) for i in range(n)]


def test_select_first_is_bit_node():
    sigs = _sigs(3)
    assert compactor.select_output(sigs, 0).block == "BIT_NODE"


def test_select_out_of_range():
    with pytest.raises(PlanError):
        compactor.select_output(_sigs(3), 3)


def test_select_single_signature():
    sigs = _sigs(1)
    assert compactor.select_output(sigs, 0) is sigs[0]


# -- aliasing ----------------------------------------------------------------------

def test_single_word_error_never_aliases_exhaustive():
    # linear compactor: one nonzero word cannot cancel; exhaustive for k <= 8
    for k in (2, 4, 8):
        poly = _poly(tpg.DEFAULT_POLYNOMIALS[k])
        for pos in range(4):
            for err in range(1, 1 << k):
                words = [0] * 4
                words[pos] = err
                assert compactor.signature_of_stream(poly, words) != 0


def test_k2_exhaustive_two_word_streams_match_enumeration():
    poly = _poly("x^2+x+1")
    # oracle: enumerate all two-word error streams with list arithmetic
    alias_oracle = 0
    for e0 in range(4):
        for e1 in range(4):
            if e0 == e1 == 0:
                continue
            w0 = [e0 & 1, (e0 >> 1) & 1]
            w1 = [e1 & 1, (e1 >> 1) & 1]
            if oracle.misr_stepwise(sorted(poly.taps), 2, [w0, w1]) == [0, 0]:
                alias_oracle += 1
    alias_lib = sum(
        1 for e0 in range(4) for e1 in range(4)
        if (e0, e1) != (0, 0)
        and compactor.signature_of_stream(poly, [e0, e1]) == 0)
    assert alias_lib == alias_oracle
    assert alias_oracle == 3   # one nonzero partner per nonzero leading word


def test_aliasing_rate_k8_monte_carlo():
    rate = compactor.aliasing_estimate(8, 100_000, rng=random.Random(123))
    expected = 2 ** -8
    assert 0.75 * expected <= rate <= 1.25 * expected


def test_aliasing_needs_enough_trials():
    with pytest.raises(SimulationError):
        compactor.aliasing_estimate(8, 100)
