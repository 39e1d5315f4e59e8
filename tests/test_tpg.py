import pickle
import random

import pytest

from corebist import bist, tpg
from corebist.errors import PlanError

import oracle


def test_polynomial_parse_and_canonical_form():
    p = tpg.Polynomial.parse("x^20+x^3+1")
    assert p.degree == 20
    assert p.taps == frozenset({20, 3})
    assert str(p) == "x^20+x^3+1"
    assert tpg.Polynomial.parse(str(p)) == p


def test_polynomial_parse_x_term():
    p = tpg.Polynomial.parse("x^4+x+1")
    assert p.taps == frozenset({4, 1})


@pytest.mark.parametrize("bad", ["x^4+x", "x^70+1", "1", "x^4+y+1"])
def test_polynomial_rejects(bad):
    with pytest.raises(PlanError):
        tpg.Polynomial.parse(bad)


# the seed range is checked in one place, BistPlan, which a plan file and
# --seed both build

def _plan(poly, seed):
    return bist.BistPlan(poly, seed, (), ())


def test_seed_rejects_all_zero():
    poly = tpg.Polynomial.parse("x^4+x+1")
    with pytest.raises(PlanError, match="seed 0x0 outside 1..2"):
        _plan(poly, 0)


def test_seed_accepts_nonzero():
    poly = tpg.Polynomial.parse("x^4+x+1")
    assert _plan(poly, 0b1001).alfsr_seed == 0b1001


def test_seed_length_mismatch():
    # a seed wider than the register
    poly = tpg.Polynomial.parse("x^20+x^3+1")
    with pytest.raises(PlanError, match="outside 1..2\\^20-1"):
        _plan(poly, 1 << 20)
    assert _plan(poly, (1 << 20) - 1).alfsr_seed == 0xFFFFF


def test_primitive_degree4_period_15():
    poly = tpg.Polynomial.parse("x^4+x+1")
    st = tpg.AlfsrState(poly, 0b0001)
    assert tpg.alfsr_period(st) == 15
    # independent list-based oracle
    assert oracle.lfsr_orbit(sorted(poly.taps), 4, [1, 0, 0, 0]) == 15


def test_nonprimitive_degree4_short_period():
    poly = tpg.Polynomial.parse("x^4+x^2+1")
    st = tpg.AlfsrState(poly, 0b0001)
    period = tpg.alfsr_period(st)
    assert period < 15
    assert period == oracle.lfsr_orbit(sorted(poly.taps), 4, [1, 0, 0, 0])


def test_step_matches_oracle_sequence():
    poly = tpg.Polynomial.parse("x^8+x^4+x^3+x^2+1")
    st = tpg.AlfsrState(poly, 0xA5)
    reg = list(oracle.register_bits(st.register, 8))
    for _ in range(100):
        st = tpg.alfsr_step(st)
        fb = 0
        for t in poly.taps:
            fb ^= reg[t - 1]
        reg = [fb] + reg[:-1]
        assert list(oracle.register_bits(st.register, 8)) == reg


def test_step_is_bijection_on_nonzero_states():
    # inversion check on random samples: distinct states map to distinct
    # successors and zero is unreachable from nonzero states
    poly = tpg.Polynomial.parse("x^16+x^12+x^3+x+1")
    rng = random.Random(3)
    seen = {}
    for _ in range(10_000):
        r = rng.randrange(1, 1 << 16)
        nxt = tpg.lfsr_next(poly, r)
        assert nxt != 0
        if nxt in seen:
            assert seen[nxt] == r
        seen[nxt] = r


# -- constraint generators -----------------------------------------------------

def test_cg_single_entry_holds_forever():
    prog = tpg.ConstraintProgram(4, ((0b1010, 3),), cyclic=True)
    assert [tpg.cg_step(prog, c) for c in range(6)] == [0b1010] * 6


def test_cg_hold_semantics():
    prog = tpg.ConstraintProgram(2, ((0b00, 1), (0b11, 2)), cyclic=True)
    assert [tpg.cg_step(prog, c) for c in range(6)] == \
        [0b00, 0b11, 0b11, 0b00, 0b11, 0b11]


def test_cg_noncyclic_holds_last():
    prog = tpg.ConstraintProgram(2, ((0b01, 1), (0b10, 1)), cyclic=False)
    assert [tpg.cg_step(prog, c) for c in range(5)] == \
        [0b01, 0b10, 0b10, 0b10, 0b10]


def test_cg_value_must_fit_width():
    with pytest.raises(PlanError):
        tpg.ConstraintProgram(2, ((0b100, 1),))


def test_case_study_cg_port_width_is_4():
    from corebist import bist, fixture_path
    plan = bist.BistPlan.load(fixture_path("ldpc_like_core.plan.json"))
    cgs = [b.cg for b in plan.bindings if b.cg is not None]
    assert cgs and all(cg.port_width == 4 for cg in cgs)


# -- port bindings ---------------------------------------------------------------

def _alfsr4(value=0b1001):
    return tpg.AlfsrState(tpg.Polynomial.parse("x^4+x+1"), value)


def test_situation_a_identity_slice():
    binding = tpg.modular_binding("A", 4, 4)
    st = _alfsr4(0b1011)
    assert tpg.assemble_pattern(binding, st, 0) == \
        oracle.register_bits(st.register, 4)


def test_situation_b_full_replication():
    binding = tpg.modular_binding("B", 8, 4)
    st = _alfsr4(0b0110)
    assert tpg.assemble_pattern(binding, st, 0) == \
        oracle.register_bits(st.register, 4) * 2


def test_situation_d_cg_plus_replication():
    # 54-bit port: 4 CG bits + 50 replicated from a 20-bit register
    poly = tpg.Polynomial.parse("x^20+x^3+1")
    st = tpg.AlfsrState(poly, 0xBEEF1)
    cg = tpg.ConstraintProgram(4, ((0b1100, 2), (0b0011, 1)), cyclic=True)
    binding = tpg.modular_binding("D", 54, 20, cg, (0, 1, 2, 3))
    for cycle in (0, 1, 2, 5):
        word = tpg.assemble_pattern(binding, st, cycle)
        assert len(word) == 54
        cg_val = tpg.cg_step(cg, cycle)
        for j in range(4):
            assert word[j] == (cg_val >> j) & 1
        # remaining bits recomputed from the binding table, bitwise
        for bit, src in binding.alfsr_slice.items():
            assert word[bit] == st.bit(src)


def test_binding_rejects_double_drive():
    with pytest.raises(PlanError, match="both CG and ALFSR"):
        tpg.PortBinding("X", 2, {0: 0, 1: 1},
                        tpg.ConstraintProgram(1, ((0, 1),)), (0,))


def test_binding_must_cover_every_bit():
    with pytest.raises(PlanError, match="every input bit"):
        tpg.PortBinding("X", 3, {0: 0, 1: 1})
    with pytest.raises(PlanError, match=r"missing \[\], extra \[3\]"):
        tpg.PortBinding("X", 3, {0: 0, 1: 1, 2: 0, 3: 1})
    # a huge width is counted, not enumerated, and only the first bits named
    with pytest.raises(PlanError) as info:
        tpg.PortBinding("X", 2_000_000, {0: 0, 1: 1, 5: 0})
    assert str(info.value).endswith("(missing [2, 3, 4, 6, 7, 8, 9, 10, ... "
                                    "(1999997 bits)], extra [])")


def test_binding_default_slice_is_a_fresh_dict():
    a, b = tpg.PortBinding("X", 0), tpg.PortBinding("Y", 0)
    assert a.alfsr_slice == {} and a.alfsr_slice is not b.alfsr_slice


def test_tap_mask_is_kept_and_not_a_field():
    p = tpg.Polynomial.parse("x^16+x^12+x^3+x+1")
    q = tpg.Polynomial.parse("x^16+x^12+x^3+x+1")
    assert p.tap_mask == 0x8805
    assert vars(p)["tap_mask"] == 0x8805 and "tap_mask" not in vars(q)
    # equality, hashing and the record fields ignore it
    assert p == q and hash(p) == hash(q)
    assert p._fields == ("degree", "taps") and tuple(p) == (16, p.taps)
    assert repr(p) == repr(q)
    for r in (pickle.loads(pickle.dumps(p)), pickle.loads(pickle.dumps(q))):
        assert r == p and hash(r) == hash(p) and r.tap_mask == 0x8805


def test_pattern_sequence_replayable():
    poly = tpg.Polynomial.parse("x^8+x^4+x^3+x^2+1")
    binding = tpg.modular_binding("R", 12, 8)

    def stream():
        st = tpg.AlfsrState(poly, 0x5B)
        out = []
        for c in range(100):
            out.append(tpg.assemble_pattern(binding, st, c))
            st = tpg.alfsr_step(st)
        return out

    assert stream() == stream()


def test_cg_and_alfsr_bits_disjoint():
    cg = tpg.ConstraintProgram(2, ((0b11, 1),))
    binding = tpg.modular_binding("X", 6, 4, cg, (0, 1))
    st1 = _alfsr4(0b0001)
    st2 = _alfsr4(0b1111)
    w1 = tpg.assemble_pattern(binding, st1, 0)
    w2 = tpg.assemble_pattern(binding, st2, 0)
    assert w1[:2] == w2[:2]          # CG bits independent of ALFSR state
    cg2 = tpg.ConstraintProgram(2, ((0b00, 1),))
    binding2 = tpg.modular_binding("X", 6, 4, cg2, (0, 1))
    w3 = tpg.assemble_pattern(binding2, st1, 0)
    assert w1[2:] == w3[2:]          # ALFSR bits independent of CG program
