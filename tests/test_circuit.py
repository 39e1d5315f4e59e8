import random
import re

import pytest

from corebist import circuit, fixture_path
from corebist.errors import NetlistError, SimulationError

import oracle
from conftest import random_combinational, random_patterns, to_bench


def test_smallest_legal_circuit():
    n = circuit.parse_netlist("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a,b)")
    assert len(n.nets) == 3
    assert len(n.gates) == 1
    assert n.primary_inputs == ("a", "b")
    assert n.primary_outputs == ("y",)


def test_undriven_net_rejected():
    with pytest.raises(NetlistError, match="undriven net 'c'"):
        circuit.parse_netlist("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a,c)")


def test_multiply_driven_net_rejected():
    with pytest.raises(NetlistError, match="multiply-driven"):
        circuit.parse_netlist(
            "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)")


def test_combinational_loop_rejected():
    with pytest.raises(NetlistError, match="loop"):
        circuit.parse_netlist(
            "INPUT(a)\nOUTPUT(y)\nx = AND(a, y)\ny = BUF(x)")


@pytest.mark.parametrize("text, message", [
    ("INPUT(a)\nINPUT(b)\nINPUT(a)\nOUTPUT(y)\ny = AND(a, b)",
     "line 3: duplicate primary input 'a'"),
    ("INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = BUF(a)",
     "line 3: duplicate primary output 'y'"),
    ("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n\ny = NOT(a)",
     "line 5: multiply-driven net 'y'"),
    ("INPUT(a)\nOUTPUT(a)\na = DFF(a)", "line 3: multiply-driven net 'a'"),
    ("INPUT(a)\nOUTPUT(y)\n# a comment\ny = AND(a, c)",
     "line 4: undriven net 'c'"),
    ("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\nq = DFF(d)",
     "line 4: undriven net 'd' (flop 'q')"),
    ("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUF(a)",
     "line 3: undriven net 'z' (primary output)"),
    ("INPUT(a)\nOUTPUT(y)\nx = AND(a, y)\ny = BUF(x)",
     "line 3: combinational loop through net 'x'"),
    ("#@block B in: a out: w\nINPUT(a)\nOUTPUT(y)\ny = BUF(a)",
     "line 1: block 'B' references unknown net 'w'"),
], ids=["second-input", "second-output", "second-gate-driver", "flop-on-input",
        "gate-reads-undriven", "flop-reads-undriven", "output-undriven", "loop",
        "block-reads-undriven"])
def test_structural_errors_name_their_line(text, message):
    # each was raised with no line, though the parser knew it
    with pytest.raises(NetlistError, match=re.escape(message)):
        circuit.parse_netlist(text)


def test_loop_through_flop_is_legal():
    n = circuit.parse_netlist(
        "INPUT(a)\nOUTPUT(y)\ny = XOR(a, q)\nq = DFF(y)")
    assert len(n.flops) == 1


def test_unknown_gate_kind():
    with pytest.raises(NetlistError, match="unknown gate kind"):
        circuit.parse_netlist("INPUT(a)\nOUTPUT(y)\ny = FROB(a)")


def test_gate_copy_is_checked_like_a_new_gate():
    g = circuit.Gate("AND", ("a", "b"), "y")
    assert g._replace(kind="OR") == circuit.Gate("OR", ("a", "b"), "y")
    with pytest.raises(NetlistError, match="unknown gate kind 'ZZ'"):
        g._replace(kind="ZZ")
    with pytest.raises(NetlistError, match="NOT takes exactly 1 input"):
        g._replace(kind="NOT")


def test_syntax_error_has_line_number():
    with pytest.raises(NetlistError, match="line 2"):
        circuit.parse_netlist("INPUT(a)\n???\n")


_PRAGMA_CORE = ("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
                "y = AND(a, b)\nz = XOR(b, q)\nq = DFF(c)\n")


@pytest.mark.parametrize("pragmas, message", [
    ("#@block B in: a,b out: y\n#@block B in: b,c out: z",
     "duplicate block 'B'"),
    ("#@block B in: a", "line 1: malformed pragma"),
    ("#@init q 2", "line 1: malformed pragma"),
    ("#@init y 1", "line 1: #@init on 'y', which no DFF drives"),
    ("#@init nowhere 1", "line 1: #@init on 'nowhere', which no DFF drives"),
    ("#@init q 1\n#@init q 0", "line 2: second #@init for 'q'"),
], ids=["duplicate-block", "block-without-out", "init-not-a-bit",
        "init-on-a-gate", "init-on-no-net", "second-init"])
def test_bad_pragmas_are_refused(pragmas, message):
    # each was read as a comment, ignored or overridden without an error
    with pytest.raises(NetlistError, match=re.escape(message)):
        circuit.parse_netlist(pragmas + "\n" + _PRAGMA_CORE)


def test_bn_fixture_matches_case_study_widths():
    n = circuit.load_netlist(fixture_path("ldpc_like_bn.bench"))
    (block,) = n.blocks
    assert block.name == "BIT_NODE"
    assert len(block.input_port) == 54
    assert len(block.output_port) == 55


def test_core_fixture_block_widths():
    n = circuit.load_netlist(fixture_path("ldpc_like_core.bench"))
    widths = {b.name: (len(b.input_port), len(b.output_port)) for b in n.blocks}
    assert widths == {"BIT_NODE": (54, 55), "CHECK_NODE": (53, 53),
                      "CONTROL_UNIT": (45, 44)}


def test_and_truth_table(and2):
    st = circuit.initial_state(and2)
    for a in (0, 1):
        for b in (0, 1):
            values, _ = circuit.evaluate(and2, st, (a, b))
            assert values["y"] == (a & b)


def test_xor_chain_parity():
    n = circuit.parse_netlist(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
        "t = XOR(a,b)\ny = XOR(t,c)")
    st = circuit.initial_state(n)
    assert circuit.evaluate(n, st, (1, 0, 1))[0]["y"] == 0
    assert circuit.evaluate(n, st, (1, 1, 1))[0]["y"] == 1


def test_unassigned_input_rejected(and2):
    with pytest.raises(SimulationError, match="input vector width mismatch"):
        circuit.evaluate(and2, circuit.initial_state(and2), (1,))


def test_mini10_matches_truth_table_oracle(mini10):
    table = oracle.truth_table(mini10)
    rng = random.Random(7)
    st = circuit.initial_state(mini10)
    for _ in range(100):
        bits = tuple(rng.randint(0, 1) for _ in mini10.primary_inputs)
        values, _ = circuit.evaluate(mini10, st, bits)
        assert tuple(values[o] for o in mini10.primary_outputs) == table[bits]


def test_random_netlists_match_truth_tables():
    rng = random.Random(42)
    for trial in range(25):
        n = random_combinational(rng, n_in=rng.randint(2, 6),
                                 n_gates=rng.randint(3, 20))
        table = oracle.truth_table(n)
        st = circuit.initial_state(n)
        for bits, expected in table.items():
            values, _ = circuit.evaluate(n, st, bits)
            assert tuple(values[o] for o in n.primary_outputs) == expected


def test_faulted_evaluation_matches_oracle(seqmini):
    # stem and branch faults, flop Q stems included, against demand-driven
    # recursion with the same forcing
    from corebist import faultsim
    rng = random.Random(17)
    nets = [random_combinational(rng, n_in=rng.randint(2, 6),
                                 n_gates=rng.randint(3, 25))
            for _ in range(6)]
    for n in nets + [seqmini]:
        st = circuit.initial_state(n)
        flop_q = {f.q: st[f.q] for f in n.flops}
        for f in faultsim.enumerate_faults(n).faults:
            for bits in random_patterns(rng, n, 4):
                values, state = circuit.evaluate(n, st, bits, fault=f)
                memo = oracle.eval_recursive(
                    n, dict(zip(n.primary_inputs, bits)),
                    fault=oracle.fault_tuple(f), flop_q=dict(flop_q))
                for net in n.nets:
                    assert values[net] == memo[net], (f.key, net)
                assert state == {fl.q: memo[fl.d] for fl in n.flops}, f.key


def test_sequential_evaluation_updates_flops(seqmini):
    st = circuit.initial_state(seqmini)
    assert st["q1"] == 0
    values, nxt = circuit.evaluate(seqmini, st, (1, 1))
    # n1 = a xor q0 = 1; q0 reads 0 before the edge and holds 1 after it
    assert values["n1"] == 1
    assert values["q0"] == 0 and nxt["q0"] == 1
    values, _ = circuit.evaluate(seqmini, nxt, (1, 1))
    assert values["q0"] == 1
    assert values["n1"] == 0  # a xor q0' = 1 xor 1


def test_sequential_matches_oracle(seqmini):
    rng = random.Random(5)
    pats = random_patterns(rng, seqmini, 50)
    expected = oracle.run_sequence(seqmini, pats)
    got = [tuple(st[o] for o in seqmini.primary_outputs)
           for st in circuit.run_patterns(seqmini, pats)]
    assert got == expected


def test_roundtrip_parse_serialize_parse(mini10, seqmini):
    for n in (mini10, seqmini):
        n2 = circuit.parse_netlist(to_bench(n), name=n.name)
        assert n2.primary_inputs == n.primary_inputs
        assert n2.primary_outputs == n.primary_outputs
        assert n2.gates == n.gates
        assert n2.flops == n.flops
        assert n2.blocks == n.blocks
        assert to_bench(n2) == to_bench(n)


# -- toggle activity ---------------------------------------------------------

def test_toggle_identical_patterns_is_zero(mini10):
    frac, counts = circuit.toggle_activity(mini10, [(0, 1, 0, 1)] * 2)
    assert frac == 0.0
    assert all(c == 0 for c in counts.values())


def test_toggle_not_gate_full():
    n = circuit.parse_netlist("INPUT(a)\nOUTPUT(y)\ny = NOT(a)")
    frac, counts = circuit.toggle_activity(n, [(0,), (1,)])
    assert frac == 1.0
    assert counts == {"a": 1, "y": 1}


def test_toggle_requires_two_patterns(mini10):
    with pytest.raises(SimulationError):
        circuit.toggle_activity(mini10, [(0, 0, 0, 0)])


def test_toggle_matches_state_dump_diff_oracle(mini10):
    from corebist import tpg
    poly = tpg.Polynomial.parse("x^4+x+1")
    state = tpg.seed_int(poly, 0x9)
    pats = []
    for _ in range(64):
        pats.append(state.bits)
        state = tpg.alfsr_step(state)
    frac, counts = circuit.toggle_activity(mini10, pats)
    # oracle: diff successive full-state dumps
    dumps = list(circuit.run_patterns(mini10, pats))
    expect = {n: 0 for n in mini10.nets}
    for a, b in zip(dumps, dumps[1:]):
        for n in mini10.nets:
            if a[n] != b[n]:
                expect[n] += 1
    assert counts == expect
    assert frac == sum(1 for c in expect.values() if c) / len(mini10.nets)


def test_toggle_monotone_in_prefix(mini10):
    rng = random.Random(11)
    pats = random_patterns(rng, mini10, 32)
    fractions = [circuit.toggle_activity(mini10, pats[:k])[0]
                 for k in range(2, 33, 3)]
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))
