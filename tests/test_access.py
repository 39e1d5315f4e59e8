import pytest

from corebist import access, bist, circuit, fixture_path
from corebist.access import TapState as T
from corebist.errors import ProtocolError


@pytest.fixture
def core_session():
    netlist = circuit.load_netlist(fixture_path("ldpc_like_core.bench"))
    plan = bist.BistPlan.load(fixture_path("ldpc_like_core.plan.json"))
    return bist.BistSession(netlist, plan)


@pytest.fixture
def tap(core_session):
    return access.TapSession(core_session)


# -- TAP state machine -------------------------------------------------------------

# transcribed independently from the 1149.1 state diagram, row per state
_DIAGRAM = {
    T.TEST_LOGIC_RESET: (T.RUN_TEST_IDLE, T.TEST_LOGIC_RESET),
    T.RUN_TEST_IDLE: (T.RUN_TEST_IDLE, T.SELECT_DR_SCAN),
    T.SELECT_DR_SCAN: (T.CAPTURE_DR, T.SELECT_IR_SCAN),
    T.CAPTURE_DR: (T.SHIFT_DR, T.EXIT1_DR),
    T.SHIFT_DR: (T.SHIFT_DR, T.EXIT1_DR),
    T.EXIT1_DR: (T.PAUSE_DR, T.UPDATE_DR),
    T.PAUSE_DR: (T.PAUSE_DR, T.EXIT2_DR),
    T.EXIT2_DR: (T.SHIFT_DR, T.UPDATE_DR),
    T.UPDATE_DR: (T.RUN_TEST_IDLE, T.SELECT_DR_SCAN),
    T.SELECT_IR_SCAN: (T.CAPTURE_IR, T.TEST_LOGIC_RESET),
    T.CAPTURE_IR: (T.SHIFT_IR, T.EXIT1_IR),
    T.SHIFT_IR: (T.SHIFT_IR, T.EXIT1_IR),
    T.EXIT1_IR: (T.PAUSE_IR, T.UPDATE_IR),
    T.PAUSE_IR: (T.PAUSE_IR, T.EXIT2_IR),
    T.EXIT2_IR: (T.SHIFT_IR, T.UPDATE_IR),
    T.UPDATE_IR: (T.RUN_TEST_IDLE, T.SELECT_DR_SCAN),
}


def test_all_32_transitions_match_diagram():
    assert len(access.TAP_TRANSITIONS) == 32
    for state in T:
        for tms in (0, 1):
            assert access.tap_step(state, tms) == _DIAGRAM[state][tms], \
                (state, tms)


def test_five_tms_ones_reset_from_any_state():
    for state in T:
        s = state
        for _ in range(5):
            s = access.tap_step(s, 1)
        assert s is T.TEST_LOGIC_RESET, state


def test_shift_dr_self_loop():
    assert access.tap_step(T.SHIFT_DR, 0) is T.SHIFT_DR
    assert access.tap_step(T.SHIFT_IR, 0) is T.SHIFT_IR


# -- wrapper registers --------------------------------------------------------------

def test_bypass_is_one_bit_delay(tap):
    tap.tap_reset()
    assert tap.wrapper.selected() == "WBY"
    # scan 8 bits through bypass: TDO is TDI delayed by one (first bit 0)
    tap.drive([(1, 0), (0, 0), (0, 0)])   # to Shift-DR
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    got = [tap.clock(0, b) for b in bits]
    assert got == [0] + bits[:-1]


def test_wir_scan_selects_register(tap):
    tap.tap_reset()
    tap.scan_ir(access.WIR_WCDR_SEL)
    assert tap.wrapper.selected() == "WCDR"
    tap.scan_ir(access.WIR_WDR_SEL)
    assert tap.wrapper.selected() == "WDR"
    tap.scan_ir(access.WIR_BYPASS)
    assert tap.wrapper.selected() == "WBY"


def test_wcdr_circularity():
    # loop TDO back to TDI for exactly width clocks: register restored
    w = access.WrapperState()
    w.update["WIR"] = access.WIR_WCDR_SEL
    w.shift["WCDR"] = 0xA5C3
    for _ in range(access.WCDR_WIDTH):
        tdi = w.shift["WCDR"] & 1   # the bit about to appear on TDO
        assert access.shift(w, T.SHIFT_DR, tdi) == tdi
    assert w.shift["WCDR"] == 0xA5C3


def test_wdr_is_18_bits():
    w = access.WrapperState()
    w.update["WIR"] = access.WIR_WDR_SEL
    w.shift["WDR"] = (1 << 17) | 1
    outs = []
    for _ in range(access.WDR_WIDTH):
        outs.append(access.shift(w, T.SHIFT_DR, 0))
    assert outs == [1] + [0] * 16 + [1]   # LSB first, MSB last
    assert w.shift["WDR"] == 0


def test_shift_outside_shift_state_raises():
    w = access.WrapperState()
    with pytest.raises(ProtocolError):
        access.shift(w, T.RUN_TEST_IDLE, 0)


def test_update_stage_stable_while_shifting(tap):
    tap.tap_reset()
    tap.scan_ir(access.WIR_WCDR_SEL)
    tap.wrapper.update["WCDR"] = 0x1234
    tap.drive([(1, 0), (0, 0), (0, 0)])   # to Shift-DR
    for b in (1, 1, 0, 1):
        tap.clock(0, b)
    assert tap.wrapper.update["WCDR"] == 0x1234     # update stage untouched mid-shift


def test_reset_state_forces_bypass(tap):
    tap.tap_reset()
    tap.scan_ir(access.WIR_WDR_SEL)
    tap.drive([(1, 0)] * 5)               # back to Test-Logic-Reset
    assert tap.wrapper.update["WIR"] == access.WIR_BYPASS


# -- command dispatch ---------------------------------------------------------------

def test_reset_then_read_status_is_idle_zero(tap):
    tap.tap_reset()
    tap.write_wcdr(access.CMD_RESET)
    tap.write_wcdr(access.CMD_READ_STATUS)
    status, sig = tap.read_wdr()
    assert status == access.STATUS_IDLE
    assert sig == 0


def test_unknown_command_sets_error_status(tap):
    tap.tap_reset()
    tap.write_wcdr(0xF)
    tap.write_wcdr(access.CMD_READ_STATUS)
    status, _ = tap.read_wdr()
    assert status == access.STATUS_ERROR


def test_set_count_operand_zero_means_full_4096(tap, core_session):
    tap.tap_reset()
    tap.write_wcdr(access.CMD_SET_COUNT, 0)
    assert core_session._pattern_count == 4096


def test_select_out_of_range_operand_masked(tap, core_session):
    tap.tap_reset()
    tap.write_wcdr(access.CMD_SELECT, 1)
    assert core_session.control.output_select == 1


def test_full_session_matches_direct_run(tap, core_session):
    """End to end: serial access produces exactly the library signatures."""
    direct = bist.run_selftest(core_session.netlist, core_session.plan)
    tap.tap_reset()
    tap.write_wcdr(access.CMD_RESET)
    tap.write_wcdr(access.CMD_SET_COUNT, 4096 & 0xFFF)
    tap.write_wcdr(access.CMD_START)
    for code, sig in enumerate(direct.signatures):
        tap.write_wcdr(access.CMD_SELECT, code)
        tap.write_wcdr(access.CMD_READ_STATUS)
        status, slice16 = tap.read_wdr()
        assert status == access.STATUS_DONE
        assert slice16 == sig.value & 0xFFFF


def test_start_on_shorter_count(tap, core_session):
    tap.tap_reset()
    tap.write_wcdr(access.CMD_SET_COUNT, 16)
    tap.write_wcdr(access.CMD_START)
    assert core_session.control.pattern_counter == 16
    assert core_session.control.phase == "done"


# -- traces -------------------------------------------------------------------------

def test_trace_parse_rejects_tck_zero():
    with pytest.raises(ProtocolError, match="TCK"):
        access.SerialTrace.parse("0 1 0\n")


def test_trace_parse_rejects_bad_field_count():
    with pytest.raises(ProtocolError, match="expected"):
        access.SerialTrace.parse("1 1\n")


@pytest.mark.parametrize("line", ["1 1 0 7", "1 1 0 -1", "1 1 2 0",
                                  "1 1 0 +1", "1 1 0_1 0", "1 -0 0 0",
                                  "\u0661 1 0 0"])
def test_trace_parse_rejects_non_binary_values(line):
    # the TDO column included: a bad one must not read as 0, and a field
    # is exactly 0 or 1, not anything int() reads as one
    with pytest.raises(ProtocolError, match="trace line 2: fields must be 0/1"):
        access.SerialTrace.parse("1 1 0 0\n" + line + "\n")


def test_trace_parse_inconsistent_columns():
    with pytest.raises(ProtocolError, match="inconsistent"):
        access.SerialTrace.parse("1 1 0\n1 1 0 1\n")


def test_trace_comments_and_blanks_skipped():
    t = access.SerialTrace.parse("# header\n\n1 1 0  # reset\n1 0 1\n")
    assert t.samples == ((1, 0), (0, 1))
    assert t.tdo is None


def test_empty_trace_is_a_noop(tap):
    t = access.SerialTrace.parse("# nothing\n")
    assert access.drive_trace(tap, t) == []
    assert tap.tap == T.TEST_LOGIC_RESET


def test_tms_glitches_do_not_crash(tap):
    t = access.SerialTrace(((1, 0), (0, 1), (1, 1), (0, 0), (1, 0)) * 10)
    access.drive_trace(tap, t)   # arbitrary walk must stay inside the 16 states
    assert tap.tap in set(T)


def test_golden_trace_replays_bit_exact(tap):
    trace = access.SerialTrace.load(fixture_path("golden_session.trace"))
    got = access.drive_trace(tap, trace)
    assert len(got) == len(trace.tdo)
    assert [0 if b is None else b for b in got] == list(trace.tdo)


def test_recorder_roundtrip(core_session):
    tap = access.TapSession(core_session)
    tap.tap_reset()
    tap.write_wcdr(access.CMD_RESET)
    trace, tdo = tap.trace()
    # replay on a fresh pair reproduces the recorded TDO stream
    netlist = core_session.netlist
    fresh = access.TapSession(bist.BistSession(netlist, core_session.plan))
    assert access.drive_trace(fresh, trace) == list(tdo)
