"""Serial test access: IEEE 1149.1 TAP controller and the P1500-style
wrapper (WIR, WBY, WBR, WCDR, WDR).

Bit-exact register maps and the WCDR command encoding live in PROTOCOL.md;
golden traces depend on them, so changes there are protocol revisions.

Register summary (all registers shift LSB-first, TDI enters at the MSB end):

    WIR   3 bits   BYPASS=000 WBR_SEL=001 WCDR_SEL=010 WDR_SEL=011
    WBY   1 bit
    WBR   boundary cells, one per core port bit
    WCDR  16 bits  [15:12] command, [11:0] operand
    WDR   18 bits  [17:16] status,  [15:0] signature slice

WCDR commands: RESET=0x1 SET_COUNT=0x2 START=0x3 SELECT=0x4 READ_STATUS=0x5.
Status codes: 0=idle 1=running 2=done 3=error.
"""

from __future__ import annotations

from enum import Enum

from .errors import ProtocolError
from .records import record


class TapState(Enum):
    TEST_LOGIC_RESET = "Test-Logic-Reset"
    RUN_TEST_IDLE = "Run-Test/Idle"
    SELECT_DR_SCAN = "Select-DR-Scan"
    CAPTURE_DR = "Capture-DR"
    SHIFT_DR = "Shift-DR"
    EXIT1_DR = "Exit1-DR"
    PAUSE_DR = "Pause-DR"
    EXIT2_DR = "Exit2-DR"
    UPDATE_DR = "Update-DR"
    SELECT_IR_SCAN = "Select-IR-Scan"
    CAPTURE_IR = "Capture-IR"
    SHIFT_IR = "Shift-IR"
    EXIT1_IR = "Exit1-IR"
    PAUSE_IR = "Pause-IR"
    EXIT2_IR = "Exit2-IR"
    UPDATE_IR = "Update-IR"


_T = TapState
TAP_TRANSITIONS = {
    (_T.TEST_LOGIC_RESET, 0): _T.RUN_TEST_IDLE,
    (_T.TEST_LOGIC_RESET, 1): _T.TEST_LOGIC_RESET,
    (_T.RUN_TEST_IDLE, 0): _T.RUN_TEST_IDLE,
    (_T.RUN_TEST_IDLE, 1): _T.SELECT_DR_SCAN,
    (_T.SELECT_DR_SCAN, 0): _T.CAPTURE_DR,
    (_T.SELECT_DR_SCAN, 1): _T.SELECT_IR_SCAN,
    (_T.CAPTURE_DR, 0): _T.SHIFT_DR,
    (_T.CAPTURE_DR, 1): _T.EXIT1_DR,
    (_T.SHIFT_DR, 0): _T.SHIFT_DR,
    (_T.SHIFT_DR, 1): _T.EXIT1_DR,
    (_T.EXIT1_DR, 0): _T.PAUSE_DR,
    (_T.EXIT1_DR, 1): _T.UPDATE_DR,
    (_T.PAUSE_DR, 0): _T.PAUSE_DR,
    (_T.PAUSE_DR, 1): _T.EXIT2_DR,
    (_T.EXIT2_DR, 0): _T.SHIFT_DR,
    (_T.EXIT2_DR, 1): _T.UPDATE_DR,
    (_T.UPDATE_DR, 0): _T.RUN_TEST_IDLE,
    (_T.UPDATE_DR, 1): _T.SELECT_DR_SCAN,
    (_T.SELECT_IR_SCAN, 0): _T.CAPTURE_IR,
    (_T.SELECT_IR_SCAN, 1): _T.TEST_LOGIC_RESET,
    (_T.CAPTURE_IR, 0): _T.SHIFT_IR,
    (_T.CAPTURE_IR, 1): _T.EXIT1_IR,
    (_T.SHIFT_IR, 0): _T.SHIFT_IR,
    (_T.SHIFT_IR, 1): _T.EXIT1_IR,
    (_T.EXIT1_IR, 0): _T.PAUSE_IR,
    (_T.EXIT1_IR, 1): _T.UPDATE_IR,
    (_T.PAUSE_IR, 0): _T.PAUSE_IR,
    (_T.PAUSE_IR, 1): _T.EXIT2_IR,
    (_T.EXIT2_IR, 0): _T.SHIFT_IR,
    (_T.EXIT2_IR, 1): _T.UPDATE_IR,
    (_T.UPDATE_IR, 0): _T.RUN_TEST_IDLE,
    (_T.UPDATE_IR, 1): _T.SELECT_DR_SCAN,
}


def tap_step(state, tms):
    """Next controller state for one TCK rising edge."""
    return TAP_TRANSITIONS[(state, tms & 1)]


WIR_WIDTH = 3
WIR_BYPASS = 0b000
WIR_WBR_SEL = 0b001
WIR_WCDR_SEL = 0b010
WIR_WDR_SEL = 0b011

WCDR_WIDTH = 16
WDR_WIDTH = 18

# PROTOCOL.md's WIR table: WIR code -> the data register it selects; any
# other code selects WBY
WIR_SELECT = {WIR_BYPASS: "WBY", WIR_WBR_SEL: "WBR", WIR_WCDR_SEL: "WCDR",
              WIR_WDR_SEL: "WDR"}
# the registers whose update stage Update-IR/Update-DR loads
UPDATED = ("WIR", "WBR", "WCDR")

CMD_RESET = 0x1
CMD_SET_COUNT = 0x2
CMD_START = 0x3
CMD_SELECT = 0x4
CMD_READ_STATUS = 0x5

STATUS_IDLE = 0
STATUS_RUNNING = 1
STATUS_DONE = 2
STATUS_ERROR = 3

_PHASE_STATUS = {"idle": STATUS_IDLE, "loading": STATUS_IDLE,
                 "running": STATUS_RUNNING, "done": STATUS_DONE}

_IR_SCAN = (_T.CAPTURE_IR, _T.SHIFT_IR, _T.UPDATE_IR)
_CAPTURE = (_T.CAPTURE_IR, _T.CAPTURE_DR)
_SHIFT = (_T.SHIFT_IR, _T.SHIFT_DR)
_UPDATE = (_T.UPDATE_IR, _T.UPDATE_DR)


class WrapperState:
    """The wrapper registers, keyed by name: each one's width, shift stage
    and update stage.

    The WIR sits between TDI and TDO in an IR scan; in a DR scan the data
    register its update stage selects does. Capture loads a shift stage
    from its update stage, and Update loads the update stages in
    ``UPDATED`` back from their shift stages. WBY's update stage stays 0,
    and WDR's holds what READ_STATUS latched.
    """

    def __init__(self, wbr_width=0):
        self.width = {"WIR": WIR_WIDTH, "WBY": 1, "WBR": wbr_width,
                      "WCDR": WCDR_WIDTH, "WDR": WDR_WIDTH}
        self.shift = dict.fromkeys(self.width, 0)
        self.update = dict.fromkeys(self.width, 0)     # the WIR at WIR_BYPASS
        self.status = STATUS_IDLE

    def selected(self):
        """The data register of a DR scan; WBY stands in for an empty WBR."""
        reg = WIR_SELECT.get(self.update["WIR"], "WBY")
        return reg if self.width[reg] else "WBY"

    def scanned(self, tap):
        """The register between TDI and TDO in TAP state ``tap``."""
        return "WIR" if tap in _IR_SCAN else self.selected()


def shift(wrapper, tap, tdi):
    """One shift clock through the WIR or the selected data register:
    TDO is bit 0, TDI enters at the MSB end."""
    if tap not in _SHIFT:
        raise ProtocolError(f"shift called in state {tap.value}")
    reg = wrapper.scanned(tap)
    value = wrapper.shift[reg]
    wrapper.shift[reg] = (value >> 1) | ((tdi & 1) << (wrapper.width[reg] - 1))
    return value & 1


def execute_command(wrapper, session):
    """Dispatch the WCDR update-stage command against a BIST session."""
    word = wrapper.update["WCDR"]
    command = (word >> 12) & 0xF
    operand = word & 0xFFF
    if command == CMD_RESET:
        session.reset()
        wrapper.status = STATUS_IDLE
    elif command == CMD_SET_COUNT:
        count = operand if operand else (1 << session.plan.counter_width)
        session.set_count(count)
        wrapper.status = _PHASE_STATUS[session.control.phase]
    elif command == CMD_START:
        session.run()
        wrapper.status = STATUS_DONE
    elif command == CMD_SELECT:
        session.select(operand & 0x3)
        wrapper.status = _PHASE_STATUS[session.control.phase]
    elif command == CMD_READ_STATUS:
        sig = session.selected_signature()
        slice16 = sig.value & 0xFFFF
        wrapper.update["WDR"] = (wrapper.status << 16) | slice16
    else:
        wrapper.status = STATUS_ERROR


class TapSession:
    """A wrapper + TAP pair bound to one BIST session; clocked bit by bit.

    ``edges`` keeps every clocked edge as ``(tms, tdi, tdo)``."""

    def __init__(self, bist_session):
        self.bist = bist_session
        self.tap = TapState.TEST_LOGIC_RESET
        wbr_width = (len(bist_session.netlist.primary_inputs)
                     + len(bist_session.netlist.primary_outputs))
        self.wrapper = WrapperState(wbr_width=wbr_width)
        self.edges = []

    def clock(self, tms, tdi):
        """One TCK rising edge; returns TDO (None outside shift states)."""
        w, state = self.wrapper, self.tap
        tdo = shift(w, state, tdi) if state in _SHIFT else None
        nxt = tap_step(state, tms)
        if nxt is TapState.TEST_LOGIC_RESET:
            w.update["WIR"] = WIR_BYPASS
        elif nxt in _CAPTURE:
            reg = w.scanned(nxt)
            w.shift[reg] = w.update[reg]
        elif nxt in _UPDATE:
            reg = w.scanned(nxt)
            if reg in UPDATED:
                w.update[reg] = w.shift[reg]
            if reg == "WCDR":
                execute_command(w, self.bist)
        self.tap = nxt
        self.edges.append((tms, tdi, tdo))
        return tdo

    def trace(self, start=0):
        """The edges from edge ``start`` on: their stimulus as a
        SerialTrace and their TDO tuple."""
        edges = self.edges[start:]
        return (SerialTrace(tuple(e[:2] for e in edges)),
                tuple(e[2] for e in edges))

    # -- scripted scans (the host-side driver) -------------------------------

    def drive(self, tms_tdi_pairs):
        return [self.clock(tms, tdi) for tms, tdi in tms_tdi_pairs]

    def tap_reset(self):
        self.drive([(1, 0)] * 5 + [(0, 0)])   # ends in Run-Test/Idle

    def scan_ir(self, value):
        return self._scan(value, WIR_WIDTH, ir=True)

    def scan_dr(self, value, width):
        return self._scan(value, width, ir=False)

    def _scan(self, value, width, ir):
        # from Run-Test/Idle: Select-DR(-Scan) [-> Select-IR] -> Capture -> Shift
        seq = [(1, 0), (1, 0), (0, 0), (0, 0)] if ir else [(1, 0), (0, 0), (0, 0)]
        self.drive(seq)
        out = 0
        for i in range(width):
            last = i == width - 1
            tdo = self.clock(1 if last else 0, (value >> i) & 1)
            out |= (tdo & 1) << i
        self.drive([(1, 0), (0, 0)])          # Exit1 -> Update -> Run-Test/Idle
        return out

    def write_wcdr(self, command, operand=0):
        self.scan_ir(WIR_WCDR_SEL)
        self.scan_dr(((command & 0xF) << 12) | (operand & 0xFFF), WCDR_WIDTH)

    def read_wdr(self):
        self.scan_ir(WIR_WDR_SEL)
        word = self.scan_dr(0, WDR_WIDTH)
        return (word >> 16) & 0x3, word & 0xFFFF


# -- trace files --------------------------------------------------------------

class SerialTrace(record("SerialTrace", "samples tdo", defaults=(None,))):
    """Replayable (TCK, TMS, TDI) stimulus, one (tms, tdi) sample per TCK
    rising edge, with an optional recorded TDO tuple."""

    __slots__ = ()

    @classmethod
    def parse(cls, text):
        samples = []
        tdo = []
        has_tdo = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (3, 4):
                raise ProtocolError(f"trace line {lineno}: expected "
                                    f"'TCK TMS TDI [TDO]', got {raw.strip()!r}")
            if any(f not in ("0", "1") for f in fields):
                raise ProtocolError(f"trace line {lineno}: fields must be 0/1")
            vals = [int(f) for f in fields]
            if vals[0] != 1:
                raise ProtocolError(f"trace line {lineno}: one rising edge "
                                    f"per line (TCK must be 1)")
            if has_tdo is None:
                has_tdo = len(fields) == 4
            elif has_tdo != (len(fields) == 4):
                raise ProtocolError(f"trace line {lineno}: inconsistent column count")
            samples.append((vals[1], vals[2]))
            if has_tdo:
                tdo.append(vals[3])
        return cls(tuple(samples), tuple(tdo) if has_tdo else None)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as e:
                raise ProtocolError(f"{path}: not a text trace ({e})") from None
        return cls.parse(text)

    def render(self, tdo=None):
        lines = ["# TCK TMS TDI" + (" TDO" if tdo is not None else "")]
        for i, (tms, tdi) in enumerate(self.samples):
            row = f"1 {tms} {tdi}"
            if tdo is not None:
                row += f" {tdo[i] if tdo[i] is not None else 0}"
            lines.append(row)
        return "\n".join(lines) + "\n"


def drive_trace(session, trace):
    """Deterministic replay of a trace; returns the TDO stream
    (None where the controller was not shifting)."""
    return [session.clock(tms, tdi) for tms, tdi in trace.samples]

