"""Exception hierarchy shared across the workbench."""


class CoreBistError(Exception):
    """Base class for all workbench errors."""


class NetlistError(CoreBistError):
    """Structural problem in a netlist (parse or validation)."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}" if column is None else \
                f"line {line}, col {column}: {message}"
        super().__init__(message)


class SimulationError(CoreBistError):
    """Bad inputs to a simulation operation."""


class PlanError(CoreBistError):
    """Inconsistent BIST plan or plan/netlist mismatch."""


class ProtocolError(CoreBistError):
    """Serial access misuse (shifting outside a shift state, bad trace)."""


class ReportError(CoreBistError):
    """A report file that cannot be read or rendered."""
