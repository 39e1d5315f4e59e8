"""Workbench for core-level built-in self-test: pseudo-random pattern
generation, MISR signature compaction, stuck-at and transition-delay fault
coverage, fault diagnosis, and bit-accurate TAP/P1500 serial access.

``import corebist`` loads only the error classes; each submodule
(``corebist.faultsim`` and the rest) is imported on first access.
"""

from .errors import CoreBistError, NetlistError, PlanError, ProtocolError, \
    SimulationError

__version__ = "0.1.0"

_SUBMODULES = ("access", "bist", "circuit", "cli", "compactor", "diagnosis",
               "faultsim", "tpg")


def __getattr__(name):
    # PEP 562: runs only for names not yet set, so once per submodule
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")    # binds the submodule here
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def fixture_path(name):
    """Path of a bundled benchmark fixture."""
    import os
    return os.path.join(os.path.dirname(__file__), "fixtures", name)
