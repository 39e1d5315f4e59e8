"""Diagnostic matrix, syndromes, and equivalent-fault-class statistics.

A fault's syndrome is its observable response under the test set: at
pattern granularity the per-pattern detection bit-vector, at signature
granularity the tuple of final MISR values under injection. Faults with
identical syndromes are indistinguishable by the test and form one
equivalent class; the undetected (all-zero-syndrome) faults are reported
as their own designated class since grouping them says nothing about
logical equivalence.
"""

from __future__ import annotations

from . import bist as bist_mod
from . import faultsim
from .errors import SimulationError
from .records import record

GRANULARITIES = ("pattern", "signature")


class DiagnosticMatrix(record("DiagnosticMatrix",
                              "granularity pattern_count faults rows detected")):
    """One row of canonical syndrome bytes and one detected bool per fault."""

    __slots__ = ()


class ClassReport(record("ClassReport", "granularity pattern_count classes "
                         "undetected fault_count")):
    """``classes``: tuples of fault indices, detected classes only;
    ``undetected``: the fault indices with an all-zero / golden syndrome."""

    __slots__ = ()

    @property
    def max_size(self):
        return max((len(c) for c in self.classes), default=0)

    @property
    def mean_size(self):
        if not self.classes:
            return 0.0
        return sum(len(c) for c in self.classes) / len(self.classes)

    @property
    def mean_size_with_undetected(self):
        total = list(self.classes) + ([self.undetected] if self.undetected else [])
        if not total:
            return 0.0
        return sum(len(c) for c in total) / len(total)

    def to_dict(self):
        return {
            "granularity": self.granularity,
            "pattern_count": self.pattern_count,
            "fault_count": self.fault_count,
            "class_count": len(self.classes),
            "max_size": self.max_size,
            "mean_size": round(self.mean_size, 4),
            "mean_size_with_undetected": round(self.mean_size_with_undetected, 4),
            "undetected": len(self.undetected),
        }


def build_matrix(netlist, universe, kernel, granularity="pattern",
                 plan=None):
    """One syndrome row per fault, in universe order, read from ``kernel``
    (built by :func:`faultsim.stimulus` from a pattern list, if it is one).

    Pattern granularity takes each fault's per-pattern detection plane from
    the kernel's ``planes``; the row is its ``ceil(n / 8)`` little-endian
    bytes, so row bit t is pattern t. Signature granularity needs a
    ``plan``, over whose stream ``kernel`` must run
    (:func:`bist.plan_stimulus`), and takes each fault's signatures from
    :func:`bist.selftest_results`; a fault is detected when they differ from
    the plan's golden signatures.
    """
    if granularity not in GRANULARITIES:
        raise SimulationError(f"unknown granularity {granularity!r}")
    if granularity == "signature" and plan is None:
        raise SimulationError("signature granularity needs a BIST plan")
    kernel = faultsim.stimulus(netlist, kernel)
    if granularity == "pattern":
        planes = kernel.planes(universe.faults)
        size = (len(kernel) + 7) // 8
        return DiagnosticMatrix("pattern", len(kernel), universe.faults,
                                tuple(p.to_bytes(size, "little") for p in planes),
                                tuple(p != 0 for p in planes))
    results = bist_mod.selftest_results(netlist, plan, universe.faults, kernel)
    rows = tuple(b"".join(s.value.to_bytes(8, "little") for s in r.signatures)
                 for r in results)
    return DiagnosticMatrix("signature", plan.pattern_count, universe.faults,
                            rows, tuple(not all(r.passed) for r in results))


def _classes(matrix, members):
    """Class report over the faults at the ascending indices ``members``:
    identical syndrome rows grouped, so classes are numbered by their
    first member."""
    groups = {}
    undetected = []
    for i in members:
        if matrix.detected[i]:
            groups.setdefault(matrix.rows[i], []).append(i)
        else:
            undetected.append(i)
    return ClassReport(matrix.granularity, matrix.pattern_count,
                       tuple(tuple(g) for g in groups.values()),
                       tuple(undetected), len(members))


def classify(matrix):
    """Group identical syndrome rows; stable numbering by first member."""
    return _classes(matrix, range(len(matrix.faults)))


def classify_per_block(matrix, fault_blocks):
    """Per-block class statistics (the per-component rows of the report).

    ``fault_blocks`` assigns each fault a block name (or None); rows are
    compared only within a block, and blocks come in the order of their
    first fault.
    """
    members = {}
    for i, block in enumerate(fault_blocks):
        if block is not None:
            members.setdefault(block, []).append(i)
    return {block: _classes(matrix, idx) for block, idx in members.items()}
