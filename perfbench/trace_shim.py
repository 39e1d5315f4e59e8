"""Run one corebist CLI command with spans around each layer's public calls.

    python3 perfbench/trace_shim.py SPANS_FILE corebist-args...

The wrappers are installed from outside: every corebist module attribute
that is one of the functions in ``SPANS`` is replaced by a wrapper that
records (name, start, end, parent) in memory, plus a count for the few
calls listed in ``ATTRS``. After ``cli.main`` returns, the spans are
written to SPANS_FILE as a JSON header line followed by four packed arrays
(see :func:`read_spans`). Pool workers started with ``--workers N`` inherit
the wrappers, but their spans stay in the worker and are not collected.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time

# module -> public functions wrapped; "Class.method" wraps a method
SPANS = {
    "circuit": ["parse_netlist", "evaluate"],
    "tpg": ["assemble_pattern", "alfsr_step", "cg_step"],
    "compactor": ["fold", "misr_absorb"],
    "faultsim": ["enumerate_faults", "collapse", "parallel_fault_sim",
                 "serial_fault_sim", "tdf_sim"],
    "bist": ["plan_patterns", "run_selftest", "compute_golden",
             "BistSession.run"],
    "access": ["drive_trace"],
    "diagnosis": ["build_matrix", "classify", "classify_per_block"],
}

# span name -> what to count from the call's result
ATTRS = {
    "access.drive_trace": len,                       # one TDO entry per edge
    "faultsim.parallel_fault_sim": lambda r: [len(r.faults), r.detected],
    "faultsim.serial_fault_sim": lambda r: [len(r.faults), r.detected],
    "faultsim.tdf_sim": lambda r: [len(r.faults), r.detected],
    "diagnosis.build_matrix": lambda r: len(r.rows),
}


class Recorder:
    """Spans as parallel arrays; ``stack`` holds the open spans' indices."""

    def __init__(self):
        self.names = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.attrs = {}
        self.stack = [-1]

    def wrap(self, label, fn):
        nid = len(self.names)
        self.names.append(label)
        count = ATTRS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if count is not None:
                self.attrs[i] = count(result)
            return result
        return wrapper

    def install(self):
        """Replace every module-level reference to a listed function."""
        import corebist
        from corebist import cli
        mods = [m for n, m in sys.modules.items()
                if n == "corebist" or n.startswith("corebist.")]
        for short, names in SPANS.items():
            mod = getattr(corebist, short)
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(f"{short}.{name}",
                                                 getattr(cls, meth)))
                    continue
                orig = getattr(mod, name)
                wrapped = self.wrap(f"{short}.{name}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
        return self.wrap("cli.main", cli.main)

    def write(self, path):
        header = {"names": self.names, "count": len(self.name),
                  "attrs": {str(k): v for k, v in self.attrs.items()}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path):
    """(names, name ids, parents, starts, ends, attrs) from a spans file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in "iidd":
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    attrs = {int(k): v for k, v in header["attrs"].items()}
    return (header["names"], *arrays, attrs)


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    main_fn = rec.install()
    try:
        code = main_fn(argv)
    finally:
        rec.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
