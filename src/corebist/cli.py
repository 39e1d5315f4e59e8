"""Command-line surface: lint, bist, faultsim, import, tap, diagnose, report.

Exit codes: 0 success, 1 validation failure, 2 runtime error. All randomness
is seeded through the plan (ALFSR polynomial + seed) and echoed in every
report header, so reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bist, circuit, faultsim
from .errors import CoreBistError, NetlistError, PlanError, ProtocolError, \
    ReportError, SimulationError

REPORT_SCHEMA_VERSION = 1

FAULT_KINDS = {"saf": faultsim.SA_KINDS, "tdf": faultsim.TDF_KINDS}  # --kinds
# --granularity; diagnosis.GRANULARITIES, spelled out here so that building
# the parser does not import diagnosis
GRANULARITIES = ("pattern", "signature")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _header(netlist, plan=None):
    h = {"schema_version": REPORT_SCHEMA_VERSION, "netlist": netlist.name}
    if plan is not None:
        h["alfsr"] = {"poly": str(plan.alfsr_poly),
                      "seed": f"{plan.alfsr_seed:#x}"}
        h["pattern_count"] = plan.pattern_count
    return h


def _load_plan(args):
    if not args.plan:
        raise PlanError("--plan is required for this command")
    plan = bist.BistPlan.load(args.plan)
    if getattr(args, "seed", None) is not None:
        plan = plan._replace(alfsr_seed=args.seed, golden=None)
    return plan


def parse_pattern_file(path, netlist, plan):
    """External patterns: one vector per line, binary MSB-left, width =
    sum of block input widths in plan binding order; '#' comments."""
    bist.check_plan(netlist, plan)
    ports = [netlist.block_by_name[b.block].input_port for b in plan.bindings]
    total = sum(len(p) for p in ports)
    patterns = []
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise SimulationError(f"{path}: not a text pattern file ({e})") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        if set(line) - {"0", "1"}:
            raise SimulationError(f"{path}:{lineno}: non-binary vector")
        if len(line) != total:
            raise SimulationError(
                f"{path}:{lineno}: vector width {len(line)} != "
                f"expected {total} (sum of block input widths)")
        assignment = {}
        pos = 0
        for port in ports:
            chunk = line[pos:pos + len(port)]
            pos += len(port)
            # MSB-left text; port lists are LSB-first
            for net, ch in zip(port, reversed(chunk)):
                assignment[net] = int(ch)
        patterns.append(tuple(assignment[n] for n in netlist.primary_inputs))
    if not patterns:
        raise SimulationError(f"{path}: no patterns")
    return patterns


def _pattern_count(spec):
    """The count ``--patterns`` gives, or None when it names a pattern file.
    ``int`` reads every string ``str.isdecimal`` accepts; ``str.isdigit``
    also accepts superscript digits, which ``int`` refuses."""
    return int(spec) if spec.isdecimal() else None


def seed(text):
    """``--seed``: an integer in Python literal syntax (``43``, ``0x2b``);
    argparse names the option's type after this function."""
    return int(text, 0)


def _resolve_patterns(args, netlist, plan, stream=None):
    """--patterns N (count) or --patterns FILE (external vectors); without
    the option, ``stream`` (the plan's own stream, built here if not
    given). Returns the patterns as :func:`faultsim.kernel` builds them (one
    kernel to share between every simulation over them; ``len`` is their
    count) and their source for the report."""
    spec = getattr(args, "patterns", None)
    if spec is None:
        if stream is None:
            stream = bist.plan_stimulus(netlist, plan)
        return stream, "alfsr"
    count = _pattern_count(spec)
    if count is not None:
        return (bist.plan_stimulus(netlist, plan._replace(pattern_count=count)),
                "alfsr")
    return (faultsim.stimulus(netlist, parse_pattern_file(spec, netlist, plan)),
            os.path.basename(spec))


# -- subcommands ---------------------------------------------------------------

def cmd_lint(args):
    try:
        netlist = circuit.load_netlist(args.netlist)
    except (NetlistError, OSError) as e:
        print(f"FAIL: {e}")
        return 1
    print(f"OK: {netlist.name}: {len(netlist.nets)} nets, "
          f"{len(netlist.gates)} gates, {len(netlist.flops)} flops, "
          f"{len(netlist.blocks)} blocks")
    return 0


def _coverage_tables(netlist, patterns, kinds=FAULT_KINDS):
    """The "SAF" and "TDF" reports that ``kinds`` asks for, in that order,
    split from one simulation of both."""
    asked = {k.upper(): v for k, v in FAULT_KINDS.items() if k in kinds}
    universe = faultsim.collapse(faultsim.enumerate_faults(
        netlist, [k for ks in asked.values() for k in ks]), netlist)
    report = faultsim.parallel_fault_sim(netlist, universe, patterns)
    return {name: report.of_kinds(k) for name, k in asked.items()}


def _coverage_json(tables):
    blocks = {}
    for kind, report in tables.items():
        for bname, row in report.per_block().items():
            entry = blocks.setdefault(bname, {})
            entry[kind] = {"faults": row["faults"],
                           "detected": row["detected"],
                           "fc_percent": round(100.0 * row["coverage"], 2)}
            entry["clock_cycles"] = report.pattern_count
    return blocks


def cmd_bist(args):
    netlist = circuit.load_netlist(args.netlist)
    plan = _load_plan(args)
    # one kernel over the plan's stream serves SAF, TDF and --toggle (unless
    # --patterns asks for others), then the signatures, off the same pass
    stream = bist.plan_stimulus(netlist, plan)
    patterns, source = _resolve_patterns(args, netlist, plan, stream)
    tables = _coverage_tables(netlist, patterns)
    (result,) = bist.selftest_results(netlist, plan, (None,), stream)

    payload = _header(netlist, plan)
    payload["patterns_applied"] = result.patterns_applied
    payload["pattern_source"] = source
    payload["signatures"] = [
        {"block": s.block, "poly": str(s.polynomial), "value": "0x" + s.hex(),
         "pattern_count": s.pattern_count}
        for s in result.signatures]
    payload["pass"] = list(result.passed)
    payload["coverage"] = _coverage_json(tables)
    if args.toggle:
        frac, _counts = patterns.toggle_activity()
        payload["toggle_activity"] = round(frac, 4)

    out = os.path.join(args.out, "bist_report.json")
    _write_json(out, payload)
    print(_render_bist(payload))
    print(f"report written to {out}")
    return 0


def _render_bist(p):
    lines = [f"netlist {p['netlist']}  ALFSR {p['alfsr']['poly']} "
             f"seed {p['alfsr']['seed']}  patterns {p['patterns_applied']}"]
    for s, ok in zip(p["signatures"], p["pass"]):
        lines.append(f"  {s['block']:<14} signature {s['value']}  "
                     f"{'PASS' if ok else 'FAIL'}")
    lines.append(f"{'Component':<14} {'Kind':<4} {'Faults':>8} {'FC [%]':>7} "
                 f"{'Cycles':>7}")
    for bname, entry in sorted(p["coverage"].items()):
        for kind in ("SAF", "TDF"):
            if kind in entry:
                row = entry[kind]
                lines.append(f"{bname:<14} {kind:<4} {row['faults']:>8} "
                             f"{row['fc_percent']:>7.2f} "
                             f"{entry['clock_cycles']:>7}")
    if "toggle_activity" in p:
        lines.append(f"toggle activity: {p['toggle_activity']:.2%}")
    return "\n".join(lines)


def cmd_faultsim(args):
    kinds = tuple(k.strip().lower() for k in args.kinds.split(","))
    for k in kinds:
        if k not in FAULT_KINDS:
            raise SimulationError(f"--kinds: unknown kind {k!r} "
                                  f"(choose from {', '.join(FAULT_KINDS)})")
    netlist = circuit.load_netlist(args.netlist)
    plan = _load_plan(args)
    patterns, source = _resolve_patterns(args, netlist, plan)
    count = len(patterns)
    tables = _coverage_tables(netlist, patterns, kinds)
    payload = _header(netlist, plan)
    payload["pattern_source"] = source
    payload["pattern_count"] = count
    payload["coverage"] = _coverage_json(tables)
    payload["summary"] = {k: faultsim.coverage(r) for k, r in tables.items()}
    if args.compare:
        ext = faultsim.stimulus(netlist,
                                parse_pattern_file(args.compare, netlist, plan))
        ext_tables = _coverage_tables(netlist, ext, kinds)
        payload["comparison"] = {
            "external_file": os.path.basename(args.compare),
            "external_pattern_count": len(ext),
            "coverage": _coverage_json(ext_tables),
        }
    out = os.path.join(args.out, "coverage_report.json")
    _write_json(out, payload)
    for kind, report in tables.items():
        print(f"{kind}: {report.detected}/{len(report.faults)} detected "
              f"({100.0 * report.coverage:.2f}%) with {count} patterns")
    print(f"report written to {out}")
    return 0


def cmd_import(args):
    netlist = circuit.load_netlist(args.netlist)
    plan = _load_plan(args)
    patterns = parse_pattern_file(args.file, netlist, plan)
    print(f"OK: {len(patterns)} patterns, width "
          f"{len(netlist.primary_inputs)} primary inputs")
    out = os.path.join(args.out, "imported_patterns.json")
    _write_json(out, {
        "schema_version": REPORT_SCHEMA_VERSION,
        "source": os.path.basename(args.file),
        "pattern_count": len(patterns),
        "primary_inputs": list(netlist.primary_inputs),
        "patterns": ["".join(str(b) for b in reversed(p)) for p in patterns],
    })
    print(f"normalized patterns written to {out}")
    return 0


def cmd_tap(args):
    from . import access
    netlist = circuit.load_netlist(args.netlist)
    plan = _load_plan(args)
    trace = access.SerialTrace.load(args.trace)
    session = access.TapSession(bist.EngineSession(netlist, plan))
    tdo = access.drive_trace(session, trace)
    rendered = access.SerialTrace(trace.samples).render(tdo=tdo)
    out = os.path.join(args.out, "tap_trace.out")
    with open(out, "w") as fh:
        fh.write(rendered)
    print(f"{len(trace.samples)} edges replayed; final TAP state "
          f"{session.tap.value}; TDO trace written to {out}")
    if args.expect:
        expected = access.SerialTrace.load(args.expect)
        exp = expected.tdo
        if exp is None:
            raise ProtocolError(f"{args.expect}: golden trace has no TDO column")
        got = [0 if b is None else b for b in tdo]
        for i, (g, e) in enumerate(zip(got, exp)):
            if g != e:
                print(f"MISMATCH at edge {i}: got TDO={g}, expected {e}")
                return 1
        if len(got) != len(exp):
            print(f"MISMATCH: length {len(got)} vs expected {len(exp)}")
            return 1
        print("TDO matches golden trace")
    return 0


def cmd_diagnose(args):
    from . import diagnosis
    netlist = circuit.load_netlist(args.netlist)
    plan = _load_plan(args)
    if args.granularity == "signature" and args.patterns is not None:
        count = _pattern_count(args.patterns)
        if count is None:
            raise SimulationError("--patterns FILE needs --granularity pattern: "
                                  "signatures replay the plan's ALFSR stream")
        plan = plan._replace(pattern_count=count, golden=None)
    patterns, source = _resolve_patterns(args, netlist, plan)
    universe = faultsim.collapse(
        faultsim.enumerate_faults(netlist, ("SA0", "SA1")), netlist)
    matrix = diagnosis.build_matrix(netlist, universe, patterns,
                                    granularity=args.granularity, plan=plan)
    report = diagnosis.classify(matrix)
    fault_blocks = faultsim.fault_blocks(netlist, universe.faults)
    per_block = diagnosis.classify_per_block(matrix, fault_blocks)

    payload = _header(netlist, plan)
    payload["pattern_source"] = source
    payload["pattern_count"] = len(patterns)
    payload["overall"] = report.to_dict()
    payload["per_block"] = {b: r.to_dict() for b, r in per_block.items()}
    out = os.path.join(args.out, "diagnosis_report.json")
    _write_json(out, payload)

    print(f"{'Component':<14} {'Max size':>8} {'Med size':>8}")
    for bname, rep in per_block.items():
        print(f"{bname:<14} {rep.max_size:>8} {rep.mean_size:>8.1f}")
    print(f"{'(overall)':<14} {report.max_size:>8} {report.mean_size:>8.1f}")
    print(f"report written to {out}")
    return 0


def cmd_report(args):
    try:
        with open(args.file) as fh:
            payload = json.load(fh)
    except OSError as e:
        raise ReportError(f"{args.file}: {e.strerror}") from None
    except ValueError as e:          # JSON syntax or text encoding
        raise ReportError(f"{args.file}: not a JSON report ({e})") from None
    if not isinstance(payload, dict):
        raise ReportError(f"{args.file}: not a JSON report (top level is "
                          f"{type(payload).__name__}, not an object)")
    if "signatures" in payload:
        try:
            text = _render_bist(payload)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ReportError(f"{args.file}: malformed bist report "
                              f"({type(e).__name__}: {e})") from None
        print(text)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# -- entry point ---------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="corebist",
        description="BIST workbench: pattern generation, signature "
                    "compaction, fault coverage, diagnosis, serial access.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("netlist", help="bench-format netlist file")
        p.add_argument("--plan", help="BIST plan JSON file")
        p.add_argument("--seed", type=seed,
                       help="override the plan's ALFSR seed "
                       "(1..2^degree-1)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="every command runs in one process; the option "
                       "is accepted (N >= 1) only for a uniform command line")

    p = sub.add_parser("lint", help="parse and validate a netlist")
    p.add_argument("netlist")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("bist", help="run the full self-test plus coverage")
    common(p)
    p.add_argument("--patterns", help="pattern count or external pattern file")
    p.add_argument("--toggle", action="store_true",
                   help="also measure toggle activity")
    p.set_defaults(func=cmd_bist)

    p = sub.add_parser("faultsim", help="fault simulation and coverage only")
    common(p)
    p.add_argument("--patterns", help="pattern count or external pattern file")
    p.add_argument("--kinds", default="saf,tdf",
                   help="comma-separated subset of saf,tdf")
    p.add_argument("--compare", help="external pattern file for a "
                                     "side-by-side coverage table")
    p.set_defaults(func=cmd_faultsim)

    p = sub.add_parser("import", help="validate an external pattern file")
    p.add_argument("file", help="pattern file (one binary vector per line)")
    common(p)
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("tap", help="replay a serial TAP trace")
    p.add_argument("trace", help="trace file: 'TCK TMS TDI' per line")
    common(p)
    p.add_argument("--expect", help="golden trace with TDO column to diff")
    p.set_defaults(func=cmd_tap)

    p = sub.add_parser("diagnose", help="diagnostic matrix and fault classes")
    common(p)
    p.add_argument("--patterns", help="pattern count or external pattern file")
    p.add_argument("--granularity", choices=GRANULARITIES,
                   default="pattern")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("report", help="render a JSON report as text")
    p.add_argument("file")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise SimulationError(f"--workers must be at least 1, got "
                                  f"{args.workers}")
        return args.func(args)
    except (NetlistError, PlanError, SimulationError, ProtocolError,
            ReportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CoreBistError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
