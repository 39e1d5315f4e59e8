import ast
import importlib
import inspect
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from corebist import (access, bist, circuit, cli, compactor, faultsim,
                      fixture_path, tpg)
from corebist.errors import PlanError

from conftest import perfbench, random_sequential, seqmini_plan, to_bench


MINI = str(fixture_path("mini10.bench"))
MINI_PLAN = str(fixture_path("mini10.plan.json"))
CORE = str(fixture_path("ldpc_like_core.bench"))
CORE_PLAN = str(fixture_path("ldpc_like_core.plan.json"))
TRACE = str(fixture_path("golden_session.trace"))


def run(argv):
    return cli.main(argv)


# -- lint ---------------------------------------------------------------------------

def test_lint_ok(capsys):
    assert run(["lint", MINI]) == 0
    assert capsys.readouterr().out.startswith("OK:")


def test_lint_broken_netlist(tmp_path, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
    assert run(["lint", str(bad)]) == 1
    assert "undriven" in capsys.readouterr().out


def test_lint_missing_file(capsys):
    assert run(["lint", "/nonexistent.bench"]) == 1


def test_missing_plan_is_validation_error(tmp_path, capsys):
    assert run(["bist", MINI, "--out", str(tmp_path)]) == 1
    assert "--plan is required" in capsys.readouterr().err


# -- bist ---------------------------------------------------------------------------

def test_bist_report(tmp_path, capsys):
    assert run(["bist", MINI, "--plan", MINI_PLAN, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    report = json.loads((tmp_path / "bist_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["pass"] == [True]
    assert report["signatures"][0]["value"] == "0x3"
    assert set(report["coverage"]["MAIN"]) == {"SAF", "TDF", "clock_cycles"}


def test_bist_rerun_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run(["bist", MINI, "--plan", MINI_PLAN, "--out", str(a)]) == 0
    assert run(["bist", MINI, "--plan", MINI_PLAN, "--out", str(b)]) == 0
    assert (a / "bist_report.json").read_bytes() == \
        (b / "bist_report.json").read_bytes()


def test_bist_seed_override_changes_signature(tmp_path):
    assert run(["bist", MINI, "--plan", MINI_PLAN, "--seed", "0x2b",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "bist_report.json").read_text())
    assert report["alfsr"]["seed"] == "0x2b"
    assert report["pass"] == [True]   # golden recomputed for the new seed


def test_bist_pattern_count_changes_only_coverage(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run(["bist", MINI, "--plan", MINI_PLAN, "--out", str(a)]) == 0
    assert run(["bist", MINI, "--plan", MINI_PLAN, "--patterns", "16",
                "--out", str(b)]) == 0
    full = json.loads((a / "bist_report.json").read_text())
    short = json.loads((b / "bist_report.json").read_text())
    assert short["signatures"] == full["signatures"]
    assert short["pass"] == full["pass"] == [True]
    assert short["patterns_applied"] == full["patterns_applied"] == 64
    assert {e["clock_cycles"] for e in short["coverage"].values()} == {16}


def test_bist_toggle_flag(tmp_path):
    assert run(["bist", MINI, "--plan", MINI_PLAN, "--toggle",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "bist_report.json").read_text())
    assert 0.0 < report["toggle_activity"] <= 1.0


# -- faultsim -----------------------------------------------------------------------

def test_faultsim_pattern_count(tmp_path, capsys):
    assert run(["faultsim", MINI, "--plan", MINI_PLAN, "--patterns", "16",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "coverage_report.json").read_text())
    assert report["pattern_count"] == 16
    assert "SAF" in report["summary"] and "TDF" in report["summary"]


def test_faultsim_saf_only(tmp_path):
    assert run(["faultsim", MINI, "--plan", MINI_PLAN, "--kinds", "saf",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "coverage_report.json").read_text())
    assert list(report["summary"]) == ["SAF"]


def test_faultsim_coverage_monotone_in_count(tmp_path):
    fcs = []
    for count in ("1", "4", "64"):
        assert run(["faultsim", MINI, "--plan", MINI_PLAN, "--kinds", "saf",
                    "--patterns", count, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "coverage_report.json").read_text())
        fcs.append(report["summary"]["SAF"]["total"]["coverage"])
    assert fcs[0] <= fcs[1] <= fcs[2]


def test_faultsim_compare_external(tmp_path):
    ext = tmp_path / "ext.pat"
    ext.write_text("0000\n1111\n1010\n")
    assert run(["faultsim", MINI, "--plan", MINI_PLAN, "--kinds", "saf",
                "--compare", str(ext), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "coverage_report.json").read_text())
    assert report["comparison"]["external_pattern_count"] == 3


@pytest.mark.parametrize("kinds, bad", [("xyz", "xyz"), ("saf,xyz", "xyz"),
                                        ("", ""), ("saf,,tdf", "")])
def test_faultsim_unknown_kind_is_an_error(tmp_path, capsys, kinds, bad):
    assert run(["faultsim", MINI, "--plan", MINI_PLAN, "--kinds", kinds,
                "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --kinds: unknown kind {bad!r} "
                            f"(choose from saf, tdf)\n")
    assert not (tmp_path / "coverage_report.json").exists()


def test_faultsim_kinds_are_case_and_space_tolerant(tmp_path):
    assert run(["faultsim", MINI, "--plan", MINI_PLAN, "--kinds", " TDF , saf",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "coverage_report.json").read_text())
    assert sorted(report["summary"]) == ["SAF", "TDF"]


def test_workers_do_not_change_report(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    args = ["faultsim", MINI, "--plan", MINI_PLAN, "--kinds", "saf"]
    assert run(args + ["--workers", "1", "--out", str(a)]) == 0
    assert run(args + ["--workers", "2", "--out", str(b)]) == 0
    assert (a / "coverage_report.json").read_bytes() == \
        (b / "coverage_report.json").read_bytes()


def _sequential_core(tmp_path):
    """A random sequential core and a 40-pattern plan for it, as files."""
    netlist = random_sequential(random.Random(0x5EC), n_in=4, n_flops=4,
                                n_gates=30, name="seqcli")
    bench = tmp_path / "seqcli.bench"
    bench.write_text(to_bench(netlist))
    (block,) = netlist.blocks
    plan = bist.BistPlan(
        tpg.Polynomial.parse("x^4+x+1"), 0x9,
        (tpg.modular_binding("SEQ", len(block.input_port), 4),),
        (bist.MisrAssignment("SEQ", tpg.Polynomial.parse("x^2+x+1"),
                             compactor.XorCascade(len(block.output_port), 2)),),
        pattern_count=40)
    plan.save(tmp_path / "seqcli.plan.json")
    return str(bench), str(tmp_path / "seqcli.plan.json")


def test_workers_do_not_change_sequential_report(tmp_path):
    bench, plan = _sequential_core(tmp_path)
    args = ["faultsim", bench, "--plan", plan]
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        assert run(args + ["--workers", workers, "--out", str(out)]) == 0
        reports.append((out / "coverage_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert b'"SAF"' in reports[0] and b'"TDF"' in reports[0]


def test_sequential_saf_and_tdf_share_one_pass(tmp_path, monkeypatch):
    # --workers 2 runs in this process too
    bench, plan = _sequential_core(tmp_path)
    args = ["faultsim", bench, "--plan", plan, "--kinds", "saf,tdf"]
    passes = []
    real = faultsim.SequentialStimulus._errors

    def counting(kernel, faults, *fold):
        passes.append(len(faults))
        return real(kernel, faults, *fold)
    monkeypatch.setattr(faultsim.SequentialStimulus, "_errors", counting)
    reports = []
    for workers in ("1", "2"):
        passes.clear()
        out = tmp_path / f"w{workers}"
        out.mkdir()
        assert run(args + ["--workers", workers, "--out", str(out)]) == 0
        assert len(passes) == 1, workers
        reports.append((out / "coverage_report.json").read_bytes())
    assert reports[0] == reports[1]
    # a stuck-at run alone carries no stems for a TDF run that never comes
    passes.clear()
    assert run(["faultsim", bench, "--plan", plan, "--kinds", "saf",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "coverage_report.json").read_text())
    assert passes == [report["summary"]["SAF"]["total"]["faults"]]


def test_sequential_bist_toggle_reads_the_pass_planes(tmp_path, monkeypatch):
    # the toggle activity comes off the fault-free planes of the pass SAF
    # ran, not from a scalar replay; the scalar one is the oracle
    bench, plan_path = _sequential_core(tmp_path)

    def refuse(*args):
        raise AssertionError("circuit.toggle_activity was called")
    with monkeypatch.context() as m:
        m.setattr(circuit, "toggle_activity", refuse)
        assert run(["bist", bench, "--plan", plan_path, "--toggle",
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "bist_report.json").read_text())
    netlist = circuit.load_netlist(bench)
    frac, _ = circuit.toggle_activity(netlist, bist.plan_patterns(
        netlist, bist.BistPlan.load(plan_path)))
    assert report["toggle_activity"] == round(frac, 4)


def test_bist_reports_byte_identical_across_workers(tmp_path):
    # every command runs in one process: on a sequential core, the
    # combinational core and mini10, with the plan's stream and with an
    # external pattern file plus --toggle
    seq_bench, seq_plan = _sequential_core(tmp_path)
    ext = tmp_path / "ext.pat"
    rng = random.Random(0xB15)
    ext.write_text("".join(f"{rng.getrandbits(4):04b}\n" for _ in range(40)))
    toggle = ["--patterns", str(ext), "--toggle"]
    for case, (netlist, plan, extra) in enumerate((
            (seq_bench, seq_plan, []),
            (seq_bench, seq_plan, toggle),
            (CORE, CORE_PLAN, []),
            (MINI, MINI_PLAN, toggle))):
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"{case}w{workers}"
            out.mkdir()
            assert run(["bist", netlist, "--plan", plan, "--workers", workers,
                        "--out", str(out)] + extra) == 0
            reports.append((out / "bist_report.json").read_bytes())
        assert reports[0] == reports[1], case
        report = json.loads(reports[0])
        if extra:
            assert report["pattern_source"] == "ext.pat"
            assert "toggle_activity" in report
            assert {e["clock_cycles"] for e in report["coverage"].values()} \
                == {40}


def test_one_fault_kernel_per_command_on_the_core(tmp_path, capsys,
                                                  monkeypatch):
    built = []

    class Counting(faultsim.FaultKernel):
        def __init__(self, *args):
            built.append(args[2])
            super().__init__(*args)
    monkeypatch.setattr(faultsim, "FaultKernel", Counting)
    for argv in (["bist", CORE, "--plan", CORE_PLAN],
                 ["faultsim", CORE, "--plan", CORE_PLAN],
                 ["tap", TRACE, CORE, "--plan", CORE_PLAN, "--expect", TRACE]):
        built.clear()
        assert run(argv + ["--out", str(tmp_path)]) == 0, argv[0]
        assert len(built) == 1, (argv[0], built)
    assert "TDO matches golden trace" in capsys.readouterr().out


# -- import -------------------------------------------------------------------------

def test_import_valid_file(tmp_path, capsys):
    pat = tmp_path / "p.pat"
    pat.write_text("# four-bit vectors\n1010\n0101\n")
    assert run(["import", str(pat), MINI, "--plan", MINI_PLAN,
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "imported_patterns.json").read_text())
    assert report["pattern_count"] == 2
    assert report["patterns"] == ["1010", "0101"]


def test_import_without_out_writes_to_the_working_directory(tmp_path,
                                                           monkeypatch):
    pat = tmp_path / "p.pat"
    pat.write_text("1010\n")
    monkeypatch.chdir(tmp_path)
    assert run(["import", str(pat), MINI, "--plan", MINI_PLAN]) == 0
    report = json.loads((tmp_path / "imported_patterns.json").read_text())
    assert report["patterns"] == ["1010"]


def test_import_wrong_width(tmp_path, capsys):
    pat = tmp_path / "p.pat"
    pat.write_text("10100\n")
    assert run(["import", str(pat), MINI, "--plan", MINI_PLAN]) == 1
    assert "width" in capsys.readouterr().err


def test_import_non_binary(tmp_path, capsys):
    pat = tmp_path / "p.pat"
    pat.write_text("10x0\n")
    assert run(["import", str(pat), MINI, "--plan", MINI_PLAN]) == 1
    assert "non-binary" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["import", "faultsim", "diagnose"])
def test_pattern_file_with_a_plan_that_does_not_fit_is_an_error(
        tmp_path, capsys, command):
    # the plan is checked against the netlist before the file is read
    plan = bist.BistPlan.load(CORE_PLAN)
    partial = tmp_path / "partial.plan.json"
    plan._replace(bindings=plan.bindings[:1], misrs=plan.misrs[:1],
                  golden=None).save(partial)
    pat = tmp_path / "p.pat"
    pat.write_text("1" * plan.bindings[0].width + "\n")
    report = {"import": "imported_patterns.json",
              "faultsim": "coverage_report.json",
              "diagnose": "diagnosis_report.json"}[command]
    for netlist, plan_path, message in (
            (MINI, CORE_PLAN, "plan binds unknown block 'BIT_NODE'"),
            (CORE, str(partial), "primary input 'cn_i0' driven by no binding")):
        if command == "import":
            argv = ["import", str(pat), netlist]
        else:
            argv = [command, netlist, "--patterns", str(pat)]
        assert run(argv + ["--plan", plan_path, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n", netlist
        assert not (tmp_path / report).exists()


@pytest.mark.parametrize("command, report", [
    (["bist"], "bist_report.json"),
    (["faultsim"], "coverage_report.json"),
    (["diagnose", "--granularity", "pattern"], "diagnosis_report.json"),
    (["diagnose", "--granularity", "signature"], "diagnosis_report.json"),
], ids=["bist", "faultsim", "diagnose-pattern", "diagnose-signature"])
def test_superscript_pattern_count_is_a_file_name(tmp_path, capsys,
                                                  monkeypatch, command,
                                                  report):
    # '²'.isdigit() holds but int() refuses it: it names a file
    monkeypatch.chdir(tmp_path)
    argv = [command[0], MINI, "--plan", MINI_PLAN, *command[1:],
            "--patterns", "²", "--out", str(tmp_path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    if "signature" in command:
        assert err.startswith("error: --patterns FILE needs --granularity "
                              "pattern"), err
    else:
        assert err == "error: [Errno 2] No such file or directory: " \
                      "'²'\n", err
    assert not (tmp_path / report).exists()
    if "signature" not in command:
        (tmp_path / "²").write_text("0101\n1010\n")
        assert run(argv) == 0
        payload = json.loads((tmp_path / report).read_text())
        assert payload["pattern_source"] == "²"


@pytest.mark.parametrize("count", ["0", "5000"])
def test_bad_pattern_count_gets_one_message(tmp_path, capsys, count):
    # mini10's plan has a 12-bit counter; every command checks --patterns N
    # as the plan's pattern count, at either granularity
    errors = []
    for command in (["bist"], ["faultsim"],
                    ["diagnose", "--granularity", "pattern"],
                    ["diagnose", "--granularity", "signature"]):
        assert run([command[0], MINI, "--plan", MINI_PLAN, *command[1:],
                    "--patterns", count, "--out", str(tmp_path)]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: pattern_count {count} outside 1..2^12\n"] * 4
    assert not list(tmp_path.iterdir())


# -- tap ----------------------------------------------------------------------------

def test_tap_replay_matches_golden(tmp_path, capsys):
    assert run(["tap", TRACE, CORE, "--plan", CORE_PLAN,
                "--expect", TRACE, "--out", str(tmp_path)]) == 0
    assert "TDO matches golden trace" in capsys.readouterr().out
    assert (tmp_path / "tap_trace.out").exists()


def test_tap_mismatch_exits_1(tmp_path, capsys):
    golden = open(TRACE).read()
    lines = golden.splitlines()
    # flip the last recorded TDO bit
    for i in range(len(lines) - 1, -1, -1):
        f = lines[i].split()
        if len(f) == 4 and not lines[i].startswith("#"):
            f[3] = "1" if f[3] == "0" else "0"
            lines[i] = " ".join(f)
            break
    bad = tmp_path / "bad.trace"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["tap", str(bad), CORE, "--plan", CORE_PLAN,
                "--expect", str(bad), "--out", str(tmp_path)]) == 1
    assert "MISMATCH at edge" in capsys.readouterr().out


def test_tap_bad_trace_file(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("0 1 0\n")
    assert run(["tap", str(bad), CORE, "--plan", CORE_PLAN,
                "--out", str(tmp_path)]) == 1


SEQMINI = str(fixture_path("seqmini.bench"))


def _seqmini_plan(tmp_path):
    """A 20-pattern plan for seqmini, saved; returns it and its path."""
    plan = seqmini_plan()
    plan.save(tmp_path / "seq.plan.json")
    return plan, str(tmp_path / "seq.plan.json")


def test_sequential_commands_take_the_engine(tmp_path, capsys, monkeypatch):
    # tap, bist and signature diagnose on a core with flops agree with the
    # scalar session, which none of them runs
    netlist = circuit.load_netlist(SEQMINI)
    plan, plan_path = _seqmini_plan(tmp_path)
    tap = access.TapSession(bist.BistSession(netlist, plan))
    tap.tap_reset()
    tap.write_wcdr(access.CMD_RESET)
    tap.write_wcdr(access.CMD_SET_COUNT, 13)
    tap.write_wcdr(access.CMD_START)
    tap.write_wcdr(access.CMD_SET_COUNT, 20)
    tap.write_wcdr(access.CMD_START)
    tap.write_wcdr(access.CMD_READ_STATUS)
    status, _ = tap.read_wdr()
    assert status == access.STATUS_DONE
    trace, tdo = tap.trace()
    (tmp_path / "seq.trace").write_text(trace.render(tdo=tdo))
    golden = bist.compute_golden(netlist, plan).golden
    u = faultsim.collapse(faultsim.enumerate_faults(netlist), netlist)
    undetected = sum(bist.run_selftest(netlist, plan._replace(golden=golden),
                                       injected=f).all_pass for f in u.faults)

    def refuse(*args, **kwargs):
        raise AssertionError("a command ran the scalar session")
    monkeypatch.setattr(bist.BistSession, "run", refuse)
    monkeypatch.setattr(bist, "run_selftest", refuse)
    monkeypatch.setattr(bist, "compute_golden", refuse)
    assert run(["tap", str(tmp_path / "seq.trace"), SEQMINI, "--plan", plan_path,
                "--expect", str(tmp_path / "seq.trace"), "--out", str(tmp_path)]) == 0
    assert "TDO matches golden trace" in capsys.readouterr().out
    assert run(["bist", SEQMINI, "--plan", plan_path, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "bist_report.json").read_text())
    assert [int(s["value"], 16) for s in report["signatures"]] == \
        [s.value for s in golden]
    assert run(["diagnose", SEQMINI, "--plan", plan_path, "--granularity",
                "signature", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "diagnosis_report.json").read_text())
    assert report["overall"]["fault_count"] == len(u.faults)
    assert report["overall"]["undetected"] == undetected


def test_commands_never_run_the_oracle(tmp_path, monkeypatch):
    # every report comes from the kernels: no command evaluates a pattern
    # through the scalar evaluator, the serial fault simulator or the
    # scalar session
    _, seq_plan = _seqmini_plan(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a command ran the oracle")
    for owner, name in ((circuit, "evaluate"), (circuit, "run_patterns"),
                        (circuit, "toggle_activity"),
                        (faultsim, "serial_fault_sim"), (bist, "run_selftest"),
                        (bist, "compute_golden"), (bist.BistSession, "run"),
                        (bist.BistSession, "step"),
                        (bist.BistSession, "pattern_stream")):
        monkeypatch.setattr(owner, name, refuse)
    out = ["--out", str(tmp_path)]
    for bench, plan in ((MINI, MINI_PLAN), (SEQMINI, seq_plan)):
        assert run(["bist", bench, "--plan", plan, "--toggle", *out]) == 0
        assert run(["faultsim", bench, "--plan", plan, *out]) == 0
        for granularity in ("pattern", "signature"):
            assert run(["diagnose", bench, "--plan", plan, "--granularity",
                        granularity, *out]) == 0
    assert run(["tap", TRACE, CORE, "--plan", CORE_PLAN, "--expect", TRACE,
                *out]) == 0


def test_every_benchmark_span_names_a_corebist_function():
    # the traced benchmark run wraps each SPANS entry by name, so deleting
    # or renaming one of these functions breaks that run
    for short, names in perfbench("trace_shim").SPANS.items():
        module = importlib.import_module(f"corebist.{short}")
        for name in names:
            fn = module
            for part in name.split("."):      # "Class.method" names a method
                fn = getattr(fn, part, None)
            assert inspect.isfunction(fn), f"{short}.{name}"
            assert fn.__module__ == module.__name__, f"{short}.{name}"


def test_sequential_bist_and_tdf_run_one_pass(tmp_path, monkeypatch):
    # bist reads the golden signatures off the coverage pass, and TDF asks
    # for its stem planes before the fault-free ones
    _, plan_path = _seqmini_plan(tmp_path)
    passes = []
    real = faultsim.SequentialStimulus._errors

    def counting(*args, **kwargs):
        passes.append(len(args[1]))
        return real(*args, **kwargs)
    monkeypatch.setattr(faultsim.SequentialStimulus, "_errors", counting)
    for argv in (["bist"], ["faultsim", "--kinds", "tdf"],
                 ["faultsim", "--kinds", "saf,tdf"]):
        passes.clear()
        assert run(argv + [SEQMINI, "--plan", plan_path,
                           "--out", str(tmp_path)]) == 0, argv
        assert len(passes) == 1, (argv, passes)


def test_sequential_diagnose_runs_one_pass(tmp_path, monkeypatch):
    # the golden signatures come off the pass that gives the error planes,
    # and the detection planes off the pass that gives the fault-free ones
    cores = [(SEQMINI, _seqmini_plan(tmp_path)[1]), _sequential_core(tmp_path)]
    passes = []
    real = faultsim.SequentialStimulus._errors

    def counting(*args, **kwargs):
        passes.append(len(args[1]))
        return real(*args, **kwargs)
    monkeypatch.setattr(faultsim.SequentialStimulus, "_errors", counting)
    for bench, plan_path in cores:
        for granularity in ("pattern", "signature"):
            passes.clear()
            assert run(["diagnose", bench, "--plan", plan_path, "--granularity",
                        granularity, "--out", str(tmp_path)]) == 0
            report = json.loads((tmp_path / "diagnosis_report.json").read_text())
            assert passes == [report["overall"]["fault_count"]], \
                (bench, granularity, passes)


def test_diagnose_reports_byte_identical_across_workers(tmp_path):
    # a sequential core at both granularities, in one process
    cores = [(SEQMINI, _seqmini_plan(tmp_path)[1]), _sequential_core(tmp_path)]
    for case, (bench, plan_path) in enumerate(cores):
        for granularity in ("pattern", "signature"):
            reports = []
            for workers in ("1", "2"):
                out = tmp_path / f"{case}{granularity}w{workers}"
                out.mkdir()
                assert run(["diagnose", bench, "--plan", plan_path,
                            "--granularity", granularity, "--workers", workers,
                            "--out", str(out)]) == 0
                reports.append((out / "diagnosis_report.json").read_bytes())
            assert reports[0] == reports[1], (case, granularity)
            report = json.loads(reports[0])
            assert report["overall"]["granularity"] == granularity
            assert report["overall"]["class_count"] > 1, (case, granularity)


# -- diagnose -----------------------------------------------------------------------

def test_diagnose_pattern_granularity(tmp_path, capsys):
    assert run(["diagnose", MINI, "--plan", MINI_PLAN,
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "diagnosis_report.json").read_text())
    assert report["overall"]["granularity"] == "pattern"
    assert report["overall"]["fault_count"] > 0
    assert "MAIN" in report["per_block"]
    out = capsys.readouterr().out
    assert "Component" in out and "(overall)" in out


def test_diagnose_signature_granularity(tmp_path):
    assert run(["diagnose", MINI, "--plan", MINI_PLAN,
                "--granularity", "signature", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "diagnosis_report.json").read_text())
    assert report["overall"]["granularity"] == "signature"


def test_diagnose_rerun_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run(["diagnose", MINI, "--plan", MINI_PLAN, "--out", str(a)]) == 0
    assert run(["diagnose", MINI, "--plan", MINI_PLAN, "--out", str(b)]) == 0
    assert (a / "diagnosis_report.json").read_bytes() == \
        (b / "diagnosis_report.json").read_bytes()


# -- report -------------------------------------------------------------------------

def test_report_renders_bist_json(tmp_path, capsys):
    assert run(["bist", MINI, "--plan", MINI_PLAN, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run(["report", str(tmp_path / "bist_report.json")]) == 0
    out = capsys.readouterr().out
    assert "signature" in out and "MAIN" in out


def test_report_renders_other_json(tmp_path, capsys):
    f = tmp_path / "x.json"
    f.write_text('{"hello": 1}\n')
    assert run(["report", str(f)]) == 0
    assert '"hello": 1' in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    None, "{not json", b"\xff\xfe{}", "[1, 2]", '{"signatures": 7}',
    '{"netlist": "n", "alfsr": {"poly": "x^2+x+1", "seed": "0x1"}, '
    '"patterns_applied": 1, "signatures": [], "pass": [], "coverage": []}'])
def test_report_bad_file_is_an_error(tmp_path, capsys, content):
    # a missing file, bad JSON, bad text, a non-object, a broken bist report
    f = tmp_path / "bad.json"
    if isinstance(content, bytes):
        f.write_bytes(content)
    elif content is not None:
        f.write_text(content)
    assert run(["report", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {f}: "), err


@pytest.mark.parametrize("seed", ["0x0", "-0x1", "0x100", "0x100001", "abc"])
def test_plan_seed_outside_the_alfsr_range_is_an_error(tmp_path, capsys,
                                                       seed):
    # mini10's plan has a degree-8 ALFSR: seeds run 1..0xff; 'abc' is no
    # integer, which argparse reports as a usage error naming the option
    plan = json.loads(open(MINI_PLAN).read())
    plan["alfsr"]["seed"] = seed
    bad = tmp_path / "bad.plan.json"
    bad.write_text(json.dumps(plan))
    if seed == "abc":
        message = "error: alfsr.seed: expected an integer literal, got 'abc'\n"
        with pytest.raises(SystemExit) as exit_:
            run(["bist", MINI, "--plan", MINI_PLAN, "--seed", seed])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --seed: invalid seed value: 'abc'\n")
    else:
        message = f"error: ALFSR seed {int(seed, 0):#x} outside 1..2^8-1\n"
        argv = ["--plan", MINI_PLAN, f"--seed={seed}"]
        assert run(["bist", MINI, "--out", str(tmp_path)] + argv) == 1
        assert capsys.readouterr().err == message, argv
    assert run(["bist", MINI, "--out", str(tmp_path), "--plan", str(bad)]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "bist_report.json").exists()
    # the range's ends run
    for seed in ("0x1", "0xff"):
        assert run(["bist", MINI, "--plan", MINI_PLAN, "--seed", seed,
                    "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("value", ["0", "-2"])
def test_workers_below_one_is_an_error(tmp_path, capsys, value):
    argv = ["faultsim", MINI, "--plan", MINI_PLAN, "--out", str(tmp_path)]
    assert run(argv + ["--workers", value]) == 1
    assert capsys.readouterr().err.startswith("error: --workers")
    assert not (tmp_path / "coverage_report.json").exists()


# -- malformed plan files -----------------------------------------------------------

@pytest.mark.parametrize("text, message", [
    ('{"schema_version": 1}', "error: alfsr: missing"),
    ("{not json", "not a JSON plan"),
    ('{"schema_version": true}', "unsupported plan schema True"),
    ("[1, 2]", "error: plan: expected an object, got a list"),
])
def test_malformed_plan_is_a_clean_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.plan.json"
    path.write_text(text)
    assert run(["bist", MINI, "--plan", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_plan_field_of_wrong_type_is_named(tmp_path, capsys):
    plan = json.loads(open(MINI_PLAN).read())
    plan["bindings"][0]["width"] = "4"
    path = tmp_path / "bad.plan.json"
    path.write_text(json.dumps(plan))
    assert run(["bist", MINI, "--plan", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        "error: bindings[0].width: expected an integer, got a string\n"


@pytest.mark.parametrize("path, literal, form", [
    (("alfsr", "seed"), "beef1", "an integer"),
    (("bindings", 0, "cg", "schedule", 1, 0), "01x1", "a binary"),
    (("bindings", 0, "alfsr_slice", "0x0a"), "0x0a", "a decimal"),
    (("golden", 1, "value"), "4b6f", "an integer"),
], ids=["alfsr.seed", "cg.schedule", "alfsr_slice", "golden.value"])
def test_plan_integer_literal_names_its_form(tmp_path, capsys, path, literal,
                                              form):
    # on the core's plan; an alfsr_slice key is itself the literal, so the
    # key "10" is renamed
    plan = json.loads(open(CORE_PLAN).read())
    parent = plan
    for key in path[:-1]:
        parent = parent[key]
    if path[-2] == "alfsr_slice":
        parent[literal] = parent.pop("10")
    else:
        parent[path[-1]] = literal
    bad = tmp_path / "bad.plan.json"
    bad.write_text(json.dumps(plan))
    assert run(["bist", CORE, "--plan", str(bad), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (f"error: {_field_path(path)}: expected "
                                       f"{form} literal, got '{literal}'\n")


# fields a plan may leave out (list indices as None); the core's CG
# schedules have several steps, so one may go
_OPTIONAL_PLAN_FIELDS = {("counter_width",), ("pattern_count",), ("golden",),
                         ("bindings", None, "cg", "cyclic"),
                         ("bindings", None, "cg", "schedule", None)}
_JSON_VALUES = ("text", 7, 1.5, True, None, [], {})


def _json_paths(node, prefix=()):
    """Path (keys and list indices) of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _field_path(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _plan_mutations(rng, text, per_kind):
    """Seeded (kind, path, plan text, loads) mutations of a plan file:
    dropped fields, fields of another JSON type, truncated text."""
    paths = list(_json_paths(json.loads(text)))
    for kind in ("drop", "retype"):
        for _ in range(per_kind):
            path = rng.choice(paths)
            plan = json.loads(text)
            parent = plan
            for key in path[:-1]:
                parent = parent[key]
            if kind == "drop":
                del parent[path[-1]]
                loads = tuple(None if isinstance(k, int) else k
                              for k in path) in _OPTIONAL_PLAN_FIELDS
            else:
                old = type(parent[path[-1]])
                parent[path[-1]] = rng.choice([v for v in _JSON_VALUES
                                               if type(v) is not old])
                loads = False
            yield kind, path, json.dumps(plan), loads
    for _ in range(per_kind):
        cut = rng.randrange(len(text.rstrip()))
        yield "truncate", cut, text[:cut], False


def test_plan_loader_fuzz_never_escapes(tmp_path, capsys):
    text = open(MINI_PLAN).read()
    rng = random.Random(0xF022)
    codes = {}
    for i, (kind, path, mutated, loads) in enumerate(_plan_mutations(rng, text, 40)):
        plan = tmp_path / f"m{i}.plan.json"
        plan.write_text(mutated)
        where = (kind, path)
        code = run(["bist", MINI, "--plan", str(plan), "--out", str(tmp_path)])
        assert code == (0 if loads else 1), where
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, where
            if kind == "retype" and path != ("schema_version",):
                assert err.startswith(f"error: {_field_path(path)}: "), (where, err)
        codes.setdefault(kind, set()).add(code)
    assert codes == {"drop": {0, 1}, "retype": {1}, "truncate": {1}}


def test_plan_loader_fuzz_with_constraint_programs(tmp_path):
    # the case-study plan has CG bindings; load it straight, no command run
    text = open(CORE_PLAN).read()
    rng = random.Random(0xC6F)
    cg_paths = 0
    for i, (kind, path, mutated, loads) in enumerate(_plan_mutations(rng, text, 60)):
        plan = tmp_path / f"m{i}.plan.json"
        plan.write_text(mutated)
        cg_paths += kind != "truncate" and "cg" in path
        if loads:
            bist.BistPlan.load(plan)
            continue
        with pytest.raises(PlanError) as info:
            bist.BistPlan.load(plan)
        if kind == "retype" and path != ("schema_version",):
            assert str(info.value).startswith(f"{_field_path(path)}: "), \
                (path, str(info.value))
    assert cg_paths


def test_huge_binding_width_is_refused_quickly(tmp_path, capsys):
    plan = json.loads(open(MINI_PLAN).read())
    plan["bindings"][0]["width"] = 2_000_000
    path = tmp_path / "wide.plan.json"
    path.write_text(json.dumps(plan))
    start = time.perf_counter()
    assert run(["bist", MINI, "--plan", str(path), "--out", str(tmp_path)]) == 1
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: bindings[0]: ") and err.count("\n") == 1
    assert len(err) < 200 and "(1999996 bits)" in err


# -- bench and trace parser fuzz ------------------------------------------------------

_MUTATIONS = ("drop", "duplicate", "truncate", "stray", "binary")


def _line_mutations(rng, data, count):
    """Seeded (kind, mutated bytes) of a text file: a dropped, duplicated
    or truncated line, a stray punctuation character, or binary bytes."""
    lines = data.split(b"\n")
    for i in range(count):
        kind = _MUTATIONS[i % len(_MUTATIONS)]
        out = list(lines)
        k = rng.randrange(len(out))
        cut = rng.randrange(len(out[k]) + 1)
        if kind == "drop":
            del out[k]
        elif kind == "duplicate":
            out.insert(k, out[k])
        elif kind == "truncate":
            out[k] = out[k][:cut]
        elif kind == "stray":
            out[k] = out[k][:cut] + bytes([rng.choice(b"()=,#:;x1 @^")]) + out[k][cut:]
        else:
            out[k] = out[k][:cut] + rng.randbytes(rng.randint(1, 4)) + out[k][cut:]
        yield kind, b"\n".join(out)


def _assert_clean_exit(code, text, prefix, where):
    assert code in (0, 1), where
    if code:
        assert text.startswith(prefix) and text.count("\n") == 1, (where, text)


def test_bench_parser_fuzz_never_escapes(tmp_path, capsys):
    data = open(MINI, "rb").read()
    bench = tmp_path / "m.bench"
    codes = set()
    for i, (kind, mutated) in enumerate(_line_mutations(random.Random(0xBE4C),
                                                        data, 60)):
        bench.write_bytes(mutated)
        code = run(["lint", str(bench)])
        _assert_clean_exit(code, capsys.readouterr().out, "FAIL: ", (i, kind))
        code = run(["bist", str(bench), "--plan", MINI_PLAN, "--out", str(tmp_path)])
        _assert_clean_exit(code, capsys.readouterr().err, "error: ", (i, kind))
        codes.add(code)
    assert codes == {0, 1}


def test_trace_parser_fuzz_never_escapes(tmp_path, capsys):
    data = open(TRACE, "rb").read()
    trace = tmp_path / "m.trace"
    codes = set()
    for i, (kind, mutated) in enumerate(_line_mutations(random.Random(0x7ACE),
                                                        data, 40)):
        trace.write_bytes(mutated)
        code = run(["tap", str(trace), CORE, "--plan", CORE_PLAN,
                    "--out", str(tmp_path)])
        _assert_clean_exit(code, capsys.readouterr().err, "error: ", (i, kind))
        codes.add(code)
    assert codes == {0, 1}


# -- import surface -----------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(cli.__file__))

_LOADED = """
import json, sys
from corebist.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""

# what the dataclass machinery would drag in, and a process pool
_UNWANTED = {"dataclasses", "inspect", "concurrent.futures", "multiprocessing"}


def _fresh_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC))


@pytest.mark.parametrize("command, loads, skips", [
    (["bist", MINI, "--plan", MINI_PLAN], "corebist.faultsim",
     {"corebist.access", "corebist.diagnosis"}),
    (["faultsim", MINI, "--plan", MINI_PLAN], "corebist.faultsim",
     {"corebist.access", "corebist.diagnosis"}),
    (["tap", TRACE, CORE, "--plan", CORE_PLAN, "--expect", TRACE],
     "corebist.access", {"corebist.diagnosis"}),
    (["diagnose", MINI, "--plan", MINI_PLAN], "corebist.diagnosis",
     {"corebist.access"}),
])
def test_each_command_imports_only_what_it_runs(tmp_path, command, loads,
                                                skips):
    # --workers 2 still runs in one process
    out = _fresh_python("-c", _LOADED, *command, "--workers", "2",
                        "--out", str(tmp_path)).stdout
    loaded = set(json.loads(out.splitlines()[-1]))
    assert loads in loaded
    unwanted = (skips | _UNWANTED) & loaded
    assert not unwanted, unwanted


def test_no_file_imports_a_name_it_never_reads():
    # the project has no linter; the package's __init__ imports names to
    # re-export them
    root = pathlib.Path(SRC).parent
    unused = []
    for path in sorted({*root.glob("src/corebist/*.py"),
                        *root.glob("tests/*.py"), *root.glob("tools/*.py")}
                       - {root / "src/corebist/__init__.py"}):
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                names = (a.asname or a.name.split(".")[0] for a in node.names)
                unused += [f"{path.relative_to(root)}:{node.lineno}: {name}"
                           for name in names if name not in read]
    assert not unused, unused


def test_package_attributes_load_submodules_on_first_use():
    _fresh_python("-c", """
import sys, corebist
assert "corebist.faultsim" not in sys.modules
assert callable(corebist.faultsim.collapse)
assert corebist.faultsim is sys.modules["corebist.faultsim"]
assert not hasattr(corebist, "nonexistent")
""")


def test_granularity_choices_match_diagnosis():
    from corebist import diagnosis
    assert cli.GRANULARITIES == diagnosis.GRANULARITIES
