"""End-to-end CLI behavior: exit codes, stdout JSON, exported artifacts."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quditcycle
import quditcycle.cli as cli
from quditcycle.cli import (
    EXIT_BAD_PERMUTATION,
    EXIT_BROKEN_PIPE,
    EXIT_NOT_CYCLIC,
    EXIT_OK,
    EXIT_UNCONVERGED,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)
from quditcycle.nmr import PulseSegment, SpinSystem, sequence_propagator
from quditcycle.permutations import Chirality, Permutation, reflection, rotation
from quditcycle.protocol import theory_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [["--perm", "3,1,4,2", "--relabel", "2,1,3,4"], ["--perm", "2,3,1", "--fourier", "qutrit"]],
    ids=["relabel", "qutrit"],
)
def test_run_classical_refuses_quantum_only_flags(argv, capsys):
    # classical mode dropped both silently: 3,1,4,2 relabeled by 2,1,3,4 is
    # positive-cyclic, yet it answered not-cyclic with exit 0
    code, out, err = run_cli(capsys, "run", *argv, "--mode", "classical", "--json")
    assert code == EXIT_BAD_PERMUTATION
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("mode", ["quantum", "classical"])
def test_run_empty_relabel_exits_two(mode, capsys):
    # --relabel= was tested for truthiness and taken as "no relabeling" with
    # exit 0 in both modes, while --perm= is refused as malformed
    for argv in (["--relabel", ""], ["--relabel="]):
        code, out, err = run_cli(capsys, "run", "--perm", "2,3,1", *argv, "--mode", mode)
        assert code == EXIT_BAD_PERMUTATION
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_run_empty_out_exits_two(tmp_path, capsys, monkeypatch):
    # --out= was tested for truthiness: no file was written and the report
    # went to stdout with exit 0
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "run", "--perm", "2,3,1", "--out=")
    assert code == EXIT_BAD_PERMUTATION
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


# run refusals the goldens do not record: they hold sizes 3..8 only, and no
# affine map with a unit multiplier other than +-1
_RUN_REFUSALS = {
    # (1,2) and (2,1) used to be answered "negative-cyclic" with exit 0
    "1,2": (EXIT_BAD_PERMUTATION, "the cyclic promise needs dim >= 3, got 2"),
    "2,1": (EXIT_BAD_PERMUTATION, "the cyclic promise needs dim >= 3, got 2"),
    "1": (EXIT_BAD_PERMUTATION, "the cyclic promise needs dim >= 3, got 1"),
    "2,1 --mode classical": (EXIT_BAD_PERMUTATION, "the cyclic promise needs dim >= 3, got 2"),
    # x -> 2x - 1 mod 5: the circuit lands it on |4>, neither |2> nor |5>
    "1,3,5,2,4": (EXIT_NOT_CYCLIC, "permutation (1, 3, 5, 2, 4) is not cyclic in the requested labeling"),
}


@pytest.mark.parametrize("args", _RUN_REFUSALS)
def test_run_refusals_the_goldens_do_not_record(args, capsys):
    code, err = _RUN_REFUSALS[args]
    assert run_cli(capsys, "run", "--perm", *args.split()) == (code, "", f"error: {err}\n")


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_run_unwritable_out_exits_two(extra, tmp_path, capsys):
    # used to print the result line, then end in a FileNotFoundError
    # traceback with the "verification failed" code 1
    path = tmp_path / "missing" / "rep.json"
    code, out, err = run_cli(capsys, "run", "--perm", "2,3,4,1", "--out", str(path), *extra)
    assert code == EXIT_BAD_PERMUTATION
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
    assert not path.exists()


def test_main_dispatches_by_name_at_call_time(capsys, monkeypatch):
    # the parser is built once, so the command must not be bound into it
    assert run_cli(capsys, "verify", "--dmax", "3", "--json")[0] == EXIT_OK
    seen = []

    def fake_verify(args):
        seen.append(args.dmax)
        return EXIT_VERIFY_FAILED

    monkeypatch.setattr("quditcycle.cli.cmd_verify", fake_verify)
    assert run_cli(capsys, "verify", "--dmax", "3", "--json") == (EXIT_VERIFY_FAILED, "", "")
    assert seen == [3]


def test_one_parser_serves_repeated_calls(tmp_path, capsys):
    assert build_parser() is build_parser()

    def call(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        return (code, *capsys.readouterr())

    argvs = [
        ("run", "--perm", "3,4,2,1", "--relabel", "1,3,2,4", "--json"),
        ("run", "--perm", "2,3,1", "--mode", "sideways"),
        ("nmr", "--gate", "fullneg", "--ideal", "--noise-sigma", "0.01", "--out", str(tmp_path), "--json"),
    ]
    first = [call(*argv) for argv in argvs]
    assert [r[0] for r in first] == [EXIT_OK, ("SystemExit", 2), EXIT_OK]
    assert "invalid choice" in first[1][2]
    for argv, want in [*zip(argvs, first), *zip(reversed(argvs), reversed(first))]:
        assert call(*argv)[:2] == want[:2]


def test_closed_stdout_exits_with_its_own_code_and_no_traceback():
    # a reader that has gone is neither a verification failure (1) nor a traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(quditcycle.__file__).parent.parent)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quditcycle", "verify", "--dmax", "3", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""


def _run_module(*argv, stdout):
    env = {**os.environ, "PYTHONPATH": str(Path(quditcycle.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "quditcycle", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["human", "json"])
def test_unwritable_stdout_exits_two_with_one_line(extra):
    # a full device under stdout used to end in an OSError traceback with
    # exit 1, the "verification failed" code
    with open("/dev/full", "wb") as full:
        proc = _run_module("verify", "--dmax", "3", *extra, stdout=full)
    assert proc.returncode == EXIT_BAD_PERMUTATION
    err = proc.stderr.decode()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: cannot write output: [Errno 28]")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["nmr", "--help"]], ids=["top", "nmr"])
def test_unwritable_help_exits_two_with_one_line(argv):
    # argparse swallowed the OSError and the help exited 0 with nothing written
    with open("/dev/full", "wb") as full:
        proc = _run_module(*argv, stdout=full)
    assert proc.returncode == EXIT_BAD_PERMUTATION
    err = proc.stderr.decode()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: cannot write output: [Errno 28]")


def test_held_help_is_written_and_still_leaves_main_as_system_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: quditcycle")


def test_an_oserror_from_the_command_is_not_called_a_stdout_failure(capsys, monkeypatch):
    def failing_verify(args):
        raise OSError("not from stdout")

    monkeypatch.setattr("quditcycle.cli.cmd_verify", failing_verify)
    with pytest.raises(OSError, match="not from stdout"):
        main(["verify", "--dmax", "3"])
    assert capsys.readouterr().err == ""


def test_run_out_into_the_stdout_pipe_exits_zero():
    proc = _run_module("run", "--perm", "2,3,1", "--out", "/dev/stdout", "--json", stdout=subprocess.PIPE)
    assert proc.returncode == EXIT_OK and proc.stderr == b""
    first, second = proc.stdout.decode().split("}\n{")  # the report file, then the --json print
    assert json.loads(first + "}") == json.loads("{" + second)


@pytest.mark.parametrize(
    "value,message",
    [
        ("2", "must be an integer in [3, 64], got '2'"),
        ("65", "must be an integer in [3, 64], got '65'"),
        ("x", "invalid int value: 'x'"),
    ],
)
def test_verify_dmax_out_of_range_is_one_line(value, message, capsys):
    # choices=range(3, 65) used to list all 62 accepted values in the error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dmax", value])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_BAD_PERMUTATION == 2
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"quditcycle verify: error: argument --dmax: {message}"]
    assert len(err.splitlines()) == 2  # the usage line, then the error


def test_verify_classes_each_dim_once(monkeypatch, capsys):
    # one_query_insufficient used to enumerate and class each d a second
    # time, and verify called classify_cyclic on each permutation it had
    # built; it now reads each class from the enumeration's order
    def refuse(p):
        raise AssertionError(f"classify_cyclic({p}) was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quditcycle" and hasattr(module, "classify_cyclic"):
            monkeypatch.setattr(module, "classify_cyclic", refuse)
    monkeypatch.setattr(cli, "classify_cyclic", refuse, raising=False)
    code, out, _ = run_cli(capsys, "verify", "--dmax", "12", "--json")
    assert code == EXIT_OK and json.loads(out)["ok"] is True


def test_verify_labels_carry_weight(monkeypatch, capsys):
    # each permutation's class is its position in enumerate_cyclic(d); an
    # enumeration that lists the reflections first must fail every row
    enumerate_cyclic = cli.enumerate_cyclic
    monkeypatch.setattr(cli, "enumerate_cyclic", lambda d: enumerate_cyclic(d)[d:] + enumerate_cyclic(d)[:d])
    code, out, _ = run_cli(capsys, "verify", "--dmax", "4", "--json")
    blob = json.loads(out)
    assert code == EXIT_VERIFY_FAILED == 1 and blob["ok"] is False
    assert [row["classifications"] for row in blob["rows"]] == [False, False]
    assert blob["rows"][0]["witnesses"]["classifications"] == {
        "dim": 3,
        "permutation": list(reflection(3, 0).image),
        "expected": "positive-cyclic",
        "observed": "negative-cyclic",
    }


@pytest.mark.parametrize(
    "dmax,d,at,image,classical",
    [
        # the swap: a superposition, refused by its top probability; d = 4's first member
        (4, 4, 0, (2, 1, 3, 4), "negative-cyclic"),
        # x -> 2x - 1 mod 5: lands on |4> alone, refused by its level; a middle row of a middle size
        (6, 5, 7, (1, 3, 5, 2, 4), "not-cyclic"),
    ],
)
def test_a_non_cyclic_family_member_is_a_witness(monkeypatch, capsys, dmax, d, at, image, classical):
    # the one-query run refuses a member outside the promise; that raised
    # NotCyclicError out of verify as a traceback, and is now a witness whose
    # refused run has no phase to check, in its own row only
    enumerate_cyclic = cli.enumerate_cyclic

    def family(n):
        members = enumerate_cyclic(n)
        return [*members[:at], Permutation(image), *members[at + 1 :]] if n == d else members

    monkeypatch.setattr(cli, "enumerate_cyclic", family)
    code, out, err = run_cli(capsys, "verify", "--dmax", str(dmax), "--json")
    blob = json.loads(out)
    assert code == EXIT_VERIFY_FAILED and blob["ok"] is False and err == ""
    expected = "positive-cyclic" if at < d else "negative-cyclic"
    assert [row.get("witnesses") for row in blob["rows"]] == [None] * (d - 3) + [
        {
            "classifications": {
                "dim": d,
                "permutation": list(image),
                "expected": expected,
                "observed": "not-cyclic",
            },
            "classical_two_queries": {
                "dim": d,
                "permutation": list(image),
                "expected": {"classification": expected, "oracle_queries": 2},
                "observed": {"classification": classical, "oracle_queries": 2},
            },
        }
    ] + [None] * (dmax - d)


def test_verify_human_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dmax", "3")
    assert code == EXIT_OK
    assert "d= 3" in out and "all checks passed" in out

    code, out, _ = run_cli(capsys, "verify", "--dmax", "4")
    assert code == EXIT_OK
    *lines, last = out.splitlines()
    marks = "classifications=ok  phases=ok  one_query_insufficient=ok  classical_two_queries=ok"
    assert lines == [f"d= 3  {marks}", f"d= 4  {marks}", "d= 3  chirality coincides with even/odd parity: ok"]
    assert re.fullmatch(r"all checks passed in \d+\.\d\ds", last)


def _wrong_phase(monkeypatch):
    # the phases of reflection(4, 2) and reflection(4, 3) flip sign; the first is the witness
    table = cli.phase_table

    def mutant(d):
        entries = dict(table(d))
        if d == 4:
            for r in (2, 3):
                entries[(Chirality.NEGATIVE, r)] *= -1
        return entries

    monkeypatch.setattr(cli, "phase_table", mutant)
    expected = -table(4)[(Chirality.NEGATIVE, 2)]
    observed = cli.run_quantum(reflection(4, 2)).phase  # the phase verify reports, bit for bit
    return "phases", {
        "dim": 4,
        "permutation": [2, 1, 4, 3],
        "expected": {"re": expected.real, "im": expected.imag},
        "observed": {"re": observed.real, "im": observed.imag},
    }


def _wrong_class(monkeypatch):
    # d = 4's fifth member, reflection(4, 0) = 4,3,2,1, becomes 4,3,1,2: the
    # one-query run refuses it, and its f(1) and f(2) still class it negative
    enumerate_cyclic = cli.enumerate_cyclic

    def mutant(d):
        members = enumerate_cyclic(d)
        return [*members[:4], Permutation((4, 3, 1, 2)), *members[5:]] if d == 4 else members

    monkeypatch.setattr(cli, "enumerate_cyclic", mutant)
    return "classifications", {
        "dim": 4,
        "permutation": [4, 3, 1, 2],
        "expected": "negative-cyclic",
        "observed": "not-cyclic",
    }


def _three_queries(monkeypatch):
    run = cli.run_classical

    def mutant(p):
        report = run(p)
        return dataclasses.replace(report, oracle_queries=3) if p.dim == 4 and p.image[0] > 2 else report

    monkeypatch.setattr(cli, "run_classical", mutant)
    return "classical_two_queries", {
        "dim": 4,
        "permutation": list(rotation(4, 2).image),
        "expected": {"classification": "positive-cyclic", "oracle_queries": 2},
        "observed": {"classification": "positive-cyclic", "oracle_queries": 3},
    }


def _insufficient_fails(monkeypatch):
    monkeypatch.setattr(cli, "one_query_insufficient", lambda d: d != 4)
    return "one_query_insufficient", {"dim": 4}


@pytest.mark.parametrize("mutate", [_wrong_phase, _wrong_class, _three_queries, _insufficient_fails])
def test_a_failing_verify_check_names_its_first_witness(mutate, monkeypatch, capsys):
    check, witness = mutate(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--dmax", "4", "--json")
    blob = json.loads(out)
    assert code == EXIT_VERIFY_FAILED and blob["ok"] is False and err == ""
    row3, row4 = blob["rows"]
    assert "witnesses" not in row3 and all(row3.values())
    assert row4.pop("witnesses") == {check: witness}
    assert row4 == {
        "dim": 4,
        "classifications": True,
        "phases": True,
        "one_query_insufficient": True,
        "classical_two_queries": True,
        check: False,
    }

    code, out, _ = run_cli(capsys, "verify", "--dmax", "4")
    assert code == EXIT_VERIFY_FAILED
    lines = out.splitlines()
    at = lines.index(next(line for line in lines if line.startswith("d= 4")))
    assert f"{check}=FAIL" in lines[at]
    assert lines[at + 1] == f"      {check} witness: {json.dumps(witness, sort_keys=True)}"
    assert lines[at + 2].startswith("d= 3  chirality") and "FAILURES detected" in lines[-1]


def test_two_checks_failing_in_one_row_name_their_own_first_witnesses(monkeypatch, capsys):
    # rotation(4, 2) is the third permutation enumerated, the refused 4,3,1,2 the fifth
    class_check, class_witness = _wrong_class(monkeypatch)
    two_check, two_witness = _three_queries(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--dmax", "4", "--json")
    blob = json.loads(out)
    assert code == EXIT_VERIFY_FAILED and blob["ok"] is False
    row4 = blob["rows"][1]
    assert row4.pop("witnesses") == {class_check: class_witness, two_check: two_witness}
    assert row4 == {
        "dim": 4,
        "classifications": False,
        "phases": True,
        "one_query_insufficient": True,
        "classical_two_queries": False,
    }

    code, out, _ = run_cli(capsys, "verify", "--dmax", "4")
    assert code == EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert lines[1].startswith("d= 4  classifications=FAIL  phases=ok")
    assert lines[2:4] == [
        f"      {check} witness: {json.dumps(witness, sort_keys=True)}"
        for check, witness in ((two_check, two_witness), (class_check, class_witness))
    ]
    assert "FAILURES detected" in lines[-1]


def test_verify_parity_column_fails_on_its_own(monkeypatch, capsys):
    parity = cli.parity
    monkeypatch.setattr(cli, "parity", lambda p: -parity(p) if p.dim == 3 else parity(p))
    code, out, err = run_cli(capsys, "verify", "--dmax", "3", "--json")
    blob = json.loads(out)
    assert code == EXIT_VERIFY_FAILED and err == ""
    assert blob["ok"] is False and blob["parity_is_chirality_at_dim3"] is False
    assert blob["rows"] == [
        {
            "dim": 3,
            "classifications": True,
            "phases": True,
            "one_query_insufficient": True,
            "classical_two_queries": True,
        }
    ]

    code, out, _ = run_cli(capsys, "verify", "--dmax", "3")
    assert code == EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert lines[-2] == "d= 3  chirality coincides with even/odd parity: FAIL"
    assert lines[-1].startswith("FAILURES detected in ")


def test_a_reported_fidelity_is_accepted_back_as_min_fidelity(tmp_path, capsys):
    # rounding put the synthesized fullneg fidelity at 1.0000000000000024, which
    # --min-fidelity then refused with "must be in (0, 1]"; every golden report is at most 1
    golden = {name: json.loads((Path(__file__).resolve().parent / "golden" / f"{name}.json").read_text()) for name in ("nmr", "synth")}
    reports = [json.loads(case["stdout"]) for cases in golden.values() for case in cases.values() if case["stdout"].startswith("{")]
    assert len(reports) == 18 and max(report["fidelity"] for report in reports) <= 1.0
    fidelity = json.loads(golden["synth"]["fullneg"]["stdout"])["fidelity"]
    argv = ["nmr", "--gate", "fullneg", "--ideal", "--min-fidelity", repr(fidelity), "--out", str(tmp_path), "--json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "") and json.loads(out)["config"]["min_fidelity"] == fidelity


def test_nmr_outdir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUDITCYCLE_OUTDIR", str(tmp_path / "artifacts"))
    code, _, _ = run_cli(capsys, "nmr", "--gate", "fullpos", "--ideal")
    assert code == EXIT_OK
    assert (tmp_path / "artifacts" / "fullpos_report.json").exists()


@pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "smp"])
def test_nmr_unusable_out_exits_two_before_synthesis(ideal, tmp_path, capsys, monkeypatch):
    # an --out that is a file used to raise FileExistsError (exit 1), and
    # without --ideal only after the whole synthesis
    def no_synthesis(*args, **kwargs):
        raise AssertionError("the protocol ran before --out was checked")

    monkeypatch.setattr("quditcycle.protocol.run_protocol", no_synthesis)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    argv = ["nmr", "--gate", "qft", "--out", str(blocker)] + (["--ideal"] if ideal else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_BAD_PERMUTATION
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_nmr_unwritable_artifact_exits_two(tmp_path, capsys):
    (tmp_path / "qft_report.json").mkdir()  # a directory where the report goes
    code, out, err = run_cli(capsys, "nmr", "--gate", "qft", "--ideal", "--out", str(tmp_path), "--json")
    assert code == EXIT_BAD_PERMUTATION
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_run_out_rewrites_a_longer_file_without_a_stale_tail(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_bytes(b"x" * 10_000)
    code, out, _ = run_cli(capsys, "run", "--perm", "2,3,1", "--out", str(path), "--json")
    assert code == EXIT_OK
    assert path.read_text() == out  # the same report, and nothing after it


def test_nmr_rewrite_equals_a_fresh_export(tmp_path, capsys):
    # the noisy CSVs are longer than the noiseless ones that overwrite them
    noise = ["--noise-sigma", "0.01"]
    for out, extra in ((tmp_path / "reused", noise), (tmp_path / "reused", []), (tmp_path / "fresh", [])):
        assert run_cli(capsys, "nmr", "--gate", "fullneg", "--ideal", *extra, "--out", str(out))[0] == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert sorted(p.name for p in (tmp_path / "reused").iterdir()) == names
    assert len([n for n in names if n.endswith(".csv")]) == 4
    for name in names:
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


def test_new_artifacts_are_not_executable(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        assert run_cli(capsys, "run", "--perm", "2,3,1", "--out", str(tmp_path / "r.json"))[0] == EXIT_OK
        assert run_cli(capsys, "nmr", "--gate", "qft", "--ideal", "--out", str(tmp_path / "nmr"))[0] == EXIT_OK
    finally:
        os.umask(old)
    paths = [tmp_path / "r.json", *(tmp_path / "nmr").iterdir()]
    assert len(paths) == 6
    for path in paths:
        assert path.stat().st_mode & 0o777 == 0o666 & ~0o027 == 0o640, path


def test_rewrite_keeps_the_inode_and_its_links(tmp_path, capsys):
    path, link = tmp_path / "r.json", tmp_path / "link.json"
    assert run_cli(capsys, "run", "--perm", "2,3,4,1", "--out", str(path))[0] == EXIT_OK
    os.link(path, link)
    inode = path.stat().st_ino
    assert run_cli(capsys, "run", "--perm", "2,3,1", "--out", str(path))[0] == EXIT_OK
    assert path.stat().st_ino == inode
    assert json.loads(link.read_text())["permutation"]["image"] == [2, 3, 1]


def test_run_out_dev_null_exits_zero(capsys):
    code, out, err = run_cli(capsys, "run", "--perm", "2,3,1", "--out", os.devnull)
    assert code == EXIT_OK and err == ""
    assert out.startswith("2,3,1 -> positive-cyclic")


def test_nmr_rewrite_never_truncates_to_zero(tmp_path, capsys, monkeypatch):
    # on ext4 a truncation to zero makes close() start writeback of the file:
    # about 0.1 ms per artifact, more than the rest of nmr --ideal
    argv = ["nmr", "--gate", "fullneg", "--ideal", "--noise-sigma", "0.01", "--out", str(tmp_path)]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    opened, truncated, path_of = [], [], {}
    real_open, real_ftruncate = os.open, os.ftruncate

    def spy_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if str(path).startswith(str(tmp_path)):
            opened.append((Path(path), flags))
            path_of[fd] = Path(path)  # fds are reused once closed
        return fd

    def spy_ftruncate(fd, length):
        truncated.append((path_of[fd], length))
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    monkeypatch.undo()
    artifacts = sorted(tmp_path.iterdir())
    assert len(artifacts) == 5
    assert sorted(path for path, _ in opened) == artifacts
    assert not any(flags & os.O_TRUNC for _, flags in opened)
    assert sorted(truncated) == [(path, path.stat().st_size) for path in artifacts]
    assert all(length > 0 for _, length in truncated)


def test_csv_is_the_repr_of_each_element_at_float_edges(tmp_path):
    # the goldens hold only typical values: signed zero, the smallest
    # subnormal, tiny, large and the largest finite magnitudes, inexact fractions
    def reference(data):  # the writer's body before its row labels were built once per shape
        rows = [f"{i},{j},{v!r}\n" for i, row in enumerate(data.tolist(), 1) for j, v in enumerate(row, 1)]
        return "i,j,value\n" + "".join(rows)

    edges = np.array([-0.0, 5e-324, 1e16, 0.1 + 0.2, -1e-300, 1 / 3, 1e-300, 0.1, 1.7976931348623157e308])
    edges = np.concatenate([edges, -edges[::-1]])
    path = tmp_path / "m.csv"
    for shape in ((1, 1), (4, 4), (3, 5)):
        n = shape[0] * shape[1]
        x = np.resize(edges, n).reshape(shape)
        z = x + 1j * np.resize(edges[::-1], n).reshape(shape)
        for data in (x, z.real, z.imag):  # a plain array, and the strided views cmd_nmr passes
            cli._write_csv(str(path), data)
            assert path.read_bytes() == reference(data).encode()


def _json_dumps(obj):
    """The layout every report, pulse file and --json output is written in."""
    return json.dumps(obj, indent=2, sort_keys=True)


_FLOAT_EDGES = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]
# non-ASCII, control characters and lone surrogates, which the escaper writes as \uXXXX
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(_FLOAT_EDGES)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _TEXT
)


def _nested(depth):
    values = _SCALARS
    for _ in range(depth):
        kids = values
        values = (
            _SCALARS
            | st.lists(kids, max_size=4)
            | st.lists(kids, max_size=4).map(tuple)
            | st.dictionaries(_TEXT, kids, max_size=4)
        )
    return values


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_nested(4))
def test_dumps_is_json_dumps_bitwise(obj):
    # json's indent took its pure-Python encoder; the writer must keep every byte
    assert cli._dumps(obj) == _json_dumps(obj)


def _sub_objects(obj, documents):
    """obj and everything it holds; the JSON documents held in its strings (stdout, files) go to documents too."""
    yield obj
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, list):
        children = obj
    else:
        children = []
        if isinstance(obj, str) and obj.lstrip()[:1] in ("{", "["):
            try:
                children = [json.loads(obj)]
            except ValueError:
                pass
            documents.extend(children)
    for child in children:
        yield from _sub_objects(child, documents)


@pytest.mark.parametrize("name", ["nmr", "run", "synth", "verify"])
def test_dumps_matches_json_dumps_on_every_golden_sub_object_bitwise(name):
    documents = []
    for obj in _sub_objects(json.loads((Path(__file__).resolve().parent / "golden" / f"{name}.json").read_text()), documents):
        assert cli._dumps(obj) == _json_dumps(obj), obj
    assert documents  # the reports recorded as stdout and file text were walked too


_NOT_JSON = {
    "numpy-int": np.int64(1),
    "set": {1, 2},
    "object": object(),
    "int-key": {1: "a"},
    "mixed-keys": {"a": 1, 2: "b"},
    "tuple-key": {(1,): 2},
    "nested-numpy-float": [{"ok": np.float32(1)}],
    "bytes": b"x",
}


@pytest.mark.parametrize("obj", _NOT_JSON.values(), ids=_NOT_JSON.keys())
def test_dumps_refuses_what_is_not_json_bitwise(obj):
    # json.dumps refuses these too, except the int key, which it writes as "1"
    with pytest.raises(TypeError):
        cli._dumps(obj)


def test_write_finishes_after_short_writes(tmp_path, monkeypatch):
    # os.write may take fewer bytes than it is given: one byte a call here
    real_write, calls = os.write, []

    def one_byte(fd, data):
        calls.append(fd)
        return real_write(fd, bytes(data[:1]))

    path = tmp_path / "short.txt"
    path.write_bytes(b"x" * 500)  # longer than the text, so the tail must go too
    text = "i,j,value\n1,1,-0.0\n\u03c8\n"
    monkeypatch.setattr(os, "write", one_byte)
    cli._write(str(path), text)
    monkeypatch.undo()
    assert path.read_bytes() == text.encode() and len(calls) == len(text.encode())


def test_nmr_smp_deterministic_artifacts(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"segments": 2, "restarts": 1, "min_fidelity": 0.3, "max_iter": 300}))
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out in (a_dir, b_dir):
        code, _, _ = run_cli(
            capsys,
            "nmr", "--gate", "qft", "--config", str(cfg), "--seed", "11", "--out", str(out),
        )
        assert code == EXIT_OK
    for name in ("qft_report.json", "qft_pulses.json", "qft_rho_re.csv", "qft_dev_im.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    pulses = json.loads((a_dir / "qft_pulses.json").read_text())
    assert len(pulses) == 2
    assert set(pulses[0]) == {"amp_hz", "phase_rad", "dur_s"}
    # the exported train, propagated again from |2>, reproduces the reported fidelity
    train = [PulseSegment(2 * np.pi * p["amp_hz"], p["phase_rad"], p["dur_s"]) for p in pulses]
    psi = sequence_propagator(SpinSystem(), train)[:, 1]
    report = json.loads((a_dir / "qft_report.json").read_text())
    fid = abs(np.vdot(theory_state("positive", "after_qft"), psi)) ** 2
    assert fid == pytest.approx(report["fidelity"], abs=1e-12)


def test_nmr_unconverged_exit(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "nmr", "--gate", "fullneg", "--segments", "1", "--restarts", "1",
        "--min-fidelity", "0.9999", "--out", str(tmp_path), "--json",
    )
    assert code == EXIT_UNCONVERGED
    report = json.loads(out)
    assert report["unconverged"] is True
    # artifacts are still written for inspection
    assert (tmp_path / "fullneg_report.json").exists()
    assert (tmp_path / "fullneg_pulses.json").exists()


def test_nmr_unconverged_human_output(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "nmr", "--gate", "fullneg", "--segments", "1", "--restarts", "1",
        "--min-fidelity", "0.9999", "--out", str(tmp_path),
    )
    assert code == EXIT_UNCONVERGED
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("  [UNCONVERGED]")
    assert lines[1] == f"artifacts written under {tmp_path}/"
    names = ["rho_re.csv", "rho_im.csv", "dev_re.csv", "dev_im.csv", "report.json", "pulses.json"]
    assert all((tmp_path / f"fullneg_{name}").exists() for name in names)


def test_nmr_overflowing_noise_exits_two_without_artifacts(tmp_path, capsys):
    # --noise-sigma 1e308 used to warn, then exit 1 with a traceback from pseudo_pure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "nmr", "--gate", "fullneg", "--ideal", "--noise-sigma", "1e308",
            "--noise-seed", "0", "--out", str(tmp_path), "--json",
        )
    assert code == EXIT_BAD_PERMUTATION and out == ""
    assert err.splitlines() == [
        "error: bad --noise-sigma: readout noise with sigma 1e+308 overflows: the perturbed matrix is not finite"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed_flag, want", [([], 1), (["--seed", "3"], 3)], ids=["config", "flag"])
def test_nmr_seed_flag_overrides_config_and_is_reported(seed_flag, want, tmp_path, capsys):
    # a config file's seed used to beat --seed, while the report quoted the flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    argv = ["nmr", "--gate", "qft", "--ideal", "--config", str(cfg), *seed_flag, "--out", str(tmp_path), "--json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["seed"] == report["config"]["seed"] == want


@pytest.mark.parametrize("text,kind", [('"abc"', "str"), ("[1, 2]", "list"), ("5", "int"), ("null", "NoneType")])
def test_nmr_config_must_be_a_json_object(text, kind, tmp_path, capsys):
    # a string or list was read as its characters or items ("unknown config
    # keys ['a', 'b', 'c']") and a number failed with "'int' object is not iterable"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "nmr", "--gate", "qft", "--ideal", "--config", str(cfg))
    assert code == EXIT_BAD_PERMUTATION
    assert out == ""
    assert err == f"error: bad optimizer config: config file must hold a JSON object, got {kind}\n"


def test_nmr_empty_out_exits_two(tmp_path, capsys, monkeypatch):
    # --out= fell through to $QUDITCYCLE_OUTDIR, or else wrote the artifacts
    # into the current directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QUDITCYCLE_OUTDIR", str(tmp_path / "artifacts"))
    code, out, err = run_cli(capsys, "nmr", "--gate", "qft", "--ideal", "--out=")
    assert code == EXIT_BAD_PERMUTATION
    assert out == "" and err.startswith("error: cannot write output:") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_nmr_deeply_nested_config_exits_two(tmp_path, capsys):
    # json.load ended in a RecursionError traceback with exit 1, the
    # "verification failed" code
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "nmr", "--gate", "qft", "--ideal", "--config", str(cfg))
    assert code == EXIT_BAD_PERMUTATION
    assert out == "" and err.startswith("error: bad optimizer config:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--segments", "0"],
        ["--restarts", "0"],
        ["--min-fidelity", "0"],
        ["--min-fidelity", "nan"],
        ["--epsilon", "2"],
        ["--epsilon", "-0.5"],
        ["--epsilon", "nan"],
        ["--epsilon", "inf"],
        ["--noise-sigma", "-1"],
        ["--noise-sigma", "nan"],
        ["--noise-sigma", "inf"],
        ["--seed", "-1"],
        ["--noise-sigma", "0.01", "--noise-seed", "-1"],
        ["--config", '{"segments": 2.5}'],
        ["--config", '{"restarts": 1.5}'],
        ["--config", '{"seed": 1.5}'],
        ["--config", '{"max_iter": 10.5}'],
        ["--config", '{"segments": 1, "max_iter": 0}'],
        ["--config", '{"restarts": true}'],
        ["--config", '{"min_fidelity": true}'],
        ["--config="],  # was tested for truthiness and ran with the default settings
        # an OverflowError traceback with exit 1 from the float conversion of a 401-digit int
        pytest.param(["--config", '{"min_fidelity": 1%s}' % ("0" * 400)], id="--config=min_fidelity-10**400"),
    ],
    ids="=".join,
)
def test_nmr_invalid_settings_exit_two_before_synthesis(flags, tmp_path, capsys):
    # without --ideal a bad setting would otherwise surface only after pulse
    # synthesis, as a traceback with the "verification failed" code 1
    named = None
    if flags[0] == "--config":  # the second item is the file's JSON text, whose last key is the bad one
        path = tmp_path / "cfg.json"
        path.write_text(flags[1])
        named = f"bad optimizer config: {list(json.loads(flags[1]))[-1]} "
        flags = ["--config", str(path)]
    argv = ["nmr", "--gate", "fullneg", "--out", str(tmp_path / "out"), *flags]
    try:
        code = main(argv)
    except SystemExit as exc:  # refused while parsing
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PERMUTATION
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and (named is None or errors[0].startswith(f"error: {named}"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags",
    [["--segments", "20000", "--restarts", "1"], ["--segments", "1001"], ["--config", '{"segments": 1001}']],
    ids=" ".join,
)
def test_nmr_too_many_segments_exit_two_before_synthesis(flags, tmp_path, capsys, monkeypatch):
    # 20,000 segments reached the optimizer, which asked for a 349 GiB work
    # array and ended in a traceback with exit 1; the search's dense normal
    # matrix holds (3 * segments)^2 doubles, so segments stops at 1000
    import quditcycle.protocol

    def synthesis(*args):
        raise AssertionError("synthesis started")

    monkeypatch.setattr(quditcycle.protocol, "run_protocol", synthesis)
    if flags[0] == "--config":
        path = tmp_path / "cfg.json"
        path.write_text(flags[1])
        flags = ["--config", str(path)]
    code, out, err = run_cli(capsys, "nmr", "--gate", "qft", "--out", str(tmp_path / "out"), *flags)
    assert code == EXIT_BAD_PERMUTATION
    assert out == "" and err.startswith("error: bad optimizer config: segments must be at most 1000")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


# The regression net over argv: every command line gets a documented exit
# code, never a traceback, and one "error:" line on stderr when it fails.
DOCUMENTED_EXITS = {
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    EXIT_BAD_PERMUTATION,
    EXIT_NOT_CYCLIC,
    EXIT_UNCONVERGED,
    EXIT_BROKEN_PIPE,
}
_PERMS = ["2,3,1", "2,3,4,1", "3,2,1,4", "1,3,2,4", "1,3,5,2,4", "2,1", "1", "", "1,1,2", "0,1,2", "2,3,1,", "a,b"]
_PERMS += [" 2, 3 ,1", ",".join(map(str, range(65, 0, -1)))]
_INTS = ["3", "4", "8", "2", "65", "-1", "0", "x", "", "1e3", "99999999999999999999"]
_FLOATS = ["0", "1e-5", "0.01", "1", "-1", "nan", "inf", "1e308", "x", ""]
_JUNK = [["--bogus"], ["--help"], ["--"], ["extra"]]


def _pick(*pieces):
    """Up to four of the option pieces, then at most one junk piece, as one token list."""
    chosen = st.tuples(st.lists(st.sampled_from([*pieces, ["--json"]]), max_size=4), st.sampled_from([[]] * 6 + _JUNK))
    return chosen.map(lambda parts: [tok for piece in (*parts[0], parts[1]) for tok in piece])


def _option(flag, values):
    return [[flag, value] for value in values]


def _argv(where):
    outs = [str(where / "out.json"), str(where / "nmr"), str(where / "a_file"), str(where), "", os.devnull]
    configs = [str(where / "cfg.json"), str(where / "list.json"), str(where / "missing.json"), str(where), ""]
    run = st.tuples(
        st.just(["run"]),
        st.sampled_from([[], *_option("--perm", _PERMS)]),
        _pick(
            *_option("--dim", _INTS),
            *_option("--mode", ["quantum", "classical", "x"]),
            *_option("--fourier", ["general", "qutrit", "x"]),
            *_option("--relabel", _PERMS),
            *_option("--out", outs),
        ),
    )
    verify = st.tuples(st.just(["verify"]), _pick(*_option("--dmax", _INTS)))
    nmr = st.tuples(
        st.just(["nmr", "--ideal"]),
        st.sampled_from([[], *_option("--gate", ["qft", "pos", "neg", "fullpos", "fullneg", "x"])]),
        _pick(
            *_option("--epsilon", _FLOATS),
            *_option("--noise-sigma", _FLOATS),
            *_option("--noise-seed", _INTS),
            *_option("--seed", _INTS),
            *_option("--segments", _INTS),
            *_option("--restarts", _INTS),
            *_option("--min-fidelity", _FLOATS),
            *_option("--config", configs),
            *_option("--out", outs),
        ),
    )
    return st.one_of(run, verify, nmr).map(lambda parts: [tok for part in parts for tok in part])


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_argv_gets_a_documented_exit_and_one_error_line(data, tmp_path, monkeypatch):
    # the files stay from one example to the next; each example overwrites what it writes
    monkeypatch.setenv("QUDITCYCLE_OUTDIR", str(tmp_path / "default"))
    (tmp_path / "a_file").write_text("not a directory\n")
    (tmp_path / "cfg.json").write_text('{"segments": 2}')
    (tmp_path / "list.json").write_text("[]")
    argv = data.draw(_argv(tmp_path), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error or --help
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in DOCUMENTED_EXITS and "Traceback" not in out + err
    errors = [line for line in err.splitlines() if "error:" in line]  # as CI's grep -c counts them
    if code == EXIT_VERIFY_FAILED:  # the verification report is on stdout
        assert argv[0] == "verify" and ("FAIL" in out or '"ok": false' in out)
    else:
        assert len(errors) == (code != EXIT_OK), (argv, err)


# argvs that reach each route of main's parse: a command's own subparser, the
# top-level parser, and the hand-back of what the subparser leaves unrecognized
_EDGE_ARGVS = [
    ["nmr", "--gate", "qft", "--bogus"],
    ["nmr", "--gat", "qft", "--ideal"],
    ["nmr", "--gate=neg", "--ideal"],
    ["verify", "--dmax", "3", "--dmax", "5", "--json", "--json"],
    ["run", "--perm", "2,3,1", "stray"],
    ["-h"],
    ["verify", "-h"],
    ["nmr", "--gate", "qft", "--h"],
    [],
    ["bogus"],
    ["--bogus", "verify"],
    ["--", "verify"],
    ["verify", "--", "--json"],
    ["run", "--perm", "--", "2,3,1"],
]


def _parse_outcome(parse, argv):
    """(the parsed namespace's repr or the SystemExit code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = parse(list(argv))
        except SystemExit as exc:
            got = ("SystemExit", exc.code)
    return got, out.getvalue(), err.getvalue()


def assert_main_parses_as_the_top_level_parser(argv, monkeypatch):
    # main parses a command's arguments once, by that command's subparser; the
    # namespace (by repr, so NaN matches NaN), exit code and every line must be
    # what the top-level parser's two passes give
    for command in build_parser().commands:
        monkeypatch.setattr(f"quditcycle.cli.cmd_{command}", repr)
    want = _parse_outcome(lambda a: repr(build_parser().parse_args(a)), argv)
    assert _parse_outcome(main, argv) == want, argv


@pytest.mark.parametrize("argv", _EDGE_ARGVS, ids=lambda argv: " ".join(argv) or "no-argv")
def test_main_parses_edge_argvs_as_the_top_level_parser(argv, monkeypatch):
    assert_main_parses_as_the_top_level_parser(argv, monkeypatch)


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_main_parses_every_argv_as_the_top_level_parser(data, tmp_path, monkeypatch):
    assert_main_parses_as_the_top_level_parser(data.draw(_argv(tmp_path), label="argv"), monkeypatch)
