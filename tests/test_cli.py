"""End-to-end CLI behavior: exit codes, stdout JSON, exported artifacts."""

import csv
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import quditcycle
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
from quditcycle.linalg import MAX_DIM
from quditcycle.nmr import PulseSegment, SpinSystem, sequence_propagator
from quditcycle.protocol import theory_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_matrix(path):
    m = np.zeros((4, 4))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "value"]
    for i, j, val in rows[1:]:
        m[int(i) - 1, int(j) - 1] = float(val)
    return m


def test_run_quantum_json(capsys):
    code, out, _ = run_cli(capsys, "run", "--perm", "2,3,4,1", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["classification"] == "positive-cyclic"
    assert blob["measured_index"] == 2
    assert blob["oracle_queries"] == 1
    assert blob["phase"]["im"] == pytest.approx(-1.0)


def test_run_human_output_and_dim_check(capsys):
    code, out, _ = run_cli(capsys, "run", "--perm", "3,2,1,4", "--dim", "4")
    assert code == EXIT_OK
    assert "negative-cyclic" in out
    assert "measured |4>" in out


def test_run_classical_mode(capsys):
    code, out, _ = run_cli(capsys, "run", "--perm", "1,3,2,4", "--mode", "classical", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["classification"] == "not-cyclic"
    assert blob["oracle_queries"] == 2
    assert blob["measured_index"] is None and blob["final_state"] is None


def test_run_qutrit_variant(capsys):
    code, out, _ = run_cli(capsys, "run", "--perm", "2,3,1", "--fourier", "qutrit", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["measured_index"] == 1


def test_run_relabeled(capsys):
    code, out, _ = run_cli(capsys, "run", "--perm", "3,4,2,1", "--relabel", "1,3,2,4", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["classification"] == "positive-cyclic"


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


def test_run_not_cyclic_exit(capsys):
    # 1,3,5,2,4 is x -> 2x - 1 mod 5: the circuit lands it on |4>, neither |2> nor |5>
    for perm in ("1,3,2,4", "1,3,5,2,4"):
        code, _, err = run_cli(capsys, "run", "--perm", perm)
        assert code == EXIT_NOT_CYCLIC
        assert err == f"error: permutation ({perm.replace(',', ', ')}) is not cyclic in the requested labeling\n"


def test_run_malformed_exits_two(capsys):
    for argv in (
        ["run", "--perm", "1,2,2"],
        ["run", "--perm", "banana"],
        ["run", "--perm", "2,3,4,1", "--dim", "5"],
        ["run", "--perm", "2,1", "--mode", "classical"],
        ["run", "--perm", "2,3,1", "--relabel", "2,1"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_BAD_PERMUTATION
        assert "error" in err


def test_run_quantum_below_dim_three_exits_two(capsys):
    # (1,2) and (2,1) used to be answered "negative-cyclic" with exit 0
    for perm in ("1,2", "2,1", "1"):
        code, out, err = run_cli(capsys, "run", "--perm", perm)
        assert code == EXIT_BAD_PERMUTATION
        assert out == "" and err.startswith("error:") and "dim >= 3" in err


def test_run_writes_report_file(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, _, _ = run_cli(capsys, "run", "--perm", "4,1,2,3", "--out", str(path))
    assert code == EXIT_OK
    blob = json.loads(path.read_text())
    assert blob["permutation"]["image"] == [4, 1, 2, 3]


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


def test_verify_small_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dmax", "4", "--json")
    assert code == EXIT_OK == EXIT_VERIFY_FAILED - 1
    blob = json.loads(out)
    assert blob["ok"] is True
    assert blob["parity_is_chirality_at_dim3"] is True
    dims = {row["dim"] for row in blob["rows"]}
    assert dims == {3, 4}
    for row in blob["rows"]:
        assert row["classifications"] and row["phases"]
        assert row["one_query_insufficient"] is True
        assert row["classical_two_queries"] is True


def test_verify_full_range(capsys):
    # rows 9..12 used to hold null, and --dmax stopped at 12
    code, out, _ = run_cli(capsys, "verify", "--dmax", str(MAX_DIM), "--json")
    blob = json.loads(out)
    assert code == EXIT_OK and blob["ok"] is True and blob["parity_is_chirality_at_dim3"] is True
    assert [row["dim"] for row in blob["rows"]] == list(range(3, MAX_DIM + 1))
    assert all(val is True for row in blob["rows"] for key, val in row.items() if key != "dim")


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
    # one_query_insufficient used to enumerate and class each d a second time
    import quditcycle.algorithm
    import quditcycle.cli

    calls = Counter()
    classify = quditcycle.cli.classify_cyclic

    def counting(p):
        calls[p.dim] += 1
        return classify(p)

    for module in (quditcycle.algorithm, quditcycle.cli):
        monkeypatch.setattr(module, "classify_cyclic", counting)
    code, out, _ = run_cli(capsys, "verify", "--dmax", "12", "--json")
    assert code == EXIT_OK and json.loads(out)["ok"] is True
    assert calls == {d: 2 * d for d in range(3, 13)}


def test_verify_human_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dmax", "3")
    assert code == EXIT_OK
    assert "d= 3" in out and "all checks passed" in out


def test_nmr_ideal_qft_artifacts(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "nmr", "--gate", "qft", "--ideal", "--out", str(tmp_path), "--json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["gate_source"] == "ideal"
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert report["pulses"] is None
    assert not (tmp_path / "qft_pulses.json").exists()

    disk = json.loads((tmp_path / "qft_report.json").read_text())
    assert disk == report

    dev_re = read_csv_matrix(tmp_path / "qft_dev_re.csv")
    dev_im = read_csv_matrix(tmp_path / "qft_dev_im.csv")
    # uniform superposition in the deviation block: every entry magnitude 1/4
    assert np.max(np.abs(np.abs(dev_re + 1j * dev_im) - 0.25)) < 1e-12
    rho_re = read_csv_matrix(tmp_path / "qft_rho_re.csv")
    assert abs(np.trace(rho_re) - 1.0) < 1e-12


def test_nmr_ideal_fullneg_dominant_level(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "nmr", "--gate", "fullneg", "--ideal", "--out", str(tmp_path), "--json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["dominant_index"] == 4
    dev_re = read_csv_matrix(tmp_path / "fullneg_dev_re.csv")
    assert dev_re[3, 3] == pytest.approx(1.0, abs=1e-10)


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


def test_nmr_noise_flag(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "nmr", "--gate", "fullpos", "--ideal", "--noise-sigma", "0.02",
        "--noise-seed", "4", "--out", str(tmp_path), "--json",
    )
    assert code == EXIT_OK
    dev_re = read_csv_matrix(tmp_path / "fullpos_dev_re.csv")
    assert abs(dev_re[1, 1] - 1.0) < 0.1           # still clearly the |2> level
    assert np.max(np.abs(dev_re - np.diag(np.diag(dev_re)))) > 0  # noise is visible
    rho_re = read_csv_matrix(tmp_path / "fullpos_rho_re.csv")
    assert abs(np.trace(rho_re) - 1.0) < 1e-12


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


def test_nmr_bad_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"segments": 2, "fidelity_target": 0.9}))
    code, _, err = run_cli(capsys, "nmr", "--gate", "qft", "--config", str(cfg))
    assert code == EXIT_BAD_PERMUTATION
    assert "unknown config keys" in err
    cfg.write_text(json.dumps({"segments": 1, "max_iter": 0}))
    code, _, err = run_cli(capsys, "nmr", "--gate", "qft", "--config", str(cfg))
    assert code == EXIT_BAD_PERMUTATION
    assert "max_iter" in err
    code, _, err = run_cli(capsys, "nmr", "--gate", "qft", "--config", str(tmp_path / "no.json"))
    assert code == EXIT_BAD_PERMUTATION


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
        ["--config", '{"restarts": true}'],
        ["--config", '{"min_fidelity": true}'],
        ["--config="],  # was tested for truthiness and ran with the default settings
    ],
    ids="=".join,
)
def test_nmr_invalid_settings_exit_two_before_synthesis(flags, tmp_path, capsys):
    # without --ideal a bad setting would otherwise surface only after pulse
    # synthesis, as a traceback with the "verification failed" code 1
    if flags[0] == "--config":  # the second item is the file's JSON text
        path = tmp_path / "cfg.json"
        path.write_text(flags[1])
        flags = ["--config", str(path)]
    argv = ["nmr", "--gate", "fullneg", "--out", str(tmp_path / "out"), *flags]
    try:
        code = main(argv)
    except SystemExit as exc:  # refused while parsing
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PERMUTATION
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
    assert not (tmp_path / "out").exists()
