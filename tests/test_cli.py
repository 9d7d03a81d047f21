"""End-to-end CLI behavior: exit codes, stdout JSON, exported artifacts."""

import csv
import json

import numpy as np
import pytest

from quditcycle.cli import (
    EXIT_BAD_PERMUTATION,
    EXIT_NOT_CYCLIC,
    EXIT_OK,
    EXIT_UNCONVERGED,
    EXIT_VERIFY_FAILED,
    main,
)
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


def test_run_not_cyclic_exit(capsys):
    code, _, err = run_cli(capsys, "run", "--perm", "1,3,2,4")
    assert code == EXIT_NOT_CYCLIC
    assert "error" in err


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


def test_nmr_stage_cross_check(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "nmr", "--gate", "qft", "--stage", "full", "--ideal", "--out", str(tmp_path)
    )
    assert code == EXIT_BAD_PERMUTATION
    assert "contradicts" in err
    code, _, _ = run_cli(
        capsys, "nmr", "--gate", "qft", "--stage", "after", "--ideal", "--out", str(tmp_path)
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "smp"])
def test_nmr_unusable_out_exits_two_before_synthesis(ideal, tmp_path, capsys, monkeypatch):
    # an --out that is a file used to raise FileExistsError (exit 1), and
    # without --ideal only after the whole synthesis
    def no_synthesis(*args, **kwargs):
        raise AssertionError("the protocol ran before --out was checked")

    monkeypatch.setattr("quditcycle.cli.run_protocol", no_synthesis)
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
