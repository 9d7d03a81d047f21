"""Byte-for-byte comparison of CLI output against recorded golden files.

Each case runs `quditcycle` in-process in an empty working directory and
records the exit code, stdout, stderr and every file the command wrote.
synth.json was recorded with the package's own Levenberg-Marquardt on the
gate residual, searching amplitude and duration as angles of their window, on
the pulse engine that diagonalizes a real matrix in the rf-phase frame.  Any
change to a byte of output shows up here.

Regenerate (only when an output change is intended, and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py --write

Sizes below 3 and invalid `nmr` settings are not recorded: their handling is
specified by regression tests in test_algorithm.py and test_cli.py instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import GATES, reflection_image, rotation_image

GOLDEN_DIR = Path(__file__).parent / "golden"

# Files some cases place in the working directory before running.
SETUP_FILES = {
    "unknown_key.json": json.dumps({"segments": 2, "fidelity_target": 0.9}),
    "bad_value.json": json.dumps({"segments": 0}),
    "bad_type.json": json.dumps({"restarts": "two"}),
    "not_json.json": "{segments: 2",
    "c.json": json.dumps({"restarts": 2, "max_iter": 300}),
}


def _img(seq) -> str:
    return ",".join(map(str, seq))


def _conjugate(q, sigma):
    """Image of sigma . q . sigma^-1, q written in sigma-relabeled values."""
    inv = [0] * len(sigma)
    for x, y in enumerate(sigma, start=1):
        inv[y - 1] = x
    return [sigma[q[inv[x] - 1] - 1] for x in range(len(q))]


def _swap23(d):
    return [1, 3, 2] + list(range(4, d + 1))


def run_cases() -> dict[str, list[str]]:
    cases = {}
    for d in range(3, 9):
        cyclic = [("pos", r, rotation_image(d, r)) for r in range(d)]
        cyclic += [("neg", r, reflection_image(d, r)) for r in range(d)]
        for chi, r, img in cyclic:
            cases[f"quantum-d{d}-{chi}{r}"] = ["run", "--perm", _img(img), "--json"]
            cases[f"classical-d{d}-{chi}{r}"] = [
                "run", "--perm", _img(img), "--mode", "classical", "--json",
            ]  # fmt: skip
        sigma = list(reversed(range(1, d + 1)))
        sigma[0], sigma[1] = sigma[1], sigma[0]
        for chi, r, img in (cyclic[1], cyclic[d - 1], cyclic[d], cyclic[-1]):
            cases[f"relabeled-d{d}-{chi}{r}"] = [
                "run", "--perm", _img(_conjugate(img, sigma)), "--relabel", _img(sigma), "--json",
            ]  # fmt: skip
        if d >= 4:
            swap = _swap23(d)
            lookalike = [2, 3, 1] + list(range(4, d + 1))  # f(1), f(2) of a rotation
            cases[f"classical-d{d}-swap"] = ["run", "--perm", _img(swap), "--mode", "classical", "--json"]
            cases[f"classical-d{d}-lookalike"] = [
                "run", "--perm", _img(lookalike), "--mode", "classical", "--json",
            ]  # fmt: skip
            cases[f"error-not-cyclic-d{d}"] = ["run", "--perm", _img(swap)]
            cases[f"error-relabeled-not-cyclic-d{d}"] = [
                "run", "--perm", _img(rotation_image(d, 1)), "--relabel", _img(swap),
            ]  # fmt: skip
    for chi, r, img in [("pos", r, rotation_image(3, r)) for r in range(3)] + [
        ("neg", r, reflection_image(3, r)) for r in range(3)
    ]:
        cases[f"qutrit-{chi}{r}"] = ["run", "--perm", _img(img), "--fourier", "qutrit", "--json"]
        cases[f"qutrit-relabeled-{chi}{r}"] = [
            "run", "--perm", _img(_conjugate(img, [2, 3, 1])), "--fourier", "qutrit",
            "--relabel", "2,3,1", "--json",
        ]  # fmt: skip
    cases.update(
        {
            "human-pos-d4": ["run", "--perm", "2,3,4,1"],
            "human-neg-d5": ["run", "--perm", "3,2,1,5,4", "--dim", "5"],
            "human-classical-d4": ["run", "--perm", "1,3,2,4", "--mode", "classical"],
            "human-qutrit": ["run", "--perm", "3,2,1", "--fourier", "qutrit"],
            "error-duplicate": ["run", "--perm", "1,2,2"],
            "error-not-a-number": ["run", "--perm", "banana"],
            "error-empty-entry": ["run", "--perm", "2,,1"],
            "error-too-large": ["run", "--perm", _img(range(1, 66))],
            "error-dim-mismatch": ["run", "--perm", "2,3,4,1", "--dim", "5"],
            "error-relabel-size": ["run", "--perm", "2,3,1", "--relabel", "2,1"],
            "error-relabel-size-d4": ["run", "--perm", "2,3,4,1", "--relabel", "2,3,1"],
            "error-relabel-malformed": ["run", "--perm", "2,3,1", "--relabel", "1,1,2"],
            "error-qutrit-d4": ["run", "--perm", "2,3,4,1", "--fourier", "qutrit"],
            "error-qutrit-d4-not-cyclic": ["run", "--perm", "1,3,2,4", "--fourier", "qutrit"],
            "error-classical-dim-mismatch": ["run", "--perm", "2,3,1", "--dim", "4", "--mode", "classical"],
            "error-missing-perm": ["run"],
            "error-bad-mode": ["run", "--perm", "2,3,1", "--mode", "both"],
        }
    )
    return cases


def verify_cases() -> dict[str, list[str]]:
    cases = {f"dmax{d}": ["verify", "--dmax", str(d), "--json"] for d in (3, 12, 64)}
    cases["error-dmax"] = ["verify", "--dmax", "65"]
    return cases


def nmr_cases() -> dict[str, list[str]]:
    noise = ["--noise-sigma", "0.01", "--noise-seed", "7"]
    cases = {}
    for gate in GATES:
        base = ["nmr", "--gate", gate, "--ideal", "--out", "out", "--json"]
        cases[gate] = base
        cases[f"{gate}-noise"] = base + noise
    cases.update(
        {
            "human-fullpos": ["nmr", "--gate", "fullpos", "--ideal", "--out", "out"],
            "fullneg-epsilon": ["nmr", "--gate", "fullneg", "--ideal", "--epsilon", "0.3", "--out", "out", "--json"] + noise,
            "qft-epsilon-one": ["nmr", "--gate", "qft", "--ideal", "--epsilon", "1", "--out", "out", "--json"],
            "pos-epsilon-zero": ["nmr", "--gate", "pos", "--ideal", "--epsilon", "0", "--out", "out", "--json"],
            "error-config-unknown-key": ["nmr", "--gate", "qft", "--config", "unknown_key.json"],
            "error-config-bad-value": ["nmr", "--gate", "qft", "--config", "bad_value.json"],
            "error-config-bad-type": ["nmr", "--gate", "qft", "--config", "bad_type.json"],
            "error-config-not-json": ["nmr", "--gate", "qft", "--config", "not_json.json"],
            "error-config-missing": ["nmr", "--gate", "qft", "--config", "missing.json"],
            "error-gate": ["nmr", "--gate", "swap"],
        }
    )
    return cases


def synth_cases() -> dict[str, list[str]]:
    """Seeded SMP synthesis on a short budget: pins the pulses bit for bit."""
    return {gate: ["nmr", "--gate", gate, "--seed", "0", "--json", "--config", "c.json"] for gate in GATES}


SUITES = {"run": run_cases, "verify": verify_cases, "nmr": nmr_cases, "synth": synth_cases}


def residual_hashes() -> dict[str, str]:
    """One sha256 per spin 1/2 .. 63/2 over _decode's rows and _residual's value, r and Jacobian.

    synth.json pins the pulses of six-segment trains at spin 3/2 only; this pins
    the pass itself at every spin.  Each spin draws 16 trains of 1, 2, 3 or 6
    segments up to d = 16, and 3 trains of 1 or 2 segments above, where a pass
    costs about d^3.  Each train has rf off in its first segment, duration
    ends (angle 0, pi, -0.0 or 2 pi), signed-zero phases and a seeded Haar target.
    """
    import numpy as np

    from quditcycle.nmr import SpinSystem
    from quditcycle.smp import _decode, _residual

    hashes = {}
    for twice in range(1, 64):
        spin = SpinSystem(spin=twice / 2)
        d = spin.dim
        rng = np.random.default_rng([51, twice])
        h = hashlib.sha256()
        for k in range(16 if d <= 16 else 3):
            n = (1, 2, 3, 6)[k % 4] if d <= 16 else (1, 2)[k % 2]
            y = np.concatenate([rng.uniform(-4.0, 7.0, n), rng.uniform(-3.0, 3.0, n), rng.uniform(-4.0, 7.0, n)])
            y[0] = 0.0  # rf off
            y[2 * n] = (0.0, np.pi, -0.0, 2 * np.pi)[k % 4]  # a duration end
            y[-1] = np.pi if k % 2 else 0.0
            y[n] = -0.0 if k % 3 else 0.0  # a signed-zero phase
            if n > 1:
                y[n + 1] = 0.0 if k % 3 else -0.0
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, rr = np.linalg.qr(z)
            target = q * (rr.diagonal() / np.abs(rr.diagonal()))
            value, r, jac = _residual(y, spin, target.conj().T)
            for part in (_decode(y), np.float64(value), r, np.ascontiguousarray(jac())):
                h.update(part.tobytes())
        hashes[str(Fraction(twice, 2))] = h.hexdigest()
    return hashes


def capture(argv: list[str], workdir: Path) -> dict:
    """Run the CLI in workdir; return exit code, streams and written files."""
    from quditcycle.cli import main

    for name, text in SETUP_FILES.items():
        (workdir / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejections
                code = exc.code
    finally:
        os.chdir(here)
    files = {
        str(path.relative_to(workdir)): path.read_text()
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.name not in SETUP_FILES
    }
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def _load(suite: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{suite}.json").read_text())


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_case_list_matches_recording(suite):
    assert sorted(SUITES[suite]()) == sorted(_load(suite))


@pytest.mark.parametrize(
    "suite,case", [(s, c) for s in sorted(SUITES) for c in sorted(SUITES[s]())]
)
def test_output_is_byte_identical(suite, case, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    monkeypatch.delenv("QUDITCYCLE_OUTDIR", raising=False)
    want = _load(suite)[case]
    got = capture(want["argv"], tmp_path)
    assert got["code"] == want["code"]
    assert got["stderr"] == want["stderr"]
    assert got["stdout"] == want["stdout"]
    assert sorted(got["files"]) == sorted(want["files"])
    for name, text in want["files"].items():
        assert got["files"][name] == text, name


def test_residual_bytes_are_pinned_at_every_spin():
    # the hashes hold the SkylakeX core's bits, as the CLI goldens do
    assert residual_hashes() == _load("residual")


# numpy's AVX-512 dispatch targets; without them numpy takes its AVX2 paths
AVX512_TARGETS = "X86_V4 AVX512_ICL AVX512_SPR"


def test_synth_pulses_do_not_depend_on_numpy_simd_level(tmp_path, monkeypatch):
    # numpy's AVX-512 and AVX2 loops round some functions differently in the last bit;
    # every synth golden case must print and write the same on either.  The five
    # run in-process here and in one child process with the AVX-512 targets off.
    # Seed 0's start points hold no value where numpy's AVX-512 arccos differs from
    # math.acos; two of seed 2's first twelve do, so its run sees an arccos start
    monkeypatch.delenv("QUDITCYCLE_OUTDIR", raising=False)
    argvs = [*synth_cases().values(), ["nmr", "--gate", "qft", "--seed", "2", "--json", "--out", "seed2"]]
    here, avx2 = tmp_path / "here", tmp_path / "avx2"
    here.mkdir()
    avx2.mkdir()
    stdout, files = "", {}
    for argv in argvs:
        got = capture(argv, here)
        assert got["code"] == 0, got["stderr"]
        stdout, files = stdout + got["stdout"], files | got["files"]
    for name, text in SETUP_FILES.items():
        (avx2 / name).write_text(text)
    import quditcycle

    env = {**os.environ, "PYTHONPATH": str(Path(quditcycle.__file__).parent.parent)}
    env["NPY_DISABLE_CPU_FEATURES"] = AVX512_TARGETS
    script = "import json, sys\nfrom quditcycle.cli import main\nsys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"
    # numpy refuses to disable targets the CPU lacks with an ImportWarning, which -W always shows
    cmd = [sys.executable, "-W", "always::ImportWarning", "-c", script, json.dumps(argvs)]
    proc = subprocess.run(cmd, cwd=avx2, env=env, capture_output=True, text=True, timeout=120)
    if "not supported by your machine" in proc.stderr:
        pytest.skip(f"this CPU lacks numpy's AVX-512 targets: {proc.stderr.strip()}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout
    written = {str(path.relative_to(avx2)): path for path in avx2.rglob("*") if path.is_file()}
    assert {name: path.read_text() for name, path in written.items() if name not in SETUP_FILES} == files


def write_goldens() -> None:
    import tempfile

    os.environ["COLUMNS"] = "80"
    os.environ.pop("QUDITCYCLE_OUTDIR", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for suite, make in SUITES.items():
        recorded = {}
        for case, argv in make().items():
            with tempfile.TemporaryDirectory() as tmp:
                recorded[case] = capture(argv, Path(tmp))
        text = json.dumps(recorded, indent=1, sort_keys=True) + "\n"
        (GOLDEN_DIR / f"{suite}.json").write_text(text)
        print(f"{suite}: {len(recorded)} cases", file=sys.stderr)
    hashes = residual_hashes()
    (GOLDEN_DIR / "residual.json").write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"residual: {len(hashes)} spins", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_goldens()
