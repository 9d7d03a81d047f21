"""The three benchmark workloads: seeded inputs, the timed call, and its oracle.

Each workload is a fixed list of operations made from the workload seed and
the run length.  The amount of work is set from ``--seconds`` and a nominal
rate measured at the commit that introduced the benchmark, never from the
speed of the code under test, so two commits given the same seed run exactly
the same operations and the call counts of a traced run repeat exactly.

``passes`` says how many times an untraced run goes through the list, and
``block`` how many consecutive operations share one reference measurement
(see run.py); ``sample_s``, if set, also samples the host's speed that often
during an operation.  The list is sized so that all
passes, with their reference blocks and set-up probes, take about
``--seconds``.

A workload provides:

- ``ops()``: the operations, generated lazily and outside the timed region,
  the same on every call, ``len()`` of them;
- ``call(op)``: the timed call into the package (exceptions are returned,
  because a documented refusal is a correct answer for some inputs);
- ``check(op, out)``: the correctness oracle, run outside the timed region;
- ``fingerprint(op, out)``: what must repeat bit for bit when an operation
  runs again;
- ``first_call()``: the call a fresh interpreter makes to measure set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from quditcycle import algorithm, cli, nmr, permutations, protocol, smp

GATES = ("qft", "pos", "neg", "fullpos", "fullneg")
FULL_DOMINANT = {"fullpos": 2, "fullneg": 4}
GATE_FIDELITY_MIN = 0.995  # OptimizerConfig.min_fidelity, the synthesis target
STATE_FIDELITY_MIN = 0.97  # acceptance criterion 8 for the full stages
WORK_SHARE = 0.65  # of --seconds; reference blocks and set-up probes take the rest

# Originals captured at import, before any tracing wrapper replaces the module
# attributes; oracles use these so checking never shows up in a trace.
Permutation = permutations.Permutation
Chirality = permutations.Chirality
FourierKind = algorithm.FourierKind
NotCyclicError = algorithm.NotCyclicError
phase_table = algorithm.phase_table
segments_from_json = smp.segments_from_json
gate_fidelity = smp.gate_fidelity
sequence_propagator = nmr.sequence_propagator
stage_unitary = protocol.stage_unitary
theory_state = protocol.theory_state


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    fidelity: float | None = None
    known_defect: bool = False  # a failure the ROADMAP already lists as a defect


def _cli(argv):
    """Run the CLI in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_csv(path: Path, dim: int = 4) -> np.ndarray:
    m = np.full((dim, dim), np.nan)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["i", "j", "value"] or len(rows) != dim * dim + 1:
        raise ValueError(f"{path.name}: unexpected layout")
    for i, j, v in rows[1:]:
        m[int(i) - 1, int(j) - 1] = float(v)
    if np.isnan(m).any():
        raise ValueError(f"{path.name}: missing entries")
    return m


class PulseSynth:
    """`quditcycle nmr --gate g --seed s --json` with SMP synthesis, in-process.

    The job set is the five gates at optimizer seeds 0..rounds-1 (round 0 is
    the target set of acceptance criterion 8, about 20 s); the workload seed
    fixes the order.  Restart counts per gate vary from 1 to 3 with the
    optimizer seed, so seed-derived optimizer seeds would change the work per
    run by up to 2.8x and swamp any speed difference; a fixed job set keeps
    every run the same work.  One round is the smallest job set, so an
    untraced run makes a single pass.  Every synthesis, seconds long, is a
    block of its own, and the host's speed is sampled while it runs.
    """

    name = "pulse-synth"
    passes = 1
    block = 1
    sample_s = 0.1

    def __init__(self, seed: int, seconds: int, workdir: Path):
        rounds = max(1, round(seconds / 20))
        self.jobs = [(g, s) for s in range(rounds) for g in GATES]
        random.Random(seed).shuffle(self.jobs)
        self.workdir = workdir

    def __len__(self):
        return len(self.jobs)

    def ops(self):
        return iter(self.jobs)

    def _argv(self, op, ideal=False):
        gate, opt_seed = op
        out = self.workdir / f"{gate}-{opt_seed}"
        argv = ["nmr", "--gate", gate, "--seed", str(opt_seed), "--out", str(out), "--json"]
        return argv + ["--ideal"] if ideal else argv

    def call(self, op):
        return _cli(self._argv(op))

    def first_call(self):
        return _cli(self._argv(self.jobs[0], ideal=True))

    def check(self, op, out) -> Verdict:
        gate, opt_seed = op
        code, text = out
        if code != 0:
            return Verdict(False, f"{gate} seed {opt_seed}: exit code {code}")
        report = json.loads(text)
        pulses = self.workdir / f"{gate}-{opt_seed}" / f"{gate}_pulses.json"
        segs = segments_from_json(json.loads(pulses.read_text()))
        oracle, stage = cli.GATE_MAP[gate]
        u = sequence_propagator(nmr.SpinSystem(), segs)
        fid = gate_fidelity(stage_unitary(oracle, stage), u)
        if fid < GATE_FIDELITY_MIN:
            return Verdict(False, f"{gate} seed {opt_seed}: gate fidelity {fid}", fid)
        if gate in FULL_DOMINANT:
            if report["fidelity"] < STATE_FIDELITY_MIN:
                return Verdict(False, f"{gate}: state fidelity {report['fidelity']}", fid)
            if report["dominant_index"] != FULL_DOMINANT[gate]:
                return Verdict(False, f"{gate}: dominant level {report['dominant_index']}", fid)
        return Verdict(True, fidelity=fid)

    def fingerprint(self, op, out):
        gate, opt_seed = op
        return out[0], (self.workdir / f"{gate}-{opt_seed}" / f"{gate}_pulses.json").read_bytes()


def _rotation(d, r):
    return [(x - 1 + r) % d + 1 for x in range(1, d + 1)]


def _reflection(d, r):
    return [(r - x) % d + 1 for x in range(1, d + 1)]


def _conjugate(q, sigma):
    """Image of sigma . q . sigma^-1, the relabeled form of q."""
    inv = [0] * len(sigma)
    for x, y in enumerate(sigma, start=1):
        inv[y - 1] = x
    return [sigma[q[inv[x] - 1] - 1] for x in range(len(q))]


def _two_query_answer(img):
    """What two value queries can say about a permutation outside the promise.

    f(1) leaves one positive and one negative cyclic candidate and f(2) picks
    one of them; only when f(2) matches neither is the input provably not
    cyclic.  A non-cyclic input that agrees with a candidate on 1 and 2 is
    indistinguishable from it with two queries.
    """
    d, (y1, y2) = len(img), img[:2]
    if y2 == y1 % d + 1:
        return Chirality.POSITIVE
    if y2 == (y1 - 2) % d + 1:
        return Chirality.NEGATIVE
    return Chirality.NOT_CYCLIC


def _is_cyclic(img):
    d = len(img)
    return _rotation(d, img[0] - 1) == img or _reflection(d, img[0]) == img


@dataclass
class ClassifyOp:
    mode: str  # "quantum" or "classical"
    perm: object
    kind: object  # FourierKind for quantum calls
    expect: object  # Chirality, or the exception class a refusal must raise
    index: int | None = None  # expected measured level
    phase: complex | None = None  # expected phase (standard Fourier kinds)


class ClassifyStream:
    """A seeded stream of `run_quantum` / `run_classical` library calls, d in 2..64.

    Mix: 45% quantum on cyclic inputs (60% standard labels, 30% a random
    relabeling, 10% the d = 3 qutrit-spin kind), 15% quantum on non-cyclic
    inputs (must raise NotCyclicError), 25% classical on cyclic and 15%
    classical on non-cyclic inputs (must say not-cyclic whenever f(2) rules
    out both cyclic candidates).  d = 2 is kept: its quantum and classical
    calls must be refused with ValueError, and today the quantum ones are
    answered instead.
    """

    name = "classify-stream"
    passes = 3
    block = 64
    sample_s = None
    RATE = 2800  # calls per second at the commit that added the benchmark

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.seed = seed
        self.n = max(1, round(seconds * WORK_SHARE * self.RATE / self.passes))
        self._phases = {}

    def _perm(self, img):
        return Permutation(tuple(img))

    def _cyclic(self, rng, d):
        chi = rng.choice((Chirality.POSITIVE, Chirality.NEGATIVE))
        r = rng.randrange(d)
        return chi, r, (_rotation if chi is Chirality.POSITIVE else _reflection)(d, r)

    def _relabeled(self, rng, img):
        """img conjugated by a random relabeling sigma, and sigma."""
        sigma = list(range(1, len(img) + 1))
        rng.shuffle(sigma)
        return _conjugate(img, sigma), self._perm(sigma)

    def _noncyclic(self, rng, d):
        img = list(range(1, d + 1))
        while _is_cyclic(img):
            rng.shuffle(img)
        return img

    def _expected_phase(self, d, chi, r):
        if d not in self._phases:
            self._phases[d] = phase_table(d)
        return self._phases[d][(chi, r)]

    def _draw(self, rng) -> ClassifyOp:
        u = rng.random()
        if u < 0.45:
            v = rng.random()
            if v >= 0.9:
                d, kind_of, relabeled = 3, FourierKind.qutrit_spin, rng.random() < 0.5
            else:
                d, kind_of, relabeled = rng.randint(2, 64), FourierKind.standard, v >= 0.6
            chi, r, img = self._cyclic(rng, d)
            sigma = None
            if relabeled:
                img, sigma = self._relabeled(rng, img)
            kind = kind_of(sigma)
            if d == 2:
                return ClassifyOp("quantum", self._perm(img), kind, ValueError)
            if kind_of is FourierKind.qutrit_spin:
                return ClassifyOp("quantum", self._perm(img), kind, chi, 1 if chi is Chirality.POSITIVE else 3)
            index = 2 if chi is Chirality.POSITIVE else d
            return ClassifyOp("quantum", self._perm(img), kind, chi, index, self._expected_phase(d, chi, r))
        if u < 0.60:
            d = rng.randint(4, 64)  # every permutation of 3 or fewer labels is cyclic
            img = self._noncyclic(rng, d)
            sigma = None
            if rng.random() < 0.3:
                img, sigma = self._relabeled(rng, img)
            kind = FourierKind.standard(sigma)
            return ClassifyOp("quantum", self._perm(img), kind, NotCyclicError)
        if u < 0.85:
            d = rng.randint(2, 64)
            chi, _, img = self._cyclic(rng, d)
            return ClassifyOp("classical", self._perm(img), None, ValueError if d == 2 else chi)
        d = rng.randint(4, 64)
        img = self._noncyclic(rng, d)
        return ClassifyOp("classical", self._perm(img), None, _two_query_answer(img))

    def __len__(self):
        return self.n

    def ops(self):
        rng = random.Random(self.seed)
        for _ in range(self.n):
            yield self._draw(rng)

    def call(self, op):
        try:
            if op.mode == "quantum":
                return algorithm.run_quantum(op.perm, op.kind)
            return algorithm.run_classical(op.perm)
        except Exception as exc:  # a refusal is checked by the oracle
            return exc

    def first_call(self):
        return self.call(next(self.ops()))

    def check(self, op, out) -> Verdict:
        d = op.perm.dim
        where = f"{op.mode} d={d} {op.perm.image if d <= 8 else ''}"
        if isinstance(op.expect, type):
            if isinstance(out, op.expect):
                return Verdict(True)
            known = op.mode == "quantum" and d == 2 and not isinstance(out, Exception)
            return Verdict(False, f"{where}: expected {op.expect.__name__}, got {out!r:.80}", known_defect=known)
        if isinstance(out, Exception):
            return Verdict(False, f"{where}: raised {out!r:.80}")
        queries = 1 if op.mode == "quantum" else 2
        if out.classification is not op.expect or out.oracle_queries != queries:
            return Verdict(False, f"{where}: {out.classification.value} in {out.oracle_queries} queries")
        if op.mode == "classical":
            return Verdict(True)
        prob = float(abs(out.final_state[out.measured_index - 1]) ** 2)
        if out.measured_index != op.index:
            return Verdict(False, f"{where}: measured |{out.measured_index}>", prob)
        if op.phase is not None and abs(out.phase - op.phase) > 1e-10:
            return Verdict(False, f"{where}: phase {out.phase} != {op.phase}", prob)
        return Verdict(True, fidelity=prob)

    def fingerprint(self, op, out):
        if isinstance(out, Exception):
            return type(out).__name__
        return out.classification.value, out.measured_index, out.phase


class ExactCli:
    """`quditcycle verify --dmax 12 --json`, then `nmr --ideal` with readout noise for the five gates.

    One cycle is one verify followed by the five gates in a seeded order, each
    with its own seeded noise draw; every command is one operation.
    """

    name = "exact-cli"
    passes = 3
    block = 6  # one cycle
    sample_s = None
    RATE = 23  # cycles per second at the commit that added the benchmark

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.seed = seed
        self.cycles = max(1, round(seconds * WORK_SHARE * self.RATE / self.passes))
        self.workdir = workdir

    def __len__(self):
        return 6 * self.cycles

    def ops(self):
        rng = random.Random(self.seed)
        for _ in range(self.cycles):
            yield ("verify", None)
            for gate in rng.sample(GATES, len(GATES)):
                yield (gate, rng.randrange(2**31))

    def _argv(self, op):
        gate, noise_seed = op
        if gate == "verify":
            return ["verify", "--dmax", "12", "--json"]
        return [
            "nmr", "--gate", gate, "--ideal", "--noise-sigma", "0.01",
            "--noise-seed", str(noise_seed), "--out", str(self.workdir), "--json",
        ]  # fmt: skip

    def call(self, op):
        return _cli(self._argv(op))

    def first_call(self):
        return self.call(next(self.ops()))

    def check(self, op, out) -> Verdict:
        gate, noise_seed = op
        code, text = out
        if code != 0:
            return Verdict(False, f"{gate}: exit code {code}")
        report = json.loads(text)
        if gate == "verify":
            return Verdict(report["ok"] is True, "" if report["ok"] is True else "verify: ok is false")
        fid = report["fidelity"]
        if abs(fid - 1.0) > 1e-10:
            return Verdict(False, f"{gate}: ideal fidelity {fid}", fid)
        oracle, stage = cli.GATE_MAP[gate]
        pops = np.abs(theory_state(oracle, stage)) ** 2
        if pops[report["dominant_index"] - 1] < pops.max() - 1e-9:
            return Verdict(False, f"{gate}: dominant level {report['dominant_index']}", fid)
        re = _read_csv(self.workdir / f"{gate}_rho_re.csv")
        im = _read_csv(self.workdir / f"{gate}_rho_im.csv")
        tr = np.trace(re + 1j * im)
        if abs(tr - 1.0) > 1e-9:
            return Verdict(False, f"{gate} noise seed {noise_seed}: rho trace {tr}", fid)
        return Verdict(True, fidelity=fid)

    def fingerprint(self, op, out):
        gate = op[0]
        if gate == "verify":
            return out
        return out, tuple((self.workdir / f"{gate}_{m}.csv").read_bytes() for m in ("rho_re", "rho_im", "dev_re", "dev_im"))


WORKLOADS = {w.name: w for w in (PulseSynth, ClassifyStream, ExactCli)}
