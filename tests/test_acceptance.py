"""Top-level acceptance checks.

Each test covers one numbered criterion, prints a single [PASS]/[FAIL]
line (bypassing capture, so the lines are visible in any pytest run), and
asserts. Run `pytest tests/test_acceptance.py` for the full report.
"""

import time

import numpy as np
import pytest

from quditcycle.algorithm import (
    FourierKind,
    initial_index,
    one_query_insufficient,
    phase_table,
    qft,
    run_classical,
    run_quantum,
)
from quditcycle.linalg import (
    MAX_DIM,
    basis_state,
    equal_up_to_global_phase,
    validate_unitary,
)
from quditcycle.nmr import (
    PulseSegment,
    SpinSystem,
    sequence_propagator,
    static_hamiltonian,
)
from quditcycle.permutations import (
    Chirality,
    Permutation,
    classify_cyclic,
    enumerate_cyclic,
    oracle_unitary,
    parity,
    reflection,
    relabel,
    rotation,
)
from quditcycle.protocol import ORACLES, run_protocol, stage_unitary
from quditcycle.smp import OptimizerConfig, gate_fidelity, smp_optimize

from conftest import TWO_PI, random_permutation_image, random_state


@pytest.fixture
def report(capsys):
    def _report(num: int, label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}", flush=True)
        assert ok, f"criterion {num}: {label}"

    return _report


def test_criterion_1_qutrit_exhaustive(report):
    t0 = time.perf_counter()
    kind = FourierKind("qutrit")
    ok = initial_index(kind) == 1
    for img in [(1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1), (2, 1, 3), (1, 3, 2)]:
        p = Permutation(img)
        rep = run_quantum(p, kind)
        even = parity(p) == 1
        ok = ok and rep.measured_index == (1 if even else 3)
        ok = ok and rep.oracle_queries == 1
        ok = ok and abs(rep.final_state[1]) ** 2 <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, f"three-level runs: even->|1>, odd->|3>, middle level dark ({elapsed:.2f}s < 1s)", ok)


def test_criterion_2_four_level_matrices_and_phases(report):
    t0 = time.perf_counter()
    u_rot1 = np.array(
        [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float
    )
    u_refl0 = np.fliplr(np.eye(4))
    ok = bool(np.all(oracle_unitary(Permutation((2, 3, 4, 1))) == u_rot1))
    ok = ok and bool(np.all(oracle_unitary(Permutation((4, 3, 2, 1))) == u_refl0))

    expected = {
        (1, 2, 3, 4): (2, 1), (2, 3, 4, 1): (2, -1j),
        (3, 4, 1, 2): (2, -1), (4, 1, 2, 3): (2, 1j),
        (4, 3, 2, 1): (4, -1j), (3, 2, 1, 4): (4, -1),
        (2, 1, 4, 3): (4, 1j), (1, 4, 3, 2): (4, 1),
    }
    for img, (idx, phase) in expected.items():
        rep = run_quantum(Permutation(img))
        ok = ok and rep.measured_index == idx and abs(rep.phase - phase) < 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, f"four-level oracles exact, all 8 readout phases within 1e-10 ({elapsed:.2f}s < 1s)", ok)


def test_criterion_3_dimension_sweep(report):
    t0 = time.perf_counter()
    ok = True
    for d in range(3, 13):
        fam = enumerate_cyclic(d)
        ok = ok and len(fam) == 2 * d
        for p in fam:
            rep = run_quantum(p)
            truth = classify_cyclic(p)
            ok = ok and rep.classification is truth.chirality
            want = 2 if truth.chirality is Chirality.POSITIVE else d
            ok = ok and rep.measured_index == want
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(3, f"all 2d cyclic cases classified, sizes 3..12 ({elapsed:.2f}s < 5s)", ok)


def test_criterion_4_query_complexity_separation(report):
    t0 = time.perf_counter()
    ok = all(one_query_insufficient(d) is True for d in range(3, MAX_DIM + 1))
    for d in range(3, 9):
        for p in enumerate_cyclic(d):
            rep = run_classical(p)
            ok = ok and rep.oracle_queries == 2
            ok = ok and rep.classification is classify_cyclic(p).chirality
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    label = f"one classical query never suffices (sizes 3..{MAX_DIM}), two always do (3..8)"
    report(4, f"{label} ({elapsed:.2f}s < 5s)", ok)


def test_criterion_5_fourier_matrices(report):
    frozen4 = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, 1j, -1, -1j],
            [1, -1, 1, -1],
            [1, -1j, -1, 1j],
        ]
    )
    ok = np.max(np.abs(qft(4) - frozen4)) < 1e-12
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    ok = ok and np.max(np.abs(qft(2) - hadamard)) < 1e-12

    spin = qft(3, FourierKind("qutrit"))
    std = qft(3)
    matched = []
    for k in range(3):
        hits = [j for j in range(3) if equal_up_to_global_phase(spin[:, k], std[:, j], 1e-10)]
        ok = ok and len(hits) == 1
        matched.extend(hits)
    ok = ok and sorted(matched) == [0, 1, 2]
    report(5, "Fourier matrices: frozen 4-level form, Hadamard at 2, spin variant = column rephasing", ok)


def test_criterion_6_relabeled_convention(report):
    sigma = Permutation((1, 3, 2, 4))
    kind = FourierKind("general", sigma)
    init = qft(4, kind) @ basis_state(4, initial_index(kind))
    ok = np.linalg.norm(init - np.array([1, -1, 1j, -1j]) / 2) <= 1e-12

    table = phase_table(4)
    for r in range(4):
        for base, chi in ((rotation(4, r), Chirality.POSITIVE), (reflection(4, r), Chirality.NEGATIVE)):
            rep = run_quantum(relabel(base, sigma), kind)
            ok = ok and rep.classification is chi
            ok = ok and rep.measured_index == (2 if chi is Chirality.POSITIVE else 4)
            ok = ok and abs(rep.phase - table[(chi, r)]) < 1e-10
    report(6, "relabeled alphabet: initial superposition (1,-1,i,-i)/2 and all 8 conjugates classified", ok)


def test_criterion_7_spin_hamiltonian_and_propagators(report):
    t0 = time.perf_counter()
    sysm = SpinSystem(spin=1.5, larmor_freq=TWO_PI * 105.8e6, quad_freq=TWO_PI * 10e3)
    h = static_hamiltonian(sysm, frame="rotating")
    want = TWO_PI * 5e3 * np.diag([1.0, -1.0, -1.0, 1.0])
    ok = np.max(np.abs(h - want)) <= 1e-6

    count = 0
    for case in range(500):
        rng = np.random.default_rng(9000 + case)
        segs = [
            PulseSegment(
                amplitude=TWO_PI * 50e3 * rng.random(),
                phase=TWO_PI * rng.random(),
                duration=1e-6 + 199e-6 * rng.random(),
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        u = sequence_propagator(sysm, segs)
        try:
            validate_unitary(u)
            count += 1
        except ValueError:
            pass
    ok = ok and count == 500
    elapsed = time.perf_counter() - t0
    report(7, f"rotating-frame splitting +/-5 kHz and 500/500 pulse propagators unitary ({elapsed:.2f}s)", ok)


def test_criterion_8_pulse_synthesis_and_protocol(report):
    t0 = time.perf_counter()
    sysm = SpinSystem()
    f = qft(4)
    targets = {
        "transform": f,
        "forward oracle + transform": oracle_unitary(ORACLES["positive"]) @ f,
        "reverse oracle + transform": oracle_unitary(ORACLES["negative"]) @ f,
        "full forward circuit": stage_unitary("positive", "full"),
        "full reverse circuit": stage_unitary("negative", "full"),
    }
    ok = True
    for label, target in targets.items():
        res = smp_optimize(sysm, target)
        u = sequence_propagator(sysm, res.segments)
        ok = ok and res.converged and gate_fidelity(u, target) >= 0.99

    for oracle in ("positive", "negative"):
        ideal = run_protocol(sysm, oracle, "full", config=None)
        ok = ok and abs(ideal.fidelity - 1.0) <= 1e-10
        pulsed = run_protocol(sysm, oracle, "full", config=OptimizerConfig())
        ok = ok and pulsed.converged and pulsed.fidelity >= 0.97
        ok = ok and pulsed.dominant_index == (2 if oracle == "positive" else 4)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(8, f"pulse-synthesized gates >= 0.99, protocol states >= 0.97, ideal exact ({elapsed:.1f}s < 120s)", ok)


def test_criterion_9_property_sweeps(report):
    t0 = time.perf_counter()
    ok = True

    # unitarity of synthesized circuit matrices
    for case in range(500):
        rng = np.random.default_rng(100 + case)
        d = int(rng.integers(2, 9))
        u = oracle_unitary(Permutation(random_permutation_image(rng, d))) @ qft(d)
        try:
            validate_unitary(u)
        except ValueError:
            ok = False

    # norm preservation under the circuit's gates F, U_p and F^dag U_p F
    for case in range(1000):
        rng = np.random.default_rng(2100 + case)
        d = int(rng.integers(2, 9))
        v = random_state(rng, d)
        f = qft(d)
        u = oracle_unitary(Permutation(random_permutation_image(rng, d)))
        for gate in (f, u, f.conj().T @ u @ f):
            ok = ok and abs(np.linalg.norm(gate @ v) - 1.0) < 1e-10

    # parity is multiplicative under composition
    for case in range(500):
        rng = np.random.default_rng(4200 + case)
        d = int(rng.integers(2, 11))
        p = Permutation(random_permutation_image(rng, d))
        q = Permutation(random_permutation_image(rng, d))
        ok = ok and parity(p.compose(q)) == parity(p) * parity(q)

    # oracle respects composition, entry for entry: 500 cases at sizes 2..8, then one at each size 9..MAX_DIM
    for case in range(500 + MAX_DIM - 8):
        rng = np.random.default_rng(6300 + case)
        d = int(rng.integers(2, 9)) if case < 500 else case - 500 + 9
        p = Permutation(random_permutation_image(rng, d))
        q = Permutation(random_permutation_image(rng, d))
        ok = ok and np.array_equal(oracle_unitary(p.compose(q)), oracle_unitary(p) @ oracle_unitary(q))

    # same-state-up-to-phase is an equivalence relation
    for case in range(500):
        rng = np.random.default_rng(8400 + case)
        d = int(rng.integers(2, 9))
        v = random_state(rng, d)
        a = np.exp(1j * rng.uniform(0, TWO_PI)) * v
        b = np.exp(1j * rng.uniform(0, TWO_PI)) * v
        c = np.exp(1j * rng.uniform(0, TWO_PI)) * v
        ok = ok and equal_up_to_global_phase(a, a, 1e-12)
        ok = ok and equal_up_to_global_phase(a, b, 1e-10) == equal_up_to_global_phase(b, a, 1e-10)
        ok = ok and equal_up_to_global_phase(a, b, 1e-10) and equal_up_to_global_phase(b, c, 1e-10)
        ok = ok and equal_up_to_global_phase(a, c, 1e-10)
        w = random_state(rng, d)
        if abs(np.vdot(v, w)) < 0.999:
            ok = ok and not equal_up_to_global_phase(v, w, 1e-6)
    elapsed = time.perf_counter() - t0
    report(9, f"five property sweeps of 500 or more seeded cases each ({elapsed:.1f}s)", ok)
