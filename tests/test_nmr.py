"""Spin operators, quadrupolar Hamiltonians, pulses, pseudo-pure states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcycle.linalg import basis_state, validate_density, validate_unitary
from quditcycle.smp import AMP_MAX_HZ, DUR_MAX_S, DUR_MIN_S
from quditcycle.nmr import (
    PulseSegment,
    SpinSystem,
    inject_readout_noise,
    pseudo_pure,
    pulse_propagator,
    sequence_propagator,
    spin_operators,
    static_hamiltonian,
    transition_frequencies,
)

TWO_PI = 2 * np.pi


def test_spin_half_operators_are_half_paulis():
    ix, iy, iz = spin_operators(0.5)
    assert np.max(np.abs(ix - 0.5 * np.array([[0, 1], [1, 0]]))) < 1e-12
    assert np.max(np.abs(iy - 0.5 * np.array([[0, -1j], [1j, 0]]))) < 1e-12
    assert np.max(np.abs(iz - 0.5 * np.diag([1, -1]))) < 1e-12


def test_spin_three_halves_diagonals():
    ix, iy, iz = spin_operators(1.5)
    assert np.max(np.abs(iz - np.diag([1.5, 0.5, -0.5, -1.5]))) < 1e-12
    # raising/lowering structure sits on the off-diagonals of Ix
    want = np.sqrt([3, 4, 3]) / 2
    assert np.max(np.abs(np.diag(ix, 1) - want)) < 1e-12
    assert np.max(np.abs(np.diag(ix, -1) - want)) < 1e-12
    assert np.max(np.abs(np.diag(iy, 1) + 1j * want)) < 1e-12


def test_angular_momentum_algebra():
    for s in (0.5, 1.0, 1.5, 2.0):
        ix, iy, iz = spin_operators(s)
        d = round(2 * s) + 1
        casimir = ix @ ix + iy @ iy + iz @ iz
        assert np.max(np.abs(casimir - s * (s + 1) * np.eye(d))) < 1e-12
        assert np.max(np.abs(ix @ iy - iy @ ix - 1j * iz)) < 1e-12
        assert np.max(np.abs(iy @ iz - iz @ iy - 1j * ix)) < 1e-12
        assert np.max(np.abs(iz @ ix - ix @ iz - 1j * iy)) < 1e-12


def test_spin_system_validation():
    SpinSystem()  # defaults are self-consistent
    SpinSystem(spin=1.5, larmor_freq=TWO_PI * 1e6, quad_freq=0.0)
    with pytest.raises(ValueError):
        SpinSystem(spin=1.2)
    with pytest.raises(ValueError):
        SpinSystem(spin=1.5, larmor_freq=TWO_PI * 1e5, quad_freq=TWO_PI * 1e4)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True], ids=repr)
@pytest.mark.parametrize("name", ["spin", "larmor_freq", "quad_freq"])
def test_spin_system_rejects_a_non_finite_or_boolean_field(name, value):
    # NaN slips past the Zeeman-dominance test and kills the eigensolver in the
    # first propagator, an infinite Larmor frequency passes it, and spin=True
    # would be taken as spin 1.
    with pytest.raises(ValueError, match=name):
        SpinSystem(**{name: value})


def test_rotating_frame_hamiltonian_is_quadrupolar_only():
    sys = SpinSystem(spin=1.5, larmor_freq=TWO_PI * 105.8e6, quad_freq=TWO_PI * 10e3)
    h = static_hamiltonian(sys, frame="rotating")
    want = TWO_PI * 5e3 * np.diag([1, -1, -1, 1])
    assert np.max(np.abs(h - want)) < 1e-6  # absolute scale is ~3e4 rad/s
    assert np.max(np.abs(h - h.conj().T)) == 0


def test_lab_frame_transition_triplet():
    sys = SpinSystem(spin=1.5, larmor_freq=TWO_PI * 105.8e6, quad_freq=TWO_PI * 10e3)
    freqs = transition_frequencies(sys, frame="lab")
    want = TWO_PI * np.array([105.8e6 - 10e3, 105.8e6, 105.8e6 + 10e3])
    assert freqs.shape == (3,)
    assert np.max(np.abs(np.sort(freqs) - want)) < 1e-3
    rot = transition_frequencies(sys, frame="rotating")
    assert np.max(np.abs(np.sort(rot) - TWO_PI * np.array([0, 10e3, 10e3]))) < 1e-6


def test_pulse_segment_validation():
    PulseSegment(amplitude=TWO_PI * 20e3, phase=0.3, duration=10e-6)
    with pytest.raises(ValueError):
        PulseSegment(amplitude=-1.0, phase=0.0, duration=1e-6)
    with pytest.raises(ValueError):
        PulseSegment(amplitude=1.0, phase=0.0, duration=0.0)
    with pytest.raises(ValueError):
        PulseSegment(amplitude=np.nan, phase=0.0, duration=1e-6)
    with pytest.raises(ValueError, match="amplitude"):
        PulseSegment(amplitude=True, phase=0.0, duration=1e-6)


def test_spin_half_pi_pulse_closed_form():
    # resonant x pulse on a spin 1/2 with no quadrupole: area pi flips the
    # state with a -i phase, exp(-i pi Ix) |up> = -i |down>
    sys = SpinSystem(spin=0.5, larmor_freq=TWO_PI * 500e6, quad_freq=0.0)
    w1 = TWO_PI * 25e3
    seg = PulseSegment(amplitude=w1, phase=0.0, duration=np.pi / w1)
    u = pulse_propagator(sys, seg)
    up = basis_state(2, 1)
    assert np.max(np.abs(u @ up - (-1j) * basis_state(2, 2))) < 1e-12
    # half that duration makes an equal superposition
    half = pulse_propagator(sys, PulseSegment(w1, 0.0, np.pi / (2 * w1)))
    got = half @ up
    assert abs(abs(got[0]) ** 2 - 0.5) < 1e-12


def test_propagator_unitarity_sweep():
    sys = SpinSystem()
    count = 0
    for case in range(500):
        rng = np.random.default_rng(6000 + case)
        segs = [
            PulseSegment(
                amplitude=TWO_PI * 50e3 * rng.random(),
                phase=TWO_PI * rng.random(),
                duration=1e-6 + 199e-6 * rng.random(),
            )
            for _ in range(rng.integers(1, 4))
        ]
        u = sequence_propagator(sys, segs)
        validate_unitary(u, tol=1e-10)
        count += 1
    assert count == 500


def test_sequence_order_matters_and_composes():
    sys = SpinSystem()
    a = PulseSegment(TWO_PI * 30e3, 0.0, 7e-6)
    b = PulseSegment(TWO_PI * 30e3, np.pi / 2, 11e-6)
    ua, ub = pulse_propagator(sys, a), pulse_propagator(sys, b)
    assert np.max(np.abs(sequence_propagator(sys, [a, b]) - ub @ ua)) < 1e-12


SPINS = {"spin-1/2": 0.5, "spin-1": 1.0, "spin-3/2": 1.5, "spin-2": 2.0, "spin-5/2": 2.5, "spin-3": 3.0, "spin-7/2": 3.5}


def fold_tolerance(spin):
    """How far two exact engines may drift apart: 1e-13 up to spin 3/2, then in
    proportion to the spin, as the rounding of exp(-i lambda t) grows with |H| t.
    At spin 7/2 both this engine and reference_fold are 4e-14 to 9e-14 off a
    30-digit propagator on the worst of the seeded trains."""
    return 1e-13 * max(1.0, spin / 1.5)


def reference_fold(sys, segments):
    """The engine the batched one replaced: one complex eigh per segment, folded left."""
    ix, iy, _ = spin_operators(sys.spin)
    h0 = static_hamiltonian(sys, "rotating")
    u = np.eye(sys.dim, dtype=complex)
    for seg in segments:
        h = h0 + seg.amplitude * (ix * np.cos(seg.phase) + iy * np.sin(seg.phase))
        evals, vecs = np.linalg.eigh(h)
        u = ((vecs * np.exp(-1j * evals * seg.duration)) @ vecs.conj().T) @ u
    return u


@pytest.mark.parametrize("spin", SPINS.values(), ids=SPINS.keys())
def test_engine_matches_the_per_segment_fold(spin):
    # the engine diagonalizes a real matrix in the rf-phase frame, not the
    # complex Hamiltonian, so it agrees with the reference to rounding, not bitwise
    sys = SpinSystem(spin=spin)
    rng = np.random.default_rng(9100)
    for case in range(300):
        n = 1 if case % 10 == 0 else int(rng.integers(2, 9))
        rows = np.column_stack(
            [
                TWO_PI * AMP_MAX_HZ * rng.random(n),
                TWO_PI * rng.uniform(-2, 2, n),
                rng.uniform(DUR_MIN_S, DUR_MAX_S, n),
            ]
        )
        rows[rng.random(n) < 0.25, 0] = 0.0
        rows[rng.random(n) < 0.2, 2] = DUR_MIN_S
        rows[rng.random(n) < 0.2, 2] = DUR_MAX_S
        segs = [PulseSegment(*row) for row in rows.tolist()]
        u = sequence_propagator(sys, segs)
        assert np.abs(u - reference_fold(sys, segs)).max() <= fold_tolerance(spin)
        if n == 1:
            assert np.array_equal(pulse_propagator(sys, segs[0]), u)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    spin=st.sampled_from(list(SPINS.values())),
    train=st.lists(
        st.tuples(
            st.floats(0.0, TWO_PI * AMP_MAX_HZ),
            st.floats(-2 * TWO_PI, 2 * TWO_PI),
            st.floats(DUR_MIN_S, DUR_MAX_S),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_engine_matches_the_per_segment_fold_on_random_trains(spin, train):
    sys = SpinSystem(spin=spin)
    segs = [PulseSegment(*row) for row in train]
    assert np.abs(sequence_propagator(sys, segs) - reference_fold(sys, segs)).max() <= fold_tolerance(spin)


@pytest.mark.parametrize("spin", SPINS.values(), ids=SPINS.keys())
def test_segment_hamiltonian_factors_through_the_phase_frame(spin):
    # what the engine rests on: H(a, phi) = Z_phi H(a, 0) Z_phi^dag with the
    # diagonal Z_phi = exp(-i phi I_z), and H(a, 0) real symmetric, commuting
    # with the level reversal m -> -m
    sys = SpinSystem(spin=spin)
    ix, iy, iz = spin_operators(spin)
    h0 = static_hamiltonian(sys, "rotating")
    reverse = np.eye(sys.dim)[::-1]
    rng = np.random.default_rng([31, sys.dim])
    for amp, phase in zip(TWO_PI * AMP_MAX_HZ * rng.random(20), TWO_PI * rng.uniform(-2, 2, 20)):
        h = h0 + amp * ix
        assert not h.imag.any() and np.array_equal(h, h.T)
        assert np.array_equal(reverse @ h @ reverse, h)
        z = np.diag(np.exp(-1j * phase * np.diag(iz)))
        want = h0 + amp * (ix * np.cos(phase) + iy * np.sin(phase))
        assert np.abs(z @ h @ z.conj().T - want).max() <= 1e-12 * np.abs(want).max()


def test_empty_train_is_identity():
    sys = SpinSystem()
    assert np.array_equal(sequence_propagator(sys, []), np.eye(4))


def test_drive_is_built_once_per_system():
    sys = SpinSystem()
    drive = sys.drive
    assert sys.drive is drive
    ix, iy, iz = spin_operators(sys.spin)
    h0, ops, m = drive
    assert np.array_equal(h0, static_hamiltonian(sys, "rotating"))
    assert np.array_equal(ops[0], ix) and np.array_equal(1j * ops[1], iy)
    assert np.array_equal(m, np.diag(iz))
    assert not any(np.iscomplexobj(op) or op.flags.writeable for op in drive)


def ket_bra(dim, index):
    ket = basis_state(dim, index)
    return np.outer(ket, ket.conj())


def test_pseudo_pure_composition():
    rho = pseudo_pure(ket_bra(4, 2), 1e-5)
    validate_density(rho)
    want_diag = (1 - 1e-5) / 4 + 1e-5 * np.array([0, 1, 0, 0])
    assert np.max(np.abs(np.diag(rho) - want_diag)) < 1e-18
    assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0

    pure = pseudo_pure(ket_bra(3, 1), 1.0)
    assert np.max(np.abs(pure - np.outer(basis_state(3, 1), basis_state(3, 1)))) < 1e-15
    flat = pseudo_pure(ket_bra(3, 1), 0.0)
    assert np.max(np.abs(flat - np.eye(3) / 3)) < 1e-15

    dev = rho - np.trace(rho) / 4 * np.eye(4)
    assert abs(np.trace(dev)) < 1e-15

    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError):
            pseudo_pure(ket_bra(4, 2), bad)


def test_readout_noise_properties():
    rho = pseudo_pure(ket_bra(4, 2), 1e-5)
    assert np.max(np.abs(inject_readout_noise(rho, sigma=0.0, seed=1) - rho)) == 0

    noisy = inject_readout_noise(rho, sigma=0.02, seed=7)
    assert np.max(np.abs(noisy - noisy.conj().T)) < 1e-12
    assert abs(np.trace(noisy) - 1.0) < 1e-12
    assert np.max(np.abs(noisy - rho)) > 0

    scale = np.max(np.abs(rho))
    for seed in range(100):
        out = inject_readout_noise(rho, seed=seed)
        assert np.max(np.abs(out - rho)) < 0.06 * scale
        assert abs(np.trace(out) - 1.0) < 1e-12

    assert np.max(
        np.abs(inject_readout_noise(rho, seed=3) - inject_readout_noise(rho, seed=3))
    ) == 0
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            inject_readout_noise(rho, sigma=bad, seed=0)
    for bad in (np.ones((4, 3)), np.full((4, 4), np.nan)):
        with pytest.raises(ValueError):
            inject_readout_noise(bad, seed=0)
