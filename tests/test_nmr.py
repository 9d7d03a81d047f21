"""Spin operators, quadrupolar Hamiltonians, pulses, pseudo-pure states."""

import itertools
import warnings

import numpy as np
import pytest

from quditcycle.linalg import basis_state
from quditcycle.protocol import run_protocol
from quditcycle.smp import (
    AMP_MAX_HZ,
    DUR_MAX_S,
    DUR_MIN_S,
    OptimizerConfig,
    segments_from_json,
    segments_to_json,
    smp_optimize,
)
import quditcycle.nmr as nmr
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

from conftest import TWO_PI, array_bits, assert_density, outcome


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


def loop_ladder(s):
    """I_+ filled entry by entry, the reference the one-diagonal build must match."""
    m = s - np.arange(round(2 * s) + 1)
    raising = np.zeros((m.size, m.size), dtype=complex)
    for k in range(1, m.size):
        raising[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    return raising


HALF_SPINS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 7.5, 15.5, 31.5]


@pytest.mark.parametrize("s", HALF_SPINS)
def test_spin_operators_match_the_loop_built_ladder(s):
    raising = loop_ladder(s)
    lowering = raising.conj().T
    ix, iy, iz = spin_operators(s)
    assert np.array_equal(ix, (raising + lowering) / 2)
    assert np.array_equal(iy, (raising - lowering) / 2j)
    assert np.array_equal(iz, np.diag(s - np.arange(round(2 * s) + 1)).astype(complex))


@pytest.mark.parametrize("frame", ["lab", "rotating"])
@pytest.mark.parametrize(
    "freqs", [(TWO_PI * 105.8e6, TWO_PI * 10e3), (TWO_PI * 50e6, -TWO_PI * 37e3)], ids=["default", "negative-wq"]
)
@pytest.mark.parametrize("s", HALF_SPINS)
def test_static_hamiltonian_is_the_operator_form_diagonal(s, freqs, frame):
    # the level diagonal equals (w_Q/6)(3 I_z^2 - s(s+1)) - w_L I_z built from
    # the operators, bit for bit; only the sign of a zero may differ
    larmor, quad = freqs
    sys = SpinSystem(spin=s, larmor_freq=larmor, quad_freq=quad)
    iz = spin_operators(s)[2]
    want = (quad / 6.0) * (3 * (iz @ iz) - s * (s + 1) * np.eye(sys.dim))
    if frame == "lab":
        want = want - larmor * iz
    h = static_hamiltonian(sys, frame)
    assert h.dtype == complex and h.shape == (sys.dim, sys.dim)
    assert np.array_equal(h.diagonal().real, want.diagonal().real)
    assert not h.imag.any() and not (h - np.diag(h.diagonal())).any()


@pytest.mark.parametrize("s", ["a", None, True, np.inf, 1.2, 32, 10**6, 1e308, -1e308, np.float64(1e308)], ids=repr)
def test_spin_operators_refuse_what_is_not_a_half_integer(s):
    # "a" and None used to raise TypeError from round(), True was spin 1,
    # spin 32 built 65 levels, past the 64 every other layer allows, and
    # +-1e308 overflowed in 2 s (OverflowError, or numpy's warning)
    with pytest.raises(ValueError, match="spin must be a"):
        spin_operators(s)


_SPIN_SYSTEM_CALLS = {
    "static_hamiltonian": static_hamiltonian,
    "transition_frequencies": transition_frequencies,
    "sequence_propagator": lambda sys: sequence_propagator(sys, [PulseSegment(1.0, 0.0, 1e-6)]),
    "pulse_propagator": lambda sys: pulse_propagator(sys, PulseSegment(1.0, 0.0, 1e-6)),
    "smp_optimize": lambda sys: smp_optimize(sys, np.eye(4), OptimizerConfig(segments=1, restarts=1, max_iter=1)),
    "run_protocol": lambda sys: run_protocol(sys, "positive", "full"),
}


@pytest.mark.parametrize("sys", [None, "x", 1.5, True, (1, 2)], ids=repr)
@pytest.mark.parametrize("call", _SPIN_SYSTEM_CALLS.values(), ids=_SPIN_SYSTEM_CALLS.keys())
def test_spin_system_functions_refuse_what_is_not_a_spin_system(call, sys):
    # each of these used to raise AttributeError on sys.dim or sys.drive
    with pytest.raises(ValueError, match="expected a SpinSystem"):
        call(sys)


@pytest.mark.parametrize("segments", [[1, 2], None, 5, "ab", [PulseSegment(1.0, 0.0, 1e-6), None]], ids=repr)
def test_sequence_propagator_refuses_what_is_not_pulse_segments(segments):
    # [1, 2] used to raise AttributeError, and None or 5 a TypeError
    with pytest.raises(ValueError, match="iterable of PulseSegment"):
        sequence_propagator(SpinSystem(), segments)


def test_spin_system_validation():
    SpinSystem()  # defaults are self-consistent
    SpinSystem(spin=1.5, larmor_freq=TWO_PI * 1e6, quad_freq=0.0)
    assert SpinSystem(spin=31.5).dim == spin_operators(31.5)[2].shape[0] == 64
    with pytest.raises(ValueError):
        SpinSystem(spin=1.2)
    for spin in (32, 10**6, 1e308, -1e308, np.float64(1e308)):  # 65 and 2,000,001 levels, and 2 s overflowing; no drive is built
        with pytest.raises(ValueError, match="spin must be a"):
            SpinSystem(spin=spin)
    with pytest.raises(ValueError):
        SpinSystem(spin=1.5, larmor_freq=TWO_PI * 1e5, quad_freq=TWO_PI * 1e4)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, pytest.param(10**400, id="10**400")], ids=repr)
@pytest.mark.parametrize("name", ["spin", "larmor_freq", "quad_freq"])
def test_spin_system_rejects_a_non_finite_or_boolean_field(name, value):
    # NaN slips past the Zeeman-dominance test and kills the eigensolver in the
    # first propagator, an infinite Larmor frequency passes it, spin=True
    # would be taken as spin 1, and 10**400 raised OverflowError.
    with pytest.raises(ValueError, match=name):
        SpinSystem(**{name: value})


@pytest.mark.parametrize(
    "spin,larmor,quad",
    [(2.5, 1e308, 1.0), (31.5, 1e308, 1e306), (1.5, np.float64(-1.7e308), np.float64(1e306))],
    ids=repr,
)
def test_spin_system_refuses_frequencies_whose_hamiltonian_overflows(spin, larmor, quad):
    # the first was accepted, and transition_frequencies returned inf with a
    # RuntimeWarning; at spin 31.5 the drive overflowed, and sequence_propagator
    # then blamed the pulse train
    with pytest.raises(ValueError, match="^larmor_freq and quad_freq too large: lab-frame energies of spin"):
        SpinSystem(spin=spin, larmor_freq=larmor, quad_freq=quad)


@pytest.mark.parametrize("spin", [0.5, 1.5, 31.5])
def test_spin_system_at_the_energy_bound_stays_finite(spin):
    # frequencies within a millionth of the largest accepted leave every level,
    # level difference and propagator finite
    larmor = 0.999999 * nmr._MAX_ENERGY / (spin * (1 + (spin + 1) / 100))
    sys = SpinSystem(spin=spin, larmor_freq=larmor, quad_freq=larmor / 100)
    for frame in ("lab", "rotating"):
        assert np.isfinite(static_hamiltonian(sys, frame)).all()
        assert np.isfinite(transition_frequencies(sys, frame)).all()
    assert np.isfinite(sequence_propagator(sys, [PulseSegment(TWO_PI * 1e4, 0.3, 1e-5)])).all()


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


# the window's edges as fixed rows: the largest amplitude, a subnormal one,
# phases of exactly +-4 pi and -0.0, and both duration ends
_EDGE_ROWS = list(itertools.product((TWO_PI * AMP_MAX_HZ, 5e-324), (2 * TWO_PI, -2 * TWO_PI, -0.0), (DUR_MIN_S, DUR_MAX_S)))
_EDGE_TRAINS = [[row] for row in _EDGE_ROWS] + [_EDGE_ROWS[i::4] for i in range(4)]


@pytest.mark.parametrize("spin", SPINS.values(), ids=SPINS.keys())
def test_engine_matches_the_per_segment_fold(spin):
    # the engine diagonalizes a real matrix in the rf-phase frame, not the
    # complex Hamiltonian, so it agrees with the reference to rounding, not bitwise
    sys = SpinSystem(spin=spin)
    rng = np.random.default_rng(9100)
    trains = []
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
        trains.append(rows.tolist())
    for train in trains + _EDGE_TRAINS:
        segs = [PulseSegment(*row) for row in train]
        u = sequence_propagator(sys, segs)
        assert np.abs(u - reference_fold(sys, segs)).max() <= fold_tolerance(spin), train
        if len(segs) == 1:
            assert np.array_equal(pulse_propagator(sys, segs[0]), u)


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
    u = sequence_propagator(sys, [])
    assert np.array_equal(u, np.eye(4))
    u[0, 0] = 2.0  # the caller owns it
    assert np.array_equal(sequence_propagator(sys, []), np.eye(4))


@pytest.mark.parametrize("n", [0, 1, 1000])
def test_the_propagator_owns_its_memory(n):
    # a view into the forward pass's (n + 1, d, d) prefix buffer would keep
    # all of it alive: 65 MB at spin 31.5 and 1,000 segments
    u = sequence_propagator(SpinSystem(), [PulseSegment(TWO_PI * 1e4, 0.3, 1e-5)] * n)
    assert u.shape == (4, 4) and u.base is None and u.flags.writeable and u.flags.c_contiguous


@pytest.mark.parametrize("spin", SPINS.values(), ids=SPINS.keys())
def test_forward_prefix_bitwise_matches_the_list_fold(spin):
    # the prefix products are written in place into one array: the same
    # products, in the same order, as a list folded from a fresh identity
    sys = SpinSystem(spin=spin)
    h0, ops, m = sys.drive
    rng = np.random.default_rng([37, sys.dim])
    for n in (0, 1, 2, 7, 50):
        amp = TWO_PI * AMP_MAX_HZ * rng.random(n)
        phase = TWO_PI * rng.uniform(-2, 2, n)
        dur = rng.uniform(DUR_MIN_S, DUR_MAX_S, n)
        steps = nmr._propagator(h0 + amp[:, None, None] * ops[0], dur, np.exp(-1j * phase[:, None] * m))[0]
        want = [np.eye(sys.dim, dtype=complex)]
        for step in steps:
            want.append(step.dot(want[-1]))
        assert array_bits(nmr._forward(sys, amp, phase, dur)[0]) == array_bits(np.array(want)), n


_OVERFLOWING_TRAINS = {
    "amp-and-duration": (1.5, [PulseSegment(1e200, 0.0, 1e200)]),
    "eigenvalues": (1.5, [PulseSegment(1.7e308, 1.0, 1e-6)]),
    "phase": (1.5, [PulseSegment(TWO_PI * 1e4, 1.7e308, 1e-6)]),
    "second-segment": (1.5, [PulseSegment(TWO_PI * 1e4, 0.0, 1e-6), PulseSegment(1e200, 0.0, 1e200)]),
    "infinite-hamiltonian": (4.5, [PulseSegment(1.7e308, 1.0, 1e-6)]),  # eigh fails on it
}


@pytest.mark.parametrize("spin, segments", _OVERFLOWING_TRAINS.values(), ids=_OVERFLOWING_TRAINS.keys())
def test_an_overflowing_train_is_refused_without_a_warning(spin, segments):
    # PulseSegment(1e200, 0, 1e200) used to give an all-NaN "unitary" with
    # three RuntimeWarnings, from pulse_propagator and from trains loaded by
    # segments_from_json alike
    sys = SpinSystem(spin=spin)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            sequence_propagator(sys, segments)
        with pytest.raises(ValueError, match="not finite"):
            sequence_propagator(sys, segments_from_json(segments_to_json(segments)))
        if len(segments) == 1:
            with pytest.raises(ValueError, match="not finite"):
                pulse_propagator(sys, segments[0])


def test_a_huge_but_finite_train_gives_a_unitary():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seg in (PulseSegment(1e308, 0.0, 1e-6), PulseSegment(TWO_PI * 1e4, 0.0, 1e300)):
            u = sequence_propagator(SpinSystem(), [seg])
            assert np.all(np.isfinite(u)) and np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12


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
    assert_density(rho)
    want_diag = (1 - 1e-5) / 4 + 1e-5 * np.array([0, 1, 0, 0])
    assert np.max(np.abs(np.diag(rho) - want_diag)) < 1e-18
    assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0

    pure = pseudo_pure(ket_bra(3, 1), 1.0)
    assert np.max(np.abs(pure - np.outer(basis_state(3, 1), basis_state(3, 1)))) < 1e-15
    flat = pseudo_pure(ket_bra(3, 1), 0.0)
    assert np.max(np.abs(flat - np.eye(3) / 3)) < 1e-15

    dev = rho - np.trace(rho) / 4 * np.eye(4)
    assert abs(np.trace(dev)) < 1e-15

    # a string or None used to raise TypeError from the range comparison
    for bad in (1.5, -0.1, np.nan, "0.5", None):
        with pytest.raises(ValueError, match="epsilon"):
            pseudo_pure(ket_bra(4, 2), bad)


_MIXTURE_AND_NOISE_REFUSALS = {
    "epsilon-bool": (lambda rho: pseudo_pure(rho, True), "epsilon must be a finite number, got True"),
    "pure-1d-list": (lambda rho: pseudo_pure([1.0, 0.0], 0.5), "expected a square matrix, got shape (2,)"),
    "pure-nonsquare-list": (lambda rho: pseudo_pure([[1.0, 0.0]], 0.5), "expected a square matrix, got shape (1, 2)"),
    "sigma-bool": (lambda rho: inject_readout_noise(rho, sigma=True), "sigma must be a finite number, got True"),
    "seed-float": (lambda rho: inject_readout_noise(rho, seed=1.5), "seed must be an integer, got 1.5"),
    "epsilon-10**400": (lambda rho: pseudo_pure(rho, 10**400), f"epsilon must be a finite number, got {10**400}"),
    "sigma-10**400": (lambda rho: inject_readout_noise(rho, sigma=10**400), f"sigma must be a finite number, got {10**400}"),
    "noise-overflow": (
        lambda rho: inject_readout_noise(ket_bra(4, 4), 1e308, 0),
        "readout noise with sigma 1e+308 overflows: the perturbed matrix is not finite",
    ),
    "sigma-negative": (lambda rho: inject_readout_noise(pseudo_pure(rho, 1e-5), -1.0, 0), "sigma must be >= 0, got -1.0"),
    "rho-nan": (lambda rho: inject_readout_noise(np.full((2, 2), np.nan), 0.01, 0), "array contains NaN or Inf"),
    "rho-nonsquare": (lambda rho: inject_readout_noise(np.ones((2, 3)), 0.01, 0), "expected a square matrix, got shape (2, 3)"),
}  # fmt: skip


@pytest.mark.parametrize("call, message", _MIXTURE_AND_NOISE_REFUSALS.values(), ids=_MIXTURE_AND_NOISE_REFUSALS.keys())
def test_mixture_and_noise_refuse_bad_arguments(call, message):
    # True used to run as 1, a list as pure raised AttributeError, a
    # fractional seed raised numpy's TypeError and 10**400 an OverflowError;
    # each refusal is pinned by its exact type and message
    assert outcome(lambda: call(ket_bra(4, 2))) == (ValueError, message)


def test_pseudo_pure_takes_any_square_array_like():
    assert np.array_equal(pseudo_pure([[1]], 0.5), np.eye(1))
    assert np.array_equal(pseudo_pure(ket_bra(4, 2).tolist(), 0.5), pseudo_pure(ket_bra(4, 2), 0.5))
    rho = pseudo_pure(ket_bra(4, 2), 1e-5)
    assert np.array_equal(inject_readout_noise(rho, seed=np.int64(3)), inject_readout_noise(rho, seed=3))


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
    for bad in (-0.1, np.nan, np.inf, "0.1", None):
        with pytest.raises(ValueError, match="sigma"):
            inject_readout_noise(rho, sigma=bad, seed=0)
    for bad in (np.ones((4, 3)), np.full((4, 4), np.nan)):
        with pytest.raises(ValueError):
            inject_readout_noise(bad, seed=0)


def _hermitian(n):
    """A seeded n x n Hermitian matrix with entries of order 1."""
    rng = np.random.default_rng(n)
    rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return rho + rho.conj().T


_SIGNED_ZEROS = ket_bra(4, 2)
_SIGNED_ZEROS[0, 1] = _SIGNED_ZEROS[3, 3] = complex(-0.0, -0.0)
# rho, seeds, sigmas
_NOISE_CASES = {str(n): (_hermitian(n), (0, 1, 7, 2**40), (0.0, 0.01, 3.5)) for n in (1, 2, 4, 7)}
_NOISE_CASES |= {
    name: (rho, range(200), (0.0, 1e-3, 0.01, 1.0))
    for name, rho in {
        "pseudo-pure-4": pseudo_pure(ket_bra(4, 2), 1e-5),
        "pseudo-pure-3": pseudo_pure(ket_bra(3, 1), 0.3),
        "signed-zeros": _SIGNED_ZEROS,
        "negative-zeros": np.full((3, 3), -0.0j),
    }.items()
}


@pytest.mark.parametrize("rho, seeds, sigmas", _NOISE_CASES.values(), ids=_NOISE_CASES.keys())
def test_readout_noise_is_the_stream_of_two_draws(rho, seeds, sigmas):
    # the real and imaginary parts come from one draw of shape (2, n, n); a
    # draw of the real parts, then one of the imaginary parts, is the reference
    n = len(rho)
    for seed in seeds:
        for sigma in sigmas:
            ref = np.random.default_rng(seed)
            scale = sigma * float(np.max(np.abs(rho)))
            g = ref.normal(0.0, scale, rho.shape) + 1j * ref.normal(0.0, scale, rho.shape)
            pert = (g + g.conj().T) / 2
            pert -= (np.trace(pert).real / n) * np.eye(n)
            assert array_bits(inject_readout_noise(rho, sigma, seed)) == array_bits(rho + pert)


def test_readout_noise_refuses_an_overflowing_perturbation():
    # sigma = 1e308 used to warn and return a NaN matrix, which pseudo_pure
    # then refused with a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            inject_readout_noise(ket_bra(4, 4), 1e308, 0)
        big = inject_readout_noise(ket_bra(4, 4), 1e300, 0)
    assert np.all(np.isfinite(big)) and np.max(np.abs(big)) > 1e299
