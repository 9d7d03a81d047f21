"""Quadrupolar NMR physics for a single spin: operators, Hamiltonians, pulses.

Units and conventions (hbar = 1 throughout):

- All frequencies are angular (rad/s).  A quoted "nu_Q = 10 kHz" enters as
  quad_freq = 2 pi * 1e4.
- Spin operators are written in the |s, m> basis ordered m = s, s-1, .., -s,
  so for s = 3/2 the four levels map to qudit labels |1>..|4>.
- The static Hamiltonian is H = -w_L I_z + (w_Q / 6) (3 I_z^2 - I^2).
  On resonance in the rotating frame the Zeeman term drops out and only the
  quadrupolar part remains; for s = 3/2 that is
  diag(+w_Q/2, -w_Q/2, -w_Q/2, +w_Q/2).
- An rf pulse adds w_1 (I_x cos phi + I_y sin phi) while it is on.

Propagators are built by eigendecomposition of the Hamiltonian, which is
exact at these matrix sizes.  The rf phase is a rotation about z: with
Z_phi = exp(-i phi I_z), diagonal in this basis,

    H(w_1, phi) = Z_phi (H_Q + w_1 I_x) Z_phi^dag,

and H_Q + w_1 I_x is real symmetric (the fictitious spin-1/2 picture of
quadrupolar NMR; Vega, J. Chem. Phys. 68, 5518 (1978)).  So each segment is
diagonalized by a real eigh, and the phase only scales the rows of the
eigenvectors.  A pulse train is propagated in one batch: all segment
Hamiltonians at once, one stacked real eigh, then the time-ordered product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import MAX_DIM, _as_array, check_choice, check_finite, check_int, check_type, shown


def _twice_spin(s: float) -> int:
    """2s for a positive half-integer spin s of at most MAX_DIM levels; anything else raises ValueError."""
    check_finite(spin=s)  # round() would raise TypeError on a string and take True as 1
    twice = round(2 * s) if 0 < s < MAX_DIM else 0  # the range first: 2 s overflows near the float maximum
    if not 1 <= twice < MAX_DIM or abs(2 * s - twice) > 1e-9:
        raise ValueError(f"spin must be a positive half-integer up to {(MAX_DIM - 1) / 2}, got {shown(s)}")
    return twice


def spin_operators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (I_x, I_y, I_z) for spin quantum number s in {1/2, 1, 3/2, ...}.

    Built from the ladder operators with the standard matrix elements
    <m+-1| I_+- |m> = sqrt(s(s+1) - m(m +- 1)).
    """
    twice = _twice_spin(s)
    s = twice / 2.0
    m = s - np.arange(twice + 1)  # m = s .. -s
    iz = np.diag(m).astype(complex)
    # I_+ connects |m> to |m+1>: one diagonal above the main one, read at the source level m.
    raising = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    lowering = raising.conj().T
    ix = (raising + lowering) / 2
    iy = (raising - lowering) / 2j
    return ix, iy, iz


_MAX_ENERGY = float(np.finfo(float).max) / 4  # the largest lab-frame energy a SpinSystem may hold, in rad/s


@dataclass(frozen=True)
class SpinSystem:
    """A nucleus in a strong field with a first-order quadrupolar splitting.

    Defaults describe the spin-3/2 system the protocol targets: Larmor
    frequency around 2 pi * 105.8 MHz and quadrupolar splitting
    2 pi * 10 kHz.  The Zeeman term must dominate (|w_L| >= 100 |w_Q|)
    for the rotating-frame treatment to be honest.
    """

    spin: float = 1.5
    larmor_freq: float = 2 * np.pi * 105.8e6
    quad_freq: float = 2 * np.pi * 10e3

    def __post_init__(self):
        s = _twice_spin(self.spin) / 2
        # NaN passes the Zeeman-dominance test below and reaches the eigensolver
        check_finite(larmor_freq=self.larmor_freq, quad_freq=self.quad_freq)
        # as Python floats, which overflow to inf without a numpy warning
        larmor, quad = abs(float(self.larmor_freq)), abs(float(self.quad_freq))
        # every lab-frame energy |(w_Q / 6)(3 m^2 - s(s+1)) - w_L m| is at most s (|w_L| + (s + 1) |w_Q|);
        # a quarter of the float range leaves the level differences and the drift plus a drive finite
        if not s * (larmor + (s + 1) * quad) <= _MAX_ENERGY:
            raise ValueError(
                f"larmor_freq and quad_freq too large: lab-frame energies of spin {s} must stay below {_MAX_ENERGY!r} rad/s"
            )
        if larmor < 100 * quad:
            raise ValueError(
                "Zeeman term must dominate: need |larmor_freq| >= 100 |quad_freq|"
            )

    @property
    def dim(self) -> int:
        return round(2 * self.spin) + 1

    @cached_property
    def drive(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rotating-frame drift, stacked (I_x, -i I_y), m = diag I_z), all real, built once and read-only."""
        ix, iy, iz = spin_operators(self.spin)
        drift = static_hamiltonian(self, "rotating").real.copy()
        ops = (drift, np.stack([ix.real, iy.imag]), iz.diagonal().real.copy())
        for op in ops:
            op.flags.writeable = False
        return ops


def static_hamiltonian(sys: SpinSystem, frame: str = "rotating") -> np.ndarray:
    """Drift Hamiltonian in rad/s, in the lab or the on-resonance rotating frame."""
    check_type(sys, SpinSystem)
    check_choice(frame, ("lab", "rotating"), "frame")
    s = (sys.dim - 1) / 2.0
    m = s - np.arange(sys.dim)
    energies = (sys.quad_freq / 6.0) * (3 * m * m - s * (s + 1))
    if frame == "lab":
        energies = energies - sys.larmor_freq * m
    return np.diag(energies).astype(complex)


@dataclass(frozen=True)
class PulseSegment:
    """One constant-amplitude rf segment.

    amplitude: rf strength w_1 in rad/s (>= 0)
    phase:     rf phase phi in radians
    duration:  length in seconds (> 0)
    """

    amplitude: float
    phase: float
    duration: float

    def __post_init__(self):
        check_finite(amplitude=self.amplitude, phase=self.phase, duration=self.duration)
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {shown(self.amplitude)}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {shown(self.duration)}")


def _propagator(h: np.ndarray, t: np.ndarray, frame: np.ndarray):
    """exp(-i Z h Z^dag t) for a stack (n, d, d) of real symmetric h, durations t
    of shape (n,) and diagonal unitary frames Z given by their diagonals (n, d).

    One batched real eigh, exact at these sizes: if h = W diag(evals) W^T, then
    V = Z W diagonalizes Z h Z^dag, and with the half steps
    D = diag(exp(-i evals t / 2)) each step is (V D)(D V^dag).  Returns the
    steps with the parts a gradient works in, (steps, evals, W, D V^dag,
    evals t / 2).
    """
    evals, real_vecs = np.linalg.eigh(h)
    angle = evals * (0.5 * t)[:, None]
    half = np.exp(-1j * angle)
    vecs = frame[:, :, None] * real_vecs
    half_vecs_h = half[:, :, None] * vecs.conj().swapaxes(-1, -2)
    return (vecs * half[:, None, :]) @ half_vecs_h, evals, real_vecs, half_vecs_h, angle


def pulse_propagator(sys: SpinSystem, seg: PulseSegment) -> np.ndarray:
    """Propagator of one rf segment in the rotating frame.

    H = H_quad + w_1 (I_x cos phi + I_y sin phi), constant over the segment.
    """
    return sequence_propagator(sys, [seg])


def sequence_propagator(sys: SpinSystem, segments) -> np.ndarray:
    """Time-ordered product of segment propagators (first segment acts first).

    sys is a SpinSystem and segments an iterable of PulseSegment; anything
    else raises ValueError, and so does a train whose propagator overflows
    (say an amplitude and a duration of 1e200 each), without a floating-point
    warning.
    All n Hamiltonians are built at once and exponentiated in one batched
    call; the product is folded left in time order (u = step @ u), the same
    association as a segment-by-segment product.
    """
    check_type(sys, SpinSystem)
    rows = np.array([(s.amplitude, s.phase, s.duration) for s in _as_segments(segments)], dtype=float).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a product that is not finite
        try:
            # a copy, so the returned propagator does not keep the whole prefix buffer alive
            u = _forward(sys, *rows.T)[0][-1].copy()
        except np.linalg.LinAlgError:  # eigh's, on a Hamiltonian with an infinite entry
            u = None
    if u is None or not np.isfinite(u).all():
        raise ValueError("the propagator of this pulse train is not finite: its amplitudes, phases or durations are too large")
    return u


def _as_segments(segments) -> list[PulseSegment]:
    """segments as a list if it is an iterable of PulseSegment; anything else raises ValueError."""
    try:
        return [check_type(s, PulseSegment) for s in segments]
    except (TypeError, ValueError):  # not iterable, or an entry that is not a PulseSegment
        raise ValueError(f"segments must be an iterable of PulseSegment, got {shown(segments)}") from None


def _forward(sys: SpinSystem, amp: np.ndarray, phase: np.ndarray, dur: np.ndarray):
    """Forward pass of a train given as arrays of n amplitudes, phases and durations.

    Segment k has the Hamiltonian Z_k (h0 + amp_k I_x) Z_k^dag with
    Z_k = exp(-i phase_k I_z).  Returns (prefix, evals, W, D V^dag, evals t / 2)
    with the parts from _propagator and the (n + 1, d, d) array of prefix products
    prefix[k] = S_k .. S_1 of the first k steps: prefix[0] = 1, and prefix[n]
    is the train's propagator.
    """
    h0, ops, m = sys.drive
    frame = np.exp(-1j * phase[:, None] * m)
    steps, *parts = _propagator(h0 + amp[:, None, None] * ops[0], dur, frame)
    prefix = np.empty((len(steps) + 1, len(m), len(m)), dtype=complex)
    prefix[0] = np.eye(len(m))
    for k, step in enumerate(steps):
        prefix[k + 1] = step @ prefix[k]
    return prefix, *parts


def pseudo_pure(pure: np.ndarray, epsilon: float) -> np.ndarray:
    """Pseudo-pure density matrix rho = (1 - eps)/d * 1 + eps * pure.

    pure is the epsilon-component (a d x d density matrix, e.g. |i><i| or
    its evolved form); the maximally mixed background is invisible to
    unitary evolution and deviation-matrix readout.
    """
    pure = _as_array(pure, 2)
    check_finite(epsilon=epsilon)
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {shown(epsilon)}")
    d = pure.shape[0]
    return (1.0 - epsilon) / d * np.eye(d, dtype=complex) + epsilon * pure


def transition_frequencies(sys: SpinSystem, frame: str = "lab") -> np.ndarray:
    """Single-quantum transition frequencies |E(m-1) - E(m)|, sorted ascending.

    In the lab frame a spin-3/2 shows the familiar triplet
    (w_L - w_Q, w_L, w_L + w_Q).
    """
    energies = static_hamiltonian(sys, frame).diagonal().real  # H is diagonal in the I_z basis
    return np.sort(np.abs(np.diff(energies)))


def inject_readout_noise(rho: np.ndarray, sigma: float = 0.01, seed: int | None = None) -> np.ndarray:
    """Emulate tomography-style readout errors on a density matrix.

    Adds a Hermitian perturbation whose elements have standard deviation
    sigma * max|rho|, then projects back onto the original trace (the
    traceful part of the perturbation is subtracted, the usual trace
    restoration in tomography postprocessing).  At the default sigma the
    element-wise deviation stays well below 6% of the largest element: the
    cap sits almost 7 standard deviations out.  The output may have small
    negative eigenvalues, as real reconstructed matrices do.

    Raises ValueError, without a floating-point warning, when sigma is so
    large that the perturbation or the noisy matrix overflows.
    """
    a = _as_array(rho, 2)
    check_finite(sigma=sigma)
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {shown(sigma)}")
    d = a.shape[0]
    seed = None if seed is None else check_int(seed, "seed")
    if seed is not None and seed < 0:  # numpy's own refusal names no argument
        raise ValueError(f"seed must be >= 0, got {shown(seed)}")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = sigma * float(np.abs(a).max())
        real, imag = rng.normal(0.0, scale, (2, *a.shape))  # the stream of two calls, real part first
        g = real + 1j * imag
        pert = (g + g.conj().T) / 2
        pert -= (pert.trace().real / d) * np.eye(d)
        noisy = a + pert
    if not np.isfinite(noisy).all():
        raise ValueError(f"readout noise with sigma {shown(sigma)} overflows: the perturbed matrix is not finite")
    return noisy
