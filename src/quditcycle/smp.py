"""Strongly modulating pulse (SMP) synthesis by exact-gradient L-BFGS-B.

A target unitary is approximated by a short train of constant rf segments,
each described by (amplitude, phase, duration).  The search minimizes
1 - F where F = |Tr(target^dag U_seq)| / d is the phase-insensitive gate
fidelity, with its exact gradient in every amplitude, phase and duration
(GRAPE, Khaneja et al., J. Magn. Reson. 172, 296 (2005)): each segment step
exp(-i H t) is differentiated in the eigenbasis of its Hamiltonian, and the
steps before and after it enter as prefix and suffix products.  Eigenbases
and prefix products come from nmr's forward pass, the one that
sequence_propagator also runs.  That pass diagonalizes the real matrix
H_Q + w_1 I_x and carries the rf phase as a diagonal frame, so the
amplitude and phase derivatives are traces against I_x and I_y turned into
the same real eigenbasis.  L-BFGS-B follows that gradient inside the
hardware box (the quasi-Newton refinement of de Fouquieres et al., J. Magn.
Reson. 212, 412 (2011)), keeping one correction pair per parameter so that
its Hessian model spans the whole search, and is restarted from several
seeded initial guesses; the best result over all restarts is kept, so the
outcome is deterministic in (seed) and can only improve as the restart
budget grows.

Internally the search walks a dimensionless parameter vector (amplitudes
and durations scaled to [0, SEARCH_SCALE], phases in turns), which keeps the
steps commensurate across parameters of wildly different physical magnitude.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.optimize import Bounds, minimize

from .linalg import check_finite, check_int, validate_unitary
from .nmr import PulseSegment, SpinSystem, _forward

log = logging.getLogger("quditcycle")

# The rf window: amplitude up to 50 kHz, segment length 1 .. 200 us.  It spans
# several quadrupolar periods at the default 10 kHz splitting, enough
# nonlinearity for generic spin-3/2 gates.
AMP_MAX_HZ = 50e3
DUR_MIN_S = 1e-6
DUR_MAX_S = 200e-6
# L-BFGS-B's first step is a unit-length projected-gradient step; in a [0, 1]
# box it lands in a corner, so amplitude and duration are searched in [0, 10].
SEARCH_SCALE = 10.0
# L-BFGS-B's relative stopping tolerance on the objective (scipy's ftol).
OBJECTIVE_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget for SMP synthesis inside the fixed rf window.

    max_iter caps both the L-BFGS-B iterations and the objective-plus-
    gradient evaluations of one restart.  The search keeps one correction
    pair per parameter (3 * segments).  Six segments carry 18 parameters,
    comfortably over the 15 a four-level gate needs, so random restarts land
    above min_fidelity within a try or two; shorter trains reach the target
    only marginally and unreliably.
    """

    segments: int = 6
    restarts: int = 32
    seed: int = 0
    min_fidelity: float = 0.995
    max_iter: int = 6000

    def __post_init__(self):
        # a string or None would fail the range checks below with a TypeError
        for name in ("segments", "restarts", "seed", "max_iter"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        # True would compare as 1 and be taken as a fidelity target
        check_finite(min_fidelity=self.min_fidelity)
        if self.segments < 1:
            raise ValueError("need at least one segment")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if not 0 < self.min_fidelity <= 1:
            raise ValueError("min_fidelity must be in (0, 1]")
        if self.seed < 0 or self.max_iter < 1:
            raise ValueError("need seed >= 0 and max_iter >= 1")


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(u^dag v)| / d, insensitive to a global phase between u and v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"need two square matrices of equal shape, got {u.shape} and {v.shape}")
    return float(np.abs(np.trace(u.conj().T @ v)) / u.shape[0])


@dataclass(frozen=True)
class RestartRecord:
    """What one optimizer restart did: its final fidelity, cost and stop reason."""

    fidelity: float
    nfev: int
    nit: int
    message: str
    seconds: float


@dataclass
class SmpResult:
    """Best pulse train found, with its fidelity, convergence status and one record per restart run."""

    segments: list[PulseSegment]
    fidelity: float
    converged: bool
    history: list[RestartRecord]


# The search window, one row each for amplitude, phase (in turns, unbounded) and
# duration: y is clipped to [_LOWER, _UPPER] and decodes to _OFFSET + _SPAN * y.
_LOWER = np.array([[0.0], [-np.inf], [0.0]])
_UPPER = np.array([[SEARCH_SCALE], [np.inf], [SEARCH_SCALE]])
_SPAN = np.array([[2 * np.pi * AMP_MAX_HZ / SEARCH_SCALE], [2 * np.pi], [(DUR_MAX_S - DUR_MIN_S) / SEARCH_SCALE]])
_OFFSET = np.array([[0.0], [0.0], [DUR_MIN_S]])


def _decode(y: np.ndarray) -> np.ndarray:
    """(3, n) rows of amplitudes (rad/s), phases (rad) and durations (s) from the search vector."""
    return _OFFSET + _SPAN * np.minimum(np.maximum(y.reshape(3, -1), _LOWER), _UPPER)


def _objective(y: np.ndarray, sys: SpinSystem, target_h: np.ndarray):
    """1 - F for the search vector y and its exact gradient in y.

    y holds n amplitudes, n phases and n durations, the rows of the search
    window, and target_h is target^dag.  The value is bitwise
    1 - gate_fidelity(target, U) with U the sequence_propagator of the decoded
    train, because both come from the same forward pass.  Where
    Tr(target^dag U) = 0 the gradient of its modulus is undefined and a zero
    gradient is returned.
    """
    d = sys.dim
    amp, _, dur = rows = _decode(y)
    # prefix[k] = R_k = S_k .. S_1, so R_{k-1} precedes step k and R_n = U
    prefix, evals, real_vecs, half_vecs_h, angle = _forward(sys, *rows)
    w = target_h @ prefix[-1]
    z = w.trace()
    value = 1.0 - float(np.abs(z) / d)
    if z == 0:
        return value, np.zeros_like(y)

    # dz = Tr(T^dag L_k dS_k R_{k-1}) with the suffix product L_k = S_n .. S_{k+1}
    # = U R_k^dag.  In the eigenbasis V = Z W of step k that is
    # -i t sum_ij p_ij sinc_ij (V^dag dH V)_ji, where p = A w A^dag with the
    # half-step A = D V^dag R_{k-1}, and sinc_ij = sin(x) / x at
    # x = (lambda_i - lambda_j) t / 2: the divided difference of exp(-i lambda t)
    # in a form that is exact and tends to 1 as x -> 0, which covers the
    # degenerate drift at amplitude 0.
    a = half_vecs_h @ prefix[:-1]
    p = a @ w @ a.conj().swapaxes(-1, -2)
    x = angle[:, :, None] - angle[:, None, :]
    x = np.where(x, x, 1e-300)  # sin(x) / x is then exactly 1 where x = 0
    # Z^dag dH Z is I_x per unit amplitude and amp I_y per unit phase, because
    # dZ/dphase = -i I_z Z, the drift commutes with I_z and -i[I_z, I_x] = I_y;
    # and V^dag dH V = W^T (Z^dag dH Z) W.
    rotated = real_vecs.swapaxes(-1, -2) @ sys.drive[1][:, None] @ real_vecs  # W^T (I_x, -i I_y) W
    dz = np.empty((3, len(amp)), dtype=complex)
    np.einsum("kij,pkji->pk", p * (np.sin(x) / x), rotated, out=dz[:2])
    np.einsum("kjj,kj->k", p, evals, out=dz[2])  # dS/dt = -i H S
    dz[1] *= 1j * amp
    # the derivatives of z are -i dur dz[0], -i dur dz[1] and -i dz[2], and Re(-i u) = Im(u)
    grad = (np.conj(z) * dz).imag
    grad[:2] *= dur

    # chain rule through _decode (its clip is the identity inside the window)
    return value, (grad * (_SPAN / (-np.abs(z) * d))).ravel()


def smp_optimize(
    sys: SpinSystem,
    target: np.ndarray,
    config: OptimizerConfig | None = None,
) -> SmpResult:
    """Synthesize a pulse train approximating the target unitary.

    Runs up to config.restarts L-BFGS-B searches from seeded initial
    guesses, stopping early once config.min_fidelity is reached.  Failure
    to reach the threshold is reported through converged=False rather than
    an exception, so callers can inspect the best attempt.  Each restart is
    recorded in SmpResult.history and logged at DEBUG level on the
    "quditcycle" logger.  A target that is not a unitary of the system's
    dimension, or a config that is neither an OptimizerConfig nor None,
    raises ValueError.
    """
    if config is not None and not isinstance(config, OptimizerConfig):
        raise ValueError(f"config must be an OptimizerConfig or None, got {config!r}")
    cfg = OptimizerConfig() if config is None else config
    n = cfg.segments

    target = validate_unitary(target)
    if target.shape != (sys.dim, sys.dim):
        raise ValueError(f"target shape {target.shape} does not match system dim {sys.dim}")

    bounds = Bounds(np.repeat(_LOWER, n), np.repeat(_UPPER, n))

    best_y: np.ndarray | None = None
    best_fid = -1.0
    history: list[RestartRecord] = []
    for k in range(cfg.restarts):
        # Seeding each restart independently keeps restart k's trajectory
        # identical no matter how large the overall budget is.
        rng = np.random.default_rng([cfg.seed, k])
        y0 = np.concatenate(
            [
                rng.uniform(0.05, 0.95, n) * SEARCH_SCALE,
                rng.uniform(0.0, 1.0, n),
                rng.uniform(0.05, 0.95, n) * SEARCH_SCALE,
            ]
        )
        t0 = perf_counter()
        res = minimize(
            _objective,
            y0,
            args=(sys, target.conj().T),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={
                "maxiter": cfg.max_iter,
                "maxfun": cfg.max_iter,
                "ftol": OBJECTIVE_TOL,
                # one correction pair per parameter; scipy's default 10 leaves a slow tail
                "maxcor": 3 * n,
            },
        )
        fid = 1.0 - float(res.fun)
        record = RestartRecord(fid, int(res.nfev), int(res.nit), str(res.message), perf_counter() - t0)
        history.append(record)
        log.debug(
            "smp restart %d: fidelity %.9f, %d evaluations, %d iterations, %.3f s, %s",
            k, fid, record.nfev, record.nit, record.seconds, record.message,
        )
        if fid > best_fid:
            best_fid = fid
            best_y = res.x
        if best_fid >= cfg.min_fidelity:
            break

    assert best_y is not None
    return SmpResult(
        segments=[PulseSegment(*row) for row in _decode(best_y).T.tolist()],
        fidelity=best_fid,
        converged=best_fid >= cfg.min_fidelity,
        history=history,
    )


# --- pulse train JSON -------------------------------------------------------
#
# [{"amp_hz": ..., "phase_rad": ..., "dur_s": ...}, ...]
# Amplitudes are stored in Hz (w_1 / 2 pi), the unit hardware tables use.


def segments_to_json(segments) -> list[dict]:
    return [
        {
            "amp_hz": seg.amplitude / (2 * np.pi),
            "phase_rad": seg.phase,
            "dur_s": seg.duration,
        }
        for seg in segments
    ]


def segments_from_json(items) -> list[PulseSegment]:
    return [
        PulseSegment(
            amplitude=2 * np.pi * float(obj["amp_hz"]),
            phase=float(obj["phase_rad"]),
            duration=float(obj["dur_s"]),
        )
        for obj in items
    ]
