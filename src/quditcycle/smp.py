"""Strongly modulating pulse (SMP) synthesis by exact-gradient L-BFGS-B.

A target unitary is approximated by a short train of constant rf segments,
each described by (amplitude, phase, duration).  The search minimizes
1 - F where F = |Tr(target^dag U_seq)| / d is the phase-insensitive gate
fidelity, with its exact gradient in every amplitude, phase and duration
(GRAPE, Khaneja et al., J. Magn. Reson. 172, 296 (2005)): each segment step
exp(-i H t) is differentiated in the eigenbasis of its Hamiltonian, and the
steps before and after it enter as prefix and suffix products.  Eigenbases
and prefix products come from nmr's forward pass, the one that
sequence_propagator also runs.  L-BFGS-B follows that gradient inside the
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

from .nmr import PulseSegment, SpinSystem, _forward

log = logging.getLogger("quditcycle")

# L-BFGS-B's first step is a unit-length projected-gradient step; in a [0, 1]
# box it lands in a corner, so amplitude and duration are searched in [0, 10].
SEARCH_SCALE = 10.0
# L-BFGS-B's relative stopping tolerance on the objective (scipy's ftol).
OBJECTIVE_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget and hardware window for SMP synthesis.

    max_iter caps both the L-BFGS-B iterations and the objective-plus-
    gradient evaluations of one restart.  The search keeps one correction
    pair per parameter (3 * segments).  The rf window (amplitude up to
    50 kHz, segment length 1 .. 200 us) spans several quadrupolar periods
    at the default 10 kHz splitting, enough nonlinearity for generic
    spin-3/2 gates.  Six segments carry 18
    parameters, comfortably over the 15 a four-level gate needs, so random
    restarts land above min_fidelity within a try or two; shorter trains
    reach the target only marginally and unreliably.
    """

    segments: int = 6
    restarts: int = 32
    seed: int = 0
    min_fidelity: float = 0.995
    max_iter: int = 6000
    amp_max_hz: float = 50e3
    dur_min_s: float = 1e-6
    dur_max_s: float = 200e-6

    def __post_init__(self):
        if self.segments < 1:
            raise ValueError("need at least one segment")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if not 0 < self.min_fidelity <= 1:
            raise ValueError("min_fidelity must be in (0, 1]")
        if self.dur_min_s <= 0 or self.dur_max_s <= self.dur_min_s:
            raise ValueError("need 0 < dur_min_s < dur_max_s")
        if self.amp_max_hz <= 0:
            raise ValueError("amp_max_hz must be > 0")
        if self.seed < 0 or self.max_iter < 1:
            raise ValueError("need seed >= 0 and max_iter >= 1")
        for name in ("segments", "restarts", "seed", "max_iter"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.min_fidelity, bool):
            raise ValueError(f"min_fidelity must be a number, got {self.min_fidelity!r}")


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

    index: int
    fidelity: float
    nfev: int
    nit: int
    message: str
    seconds: float


@dataclass
class SmpResult:
    """Best pulse train found, with its fidelity, convergence status and per-restart record."""

    segments: list[PulseSegment]
    fidelity: float
    converged: bool
    restarts_used: int
    history: list[RestartRecord]


def _decode(x: np.ndarray, n: int, cfg: OptimizerConfig) -> np.ndarray:
    """(n, 3) rows of (amplitude rad/s, phase rad, duration s) from the search vector."""
    amps = np.clip(x[:n], 0.0, 1.0) * (2 * np.pi * cfg.amp_max_hz)
    phases = x[n : 2 * n] * (2 * np.pi)
    durs = cfg.dur_min_s + np.clip(x[2 * n :], 0.0, 1.0) * (cfg.dur_max_s - cfg.dur_min_s)
    return np.stack([amps, phases, durs], axis=1)


def _objective(x: np.ndarray, sys: SpinSystem, target: np.ndarray, cfg: OptimizerConfig):
    """1 - F for the search vector x and its exact gradient in x.

    x holds n amplitudes and n durations in [0, 1] and n phases in turns.
    The value is bitwise 1 - gate_fidelity(target, U) with U the
    sequence_propagator of the decoded train, because both come from the
    same forward pass.  Where Tr(target^dag U) = 0 the gradient of its
    modulus is undefined and a zero gradient is returned.
    """
    n = x.size // 3
    d = sys.dim
    amp, phase, dur = _decode(x, n, cfg).T
    # prefix[k] = R_k = S_k .. S_1, so R_{k-1} precedes step k and R_n = U
    prefix, evals, vecs, vecs_h, expo = _forward(sys, amp, phase, dur)
    w = target.conj().T @ prefix[-1]
    z = np.trace(w)
    value = 1.0 - float(np.abs(z) / d)
    if z == 0:
        return value, np.zeros_like(x)

    # dz = Tr(G_k dS_k) with G_k = R_{k-1} T^dag L_k and the suffix product
    # L_k = S_n .. S_{k+1} = U R_{k-1}^dag S_k^dag; in the eigenbasis V of H_k,
    # where S_k^dag V = V conj(expo), that is g = A w A^dag conj(expo) with A = V^dag R_{k-1}.
    a = vecs_h @ prefix[:-1]
    g = a @ w @ a.conj().swapaxes(-1, -2) * expo.conj()[:, None, :]

    # dS = V (phi * (V^dag dH V)) V^dag with phi the divided difference of
    # exp(-i lambda t); the sinc form is exact and tends to -i t exp(-i lambda_j t)
    # as lambda_k -> lambda_j, which covers the degenerate drift at amplitude 0.
    half = np.exp(-0.5j * evals * dur[:, None])
    gap = (evals[:, :, None] - evals[:, None, :]) * dur[:, None, None]
    phi = ((-1j * dur)[:, None] * half)[:, :, None] * half[:, None, :] * np.sinc(gap / (2 * np.pi))
    q = vecs @ (g * phi) @ vecs_h  # dz = Tr(q dH)
    ix, iy, _ = sys.drive
    qx = np.einsum("kij,ji->k", q, ix)
    qy = np.einsum("kij,ji->k", q, iy)
    cos, sin = np.cos(phase), np.sin(phase)
    dz_amp = cos * qx + sin * qy
    dz_phase = amp * (cos * qy - sin * qx)
    dz_dur = (g.diagonal(axis1=1, axis2=2) * (-1j * evals * expo)).sum(axis=1)  # dS/dt = -i H S

    # chain rule through _decode (its clips are the identity inside the box)
    dz = np.concatenate(
        [2 * np.pi * cfg.amp_max_hz * dz_amp, 2 * np.pi * dz_phase, (cfg.dur_max_s - cfg.dur_min_s) * dz_dur]
    )
    return value, -(np.conj(z) * dz).real / (np.abs(z) * d)


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
    "quditcycle" logger.
    """
    cfg = config or OptimizerConfig()
    n = cfg.segments

    target = np.asarray(target, dtype=complex)
    if target.shape != (sys.dim, sys.dim):
        raise ValueError(f"target shape {target.shape} does not match system dim {sys.dim}")

    scale = np.repeat([SEARCH_SCALE, 1.0, SEARCH_SCALE], n)

    def objective(y: np.ndarray):
        value, grad = _objective(y / scale, sys, target, cfg)
        return value, grad / scale

    bounds = Bounds(np.repeat([0.0, -np.inf, 0.0], n), np.repeat([SEARCH_SCALE, np.inf, SEARCH_SCALE], n))

    best_x: np.ndarray | None = None
    best_fid = -1.0
    history: list[RestartRecord] = []
    for k in range(cfg.restarts):
        # Seeding each restart independently keeps restart k's trajectory
        # identical no matter how large the overall budget is.
        rng = np.random.default_rng([cfg.seed, k])
        x0 = np.concatenate(
            [
                rng.uniform(0.05, 0.95, n),
                rng.uniform(0.0, 1.0, n),
                rng.uniform(0.05, 0.95, n),
            ]
        )
        t0 = perf_counter()
        res = minimize(
            objective,
            x0 * scale,
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
        record = RestartRecord(k, fid, int(res.nfev), int(res.nit), str(res.message), perf_counter() - t0)
        history.append(record)
        log.debug(
            "smp restart %d: fidelity %.9f, %d evaluations, %d iterations, %.3f s, %s",
            k, fid, record.nfev, record.nit, record.seconds, record.message,
        )
        if fid > best_fid:
            best_fid = fid
            best_x = res.x / scale
        if best_fid >= cfg.min_fidelity:
            break

    assert best_x is not None
    return SmpResult(
        segments=[PulseSegment(*row) for row in _decode(best_x, n, cfg).tolist()],
        fidelity=best_fid,
        converged=best_fid >= cfg.min_fidelity,
        restarts_used=len(history),
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
