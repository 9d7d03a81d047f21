"""Strongly modulating pulse (SMP) synthesis by Nelder-Mead search.

A target unitary is approximated by a short train of constant rf segments,
each described by (amplitude, phase, duration).  The search minimizes
1 - F where F = |Tr(target^dag U_seq)| / d is the phase-insensitive gate
fidelity.  Nelder-Mead needs no gradients, copes with the oscillatory
landscape, and is restarted from several seeded initial guesses; the best
result over all restarts is kept, so the outcome is deterministic in
(seed) and can only improve as the restart budget grows.

Internally the simplex walks a dimensionless parameter vector
(amplitudes and durations scaled to [0, 1], phases in turns), which keeps
the simplex steps commensurate across parameters of wildly different
physical magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import Bounds, minimize

from .nmr import PulseSegment, SpinSystem, sequence_propagator


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget and hardware window for SMP synthesis.

    The rf window (amplitude up to 50 kHz, segment length 1 .. 200 us)
    spans several quadrupolar periods at the default 10 kHz splitting,
    enough nonlinearity for generic spin-3/2 gates.  Six segments carry
    18 parameters, comfortably over the 15 a four-level gate needs, so
    random restarts land above min_fidelity within a try or two; shorter
    trains reach the target only marginally and unreliably.
    """

    segments: int = 6
    restarts: int = 32
    seed: int = 0
    min_fidelity: float = 0.995
    max_iter: int = 6000
    amp_max_hz: float = 50e3
    dur_min_s: float = 1e-6
    dur_max_s: float = 200e-6
    objective_tol: float = 1e-9

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


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(u^dag v)| / d, insensitive to a global phase between u and v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"need two square matrices of equal shape, got {u.shape} and {v.shape}")
    return float(np.abs(np.trace(u.conj().T @ v)) / u.shape[0])


@dataclass
class SmpResult:
    """Best pulse train found, with its fidelity and convergence status."""

    segments: list[PulseSegment]
    fidelity: float
    converged: bool
    restarts_used: int


def _decode(x: np.ndarray, n: int, cfg: OptimizerConfig) -> np.ndarray:
    """(n, 3) rows of (amplitude rad/s, phase rad, duration s) from the search vector."""
    amps = np.clip(x[:n], 0.0, 1.0) * (2 * np.pi * cfg.amp_max_hz)
    phases = x[n : 2 * n] * (2 * np.pi)
    durs = cfg.dur_min_s + np.clip(x[2 * n :], 0.0, 1.0) * (cfg.dur_max_s - cfg.dur_min_s)
    return np.stack([amps, phases, durs], axis=1)


def smp_optimize(
    sys: SpinSystem,
    target: np.ndarray,
    n_segments: int | None = None,
    config: OptimizerConfig | None = None,
) -> SmpResult:
    """Synthesize a pulse train approximating the target unitary.

    Runs up to config.restarts Nelder-Mead searches from seeded initial
    guesses, stopping early once config.min_fidelity is reached.  Failure
    to reach the threshold is reported through converged=False rather than
    an exception, so callers can inspect the best attempt.
    """
    cfg = config or OptimizerConfig()
    if n_segments is not None:
        cfg = replace(cfg, segments=n_segments)
    n = cfg.segments

    target = np.asarray(target, dtype=complex)
    if target.shape != (sys.dim, sys.dim):
        raise ValueError(f"target shape {target.shape} does not match system dim {sys.dim}")

    def objective(x: np.ndarray) -> float:
        u = sequence_propagator(sys, _decode(x, n, cfg))
        return 1.0 - gate_fidelity(target, u)

    lb = np.concatenate([np.zeros(n), np.full(n, -np.inf), np.zeros(n)])
    ub = np.concatenate([np.ones(n), np.full(n, np.inf), np.ones(n)])
    bounds = Bounds(lb, ub)

    best_x: np.ndarray | None = None
    best_fid = -1.0
    used = 0
    for k in range(cfg.restarts):
        used = k + 1
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
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            bounds=bounds,
            options={
                "maxiter": cfg.max_iter,
                "maxfev": cfg.max_iter,
                "fatol": cfg.objective_tol,
                "xatol": 1e-8,
                "adaptive": True,
            },
        )
        fid = 1.0 - float(res.fun)
        if fid > best_fid:
            best_fid = fid
            best_x = np.asarray(res.x, dtype=float)
        if best_fid >= cfg.min_fidelity:
            break

    assert best_x is not None
    return SmpResult(
        segments=[PulseSegment(*row) for row in _decode(best_x, n, cfg).tolist()],
        fidelity=best_fid,
        converged=best_fid >= cfg.min_fidelity,
        restarts_used=used,
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
