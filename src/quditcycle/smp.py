"""Strongly modulating pulse (SMP) synthesis by Levenberg-Marquardt on the gate residual.

A target unitary T is approximated by a short train of constant rf segments,
each described by (amplitude, phase, duration).  With W = T^dag U_seq and the
phase-insensitive gate fidelity F = |Tr W| / d, the gate error is a
zero-residual least-squares problem: |e^{-i phi} W - 1|_F^2 at the best
global phase phi = arg Tr W is 2d (1 - F).  Its Jacobian in every amplitude,
phase and duration is exact (GRAPE, Khaneja et al., J. Magn. Reson. 172, 296
(2005)): each segment step exp(-i H t) is differentiated in the eigenbasis
of its Hamiltonian, between the prefix and suffix products of the steps
around it.  Eigenbases and prefix products come from nmr's forward pass, the
one sequence_propagator runs, which diagonalizes the real matrix
H_Q + w_1 I_x and carries the rf phase as a diagonal frame.
Levenberg-Marquardt steps (Marquardt, J. SIAM 11, 431 (1963); Newton-type
GRAPE: Goodwin and Kuprov, J. Chem. Phys. 144, 204107 (2016)) converge
quadratically on such a problem and need no line search.  The search is
restarted from several seeded initial guesses and the best result kept, so
the outcome is deterministic in (seed) and can only improve as the restart
budget grows.

The search has no box.  Amplitude and duration are searched as angles u
that decode to the fraction (1 - cos u) / 2 of their window, so every u
lands inside the hardware limits, and phases are free (in turns).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .linalg import _as_array, check_finite, check_int, check_type, shown, validate_unitary
from .nmr import PulseSegment, SpinSystem, _as_segments, _forward

log = logging.getLogger("quditcycle")

# The rf window: amplitude up to 50 kHz, segment length 1 .. 200 us.  It spans
# several quadrupolar periods at the default 10 kHz splitting, enough
# nonlinearity for generic spin-3/2 gates.
AMP_MAX_HZ = 50e3
DUR_MIN_S = 1e-6
DUR_MAX_S = 200e-6
# The search's normal matrix J^T J holds (3 * segments)^2 doubles: 72 MB at this cap.
MAX_SEGMENTS = 1000
# Budget caps: a synthesis makes at most 600,000 forward passes (see OptimizerConfig).
MAX_RESTARTS = 100
MAX_ITER = 6000
# minimize stops once an accepted step lowers the objective by at most this
# fraction of max(|f|, 1), or once every gradient entry is at most GRADIENT_TOL.
OBJECTIVE_TOL = 1e-9
GRADIENT_TOL = 1e-5
# The damping lambda starts at LAMBDA_START, and is multiplied by LAMBDA_UP
# after a rejected trial and divided by LAMBDA_DOWN after an accepted one.
LAMBDA_START = 1e-3
LAMBDA_UP = 4.0
LAMBDA_DOWN = 3.0

# The stop reasons minimize reports, and so RestartRecord.message.
STOP_OBJECTIVE = "relative reduction of the objective <= OBJECTIVE_TOL"
STOP_GRADIENT = "max |gradient| <= GRADIENT_TOL"
STOP_CAP = "evaluation cap reached"


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget for SMP synthesis inside the fixed rf window.

    max_iter caps the forward passes of one restart, its Jacobians plus its
    rejected trials.  Over optimizer seeds 0-23 on the protocol's five
    gates, a restart that converged took 30 passes at the median and 104 at
    most; one still short of its gate error at 120 has mostly found a local
    minimum with a nonzero residual, where Levenberg-Marquardt crawls, and a
    fresh restart costs less.  segments is at most MAX_SEGMENTS = 1000,
    because the search keeps a dense J^T J of (3 * segments)^2 doubles:
    72 MB at the cap, where 20,000 segments would need 29 GB.  restarts is
    at most MAX_RESTARTS = 100 and max_iter at most MAX_ITER = 6000, so a
    synthesis makes at most 600,000 passes; the README gives what that costs
    in time on one host.  Six segments carry
    18 parameters, comfortably over the 15 a four-level gate needs, so
    random restarts land above min_fidelity within a try or two.
    """

    segments: int = 6
    restarts: int = 32
    seed: int = 0
    min_fidelity: float = 0.995
    max_iter: int = 120

    def __post_init__(self):
        # a string or None would fail the range checks below with a TypeError
        for name in ("segments", "restarts", "seed", "max_iter"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        # True would compare as 1 and be taken as a fidelity target
        check_finite(min_fidelity=self.min_fidelity)
        if self.segments < 1:
            raise ValueError("need at least one segment")
        if self.segments > MAX_SEGMENTS:
            raise ValueError(f"segments must be at most {MAX_SEGMENTS}, got {shown(self.segments)}")
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(f"restarts must be in 1..{MAX_RESTARTS}, got {shown(self.restarts)}")
        if not 0 < self.min_fidelity <= 1:
            raise ValueError("min_fidelity must be in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {shown(self.seed)}")
        if not 1 <= self.max_iter <= MAX_ITER:
            raise ValueError(f"max_iter must be in 1..{MAX_ITER}, got {shown(self.max_iter)}")


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(u^dag v)| / d, insensitive to a global phase between u and v."""
    u, v = _as_array(u, 2), _as_array(v, 2)
    if u.shape != v.shape:
        raise ValueError(f"need two matrices of equal shape, got {u.shape} and {v.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give an inf or NaN trace, refused below
        fid = np.abs(np.trace(u.conj().T @ v)) / u.shape[0]
    if not np.isfinite(fid):
        raise ValueError(f"gate fidelity of input this large is not finite: {fid}")
    return float(fid)


@dataclass(frozen=True)
class RestartRecord:
    """What one optimizer restart did: its final fidelity (at most 1), cost and stop reason."""

    fidelity: float
    nfev: int
    nit: int
    message: str
    seconds: float


@dataclass
class SmpResult:
    """Best pulse train found, with its fidelity (at most 1), convergence status and one record per restart run."""

    segments: list[PulseSegment]
    fidelity: float
    converged: bool
    history: list[RestartRecord]


class MinimizeResult(NamedTuple):
    """Where minimize stopped: the point, its value, forward passes, accepted steps and stop reason."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    message: str


def minimize(fun, x0, max_eval: int) -> MinimizeResult:
    """Minimize f = |r|^2 / 2 by Levenberg-Marquardt.

    fun(x) returns (f(x), r(x), jac), where jac() gives the Jacobian J of
    the residual vector r at x.  Each trial solves (J^T J + lambda D) s =
    -J^T r (Marquardt, J. SIAM 11, 431 (1963)), where D holds the largest
    diag(J^T J) seen so far (More, Lecture Notes in Math. 630, 105 (1978)),
    and x + s is accepted if it lowers f.  jac is called only at accepted
    points, so nfev, the calls of fun, counts the Jacobians plus the
    rejected trials, and nit counts the accepted steps.  Stops on one of
    STOP_OBJECTIVE, STOP_GRADIENT (on J^T r, the gradient of f) or STOP_CAP
    (after max_eval calls of fun), at the lowest point found.
    A non-callable fun, a max_eval that is not an integer >= 1 or an x0 that
    is not a finite, non-empty real vector raises ValueError.
    """
    if not callable(fun):
        raise ValueError(f"fun must be callable, got {type(fun).__name__}")
    max_eval = check_int(max_eval, "max_eval")
    if max_eval < 1:
        raise ValueError(f"max_eval must be >= 1, got {shown(max_eval)}")
    x = np.asarray(x0)
    if x.dtype.kind not in "iuf" or x.ndim != 1 or not x.size or not np.isfinite(x).all():
        raise ValueError(f"x0 must be a finite, non-empty real vector, got {shown(x0)}")
    x = x.astype(float)
    f, r, jac = fun(x)
    nfev, nit, lam = 1, 0, LAMBDA_START
    scale = np.zeros(x.size)
    while True:
        j = jac()
        g = j.T @ r
        if np.abs(g).max() <= GRADIENT_TOL:
            message = STOP_GRADIENT
            break
        a = j.T @ j
        # D only grows, so a column that fades as its angle nears a window edge keeps its damping
        scale = np.maximum(scale, a.diagonal())
        # a zero column of J leaves a zero row in a and g, so its step is 0 at any damping
        damping = np.where(scale > 0, scale, 1.0)
        while nfev < max_eval:
            # a + lam diag(damping) without a p x p np.diag per trial (72 MB at MAX_SEGMENTS);
            # bit for bit, since lam D adds +0.0 off the diagonal
            damped = a + 0.0
            damped.reshape(-1)[:: x.size + 1] += lam * damping
            trial = x + np.linalg.solve(damped, -g)
            f_new, r_new, jac_new = fun(trial)
            nfev += 1
            if f_new < f:
                break
            lam *= LAMBDA_UP
        else:
            message = STOP_CAP
            break
        nit += 1
        lam /= LAMBDA_DOWN
        f_old = f
        x, f, r, jac = trial, f_new, r_new, jac_new
        if f_old - f <= OBJECTIVE_TOL * max(abs(f_old), abs(f), 1.0):
            message = STOP_OBJECTIVE
            break
        if nfev >= max_eval:
            message = STOP_CAP
            break
    return MinimizeResult(x, float(f), nfev, nit, message)


# The search window, one row each for amplitude, phase and duration: the
# amplitude and duration rows decode from their angle u to
# _OFFSET + _SPAN (1 - cos u) / 2, and the phase row from turns to radians.
_SPAN = np.array([[2 * np.pi * AMP_MAX_HZ], [2 * np.pi], [DUR_MAX_S - DUR_MIN_S]])
_OFFSET = np.array([[0.0], [0.0], [DUR_MIN_S]])


def _decode(y: np.ndarray) -> np.ndarray:
    """(3, n) rows of amplitudes (rad/s), phases (rad) and durations (s) from the search vector."""
    u = y.reshape(3, -1)
    # filled in place, 1.6% of a synthesis against _OFFSET + _SPAN * np.where(phase row, u, sin^2(u/2))
    rows = np.sin(u / 2)
    rows *= rows  # sin^2(u/2) = (1 - cos u) / 2
    rows[1] = u[1]
    rows *= _SPAN
    rows += _OFFSET  # also on the phase row, which turns -0.0 into +0.0
    return rows


def _residual(y: np.ndarray, sys: SpinSystem, target_h: np.ndarray):
    """The gate error in minimize's form: (1 - F, r, jac) with |r|^2 / 2 = 1 - F.

    y holds n amplitude angles, n phases (in turns) and n duration angles,
    the rows of the search window; target_h is target^dag and
    W = target^dag U.  The value is bitwise 1 - gate_fidelity(target, U) with
    U the sequence_propagator of the decoded train, because both come from
    the same forward pass, and jac reuses that pass.

    r = (e^{-i phi} W - 1) / sqrt(d) at the best global phase phi = arg Tr W,
    its real and imaginary parts interleaved, so |r|^2 = 2 (d - |Tr W|) / d.
    Where Tr W = 0 every phase is best and phi = 0.  jac() is the Jacobian in
    y at fixed phi with the phase direction -i 1 / sqrt(d) projected out
    (Kaufman's variable projection).  At the best phase r is orthogonal to
    that direction, so minimize's step is the Gauss-Newton step in y and phi
    together, and J^T r is the gradient of 1 - F.
    """
    d = sys.dim
    amp, phase, dur = _decode(y)
    # prefix[k] = R_k = S_k .. S_1, so R_{k-1} precedes step k and R_n = U
    prefix, evals, real_vecs, half_vecs_h, angle = _forward(sys, amp, phase, dur)
    w = target_h.dot(prefix[-1])
    tr = w.trace()
    value = 1.0 - float(np.abs(tr) / d)
    root = math.sqrt(d)
    turn = np.exp(-1j * math.atan2(tr.imag, tr.real)) / root  # numpy's AVX-512 and AVX2 arctan2 differ in the last bit
    r = (turn * w).reshape(-1)
    r[:: d + 1] -= 1 / root  # the diagonal

    def jac():
        # dW = T^dag L_k dS_k R_{k-1} with the suffix product L_k = S_n .. S_{k+1}
        # = U R_k^dag, so dW = W R_{k-1}^dag S_k^dag dS_k R_{k-1}.  In the
        # eigenbasis V = Z W of step k, S_k^dag dS_k = V D^dag X D V^dag, so
        # dW = W A^dag X A with the half-step A = D V^dag R_{k-1}.  For
        # amplitude and phase X = -i t (sinc o V^dag dH V) with
        # sinc_ij = sin(x) / x at x = (lambda_i - lambda_j) t / 2: the divided
        # difference of exp(-i lambda t) in a form that is exact and tends to 1
        # as x -> 0, which covers the degenerate drift at amplitude 0.  For
        # duration X = -i Lambda, because dS/dt = -i H S.
        a = half_vecs_h @ prefix[:-1]
        x = angle[:, :, None] - angle[:, None, :]
        x = np.where(x, x, 1e-300)  # sin(x) / x is then exactly 1 where x = 0
        # Z^dag dH Z is I_x per unit amplitude and amp I_y per unit phase, because
        # dZ/dphase = -i I_z Z, the drift commutes with I_z and -i[I_z, I_x] = I_y;
        # and V^dag dH V = W^T (Z^dag dH Z) W.
        rotated = real_vecs.swapaxes(-1, -2) @ sys.drive[1][:, None] @ real_vecs  # W^T (I_x, -i I_y) W
        rotated *= np.sin(x) / x
        # written into one buffer, 1.8% of a synthesis against np.concatenate of the two products
        xa = np.empty((3, len(amp), d, d), dtype=complex)
        np.matmul(rotated, a, out=xa[:2])
        np.multiply(evals[:, :, None], a, out=xa[2])
        # -i t, -i t (i amp) and -i, times the chain rule through _decode:
        # d/du sin^2(u/2) = sin(u) / 2, and the phase row's span
        chain = _SPAN * np.sin(y.reshape(3, -1)) / 2
        chain[1] = _SPAN[1]
        # rows filled in place, 5.4% of a synthesis against chain * np.stack of the three rows
        coef = np.empty(chain.shape, dtype=complex)
        np.multiply(-1j, dur, out=coef[0])
        np.multiply(dur, amp, out=coef[1])
        coef[2] = -1j
        coef *= chain
        xa *= coef[:, :, None, None]
        # e^{-i phi} dW / sqrt(d), one row per entry of y, with the phase direction projected out
        j = (turn * (w @ a.conj().swapaxes(-1, -2) @ xa)).reshape(-1, d * d)
        diag = j[:, :: d + 1]
        diag -= (1j / d) * diag.sum(axis=1).imag[:, None]
        return j.view(float).T

    return value, r.view(float), jac


def smp_optimize(
    sys: SpinSystem,
    target: np.ndarray,
    config: OptimizerConfig | None = None,
) -> SmpResult:
    """Synthesize a pulse train approximating the target unitary.

    Runs up to config.restarts searches from seeded initial guesses,
    stopping early once config.min_fidelity is reached.  Failure to reach
    the threshold is reported through converged=False rather than an
    exception, so callers can inspect the best attempt.  Each restart is
    recorded in SmpResult.history and logged at DEBUG level on the
    "quditcycle" logger.  A target that is not a unitary of the system's
    dimension, a sys that is not a SpinSystem, or a config that is neither
    an OptimizerConfig nor None, raises ValueError.
    """
    check_type(sys, SpinSystem)
    cfg = OptimizerConfig() if config is None else check_type(config, OptimizerConfig)
    n = cfg.segments

    target = validate_unitary(target)
    if target.shape != (sys.dim, sys.dim):
        raise ValueError(f"target shape {target.shape} does not match system dim {sys.dim}")
    target_h = target.conj().T

    def fun(y):
        return _residual(y, sys, target_h)

    best_y: np.ndarray | None = None
    best_fid = -1.0
    history: list[RestartRecord] = []
    for k in range(cfg.restarts):
        # Seeding each restart independently keeps restart k's trajectory
        # identical no matter how large the overall budget is.  Amplitude and
        # duration start at a uniform 5 .. 95% of their window (math.acos: numpy's arccos differs by SIMD level).
        rng = np.random.default_rng([cfg.seed, k])
        amp, phase, dur = rng.uniform(0.05, 0.95, n), rng.uniform(0.0, 1.0, n), rng.uniform(0.05, 0.95, n)
        y0 = np.concatenate([[*map(math.acos, 1 - 2 * amp)], phase, [*map(math.acos, 1 - 2 * dur)]])
        t0 = perf_counter()
        res = minimize(fun, y0, cfg.max_iter)  # looked up by name, so a replaced module attribute takes effect
        fid = min(1.0 - res.fun, 1.0)  # rounding can leave the residual a few ulps below 0
        record = RestartRecord(fid, res.nfev, res.nit, res.message, perf_counter() - t0)
        history.append(record)
        log.debug(
            "smp restart %d: fidelity %.9f, %d forward passes, %d steps, %.3f s, %s",
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
    """The JSON layout of an iterable of PulseSegment; anything else raises ValueError."""
    return [
        {
            "amp_hz": seg.amplitude / (2 * np.pi),
            "phase_rad": seg.phase,
            "dur_s": seg.duration,
        }
        for seg in _as_segments(segments)
    ]


def segments_from_json(items) -> list[PulseSegment]:
    """Pulse segments from segments_to_json's layout: anything but an iterable of
    mappings with finite amp_hz, phase_rad and dur_s, and an amp_hz too large for
    rad/s, raise ValueError."""
    segs = []
    for obj in items if np.iterable(items) else [None]:
        if not isinstance(obj, Mapping) or not {"amp_hz", "phase_rad", "dur_s"} <= obj.keys():
            raise ValueError(f"pulses must be mappings with amp_hz, phase_rad and dur_s, got {shown(items)}")
        check_finite(amp_hz=obj["amp_hz"], phase_rad=obj["phase_rad"], dur_s=obj["dur_s"])
        amplitude = 2 * np.pi * float(obj["amp_hz"])
        if math.isinf(amplitude):  # a finite amp_hz past the float range once in rad/s
            raise ValueError(f"amp_hz overflows when converted to rad/s, got {shown(obj['amp_hz'])}")
        segs.append(PulseSegment(amplitude, float(obj["phase_rad"]), float(obj["dur_s"])))
    return segs
