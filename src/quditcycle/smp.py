"""Strongly modulating pulse (SMP) synthesis by exact-gradient BFGS.

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
the same real eigenbasis.  A dense BFGS with a strong-Wolfe line search
follows that gradient (the quasi-Newton refinement of de Fouquieres et al.,
J. Magn. Reson. 212, 412 (2011)), and is restarted from several seeded
initial guesses; the best result over all restarts is kept, so the outcome
is deterministic in (seed) and can only improve as the restart budget grows.

The search has no box.  Amplitude and duration are searched as angles u
that decode to the fraction (1 - cos u) / 2 of their window, so every u
lands inside the hardware limits, and phases are free (in turns).
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .linalg import _as_array, check_finite, check_int, check_type, validate_unitary
from .nmr import PulseSegment, SpinSystem, _as_segments, _forward

log = logging.getLogger("quditcycle")

# The rf window: amplitude up to 50 kHz, segment length 1 .. 200 us.  It spans
# several quadrupolar periods at the default 10 kHz splitting, enough
# nonlinearity for generic spin-3/2 gates.
AMP_MAX_HZ = 50e3
DUR_MIN_S = 1e-6
DUR_MAX_S = 200e-6
# The search's inverse Hessian holds (3 * segments)^2 doubles: 72 MB at this cap.
MAX_SEGMENTS = 1000
# minimize stops once one iteration lowers the objective by at most this
# fraction of max(|f|, 1), or once every gradient entry is at most GRADIENT_TOL.
OBJECTIVE_TOL = 1e-9
GRADIENT_TOL = 1e-5
# Strong-Wolfe constants of the line search (Nocedal & Wright, Alg. 3.5).
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9

# The stop reasons minimize reports, and so RestartRecord.message.
STOP_OBJECTIVE = "relative reduction of the objective <= OBJECTIVE_TOL"
STOP_GRADIENT = "max |gradient| <= GRADIENT_TOL"
STOP_CAP = "evaluation cap reached"
STOP_LINE_SEARCH = "line search found no strong-Wolfe step"


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget for SMP synthesis inside the fixed rf window.

    max_iter caps the objective-plus-gradient evaluations of one restart.
    segments is at most MAX_SEGMENTS = 1000, because the search keeps a dense
    inverse Hessian of (3 * segments)^2 doubles: 72 MB at the cap, where
    20,000 segments would need 29 GB.  Six segments carry 18 parameters,
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
        if self.segments > MAX_SEGMENTS:
            raise ValueError(f"segments must be at most {MAX_SEGMENTS}, got {self.segments}")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if not 0 < self.min_fidelity <= 1:
            raise ValueError("min_fidelity must be in (0, 1]")
        if self.seed < 0 or self.max_iter < 1:
            raise ValueError("need seed >= 0 and max_iter >= 1")


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(u^dag v)| / d, insensitive to a global phase between u and v."""
    u, v = _as_array(u, 2), _as_array(v, 2)
    if u.shape != v.shape:
        raise ValueError(f"need two matrices of equal shape, got {u.shape} and {v.shape}")
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


class MinimizeResult(NamedTuple):
    """Where minimize stopped: the point, its value, evaluations, iterations and stop reason."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    message: str


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic through (a, fa) and (b, fb) with slopes da and db; NaN if it has none."""
    d1 = da + db - 3 * (fa - fb) / (a - b)
    root = d1 * d1 - da * db
    if root < 0:
        return np.nan
    d2 = np.copysign(np.sqrt(root), b - a)
    denom = db - da + 2 * d2
    return b - (b - a) * (db + d2 - d1) / denom if denom else np.nan


def _line_search(fg, x, f0, g0, p, step, budget):
    """A step along the descent direction p from x meeting the strong-Wolfe conditions.

    Brackets, then zooms with safeguarded cubic interpolation (Nocedal &
    Wright, Alg. 3.5 and 3.6).  Spends at most budget evaluations of fg.
    Returns (step, f, g, nfev, ok); when no strong-Wolfe step was found, ok is
    False and the returned step is the lowest point that met the sufficient
    decrease condition, or 0.
    """
    d0 = g0 @ p
    lo = (0.0, f0, d0, g0)  # the best point so far that meets sufficient decrease
    hi = None
    nfev = 0
    while nfev < budget:
        if hi is not None:
            width = hi[0] - lo[0]
            if abs(width) * np.abs(p).max() <= 1e-14 * (1 + np.abs(x).max()):
                break
            step = _cubic_min(*lo[:3], *hi[:3])
            # keep the trial in the middle 80% of the bracket, else bisect
            if not abs(step - lo[0] - width / 2) <= 0.4 * abs(width):
                step = lo[0] + width / 2
        f, g = fg(x + step * p)
        nfev += 1
        d = g @ p
        point = (step, f, d, g)
        if f > f0 + WOLFE_C1 * step * d0 or f >= lo[1]:
            hi = point
        elif abs(d) <= -WOLFE_C2 * d0:
            return step, f, g, nfev, True
        else:
            if d * (1.0 if hi is None else hi[0] - lo[0]) >= 0:  # the slope points back past lo
                hi = lo
            lo = point
            if hi is None:
                step *= 4  # still falling steeply: expand
    return lo[0], lo[1], lo[3], nfev, False


def minimize(fg, x0, max_eval: int) -> MinimizeResult:
    """Minimize f by BFGS, where fg(x) returns (f(x), grad f(x)).

    Keeps a dense inverse Hessian H, scaled to (s.y / y.y) 1 at the first
    step pair (Nocedal & Wright eq. 6.20 and 6.17), and takes strong-Wolfe
    steps from _line_search.  Stops on one of STOP_OBJECTIVE, STOP_GRADIENT,
    STOP_CAP (after max_eval evaluations of fg, a cap that no line search
    overruns) or STOP_LINE_SEARCH (the line search found no strong-Wolfe
    step).  On those last two it returns the lowest point of the last line
    search that met sufficient decrease, or the point it started from.
    A non-callable fg, a max_eval that is not an integer >= 1 or an x0 that
    is not a finite, non-empty real vector raises ValueError.
    """
    if not callable(fg):
        raise ValueError(f"fg must be callable, got {type(fg).__name__}")
    if check_int(max_eval, "max_eval") < 1:
        raise ValueError(f"max_eval must be >= 1, got {max_eval}")
    x = np.asarray(x0)
    if x.dtype.kind not in "iuf" or x.ndim != 1 or not x.size or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be a finite, non-empty real vector, got {x0!r}")
    x = x.astype(float)
    f, g = fg(x)
    nfev, nit = 1, 0
    h = None  # the inverse Hessian, from the first step pair on
    while True:
        if np.abs(g).max() <= GRADIENT_TOL:
            message = STOP_GRADIENT
            break
        p = -g if h is None else -(h @ g)
        # the first step, along -g with no curvature behind it, is at most unit length
        step = 1.0 if h is not None else min(1.0, 1.0 / np.sqrt(g @ g))
        step, f_new, g_new, used, ok = _line_search(fg, x, f, g, p, step, max_eval - nfev)
        nfev += used
        if not ok:  # keep the lowest point the search found, and stop
            if step:
                x, f, g = x + step * p, f_new, g_new
            message = STOP_CAP if nfev >= max_eval else STOP_LINE_SEARCH
            break
        nit += 1
        s, y = step * p, g_new - g
        x, f_old, f, g = x + s, f, f_new, g_new
        sy = s @ y
        if sy > 0:  # always so at a strong-Wolfe step, barring rounding
            if h is None:
                h = np.eye(len(x)) * (sy / (y @ y))
            hy = h @ y
            h += (((sy + y @ hy) / sy) * np.outer(s, s) - np.outer(hy, s) - np.outer(s, hy)) / sy
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
_PHASE = np.array([[False], [True], [False]])


def _decode(y: np.ndarray) -> np.ndarray:
    """(3, n) rows of amplitudes (rad/s), phases (rad) and durations (s) from the search vector."""
    u = y.reshape(3, -1)
    return _OFFSET + _SPAN * np.where(_PHASE, u, np.sin(u / 2) ** 2)  # sin^2(u/2) = (1 - cos u) / 2


def _objective(y: np.ndarray, sys: SpinSystem, target_h: np.ndarray):
    """1 - F for the search vector y and its exact gradient in y.

    y holds n amplitude angles, n phases (in turns) and n duration angles,
    the rows of the search window, and target_h is target^dag.  The value is
    bitwise 1 - gate_fidelity(target, U) with U the sequence_propagator of
    the decoded train, because both come from the same forward pass.  Where
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

    # chain rule through _decode: d/du sin^2(u/2) = sin(u) / 2
    u = y.reshape(3, -1)
    return value, (grad * np.where(_PHASE, _SPAN, _SPAN * np.sin(u) / 2) / (-np.abs(z) * d)).ravel()


def smp_optimize(
    sys: SpinSystem,
    target: np.ndarray,
    config: OptimizerConfig | None = None,
) -> SmpResult:
    """Synthesize a pulse train approximating the target unitary.

    Runs up to config.restarts BFGS searches from seeded initial guesses,
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

    def fg(y):
        return _objective(y, sys, target_h)

    best_y: np.ndarray | None = None
    best_fid = -1.0
    history: list[RestartRecord] = []
    for k in range(cfg.restarts):
        # Seeding each restart independently keeps restart k's trajectory
        # identical no matter how large the overall budget is.  Amplitude and
        # duration start at a uniform 5 .. 95% of their window.
        rng = np.random.default_rng([cfg.seed, k])
        amp, phase, dur = rng.uniform(0.05, 0.95, n), rng.uniform(0.0, 1.0, n), rng.uniform(0.05, 0.95, n)
        y0 = np.concatenate([np.arccos(1 - 2 * amp), phase, np.arccos(1 - 2 * dur)])
        t0 = perf_counter()
        res = minimize(fg, y0, cfg.max_iter)  # looked up by name, so a replaced module attribute takes effect
        fid = 1.0 - res.fun
        record = RestartRecord(fid, res.nfev, res.nit, res.message, perf_counter() - t0)
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
    mappings with numeric amp_hz, phase_rad and dur_s raises ValueError."""
    segs = []
    for obj in items if np.iterable(items) else [None]:
        if not isinstance(obj, Mapping) or not {"amp_hz", "phase_rad", "dur_s"} <= obj.keys():
            raise ValueError(f"pulses must be mappings with amp_hz, phase_rad and dur_s, got {items!r}")
        check_finite(amp_hz=obj["amp_hz"], phase_rad=obj["phase_rad"], dur_s=obj["dur_s"])
        segs.append(PulseSegment(2 * np.pi * float(obj["amp_hz"]), float(obj["phase_rad"]), float(obj["dur_s"])))
    return segs
