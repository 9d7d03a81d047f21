"""Dense complex linear algebra for small qudit systems.

Conventions used across the package:

- Basis labels are 1-based, |1> .. |d>, matching the values the classical
  permutations act on.  Array indices are the labels minus one.
- Dimensions are validated to 1 <= d <= 64.  Everything is dense complex128;
  at these sizes structure-exploiting representations buy nothing.
- Comparisons hold to DEFAULT_TOL = 1e-10 (validate_unitary, verify's phases,
  the default tol of equal_up_to_global_phase, symmetric in its arguments).
- NaN and Inf are rejected at every constructor or decoder boundary.
- Refusals live here: check_type, check_choice, _as_array, check_dim,
  check_int, check_finite and check_range raise ValueError, quoting the
  value via shown; check_range words every out-of-range ValueError.
"""

from __future__ import annotations

import math
import operator
import sys
from numbers import Real

import numpy as np

MAX_DIM = 64
DEFAULT_TOL = 1e-10


def shown(value) -> str:
    """repr(value), or a placeholder naming its type where repr would pass Python's limit on int-to-str digits."""
    try:
        return repr(value)
    except ValueError:  # an int of more digits than the limit, or a value holding one
        holder = "" if isinstance(value, int) else f"{type(value).__name__} holding an "
        return f"<{holder}int of more than {sys.get_int_max_str_digits()} digits>"


def check_dim(dim: int) -> int:
    """Return a dimension as an int: a Python or numpy integer or a 0-d integer array, by
    check_int's rule, in [1, MAX_DIM]; anything else raises ValueError."""
    return check_range(check_int(dim, "dimension"), "dimension", 1, MAX_DIM)


def check_int(value, name: str) -> int:
    """Return a Python or numpy integer, or a 0-d integer array, as an int; booleans, floats,
    strings, None and other arrays raise ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:  # no __index__, or an array that is not an integer scalar
            pass
    raise ValueError(f"{name} must be an integer, got {shown(value)}")


def check_finite(**values) -> None:
    """Raise ValueError unless each keyword value is a finite real number; bools are refused,
    and so is an int or Fraction too large for a float."""
    for name, value in values.items():
        try:
            # a float first, so a plain float skips the slow Real ABC check
            finite = (
                isinstance(value, float) or not isinstance(value, bool) and isinstance(value, Real)
            ) and math.isfinite(value)
        except OverflowError:  # math.isfinite converts to float first
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite number, got {shown(value)}")


def check_range(value, name: str, lo, hi=None, *, open_lo: bool = False):
    """value if lo <= value <= hi (lo < value when open_lo; no upper bound when hi is None); anything
    else raises ValueError "<name> must be in [lo, hi], got <value>", or "must be >= lo" without hi."""
    if (lo < value if open_lo else lo <= value) and (hi is None or value <= hi):
        return value
    bound = f">{'' if open_lo else '='} {lo}" if hi is None else f"in {'(' if open_lo else '['}{lo}, {hi}]"
    raise ValueError(f"{name} must be {bound}, got {shown(value)}")


def check_type(value, cls: type):
    """value if it is a cls; anything else is refused by type, before any attribute is read."""
    if not isinstance(value, cls):
        raise ValueError(f"expected a {cls.__name__}, got {type(value).__name__}")
    return value


def check_choice(value, choices, name: str):
    """value if it is a str in choices; anything else is refused before `in` could hash it or compare an array entrywise."""
    if isinstance(value, str) and value in choices:
        return value
    raise ValueError(f"{name} must be one of {choices}, got {shown(value)}")


def _as_array(x, ndim: int) -> np.ndarray:
    """x as a finite complex vector (ndim 1) or square matrix (ndim 2) of a size check_dim takes."""
    try:
        a = np.asarray(x, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"expected a numeric array, got {type(x).__name__}") from None
    if a.ndim != ndim or a.shape[0] != a.shape[-1]:
        raise ValueError(f"expected a {'vector' if ndim == 1 else 'square matrix'}, got shape {a.shape}")
    check_dim(a.shape[0])
    if not np.isfinite(a).all():
        raise ValueError("array contains NaN or Inf")
    return a


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis state |index> with a 1-based index."""
    d = check_dim(dim)
    index = check_range(check_int(index, "basis index"), "basis index", 1, d)
    v = np.zeros(d, dtype=complex)
    v[index - 1] = 1.0
    return v


def validate_unitary(u) -> np.ndarray:
    """Check U U^dag = 1 within DEFAULT_TOL (max entrywise error) and return U."""
    a = _as_array(u, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give an inf or NaN error, refused below
        err = np.abs(a @ a.conj().T - np.eye(a.shape[0])).max()
    if not err <= DEFAULT_TOL:
        raise ValueError(f"matrix is not unitary: max |UU^dag - 1| = {err}")
    return a


def equal_up_to_global_phase(a, b, tol: float = DEFAULT_TOL) -> bool:
    """True when ||a - c*b|| <= tol for some unit-modulus scalar c.

    The c that minimizes that distance is the phase of <b|a> (1 when <b|a> = 0),
    so the relation is symmetric in a and b. Shapes that differ, a tol that is
    not a finite number >= 0 and a distance that overflows raise ValueError.
    """
    check_finite(tol=tol)
    check_range(tol, "tol", 0)
    va = _as_array(a, 1)
    vb = _as_array(b, 1)
    if va.shape != vb.shape:
        raise ValueError(f"shape mismatch: {va.shape} vs {vb.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give an inf or NaN distance, refused below
        # <b|a> of copies scaled to a largest magnitude of 1 (the floor keeps 1/scale finite), so it
        # neither overflows nor underflows; Python's complex division stays finite at a subnormal |c|
        sa, sb = (v / max(np.abs(v).max(), np.finfo(float).tiny) for v in (va, vb))
        c = complex(np.vdot(sb, sa))
        # hypot folds the magnitudes without squaring them, so only a distance past the float range is inf
        dist = np.hypot.reduce(np.abs(va - (c / abs(c) if c else 1.0) * vb))
    if not math.isfinite(dist):
        raise ValueError(f"vectors too large to compare: their distance is {dist}")
    return bool(dist <= tol)


def outer(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi| for a normalized pure state."""
    v = _as_array(psi, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give an inf norm, refused below
        n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-8:
        raise ValueError(f"outer() requires a normalized state, got norm {n}")
    return np.outer(v, v.conj())


def fidelity(rho, target) -> float:
    """<target| rho |target> for a density matrix and a pure target state."""
    a = _as_array(rho, 2)
    t = _as_array(target, 1)
    if a.shape[0] != t.shape[0]:
        raise ValueError(f"dimension mismatch: rho {a.shape[0]}, target {t.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give an inf or NaN overlap, refused below
        val = np.vdot(t, a @ t).real
    if not math.isfinite(val):
        raise ValueError(f"fidelity of input this large is not finite: {val}")
    return float(val)

