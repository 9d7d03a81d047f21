"""Dense complex linear algebra for small qudit systems.

Conventions used across the package:

- Basis labels are 1-based, |1> .. |d>, matching the values the classical
  permutations act on.  Array indices are the labels minus one.
- Dimensions are validated to 1 <= d <= 64.  Everything is dense complex128;
  at these sizes structure-exploiting representations buy nothing.
- Comparison tolerances default to 1e-10 and are explicit parameters, so
  layers with simulated readout noise can relax them without monkey-patching.
- NaN and Inf are rejected at every constructor or decoder boundary.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

MAX_DIM = 64
DEFAULT_TOL = 1e-10


def check_dim(dim: int) -> int:
    """Validate a Hilbert-space dimension and return it as an int."""
    d = int(dim)
    if d != dim or d < 1 or d > MAX_DIM:
        raise ValueError(f"dimension must be an integer in [1, {MAX_DIM}], got {dim!r}")
    return d


def check_finite(owner, *names: str) -> None:
    """Raise ValueError unless each named field of owner is a finite real number; bools are refused."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def _as_vector(psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d state vector, got shape {v.shape}")
    check_dim(v.shape[0])
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector contains NaN or Inf")
    return v


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    check_dim(a.shape[0])
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf")
    return a


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis state |index> with a 1-based index."""
    d = check_dim(dim)
    if not 1 <= index <= d:
        raise ValueError(f"basis index must be in 1..{d}, got {index}")
    v = np.zeros(d, dtype=complex)
    v[index - 1] = 1.0
    return v


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(m).conj().T


def validate_unitary(u, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check U U^dag = 1 within tol (max entrywise error) and return U."""
    a = _as_matrix(u)
    err = np.max(np.abs(a @ a.conj().T - np.eye(a.shape[0])))
    if err > tol:
        raise ValueError(f"matrix is not unitary: max |UU^dag - 1| = {err}")
    return a


def validate_density(rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check hermiticity, unit trace, and positivity."""
    a = _as_matrix(rho)
    herm = np.max(np.abs(a - a.conj().T))
    if herm > tol:
        raise ValueError(f"density matrix is not Hermitian: max |rho - rho^dag| = {herm}")
    tr = np.trace(a).real
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix trace {tr} deviates from 1 by more than {tol}")
    evals = np.linalg.eigvalsh(a)
    if evals.min() < -tol:
        raise ValueError(f"density matrix has eigenvalue {evals.min()} < -{tol}")
    return a


def equal_up_to_global_phase(a, b, tol: float = DEFAULT_TOL) -> bool:
    """True when a = c*b for some unit-modulus scalar c, within tol.

    The candidate phase is read off the largest-magnitude component of b,
    which keeps the comparison stable when small components are pure noise.
    """
    va = _as_vector(a)
    vb = _as_vector(b)
    if va.shape != vb.shape:
        raise ValueError(f"shape mismatch: {va.shape} vs {vb.shape}")
    j = int(np.argmax(np.abs(vb)))
    if abs(vb[j]) == 0.0:
        return bool(np.linalg.norm(va - vb) <= tol)
    c = va[j] / vb[j]
    mag = abs(c)
    if mag < 1e-12:
        return False
    c /= mag
    return bool(np.linalg.norm(va - c * vb) <= tol)


def outer(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi| for a normalized pure state."""
    v = _as_vector(psi)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-8:
        raise ValueError(f"outer() requires a normalized state, got norm {n}")
    return np.outer(v, v.conj())


def fidelity(rho, target) -> float:
    """<target| rho |target> for a density matrix and a pure target state."""
    a = _as_matrix(rho)
    t = _as_vector(target)
    if a.shape[0] != t.shape[0]:
        raise ValueError(f"dimension mismatch: rho {a.shape[0]}, target {t.shape[0]}")
    val = np.vdot(t, a @ t)
    return float(val.real)


# --- JSON codec -------------------------------------------------------------
#
# Vectors: {"dim": d, "re": [...], "im": [...]}
# Split real/imag arrays keep the files readable and language-neutral.


def vector_to_json(psi) -> dict:
    v = _as_vector(psi)
    return {"dim": int(v.shape[0]), "re": v.real.tolist(), "im": v.imag.tolist()}
