"""Vector/matrix helpers: frozen examples plus seeded property sweeps."""

from fractions import Fraction

import numpy as np
import pytest

from quditcycle.linalg import (
    MAX_DIM,
    _as_array,
    basis_state,
    check_dim,
    equal_up_to_global_phase,
    fidelity,
    outer,
    validate_unitary,
)
from quditcycle.smp import gate_fidelity

from conftest import array_bits, assert_density, haar_unitary, outcome, random_state

# The four-level Fourier column the protocol starts from, F|2>.
PSI2 = np.array([1, 1j, -1, -1j]) / 2


def test_basis_state_labels_are_one_based():
    v = basis_state(2, 1)
    assert np.array_equal(v, np.array([1, 0], dtype=complex))
    with pytest.raises(ValueError):
        basis_state(2, 0)
    with pytest.raises(ValueError):
        basis_state(2, 3)
    # an index past Python's limit on int-to-str digits raised that limit's error, which names no argument
    with pytest.raises(ValueError, match=r"basis index must be in \[1, 2\], got <int of more than"):
        basis_state(2, 10**5000)


def test_dimension_cap():
    for dim in (0, MAX_DIM + 1):
        with pytest.raises(ValueError) as err:
            check_dim(dim)
        assert str(err.value) == f"dimension must be in [1, {MAX_DIM}], got {dim}"
    with pytest.raises(ValueError):
        basis_state(MAX_DIM + 1, 1)
    basis_state(MAX_DIM, MAX_DIM)  # boundary is allowed


def test_nan_rejected():
    with pytest.raises(ValueError):
        outer(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        validate_unitary(np.array([[np.inf, 0], [0, 1]], dtype=complex))


_HUGE = {
    "validate_unitary-nan-error": lambda: validate_unitary(np.array([[1e300, 1e300], [1e300, -1e300]])),
    "validate_unitary-inf-error": lambda: validate_unitary(np.full((3, 3), 1e200)),
    "outer": lambda: outer(np.array([1e300, 0])),
    "fidelity": lambda: fidelity(np.full((2, 2), 1e300), [1e300, 1]),
    # 1.5e308 sqrt(2) apart: a distance past the float range
    "equal_up_to_global_phase": lambda: equal_up_to_global_phase([1.5e308, 0], [0, 1.5e308]),
    "equal_up_to_global_phase-reversed": lambda: equal_up_to_global_phase([0, 1.5e308], [1.5e308, 0]),
    "gate_fidelity": lambda: gate_fidelity(np.full((2, 2), 1e300), np.full((2, 2), 1e300)),
}


@pytest.mark.parametrize("call", _HUGE.values(), ids=_HUGE.keys())
def test_huge_finite_input_is_refused_without_a_warning(call):
    # the products overflowed with a RuntimeWarning, which the warning filter
    # turns into the error in place of this ValueError; a NaN error also
    # compared false against the tolerance
    with pytest.raises(ValueError, match="not unitary|normalized|not finite|too large"):
        call()


_UNREADABLE = {"dict": {}, "ragged": [[1, 2], [3]], "huge-int": [10**400, 0], "str": "ab", "object": object()}


@pytest.mark.parametrize("x", _UNREADABLE.values(), ids=_UNREADABLE.keys())
def test_arrays_numpy_cannot_read_are_refused(x):
    # a dict or an object raised TypeError, and an int past the float range OverflowError
    for call in (outer, lambda x: fidelity(np.eye(2), x), lambda x: equal_up_to_global_phase(x, [1, 0])):
        with pytest.raises(ValueError):
            call(x)


def _as_array_reference(x, ndim):
    """_as_array through np.all(np.isfinite(a)): the bit-for-bit reference."""
    try:
        a = np.asarray(x, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"expected a numeric array, got {type(x).__name__}") from None
    if a.ndim != ndim or a.shape[0] != a.shape[-1]:
        raise ValueError(f"expected a {'vector' if ndim == 1 else 'square matrix'}, got shape {a.shape}")
    check_dim(a.shape[0])
    if not np.all(np.isfinite(a)):
        raise ValueError("array contains NaN or Inf")
    return a


_AS_ARRAY_INPUTS = {
    "eye4": np.eye(4, dtype=complex),
    "real": np.arange(9.0).reshape(3, 3),
    "ints": [[1, 2], [3, 4]],
    "bools": np.eye(2, dtype=bool),
    "signed-zeros": np.full((2, 2), complex(-0.0, -0.0)),
    "vector": [1, -0.0, 1j],
    "scalar": 3.0,
    "empty-vector": np.zeros(0),
    "empty-matrix": np.zeros((0, 0)),
    "size-64": np.eye(64),
    "size-65": np.eye(65),
    "vector-65": np.zeros(65),
    "non-square": np.zeros((3, 4)),
    "three-d": np.zeros((2, 2, 2)),
    "nan": [[np.nan, 0], [0, 1]],
    "inf-vector": [np.inf, 0],
    "huge": np.full((2, 2), 1e308),
    **_UNREADABLE,
}


@pytest.mark.parametrize("x", _AS_ARRAY_INPUTS.values(), ids=_AS_ARRAY_INPUTS.keys())
def test_as_array_bitwise_matches_the_reference(x):
    for ndim in (1, 2):
        want, got = outcome(lambda: _as_array_reference(x, ndim)), outcome(lambda: _as_array(x, ndim))
        if isinstance(want, np.ndarray):
            assert array_bits(got) == array_bits(want)
        else:
            assert got == want


def test_equal_up_to_global_phase_examples():
    a = np.array([1, 0, 0], dtype=complex)
    assert equal_up_to_global_phase(a, 1j * a, 1e-10)
    assert equal_up_to_global_phase(a, a, 1e-10)
    b = np.array([0, 1, 0], dtype=complex)
    assert not equal_up_to_global_phase(a, b, 1e-10)
    with pytest.raises(ValueError, match=r"^shape mismatch: \(3,\) vs \(2,\)$"):
        equal_up_to_global_phase(a, [1, 0])


# (a, b, answer) at tol 1e-10; each pair is asked in both orders
_PHASE_EDGES = {
    "zero-vs-tiny": ([0, 0], [1e-11, 0], True),
    "tiny-orthogonal": ([0, 1e-11], [1e-11, 0], True),
    "unit-orthogonal": ([1, 0], [0, 1], False),
    "subnormal-overlap": ([1, 0], [1e-310, 1], False),
    "1e200-self": ([1e200, 0], [1e200, 0], True),
    "1e307-self": ([1e307, 1e307], [1e307, 1e307], True),
    "subnormal-orthogonal": ([1e-320, 0], [0, 1e-320], True),
    "1e300-apart": ([1e300, 1e300], [1e-300, 1], False),
}


@pytest.mark.parametrize("a, b, want", _PHASE_EDGES.values(), ids=_PHASE_EDGES.keys())
def test_equal_up_to_global_phase_is_symmetric_at_every_norm(a, b, want):
    # the phase came from b's largest component, with a zero b and a ratio below
    # 1e-12 special-cased: (0, 0) vs (1e-11, 0) was False one way and True the
    # other, two vectors 1.4e-11 apart were called different in both orders,
    # and subnormal vectors were refused as too large to compare; a sum of
    # squares read the finite distance 1.41e300 as inf and refused it too
    assert equal_up_to_global_phase(a, b, 1e-10) is want
    assert equal_up_to_global_phase(b, a, 1e-10) is want


@pytest.mark.parametrize(
    "tol",
    [
        "x", None, float("nan"), float("inf"), -1, True,
        pytest.param(10**400, id="10**400"), pytest.param(Fraction(10**400, 3), id="Fraction(10**400, 3)"),
        pytest.param(10**5000, id="10**5000"),
    ],
    ids=repr,
)  # fmt: skip
def test_equal_up_to_global_phase_refuses_a_tol_that_is_not_a_finite_number_at_least_0(tol):
    # "x" leaked numpy's UFuncTypeError and None a TypeError; NaN and -1
    # called two equal vectors different, inf and True were taken as tolerances,
    # an int or Fraction too large for a float raised OverflowError, and
    # 10**5000 the error of Python's limit on int-to-str digits, which names no argument
    with pytest.raises(ValueError, match="tol must be"):
        equal_up_to_global_phase([1, 0], [1, 0], tol=tol)


def test_equal_up_to_global_phase_takes_the_default_and_zero_tol():
    assert equal_up_to_global_phase([1, 0], [1j, 0]) and equal_up_to_global_phase([1, 0], [1, 0], tol=0)
    assert not equal_up_to_global_phase([1, 0], [0, 1], tol=0)


def test_equal_up_to_global_phase_distinct_fourier_columns():
    # two orthogonal uniform-magnitude states: |<a|b>| = 0 < 1, so no phase works
    w = np.exp(2j * np.pi / 3)
    a = np.array([w, 1, w.conjugate()]) / np.sqrt(3)
    b = np.array([w.conjugate(), 1, w]) / np.sqrt(3)
    assert abs(np.vdot(a, b)) < 1e-12  # orthogonality, derived directly
    assert not equal_up_to_global_phase(a, b, 1e-10)
    assert equal_up_to_global_phase(a, np.exp(0.7j) * a, 1e-10)


def test_unitarity_sweep():
    rng = np.random.default_rng(8)
    for _ in range(500):
        d = int(rng.integers(2, 9))
        u = haar_unitary(rng, d)
        validate_unitary(u)


def test_validate_unitary_takes_no_tolerance():
    # a NaN tol made the comparison false, so a non-unitary matrix came back as unitary
    with pytest.raises(TypeError):
        validate_unitary(np.ones((2, 2)), tol=float("nan"))
    with pytest.raises(ValueError, match="not unitary"):
        validate_unitary(np.ones((2, 2)))


def test_outer_examples():
    rho = outer(basis_state(2, 1))
    assert np.array_equal(rho, np.array([[1, 0], [0, 0]], dtype=complex))
    rho2 = outer(PSI2)
    assert np.max(np.abs(np.abs(rho2) - 0.25)) < 1e-12  # all sixteen magnitudes
    with pytest.raises(ValueError):
        outer(2 * PSI2)


def test_outer_is_valid_density(rng):
    for _ in range(50):
        d = int(rng.integers(2, 9))
        rho = outer(random_state(rng, d))
        assert_density(rho, 1e-10)
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_fidelity_examples():
    t = basis_state(4, 2)
    assert fidelity(outer(t), t) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(outer(basis_state(4, 4)), t) == pytest.approx(0.0, abs=1e-12)
    mixed = 0.99 * outer(basis_state(4, 2)) + 0.01 * outer(basis_state(4, 4))
    assert fidelity(mixed, t) == pytest.approx(0.99, abs=1e-12)
    with pytest.raises(ValueError, match="^dimension mismatch: rho 4, target 3$"):
        fidelity(outer(t), basis_state(3, 2))


def test_fidelity_pure_state_sweep():
    rng = np.random.default_rng(9)
    for _ in range(500):
        d = int(rng.integers(2, 9))
        psi = random_state(rng, d)
        f = fidelity(outer(psi), psi)
        assert abs(f - 1.0) < 1e-10
        assert -1e-10 <= f <= 1 + 1e-10
