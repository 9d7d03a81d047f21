import numpy as np
import pytest

TWO_PI = 2 * np.pi
GATES = ("qft", "pos", "neg", "fullpos", "fullneg")  # the five protocol gates of `quditcycle nmr --gate`


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_density(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Hermitian, unit trace and positive semidefinite, each within tol."""
    assert np.max(np.abs(rho - rho.conj().T)) <= tol
    assert abs(np.trace(rho).real - 1.0) <= tol
    assert np.linalg.eigvalsh(rho).min() >= -tol


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def random_permutation_image(rng: np.random.Generator, dim: int) -> tuple:
    return tuple(int(v) + 1 for v in rng.permutation(dim))


def rotation_image(d: int, r: int) -> tuple:
    """The image of rotation(d, r) from its modulo formula, x -> x + r; any integer r."""
    return tuple((x + r) % d + 1 for x in range(d))


def reflection_image(d: int, r: int) -> tuple:
    """The image of reflection(d, r) from its modulo formula, x -> r + 1 - x; any integer r."""
    return tuple((r - x - 1) % d + 1 for x in range(d))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def outcome(call):
    """call()'s value, or the exact type and message of what it raised: the two sides of a bit-for-bit pin."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def array_bits(a):
    """What must match bit for bit in an array: dtype, shape and every byte."""
    return a.dtype.str, a.shape, a.tobytes()
