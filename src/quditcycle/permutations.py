"""Permutations of {1..d}, their chirality, and permutation oracles.

A permutation is "positive cyclic" when it rotates the labels forward,
x -> ((x - 1 + r) mod d) + 1, and "negative cyclic" when it rotates the
reversed labels, x -> ((r - x) mod d) + 1.  For d = 3 chirality coincides
with even/odd group parity; from d = 4 on the two notions split, e.g.
(2,3,4,1) is an odd permutation but positive cyclic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum, EnumMeta
from functools import cache

import numpy as np

from .linalg import MAX_DIM, check_choice, check_dim, check_int, check_type, shown


class _ByValue(EnumMeta):
    """Chirality(value) takes a member or its str value; anything else is refused before Enum compares it with each value."""

    def __call__(cls, value):
        choices = tuple(cls._value2member_map_)
        return super().__call__(value if isinstance(value, cls) else check_choice(value, choices, "chirality"))


class Chirality(Enum, metaclass=_ByValue):
    POSITIVE = "positive-cyclic"
    NEGATIVE = "negative-cyclic"
    NOT_CYCLIC = "not-cyclic"

    # members are singletons that pickle and copy give back as themselves, so
    # identity is equality; Enum's own hash, hash(self._name_) in Python, costs exact-cli 1.9%
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..d}, stored as the image tuple (p(1), ..., p(d))."""

    image: tuple[int, ...]

    def __post_init__(self):
        try:
            img = tuple(self.image)
        except TypeError:  # not iterable: None, a bare int
            raise ValueError(f"permutation image must be an iterable of integers, got {shown(self.image)}") from None
        try:
            if bool in set(map(type, img)):  # numpy integers become ints; booleans are not labels
                raise TypeError
            img = tuple(map(operator.index, img))
        except TypeError:
            raise ValueError(f"permutation entries must be integers, got {shown(img)}") from None
        object.__setattr__(self, "image", img)
        d = len(img)
        if d < 1 or d > MAX_DIM:
            raise ValueError(f"permutation size must be in [1, {MAX_DIM}], got {d}")
        if sorted(img) != list(range(1, d + 1)):
            raise ValueError(f"image {shown(img)} is not a bijection of 1..{d}")

    @property
    def dim(self) -> int:
        return len(self.image)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: x goes to self.image[other.image[x - 1] - 1]."""
        if self.dim != check_type(other, Permutation).dim:
            raise ValueError(f"size mismatch: {self.dim} vs {other.dim}")
        return Permutation(tuple(self.image[y - 1] for y in other.image))

    def inverse(self) -> "Permutation":
        """self^-1: the labels 1..d scattered by self, so entry self.image[x - 1] holds x."""
        return Permutation(apply_oracle(self, np.arange(1, self.dim + 1)).tolist())


def _window(image: tuple[int, ...]) -> Permutation:
    """Permutation(image) unchecked, for _family: traced bench passes would count a checked build in the first only."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "image", image)
    return p


@dataclass(frozen=True)
class CyclicClass:
    chirality: Chirality
    shift: int | None  # rotation offset r in 0..d-1; None when not cyclic


def parity(p: Permutation) -> int:
    """Sign (-1)^(d - number of cycles): +1 even, -1 odd, from one O(d) walk of the cycles."""
    img = check_type(p, Permutation).image
    seen = [False] * len(img)
    cycles = 0
    for start in range(len(img)):
        if seen[start]:
            continue
        cycles += 1
        x = start
        while not seen[x]:
            seen[x] = True
            x = img[x] - 1
    return 1 if (len(img) - cycles) % 2 == 0 else -1


@cache
def _family(d: int) -> tuple[Permutation, ...]:
    """rotation(d, r) for r = 0..d-1, then reflection(d, r): the 2d cyclic permutations, built once per size.

    Rotation r is the window up[r : r + d] of up = (1..d, 1..d), and
    reflection r is that window reversed: ((r - x) mod d) + 1 at x is
    ((x - 1 + r) mod d) + 1 at d + 1 - x.  Each is wrapped by _window.
    """
    up = tuple(range(1, d + 1)) * 2
    windows = [up[r : r + d] for r in range(d)]
    return tuple(map(_window, windows + [w[::-1] for w in windows]))


def rotation(dim: int, r: int) -> Permutation:
    """Positive cyclic permutation x -> ((x - 1 + r) mod d) + 1."""
    d, r = check_dim(dim), check_int(r, "offset")
    return _family(d)[r % d]


def reflection(dim: int, r: int) -> Permutation:
    """Negative cyclic permutation x -> ((r - x) mod d) + 1."""
    d, r = check_dim(dim), check_int(r, "offset")
    return _family(d)[d + r % d]


def classify_cyclic(p: Permutation) -> CyclicClass:
    """Chirality and rotation offset of a permutation.

    p(1) fixes the only candidate offset of each family, so one comparison
    of the image with that candidate per family decides the chirality.
    Rotations are tried first: at d = 2, (2, 1) is both a rotation and a
    reflection and counts as positive.
    """
    img = check_type(p, Permutation).image
    d = len(img)
    family = _family(d)
    r = img[0] - 1
    if img == family[r].image:
        return CyclicClass(Chirality.POSITIVE, r)
    r = img[0] % d
    if img == family[d + r].image:
        return CyclicClass(Chirality.NEGATIVE, r)
    return CyclicClass(Chirality.NOT_CYCLIC, None)


def check_cyclic_dim(dim: int) -> int:
    """Return dim as an int if 3 <= dim <= MAX_DIM; below 3 every rotation is also a reflection."""
    d = check_dim(dim)
    if d < 3:
        raise ValueError(f"the cyclic promise needs dim >= 3, got {d}")
    return d


def enumerate_cyclic(dim: int) -> list[Permutation]:
    """All 2d cyclic permutations, d positive (r = 0..d-1) then d negative: a new list of _family's shared members."""
    return list(_family(check_cyclic_dim(dim)))


def apply_oracle(p: Permutation, a: np.ndarray) -> np.ndarray:
    """U_p a, the oracle's action on a vector or on the columns of a matrix.

    Row x-1 of a moves to row p(x)-1 with its bits unchanged: a scatter of
    the d rows, O(d) for a vector, with no d x d matrix built.  This one
    scatter, _scatter, is every relabeling in the package: U_p, P_sigma F
    (qft) and sigma^-1 (Permutation.inverse, so relabel); run_quantum calls
    _scatter itself after its own checks.  For finite a it equals
    oracle_unitary(p) @ a, except that the product may turn a -0.0 into
    +0.0.  Array-likes are taken through np.asarray.  The result is a new
    C-ordered array, whatever the layout of a; a is not written.
    """
    image = check_type(p, Permutation).image
    a = np.asarray(a)
    if a.shape[:1] != (len(image),):
        raise ValueError(f"size mismatch: {len(image)} vs shape {a.shape}")
    return _scatter(image, a)


def _scatter(image: tuple[int, ...], a: np.ndarray) -> np.ndarray:
    """apply_oracle without its checks: image is a Permutation's, a an ndarray of len(image) rows.

    The labels 1..d index rows 1..d of a buffer with one spare row, so the
    image is read once, straight into an index array, and no label - 1
    array is made on each call; nothing is cached on the Permutation.
    """
    d = len(image)
    out = np.empty((d + 1,) + a.shape[1:], a.dtype)
    out[np.fromiter(image, np.intp, d)] = a
    return out[1:]


def oracle_unitary(p: Permutation) -> np.ndarray:
    """Permutation matrix U with U|x> = |p(x)>, i.e. U[p(x)-1, x-1] = 1.

    It is apply_oracle applied to the identity, so the matrix and the
    action cannot disagree.  run_quantum does not build it.
    """
    return apply_oracle(p, np.eye(check_type(p, Permutation).dim, dtype=complex))


def relabel(p: Permutation, sigma: Permutation) -> Permutation:
    """Conjugate p by a relabeling sigma: returns sigma . p . sigma^-1.

    The result acts on sigma-relabeled values exactly as p acts on the
    original ones, so its cyclic class under sigma-relabeled indices equals
    classify_cyclic(p).  Note: written as a value sequence over the base
    order (sigma(1), ..., sigma(d)), the conjugate of rotation(d, r) is the
    base sequence rotated by r, which is the usual way relabeled families
    are tabulated.
    """
    check_type(p, Permutation)
    return check_type(sigma, Permutation).compose(p).compose(sigma.inverse())
