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
from enum import Enum

import numpy as np

from .linalg import MAX_DIM, check_dim, check_int


class Chirality(Enum):
    POSITIVE = "positive-cyclic"
    NEGATIVE = "negative-cyclic"
    NOT_CYCLIC = "not-cyclic"


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..d}, stored as the image tuple (p(1), ..., p(d))."""

    image: tuple[int, ...]

    def __post_init__(self):
        try:
            img = tuple(self.image)
        except TypeError:  # not iterable: None, a bare int
            raise ValueError(f"permutation image must be an iterable of integers, got {self.image!r}") from None
        types = set(map(type, img))
        if types != {int}:  # numpy integers become ints; booleans are not labels
            try:
                if bool in types:
                    raise TypeError
                img = tuple(map(operator.index, img))
            except TypeError:
                raise ValueError(f"permutation entries must be integers, got {img!r}") from None
        object.__setattr__(self, "image", img)
        d = len(img)
        if d < 1 or d > MAX_DIM:
            raise ValueError(f"permutation size must be in [1, {MAX_DIM}], got {d}")
        if sorted(img) != list(range(1, d + 1)):
            raise ValueError(f"image {img} is not a bijection of 1..{d}")

    @property
    def dim(self) -> int:
        return len(self.image)

    def __call__(self, x: int) -> int:
        x = check_int(x, "label")
        if not 1 <= x <= self.dim:
            raise ValueError(f"argument must be in 1..{self.dim}, got {x}")
        return self.image[x - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(x) = self(other(x))."""
        if self.dim != check_permutation(other).dim:
            raise ValueError(f"size mismatch: {self.dim} vs {other.dim}")
        return Permutation(tuple(self.image[y - 1] for y in other.image))

    def inverse(self) -> "Permutation":
        """self^-1: the labels 1..d scattered by self, so entry self(x) holds x."""
        return Permutation(apply_oracle(self, np.arange(1, self.dim + 1)).tolist())

    @staticmethod
    def from_string(text: str) -> "Permutation":
        """Parse "2,3,4,1" (whitespace tolerated)."""
        if not isinstance(text, str):
            raise ValueError(f"permutation string must be a str, got {text!r}")
        try:
            img = tuple(int(s) for s in text.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed permutation string {text!r}") from exc
        return Permutation(img)

    def to_json(self) -> dict:
        return {"dim": self.dim, "image": list(self.image)}


def check_permutation(p) -> Permutation:
    """p if it is a Permutation; anything else is refused by type, unread.

    Every public function that takes a Permutation starts here, so a tuple
    or a string gets this ValueError rather than an AttributeError.
    """
    if not isinstance(p, Permutation):
        raise ValueError(f"expected a Permutation, got {type(p).__name__}")
    return p


@dataclass(frozen=True)
class CyclicClass:
    chirality: Chirality
    shift: int | None  # rotation offset r in 0..d-1; None when not cyclic


def parity(p: Permutation) -> int:
    """Sign (-1)^(d - number of cycles): +1 even, -1 odd, from one O(d) walk of the cycles."""
    img = check_permutation(p).image
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


def _rotation_image(d: int, r: int) -> tuple[int, ...]:
    """Image of x -> ((x - 1 + r) mod d) + 1: r+1..d, then 1..r (r taken mod d)."""
    r %= d
    return (*range(r + 1, d + 1), *range(1, r + 1))


def _reflection_image(d: int, r: int) -> tuple[int, ...]:
    """Image of x -> ((r - x) mod d) + 1: r..1, then d..r+1 (r taken mod d)."""
    r %= d
    return (*range(r, 0, -1), *range(d, r, -1))


def rotation(dim: int, r: int) -> Permutation:
    """Positive cyclic permutation x -> ((x - 1 + r) mod d) + 1."""
    d, r = check_dim(dim), check_int(r, "offset")
    return Permutation(_rotation_image(d, r))


def reflection(dim: int, r: int) -> Permutation:
    """Negative cyclic permutation x -> ((r - x) mod d) + 1."""
    d, r = check_dim(dim), check_int(r, "offset")
    return Permutation(_reflection_image(d, r))


def classify_cyclic(p: Permutation) -> CyclicClass:
    """Chirality and rotation offset of a permutation.

    p(1) fixes the only candidate offset of each family, so one comparison
    of the image with that candidate per family decides the chirality.
    Rotations are tried first: at d = 2, (2, 1) is both a rotation and a
    reflection and counts as positive.
    """
    img = check_permutation(p).image
    d = len(img)
    r = img[0] - 1
    if img == _rotation_image(d, r):
        return CyclicClass(Chirality.POSITIVE, r)
    r = img[0] % d
    if img == _reflection_image(d, r):
        return CyclicClass(Chirality.NEGATIVE, r)
    return CyclicClass(Chirality.NOT_CYCLIC, None)


def check_cyclic_dim(dim: int) -> int:
    """Return dim as an int if 3 <= dim <= MAX_DIM; below 3 every rotation is also a reflection."""
    d = check_dim(dim)
    if d < 3:
        raise ValueError(f"the cyclic promise needs dim >= 3, got {dim!r}")
    return d


def enumerate_cyclic(dim: int) -> list[Permutation]:
    """All 2d cyclic permutations: d positive (r = 0..d-1), then d negative."""
    d = check_cyclic_dim(dim)
    return [rotation(d, r) for r in range(d)] + [reflection(d, r) for r in range(d)]


def apply_oracle(p: Permutation, a: np.ndarray) -> np.ndarray:
    """U_p a, the oracle's action on a vector or on the columns of a matrix.

    Row x-1 of a moves to row p(x)-1 with its bits unchanged: a scatter of
    the d rows, O(d) for a vector, with no d x d matrix built.  This one
    scatter is every relabeling in the package: U_p, P_sigma F (qft),
    sigma^-1 (Permutation.inverse, run_quantum) and relabel.  For finite a
    it equals oracle_unitary(p) @ a, except that the product may turn a
    -0.0 into +0.0.  Array-likes are taken through np.asarray.  The result
    is a new array; a is not written.
    """
    d = check_permutation(p).dim
    a = np.asarray(a)
    if a.shape[:1] != (d,):
        raise ValueError(f"size mismatch: {d} vs shape {a.shape}")
    out = np.empty_like(a)
    out[np.subtract(p.image, 1)] = a
    return out


def oracle_unitary(p: Permutation) -> np.ndarray:
    """Permutation matrix U with U|x> = |p(x)>, i.e. U[p(x)-1, x-1] = 1.

    It is apply_oracle applied to the identity, so the matrix and the
    action cannot disagree.  run_quantum does not build it.
    """
    return apply_oracle(p, np.eye(check_permutation(p).dim, dtype=complex))


def relabel(p: Permutation, sigma: Permutation) -> Permutation:
    """Conjugate p by a relabeling sigma: returns sigma . p . sigma^-1.

    It scatters p.image by sigma (apply_oracle puts p(x) at position
    sigma(x)) and reads the result through sigma, so position sigma(x)
    holds sigma(p(x)).  The result acts on sigma-relabeled values exactly as p
    acts on the original ones, so its cyclic class under sigma-relabeled
    indices equals classify_cyclic(p).  Note: written as a value sequence
    over the base order (sigma(1), ..., sigma(d)), the conjugate of
    rotation(d, r) is the base sequence rotated by r, which is the usual
    way relabeled families are tabulated.
    """
    if check_permutation(p).dim != check_permutation(sigma).dim:
        raise ValueError(f"size mismatch: {sigma.dim} vs {p.dim}")
    moved = apply_oracle(sigma, p.image)
    return Permutation(np.take(sigma.image, moved - 1).tolist())
