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

from .linalg import MAX_DIM


class Chirality(Enum):
    POSITIVE = "positive-cyclic"
    NEGATIVE = "negative-cyclic"
    NOT_CYCLIC = "not-cyclic"


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..d}, stored as the image tuple (p(1), ..., p(d))."""

    image: tuple[int, ...]

    def __post_init__(self):
        raw = tuple(self.image)
        try:
            if bool in map(type, raw):
                raise TypeError("booleans are not labels")
            img = tuple(map(operator.index, raw))
        except TypeError:
            raise ValueError(f"permutation entries must be integers, got {raw!r}") from None
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
        if not 1 <= x <= self.dim:
            raise ValueError(f"argument must be in 1..{self.dim}, got {x}")
        return self.image[x - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(x) = self(other(x))."""
        if self.dim != other.dim:
            raise ValueError(f"size mismatch: {self.dim} vs {other.dim}")
        return Permutation(tuple(self.image[y - 1] for y in other.image))

    def inverse(self) -> "Permutation":
        inv = [0] * self.dim
        for x, y in enumerate(self.image, start=1):
            inv[y - 1] = x
        return Permutation(tuple(inv))

    @staticmethod
    def identity(dim: int) -> "Permutation":
        return Permutation(tuple(range(1, dim + 1)))

    @staticmethod
    def from_string(text: str) -> "Permutation":
        """Parse "2,3,4,1" (whitespace tolerated)."""
        try:
            img = tuple(int(s) for s in text.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed permutation string {text!r}") from exc
        return Permutation(img)

    def to_json(self) -> dict:
        return {"dim": self.dim, "image": list(self.image)}


@dataclass(frozen=True)
class CyclicClass:
    chirality: Chirality
    shift: int | None  # rotation offset r in 0..d-1; None when not cyclic


def parity(p: Permutation) -> Parity:
    """Group parity (-1)^(d - number of cycles), from one O(d) walk of the cycles."""
    img = p.image
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
    return Parity.EVEN if (len(img) - cycles) % 2 == 0 else Parity.ODD


def rotation(dim: int, r: int) -> Permutation:
    """Positive cyclic permutation x -> ((x - 1 + r) mod d) + 1."""
    return Permutation(tuple((x + r) % dim + 1 for x in range(dim)))


def reflection(dim: int, r: int) -> Permutation:
    """Negative cyclic permutation x -> ((r - x) mod d) + 1."""
    return Permutation(tuple((r - (x + 1)) % dim + 1 for x in range(dim)))


def classify_cyclic(p: Permutation) -> CyclicClass:
    """Chirality and rotation offset of a permutation.

    p(1) fixes the only candidate offset of each family, so one pass over
    the image per family decides the chirality.  Rotations are tried first:
    at d = 2, (2, 1) is both a rotation and a reflection and counts as
    positive.
    """
    d = p.dim
    img = p.image
    r = img[0] - 1
    if all(y == (x + r) % d + 1 for x, y in enumerate(img)):
        return CyclicClass(Chirality.POSITIVE, r)
    r = img[0] % d
    if all(y == (r - x - 1) % d + 1 for x, y in enumerate(img)):
        return CyclicClass(Chirality.NEGATIVE, r)
    return CyclicClass(Chirality.NOT_CYCLIC, None)


def enumerate_cyclic(dim: int) -> list[Permutation]:
    """All 2d cyclic permutations: d positive (r = 0..d-1), then d negative."""
    if dim < 3:
        raise ValueError(f"cyclic enumeration needs dim >= 3, got {dim}")
    return [rotation(dim, r) for r in range(dim)] + [reflection(dim, r) for r in range(dim)]


def oracle_unitary(p: Permutation) -> np.ndarray:
    """Permutation matrix U with U|x> = |p(x)>, i.e. U[p(x)-1, x-1] = 1."""
    d = p.dim
    u = np.zeros((d, d), dtype=complex)
    for x in range(d):
        u[p.image[x] - 1, x] = 1.0
    return u


def relabel(p: Permutation, sigma: Permutation) -> Permutation:
    """Conjugate p by a relabeling sigma: returns sigma . p . sigma^-1.

    The result acts on sigma-relabeled values exactly as p acts on the
    original ones, so its cyclic class under sigma-relabeled indices equals
    classify_cyclic(p).  Note: written as a value sequence over the base
    order (sigma(1), ..., sigma(d)), the conjugate of rotation(d, r) is the
    base sequence rotated by r, which is the usual way relabeled families
    are tabulated.
    """
    return sigma.compose(p).compose(sigma.inverse())
