"""One-query classification of cyclic permutations on a single qudit.

The circuit is F^dag U_p F applied to a basis state, where F is a discrete
Fourier transform and U_p the permutation oracle.  Every positive cyclic
permutation maps the Fourier column used as the initial state onto itself
up to a phase, and every negative one maps it onto a single other column,
so one oracle call ends in a deterministic basis-state measurement:

- "general" convention: start in |2>, positive -> |2>, negative -> |d>;
- "qutrit" spin convention (d = 3, levels labeled m = +1, 0, -1 mapped to
  indices 1, 2, 3): start in |1>, even -> |1>, odd -> |3>, index 2 never.

A classical procedure needs two oracle values, and no single classical
query can decide chirality; both facts are implemented below as checkable
claims rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import check_dim, vector_to_json
from .permutations import (
    Chirality,
    Permutation,
    apply_oracle,
    check_cyclic_dim,
    check_permutation,
    classify_cyclic,
    enumerate_cyclic,
)

# Fourier conventions by name, each with the basis label the protocol starts
# from: labels 1..d start in |2>, the d = 3 spin labels m = +1, 0, -1 in |1>.
_START = {"general": 2, "qutrit": 1}
FOURIER_VARIANTS = tuple(_START)


class NotCyclicError(ValueError):
    """Raised when the quantum runner is handed a non-cyclic permutation."""


@dataclass(frozen=True)
class FourierKind:
    """Fourier convention ("general" or "qutrit") and an optional relabeling."""

    variant: str = "general"
    relabeling: Permutation | None = None

    def __post_init__(self):
        if self.variant not in FOURIER_VARIANTS:
            raise ValueError(f"Fourier variant must be one of {FOURIER_VARIANTS}, got {self.variant!r}")
        if self.relabeling is not None and not isinstance(self.relabeling, Permutation):
            raise ValueError(f"relabeling must be a Permutation or None, got {self.relabeling!r}")

    @staticmethod
    def standard(relabeling: Permutation | None = None) -> "FourierKind":
        return FourierKind("general", relabeling)

    @staticmethod
    def qutrit_spin(relabeling: Permutation | None = None) -> "FourierKind":
        return FourierKind("qutrit", relabeling)


_DEFAULT_KIND = FourierKind()  # frozen, so one instance serves every call


@lru_cache(maxsize=None)
def _fourier(d: int, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only unrelabeled F and conj(F), whose transpose is F^dag; one entry per (d, variant)."""
    labels = np.array([1, 0, -1]) if variant == "qutrit" else np.arange(d)
    f = np.exp(2j * np.pi * np.outer(labels, labels) / d) / np.sqrt(d)
    f_conj = f.conj()
    f.flags.writeable = f_conj.flags.writeable = False
    return f, f_conj


def _as_kind(kind) -> FourierKind:
    """kind, or the default for None; anything that is not a FourierKind is refused by type."""
    if kind is None:
        return _DEFAULT_KIND
    if not isinstance(kind, FourierKind):
        raise ValueError(f"kind must be a FourierKind or None, got {kind!r}")
    return kind


def _check_kind(d: int, kind: FourierKind | None) -> FourierKind:
    """The kind, defaulted, if it fits size d: qutrit only at d = 3, relabeling of size d."""
    kind = _as_kind(kind)
    if kind.variant == "qutrit" and d != 3:
        raise ValueError("the qutrit spin variant is only defined for dim 3")
    sigma = kind.relabeling
    if sigma is not None and sigma.dim != d:
        raise ValueError(f"size mismatch: {sigma.dim} vs {d}")
    return kind


def _cyclic_dim(p) -> int:
    """The size of a Permutation under the cyclic promise; Permutation already holds it in 1..MAX_DIM."""
    d = check_permutation(p).dim
    return d if d >= 3 else check_cyclic_dim(d)


def qft(dim: int, kind: FourierKind | None = None) -> np.ndarray:
    """Fourier matrix for the given dimension and convention.

    Standard: F[k'-1, k-1] = exp(i 2 pi (k-1)(k'-1) / d) / sqrt(d).
    Qutrit spin: the same transform written over spin labels m = +1, 0, -1,
    F[m', m] = exp(i 2 pi m' m / 3) / sqrt(3); columns agree with the
    standard d = 3 matrix up to column order and global phases.
    At d = 2 the standard matrix is the Hadamard transform.

    A relabeling permutation sigma turns F into P_sigma F, the oracle
    scatter apply_oracle(sigma, F): row x of F moves to row sigma(x), so
    the same algorithm runs on sigma-relabeled basis states.

    The matrix is built once per (dim, variant) per process; the returned
    array is a fresh one that belongs to the caller.
    """
    d = check_dim(dim)
    if d < 2:
        raise ValueError(f"Fourier transform needs dim >= 2, got {d}")
    kind = _check_kind(d, kind)
    f, _ = _fourier(d, kind.variant)
    sigma = kind.relabeling
    return f.copy() if sigma is None else apply_oracle(sigma, f)


def initial_index(kind: FourierKind | None = None) -> int:
    """Basis label the protocol starts from for a given Fourier convention."""
    return _START[_as_kind(kind).variant]


@dataclass(eq=False)
class RunReport:
    """Outcome of one classification run (quantum or classical).

    Quantum-only fields (measured_index, phase, final_state) are None for
    classical runs.  phase is the global phase of the final state relative
    to the bare basis state |measured_index>.
    """

    permutation: Permutation
    oracle_queries: int
    classification: Chirality
    measured_index: int | None = None
    phase: complex | None = None
    final_state: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.permutation.dim

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "permutation": self.permutation.to_json(),
            "oracle_queries": self.oracle_queries,
            "classification": self.classification.value,
            "measured_index": self.measured_index,
            "phase": None
            if self.phase is None
            else {"re": float(self.phase.real), "im": float(self.phase.imag)},
            "final_state": None
            if self.final_state is None
            else vector_to_json(self.final_state),
        }


def run_quantum(p: Permutation, kind: FourierKind | None = None) -> RunReport:
    """Classify a cyclic permutation with a single oracle application.

    Raises ValueError when p is not a Permutation, below dim 3, where
    rotations and reflections coincide, or when the kind does not fit the
    size, and NotCyclicError for permutations outside the promise (in the
    kind's labeling).

    p is read only through its one application of U_p, and the outcome
    alone refuses non-cyclic inputs.  F^dag U_p F |2> is a phase times |m>
    exactly when x = (m - 1) p(x) + b mod d for all x: rotations land on
    |2>, reflections on |d>, other unit multipliers elsewhere.  Any other
    bijection breaks that relation at two x or more, so no probability
    exceeds |d - 2 + 2 exp(2 pi i / d)|^2 / d^2 < 1 - 1e-9 for d <= 64.
    A relabeling reduces to this, as P_sigma^dag U_p P_sigma = U_(sigma^-1
    p sigma), and the qutrit variant reorders the labels of d = 3.

    The query and the relabeling are one scatter, apply_oracle.  The
    query is U_p applied to F|start>, read as the start row of the cached
    F: both conventions build F from an outer product of the labels with
    themselves, so F equals its transpose bit for bit and the row is the
    start column in contiguous memory.  The sigma scatter is not a query
    of p: apply_oracle(sigma, arange(d)) is sigma^-1 - 1, whose entries
    pick the rows of P_sigma F out of F|start> and out of the cached
    conj(F), whose transpose is F^dag.  The only d x d work is the F^dag
    product.  The outcome comes from one pass of magnitudes: their argmax
    is the measured level, and only its magnitude is squared for the
    1 - 1e-9 test: a level above that bound leaves less than 1e-9 to all
    the others, so no tie can move the argmax.
    """
    d = _cyclic_dim(p)
    kind = _check_kind(d, kind)
    start = _START[kind.variant]
    f, f_conj = _fourier(d, kind.variant)
    ket = f[start - 1]  # F|start>, as a row of the symmetric F
    sigma = kind.relabeling
    if sigma is not None:
        rows = apply_oracle(sigma, np.arange(d))  # sigma^-1 - 1: the rows of P_sigma F
        ket = ket.take(rows)
        f_conj = f_conj.take(rows, axis=0)

    queries = 0

    def call_oracle(state: np.ndarray) -> np.ndarray:
        nonlocal queries
        queries += 1
        return apply_oracle(p, state)

    psi = call_oracle(ket)
    psi = f_conj.T @ psi

    magnitudes = np.abs(psi)
    idx = int(magnitudes.argmax()) + 1
    top = magnitudes[idx - 1]
    if top * top < 1.0 - 1e-9 or (idx != start and idx != d):
        raise NotCyclicError(
            f"permutation {p.image} is not cyclic in the requested labeling"
        )
    amp = psi[idx - 1]

    return RunReport(
        permutation=p,
        oracle_queries=queries,
        classification=Chirality.POSITIVE if idx == start else Chirality.NEGATIVE,
        measured_index=idx,
        phase=complex(amp / abs(amp)),
        final_state=psi,
    )


def run_classical(p: Permutation) -> RunReport:
    """Classify with two black-box value queries, f(1) and f(2).

    f(1) pins down one positive and one negative cyclic candidate; f(2)
    decides between them.  If neither candidate matches, the oracle cannot
    be cyclic and the report says so.  Raises ValueError when p is not a
    Permutation or below dim 3.
    """
    d = _cyclic_dim(p)
    image = p.image

    queries = 0

    def f(x: int) -> int:
        nonlocal queries
        queries += 1
        return image[x - 1]

    y1 = f(1)
    y2 = f(2)
    if y2 == (y1 % d) + 1:
        chi = Chirality.POSITIVE
    elif y2 == ((y1 - 2) % d) + 1:
        chi = Chirality.NEGATIVE
    else:
        chi = Chirality.NOT_CYCLIC

    return RunReport(
        permutation=p,
        oracle_queries=queries,
        classification=chi,
    )


def one_query_insufficient(dim: int, classes=None) -> bool:
    """Exhaustive check that one classical value query cannot decide chirality.

    For every query x and every answer y, the cyclic permutations consistent
    with f(x) = y must include both chiralities, so one answer never fixes
    the class.  The O(d^2) scan checks that, for each x, the images p(x) of
    the positive and of the negative members (classed by classify_cyclic)
    each cover 1..d.  It holds at every d >= 3: rotation(d, (y - x) mod d)
    and reflection(d, (x + y - 1) mod d) both send x to y.

    classes, when given, is the list of (classify_cyclic(p).chirality,
    p.image) over enumerate_cyclic(dim), for a caller that has already
    classed the family; by default the function builds it.  Anything but
    (Chirality, image tuple) pairs, each image a bijection of 1..d, is
    refused with ValueError.
    """
    d = check_cyclic_dim(dim)
    labels = set(range(1, d + 1))
    if classes is None:
        classes = [(classify_cyclic(p).chirality, p.image) for p in enumerate_cyclic(d)]
    else:
        try:
            classes = [(chi, img) for chi, img in classes]
            ok = all(
                isinstance(chi, Chirality) and isinstance(img, tuple) and len(img) == d and set(img) == labels
                for chi, img in classes
            )
        except (TypeError, ValueError):  # not an iterable of pairs, or unhashable labels
            ok = False
        if not ok:
            raise ValueError(f"classes must be (Chirality, image) pairs over 1..{d}")
    return all(
        {img[x] for chi, img in classes if chi is chirality} == labels
        for chirality in (Chirality.POSITIVE, Chirality.NEGATIVE)
        for x in range(d)
    )


def phase_table(dim: int) -> dict[tuple[Chirality, int], complex]:
    """Final-state phases of the standard protocol, keyed by (chirality, shift).

    Positive rotation by r: exp(-i 2 pi r / d).
    Negative rotation offset r: exp(+i 2 pi (r - 1) / d).
    Both follow from shifting the initial Fourier column |psi_2>, whose
    amplitudes are exp(i 2 pi j / d) / sqrt(d) over j = 0..d-1.
    """
    d = check_cyclic_dim(dim)
    table: dict[tuple[Chirality, int], complex] = {}
    for r in range(d):
        table[(Chirality.POSITIVE, r)] = complex(np.exp(-2j * np.pi * r / d))
        table[(Chirality.NEGATIVE, r)] = complex(np.exp(2j * np.pi * (r - 1) / d))
    return table

