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

import cmath
import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import MAX_DIM, check_choice, check_dim, check_type, complex_to_json, vector_to_json
from .permutations import (
    Chirality,
    Permutation,
    _scatter,
    apply_oracle,
    check_cyclic_dim,
    enumerate_cyclic,
)

# Fourier conventions by name, each with the basis label the protocol starts
# from: labels 1..d start in |2>, the d = 3 spin labels m = +1, 0, -1 in |1>.
_START = {"general": 2, "qutrit": 1}
FOURIER_VARIANTS = tuple(_START)


class NotCyclicError(ValueError):
    """Raised when the quantum runner is handed a non-cyclic permutation.

    NotCyclicError(p) takes the refused Permutation as its only argument,
    refuses anything else, and holds p as .permutation and as args == (p,).
    The message, "permutation <p.image> is not cyclic in the requested
    labeling", is built by __str__ only when it is read: a caller that
    catches the refusal and moves on pays nothing for the text.  pickle and
    copy rebuild the error from args, so both keep p and the message.
    """

    def __init__(self, permutation: Permutation):
        super().__init__(check_type(permutation, Permutation))

    @property
    def permutation(self) -> Permutation:
        return self.args[0]

    def __str__(self) -> str:  # formatting the text at each refusal cost classify-stream 5.5%
        return f"permutation {self.permutation.image} is not cyclic in the requested labeling"


@dataclass(frozen=True)
class FourierKind:
    """Fourier convention ("general" or "qutrit") and an optional relabeling."""

    variant: str = "general"
    relabeling: Permutation | None = None

    def __post_init__(self):
        check_choice(self.variant, FOURIER_VARIANTS, "Fourier variant")
        if self.relabeling is not None:
            check_type(self.relabeling, Permutation)

    @staticmethod
    def standard(relabeling: Permutation | None = None) -> "FourierKind":
        return FourierKind("general", relabeling)

    @staticmethod
    def qutrit_spin(relabeling: Permutation | None = None) -> "FourierKind":
        return FourierKind("qutrit", relabeling)


_ROWS = np.arange(MAX_DIM)  # the row indices 0..d-1 of every d, as the read-only window _ROWS[:d]: 2% of classify-stream
_ROWS.flags.writeable = False

# the refusal floor: a level is measured only when its probability reaches this, which at most one level can
_MIN_PROBABILITY = 1.0 - 1e-9


@cache
def _fourier(d: int, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only unrelabeled F and conj(F), whose transpose is F^dag; one entry per (d, variant)."""
    labels = np.array([1, 0, -1]) if variant == "qutrit" else np.arange(d)
    f = np.exp(2j * np.pi * np.outer(labels, labels) / d) / np.sqrt(d)
    f_conj = f.conj()
    f.flags.writeable = f_conj.flags.writeable = False
    return f, f_conj


def _as_kind(kind) -> FourierKind:
    """kind, or the default for None; anything that is not a FourierKind is refused by type."""
    return FourierKind() if kind is None else check_type(kind, FourierKind)


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
    d = len(check_type(p, Permutation).image)
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


@dataclass(eq=False, slots=True)  # slots: 1.1% of exact-cli, whose verify makes 150 reports
class RunReport:
    """Outcome of one classification run (quantum or classical).

    Quantum-only fields (measured_index, phase, final_state) are None for
    classical runs.  phase is the global phase of the final state relative
    to the bare basis state |measured_index>.  The six fields live in slots,
    so a report has no __dict__ and takes no attribute beyond them.
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
            "phase": None if self.phase is None else complex_to_json(self.phase),
            "final_state": None
            if self.final_state is None
            else vector_to_json(self.final_state),
        }


def run_quantum(p: Permutation, kind: FourierKind | None = None) -> RunReport:
    """Classify a cyclic permutation with a single oracle application.

    Raises ValueError when p is not a Permutation, below dim 3, where
    rotations and reflections coincide, or when the kind does not fit the
    size, and NotCyclicError(p) for permutations outside the promise (in the
    kind's labeling), which holds p and formats its message only when read.

    p is read only through its one application of U_p, and the outcome
    alone refuses non-cyclic inputs.  F^dag U_p F |2> is a phase times |m>
    exactly when x = (m - 1) p(x) + b mod d for all x: rotations land on
    |2>, reflections on |d>, other unit multipliers elsewhere.  Level m's
    amplitude is the mean of exp(2 pi i e_x / d), e_x = (x - 1) - (m - 1) *
    (p(x) - 1) mod d.  Any other bijection has N >= 4(d - 2) ordered pairs
    with e_x != e_y, so no probability exceeds 1 - N (1 - cos(2 pi / d)) / d^2
    <= |d - 2 + 2 exp(2 pi i / d)|^2 / d^2 < 1 - 1e-9 at every d <= 64.
    A relabeling reduces to this, as P_sigma^dag U_p P_sigma = U_(sigma^-1
    p sigma), and the qutrit variant reorders the labels of d = 3.

    The query and the relabeling are one scatter each, permutations._scatter,
    called straight once p and the kind have passed the checks above, so
    apply_oracle's checks are not made twice; the query count is the 1
    written beside the scatter of p.  The query is U_p applied to F|start>,
    read as the start row of the cached F: both conventions build F from an
    outer product of the labels with themselves, so F equals its transpose
    bit for bit and the row is the start column in contiguous memory.  The
    sigma scatter is not a query of p: it scatters the shared read-only
    row indices _ROWS[:d] into sigma^-1 - 1, whose entries pick the rows of
    P_sigma F out of F|start> and out of the cached conj(F), whose
    transpose is F^dag.  The only d x d work is the F^dag product.  The
    outcome reads the amplitude at start, then at d: the first whose
    probability reaches the 1 - 1e-9 floor is the measured level, positive
    at start and negative at d, and p is refused if neither does.
    """
    d = _cyclic_dim(p)
    kind = _check_kind(d, kind)
    start = _START[kind.variant]
    f, f_conj = _fourier(d, kind.variant)
    ket = f[start - 1]  # F|start>, as a row of the symmetric F
    sigma = kind.relabeling
    if sigma is not None:
        rows = _scatter(sigma.image, _ROWS[:d])  # sigma^-1 - 1: the rows of P_sigma F
        ket = ket.take(rows)
        f_conj = f_conj.take(rows, axis=0)

    psi, queries = _scatter(p.image, ket), 1  # the one oracle query: U_p F|start>
    psi = f_conj.T.dot(psi)  # the same zgemv as @, with less dispatch

    for idx, chirality in ((start, Chirality.POSITIVE), (d, Chirality.NEGATIVE)):
        amp = psi[idx - 1]  # a numpy scalar: Python complex division would drop the sign of some zero parts
        top = abs(amp)
        if top * top >= _MIN_PROBABILITY:
            return RunReport(p, queries, chirality, idx, complex(amp / top), psi)
    raise NotCyclicError(p)


def _run_quantum_table(families, levels) -> tuple[np.ndarray, np.ndarray]:
    """run_quantum under the default kind for every member of every family, read at one level each.

    families holds non-empty families of Permutations, each of one size
    d >= 3, such as enumerate_cyclic(d) for several d; levels holds, in the
    same order, the level each member should land on, 2 or its d.  Returns
    (landed, phases), one entry per member: landed is True exactly when
    run_quantum(p).measured_index is that level, and the phase is then
    run_quantum(p).phase bit for bit.  Where landed is False the phase
    means nothing, and nothing is divided by a zero amplitude.

    Per size, one scatter of every member's image builds the (n, 1, d)
    stack of U_p F|2>, and np.matmul with the cached conj(F) makes, row by
    row, the same zgemv that run_quantum makes once.  The outcome rule is
    run_quantum's: a level is measured when its probability reaches the
    refusal floor.  The magnitude is np.hypot of the parts, bit for bit the
    scalar abs that run_quantum squares and divides by, which the array
    np.abs is not.
    """
    levels = np.asarray(levels) - 1  # the column each member's amplitude is read from
    images = np.fromiter(itertools.chain.from_iterable(p.image for family in families for p in family), np.intp)
    members = np.arange(max(map(len, families)))
    amps, at, read = [], 0, 0
    for family in families:
        d, n = len(family[0].image), len(family)
        f, f_conj = _fourier(d, "general")
        psi = np.empty((n, 1, d + 1), complex)  # column 0 spare, so the labels 1..d index columns 1..d
        psi[members[:n, None], 0, images[read : read + n * d].reshape(n, d)] = f[_START["general"] - 1]  # U_p F|2>
        psi = np.matmul(psi[:, :, 1:], f_conj)  # F^dag U_p F|2>, as run_quantum's zgemv per p
        amps.append(psi[members[:n], 0, levels[at : at + n]])
        at, read = at + n, read + n * d
    amp = np.concatenate(amps)
    top = np.hypot(amp.real, amp.imag)
    landed = top * top >= _MIN_PROBABILITY
    return landed, amp / np.where(landed, top, 1.0)  # a level it misses may hold exactly 0


def run_classical(p: Permutation) -> RunReport:
    """Classify with two black-box value queries, f(1) and f(2).

    f(1) pins down one positive and one negative cyclic candidate; f(2)
    decides between them.  If neither candidate matches, the oracle cannot
    be cyclic and the report says so.  Raises ValueError when p is not a
    Permutation or below dim 3.  The two queries are the two reads of
    p.image, once p has passed those checks, and the query count is the 2
    written beside them.
    """
    d = _cyclic_dim(p)
    y1, y2, queries = p.image[0], p.image[1], 2  # the two value queries f(1) and f(2)
    if y2 == (y1 % d) + 1:
        chi = Chirality.POSITIVE
    elif y2 == ((y1 - 2) % d) + 1:
        chi = Chirality.NEGATIVE
    else:
        chi = Chirality.NOT_CYCLIC

    return RunReport(p, queries, chi)


def one_query_insufficient(dim: int) -> bool:
    """Exhaustive check that one classical value query cannot decide chirality.

    For every query x and every answer y, the cyclic permutations consistent
    with f(x) = y must include both chiralities, so one answer never fixes
    the class.  The O(d^2) scan checks that each half of column x of
    enumerate_cyclic(d), the d rotations and then the d reflections, covers
    1..d.  It holds at every d >= 3: rotation(d, (y - x) mod d) and
    reflection(d, (x + y - 1) mod d) both send x to y.
    """
    d = check_cyclic_dim(dim)
    labels = set(range(1, d + 1))
    columns = zip(*(p.image for p in enumerate_cyclic(d)))
    return all(set(col[:d]) == labels and set(col[d:]) == labels for col in columns)


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
        table[(Chirality.POSITIVE, r)] = cmath.exp(-2j * cmath.pi * r / d)
        table[(Chirality.NEGATIVE, r)] = cmath.exp(2j * cmath.pi * (r - 1) / d)
    return table

