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

import numpy as np

from .linalg import basis_state, check_dim, vector_to_json
from .permutations import (
    Chirality,
    Permutation,
    classify_cyclic,
    enumerate_cyclic,
    oracle_unitary,
    relabel,
)

# Fourier conventions by name: labels 1..d, or the d = 3 spin labels m = +1, 0, -1.
FOURIER_VARIANTS = ("general", "qutrit")


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

    @staticmethod
    def standard(relabeling: Permutation | None = None) -> "FourierKind":
        return FourierKind("general", relabeling)

    @staticmethod
    def qutrit_spin(relabeling: Permutation | None = None) -> "FourierKind":
        return FourierKind("qutrit", relabeling)


def qft(dim: int, kind: FourierKind | None = None) -> np.ndarray:
    """Fourier matrix for the given dimension and convention.

    Standard: F[k'-1, k-1] = exp(i 2 pi (k-1)(k'-1) / d) / sqrt(d).
    Qutrit spin: the same transform written over spin labels m = +1, 0, -1,
    F[m', m] = exp(i 2 pi m' m / 3) / sqrt(3); columns agree with the
    standard d = 3 matrix up to column order and global phases.
    At d = 2 the standard matrix is the Hadamard transform.

    A relabeling permutation sigma turns F into P_sigma F, which runs the
    same algorithm on sigma-relabeled basis states.
    """
    d = check_dim(dim)
    if d < 2:
        raise ValueError(f"Fourier transform needs dim >= 2, got {d}")
    kind = kind or FourierKind()
    if kind.variant == "qutrit":
        if d != 3:
            raise ValueError("the qutrit spin variant is only defined for dim 3")
        labels = np.array([1, 0, -1])
    else:
        labels = np.arange(d)
    f = np.exp(2j * np.pi * np.outer(labels, labels) / d) / np.sqrt(d)
    sigma = kind.relabeling
    if sigma is not None:
        if sigma.dim != d:
            raise ValueError(f"size mismatch: {sigma.dim} vs {d}")
        f = oracle_unitary(sigma) @ f
    return f


def initial_index(kind: FourierKind | None = None) -> int:
    """Basis label the protocol starts from for a given Fourier convention."""
    kind = kind or FourierKind()
    return 1 if kind.variant == "qutrit" else 2


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

    Raises ValueError below dim 3, where rotations and reflections coincide,
    or when the kind does not fit the size, and NotCyclicError for
    permutations outside the promise (in the kind's labeling); the circuit
    is only meaningful on cyclic inputs.
    """
    kind = kind or FourierKind()
    d = p.dim
    if d < 3:
        raise ValueError(f"quantum classification needs dim >= 3, got {d}")
    f = qft(d, kind)
    sigma = kind.relabeling
    promise = classify_cyclic(p if sigma is None else relabel(p, sigma.inverse()))
    if promise.chirality is Chirality.NOT_CYCLIC:
        raise NotCyclicError(
            f"permutation {p.image} is not cyclic in the requested labeling"
        )

    queries = 0

    def call_oracle(state: np.ndarray) -> np.ndarray:
        nonlocal queries
        queries += 1
        return oracle_unitary(p) @ state

    start = initial_index(kind)
    psi = f @ basis_state(d, start)
    psi = call_oracle(psi)
    psi = f.conj().T @ psi

    probs = np.abs(psi) ** 2
    idx = int(np.argmax(probs)) + 1
    if probs[idx - 1] < 1.0 - 1e-9:
        raise RuntimeError(
            f"final state is not a basis state: max probability {probs[idx - 1]}"
        )
    amp = psi[idx - 1]
    phase = amp / abs(amp)

    outcome_map = {start: Chirality.POSITIVE, d: Chirality.NEGATIVE}
    if idx not in outcome_map:
        raise RuntimeError(f"measured index {idx} outside the promised outcomes")

    return RunReport(
        permutation=p,
        oracle_queries=queries,
        classification=outcome_map[idx],
        measured_index=idx,
        phase=complex(phase),
        final_state=psi,
    )


def run_classical(p: Permutation) -> RunReport:
    """Classify with two black-box value queries, f(1) and f(2).

    f(1) pins down one positive and one negative cyclic candidate; f(2)
    decides between them.  If neither candidate matches, the oracle cannot
    be cyclic and the report says so.
    """
    d = p.dim
    if d < 3:
        raise ValueError(f"classical classification needs dim >= 3, got {d}")

    queries = 0

    def f(x: int) -> int:
        nonlocal queries
        queries += 1
        return p(x)

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


def one_query_insufficient(dim: int) -> bool:
    """Brute-force check that one classical value query cannot decide chirality.

    For every query x and every answer y, the cyclic permutations consistent
    with f(x) = y must include both chiralities; then a single answer never
    determines the class.  Exhaustive over all 2d cyclic permutations.
    """
    if not 3 <= dim <= 8:
        raise ValueError(f"supported range is 3 <= dim <= 8, got {dim}")
    family = enumerate_cyclic(dim)
    classes = {p: classify_cyclic(p).chirality for p in family}
    for x in range(1, dim + 1):
        for y in range(1, dim + 1):
            seen = {classes[p] for p in family if p(x) == y}
            if not {Chirality.POSITIVE, Chirality.NEGATIVE} <= seen:
                return False
    return True


def phase_table(dim: int) -> dict[tuple[Chirality, int], complex]:
    """Final-state phases of the standard protocol, keyed by (chirality, shift).

    Positive rotation by r: exp(-i 2 pi r / d).
    Negative rotation offset r: exp(+i 2 pi (r - 1) / d).
    Both follow from shifting the initial Fourier column |psi_2>, whose
    amplitudes are exp(i 2 pi j / d) / sqrt(d) over j = 0..d-1.
    """
    d = check_dim(dim)
    if d < 3:
        raise ValueError(f"phase table needs dim >= 3, got {d}")
    table: dict[tuple[Chirality, int], complex] = {}
    for r in range(d):
        table[(Chirality.POSITIVE, r)] = complex(np.exp(-2j * np.pi * r / d))
        table[(Chirality.NEGATIVE, r)] = complex(np.exp(2j * np.pi * (r - 1) / d))
    return table

