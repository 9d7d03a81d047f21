"""In-silico version of the spin-3/2 classification experiment.

The experiment prepares a pseudo-pure |2> on the four levels of a spin-3/2
nucleus and runs the one-query circuit in up to three stages, each realized
as a single composite pulse:

  after_qft     apply F                      -> uniform-magnitude superposition
  after_oracle  apply U_p F                  -> same magnitudes, shifted phases
  full          apply F^dag U_p F            -> |2> (positive) or |4> (negative)

Two oracle representatives are wired in, matching the demonstrated cases:
"positive" is the forward rotation (2,3,4,1) and "negative" the reversal
(3,2,1,4).  Gates come either from the exact matrices ("ideal") or from
SMP pulse synthesis ("smp"); in the latter case the convergence flag of the
underlying search is surfaced on the result.

Fidelity is always quoted for the epsilon-component of the pseudo-pure
state, i.e. the pure part rho_1 in rho = (1 - eps)/d * 1 + eps * rho_1,
which is what a deviation-matrix readout reconstructs.  Unitary evolution
is linear, so rho_1 is propagated exactly alongside the identity part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithm import qft
from .linalg import adjoint, basis_state, fidelity, outer
from .nmr import SpinSystem, pseudo_pure, sequence_propagator
from .permutations import Permutation, oracle_unitary
from .smp import OptimizerConfig, SmpResult, smp_optimize

STAGES = ("after_qft", "after_oracle", "full")

ORACLES = {
    "positive": Permutation((2, 3, 4, 1)),
    "negative": Permutation((3, 2, 1, 4)),
}

PREPARED_INDEX = 2


def stage_unitary(oracle: str, stage: str) -> np.ndarray:
    """Composite unitary implemented by the pulse of the given stage."""
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {sorted(ORACLES)}, got {oracle!r}")
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    f = qft(4)
    if stage == "after_qft":
        return f
    u = oracle_unitary(ORACLES[oracle])
    if stage == "after_oracle":
        return u @ f
    return adjoint(f) @ u @ f


def theory_state(oracle: str, stage: str) -> np.ndarray:
    """Pure state an ideal run leaves the epsilon-component in."""
    return stage_unitary(oracle, stage) @ basis_state(4, PREPARED_INDEX)


@dataclass
class ProtocolResult:
    """Full density matrix, its pure part, and the fidelity to theory."""

    rho: np.ndarray
    pure_part: np.ndarray  # rho_1, the epsilon-component as a density matrix
    target: np.ndarray
    fidelity: float
    converged: bool
    smp: SmpResult | None

    @property
    def dominant_index(self) -> int:
        """1-based basis label carrying the largest pure-part population."""
        return int(np.argmax(np.diag(self.pure_part).real)) + 1


def run_protocol(
    sys: SpinSystem,
    oracle: str,
    stage: str,
    gate_source: str = "ideal",
    epsilon: float = 1e-5,
    config: OptimizerConfig | None = None,
) -> ProtocolResult:
    """Evolve the pseudo-pure |2> through the requested circuit prefix."""
    if sys.dim != 4:
        raise ValueError(f"the protocol runs on a four-level system, got dim {sys.dim}")
    if gate_source not in ("ideal", "smp"):
        raise ValueError(f"gate_source must be 'ideal' or 'smp', got {gate_source!r}")

    target_u = stage_unitary(oracle, stage)
    smp_result: SmpResult | None = None
    if gate_source == "smp":
        smp_result = smp_optimize(sys, target_u, config=config)
        u = sequence_propagator(sys, smp_result.segments)
        converged = smp_result.converged
    else:
        u = target_u
        converged = True

    pure0 = outer(basis_state(4, PREPARED_INDEX))
    pure = u @ pure0 @ u.conj().T

    goal = theory_state(oracle, stage)
    return ProtocolResult(
        rho=pseudo_pure(pure, epsilon),
        pure_part=pure,
        target=goal,
        fidelity=fidelity(pure, goal),
        converged=converged,
        smp=smp_result,
    )
