"""In-silico version of the spin-3/2 classification experiment.

The experiment prepares a pseudo-pure |2> on the four levels of a spin-3/2
nucleus and runs the one-query circuit in up to three stages, each realized
as a single composite pulse:

  after_qft     apply F                      -> uniform-magnitude superposition
  after_oracle  apply U_p F                  -> same magnitudes, shifted phases
  full          apply F^dag U_p F            -> |2> (positive) or |4> (negative)

Two oracle representatives are wired in, matching the demonstrated cases:
"positive" is the forward rotation (2,3,4,1) and "negative" the reversal
(3,2,1,4).  Gates are the exact matrices when no optimizer config is given,
and SMP-synthesized pulses when one is; in the latter case the convergence
flag of the underlying search is surfaced on the result.

A run evolves the pure part rho_1 of the pseudo-pure state
rho = (1 - eps)/d * 1 + eps * rho_1, which a deviation-matrix readout
reconstructs, and quotes its fidelity.  Unitary evolution leaves the
identity part alone, so the caller mixes it in with nmr.pseudo_pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithm import initial_index, qft
from .linalg import basis_state, check_choice, check_type, fidelity, outer
from .nmr import SpinSystem, sequence_propagator
from .permutations import Permutation, oracle_unitary
from .smp import OptimizerConfig, SmpResult, smp_optimize

STAGES = ("after_qft", "after_oracle", "full")

ORACLES = {
    "positive": Permutation((2, 3, 4, 1)),
    "negative": Permutation((3, 2, 1, 4)),
}


def stage_unitary(oracle: str, stage: str) -> np.ndarray:
    """Composite unitary implemented by the pulse of the given stage."""
    check_choice(oracle, sorted(ORACLES), "oracle")
    check_choice(stage, STAGES, "stage")
    f = qft(4)
    if stage == "after_qft":
        return f
    u = oracle_unitary(ORACLES[oracle])
    if stage == "after_oracle":
        return u @ f
    return f.conj().T @ u @ f


def theory_state(oracle: str, stage: str) -> np.ndarray:
    """Pure state an ideal run leaves the epsilon-component in."""
    return stage_unitary(oracle, stage) @ basis_state(4, initial_index())


@dataclass
class ProtocolResult:
    """The evolved pure part, its fidelity to theory (at most 1), and the pulse search if one ran."""

    pure_part: np.ndarray  # rho_1, the epsilon-component as a density matrix
    fidelity: float
    smp: SmpResult | None

    @property
    def converged(self) -> bool:
        """Exact gates always converge; pulses converge when their search did."""
        return self.smp is None or self.smp.converged

    @property
    def dominant_index(self) -> int:
        """1-based basis label carrying the largest pure-part population."""
        return int(self.pure_part.diagonal().real.argmax()) + 1


def run_protocol(sys: SpinSystem, oracle: str, stage: str, config: OptimizerConfig | None = None) -> ProtocolResult:
    """Evolve the pure part |2><2| through the circuit prefix: exact gates if config is None, else SMP pulses."""
    if check_type(sys, SpinSystem).dim != 4:
        raise ValueError(f"the protocol runs on a four-level system, got dim {sys.dim}")

    target_u = stage_unitary(oracle, stage)
    smp_result, u = None, target_u
    if config is not None:
        smp_result = smp_optimize(sys, target_u, config=config)
        u = sequence_propagator(sys, smp_result.segments)

    start = basis_state(4, initial_index())
    pure = u @ outer(start) @ u.conj().T
    # rounding can put the overlap a few ulps above 1; a reported fidelity is at most 1
    return ProtocolResult(pure, min(fidelity(pure, target_u @ start), 1.0), smp_result)
