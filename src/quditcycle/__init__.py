"""Exact single-qudit simulation of one-query cyclic-permutation classification.

The root exports the exact layer and the spin-3/2 model in nmr.  The pulse
search's names are imported from quditcycle.protocol and quditcycle.smp, so
that the run and verify commands never load it.
"""

from .algorithm import (
    FourierKind,
    NotCyclicError,
    RunReport,
    initial_index,
    one_query_insufficient,
    phase_table,
    qft,
    run_classical,
    run_quantum,
)
from .linalg import (
    basis_state,
    equal_up_to_global_phase,
    fidelity,
    outer,
)
from .nmr import (
    PulseSegment,
    SpinSystem,
    inject_readout_noise,
    pseudo_pure,
    pulse_propagator,
    sequence_propagator,
    spin_operators,
    static_hamiltonian,
    transition_frequencies,
)
from .permutations import (
    Chirality,
    CyclicClass,
    Permutation,
    apply_oracle,
    classify_cyclic,
    enumerate_cyclic,
    oracle_unitary,
    parity,
    reflection,
    relabel,
    rotation,
)

__all__ = [
    "Chirality",
    "CyclicClass",
    "FourierKind",
    "NotCyclicError",
    "Permutation",
    "PulseSegment",
    "RunReport",
    "SpinSystem",
    "apply_oracle",
    "basis_state",
    "classify_cyclic",
    "enumerate_cyclic",
    "equal_up_to_global_phase",
    "fidelity",
    "initial_index",
    "inject_readout_noise",
    "one_query_insufficient",
    "oracle_unitary",
    "outer",
    "parity",
    "phase_table",
    "pseudo_pure",
    "pulse_propagator",
    "qft",
    "reflection",
    "relabel",
    "rotation",
    "run_classical",
    "run_quantum",
    "sequence_propagator",
    "spin_operators",
    "static_hamiltonian",
    "transition_frequencies",
]

__version__ = "0.1.0"
