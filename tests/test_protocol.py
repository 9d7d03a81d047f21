"""Staged four-level experiment runs, ideal and pulse-synthesized."""

import numpy as np
import pytest

from quditcycle.algorithm import qft
from quditcycle.linalg import basis_state, equal_up_to_global_phase, validate_density
from quditcycle.nmr import SpinSystem, pseudo_pure
from quditcycle.permutations import oracle_unitary
from quditcycle.protocol import (
    ORACLES,
    PREPARED_INDEX,
    STAGES,
    run_protocol,
    stage_unitary,
    theory_state,
)
from quditcycle.smp import OptimizerConfig


def test_stage_unitaries_compose_the_circuit():
    f = qft(4)
    for name, perm in ORACLES.items():
        u = oracle_unitary(perm)
        assert np.max(np.abs(stage_unitary(name, "after_qft") - f)) == 0
        assert np.max(np.abs(stage_unitary(name, "after_oracle") - u @ f)) < 1e-15
        assert np.max(np.abs(stage_unitary(name, "full") - f.conj().T @ u @ f)) < 1e-15
    # the full positive circuit is diagonal: each Fourier column picks up
    # its own rotation phase
    full_pos = stage_unitary("positive", "full")
    assert np.max(np.abs(full_pos - np.diag([1, -1j, -1, 1j]))) < 1e-12


def test_stage_and_oracle_names_validated():
    with pytest.raises(ValueError):
        stage_unitary("positive", "sideways")
    with pytest.raises(ValueError):
        stage_unitary("mystery", "full")


def test_theory_states():
    psi2 = np.array([1, 1j, -1, -1j]) / 2
    assert np.max(np.abs(theory_state("positive", "after_qft") - psi2)) < 1e-12
    assert equal_up_to_global_phase(theory_state("positive", "full"), basis_state(4, 2), 1e-12)
    assert equal_up_to_global_phase(theory_state("negative", "full"), basis_state(4, 4), 1e-12)


def test_ideal_runs_hit_theory_exactly():
    sys = SpinSystem()
    for oracle, want_idx in (("positive", 2), ("negative", 4)):
        res = run_protocol(sys, oracle, "full", gate_source="ideal")
        assert abs(res.fidelity - 1.0) < 1e-10
        assert res.converged is True
        assert res.smp is None
        assert res.dominant_index == want_idx
        validate_density(res.pure_part)

    res = run_protocol(sys, "positive", "after_qft")
    assert abs(res.fidelity - 1.0) < 1e-10
    assert np.max(np.abs(np.diag(res.pure_part).real - 0.25)) < 1e-12


def test_epsilon_controls_the_mixture():
    sys = SpinSystem()
    res = run_protocol(sys, "positive", "full")
    assert abs(res.fidelity - 1.0) < 1e-10  # quoted on the pure part only
    # the caller mixes in the background, as the nmr command does
    assert abs(pseudo_pure(res.pure_part, 0.5)[1, 1].real - (0.125 + 0.5)) < 1e-12


def test_run_protocol_validation():
    with pytest.raises(ValueError):
        run_protocol(SpinSystem(spin=0.5), "positive", "full")
    with pytest.raises(ValueError):
        run_protocol(SpinSystem(), "positive", "full", gate_source="analog")
    with pytest.raises(ValueError):
        run_protocol(SpinSystem(), "positive", "nowhere")
    assert set(STAGES) == {"after_qft", "after_oracle", "full"}
    assert PREPARED_INDEX == 2


def test_smp_source_plumbs_through_and_flags_convergence():
    sys = SpinSystem()
    # permissive search: enough to verify plumbing without a long run
    cfg = OptimizerConfig(segments=6, restarts=2, seed=0, min_fidelity=0.90, max_iter=2500)
    res = run_protocol(sys, "positive", "after_qft", gate_source="smp", config=cfg)
    assert res.smp is not None
    assert res.converged is res.smp.converged
    assert res.fidelity > 0.5
    validate_density(res.pure_part)

    starved = OptimizerConfig(segments=1, restarts=1, seed=0, min_fidelity=0.9999, max_iter=30)
    res = run_protocol(sys, "negative", "full", gate_source="smp", config=starved)
    assert res.converged is False
