"""Staged four-level experiment runs, ideal and pulse-synthesized."""

import numpy as np
import pytest

from quditcycle.algorithm import initial_index, qft
from quditcycle.cli import GATE_MAP
from quditcycle.linalg import _as_array, basis_state, equal_up_to_global_phase, outer
from quditcycle.nmr import SpinSystem, pseudo_pure
from quditcycle.permutations import oracle_unitary
from quditcycle.protocol import (
    ORACLES,
    STAGES,
    run_protocol,
    stage_unitary,
    theory_state,
)
from quditcycle.smp import OptimizerConfig

from conftest import array_bits, assert_density


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


def test_theory_states():
    psi2 = np.array([1, 1j, -1, -1j]) / 2
    assert np.max(np.abs(theory_state("positive", "after_qft") - psi2)) < 1e-12
    assert equal_up_to_global_phase(theory_state("positive", "full"), basis_state(4, 2), 1e-12)
    assert equal_up_to_global_phase(theory_state("negative", "full"), basis_state(4, 4), 1e-12)


def test_ideal_runs_hit_theory_exactly():
    sys = SpinSystem()
    for oracle, want_idx in (("positive", 2), ("negative", 4)):
        res = run_protocol(sys, oracle, "full", config=None)
        assert abs(res.fidelity - 1.0) < 1e-10
        assert res.converged is True
        assert res.smp is None
        assert res.dominant_index == want_idx
        assert_density(res.pure_part)

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
    with pytest.raises(ValueError, match="OptimizerConfig"):
        run_protocol(SpinSystem(), "positive", "full", "smp")
    with pytest.raises(ValueError):
        run_protocol(SpinSystem(), "positive", "nowhere")
    assert set(STAGES) == {"after_qft", "after_oracle", "full"}


def test_smp_source_plumbs_through_and_flags_convergence():
    sys = SpinSystem()
    # permissive search: enough to verify plumbing without a long run
    cfg = OptimizerConfig(segments=6, restarts=2, seed=0, min_fidelity=0.90, max_iter=2500)
    res = run_protocol(sys, "positive", "after_qft", config=cfg)
    assert res.smp is not None
    assert res.converged is res.smp.converged
    assert res.fidelity > 0.5
    assert_density(res.pure_part)

    starved = OptimizerConfig(segments=1, restarts=1, seed=0, min_fidelity=0.9999, max_iter=30)
    res = run_protocol(sys, "negative", "full", config=starved)
    assert res.converged is False


def _ideal_run_reference(oracle, stage):
    """run_protocol with config None, with keyword construction, np.isfinite on the overlap,
    the fidelity clamped to 1, and np.argmax(np.diag(...)) for the dominant level: the reference."""
    target_u = stage_unitary(oracle, stage)
    start = basis_state(4, initial_index())
    pure = target_u @ outer(start) @ target_u.conj().T
    a, t = _as_array(pure, 2), _as_array(target_u @ start, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        val = np.vdot(t, a @ t).real
    assert np.isfinite(val)
    return pure, min(float(val), 1.0), int(np.argmax(np.diag(pure).real)) + 1


@pytest.mark.parametrize("gate", sorted(GATE_MAP))
def test_ideal_run_bitwise_matches_the_reference(gate):
    oracle, stage = GATE_MAP[gate]
    pure, fid, dominant = _ideal_run_reference(oracle, stage)
    got = run_protocol(SpinSystem(), oracle, stage)
    assert array_bits(got.pure_part) == array_bits(pure)
    assert float.hex(got.fidelity) == float.hex(fid) and type(got.fidelity) is float
    assert got.dominant_index == dominant and got.smp is None and got.converged
