"""Pulse synthesis: fidelity measure, optimizer behavior, serialization."""

import logging

import numpy as np
import pytest
from conftest import haar_unitary

from quditcycle.algorithm import qft
from quditcycle.nmr import PulseSegment, SpinSystem, sequence_propagator, spin_operators
from quditcycle.permutations import oracle_unitary
from quditcycle.protocol import ORACLES, stage_unitary
from quditcycle.smp import (
    SEARCH_SCALE,
    OptimizerConfig,
    _decode,
    _objective,
    _search_box,
    gate_fidelity,
    segments_from_json,
    segments_to_json,
    smp_optimize,
)

TWO_PI = 2 * np.pi
SPIN_HALF = SpinSystem(spin=0.5, larmor_freq=TWO_PI * 500e6, quad_freq=0.0)


def test_gate_fidelity_basics():
    u = qft(4)
    assert abs(gate_fidelity(u, u) - 1.0) < 1e-14
    assert abs(gate_fidelity(u, np.exp(0.37j) * u) - 1.0) < 1e-14
    swap_ends = np.eye(4)[[3, 1, 2, 0]]
    assert gate_fidelity(np.eye(4), swap_ends) == pytest.approx(0.5)
    assert gate_fidelity(np.eye(2), np.diag([1, -1])) == pytest.approx(0.0)


def test_config_validation():
    OptimizerConfig()
    with pytest.raises(ValueError):
        OptimizerConfig(segments=0)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(min_fidelity=1.5)
    # both used to fail only inside the search: numpy refuses a negative
    # seed, and max_iter = 0 tripped an assertion
    with pytest.raises(ValueError):
        OptimizerConfig(seed=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iter=0)
    # a fractional or boolean count used to fail only inside the search, or
    # for max_iter to be taken as it stood
    for name in ("segments", "restarts", "seed", "max_iter"):
        for value in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=name):
                OptimizerConfig(**{name: value})
    # True compared as 1.0 and was taken as a fidelity target
    with pytest.raises(ValueError, match="min_fidelity"):
        OptimizerConfig(min_fidelity=True)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True], ids=repr)
@pytest.mark.parametrize("name", ["amp_max_hz", "dur_min_s", "dur_max_s"])
def test_config_rejects_a_non_finite_window(name, value):
    # a NaN or infinite window used to reach the eigensolver; the window is now
    # the fixed AMP_MAX_HZ, DUR_MIN_S and DUR_MAX_S, and no config can carry one
    with pytest.raises(TypeError, match=name):
        OptimizerConfig(**{name: value})


def test_identity_target_via_quadrupolar_refocusing():
    # with rf off the free evolution is exp(-i t wq/2 diag(1,-1,-1,1)); at
    # t = 200 us and wq = 2 pi 10 kHz every phase is a multiple of 2 pi, so
    # even one near-zero-amplitude segment can hit the identity
    sys = SpinSystem()
    cfg = OptimizerConfig(segments=1, restarts=8, seed=1, min_fidelity=0.9999)
    res = smp_optimize(sys, np.eye(4), config=cfg)
    assert res.converged
    assert res.fidelity >= 0.9999
    u = sequence_propagator(sys, res.segments)
    assert gate_fidelity(u, np.eye(4)) == pytest.approx(res.fidelity)


def test_recovers_pi_pulse_on_spin_half():
    # a known one-segment solution: resonant pulse of area pi
    sys = SpinSystem(spin=0.5, larmor_freq=TWO_PI * 500e6, quad_freq=0.0)
    ix, _, _ = spin_operators(0.5)
    target = np.array([[0, -1j], [-1j, 0]])  # exp(-i pi Ix)
    cfg = OptimizerConfig(segments=1, restarts=12, seed=0, min_fidelity=0.9999)
    res = smp_optimize(sys, target, config=cfg)
    assert res.converged and res.fidelity >= 0.9999
    seg = res.segments[0]
    area = seg.amplitude * seg.duration
    # pulse area must come out at pi mod 2 pi; the window reaches 20 pi
    assert abs(np.angle(np.exp(1j * (area - np.pi)))) / np.pi < 0.01


def test_same_seed_reproduces_bitwise():
    sys = SpinSystem()
    cfg = OptimizerConfig(segments=2, restarts=2, seed=5, min_fidelity=0.999999, max_iter=200)
    a = smp_optimize(sys, qft(4), config=cfg)
    b = smp_optimize(sys, qft(4), config=cfg)
    assert a.fidelity == b.fidelity
    assert len(a.history) == len(b.history)
    for sa, sb in zip(a.segments, b.segments):
        assert sa.amplitude == sb.amplitude
        assert sa.phase == sb.phase
        assert sa.duration == sb.duration


def test_more_restarts_never_hurt():
    sys = SpinSystem()
    base = dict(segments=2, seed=9, min_fidelity=0.999999, max_iter=300)
    small = smp_optimize(sys, qft(4), config=OptimizerConfig(restarts=1, **base))
    big = smp_optimize(sys, qft(4), config=OptimizerConfig(restarts=4, **base))
    assert big.fidelity >= small.fidelity


@pytest.mark.parametrize(
    "target", [3 * np.eye(4), np.zeros((4, 4)), np.full((4, 4), np.nan)], ids=["3I", "zeros", "nan"]
)
def test_rejects_a_target_that_is_not_unitary(target):
    # 3 I came back with fidelity 2.87 and converged=True; NaN died in eigh
    cfg = OptimizerConfig(segments=1, restarts=1, max_iter=5)
    with pytest.raises(ValueError, match="not unitary|NaN"):
        smp_optimize(SpinSystem(), target, config=cfg)


def test_unconverged_is_flagged_not_raised():
    sys = SpinSystem()
    cfg = OptimizerConfig(segments=1, restarts=1, seed=0, min_fidelity=0.999999, max_iter=40)
    res = smp_optimize(sys, qft(4), config=cfg)
    assert res.converged is False
    assert 0.0 <= res.fidelity < 0.999999
    assert len(res.segments) == 1


def test_segment_json_round_trip():
    segs = [
        PulseSegment(amplitude=TWO_PI * 12.5e3, phase=1.25, duration=17e-6),
        PulseSegment(amplitude=0.0, phase=0.0, duration=3e-6),
    ]
    blob = segments_to_json(segs)
    assert blob[0]["amp_hz"] == pytest.approx(12.5e3)
    assert set(blob[0]) == {"amp_hz", "phase_rad", "dur_s"}
    back = segments_from_json(blob)
    for orig, rt in zip(segs, back):
        assert rt.amplitude == pytest.approx(orig.amplitude, rel=1e-15)
        assert rt.phase == orig.phase
        assert rt.duration == orig.duration


def test_target_shape_checked():
    with pytest.raises(ValueError):
        smp_optimize(SpinSystem(), np.eye(3))


def finite_difference_gradient(f, x, h=1e-7):
    """Central differences of f; second-order one-sided ones, pointing inward, on the box edges."""
    n = x.size // 3
    f0 = f(x)
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        boxed = i < n or i >= 2 * n  # amplitudes and durations live in [0, 1]
        if boxed and x[i] == 0.0:
            grad[i] = (-3 * f0 + 4 * f(x + e) - f(x + 2 * e)) / (2 * h)
        elif boxed and x[i] == 1.0:
            grad[i] = (3 * f0 - 4 * f(x - e) + f(x - 2 * e)) / (2 * h)
        else:
            grad[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


def seeded_train(rng, n):
    """Unit-box vector of an n-segment train with amplitude 0 and both duration edges in it."""
    x = np.concatenate([rng.uniform(0.05, 0.95, n), rng.uniform(-1.0, 2.0, n), rng.uniform(0.05, 0.95, n)])
    x[0] = 0.0  # rf off: the drift's degenerate eigenvalues
    x[2 * n] = 0.0  # DUR_MIN_S
    x[-1] = 1.0  # DUR_MAX_S
    return x


SPINS = {"spin-3/2": SpinSystem(), "spin-1/2": SPIN_HALF, "spin-1": SpinSystem(spin=1.0), "spin-5/2": SpinSystem(spin=2.5)}


@pytest.mark.parametrize("sys", SPINS.values(), ids=SPINS.keys())
@pytest.mark.parametrize("n", [1, 2, 6])
def test_gradient_matches_finite_differences(sys, n):
    # the search vector is the unit box x stretched to [0, SEARCH_SCALE] in
    # amplitude and duration; the test differentiates in x, as it always has
    box = _search_box(n)
    unit = np.repeat([SEARCH_SCALE, 1.0, SEARCH_SCALE], n)
    rng = np.random.default_rng([7, n, sys.dim])
    for _ in range(3):
        x = seeded_train(rng, n)
        target = haar_unitary(rng, sys.dim)

        def f(u):
            return _objective(u * unit, sys, target.conj().T, box)[0]

        value, grad = _objective(x * unit, sys, target.conj().T, box)
        segs = [PulseSegment(*row) for row in _decode(x * unit, box).T.tolist()]
        assert value == 1.0 - gate_fidelity(target, sequence_propagator(sys, segs))  # one forward pass
        assert np.abs(grad * unit - finite_difference_gradient(f, x)).max() <= 1e-6
        # interior points of the box, where L-BFGS-B spends its time
        x = np.clip(x, 0.05, 0.95)
        value, grad = _objective(x * unit, sys, target.conj().T, box)
        assert np.abs(grad * unit - finite_difference_gradient(f, x)).max() <= 1e-6


def test_zero_trace_gives_zero_gradient():
    # rf off and no quadrupolar splitting: U is exactly the identity, and
    # Tr(diag(1, -1)^dag U) = 0 exactly, where the modulus has no gradient
    y = np.array([0.0, 0.0, 0.3, 1.2, 2.0, 7.0])
    box = _search_box(2)
    value, grad = _objective(y, SPIN_HALF, np.diag([1.0, -1.0]).astype(complex), box)
    assert value == 1.0
    assert np.all(np.isfinite(grad)) and not grad.any()


def test_restart_history_is_recorded_and_logged(caplog):
    sys = SpinSystem()
    cfg = OptimizerConfig(segments=1, restarts=3, seed=0, min_fidelity=0.999999, max_iter=40)
    smp_optimize(sys, qft(4), config=cfg)
    assert not caplog.records  # silent unless the logger is configured
    with caplog.at_level(logging.DEBUG, logger="quditcycle"):
        res = smp_optimize(sys, qft(4), config=cfg)
    assert len(res.history) == 3
    assert res.fidelity == max(r.fidelity for r in res.history)
    for rec in res.history:
        assert 1 <= rec.nfev and 0 <= rec.nit <= cfg.max_iter and rec.seconds >= 0
        assert isinstance(rec.message, str) and rec.message
    lines = [r for r in caplog.records if r.name == "quditcycle"]
    assert len(lines) == 3 and all(r.levelno == logging.DEBUG for r in lines)
    assert lines[1].getMessage().startswith("smp restart 1: fidelity")


def test_criterion_8_restarts_stop_before_the_evaluation_cap():
    # one correction pair per parameter needs 1,140 evaluations over the five
    # gates; too few pairs (scipy's default 10) leave a tail that takes 2,304
    f = qft(4)
    targets = [
        f,
        oracle_unitary(ORACLES["positive"]) @ f,
        oracle_unitary(ORACLES["negative"]) @ f,
        stage_unitary("positive", "full"),
        stage_unitary("negative", "full"),
    ]
    cfg = OptimizerConfig(seed=0)
    total = 0
    for target in targets:
        res = smp_optimize(SpinSystem(), target, config=cfg)
        assert res.converged
        assert all(rec.nfev < cfg.max_iter for rec in res.history)
        total += sum(rec.nfev for rec in res.history)
    assert total <= 1600
