"""Pulse synthesis: fidelity measure, optimizer behavior, serialization."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import GATES, TWO_PI, haar_unitary

from quditcycle.algorithm import qft
from quditcycle.cli import GATE_MAP
from quditcycle.nmr import PulseSegment, SpinSystem, sequence_propagator, spin_operators
from quditcycle.protocol import run_protocol, stage_unitary
import quditcycle.nmr as nmr
import quditcycle.smp as smp
from quditcycle.smp import (
    AMP_MAX_HZ,
    DUR_MAX_S,
    DUR_MIN_S,
    MAX_ITER,
    MAX_RESTARTS,
    MAX_SEGMENTS,
    STOP_CAP,
    STOP_GRADIENT,
    STOP_OBJECTIVE,
    OptimizerConfig,
    _decode,
    _residual,
    gate_fidelity,
    minimize,
    segments_from_json,
    segments_to_json,
    smp_optimize,
)

SPIN_HALF = SpinSystem(spin=0.5, larmor_freq=TWO_PI * 500e6, quad_freq=0.0)


def test_gate_fidelity_basics():
    u = qft(4)
    assert abs(gate_fidelity(u, u) - 1.0) < 1e-14
    assert abs(gate_fidelity(u, np.exp(0.37j) * u) - 1.0) < 1e-14
    swap_ends = np.eye(4)[[3, 1, 2, 0]]
    assert gate_fidelity(np.eye(4), swap_ends) == pytest.approx(0.5)
    assert gate_fidelity(np.eye(2), np.diag([1, -1])) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="equal shape"):
        gate_fidelity(np.eye(2), np.eye(3))


_NOT_FINITE_SQUARE = {
    "nan": np.full((2, 2), np.nan),
    "inf": [[1, np.inf], [0, 1]],
    "not-square": np.ones((2, 3)),
    "none": None,
}


@pytest.mark.parametrize("u", _NOT_FINITE_SQUARE.values(), ids=_NOT_FINITE_SQUARE.keys())
def test_gate_fidelity_refuses_what_is_not_a_finite_square_matrix(u):
    # a NaN or infinite matrix used to come back as a fidelity of nan
    with pytest.raises(ValueError):
        gate_fidelity(u, np.eye(2))
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(2), u)


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
    # True compared as 1.0 and was taken as a fidelity target, and 10**400
    # raised OverflowError
    for value in (True, 10**400):
        with pytest.raises(ValueError, match="min_fidelity"):
            OptimizerConfig(min_fidelity=value)


@pytest.mark.parametrize("config", [{"seed": 1}, {}, 5, 0, "x", False], ids=repr)
def test_only_an_optimizer_config_or_none_is_taken(config):
    # a dict, number or string raised AttributeError from smp_optimize, or an
    # empty one ran the default search; run_protocol reaches the same check
    with pytest.raises(ValueError, match="expected a OptimizerConfig, got "):
        smp_optimize(SpinSystem(), qft(4), config=config)
    with pytest.raises(ValueError, match="expected a OptimizerConfig, got "):
        run_protocol(SpinSystem(), "positive", "full", config)


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


@pytest.mark.parametrize("segments", [None, "x", 5, [1, 2], (PulseSegment(1.0, 0.0, 1e-6), None)], ids=repr)
def test_segments_to_json_refuses_what_is_not_pulse_segments(segments):
    # None or 5 raised TypeError, and "x" AttributeError; the check is
    # sequence_propagator's, so the message is too
    with pytest.raises(ValueError, match="iterable of PulseSegment"):
        segments_to_json(segments)


_SEGMENT_JSON = {"amp_hz": 1e3, "phase_rad": 0.5, "dur_s": 1e-6}
_NOT_MAPPINGS = "pulses must be mappings with amp_hz, phase_rad and dur_s, got "


@pytest.mark.parametrize(
    "items, message",
    [
        (None, _NOT_MAPPINGS + "None"),
        (5, _NOT_MAPPINGS + "5"),
        ((1, 2), _NOT_MAPPINGS + "(1, 2)"),
        ("x", _NOT_MAPPINGS + "'x'"),
        ([None], _NOT_MAPPINGS + "[None]"),
        ([{"amp_hz": 1e3, "phase_rad": 0.5}], _NOT_MAPPINGS + "[{'amp_hz': 1000.0, 'phase_rad': 0.5}]"),
        ([{**_SEGMENT_JSON, "amp_hz": "1e3"}], "amp_hz must be a finite number, got '1e3'"),
        ([{**_SEGMENT_JSON, "dur_s": None}], "dur_s must be a finite number, got None"),
        ([{**_SEGMENT_JSON, "phase_rad": True}], "phase_rad must be a finite number, got True"),
        ([_SEGMENT_JSON, [1e3, 0.5, 1e-6]], _NOT_MAPPINGS + repr([_SEGMENT_JSON, [1e3, 0.5, 1e-6]])),
        pytest.param([{**_SEGMENT_JSON, "dur_s": 10**400}], f"dur_s must be a finite number, got {10**400}", id="dur_s-10**400"),
        ([{**_SEGMENT_JSON, "amp_hz": 1e308}], "amp_hz overflows when converted to rad/s, got 1e+308"),
    ],
    ids=repr,
)
def test_segments_from_json_refuses_what_is_not_numeric_segment_mappings(items, message):
    # None, 5 and (1, 2) raised TypeError, a missing key KeyError, a string
    # amplitude was read through float(), 10**400 raised OverflowError, and
    # 1e308 was refused as "amplitude must be a finite number, got inf",
    # a value the caller never passed
    with pytest.raises(ValueError) as err:
        segments_from_json(items)
    assert str(err.value) == message


def _bowl(x):
    return 0.5 * x @ x, x, lambda: np.eye(x.size)


_BAD_MINIMIZE_ARGS = {
    "fg-none": (None, np.ones(2), 10),
    "fg-str": ("x", np.ones(2), 10),
    "max-eval-zero": (_bowl, np.ones(2), 0),
    "max-eval-float": (_bowl, np.ones(2), 2.5),
    "max-eval-bool": (_bowl, np.ones(2), True),
    "max-eval-none": (_bowl, np.ones(2), None),
    "x0-none": (_bowl, None, 10),
    "x0-str": (_bowl, "x", 10),
    "x0-dict": (_bowl, {}, 10),
    "x0-empty": (_bowl, [], 10),
    "x0-matrix": (_bowl, np.ones((2, 2)), 10),
    "x0-nan": (_bowl, [1.0, np.nan], 10),
    "x0-complex": (_bowl, [1.0, 1j], 10),
    "x0-bool": (_bowl, [True, False], 10),
}


@pytest.mark.parametrize("args", _BAD_MINIMIZE_ARGS.values(), ids=_BAD_MINIMIZE_ARGS.keys())
def test_minimize_refuses_bad_arguments(args):
    # None as fg raised "'NoneType' object is not callable", a float or None
    # max_eval a TypeError, and a dict x0 a TypeError
    with pytest.raises(ValueError):
        minimize(*args)


def test_minimize_takes_integer_and_float32_starts():
    a = minimize(_bowl, np.array([1.0, -2.0]), 50)
    for x0, max_eval in (([1, -2], np.int64(50)), (np.array([1, -2], dtype=np.float32), 50)):
        b = minimize(_bowl, x0, max_eval)
        assert np.array_equal(b.x, a.x) and b[1:] == a[1:]


def test_target_shape_checked():
    with pytest.raises(ValueError):
        smp_optimize(SpinSystem(), np.eye(3))


_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, np.pi, 1e300, -1e300]), st.floats(allow_nan=False, allow_infinity=False))
_TURNS = st.one_of(st.sampled_from([-0.0, 1e300, -1e300]), st.floats(-1e300, 1e300))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(_ANGLES, _TURNS, _ANGLES), min_size=1, max_size=6))
def test_every_search_vector_decodes_inside_the_rf_window(train):
    # the search has no box: any finite amplitude or duration angle, and any
    # phase up to 1e300 turns, must decode to a segment the hardware can play
    y = np.array(train).T.reshape(-1)
    amp, _, dur = rows = _decode(y)
    assert ((0 <= amp) & (amp <= TWO_PI * AMP_MAX_HZ)).all()
    assert ((DUR_MIN_S <= dur) & (dur <= DUR_MAX_S)).all()
    for row in rows.T.tolist():
        PulseSegment(*row)


def central_difference_gradient(f, x, h=1e-7):
    """Central differences of f in every coordinate."""
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


def seeded_train(rng, n):
    """Search vector of an n-segment train with rf off and both duration ends in it."""
    x = np.concatenate([rng.uniform(0.3, 2.8, n), rng.uniform(-1.0, 2.0, n), rng.uniform(0.3, 2.8, n)])
    x[0] = 0.0  # rf off: the drift's degenerate eigenvalues
    x[2 * n] = 0.0  # DUR_MIN_S
    x[-1] = np.pi  # DUR_MAX_S
    return x


SPINS = {"spin-3/2": SpinSystem(), "spin-1/2": SPIN_HALF, "spin-1": SpinSystem(spin=1.0), "spin-5/2": SpinSystem(spin=2.5)}
SPINS |= {f"spin-{round(2 * s)}/2": SpinSystem(spin=s) for s in (3.5, 7.5, 15.5, 31.5)}  # up to the largest SpinSystem takes
# trains of 1, 2 and 6 segments at each spin up to d = 16, and of 1 and 2 at d = 32 and 64
TRAINS = [
    pytest.param(sys, n, id=f"{n}-{name}") for n in (1, 2, 6) for name, sys in SPINS.items() if n < 6 or sys.dim <= 16
]


def gradient(y, sys, target_h):
    """The gradient of 1 - F = |r|^2 / 2 from the Jacobian: J^T r."""
    _, r, jac = _residual(y, sys, target_h)
    return jac().T @ r


def check_at_seeded_trains(sys, n, check):
    """check(x, target) at three seeded trains with rf off and both duration ends in
    them, then with their pinned angles moved off 0 and pi."""
    rng = np.random.default_rng([7, n, sys.dim])
    for _ in range(3):
        x = seeded_train(rng, n)
        target = haar_unitary(rng, sys.dim)
        segs = [PulseSegment(*row) for row in _decode(x).T.tolist()]
        assert segs[0].amplitude == 0.0 and segs[-1].duration == DUR_MAX_S and (n == 1 or segs[0].duration == DUR_MIN_S)
        check(x, target)
        # at angles 0 and pi the chain factor sin(u) / 2 is zero, so those
        # entries compare zero with zero.  Check the amplitude angle near 0,
        # next to the degenerate drift, then every angle well inside, where
        # each amplitude and duration derivative has a factor >= sin(0.3) / 2
        pinned = [0, 2 * n, 3 * n - 1]
        for angles in ([1e-3, 0.0, np.pi], rng.uniform(0.3, 2.8, 3)):
            x[pinned] = angles
            check(x, target)
            assert gradient(x, sys, target.conj().T)[0] != 0.0


@pytest.mark.parametrize("sys, n", TRAINS)
def test_gradient_matches_finite_differences(sys, n):
    # the search vector holds amplitude and duration angles and phases in
    # turns; every angle decodes inside the window, so there is no edge and
    # central differences apply everywhere
    def check(x, target):
        def f(u):
            return _residual(u, sys, target.conj().T)[0]

        segs = [PulseSegment(*row) for row in _decode(x).T.tolist()]
        assert f(x) == 1.0 - gate_fidelity(target, sequence_propagator(sys, segs))  # one forward pass
        assert np.abs(gradient(x, sys, target.conj().T) - central_difference_gradient(f, x)).max() <= 1e-6

    check_at_seeded_trains(sys, n, check)


def fixed_phase_residual(u, sys, target, turn):
    """turn W / sqrt(d) with W = target^dag U and U the sequence_propagator of the train u decodes to."""
    segs = [PulseSegment(*row) for row in _decode(u).T.tolist()]
    return turn * (target.conj().T @ sequence_propagator(sys, segs)) / np.sqrt(sys.dim)


@pytest.mark.parametrize("sys, n", TRAINS)
def test_jacobian_matches_finite_differences(sys, n):
    # the twin of the gradient test: every column of J, with the same step and
    # bound, against the residual at the phase of x with -i 1 projected out
    d = sys.dim

    def check(x, target):
        _, _, jac = _residual(x, sys, target.conj().T)
        j = jac()
        assert j.shape == (2 * d * d, 3 * n)
        tr = np.trace(fixed_phase_residual(x, sys, target, 1.0))
        turn = np.exp(-1j * np.angle(tr))
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = 1e-7
            fd = (fixed_phase_residual(x + e, sys, target, turn) - fixed_phase_residual(x - e, sys, target, turn)) / 2e-7
            fd -= (1j / d) * np.trace(fd).imag * np.eye(d)
            assert np.abs(j[:, i] - fd.reshape(-1).view(float)).max() <= 1e-6

    check_at_seeded_trains(sys, n, check)


def test_residual_is_the_gate_error_in_least_squares_form():
    # |r|^2 / 2 is 1 - F, and the phase direction -i 1 is projected out of
    # every column of J; the gradient test checks J^T r against 1 - F
    sys, rng = SpinSystem(), np.random.default_rng(11)
    for _ in range(5):
        y = seeded_train(rng, 6)
        target_h = haar_unitary(rng, 4).conj().T
        value, r, jac = _residual(y, sys, target_h)
        j = jac()
        assert r.shape == (32,) and j.shape == (32, 18)
        assert abs(0.5 * r @ r - value) <= 1e-14
        phase = (-1j * np.eye(4)).reshape(-1).view(float)
        assert np.abs(phase @ j).max() <= 1e-14


def test_the_pass_writes_only_into_arrays_it_made():
    # _decode and jac fill the arrays they make in place: neither may write into
    # the search vector, or into a residual or Jacobian handed out earlier
    sys, rng = SpinSystem(), np.random.default_rng(52)
    target_h = haar_unitary(rng, 4).conj().T
    y = seeded_train(rng, 6)
    y_bytes = y.tobytes()
    rows = _decode(y)
    assert rows.flags.owndata and y.tobytes() == y_bytes
    value, r, jac = _residual(y, sys, target_h)
    j_bytes = jac().tobytes()
    assert jac().tobytes() == j_bytes
    handed = []  # every point minimize passes to fun, with what fun and jac returned there

    def fun(x):
        value, r, jac = _residual(x, sys, target_h)

        def recorded():
            j = jac()
            handed.append((j, j.tobytes()))
            return j

        handed.extend([(x, x.tobytes()), (r, r.tobytes())])
        return value, r, recorded

    res = minimize(fun, y, 30)
    assert res.nit > 1 and len(handed) > 2 * res.nfev
    assert all(array.tobytes() == seen for array, seen in handed)
    assert y.tobytes() == y_bytes and jac().tobytes() == j_bytes


def test_zero_trace_start_gives_a_finite_step():
    # rf off and no quadrupolar splitting: U is exactly the identity, and
    # Tr(diag(1, -1)^dag U) = 0 exactly, where the modulus has no gradient;
    # the residual is defined there, with phase 0, and the search stops on
    # a zero gradient where it started
    y = np.array([0.0, 0.0, 0.3, 1.2, 2.0, 7.0])
    target_h = np.diag([1.0, -1.0]).astype(complex)
    value, r, jac = _residual(y, SPIN_HALF, target_h)
    assert value == 1.0 and 0.5 * r @ r == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.isfinite(r)) and np.all(np.isfinite(jac()))
    res = minimize(lambda x: _residual(x, SPIN_HALF, target_h), y, 10)
    assert res.message == STOP_GRADIENT and res.nit == 0
    assert np.array_equal(res.x, y) and res.fun == 1.0


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


# --- the in-package Levenberg-Marquardt -------------------------------------

STOP_REASONS = {STOP_OBJECTIVE, STOP_GRADIENT, STOP_CAP}


def quadratic(n=8, seed=3):
    """A zero-residual linear least-squares problem r = A x - b with condition number 100, and its solution."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(np.geomspace(1.0, 100.0, n)) @ q.T
    b = rng.standard_normal(n)

    def fun(x):
        r = a @ x - b
        return 0.5 * r @ r, r, lambda: a

    return fun, np.linalg.solve(a, b)


def rosenbrock(x):
    """Rosenbrock's function in residual form: r = (10 (x1 - x0^2), 1 - x0), zero at (1, 1)."""
    r = np.array([10 * (x[1] - x[0] ** 2), 1 - x[0]])
    return 0.5 * r @ r, r, lambda: np.array([[-20 * x[0], 10.0], [-1.0, 0.0]])


def counted(fun):
    calls = []

    def wrapper(x):
        out = fun(x)
        calls.append((x.copy(), out[0]))
        return out

    return wrapper, calls


def test_minimize_converges_on_a_zero_residual_quadratic():
    fun, x_star = quadratic()
    res = minimize(fun, np.zeros_like(x_star), 500)
    assert res.message in (STOP_GRADIENT, STOP_OBJECTIVE)
    assert np.abs(res.x - x_star).max() <= 1e-5
    assert res.fun == fun(res.x)[0] <= 1e-10
    assert res.nit < res.nfev < 20


def test_minimize_converges_on_rosenbrock():
    fun, calls = counted(rosenbrock)
    res = minimize(fun, np.array([-1.2, 1.0]), 1000)
    assert res.message in (STOP_GRADIENT, STOP_OBJECTIVE)
    assert np.abs(res.x - 1.0).max() <= 1e-6
    assert res.nfev == len(calls) < 100
    assert isinstance(res.x, np.ndarray) and isinstance(res.fun, float)


def test_every_trial_either_lowers_f_or_leaves_x():
    # minimize returns the lowest point it evaluated; each accepted step is a
    # new lowest point, and each rejected trial is a call of fun that was not
    for fun, x0 in ((rosenbrock, np.array([-1.2, 1.0])), (quadratic()[0], np.zeros(8))):
        wrapped, calls = counted(fun)
        res = minimize(wrapped, x0, 1000)
        lowest = [calls[0]]
        for x, f in calls[1:]:
            if f < lowest[-1][1]:
                lowest.append((x, f))
        assert res.fun == lowest[-1][1] and np.array_equal(res.x, lowest[-1][0])
        assert res.nit == len(lowest) - 1 < res.nfev == len(calls)


def test_minimize_never_exceeds_the_evaluation_cap():
    # every cap from 1 up to past convergence, so caps land after accepted
    # steps and inside runs of rejected trials
    full = minimize(rosenbrock, np.array([-1.2, 1.0]), 1000).nfev
    capped_after_a_rejection = []
    for max_eval in range(1, full + 2):
        fun, calls = counted(rosenbrock)
        res = minimize(fun, np.array([-1.2, 1.0]), max_eval)
        assert res.nfev == len(calls) <= max_eval
        assert res.fun == rosenbrock(res.x)[0] <= rosenbrock(np.array([-1.2, 1.0]))[0]
        assert (res.message == STOP_CAP) == (max_eval < full)
        capped_after_a_rejection.append(res.message == STOP_CAP and not np.array_equal(calls[-1][0], res.x))
    assert any(capped_after_a_rejection)


def test_a_zero_column_keeps_its_parameter():
    # x1 does not enter the residual, so J has a zero column and J^T J a zero
    # row; the damping of that column is then 1, not 0, and the step is finite
    def fun(x):
        r = np.array([x[0] - 3.0])
        return 0.5 * r @ r, r, lambda: np.array([[1.0, 0.0]])

    res = minimize(fun, np.array([0.0, 5.0]), 50)
    assert res.message in (STOP_GRADIENT, STOP_OBJECTIVE)
    assert res.x[0] == pytest.approx(3.0, abs=1e-5) and res.x[1] == 5.0


def test_each_stop_reason_is_reported():
    assert minimize(rosenbrock, np.array([-1.2, 1.0]), 3).message == STOP_CAP
    assert minimize(rosenbrock, np.ones(2), 10).message == STOP_GRADIENT  # the minimizer itself
    assert minimize(rosenbrock, np.array([-1.2, 1.0]), 1000).message == STOP_OBJECTIVE
    # a Jacobian of the wrong sign makes every trial an ascent, and every trial is rejected
    res = minimize(lambda x: (0.5 * x @ x, x, lambda: -np.eye(3)), np.ones(3), 100)
    assert res.message == STOP_CAP and res.nfev == 100
    assert np.array_equal(res.x, np.ones(3)) and res.nit == 0
    cfg = OptimizerConfig(segments=2, restarts=3, seed=0, min_fidelity=0.999999, max_iter=300)
    assert {rec.message for rec in smp_optimize(SpinSystem(), qft(4), cfg).history} <= STOP_REASONS


def test_smp_optimize_calls_minimize_by_name_once_per_restart(monkeypatch):
    # the benchmark's span replaces smp.minimize and reads .fun and .nfev of what it returns
    results = []

    def wrapper(*args, **kwargs):
        out = minimize(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(smp, "minimize", wrapper)
    cfg = OptimizerConfig(segments=1, restarts=3, seed=0, min_fidelity=0.999999, max_iter=40)
    res = smp_optimize(SpinSystem(), qft(4), cfg)
    assert len(results) == len(res.history) == 3
    for out, rec in zip(results, res.history):
        assert rec.fidelity == min(1.0 - out.fun, 1.0) and rec.nfev == out.nfev <= cfg.max_iter
        assert rec.message == out.message


def test_a_reported_fidelity_is_at_most_one(monkeypatch):
    # rounding can leave the residual a few ulps below 0: the restart's fidelity,
    # and the result's, are then 1, and a min_fidelity of 1 is reached
    def below_zero(*args, **kwargs):
        return minimize(*args, **kwargs)._replace(fun=-2.4e-15)

    monkeypatch.setattr(smp, "minimize", below_zero)
    res = smp_optimize(SpinSystem(), qft(4), OptimizerConfig(segments=1, restarts=3, seed=0, min_fidelity=1.0, max_iter=2))
    assert [rec.fidelity for rec in res.history] == [res.fidelity] == [1.0] and res.converged


# Per optimizer seed at the default OptimizerConfig(): per gate, in GATES
# order, each restart's (forward passes, accepted steps, stop reason).  Row 0
# is the benchmark's pulse-synth job set, each gate converging in its first
# restart.  That is 131 restarts and 6,754 passes, the sweep that measured
# the Levenberg-Marquardt search and each rework of its forward pass.
O, G, C = STOP_OBJECTIVE, STOP_GRADIENT, STOP_CAP
SEED_TRAJECTORIES = {
    0: ([(25, 16, O)], [(13, 10, O)], [(17, 12, O)], [(79, 47, O)], [(14, 10, O)]),
    1: ([(25, 17, O)], [(69, 41, O)], [(21, 14, O)], [(37, 24, O)], [(120, 65, C)]),
    2: ([(17, 12, G)], [(24, 16, O)], [(51, 31, O)], [(30, 19, O)], [(35, 22, O)]),
    3: ([(19, 13, O)], [(25, 16, G)], [(15, 11, O)], [(16, 12, O)], [(13, 9, G)]),
    4: ([(46, 28, O)], [(120, 69, C)], [(33, 21, O)], [(120, 66, C), (23, 15, O)], [(32, 20, G)]),
    5: ([(120, 65, C), (30, 19, G)], [(26, 17, G)], [(34, 21, G)], [(41, 26, O)], [(44, 27, O)]),
    6: ([(42, 26, O)], [(120, 66, C), (49, 30, O)], [(36, 22, O)], [(48, 29, G)], [(86, 51, O)]),
    7: ([(73, 44, O)], [(76, 45, O)], [(70, 42, O)], [(58, 35, G)], [(87, 51, O)]),
    8: ([(26, 16, G)], [(12, 10, O)], [(24, 15, G)], [(83, 49, O)], [(20, 13, G)]),
    9: ([(43, 26, G)], [(74, 44, G)], [(34, 21, G)], [(120, 66, C), (31, 20, G)], [(29, 19, O)]),
    10: ([(16, 11, G)], [(45, 28, O)], [(69, 42, O)], [(120, 66, C), (120, 66, C), (104, 61, G)], [(120, 66, C)]),
    11: ([(23, 15, O)], [(34, 21, O)], [(30, 19, O)], [(38, 24, O)], [(59, 35, G)]),
    12: ([(16, 11, G)], [(42, 26, O)], [(37, 23, O)], [(64, 39, O)], [(25, 16, G)]),
    13: ([(47, 28, O)], [(79, 48, O)], [(43, 26, O)], [(120, 67, C)], [(12, 9, G)]),
    14: ([(12, 9, G)], [(30, 20, G)], [(16, 12, O)], [(120, 66, C), (37, 23, O)], [(9, 8, O)]),
    15: ([(24, 16, O)], [(36, 22, G)], [(18, 12, G)], [(120, 65, C), (25, 17, O)], [(21, 14, G)]),
    16: ([(23, 15, O)], [(74, 44, G)], [(15, 10, O)], [(21, 14, G)], [(16, 11, O)]),
    17: ([(74, 44, O)], [(120, 67, C)], [(36, 22, G)], [(79, 44, O)], [(14, 11, O)]),
    18: ([(120, 67, C)], [(30, 19, O)], [(22, 14, G)], [(120, 66, C), (28, 18, O)], [(120, 67, C)]),
    19: ([(27, 17, O)], [(31, 20, O)], [(25, 16, O)], [(53, 32, G)], [(28, 18, O)]),
    20: ([(24, 15, G)], [(104, 60, G)], [(26, 16, G)], [(120, 68, C)], [(83, 48, G)]),
    21: ([(39, 24, O)], [(120, 65, C), (24, 15, O)], [(26, 17, O)], [(120, 66, C), (81, 45, O)], [(37, 23, O)]),
    22: ([(120, 67, C)], [(50, 30, G)], [(120, 67, C)], [(66, 40, O)], [(40, 24, G)]),
    23: ([(30, 19, O)], [(20, 14, O)], [(28, 18, O)], [(64, 39, O)], [(30, 19, O)]),
}


@pytest.mark.parametrize("seed", SEED_TRAJECTORIES)
def test_seeds_0_to_23_trajectories_are_pinned_at_the_default_config(seed, monkeypatch):
    # This pins counts, not bits: every restart's passes, steps and stop
    # reason, which a rework of the pass that keeps every floating-point
    # operation keeps.  The bits are pinned by tests/golden: synth.json holds
    # the seed-0 pulses at c.json's settings, and residual.json the pass's
    # bytes at every spin.
    # The benchmark's spans wrap nmr._propagator and smp._decode by name:
    # _forward calls _propagator once per forward pass, and _residual calls
    # _decode once per pass, plus once for the final segments
    calls = {"_propagator": 0, "_decode": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(nmr, "_propagator")
    counting(smp, "_decode")
    total = 0
    for gate, want in zip(GATES, SEED_TRAJECTORIES[seed]):
        calls.update(_propagator=0, _decode=0)
        res = smp_optimize(SpinSystem(), stage_unitary(*GATE_MAP[gate]), OptimizerConfig(seed=seed))
        assert [(r.nfev, r.nit, r.message) for r in res.history] == want, gate
        assert res.converged
        passes = sum(r.nfev for r in res.history)
        assert calls == {"_propagator": passes, "_decode": passes + 1}, gate
        total += passes
    # Levenberg-Marquardt needs 148 forward passes over the five gates at
    # seed 0; the dense BFGS before it took 490 evaluations, and scipy's
    # L-BFGS-B in the [0, 10] box 1,061 with one correction pair per
    # parameter and 2,304 with its default 10
    assert total <= 1600


def test_segments_are_capped_before_the_dense_normal_matrix_grows():
    # the search keeps the dense (3 * segments)^2 normal matrix J^T J: 72 MB
    # at the cap, and 29 GB at 20,000 segments
    assert OptimizerConfig(segments=MAX_SEGMENTS).segments == 1000
    for segments in (MAX_SEGMENTS + 1, 20_000):
        with pytest.raises(ValueError, match="segments must be at most 1000"):
            OptimizerConfig(segments=segments)


@pytest.mark.parametrize("name, cap", [("restarts", MAX_RESTARTS), ("max_iter", MAX_ITER)])
def test_restarts_and_max_iter_are_capped(name, cap):
    # restarts=10**9 and max_iter=10**12 were accepted: a synthesis that
    # could not finish, so gave no answer at all
    assert getattr(OptimizerConfig(**{name: cap}), name) == cap
    for value in (cap + 1, 10**12):
        with pytest.raises(ValueError, match=f"{name} must be in 1..{cap}, got {value}"):
            OptimizerConfig(**{name: value})
