"""The package root's namespace, which modules each command loads, and how
every public callable refuses junk arguments."""

import ast
import inspect
import os
import re
import subprocess
import sys
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import quditcycle
import quditcycle.protocol
import quditcycle.smp
from quditcycle.algorithm import FourierKind, one_query_insufficient, phase_table, qft
from quditcycle.linalg import MAX_DIM, basis_state, check_dim, check_int, equal_up_to_global_phase, shown
from quditcycle.nmr import PulseSegment, SpinSystem, inject_readout_noise, pseudo_pure, sequence_propagator, static_hamiltonian, transition_frequencies
from quditcycle.permutations import Chirality, Permutation, enumerate_cyclic, reflection, rotation
from quditcycle.protocol import stage_unitary
from quditcycle.smp import MAX_ITER, MAX_RESTARTS, MAX_SEGMENTS, OptimizerConfig, minimize, segments_from_json

from conftest import array_bits

PULSE_LAYER = ("scipy.optimize", "quditcycle.smp", "quditcycle.protocol")


def test_every_exported_name_resolves():
    assert all(hasattr(quditcycle, name) for name in quditcycle.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from quditcycle import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(quditcycle.__all__)


def test_root_exports_nothing_from_the_pulse_search():
    homes = {name: getattr(getattr(quditcycle, name), "__module__", None) for name in quditcycle.__all__}
    assert not {name for name, home in homes.items() if home in ("quditcycle.protocol", "quditcycle.smp")}


def test_run_and_verify_never_load_the_pulse_layer(tmp_path):
    # run and verify used to pay for importing scipy.optimize, through the
    # root's protocol/smp re-exports and cli's module-level imports
    script = f"""
import contextlib, io, sys
import quditcycle, quditcycle.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["run", "--perm", "2,3,1", "--json"]) == 0
    assert cli.main(["verify", "--dmax", "3", "--json"]) == 0
loaded = [name for name in {PULSE_LAYER!r} if name in sys.modules]
assert not loaded, loaded
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["nmr", "--gate", "qft", "--ideal", "--out", {str(tmp_path)!r}]) == 0
"""
    # the child imports the same copy of the package as this process
    env = {**os.environ, "PYTHONPATH": str(Path(quditcycle.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_synthesis_runs_with_scipy_refused(tmp_path):
    # the pulse search is the package's own Levenberg-Marquardt; scipy is a benchmark extra
    script = f"""
import contextlib, io, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is refused")

sys.meta_path.insert(0, RefuseScipy())
import quditcycle.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["nmr", "--gate", "qft", "--seed", "0", "--out", {str(tmp_path)!r}])
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert code == 0 and not loaded, (code, loaded)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(quditcycle.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "qft_pulses.json").exists()


def test_a_failing_property_leaves_the_session_running(tmp_path):
    # with every warning an error, the hypothesis plugin's deprecation notice
    # used to end the session with an INTERNALERROR after the first failing property
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None)\n"
        "@given(st.just(0))\n"
        "def test_fails(x):\n"
        "    assert x != 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    # only the plugin under test is loaded: autoloading every installed plugin
    # took about 1 s of this test and checks nothing here
    argv = [sys.executable, "-m", "pytest", "-q", "-c", str(config), "--rootdir", "."]
    argv += ["-p", "hypothesis.extra.pytestplugin"]
    env = {**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    proc = subprocess.run([*argv, "test_probe.py"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout


def _public_callables() -> dict:
    """The root's exports, and the public callables that protocol and smp define."""
    found = {name: getattr(quditcycle, name) for name in quditcycle.__all__}
    for module in (quditcycle.protocol, quditcycle.smp):
        short = module.__name__.rsplit(".", 1)[1]
        found.update(
            (f"{short}.{name}", obj)
            for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", None) == module.__name__
        )
    return found


def _required_positional(f) -> int:
    """How many positional arguments a call of f needs; *args counts as one."""
    try:
        params = inspect.signature(f).parameters.values()
    except ValueError:  # an exception class shows no signature; it takes *args
        return 1
    needed = sum(p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params)
    return needed + any(p.kind is p.VAR_POSITIONAL for p in params)


PUBLIC = _public_callables()


_LONG = f"int of more than {sys.get_int_max_str_digits()} digits"
_LONG_INT_REFUSALS = {
    "check_dim": (lambda: check_dim(10**5000), f"dimension must be in [1, {MAX_DIM}], got <{_LONG}>"),
    "OptimizerConfig-segments": (
        lambda: OptimizerConfig(segments=10**5000), f"segments must be in [1, {MAX_SEGMENTS}], got <{_LONG}>",
    ),
    "OptimizerConfig-restarts": (
        lambda: OptimizerConfig(restarts=10**5000), f"restarts must be in [1, {MAX_RESTARTS}], got <{_LONG}>",
    ),
    "OptimizerConfig-negative-seed": (lambda: OptimizerConfig(seed=-(10**5000)), f"seed must be >= 0, got <{_LONG}>"),
    "OptimizerConfig-max_iter": (
        lambda: OptimizerConfig(max_iter=10**5000), f"max_iter must be in [1, {MAX_ITER}], got <{_LONG}>",
    ),
    "OptimizerConfig-seed": (
        lambda: OptimizerConfig(seed=Fraction(10**5000, 3)),
        f"seed must be an integer, got <Fraction holding an {_LONG}>",
    ),
    "FourierKind": (lambda: FourierKind(10**5000), f"Fourier variant must be one of ('general', 'qutrit'), got <{_LONG}>"),
    "minimize-max_eval": (lambda: minimize(lambda y: y, [1.0], -(10**5000)), f"max_eval must be >= 1, got <{_LONG}>"),
    "minimize-x0": (
        lambda: minimize(lambda y: y, [10**5000], 1),
        f"x0 must be a finite, non-empty real vector, got <list holding an {_LONG}>",
    ),
    "segments_from_json": (
        lambda: segments_from_json([10**5000]),
        f"pulses must be mappings with amp_hz, phase_rad and dur_s, got <list holding an {_LONG}>",
    ),
    "sequence_propagator": (
        lambda: sequence_propagator(SpinSystem(), [10**5000]),
        f"segments must be an iterable of PulseSegment, got <list holding an {_LONG}>",
    ),
    "stage_unitary-oracle": (
        lambda: stage_unitary(10**5000, "full"),
        f"oracle must be one of ['negative', 'positive'], got <{_LONG}>",
    ),
    "stage_unitary-stage": (
        lambda: stage_unitary("positive", 10**5000),
        f"stage must be one of ('after_qft', 'after_oracle', 'full'), got <{_LONG}>",
    ),
    "static_hamiltonian-frame": (
        lambda: static_hamiltonian(SpinSystem(), 10**5000),
        f"frame must be one of ('lab', 'rotating'), got <{_LONG}>",
    ),
}  # fmt: skip


@pytest.mark.parametrize("call, message", _LONG_INT_REFUSALS.values(), ids=_LONG_INT_REFUSALS.keys())
def test_a_refusal_quotes_an_int_too_long_to_print_by_its_type(call, message):
    # each raised the error of Python's limit on int-to-str digits, from
    # formatting the refused value, so the message named no argument
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


_RHO = np.eye(2) / 2
# every range refusal in the package, worded by linalg.check_range: its library call and its exact message
_RANGE_REFUSALS = {
    "check_dim-0": (lambda: check_dim(0), f"dimension must be in [1, {MAX_DIM}], got 0"),
    "check_dim-above": (lambda: check_dim(MAX_DIM + 1), f"dimension must be in [1, {MAX_DIM}], got {MAX_DIM + 1}"),
    "basis_state-0": (lambda: basis_state(2, 0), "basis index must be in [1, 2], got 0"),
    "basis_state-above": (lambda: basis_state(2, 3), "basis index must be in [1, 2], got 3"),
    "equal_up_to_global_phase-tol": (lambda: equal_up_to_global_phase([1], [1], -1e-12), "tol must be >= 0, got -1e-12"),
    "PulseSegment-amplitude": (lambda: PulseSegment(-1.0, 0.0, 1e-5), "amplitude must be >= 0, got -1.0"),
    "PulseSegment-duration": (lambda: PulseSegment(1.0, 0.0, 0.0), "duration must be > 0, got 0.0"),
    "pseudo_pure-epsilon-below": (lambda: pseudo_pure(_RHO, -0.5), "epsilon must be in [0, 1], got -0.5"),
    "pseudo_pure-epsilon-above": (lambda: pseudo_pure(_RHO, 2), "epsilon must be in [0, 1], got 2"),
    "inject_readout_noise-sigma": (lambda: inject_readout_noise(_RHO, -1.0, 0), "sigma must be >= 0, got -1.0"),
    # default_rng refused a negative seed with "expected non-negative integer"
    "inject_readout_noise-seed": (lambda: inject_readout_noise(_RHO, 0.01, -1), "seed must be >= 0, got -1"),
    "Permutation-empty": (lambda: Permutation(()), f"permutation size must be in [1, {MAX_DIM}], got 0"),
    "Permutation-above": (
        lambda: Permutation(range(1, MAX_DIM + 2)), f"permutation size must be in [1, {MAX_DIM}], got {MAX_DIM + 1}",
    ),
    # segments=0 read "need at least one segment", and min_fidelity=1.5 quoted no value
    "OptimizerConfig-segments-0": (lambda: OptimizerConfig(segments=0), f"segments must be in [1, {MAX_SEGMENTS}], got 0"),
    "OptimizerConfig-segments-above": (
        lambda: OptimizerConfig(segments=MAX_SEGMENTS + 1), f"segments must be in [1, {MAX_SEGMENTS}], got {MAX_SEGMENTS + 1}",
    ),
    "OptimizerConfig-restarts": (lambda: OptimizerConfig(restarts=0), f"restarts must be in [1, {MAX_RESTARTS}], got 0"),
    "OptimizerConfig-min_fidelity-0": (lambda: OptimizerConfig(min_fidelity=0), "min_fidelity must be in (0, 1], got 0"),
    "OptimizerConfig-min_fidelity-above": (
        lambda: OptimizerConfig(min_fidelity=1.5), "min_fidelity must be in (0, 1], got 1.5",
    ),
    "OptimizerConfig-seed": (lambda: OptimizerConfig(seed=-1), "seed must be >= 0, got -1"),
    "OptimizerConfig-max_iter": (lambda: OptimizerConfig(max_iter=0), f"max_iter must be in [1, {MAX_ITER}], got 0"),
    "minimize-max_eval": (lambda: minimize(_residual, [1.0], 0), "max_eval must be >= 1, got 0"),
}  # fmt: skip


@pytest.mark.parametrize("call, message", _RANGE_REFUSALS.values(), ids=_RANGE_REFUSALS.keys())
def test_a_range_refusal_names_the_argument_its_bounds_and_the_value(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# a message that states a bound itself words a range refusal outside check_range;
# "must be integers" is no bound
_BOUND_PHRASE = re.compile(r"must be (in\b|>)|\bat most\b|\bneed at least\b")


def _refusals_worded_outside_linalg(path: Path) -> list:
    """file:line of each raise that words a refusal itself: a `raise ValueError(...)` outside
    linalg.check_range whose message text states a bound, or a `raise argparse.ArgumentTypeError(...)`
    with any text of its own, where an argparse type should pass on a linalg check's message."""
    tree = ast.parse(path.read_text())
    inside = {id(n) for f in ast.walk(tree) if getattr(f, "name", None) == "check_range" for n in ast.walk(f)}
    raises = [n for n in ast.walk(tree) if isinstance(n, ast.Raise) and id(n) not in inside and isinstance(n.exc, ast.Call)]
    found = []
    for n in raises:
        texts = [str(c.value) for a in n.exc.args for c in ast.walk(a) if isinstance(c, ast.Constant)]
        func = n.exc.func
        if (getattr(func, "id", None) == "ValueError" and any(map(_BOUND_PHRASE.search, texts))) or (
            "ArgumentTypeError" in (getattr(func, "id", None), getattr(func, "attr", None)) and texts
        ):
            found.append(f"{path.name}:{n.lineno}")
    return found


def test_every_range_refusal_is_raised_by_check_range():
    # the range refusals were worded five ways across linalg, nmr,
    # permutations, smp and cli ("need at least one segment", "must be in
    # 1..100", "must be at most 1000"), and the CLI's _ranged type worded
    # --dmax, --epsilon and --noise-sigma a sixth ("in [0, 1.0]", "in [0,
    # inf]"); check_range now words them all, and an argparse type passes its text on
    assert [line for path in sorted(_PACKAGE_DIR.glob("*.py")) for line in _refusals_worded_outside_linalg(path)] == []


# each string choice, the strs it refuses, and the start of its refusal
_STRING_CHOICES = {
    "FourierKind": (FourierKind, ["spin"], "Fourier variant must be one of ('general', 'qutrit'), got "),
    "stage_unitary-oracle": (
        lambda x: stage_unitary(x, "full"), ["mystery"], "oracle must be one of ['negative', 'positive'], got ",
    ),
    "stage_unitary-stage": (
        lambda x: stage_unitary("positive", x),
        ["sideways"],
        "stage must be one of ('after_qft', 'after_oracle', 'full'), got ",
    ),
    "static_hamiltonian-frame": (
        lambda x: static_hamiltonian(SpinSystem(), x), ["Lab", "interaction"], "frame must be one of ('lab', 'rotating'), got ",
    ),
    "transition_frequencies-frame": (
        lambda x: transition_frequencies(SpinSystem(), x),
        ["Lab", "interaction"],
        "frame must be one of ('lab', 'rotating'), got ",
    ),
    "Chirality": (Chirality, ["x"], "chirality must be one of ('positive-cyclic', 'negative-cyclic', 'not-cyclic'), got "),
}  # fmt: skip


_NOT_STRS = {"zeros(3)": np.zeros(3), "zeros(2,2)": np.zeros((2, 2)), "[]": [], "None": None}
_CHOICE_REFUSALS = [
    pytest.param(call, value, prefix, id=f"{choice}-{label}")
    for choice, (call, wrong, prefix) in _STRING_CHOICES.items()
    for label, value in [*((w, w) for w in wrong), *_NOT_STRS.items()]
]


@pytest.mark.parametrize("call, value, prefix", _CHOICE_REFUSALS)
def test_a_string_choice_refuses_what_is_not_one_of_its_strs_by_its_own_message(call, value, prefix):
    # `in` compared an array with each choice, and numpy raised "The truth
    # value of an array with more than one element is ambiguous"; a list
    # raised TypeError from a hash lookup, and Enum gave its own message
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == prefix + repr(value)


# each integer argument: its call, its name in the refusal, and a value it takes
_INT_SLOTS = {
    "check_int": (lambda v: check_int(v, "label"), "label", 2),
    "check_dim": (check_dim, "dimension", 3),
    "basis_state-dimension": (lambda v: basis_state(v, 1), "dimension", 3),
    "rotation-dimension": (lambda v: rotation(v, 1), "dimension", 4),
    "reflection-dimension": (lambda v: reflection(v, 1), "dimension", 4),
    **{f"{f.__name__}-dimension": (f, "dimension", 4) for f in (enumerate_cyclic, phase_table, one_query_insufficient, qft)},
    "rotation-offset": (lambda v: rotation(5, v), "offset", 2),
    "reflection-offset": (lambda v: reflection(5, v), "offset", 2),
    "basis_state-index": (lambda v: basis_state(4, v), "basis index", 2),
    "inject_readout_noise-seed": (lambda v: inject_readout_noise(np.eye(2) / 2, 0.01, v), "seed", 2),
    **{f"OptimizerConfig-{name}": (lambda v, name=name: OptimizerConfig(**{name: v}), name, 2)
       for name in ("segments", "restarts", "seed", "max_iter")},
    "minimize-max_eval": (lambda v: minimize(_residual, np.ones(2), v), "max_eval", 2),
}  # fmt: skip

# what no integer slot takes: booleans are not 1 and 0, 2.0 is not 2, and no
# array but a 0-d integer one is an integer. A dimension took the integral
# floats, Fraction and Decimal, a boolean array as 1, a numpy complex as its
# real part with a ComplexWarning, and a bool in an object array as 1; an
# offset took True as 1, and a count failed only inside the search
_NOT_INTS = [
    True, False, np.True_, 1.0, 2.0, 3.0, 65.0, 1.5, 2.5, 3.5, float("nan"), float("inf"), "1", "2", "3", None,
    np.float32(3), np.array(3.0), Fraction(3), Decimal(3), np.complex128(3), np.complex64(4),
    np.array(True), np.array(False), np.array(True, dtype=object), np.array(3, dtype=object),
    np.zeros(3), np.zeros((2, 2)), np.array([1]),
]  # fmt: skip
_INT_REFUSALS = [
    pytest.param(call, name, value, id=f"{slot}-{value!r}")
    for slot, (call, name, _) in _INT_SLOTS.items()
    for value in _NOT_INTS
    if not (slot == "inject_readout_noise-seed" and value is None)  # None draws unseeded noise
]


@pytest.mark.parametrize("call, name, value", _INT_REFUSALS)
def test_an_int_slot_refuses_what_is_not_an_integer_by_its_own_message(call, name, value):
    # numpy's TypeErrors ("only integer scalar arrays can be converted to a
    # scalar index"), range()'s and the search's used to name no argument
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("call, name, valid", _INT_SLOTS.values(), ids=_INT_SLOTS.keys())
def test_an_int_slot_takes_numpy_integers_and_0d_integer_arrays_as_ints(call, name, valid):
    # numpy integers were refused as "seed must be an integer"; the reprs
    # differ where a numpy integer is kept as it came
    want = call(valid)
    for value in (np.int64(valid), np.int32(valid), np.uint16(valid), np.array(valid)):
        got = call(value)
        if isinstance(want, np.ndarray):
            assert array_bits(got) == array_bits(want)
        else:
            assert repr(got) == repr(want), value


def _raise_lines(path: Path) -> frozenset:
    """The source lines of every raise statement in one module."""
    tree = ast.parse(path.read_text())
    return frozenset(
        line for node in ast.walk(tree) if isinstance(node, ast.Raise) for line in range(node.lineno, node.end_lineno + 1)
    )


_PACKAGE_DIR = Path(quditcycle.__file__).parent
_RAISES = {path: _raise_lines(path) for path in _PACKAGE_DIR.glob("*.py")}


def _raised_by_the_package(err: ValueError) -> bool:
    """Whether the innermost frame of err is a raise statement in the package's own source."""
    tb = err.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_lineno in _RAISES.get(Path(tb.tb_frame.f_code.co_filename), ())


def _residual(y):
    """f, r and the Jacobian of r(y) = y, for minimize."""
    return 0.5 * float(y @ y), y, lambda: np.eye(len(y))


_P, _SYS, _SEG = Permutation((2, 3, 1)), SpinSystem(), PulseSegment(1e4, 0.5, 2e-5)
_SMALL = OptimizerConfig(segments=2, restarts=1, max_iter=3)
# one valid call per public callable, with a value for every parameter, required or optional
_VALID_CALLS = {
    "Chirality": ("positive-cyclic",),
    "CyclicClass": (Chirality.POSITIVE, 0),
    "FourierKind": ("general", Permutation((1, 3, 2))),
    "NotCyclicError": (_P,),
    "Permutation": ((2, 3, 1),),
    "PulseSegment": (1e4, 0.5, 2e-5),
    "RunReport": (_P, 1, Chirality.POSITIVE, 2, 1j, np.zeros(3)),
    "SpinSystem": (1.5, 6.6e8, 6.3e4),
    "apply_oracle": (_P, np.arange(3.0)),
    "basis_state": (3, 1),
    "classify_cyclic": (_P,),
    "enumerate_cyclic": (3,),
    "equal_up_to_global_phase": (np.ones(2), np.ones(2), 1e-10),
    "fidelity": (np.eye(2) / 2, np.array([1.0, 0.0])),
    "initial_index": (FourierKind(),),
    "inject_readout_noise": (np.eye(2) / 2, 0.01, 7),
    "one_query_insufficient": (3,),
    "oracle_unitary": (_P,),
    "outer": (np.array([1.0, 0.0]),),
    "parity": (_P,),
    "phase_table": (3,),
    "protocol.ProtocolResult": (np.eye(4) / 4, 1.0, None),
    "protocol.run_protocol": (_SYS, "positive", "full", None),
    "protocol.stage_unitary": ("positive", "full"),
    "protocol.theory_state": ("negative", "after_oracle"),
    "pseudo_pure": (np.eye(4) / 4, 0.5),
    "pulse_propagator": (_SYS, _SEG),
    "qft": (3, FourierKind()),
    "reflection": (3, 1),
    "relabel": (_P, Permutation((1, 3, 2))),
    "rotation": (3, 1),
    "run_classical": (_P,),
    "run_quantum": (_P, FourierKind()),
    "sequence_propagator": (_SYS, [_SEG]),
    "smp.MinimizeResult": (np.zeros(1), 0.0, 1, 1, "message"),
    "smp.OptimizerConfig": (6, 32, 0, 0.995, 120),
    "smp.RestartRecord": (0.9, 1, 1, "message", 0.1),
    "smp.SmpResult": ([_SEG], 0.9, True, []),
    "smp.gate_fidelity": (np.eye(4), np.eye(4)),
    "smp.minimize": (_residual, [1.0], 5),
    "smp.segments_from_json": ([{"amp_hz": 1e3, "phase_rad": 0.5, "dur_s": 2e-5}],),
    "smp.segments_to_json": ([_SEG],),
    "smp.smp_optimize": (_SYS, np.eye(4), _SMALL),
    "spin_operators": (1.5,),
    "static_hamiltonian": (_SYS, "rotating"),
    "transition_frequencies": (_SYS, "lab"),
}  # fmt: skip
_SLOT_JUNK = [None, "x", 1.5, True, (1, 2), 10**400, [], np.zeros(3), np.zeros((2, 2)), float("nan"), float("inf"), 1j, {},
              object(), np.int64(2), -1, 0, Fraction(10**5000 + 1, 10**5000), -Fraction(10**5000 + 1, 10**5000),
              Fraction(10**5000 + 1, 3 * 10**5000), np.complex128(3), 1e308, -1e308, np.float64(1e308)]  # fmt: skip


def _parameter_count(f) -> int:
    """How many parameters a call of f can take by position; an Enum's lookup and an exception take one."""
    if isinstance(f, type) and issubclass(f, (Enum, BaseException)):
        return 1
    params = inspect.signature(f).parameters.values()
    return sum(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params)


def test_valid_calls_cover_every_public_callable():
    # the sweep below swaps junk into these calls, so each must pass a value
    # for every parameter and succeed as written
    assert sorted(_VALID_CALLS) == sorted(PUBLIC)
    for name, valid in _VALID_CALLS.items():
        f = PUBLIC[name]
        assert len(valid) == _parameter_count(f), name
        f(*valid)


@pytest.mark.parametrize("junk", _SLOT_JUNK, ids=[f"{i}-{type(junk).__name__}" for i, junk in enumerate(_SLOT_JUNK)])
@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_argument_slot_returns_or_raises_the_packages_own_value_error(name, junk):
    # one argument at a time takes the junk value, the others keep their
    # valid value; then every required positional argument takes it at once
    # (slot "all").  A refusal must come from a raise statement in the
    # package, not from numpy or Python inside it.  On all-junk calls
    # minimize, segments_to_json and segments_from_json used to raise
    # TypeError or AttributeError, PulseSegment and spin_operators an
    # OverflowError on 10**400, spin_operators and SpinSystem one on
    # 1e308, and stage_unitary and theory_state a TypeError on [], which
    # they hashed
    f, valid = PUBLIC[name], _VALID_CALLS[name]
    calls = [(slot, valid[:slot] + (junk,) + valid[slot + 1 :]) for slot in range(len(valid))]
    calls.append(("all", (junk,) * _required_positional(f)))
    failures = []
    for slot, args in calls:
        try:
            f(*args)
        except ValueError as err:
            if not _raised_by_the_package(err):
                failures.append((slot, f"ValueError: {err}"))
        except Exception as err:
            failures.append((slot, f"{type(err).__name__}: {err}"))
    assert not failures, f"{name} on {shown(junk)}:\n" + "\n".join(map(str, failures))
