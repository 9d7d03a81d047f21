"""The package root's namespace, and which modules each command loads."""

import os
import subprocess
import sys
from pathlib import Path

import quditcycle

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
    # the pulse search is the package's own BFGS; scipy is a benchmark extra
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
