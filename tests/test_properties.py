"""Property tests over the whole accepted size range, 3 <= d <= MAX_DIM.

Hypothesis draws sizes and permutations; the settings are derandomized and
keep no example database, so every run checks the same examples.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcycle.algorithm import phase_table, run_quantum
from quditcycle.cli import main
from quditcycle.linalg import MAX_DIM
from quditcycle.permutations import Permutation, classify_cyclic, reflection, rotation

PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None)
dims = st.integers(3, MAX_DIM)


def perms(d):
    return st.permutations(range(1, d + 1)).map(lambda img: Permutation(tuple(img)))


@st.composite
def cyclic(draw):
    d = draw(dims)
    make = draw(st.sampled_from((rotation, reflection)))
    return make(d, draw(st.integers(0, d - 1)))


@PROPERTY
@given(dims.flatmap(lambda d: st.tuples(perms(d), perms(d), perms(d))))
def test_group_laws(pqr):
    p, q, r = pqr
    assert p.compose(q).compose(r) == p.compose(q.compose(r))
    assert p.compose(p.inverse()) == rotation(p.dim, 0) == p.inverse().compose(p)


@PROPERTY
@given(cyclic())
def test_report_phase_survives_a_json_round_trip(p):
    truth = classify_cyclic(p)
    report = run_quantum(p)
    assert abs(report.phase - phase_table(p.dim)[(truth.chirality, truth.shift)]) <= 1e-10
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", "--perm", ",".join(map(str, p.image)), "--json"]) == 0
    blob = json.loads(out.getvalue())
    assert Permutation(tuple(blob["permutation"]["image"])) == p
    assert blob["classification"] == truth.chirality.value
    assert complex(blob["phase"]["re"], blob["phase"]["im"]) == report.phase
    state = blob["final_state"]
    assert np.array_equal(np.array(state["re"]) + 1j * np.array(state["im"]), report.final_state)
