"""The one-query classifier: Fourier matrices, runs, phases, query counts."""

import copy
import dataclasses
import functools
import itertools
import json
import pickle
from collections import Counter

import numpy as np
import pytest

from quditcycle import algorithm
from quditcycle.algorithm import (
    FourierKind,
    RunReport,
    NotCyclicError,
    initial_index,
    one_query_insufficient,
    phase_table,
    qft,
    run_classical,
    run_quantum,
)
from quditcycle.linalg import MAX_DIM, basis_state, check_type
from quditcycle.permutations import (
    Chirality,
    Permutation,
    _window,
    apply_oracle,
    check_cyclic_dim,
    classify_cyclic,
    enumerate_cyclic,
    oracle_unitary,
    reflection,
    relabel,
    rotation,
)

from conftest import array_bits, outcome, random_permutation_image

W3 = np.exp(2j * np.pi / 3)

# The hand-frozen three-level transform over spin labels m = +1, 0, -1:
QFT3_SPIN = np.array(
    [
        [W3, 1, W3.conjugate()],
        [1, 1, 1],
        [W3.conjugate(), 1, W3],
    ]
) / np.sqrt(3)

# Index form (m = +1,0,-1 mapped to labels 1,2,3) of the six three-element
# permutations, in their conventional even-then-odd order.
QUTRIT_FAMILY = [(1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1), (2, 1, 3), (1, 3, 2)]

# The four four-element reflections, in decreasing-offset order, with the
# final-state phases the one-query circuit produces.
D4_REFLECTION_PHASES = [
    ((4, 3, 2, 1), -1j),
    ((3, 2, 1, 4), -1),
    ((2, 1, 4, 3), 1j),
    ((1, 4, 3, 2), 1),
]


def test_qutrit_spin_matrix_frozen():
    f = qft(3, FourierKind.qutrit_spin())
    assert np.max(np.abs(f - QFT3_SPIN)) < 1e-12
    # middle level m = 0 row is uniform
    assert np.max(np.abs(f[1] - 1 / np.sqrt(3))) < 1e-12


@pytest.mark.parametrize(
    "dim,kind", [(d, FourierKind()) for d in range(2, MAX_DIM + 1)] + [(3, FourierKind.qutrit_spin())], ids=repr
)
def test_qft_equals_its_transpose_byte_for_byte(dim, kind):
    # run_quantum reads F|start> as the contiguous row F[start - 1]; that is
    # the start column only while F is symmetric bit for bit
    f = qft(dim, kind)
    assert f.tobytes() == f.T.tobytes()


def test_qft_unitarity():
    for d in range(2, 13):
        f = qft(d)
        assert np.max(np.abs(f @ f.conj().T - np.eye(d))) < 1e-10
    f = qft(3, FourierKind.qutrit_spin())
    assert np.max(np.abs(f @ f.conj().T - np.eye(3))) < 1e-12


def test_qft_validation():
    with pytest.raises(ValueError):
        qft(1)
    with pytest.raises(ValueError, match="only defined for dim 3"):
        qft(4, FourierKind.qutrit_spin())
    with pytest.raises(ValueError, match="size mismatch"):
        qft(4, FourierKind.standard(Permutation((1, 3, 2))))
    # a refused call leaves no trace in the per-dimension cache
    for d, kind in ((3, FourierKind.qutrit_spin()), (4, FourierKind())):
        assert qft(d, kind).tobytes() == _dense_qft(d, kind).tobytes()


def test_qutrit_phase_chain_relations():
    # After the oracle the three even (odd) cases give the same state up to
    # the cube roots of unity: psi_1 = e^{-i2pi/3} psi_2 = e^{+i2pi/3} psi_3,
    # and likewise for psi_4..psi_6; psi_4 is the third Fourier column exactly.
    f = qft(3, FourierKind.qutrit_spin())
    psi1 = f @ basis_state(3, 1)
    states = [oracle_unitary(Permutation(img)) @ psi1 for img in QUTRIT_FAMILY]
    assert np.max(np.abs(states[0] - np.exp(-2j * np.pi / 3) * states[1])) < 1e-12
    assert np.max(np.abs(states[0] - np.exp(+2j * np.pi / 3) * states[2])) < 1e-12
    assert np.max(np.abs(states[3] - np.exp(-2j * np.pi / 3) * states[4])) < 1e-12
    assert np.max(np.abs(states[3] - np.exp(+2j * np.pi / 3) * states[5])) < 1e-12
    assert np.max(np.abs(states[3] - f @ basis_state(3, 3))) < 1e-12


def _promise_class(p, kind):
    """classify_cyclic of p read in the kind's labeling."""
    sigma = kind.relabeling
    return classify_cyclic(p if sigma is None else relabel(p, sigma.inverse())).chirality


def _quantum_class(p, kind):
    try:
        return run_quantum(p, kind).classification
    except NotCyclicError as exc:
        assert str(exc) == f"permutation {p.image} is not cyclic in the requested labeling"
        return Chirality.NOT_CYCLIC


def _outcome_mismatches(perms, kind):
    """Inputs where the circuit's own answer differs from classify_cyclic; and the refusal count."""
    bad, refused = [], 0
    for p in perms:
        want = _promise_class(p, kind)
        refused += want is Chirality.NOT_CYCLIC
        if _quantum_class(p, kind) is not want:
            bad.append(p.image)
    return bad, refused


@functools.cache
def _every_permutation(d):
    return tuple(Permutation(img) for img in itertools.permutations(range(1, d + 1)))


@pytest.mark.parametrize("d", range(3, 8))
def test_run_quantum_outcome_refuses_exactly_the_non_cyclic(d):
    # run_quantum reads p only through U_p: every permutation, plain and
    # under one seeded relabeling, is refused exactly when it is not cyclic
    perms = _every_permutation(d)
    order = list(range(1, d + 1))
    np.random.default_rng(d).shuffle(order)
    for kind in (FourierKind(), FourierKind.standard(Permutation(tuple(order)))):
        bad, refused = _outcome_mismatches(perms, kind)
        assert not bad
        assert refused == len(perms) - 2 * d


def test_run_quantum_outcome_on_every_qutrit_case():
    perms = [Permutation(img) for img in itertools.permutations((1, 2, 3))]
    for sigma in [None, *perms]:
        bad, refused = _outcome_mismatches(perms, FourierKind.qutrit_spin(sigma))
        assert not bad and refused == 0


@pytest.mark.parametrize("d", [5, 7, 8, 9, 64])
def test_run_quantum_refuses_affine_maps_with_other_unit_multipliers(d):
    # x -> a (x - 1) + b with a unit a other than +-1 lands on a single level
    # other than |2> and |d>, e.g. 1,3,5,2,4 on |4>
    units = [a for a in range(2, d - 1) if np.gcd(a, d) == 1]
    perms = [Permutation(tuple((a * x + b) % d + 1 for x in range(d))) for a in units for b in range(d)]
    bad, refused = _outcome_mismatches(perms, FourierKind())
    assert not bad and refused == len(perms) > 0


def _assert_table_is_run_quantum(perms):
    """verify's one-table run of perms, all of one size d, read at level 2 and at level d:
    landed exactly where run_quantum measures that level, and then run_quantum's phase bit for bit."""
    d = perms[0].dim
    for level in (2, d):
        landed, phases = algorithm._run_quantum_table([perms], [level] * len(perms))
        assert len(landed) == len(phases) == len(perms)
        for p, hit, phase in zip(perms, landed.tolist(), phases):
            rep = outcome(lambda: run_quantum(p))
            lands = isinstance(rep, RunReport) and rep.measured_index == level
            assert hit is lands
            assert not lands or phase.tobytes() == np.complex128(rep.phase).tobytes()


@pytest.mark.parametrize("d", range(3, 8))
def test_the_table_refuses_exactly_what_run_quantum_refuses(d):
    # every permutation of size d, the list the outcome test builds, among them
    # the inputs refused by their top probability and the affine maps of
    # test_run_quantum_refuses_affine_maps_with_other_unit_multipliers, which
    # land on a level other than 2 and d
    _assert_table_is_run_quantum(list(_every_permutation(d)))


def test_run_quantum_refuses_near_cyclic_inputs_at_max_dim():
    # a rotation or reflection with two entries swapped keeps the largest
    # probability within about 3e-4 of one, far outside the 1e-9 threshold
    d, rng = MAX_DIM, np.random.default_rng(64)
    perms = []
    for r in range(d):
        for family in (rotation, reflection):
            pairs = [(0, 1), (d - 2, d - 1)] + [tuple(rng.choice(d, 2, replace=False)) for _ in range(6)]
            for i, j in pairs:
                img = list(family(d, r).image)
                img[i], img[j] = img[j], img[i]
                perms.append(Permutation(tuple(img)))
    bad, refused = _outcome_mismatches(perms, FourierKind())
    assert not bad and refused == len(perms)


def test_run_quantum_refusal_bound_at_every_dim():
    # Level m's amplitude is (1/d) sum_x w^e_x with w = exp(2 pi i / d) and
    # e_x = (x - 1) - (m - 1)(p(x) - 1) mod d; every e_x is equal exactly for
    # the affine maps with multiplier (m - 1)^-1.  One x cannot differ from all
    # the rest: the other d - 1 values (m - 1)(p(x) - 1) would be distinct, so
    # m - 1 would be a unit by (b), and p affine on d - 1 points, so everywhere.
    # So two x or more differ from the most common e_x, N >= 4(d - 2) ordered
    # pairs have e_x != e_y, and |sum_x w^e_x|^2 = sum_xy cos(2 pi (e_x - e_y) / d)
    # <= d^2 - N (1 - cos(2 pi / d)), which is the bound (a) checks.
    # The margin is a few ulps per term of a length-d inner product
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3).
    eps = np.finfo(float).eps
    bounds = {}
    for d in range(3, MAX_DIM + 1):
        # (a) the bound in both forms, plus the margin, below run_quantum's threshold
        c = np.cos(2 * np.pi / d)
        bound = bounds[d] = abs(d - 2 + 2 * np.exp(2j * np.pi / d)) ** 2 / d**2
        assert abs(bound - (1 - 4 * (d - 2) * (1 - c) / d**2)) < 1e-15
        assert bound + 8 * d * eps < 1 - 1e-9
        # (b) a non-unit multiplier maps 0..d-1 onto at most d / 2 residues
        for a in range(d):
            if np.gcd(a, d) > 1:
                assert 2 * len({a * x % d for x in range(d)}) <= d, (d, a)
        # (c) the adjacent swap reaches |2> with ((d - 2 + 2 cos(2 pi / d)) / d)^2 on the dense circuit
        swap = Permutation((2, 1, *range(3, d + 1)))
        f = _dense_qft(d, FourierKind())
        level2 = abs((f.conj().T @ (_dense_permutation_matrix(swap) @ f[:, 1]))[1]) ** 2
        assert abs(level2 - ((d - 2 + 2 * c) / d) ** 2) < 1e-13
        assert level2 < bound
        if d > 3:  # at d = 3 the swap is reflection(3, 2)
            with pytest.raises(NotCyclicError):
                run_quantum(swap)
    assert max(bounds, key=bounds.get) == MAX_DIM and round(bounds[MAX_DIM], 6) == 0.999708
    assert round(level2, 5) == 0.99970
    # (d) at d = 4 the bound is 1/2, and the 16 non-cyclic inputs reach it
    f = _dense_qft(4, FourierKind())
    cyclic = {p.image for p in enumerate_cyclic(4)}
    others = [Permutation(img) for img in itertools.permutations(range(1, 5)) if img not in cyclic]
    top = max(np.max(np.abs(f.conj().T @ (_dense_permutation_matrix(p) @ f[:, 1])) ** 2) for p in others)
    assert len(others) == 16 and abs(top - 0.5) < 1e-15 and abs(bounds[4] - 0.5) < 1e-15


def test_run_quantum_refusal_text_at_every_dim():
    # the text is built when str() reads it; _quantum_class compares it with
    # the message the refusal carried before, for plain and relabeled inputs
    rng = np.random.default_rng(38)
    for d in range(4, MAX_DIM + 1):
        swap = Permutation((2, 1, *range(3, d + 1)))
        sigma = Permutation(random_permutation_image(rng, d))
        for p, kind in ((swap, FourierKind()), (relabel(swap, sigma), FourierKind.standard(sigma))):
            bad, refused = _outcome_mismatches([p], kind)
            assert not bad and refused == 1


def _refusal(p, kind=None):
    with pytest.raises(NotCyclicError) as err:
        run_quantum(p, kind)
    return err.value


def test_not_cyclic_error_holds_the_refused_permutation_and_no_text():
    sigma = Permutation((3, 1, 4, 2, 5))
    for p, kind in ((Permutation((2, 1, 3, 4)), None), (Permutation((1, 3, 2, 4, 5)), FourierKind.standard(sigma))):
        exc = _refusal(p, kind)
        assert exc.permutation is p and exc.args == (p,)
        assert str(exc) == f"permutation {p.image} is not cyclic in the requested labeling"
        with pytest.raises(ValueError, match="expected a Permutation") as err:
            NotCyclicError(str(exc))  # the old call, with the text, is refused
        assert not isinstance(err.value, NotCyclicError)


def test_not_cyclic_error_survives_pickle_and_copy():
    p = Permutation((1, 3, 5, 2, 4))
    exc = _refusal(p)
    clones = [pickle.loads(pickle.dumps(exc, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in [*clones, copy.copy(exc), copy.deepcopy(exc)]:
        assert type(clone) is NotCyclicError and clone.args == (p,) and clone.permutation == p
        assert str(clone) == str(exc)


def test_run_report_is_slotted_and_keeps_every_field():
    sigma = Permutation((3, 1, 4, 2, 5))
    reports = [run_quantum(rotation(5, 2)), run_quantum(reflection(5, 3), FourierKind.standard(sigma)), run_classical(rotation(5, 2))]
    for rep in reports:
        assert not hasattr(rep, "__dict__")
        with pytest.raises(AttributeError):
            rep.extra = 1
        for clone in (dataclasses.replace(rep), pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
            assert type(clone) is RunReport and _report_bits(clone) == _report_bits(rep)


def test_run_quantum_reads_p_once_through_one_scatter(monkeypatch):
    # the one query is one scatter of p, called straight after run_quantum's own
    # checks, and a relabeling adds one scatter of sigma; p is never read
    # classically, and run_quantum never goes through apply_oracle's checks,
    # builds a dense oracle, copies F through qft or inverts sigma as a Permutation
    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"run_quantum called {name}")

        return refused

    def counting_scatter(image, a):
        scattered.append(image)
        return scatter(image, a)

    def counting_inverse(self):
        inversions.append(self)
        return inverse(self)

    sigma = Permutation((3, 1, 4, 2, 5))
    cyclic = [
        (rotation(7, 3), None, []),
        (reflection(6, 2), None, []),
        (reflection(64, 5), None, []),
        (rotation(64, 17), None, []),
        (relabel(reflection(5, 2), sigma), FourierKind.standard(sigma), [sigma.image]),
        (Permutation((3, 2, 1)), FourierKind.qutrit_spin(), []),
        (Permutation((1, 3, 2)), FourierKind.qutrit_spin(Permutation((2, 3, 1))), [(2, 3, 1)]),
    ]
    refused = [
        (Permutation((1, 3, 5, 2, 4)), None, []),
        (Permutation((1, 3, 2, 4, 5)), FourierKind.standard(sigma), [sigma.image]),
        (relabel(Permutation((1, 3, 5, 2, 4)), sigma), FourierKind.standard(sigma), [sigma.image]),
        (Permutation((2, 1, *range(3, MAX_DIM + 1))), None, []),
    ]
    want = [_report_bits(run_quantum(p, kind)) for p, kind, _ in cyclic]
    scatter, inverse, scattered, inversions = algorithm._scatter, Permutation.inverse, [], []
    monkeypatch.setattr(algorithm, "_scatter", counting_scatter)
    monkeypatch.setattr(Permutation, "inverse", counting_inverse)
    for target in ("classify_cyclic", "relabel", "oracle_unitary"):
        monkeypatch.setattr(f"quditcycle.permutations.{target}", refuse(target))
        monkeypatch.setattr(algorithm, target, refuse(target), raising=False)
    for target in ("qft", "apply_oracle"):
        monkeypatch.setattr(algorithm, target, refuse(target))
    for (p, kind, images), before in zip(cyclic, want):
        scattered.clear()
        got = run_quantum(p, kind)
        assert got.oracle_queries == 1 and _report_bits(got) == before
        assert scattered == [*images, p.image]
    for p, kind, images in refused:
        scattered.clear()
        with pytest.raises(NotCyclicError, match="is not cyclic in the requested labeling"):
            run_quantum(p, kind)
        assert scattered == [*images, p.image]
    assert inversions == []


def _dense_permutation_matrix(p):
    """U[p(x)-1, x-1] = 1, written out entry by entry."""
    u = np.zeros((p.dim, p.dim), dtype=complex)
    for x in range(p.dim):
        u[p.image[x] - 1, x] = 1.0
    return u


@functools.cache
def _dense_qft(d, kind):
    """The Fourier matrix built from its formula, relabeled by a dense product; read-only, one per (d, kind)."""
    labels = np.array([1, 0, -1]) if kind.variant == "qutrit" else np.arange(d)
    f = np.exp(2j * np.pi * np.outer(labels, labels) / d) / np.sqrt(d)
    if kind.relabeling is not None:
        f = _dense_permutation_matrix(kind.relabeling) @ f
    f.flags.writeable = False
    return f


def test_oracle_unitary_is_the_entry_by_entry_matrix():
    # the identity and four drawn permutations at every size
    rng = np.random.default_rng(17)
    for d in range(1, MAX_DIM + 1):
        for p in [rotation(d, 0)] + [Permutation(random_permutation_image(rng, d)) for _ in range(4)]:
            assert oracle_unitary(p).tobytes() == _dense_permutation_matrix(p).tobytes()


def test_apply_oracle_is_the_matrix_product():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 8, 33, MAX_DIM):
        p = Permutation(random_permutation_image(rng, d))
        for shape in ((d,), (d, 1), (d, d), (d, 3)):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            kept = a.copy()
            got = apply_oracle(p, a)
            assert got.shape == a.shape and got.dtype == a.dtype
            assert np.array_equal(got, oracle_unitary(p) @ a)
            assert np.array_equal(a, kept)  # the input is not written
    p = rotation(4, 1)
    assert np.array_equal(apply_oracle(p, [1, 2, 3, 4]), oracle_unitary(p) @ [1, 2, 3, 4])  # array-likes too
    for bad in (np.ones(3, dtype=complex), np.ones((5, 4), dtype=complex), np.array(1.0 + 0j), [1, 2, 3], "abcd", None):
        with pytest.raises(ValueError, match="size mismatch"):
            apply_oracle(p, bad)


@pytest.mark.parametrize("run", [run_quantum, run_classical])
@pytest.mark.parametrize("p", [(2, 3, 1), [2, 3, 1], None])
def test_runs_refuse_what_is_not_a_permutation(run, p):
    with pytest.raises(ValueError, match=f"expected a Permutation, got {type(p).__name__}"):
        run(p)


def test_fourier_kind_names_its_convention():
    assert FourierKind() == FourierKind.standard() == FourierKind("general")
    assert FourierKind.qutrit_spin() == FourierKind("qutrit")
    assert (initial_index(FourierKind("general")), initial_index(FourierKind("qutrit"))) == (2, 1)


KIND_CALLS = {
    "qft": lambda kind: qft(3, kind),
    "initial_index": initial_index,
    "run_quantum": lambda kind: run_quantum(rotation(3, 1), kind),
}


@pytest.mark.parametrize("call", KIND_CALLS.values(), ids=KIND_CALLS.keys())
@pytest.mark.parametrize("kind", ["general", "qutrit", "x", ("general", None), 0, ""], ids=repr)
def test_kind_that_is_not_a_fourier_kind_is_refused(call, kind):
    # a string used to fail with AttributeError on kind.variant, and a falsy
    # value such as "" or 0 was taken as the default kind
    with pytest.raises(ValueError, match="expected a FourierKind, got "):
        call(kind)


@pytest.mark.parametrize("relabeling", [(1, 3, 2), [1, 3, 2], "132"])
def test_fourier_kind_rejects_relabeling_that_is_not_a_permutation(relabeling):
    # refused at construction, not later inside run_quantum
    with pytest.raises(ValueError, match="expected a Permutation, got (tuple|list|str)$"):
        FourierKind("general", relabeling)


def test_phase_table_frozen_values():
    t4 = phase_table(4)
    assert abs(t4[(Chirality.POSITIVE, 0)] - 1) < 1e-12
    assert abs(t4[(Chirality.POSITIVE, 1)] - (-1j)) < 1e-12
    assert abs(t4[(Chirality.POSITIVE, 2)] - (-1)) < 1e-12
    assert abs(t4[(Chirality.POSITIVE, 3)] - 1j) < 1e-12
    # reflections, keyed by offset: the (4,3,2,1)-first tabulation order is
    # offsets (0, 3, 2, 1) with phases (-i, -1, i, 1)
    for img, want in D4_REFLECTION_PHASES:
        r = classify_cyclic(Permutation(img)).shift
        assert abs(t4[(Chirality.NEGATIVE, r)] - want) < 1e-12
    t3 = phase_table(3)
    assert abs(t3[(Chirality.POSITIVE, 0)] - 1) < 1e-12
    assert abs(t3[(Chirality.POSITIVE, 1)] - np.exp(-2j * np.pi / 3)) < 1e-12
    assert abs(t3[(Chirality.POSITIVE, 2)] - np.exp(+2j * np.pi / 3)) < 1e-12
    with pytest.raises(ValueError):
        phase_table(2)


def test_phase_table_entries_have_the_bytes_of_np_exp():
    for d in range(3, MAX_DIM + 1):
        table = phase_table(d)
        for r in range(d):
            for key, want in (
                ((Chirality.POSITIVE, r), complex(np.exp(-2j * np.pi * r / d))),
                ((Chirality.NEGATIVE, r), complex(np.exp(2j * np.pi * (r - 1) / d))),
            ):
                assert type(table[key]) is complex
                assert np.array([table[key]]).tobytes() == np.array([want]).tobytes()


def test_run_classical_examples():
    rep = run_classical(Permutation((2, 3, 4, 1)))
    assert rep.classification is Chirality.POSITIVE
    assert rep.oracle_queries == 2
    assert rep.measured_index is None and rep.phase is None and rep.final_state is None

    rep = run_classical(rotation(5, 0))
    assert rep.classification is Chirality.POSITIVE

    rep = run_classical(Permutation((3, 2, 1, 4)))
    assert rep.classification is Chirality.NEGATIVE

    # f(1) = 1, f(2) = 3 is consistent with no cyclic permutation
    rep = run_classical(Permutation((1, 3, 2, 4)))
    assert rep.classification is Chirality.NOT_CYCLIC

    with pytest.raises(ValueError):
        run_classical(Permutation((2, 1)))


def _one_query_insufficient_by_pairs(dim):
    """The d^2 * 2d definition: every (x, y) is consistent with exactly two cyclic permutations, one of each chirality."""
    family = enumerate_cyclic(dim)
    classes = {p: classify_cyclic(p).chirality for p in family}
    one_each = {Chirality.POSITIVE: 1, Chirality.NEGATIVE: 1}
    return all(
        Counter(classes[p] for p in family if p.image[x - 1] == y) == one_each
        for x in range(1, dim + 1)
        for y in range(1, dim + 1)
    )


def test_one_query_scan_agrees_with_pairwise_definition():
    for d in range(3, 13):
        assert one_query_insufficient(d) is _one_query_insufficient_by_pairs(d) is True


def test_one_query_scan_reads_both_families(monkeypatch):
    # a family with a label repeated in one column is not a family of
    # bijections, and the scan must say so: one that stopped reading the
    # families, a theorem at every d, would still answer True
    for d in (3, 4, 12, MAX_DIM):
        family = enumerate_cyclic(d)
        # the first, a middle and the last rotation, then reflection; entry k takes its neighbour's label
        for i, k in [(0, 0), (d // 2, d // 2), (d - 1, d - 1), (d, 0), (d + d // 2, d // 2), (2 * d - 1, d - 1)]:
            image = list(family[i].image)
            image[k] = image[k - 1 if k == d - 1 else k + 1]
            corrupt = family[:i] + [_window(tuple(image))] + family[i + 1 :]
            monkeypatch.setattr(algorithm, "enumerate_cyclic", lambda n, corrupt=corrupt: corrupt)
            assert one_query_insufficient(d) is False, (d, i, k)
        monkeypatch.undo()
        assert one_query_insufficient(d) is True


def test_one_query_insufficient_takes_integral_dims_only():
    assert one_query_insufficient(3.0) is True and one_query_insufficient(np.int64(8)) is True
    assert one_query_insufficient(9.0) is True
    for dim in (3.5, True, "3", None, float("nan"), 2, 2.0, MAX_DIM + 1, 65.0):
        with pytest.raises(ValueError):
            one_query_insufficient(dim)
    with pytest.raises(TypeError):  # the families are built, never handed in
        one_query_insufficient(3, [])


def test_relabeled_family_tabulation_matches_convention():
    # the conjugated families, written over the base order (1,3,2,4), are the
    # rotations of that sequence and of its reversal
    sigma = Permutation((1, 3, 2, 4))
    pos_seqs = [tuple(relabel(rotation(4, r), sigma).compose(sigma).image) for r in range(4)]
    assert pos_seqs == [(1, 3, 2, 4), (3, 2, 4, 1), (2, 4, 1, 3), (4, 1, 3, 2)]
    neg_seqs = {tuple(relabel(reflection(4, r), sigma).compose(sigma).image) for r in range(4)}
    assert {(4, 2, 3, 1), (2, 3, 1, 4), (3, 1, 4, 2)} <= neg_seqs


def test_qft_returns_arrays_the_caller_owns():
    sigma = Permutation((3, 1, 4, 2, 5))
    cases = [
        (5, FourierKind(), rotation(5, 2)),
        (3, FourierKind.qutrit_spin(), Permutation((2, 3, 1))),
        (5, FourierKind.standard(sigma), relabel(reflection(5, 1), sigma)),
    ]
    for d, kind, probe in cases:
        want = _dense_qft(d, kind)
        before = run_quantum(probe, kind)
        got = qft(d, kind)
        assert got.flags.writeable and not np.shares_memory(got, qft(d, kind))
        got[:] = 0
        assert qft(d, kind).tobytes() == want.tobytes()
        after = run_quantum(probe, kind)
        assert after.final_state.tobytes() == before.final_state.tobytes()
        assert (after.measured_index, after.phase) == (before.measured_index, before.phase)


def test_report_json_shape():
    rep = run_quantum(Permutation((2, 3, 4, 1)))
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["dim"] == 4
    assert blob["permutation"] == {"dim": 4, "image": [2, 3, 4, 1]}
    assert blob["oracle_queries"] == 1
    assert blob["classification"] == "positive-cyclic"
    assert blob["measured_index"] == 2
    assert abs(blob["phase"]["re"] - 0) < 1e-10 and abs(blob["phase"]["im"] + 1) < 1e-10
    assert blob["final_state"]["dim"] == 4

    cl = run_classical(Permutation((2, 3, 4, 1))).to_json()
    assert cl["measured_index"] is None and cl["phase"] is None and cl["final_state"] is None


def _run_classical_reference(p):
    d = check_cyclic_dim(check_type(p, Permutation).dim)
    image = p.image
    queries = 0

    def f(x):
        nonlocal queries
        queries += 1
        return image[x - 1]

    y1 = f(1)
    y2 = f(2)
    if y2 == (y1 % d) + 1:
        chi = Chirality.POSITIVE
    elif y2 == ((y1 - 2) % d) + 1:
        chi = Chirality.NEGATIVE
    else:
        chi = Chirality.NOT_CYCLIC
    return RunReport(permutation=p, oracle_queries=queries, classification=chi)


def _report_bits(rep):
    """Every field of a RunReport bit for bit, or the refusal's exact type and message."""
    if not isinstance(rep, RunReport):
        return rep
    phase = None if rep.phase is None else (type(rep.phase), rep.phase.real.hex(), rep.phase.imag.hex())
    state = None if rep.final_state is None else array_bits(rep.final_state)
    return rep.permutation, rep.oracle_queries, rep.classification, rep.measured_index, phase, state


def _dense_circuit_run(p, kind=None):
    """The reference for run_quantum: F^dag U_p F |start> with F built from its formula,
    P_sigma and U_p written as dense matrices, and run_quantum's checks, refusal floor and text.

    The measured level is defined here on its own terms, as the most probable level (the argmax),
    not by run_quantum's rule of reading only levels start and d; the two rules are compared bit for
    bit at every input of test_runs_bitwise_match_the_reference_at_every_cyclic_input."""
    d = check_cyclic_dim(check_type(p, Permutation).dim)
    kind = FourierKind() if kind is None else check_type(kind, FourierKind)
    if kind.variant == "qutrit" and d != 3:
        raise ValueError("the qutrit spin variant is only defined for dim 3")
    if kind.relabeling is not None and kind.relabeling.dim != d:
        raise ValueError(f"size mismatch: {kind.relabeling.dim} vs {d}")
    start = 1 if kind.variant == "qutrit" else 2
    f = _dense_qft(d, kind)
    psi = f.conj().T @ (_dense_permutation_matrix(p) @ (f @ basis_state(d, start)))
    magnitudes = np.abs(psi)
    idx = int(magnitudes.argmax()) + 1
    if magnitudes[idx - 1] ** 2 < 1.0 - 1e-9 or idx not in (start, d):
        raise NotCyclicError(p)
    amp = psi[idx - 1]
    chirality = Chirality.POSITIVE if idx == start else Chirality.NEGATIVE
    return RunReport(p, 1, chirality, idx, complex(amp / abs(amp)), psi)


@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_runs_bitwise_match_the_reference_at_every_cyclic_input(d):
    # every cyclic input of size d, plain, relabeled by two seeded sigma and run
    # under the first sigma unrelabeled; the adjacent swap, plain and relabeled; a
    # rotation and the swap under kinds that do not fit the size, so the kind is
    # checked before the promise; kinds and inputs of the wrong type; and at d = 3
    # the qutrit family under every relabeling of the spin labels.  Below d = 3
    # each input is refused.  A cyclic input's class, phase and final state are
    # also checked against phase_table and the basis state it lands on.
    rng = np.random.default_rng([20140, d])
    sigmas = [Permutation(random_permutation_image(rng, d)) for _ in range(2)]
    kinds = [FourierKind.standard(sigma) for sigma in sigmas]
    cases = []  # (p, kind, (chirality, shift) when p is cyclic in the kind's labels)
    for r in range(d):
        for chi, family in ((Chirality.POSITIVE, rotation), (Chirality.NEGATIVE, reflection)):
            p = family(d, r)
            cases += [(p, None, (chi, r))]
            cases += [(relabel(p, kind.relabeling), kind, (chi, r)) for kind in kinds] + [(p, kinds[0], None)]
    swap = Permutation((2, 1, *range(3, d + 1))) if d >= 2 else rotation(1, 0)
    cases += [(swap, None, None)] + [(relabel(swap, kind.relabeling), kind, None) for kind in kinds]
    misfits = [FourierKind.qutrit_spin(), FourierKind.standard(rotation(d % MAX_DIM + 1, 1)), "general", ("general", None)]
    cases += [(p, kind, None) for kind in misfits for p in (rotation(d, 1), swap)] + [(rotation(d, 1).image, None, None)]
    fourier_kinds = [FourierKind(), *kinds] if d >= 2 else []  # qft is defined from d = 2
    if d == 3:
        for sigma in [None, *map(Permutation, QUTRIT_FAMILY)]:
            kind = FourierKind.qutrit_spin(sigma)
            fourier_kinds.append(kind)
            cases += [(p if sigma is None else relabel(p, sigma), kind, None) for p in map(Permutation, QUTRIT_FAMILY)]
    for kind in fourier_kinds:  # the relabeled F is P_sigma F, bit for bit
        assert qft(d, kind).tobytes() == _dense_qft(d, kind).tobytes()
    table = phase_table(d) if d >= 3 else {}
    for p, kind, truth in cases:
        rep = outcome(lambda: run_quantum(p, kind))
        assert _report_bits(rep) == _report_bits(outcome(lambda: _dense_circuit_run(p, kind)))
        if truth in table:
            assert isinstance(rep, RunReport) and rep.classification is truth[0]
            assert abs(rep.phase - table[truth]) < 1e-10
            # the distance to the basis state it lands on, times the phase that minimizes it
            assert np.linalg.norm(rep.final_state - rep.phase * basis_state(d, rep.measured_index)) <= 1e-9
    if d >= 3:  # verify's one-table run of the plain inputs, the swap among them
        _assert_table_is_run_quantum([p for p, kind, _ in cases if kind is None and isinstance(p, Permutation)])
    for p in dict.fromkeys(p for p, _, _ in cases):  # the classical run takes no kind
        assert _report_bits(outcome(lambda: run_classical(p))) == _report_bits(outcome(lambda: _run_classical_reference(p)))
