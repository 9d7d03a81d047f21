"""The one-query classifier: Fourier matrices, runs, phases, query counts."""

import itertools
import json

import numpy as np
import pytest

from quditcycle.algorithm import (
    FourierKind,
    NotCyclicError,
    initial_index,
    one_query_insufficient,
    phase_table,
    qft,
    run_classical,
    run_quantum,
)
from quditcycle.linalg import MAX_DIM, basis_state, equal_up_to_global_phase
from quditcycle.permutations import (
    Chirality,
    Permutation,
    apply_oracle,
    classify_cyclic,
    enumerate_cyclic,
    oracle_unitary,
    reflection,
    relabel,
    rotation,
)

W3 = np.exp(2j * np.pi / 3)

# Hand-frozen reference matrices.  The four-level Fourier transform:
QFT4 = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, 1j, -1, -1j],
        [1, -1, 1, -1],
        [1, -1j, -1, 1j],
    ]
)

# The three-level transform over spin labels m = +1, 0, -1:
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

# The eight four-element cyclic permutations with the final-state phases the
# one-query circuit produces (positive rotations by 0..3, then the four
# reflections in decreasing-offset order).
D4_PHASES = [
    ((1, 2, 3, 4), 1),
    ((2, 3, 4, 1), -1j),
    ((3, 4, 1, 2), -1),
    ((4, 1, 2, 3), 1j),
    ((4, 3, 2, 1), -1j),
    ((3, 2, 1, 4), -1),
    ((2, 1, 4, 3), 1j),
    ((1, 4, 3, 2), 1),
]


def test_qft4_matches_frozen_matrix():
    assert np.max(np.abs(qft(4) - QFT4)) < 1e-12


def test_qft2_is_hadamard():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(qft(2) - h)) < 1e-12


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
    assert np.max(np.abs(qft(3, FourierKind.qutrit_spin()) - QFT3_SPIN)) < 1e-12
    assert np.max(np.abs(qft(4) - QFT4)) < 1e-12


def test_spin_variant_columns_match_standard_up_to_phase():
    spin = qft(3, FourierKind.qutrit_spin())
    std = qft(3)
    matched = set()
    for k in range(3):
        hits = [
            j
            for j in range(3)
            if equal_up_to_global_phase(spin[:, k], std[:, j], 1e-10)
        ]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == {0, 1, 2}  # a bijection, not three hits on one column


def test_run_quantum_d4_indices_and_phases():
    for img, want_phase in D4_PHASES:
        rep = run_quantum(Permutation(img))
        truth = classify_cyclic(Permutation(img))
        assert rep.classification is truth.chirality
        assert rep.measured_index == (2 if truth.chirality is Chirality.POSITIVE else 4)
        assert abs(rep.phase - want_phase) < 1e-10
        assert rep.oracle_queries == 1


def test_run_quantum_qutrit_variant_exhaustive():
    kind = FourierKind.qutrit_spin()
    for i, img in enumerate(QUTRIT_FAMILY):
        rep = run_quantum(Permutation(img), kind)
        assert rep.oracle_queries == 1
        if i < 3:  # even
            assert rep.measured_index == 1
            assert rep.classification is Chirality.POSITIVE
        else:  # odd
            assert rep.measured_index == 3
            assert rep.classification is Chirality.NEGATIVE
        # the middle level never fires
        assert abs(rep.final_state[1]) ** 2 <= 1e-9


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


def test_run_quantum_rejects_non_cyclic():
    with pytest.raises(NotCyclicError):
        run_quantum(Permutation((1, 3, 2, 4)))
    with pytest.raises(NotCyclicError):
        run_quantum(Permutation((2, 1, 3, 4, 5)))


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


@pytest.mark.parametrize("d", range(3, 8))
def test_run_quantum_outcome_refuses_exactly_the_non_cyclic(d):
    # run_quantum reads p only through U_p: every permutation, plain and
    # under one seeded relabeling, is refused exactly when it is not cyclic
    perms = [Permutation(img) for img in itertools.permutations(range(1, d + 1))]
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


def test_run_quantum_reads_p_only_through_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_quantum read the permutation classically")

    sigma = Permutation((3, 1, 4, 2, 5))
    cyclic = [
        (rotation(7, 3), None),
        (reflection(6, 2), None),
        (relabel(reflection(5, 2), sigma), FourierKind.standard(sigma)),
        (Permutation((3, 2, 1)), FourierKind.qutrit_spin()),
        (Permutation((1, 3, 2)), FourierKind.qutrit_spin(Permutation((2, 3, 1)))),
    ]
    want = [run_quantum(p, kind) for p, kind in cyclic]
    for target in ("algorithm.classify_cyclic", "permutations.classify_cyclic", "permutations.relabel"):
        monkeypatch.setattr(f"quditcycle.{target}", refuse)
    for (p, kind), before in zip(cyclic, want):
        got = run_quantum(p, kind)
        assert json.dumps(got.to_json()) == json.dumps(before.to_json())
        assert got.final_state.tobytes() == before.final_state.tobytes()
    for p, kind in [
        (Permutation((1, 3, 5, 2, 4)), None),
        (Permutation((1, 3, 2, 4, 5)), FourierKind.standard(sigma)),
        (relabel(Permutation((1, 3, 5, 2, 4)), sigma), FourierKind.standard(sigma)),
    ]:
        with pytest.raises(NotCyclicError, match="is not cyclic in the requested labeling"):
            run_quantum(p, kind)


def test_run_quantum_rejects_dims_below_three():
    # at d = 2 rotation and reflection coincide: both inputs used to come
    # back "negative-cyclic"; the promise is degenerate, so refuse like
    # run_classical does, and not as a non-cyclic input
    cases = [((1,), None), ((1, 2), None), ((2, 1), None)]
    cases += [((2, 1), FourierKind.standard(Permutation((2, 1)))), ((1, 2), FourierKind.qutrit_spin())]
    for image, kind in cases:
        with pytest.raises(ValueError, match="dim >= 3") as err:
            run_quantum(Permutation(image), kind)
        assert not isinstance(err.value, NotCyclicError)


@pytest.mark.parametrize(
    "image,kind,message",
    [
        ((1, 3, 2, 4), FourierKind("qutrit"), "qutrit spin variant is only defined for dim 3"),
        ((1, 3, 2, 4), FourierKind("general", Permutation((2, 3, 1))), "size mismatch: 3 vs 4"),
        ((1, 3, 2, 4, 5), FourierKind("general", Permutation((2, 1, 4, 3))), "size mismatch: 4 vs 5"),
        ((2, 1), FourierKind("qutrit"), "dim >= 3"),
        ((2, 1), FourierKind("general", Permutation((2, 3, 1))), "dim >= 3"),
    ],
)
def test_run_quantum_checks_the_kind_before_the_promise(image, kind, message):
    # a kind that does not fit the size is a bad argument (ValueError, exit 2
    # in the CLI), whatever the permutation; only then is the promise checked
    with pytest.raises(ValueError, match=message) as err:
        run_quantum(Permutation(image), kind)
    assert not isinstance(err.value, NotCyclicError)


def test_run_quantum_inverts_sigma_once_and_never_copies_f(monkeypatch):
    def no_qft(*args, **kwargs):
        raise AssertionError("run_quantum called qft")

    inversions = []
    inverse = Permutation.inverse

    def counting_inverse(self):
        inversions.append(self)
        return inverse(self)

    sigma = Permutation((3, 1, 4, 2, 5))
    kind = FourierKind.standard(sigma)
    cyclic = relabel(reflection(5, 2), sigma)
    want = run_quantum(cyclic, kind)
    monkeypatch.setattr("quditcycle.algorithm.qft", no_qft)
    monkeypatch.setattr(Permutation, "inverse", counting_inverse)
    got = run_quantum(cyclic, kind)
    assert inversions == []  # sigma^-1 is an index array, not a Permutation
    assert got.final_state.tobytes() == want.final_state.tobytes() and got.phase == want.phase
    with pytest.raises(NotCyclicError):
        run_quantum(Permutation((1, 3, 2, 4, 5)), kind)
    assert inversions == []
    run_quantum(rotation(7, 3))
    run_quantum(Permutation((3, 2, 1)), FourierKind.qutrit_spin())
    assert inversions == []


def test_run_quantum_never_builds_the_dense_oracle(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("run_quantum built the dense oracle")

    sigma = Permutation((3, 1, 4, 2, 5))
    cyclic = [
        (rotation(64, 17), None),
        (reflection(6, 2), None),
        (relabel(reflection(5, 2), sigma), FourierKind.standard(sigma)),
        (Permutation((3, 2, 1)), FourierKind.qutrit_spin()),
        (Permutation((1, 3, 2)), FourierKind.qutrit_spin(Permutation((2, 3, 1)))),
    ]
    want = [run_quantum(p, kind) for p, kind in cyclic]
    monkeypatch.setattr("quditcycle.permutations.oracle_unitary", no_matrix)
    monkeypatch.setattr("quditcycle.algorithm.oracle_unitary", no_matrix, raising=False)
    for (p, kind), before in zip(cyclic, want):
        got = run_quantum(p, kind)
        assert json.dumps(got.to_json()) == json.dumps(before.to_json())
        assert got.final_state.tobytes() == before.final_state.tobytes()
    for p, kind in [
        (Permutation((1, 3, 5, 2, 4)), None),
        (Permutation((1, 3, 2, 4, 5)), FourierKind.standard(sigma)),
        (Permutation((2, 1, *range(3, 65))), None),
    ]:
        with pytest.raises(NotCyclicError):
            run_quantum(p, kind)


def _oracle_by_entries(p):
    u = np.zeros((p.dim, p.dim), dtype=complex)
    for x in range(p.dim):
        u[p.image[x] - 1, x] = 1.0
    return u


def test_oracle_unitary_is_the_entry_by_entry_matrix():
    rng = np.random.default_rng(17)
    for d in range(1, MAX_DIM + 1):
        for _ in range(3):
            p = Permutation(tuple(int(v) + 1 for v in rng.permutation(d)))
            assert oracle_unitary(p).tobytes() == _oracle_by_entries(p).tobytes()


def test_apply_oracle_is_the_matrix_product():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 8, 33, MAX_DIM):
        p = Permutation(tuple(int(v) + 1 for v in rng.permutation(d)))
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
    with pytest.raises(ValueError):
        FourierKind("spin")


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
    with pytest.raises(ValueError, match="kind must be a FourierKind or None"):
        call(kind)


@pytest.mark.parametrize("relabeling", [(1, 3, 2), [1, 3, 2], "132"])
def test_fourier_kind_rejects_relabeling_that_is_not_a_permutation(relabeling):
    # refused at construction, not later inside run_quantum
    with pytest.raises(ValueError, match="relabeling must be a Permutation"):
        FourierKind("general", relabeling)


def test_run_quantum_deterministic_across_dims():
    for d in range(3, 13):
        table = phase_table(d)
        for p in enumerate_cyclic(d):
            truth = classify_cyclic(p)
            rep = run_quantum(p)
            assert rep.classification is truth.chirality
            want_idx = 2 if truth.chirality is Chirality.POSITIVE else d
            assert rep.measured_index == want_idx
            assert abs(rep.final_state[want_idx - 1]) ** 2 >= 1 - 1e-9
            assert equal_up_to_global_phase(rep.final_state, basis_state(d, want_idx), 1e-9)
            assert abs(rep.phase - table[(truth.chirality, truth.shift)]) < 1e-10


def test_run_quantum_d5_rotation_example():
    rep = run_quantum(rotation(5, 2))
    assert rep.measured_index == 2
    assert rep.classification is Chirality.POSITIVE


def test_phase_table_frozen_values():
    t4 = phase_table(4)
    assert abs(t4[(Chirality.POSITIVE, 0)] - 1) < 1e-12
    assert abs(t4[(Chirality.POSITIVE, 1)] - (-1j)) < 1e-12
    assert abs(t4[(Chirality.POSITIVE, 2)] - (-1)) < 1e-12
    assert abs(t4[(Chirality.POSITIVE, 3)] - 1j) < 1e-12
    # reflections, keyed by offset: the (4,3,2,1)-first tabulation order is
    # offsets (0, 3, 2, 1) with phases (-i, -1, i, 1)
    for img, want in D4_PHASES[4:]:
        r = classify_cyclic(Permutation(img)).shift
        assert abs(t4[(Chirality.NEGATIVE, r)] - want) < 1e-12
    t3 = phase_table(3)
    assert abs(t3[(Chirality.POSITIVE, 0)] - 1) < 1e-12
    assert abs(t3[(Chirality.POSITIVE, 1)] - np.exp(-2j * np.pi / 3)) < 1e-12
    assert abs(t3[(Chirality.POSITIVE, 2)] - np.exp(+2j * np.pi / 3)) < 1e-12
    with pytest.raises(ValueError):
        phase_table(2)


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


def test_classical_matches_quantum_on_promise():
    for d in range(3, 9):
        for p in enumerate_cyclic(d):
            cl = run_classical(p)
            qu = run_quantum(p)
            assert cl.classification is qu.classification
            assert cl.oracle_queries == 2 and qu.oracle_queries == 1


def test_one_query_insufficient_range():
    # the scan used to refuse d > 8; it is O(d^2) and runs at every size the promise accepts
    for d in range(3, MAX_DIM + 1):
        assert one_query_insufficient(d) is True
    for d in (2, MAX_DIM + 1):
        with pytest.raises(ValueError):
            one_query_insufficient(d)


def _one_query_insufficient_by_pairs(dim):
    """The d^2 * 2d definition: every (x, y) is consistent with both chiralities."""
    family = enumerate_cyclic(dim)
    classes = {p: classify_cyclic(p).chirality for p in family}
    for x in range(1, dim + 1):
        for y in range(1, dim + 1):
            seen = {classes[p] for p in family if p(x) == y}
            if not {Chirality.POSITIVE, Chirality.NEGATIVE} <= seen:
                return False
    return True


def test_one_query_scan_agrees_with_pairwise_definition():
    for d in range(3, 13):
        assert one_query_insufficient(d) is _one_query_insufficient_by_pairs(d) is True


def test_one_query_insufficient_takes_integral_dims_only():
    assert one_query_insufficient(3.0) is True and one_query_insufficient(np.int64(8)) is True
    assert one_query_insufficient(9.0) is True
    for dim in (3.5, True, "3", None, float("nan"), 2.0, 65.0):
        with pytest.raises(ValueError):
            one_query_insufficient(dim)


@pytest.mark.parametrize(
    "classes",
    [
        [1],
        5,
        "ab",
        [(Chirality.POSITIVE, (1, 2))],
        [(Chirality.POSITIVE, [1, 2, 3])],
        [(Chirality.POSITIVE, (1, 2, "a"))],
        [(Chirality.POSITIVE, (1, 2, 2))],
        [("positive-cyclic", (1, 2, 3))],
        [(Chirality.POSITIVE, (1, 2, 3), 0)],
    ],
    ids=repr,
)
def test_one_query_insufficient_refuses_malformed_classes(classes):
    # [1] and 5 used to raise TypeError, "ab" and the triple an unpacking
    # ValueError, and the rest returned False, as if the claim had failed
    with pytest.raises(ValueError, match=r"classes must be \(Chirality, image\) pairs over 1..3"):
        one_query_insufficient(3, classes)


def test_one_query_insufficient_reads_classes_once():
    # a one-shot iterator used to be exhausted by the first label, so the scan said False
    classes = [(classify_cyclic(p).chirality, p.image) for p in enumerate_cyclic(5)]
    assert one_query_insufficient(5, iter(classes)) is one_query_insufficient(5, classes) is True


def test_one_query_membership_detail():
    # spot-check the counting argument behind the sweep: each (x, y) pair is
    # consistent with exactly one rotation and one reflection
    for d in (3, 4, 5):
        fam = enumerate_cyclic(d)
        for x in range(1, d + 1):
            for y in range(1, d + 1):
                hits = [p for p in fam if p(x) == y]
                chis = {classify_cyclic(p).chirality for p in hits}
                assert len(hits) == 2
                assert chis == {Chirality.POSITIVE, Chirality.NEGATIVE}


def test_relabeled_run_and_initial_superposition():
    sigma = Permutation((1, 3, 2, 4))
    kind = FourierKind.standard(relabeling=sigma)
    init = qft(4, kind) @ basis_state(4, initial_index(kind))
    want = np.array([1, -1, 1j, -1j]) / 2
    assert equal_up_to_global_phase(init, want, 1e-12)

    for r in range(4):
        pos = relabel(rotation(4, r), sigma)
        rep = run_quantum(pos, kind)
        assert rep.classification is Chirality.POSITIVE and rep.measured_index == 2
        assert abs(rep.phase - phase_table(4)[(Chirality.POSITIVE, r)]) < 1e-10
        neg = relabel(reflection(4, r), sigma)
        rep = run_quantum(neg, kind)
        assert rep.classification is Chirality.NEGATIVE and rep.measured_index == 4
        assert abs(rep.phase - phase_table(4)[(Chirality.NEGATIVE, r)]) < 1e-10

    # plain rotations are generally not cyclic in the relabeled convention
    with pytest.raises(NotCyclicError):
        run_quantum(rotation(4, 1), kind)


def test_relabeled_family_tabulation_matches_convention():
    # the conjugated families, written over the base order (1,3,2,4), are the
    # rotations of that sequence and of its reversal
    sigma = Permutation((1, 3, 2, 4))
    pos_seqs = [tuple(relabel(rotation(4, r), sigma).compose(sigma).image) for r in range(4)]
    assert pos_seqs == [(1, 3, 2, 4), (3, 2, 4, 1), (2, 4, 1, 3), (4, 1, 3, 2)]
    neg_seqs = {tuple(relabel(reflection(4, r), sigma).compose(sigma).image) for r in range(4)}
    assert {(4, 2, 3, 1), (2, 3, 1, 4), (3, 1, 4, 2)} <= neg_seqs


def _dense_permutation_matrix(p):
    """U[p(x)-1, x-1] = 1, written out entry by entry."""
    u = np.zeros((p.dim, p.dim), dtype=complex)
    for x in range(p.dim):
        u[p.image[x] - 1, x] = 1.0
    return u


def _dense_qft(d, kind):
    """The Fourier matrix built from scratch, relabeled by a dense product."""
    labels = np.array([1, 0, -1]) if kind.variant == "qutrit" else np.arange(d)
    f = np.exp(2j * np.pi * np.outer(labels, labels) / d) / np.sqrt(d)
    if kind.relabeling is not None:
        f = _dense_permutation_matrix(kind.relabeling) @ f
    return f


def _assert_run_matches_dense_circuit(p, kind, f, f_dag):
    rep = run_quantum(p, kind)
    start = basis_state(p.dim, initial_index(kind))
    psi = f_dag @ (_dense_permutation_matrix(p) @ (f @ start))
    idx = int(np.argmax(np.abs(psi) ** 2)) + 1
    amp = psi[idx - 1]
    assert rep.final_state.tobytes() == psi.tobytes()
    assert rep.measured_index == idx
    assert np.array([rep.phase]).tobytes() == np.array([amp / abs(amp)]).tobytes()
    return rep


def test_run_quantum_bitwise_matches_dense_circuit_up_to_max_dim():
    # the goldens pin d <= 8; this pins every cyclic input up to MAX_DIM,
    # plus seeded relabelings, against F rebuilt per call the dense way
    rng = np.random.default_rng(20140)
    relabeled_dims = (3, 4, 5, 8, 13, 31, 64)
    for d in range(3, MAX_DIM + 1):
        table = phase_table(d)
        kinds = [FourierKind()]
        if d in relabeled_dims:
            kinds += [FourierKind.standard(Permutation(tuple(rng.permutation(d) + 1))) for _ in range(2)]
        for kind in kinds:
            f = _dense_qft(d, kind)
            f_dag = f.conj().T
            sigma = kind.relabeling
            for r in range(d):
                for chi, family in ((Chirality.POSITIVE, rotation), (Chirality.NEGATIVE, reflection)):
                    p = family(d, r) if sigma is None else relabel(family(d, r), sigma)
                    rep = _assert_run_matches_dense_circuit(p, kind, f, f_dag)
                    assert rep.classification is chi
                    assert abs(rep.phase - table[(chi, r)]) < 1e-10
    kind = FourierKind.qutrit_spin()
    f = _dense_qft(3, kind)
    for img in QUTRIT_FAMILY:
        _assert_run_matches_dense_circuit(Permutation(img), kind, f, f.conj().T)


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
    assert qft(5).tobytes() == _dense_qft(5, FourierKind()).tobytes()
    for d in (4, 17, 64):
        sigma = Permutation(tuple(np.random.default_rng(d).permutation(d) + 1))
        relabeled = qft(d, FourierKind.standard(sigma))
        assert relabeled.tobytes() == (oracle_unitary(sigma) @ qft(d)).tobytes()


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

