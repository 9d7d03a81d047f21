"""Permutation algebra, chirality classification, and oracle matrices."""

import itertools
import json

import numpy as np
import pytest

from quditcycle.permutations import (
    Chirality,
    Parity,
    Permutation,
    classify_cyclic,
    enumerate_cyclic,
    oracle_unitary,
    parity,
    reflection,
    relabel,
    rotation,
)

from conftest import random_permutation_image


def cycle_parity(p: Permutation) -> Parity:
    """Independent parity oracle: (-1)^(d - number of cycles)."""
    seen = [False] * p.dim
    cycles = 0
    for start in range(1, p.dim + 1):
        if seen[start - 1]:
            continue
        cycles += 1
        x = start
        while not seen[x - 1]:
            seen[x - 1] = True
            x = p(x)
    return Parity.EVEN if (p.dim - cycles) % 2 == 0 else Parity.ODD


def inversion_parity(p: Permutation) -> Parity:
    """Reference parity from the inversion count, O(d^2)."""
    img = p.image
    inv = sum(1 for i in range(len(img)) for j in range(i + 1, len(img)) if img[i] > img[j])
    return Parity.EVEN if inv % 2 == 0 else Parity.ODD


def brute_chirality(p: Permutation) -> Chirality:
    """Independent chirality oracle via explicit rotation tables."""
    base = list(range(1, p.dim + 1))
    forwards = {tuple(np.roll(base, -r)) for r in range(p.dim)}
    backwards = {tuple(np.roll(base[::-1], r)) for r in range(p.dim)}
    if p.image in forwards:
        return Chirality.POSITIVE
    if p.image in backwards:
        return Chirality.NEGATIVE
    return Chirality.NOT_CYCLIC


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    with pytest.raises(ValueError):
        p(4)
    # numpy integers are labels too
    assert Permutation(np.array([2, 3, 1])).image == (2, 3, 1)


@pytest.mark.parametrize(
    "image",
    [(2.7, 1.2), (2.0, 1.0), (True, 2), (np.True_, 2), (np.float64(1), 2), ("1", "2")],
    ids=repr,
)
def test_permutation_refuses_entries_that_are_not_integers(image):
    # int() would silently turn (2.7, 1.2) into (2, 1) and (True, 2) into (1, 2)
    with pytest.raises(ValueError, match="integers"):
        Permutation(image)


def test_compose_and_inverse():
    p = Permutation((2, 3, 4, 1))
    q = Permutation((1, 3, 2, 4))
    pq = p.compose(q)
    assert pq.image == tuple(p(q(x)) for x in range(1, 5))
    assert p.compose(p.inverse()).image == (1, 2, 3, 4)
    assert p.inverse().compose(p).image == (1, 2, 3, 4)


def test_parity_examples():
    assert parity(Permutation((1, 2, 3))) is Parity.EVEN
    assert parity(Permutation((3, 2, 1))) is Parity.ODD
    # three inversions: (2,1), (3,1), (4,1)
    assert parity(Permutation((2, 3, 4, 1))) is Parity.ODD


def test_parity_against_cycle_decomposition():
    rng = np.random.default_rng(101)
    for _ in range(300):
        d = int(rng.integers(2, 10))
        p = Permutation(random_permutation_image(rng, d))
        assert parity(p) is cycle_parity(p)


def test_parity_matches_inversion_count():
    for d in range(1, 8):
        for img in itertools.permutations(range(1, d + 1)):
            p = Permutation(img)
            assert parity(p) is inversion_parity(p)
    rng = np.random.default_rng(103)
    for _ in range(300):
        p = Permutation(random_permutation_image(rng, int(rng.integers(8, 65))))
        assert parity(p) is inversion_parity(p)


def test_parity_homomorphism_sweep():
    rng = np.random.default_rng(102)
    for _ in range(500):
        d = int(rng.integers(3, 9))
        p = Permutation(random_permutation_image(rng, d))
        q = Permutation(random_permutation_image(rng, d))
        even = (parity(p) is Parity.EVEN) == (parity(q) is Parity.EVEN)
        assert (parity(p.compose(q)) is Parity.EVEN) == even


def test_classify_examples():
    p = Permutation((2, 3, 4, 1))
    c = classify_cyclic(p)
    assert c.chirality is Chirality.POSITIVE and c.shift == 1 and parity(p) is Parity.ODD
    c = classify_cyclic(Permutation((4, 3, 2, 1)))
    assert c.chirality is Chirality.NEGATIVE and c.shift == 0
    c = classify_cyclic(Permutation((2, 1, 4, 3)))
    assert c.chirality is Chirality.NEGATIVE and c.shift == 2
    c = classify_cyclic(Permutation((1, 3, 2, 4)))
    assert c.chirality is Chirality.NOT_CYCLIC and c.shift is None
    c = classify_cyclic(Permutation.identity(5))
    assert c.chirality is Chirality.POSITIVE and c.shift == 0


def test_classify_against_brute_force():
    rng = np.random.default_rng(103)
    for _ in range(500):
        d = int(rng.integers(3, 9))
        p = Permutation(random_permutation_image(rng, d))
        assert classify_cyclic(p).chirality is brute_chirality(p)


def search_class(p: Permutation):
    """Reference classifier: search every rotation, then every reflection."""
    for r in range(p.dim):
        if p.image == rotation(p.dim, r).image:
            return Chirality.POSITIVE, r
    for r in range(p.dim):
        if p.image == reflection(p.dim, r).image:
            return Chirality.NEGATIVE, r
    return Chirality.NOT_CYCLIC, None


def test_classify_matches_rotation_search():
    perms = [Permutation(img) for d in range(1, 7) for img in itertools.permutations(range(1, d + 1))]
    perms += enumerate_cyclic(64)
    rng = np.random.default_rng(107)
    perms += [Permutation(random_permutation_image(rng, int(rng.integers(7, 65)))) for _ in range(300)]
    for p in perms:
        c = classify_cyclic(p)
        assert (c.chirality, c.shift) == search_class(p)
        assert parity(p) is cycle_parity(p)
    # d = 2: (2, 1) is both a rotation and a reflection and counts as positive
    assert classify_cyclic(Permutation((2, 1))).chirality is Chirality.POSITIVE


def test_rotation_reflection_constructors():
    assert rotation(4, 1).image == (2, 3, 4, 1)
    assert reflection(4, 0).image == (4, 3, 2, 1)
    assert reflection(4, 3).image == (3, 2, 1, 4)
    for d in range(3, 9):
        for r in range(d):
            assert classify_cyclic(rotation(d, r)).shift == r
            assert classify_cyclic(reflection(d, r)).shift == r


def test_enumerate_cyclic_structure():
    fam = enumerate_cyclic(3)
    assert [p.image for p in fam[:3]] == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    assert {p.image for p in fam[3:]} == {(3, 2, 1), (2, 1, 3), (1, 3, 2)}

    fam4 = enumerate_cyclic(4)
    assert len(fam4) == 8 and len({p.image for p in fam4}) == 8
    assert {p.image for p in fam4[:4]} == {(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)}
    assert {p.image for p in fam4[4:]} == {(4, 3, 2, 1), (3, 2, 1, 4), (2, 1, 4, 3), (1, 4, 3, 2)}

    for d in range(3, 13):
        fam = enumerate_cyclic(d)
        assert len(fam) == 2 * d and len({p.image for p in fam}) == 2 * d
        assert all(classify_cyclic(p).chirality is Chirality.POSITIVE for p in fam[:d])
        assert all(classify_cyclic(p).chirality is Chirality.NEGATIVE for p in fam[d:])

    with pytest.raises(ValueError):
        enumerate_cyclic(2)
    with pytest.raises(ValueError):
        enumerate_cyclic(65)


def test_chirality_equals_parity_only_at_dim3():
    for p in enumerate_cyclic(3):
        c = classify_cyclic(p)
        assert (c.chirality is Chirality.POSITIVE) == (parity(p) is Parity.EVEN)
    # the forward rotations at d=4 alternate even/odd parity
    pars = [parity(rotation(4, r)) for r in range(4)]
    assert pars == [Parity.EVEN, Parity.ODD, Parity.EVEN, Parity.ODD]
    # so chirality and parity split: (2,3,4,1) is odd but positive
    p = Permutation((2, 3, 4, 1))
    assert classify_cyclic(p).chirality is Chirality.POSITIVE and parity(p) is Parity.ODD


def test_oracle_matrix_examples():
    assert np.array_equal(oracle_unitary(Permutation.identity(4)), np.eye(4))
    u2 = oracle_unitary(Permutation((2, 3, 4, 1)))
    assert np.array_equal(
        u2.real,
        np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float),
    )
    u5 = oracle_unitary(Permutation((4, 3, 2, 1)))
    assert np.array_equal(u5.real, np.fliplr(np.eye(4)))
    assert np.all(u2.imag == 0)


def test_oracle_moves_basis_states():
    rng = np.random.default_rng(104)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        p = Permutation(random_permutation_image(rng, d))
        u = oracle_unitary(p)
        for x in range(1, d + 1):
            e = np.zeros(d)
            e[x - 1] = 1
            out = u @ e
            assert out[p(x) - 1] == 1 and np.count_nonzero(out) == 1


def test_oracle_homomorphism_sweep():
    rng = np.random.default_rng(105)
    for _ in range(500):
        d = int(rng.integers(3, 9))
        p = Permutation(random_permutation_image(rng, d))
        q = Permutation(random_permutation_image(rng, d))
        left = oracle_unitary(p.compose(q))
        right = oracle_unitary(p) @ oracle_unitary(q)
        assert np.array_equal(left, right)


def test_relabel_identity_and_inverse():
    sigma = Permutation((1, 3, 2, 4))
    assert relabel(Permutation.identity(4), sigma).image == (1, 2, 3, 4)
    rng = np.random.default_rng(106)
    for _ in range(200):
        d = int(rng.integers(3, 9))
        p = Permutation(random_permutation_image(rng, d))
        s = Permutation(random_permutation_image(rng, d))
        assert relabel(relabel(p, s), s.inverse()).image == p.image
    with pytest.raises(ValueError, match="size mismatch"):
        relabel(Permutation((2, 3, 1)), sigma)


def test_relabel_preserves_class_in_new_labels():
    rng = np.random.default_rng(107)
    sigma = Permutation((1, 3, 2, 4))
    for r in range(4):
        h = relabel(rotation(4, r), sigma)
        back = sigma.inverse().compose(h).compose(sigma)
        assert classify_cyclic(back).chirality is Chirality.POSITIVE
        assert classify_cyclic(back).shift == r
    for _ in range(100):
        d = int(rng.integers(3, 9))
        p = Permutation(random_permutation_image(rng, d))
        s = Permutation(random_permutation_image(rng, d))
        h = relabel(p, s)
        back = s.inverse().compose(h).compose(s)
        assert classify_cyclic(back) == classify_cyclic(p)


def test_relabel_tabulates_as_rotated_base_sequence():
    # Written over the base order (sigma(1)..sigma(4)) = (1,3,2,4), the
    # conjugated rotations are exactly the rotations of that sequence, and
    # the conjugated reflections the rotations of its reversal.
    sigma = Permutation((1, 3, 2, 4))
    pos = [tuple(relabel(rotation(4, r), sigma).compose(sigma).image) for r in range(4)]
    assert pos == [(1, 3, 2, 4), (3, 2, 4, 1), (2, 4, 1, 3), (4, 1, 3, 2)]
    neg = {tuple(relabel(reflection(4, r), sigma).compose(sigma).image) for r in range(4)}
    assert neg == {(4, 2, 3, 1), (2, 3, 1, 4), (3, 1, 4, 2), (1, 4, 2, 3)}


def test_from_string_and_json():
    p = Permutation.from_string(" 2, 3 ,4,1 ")
    assert p.image == (2, 3, 4, 1)
    with pytest.raises(ValueError):
        Permutation.from_string("2,3,x")
    for text in ("", "2,,3,1", "2, ,3,1", "2,3,"):
        with pytest.raises(ValueError, match="malformed"):
            Permutation.from_string(text)
    assert json.loads(json.dumps(p.to_json())) == {"dim": 4, "image": [2, 3, 4, 1]}
