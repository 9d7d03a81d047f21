"""Permutation algebra, chirality classification, and oracle matrices."""

import itertools
import json

import numpy as np
import pytest

from quditcycle.permutations import (
    Chirality,
    Permutation,
    apply_oracle,
    classify_cyclic,
    enumerate_cyclic,
    oracle_unitary,
    parity,
    reflection,
    relabel,
    rotation,
)

from conftest import random_permutation_image


def cycle_parity(p: Permutation) -> int:
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
    return 1 if (p.dim - cycles) % 2 == 0 else -1


def inversion_parity(p: Permutation) -> int:
    """Reference parity from the inversion count, O(d^2)."""
    img = p.image
    inv = sum(1 for i in range(len(img)) for j in range(i + 1, len(img)) if img[i] > img[j])
    return 1 if inv % 2 == 0 else -1


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


@pytest.mark.parametrize("image", [5, None, 2.5], ids=repr)
def test_permutation_refuses_an_image_that_is_not_iterable(image):
    # tuple(image) used to raise TypeError
    with pytest.raises(ValueError, match="iterable of integers"):
        Permutation(image)


@pytest.mark.parametrize("text", [None, 231, b"2,3,1", ["2", "3", "1"]], ids=repr)
def test_from_string_refuses_what_is_not_a_str(text):
    # text.split used to raise AttributeError
    with pytest.raises(ValueError, match="must be a str"):
        Permutation.from_string(text)


@pytest.mark.parametrize("label", [True, False, np.True_, 2.0, 1.5, "2", None], ids=repr)
def test_call_refuses_labels_that_are_not_integers(label):
    # True used to act as label 1 and 2.0 raised TypeError
    with pytest.raises(ValueError, match="label must be an integer"):
        Permutation((2, 1, 3))(label)


def test_call_takes_numpy_integer_labels():
    assert Permutation((2, 1, 3))(np.int64(1)) == 2


BAD_DIMS = [3.5, True, np.True_, "3", None, float("nan"), float("inf")]


@pytest.mark.parametrize(
    "build",
    [enumerate_cyclic, lambda d: rotation(d, 1), lambda d: reflection(d, 1)],
    ids=["enumerate_cyclic", "rotation", "reflection"],
)
def test_constructors_take_integral_dims_only(build):
    # a float dim used to raise TypeError from range()
    assert build(4.0) == build(np.int64(4)) == build(4)
    for dim in BAD_DIMS:
        with pytest.raises(ValueError, match="dimension"):
            build(dim)


@pytest.mark.parametrize("build", [rotation, reflection], ids=["rotation", "reflection"])
def test_constructors_take_integer_offsets_only(build):
    # True used to act as offset 1, and 1.0 failed with an error about the entries
    assert build(4, np.int64(1)) == build(4, 1)
    for r in (True, np.True_, 1.0, 1.5, "1", None):
        with pytest.raises(ValueError, match="offset must be an integer"):
            build(4, r)


def test_compose_and_inverse():
    p = Permutation((2, 3, 4, 1))
    q = Permutation((1, 3, 2, 4))
    pq = p.compose(q)
    assert pq.image == tuple(p(q(x)) for x in range(1, 5))
    assert p.compose(p.inverse()).image == (1, 2, 3, 4)
    assert p.inverse().compose(p).image == (1, 2, 3, 4)


def test_parity_examples():
    assert parity(Permutation((1, 2, 3))) == 1
    assert parity(Permutation((3, 2, 1))) == -1
    # three inversions: (2,1), (3,1), (4,1)
    assert parity(Permutation((2, 3, 4, 1))) == -1


def test_parity_against_cycle_decomposition():
    rng = np.random.default_rng(101)
    for _ in range(300):
        d = int(rng.integers(2, 10))
        p = Permutation(random_permutation_image(rng, d))
        assert parity(p) == cycle_parity(p)


def test_parity_matches_inversion_count():
    for d in range(1, 8):
        for img in itertools.permutations(range(1, d + 1)):
            p = Permutation(img)
            assert parity(p) == inversion_parity(p)
    rng = np.random.default_rng(103)
    for _ in range(300):
        p = Permutation(random_permutation_image(rng, int(rng.integers(8, 65))))
        assert parity(p) == inversion_parity(p)


def test_parity_homomorphism_sweep():
    rng = np.random.default_rng(102)
    for _ in range(500):
        d = int(rng.integers(3, 9))
        p = Permutation(random_permutation_image(rng, d))
        q = Permutation(random_permutation_image(rng, d))
        assert parity(p.compose(q)) == parity(p) * parity(q)


def test_classify_examples():
    p = Permutation((2, 3, 4, 1))
    c = classify_cyclic(p)
    assert c.chirality is Chirality.POSITIVE and c.shift == 1 and parity(p) == -1
    c = classify_cyclic(Permutation((4, 3, 2, 1)))
    assert c.chirality is Chirality.NEGATIVE and c.shift == 0
    c = classify_cyclic(Permutation((2, 1, 4, 3)))
    assert c.chirality is Chirality.NEGATIVE and c.shift == 2
    c = classify_cyclic(Permutation((1, 3, 2, 4)))
    assert c.chirality is Chirality.NOT_CYCLIC and c.shift is None
    c = classify_cyclic(rotation(5, 0))
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
        assert parity(p) == cycle_parity(p)
    # d = 2: (2, 1) is both a rotation and a reflection and counts as positive
    assert classify_cyclic(Permutation((2, 1))).chirality is Chirality.POSITIVE


def _old_classify(p: Permutation):
    """The modulo scan classify_cyclic made before it compared against range-built images."""
    d, img = p.dim, p.image
    r = img[0] - 1
    if all(y == (x + r) % d + 1 for x, y in enumerate(img)):
        return Chirality.POSITIVE, r
    r = img[0] % d
    if all(y == (r - x - 1) % d + 1 for x, y in enumerate(img)):
        return Chirality.NEGATIVE, r
    return Chirality.NOT_CYCLIC, None


def test_range_built_images_match_modulo_formulas():
    for d in range(1, 65):
        for r in range(-2 * d, 2 * d + 1):
            assert rotation(d, r).image == tuple((x + r) % d + 1 for x in range(d))
            assert reflection(d, r).image == tuple((r - x - 1) % d + 1 for x in range(d))


def test_classify_matches_modulo_scan():
    rng = np.random.default_rng(141)
    for d in range(2, 65):
        perms = [rotation(d, r) for r in range(d)] + [reflection(d, r) for r in range(d)]
        perms += [Permutation(random_permutation_image(rng, d)) for _ in range(20)]
        # a rotation or a reflection with two images swapped: right p(1), wrong tail
        for family in (rotation, reflection):
            img = list(family(d, int(rng.integers(d))).image)
            i, j = sorted(rng.choice(d, size=2, replace=False))
            img[i], img[j] = img[j], img[i]
            perms.append(Permutation(tuple(img)))
        for p in perms:
            c = classify_cyclic(p)
            assert (c.chirality, c.shift) == _old_classify(p)


def test_permutation_stores_plain_ints():
    for image in (np.array([2, 3, 1]), (np.int64(2), np.int32(3), np.uint8(1)), [2, np.int16(3), 1]):
        p = Permutation(image)
        assert p.image == (2, 3, 1) and {type(x) for x in p.image} == {int}


@pytest.mark.parametrize(
    "image,message",
    [
        ((True, 2), "permutation entries must be integers, got (True, 2)"),
        ((2, np.True_), f"permutation entries must be integers, got {(2, np.True_)!r}"),
        ((2.0, 1), "permutation entries must be integers, got (2.0, 1)"),
        ((1, 1, 2), "image (1, 1, 2) is not a bijection of 1..3"),
        ((0, 1, 2), "image (0, 1, 2) is not a bijection of 1..3"),
        ((1, 2, 4), "image (1, 2, 4) is not a bijection of 1..3"),
        ((np.int64(1), 3), "image (1, 3) is not a bijection of 1..2"),
        ((), "permutation size must be in [1, 64], got 0"),
        (tuple(range(1, 66)), "permutation size must be in [1, 64], got 65"),
    ],
    ids=repr,
)
def test_permutation_refusal_messages(image, message):
    with pytest.raises(ValueError) as err:
        Permutation(image)
    assert str(err.value) == message


NOT_PERMUTATION_CALLS = {
    "classify_cyclic": lambda: classify_cyclic((1, 2, 3)),
    "parity": lambda: parity((1, 2, 3)),
    "oracle_unitary": lambda: oracle_unitary((1, 2)),
    "apply_oracle": lambda: apply_oracle((1, 2), [1, 2]),
    "relabel_sigma": lambda: relabel(rotation(3, 1), "x"),
    "relabel_p": lambda: relabel("x", rotation(3, 1)),
    "compose": lambda: rotation(3, 1).compose("x"),
}


@pytest.mark.parametrize("call", NOT_PERMUTATION_CALLS.values(), ids=NOT_PERMUTATION_CALLS.keys())
def test_what_is_not_a_permutation_is_refused_at_every_entry(call):
    # each of these used to raise AttributeError on .image or .dim
    with pytest.raises(ValueError, match="expected a Permutation, got (tuple|str)$"):
        call()


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
        assert (c.chirality is Chirality.POSITIVE) == (parity(p) == 1)
    # the forward rotations at d=4 alternate even/odd parity
    pars = [parity(rotation(4, r)) for r in range(4)]
    assert pars == [1, -1, 1, -1]
    # so chirality and parity split: (2,3,4,1) is odd but positive
    p = Permutation((2, 3, 4, 1))
    assert classify_cyclic(p).chirality is Chirality.POSITIVE and parity(p) == -1


def test_oracle_matrix_examples():
    assert np.array_equal(oracle_unitary(rotation(4, 0)), np.eye(4))
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
    assert relabel(rotation(4, 0), sigma).image == (1, 2, 3, 4)
    rng = np.random.default_rng(106)
    for _ in range(200):
        d = int(rng.integers(3, 9))
        p = Permutation(random_permutation_image(rng, d))
        s = Permutation(random_permutation_image(rng, d))
        assert relabel(relabel(p, s), s.inverse()).image == p.image
    for p in (Permutation((2, 3, 1)), rotation(5, 1)):  # p smaller and larger than sigma
        with pytest.raises(ValueError, match="size mismatch"):
            relabel(p, sigma)


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
