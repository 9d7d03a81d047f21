"""Permutation algebra, chirality classification, and oracle matrices."""

import copy
import functools
import itertools
import operator
import pickle
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from quditcycle.algorithm import one_query_insufficient, phase_table
from quditcycle.linalg import MAX_DIM
from quditcycle.permutations import (
    Chirality,
    Permutation,
    _family,
    apply_oracle,
    classify_cyclic,
    enumerate_cyclic,
    oracle_unitary,
    parity,
    reflection,
    relabel,
    rotation,
)

from conftest import outcome, random_permutation_image, reflection_image, rotation_image


def inversion_parity(p: Permutation) -> int:
    """Reference parity from the inversion count, O(d^2)."""
    img = p.image
    inv = sum(1 for i in range(len(img)) for j in range(i + 1, len(img)) if img[i] > img[j])
    return 1 if inv % 2 == 0 else -1


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())
    assert Permutation((2, 3, 1)).image == (2, 3, 1)
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


def test_compose_and_inverse():
    p = Permutation((2, 3, 4, 1))
    q = Permutation((1, 3, 2, 4))
    pq = p.compose(q)
    assert pq.image == tuple(p.image[q.image[x - 1] - 1] for x in range(1, 5))
    assert p.compose(p.inverse()).image == (1, 2, 3, 4)
    assert p.inverse().compose(p).image == (1, 2, 3, 4)
    with pytest.raises(ValueError, match="^size mismatch: 4 vs 3$"):
        p.compose(Permutation((2, 3, 1)))


def test_parity_examples():
    assert parity(Permutation((1, 2, 3))) == 1
    assert parity(Permutation((3, 2, 1))) == -1
    # three inversions: (2,1), (3,1), (4,1)
    assert parity(Permutation((2, 3, 4, 1))) == -1


def test_parity_matches_inversion_count():
    perms = [Permutation(img) for d in range(1, 8) for img in itertools.permutations(range(1, d + 1))]
    perms += enumerate_cyclic(MAX_DIM)
    rng = np.random.default_rng(103)
    perms += [Permutation(random_permutation_image(rng, int(rng.integers(8, 65)))) for _ in range(300)]
    for p in perms:
        assert parity(p) == inversion_parity(p)


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


@functools.cache
def _formula_images(d: int) -> tuple[list, list]:
    """The images of the d rotations and of the d reflections of size d, by offset, each from its modulo formula."""
    return [rotation_image(d, r) for r in range(d)], [reflection_image(d, r) for r in range(d)]


def search_class(p: Permutation):
    """Reference classifier: search every rotation, then every reflection, for p's image."""
    for chirality, images in zip((Chirality.POSITIVE, Chirality.NEGATIVE), _formula_images(p.dim)):
        if p.image in images:
            return chirality, images.index(p.image)
    return Chirality.NOT_CYCLIC, None


def test_classify_matches_rotation_search():
    perms = [Permutation(img) for d in range(1, 7) for img in itertools.permutations(range(1, d + 1))]
    rng = np.random.default_rng(107)
    perms += [Permutation(random_permutation_image(rng, int(rng.integers(7, 65)))) for _ in range(300)]
    for d in range(2, MAX_DIM + 1):
        perms += [rotation(d, r) for r in range(d)] + [reflection(d, r) for r in range(d)]
        perms += [Permutation(random_permutation_image(rng, d)) for _ in range(20)]
        # a rotation or a reflection with two images swapped: right p(1), wrong tail
        for family in (rotation, reflection):
            img = list(family(d, int(rng.integers(d))).image)
            i, j = sorted(rng.choice(d, size=2, replace=False))
            img[i], img[j] = img[j], img[i]
            perms.append(Permutation(tuple(img)))
    for p in perms:
        c = classify_cyclic(p)
        assert (c.chirality, c.shift) == search_class(p)
    # d = 2: (2, 1) is both a rotation and a reflection and counts as positive
    assert classify_cyclic(Permutation((2, 1))).chirality is Chirality.POSITIVE


def _assert_same_as_checked(got, image):
    """got is the Permutation the checked constructor builds from the image, down to its hash and plain ints."""
    want = Permutation(tuple(image))
    assert got == want and hash(got) == hash(want)
    assert type(got.image) is tuple and set(map(type, got.image)) == {int}


def test_window_built_permutations_equal_checked_ones():
    # the members of _family skip the constructor's type and bijection checks;
    # the checked constructor on the modulo formulas is the reference
    for d in range(3, MAX_DIM + 1):
        got = enumerate_cyclic(d)
        rotations, reflections = _formula_images(d)
        images = rotations + reflections
        assert len(got) == len(images)
        for p, image in zip(got, images):
            _assert_same_as_checked(p, image)
        # verify reads each class from this order: rotation(d, i), then reflection(d, i - d)
        labels = [(Chirality.POSITIVE, r) for r in range(d)] + [(Chirality.NEGATIVE, r) for r in range(d)]
        assert [(c.chirality, c.shift) for c in map(classify_cyclic, got)] == labels
    for d in range(1, MAX_DIM + 1):
        for r in range(-2 * d, 2 * d + 1):
            _assert_same_as_checked(rotation(d, r), rotation_image(d, r))
            _assert_same_as_checked(reflection(d, r), reflection_image(d, r))


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
        # a set's hash order became the image: {2, 1} built the identity, and {3, 1, 2} a positive cycle
        ({2, 1}, "permutation image must be ordered, got a set {1, 2}"),
        (frozenset({3, 1, 2}), "permutation image must be ordered, got a frozenset frozenset({1, 2, 3})"),
        (tuple(range(1, 66)), "permutation size must be in [1, 64], got 65"),
        # printing these images raised the error of Python's limit on int-to-str digits
        pytest.param(
            (10**5000,),
            f"image <tuple holding an int of more than {sys.get_int_max_str_digits()} digits> is not a bijection of 1..1",
            id="(10**5000,)",
        ),
        pytest.param(
            [Fraction(10**5000, 3)],
            f"permutation entries must be integers, got <tuple holding an int of more than {sys.get_int_max_str_digits()} digits>",
            id="[Fraction(10**5000, 3)]",
        ),
    ],
    ids=repr,
)
def test_permutation_refusal_messages(image, message):
    with pytest.raises(ValueError) as err:
        Permutation(image)
    assert str(err.value) == message


def _labels_reference(image):
    """The image Permutation stores, or its refusal, with every image copied through tuple(): the reference."""
    if isinstance(image, (set, frozenset)):
        raise ValueError(f"permutation image must be ordered, got a {type(image).__name__} {image!r}")
    try:
        img = tuple(image)
    except TypeError:
        raise ValueError(f"permutation image must be an iterable of integers, got {image!r}") from None
    try:
        if bool in set(map(type, img)):
            raise TypeError
        img = tuple(map(operator.index, img))
    except TypeError:
        raise ValueError(f"permutation entries must be integers, got {img!r}") from None
    d = len(img)
    if d < 1 or d > MAX_DIM:
        raise ValueError(f"permutation size must be in [1, {MAX_DIM}], got {d}")
    if sorted(img) != list(range(1, d + 1)):
        raise ValueError(f"image {img} is not a bijection of 1..{d}")
    return img


_REFUSED_IMAGES = [
    (2.7, 1.2), (2.0, 1.0), (True, 2), (np.True_, 2), (np.float64(1), 2), ("1", "2"), 5, None, 2.5,
    (2, np.True_), (2.0, 1), (1, 1, 2), (0, 1, 2), (1, 2, 4), (np.int64(1), 3), (), tuple(range(1, 66)),
    "231", [1, 1], {2, 1}, frozenset({3, 1, 2}),
]  # fmt: skip
_TAKEN_IMAGES = [
    (2, 3, 1), [2, 3, 1], np.array([2, 3, 1]), (np.int64(2), np.int32(3), np.uint8(1)), [2, np.int16(3), 1],
    range(1, 65), tuple(range(64, 0, -1)),
]  # fmt: skip


_IMAGE_CASES = [(image, False) for image in _REFUSED_IMAGES + _TAKEN_IMAGES] + [
    (image, True) for image in _REFUSED_IMAGES + _TAKEN_IMAGES if hasattr(image, "__iter__")
]


@pytest.mark.parametrize(
    "image, one_pass", _IMAGE_CASES, ids=[f"{'iter ' if one_pass else ''}{image!r}" for image, one_pass in _IMAGE_CASES]
)
def test_permutation_bitwise_matches_the_reference(image, one_pass):
    # one_pass hands each side a fresh iterator over the image
    arg = (lambda: iter(image)) if one_pass else (lambda: image)
    want = outcome(lambda: _labels_reference(arg()))
    got = outcome(lambda: Permutation(arg()).image)
    assert got == want and type(got) is type(want)
    if isinstance(want, tuple) and want and not isinstance(want[0], type):
        assert list(map(type, got)) == list(map(type, want))


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


def test_enumerate_cyclic_structure():
    fam = enumerate_cyclic(3)
    assert [p.image for p in fam[:3]] == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    assert {p.image for p in fam[3:]} == {(3, 2, 1), (2, 1, 3), (1, 3, 2)}

    fam4 = enumerate_cyclic(4)
    assert len(fam4) == 8 and len({p.image for p in fam4}) == 8
    assert {p.image for p in fam4[:4]} == {(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)}
    assert {p.image for p in fam4[4:]} == {(4, 3, 2, 1), (3, 2, 1, 4), (2, 1, 4, 3), (1, 4, 3, 2)}

    with pytest.raises(ValueError):
        enumerate_cyclic(2)
    with pytest.raises(ValueError):
        enumerate_cyclic(65)


def test_enumerate_cyclic_is_the_rotations_then_the_reflections():
    # the very objects rotation and reflection return, in a new list on each call;
    # test_window_built_permutations_equal_checked_ones checks their images
    for d in range(3, MAX_DIM + 1):
        family = enumerate_cyclic(d)
        for r in range(-d, 2 * d):
            assert rotation(d, r) is family[r % d] and reflection(d, r) is family[d + r % d]
        family.clear()
        assert enumerate_cyclic(d) == [rotation(d, r) for r in range(d)] + [reflection(d, r) for r in range(d)]


def test_family_is_built_once_per_size_without_the_checked_constructor(monkeypatch):
    # the traced benchmark counts Permutation.__post_init__ runs, and its two passes must
    # count alike, so neither the call that fills the cache nor a later one may run it
    inputs = [Permutation(img) for img in [(2, 3, 1), (1, 3, 2, 4), (3, 2, 1, 4), tuple(range(MAX_DIM, 0, -1))]]
    _family.cache_clear()

    def refuse(self):
        raise AssertionError("Permutation.__post_init__ ran")

    monkeypatch.setattr(Permutation, "__post_init__", refuse)
    for _ in range(2):
        for d in (3, 4, 12, MAX_DIM):
            assert rotation(d, 1).dim == reflection(d, 1).dim == len(enumerate_cyclic(d)) // 2 == d
            assert one_query_insufficient(d) is True
        assert [classify_cyclic(p).chirality for p in inputs] == [
            Chirality.POSITIVE,
            Chirality.NOT_CYCLIC,
            Chirality.NEGATIVE,
            Chirality.NEGATIVE,
        ]
    monkeypatch.undo()
    # the cache keeps every size it builds: all of them together stay small
    _family.cache_clear()
    tracemalloc.start()
    try:
        for d in range(1, MAX_DIM + 1):
            _family(d)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2.5e6


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


@pytest.mark.parametrize("m", list(Chirality), ids=lambda m: m.name)
def test_chirality_hashes_by_identity_and_every_copy_is_the_member(m):
    # a member hashes as the object it is, which is sound only while every
    # route back to a member gives that same object
    assert hash(m) == object.__hash__(m)
    backs = [pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m), Chirality(m.value), Chirality(m)]
    assert all(back is m for back in backs)
    table = phase_table(5)  # keyed by (chirality, shift) for the two cyclic classes
    for back in backs:
        assert [(back, r) in table for r in range(5)] == [m is not Chirality.NOT_CYCLIC] * 5


def _scatter_by_empty_like(p, a):
    """Reference scatter: a buffer shaped like a, filled at the labels minus one."""
    a = np.asarray(a)
    out = np.empty_like(a)
    out[np.subtract(p.image, 1)] = a
    return out


def _scatter_inputs(rng, d, shape, dtype):
    """An array of the given shape and dtype in C, F, reversed and strided layouts."""
    def draw(shape):
        if dtype is bool:
            return rng.integers(0, 2, size=shape).astype(bool)
        if dtype is int:
            return rng.integers(-1000, 1000, size=shape)
        x = rng.normal(size=shape)
        if dtype is complex:
            x = x + 1j * rng.normal(size=shape)
        flat = x.reshape(-1)  # signed zeros and NaN, whose bytes must survive
        flat[::3] = -0.0
        flat[1::5] = np.nan
        if dtype is complex:
            flat[2::7] = complex(-0.0, np.nan)
        return x

    a = draw(shape)
    wide = draw((d, 2 * shape[1]) if len(shape) == 2 else (2 * d,))
    return [a, np.asfortranarray(a), a[::-1], wide[:, ::2] if len(shape) == 2 else wide[::2]]


@pytest.mark.parametrize("dtype", [complex, float, int, bool], ids=lambda t: t.__name__)
def test_apply_oracle_matches_the_empty_like_scatter_bit_for_bit(dtype):
    rng = np.random.default_rng(30)
    for d in range(1, MAX_DIM + 1):
        p = Permutation(random_permutation_image(rng, d))
        for shape in ((d,), (d, 1), (d, 3), (d, d)):
            inputs = _scatter_inputs(rng, d, shape, dtype)
            inputs += [inputs[0].tolist(), tuple(map(tuple, inputs[0])) if len(shape) == 2 else tuple(inputs[0])]
            for a in inputs:
                kept = np.array(a, copy=True)
                want = _scatter_by_empty_like(p, a)
                got = apply_oracle(p, a)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert got.flags.c_contiguous and got.flags.writeable
                assert not np.shares_memory(got, a)
                assert np.asarray(a).tobytes() == kept.tobytes()  # the input is not written


def _relabel_by_scatter(p: Permutation, sigma: Permutation) -> Permutation:
    """sigma . p . sigma^-1 as one scatter: p(x) goes to position sigma(x), then is read through sigma."""
    return Permutation(np.take(sigma.image, apply_oracle(sigma, p.image) - 1).tolist())


def test_relabel_identity_and_inverse():
    sigma = Permutation((1, 3, 2, 4))
    assert relabel(rotation(4, 0), sigma).image == (1, 2, 3, 4)
    rng = np.random.default_rng(106)
    for _ in range(200):
        d = int(rng.integers(3, 9))
        p = Permutation(random_permutation_image(rng, d))
        s = Permutation(random_permutation_image(rng, d))
        assert relabel(relabel(p, s), s.inverse()).image == p.image
    for d in range(1, MAX_DIM + 1):
        for _ in range(5):
            p = Permutation(random_permutation_image(rng, d))
            s = Permutation(random_permutation_image(rng, d))
            conj = relabel(p, s)
            assert conj.image == _relabel_by_scatter(p, s).image
            assert conj.compose(s) == s.compose(p)
    for p in (Permutation((2, 3, 1)), rotation(5, 1)):  # p smaller and larger than sigma
        with pytest.raises(ValueError, match=f"^size mismatch: 4 vs {p.dim}$"):
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
