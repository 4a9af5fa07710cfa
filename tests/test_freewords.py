import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.freewords import (
    FreeQuandleElement,
    FreeWordAut,
    fq_normalize,
    fq_op,
    free_reduce,
    parse_fq_key,
    word_inverse,
    word_mul,
)


def _random_word(rng, letters, length):
    return tuple((rng.choice(letters), rng.choice((1, -1))) for _ in range(length))


def test_free_reduce():
    assert free_reduce([("a", 1), ("a", -1)]) == ()
    assert free_reduce([("a", 1), ("b", 1), ("b", -1), ("a", 1)]) == (("a", 1), ("a", 1))
    assert free_reduce([]) == ()
    # nested cancellation collapses fully
    w = [("a", 1), ("b", 1), ("b", -1), ("a", -1)]
    assert free_reduce(w) == ()


LETTERS = st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(LETTERS, max_size=12), st.lists(LETTERS, max_size=12))
def test_seam_product_of_reduced_words_is_full_reduction(a, b):
    a, b = free_reduce(a), free_reduce(b)
    assert word_mul(a, b) == free_reduce(a + b)


def test_reduce_idempotent_random():
    rng = random.Random(31)
    for _ in range(200):
        w = _random_word(rng, "ab", rng.randrange(12))
        r = free_reduce(w)
        assert free_reduce(r) == r
        # no adjacent cancelling pair survives
        assert all(
            not (r[i][0] == r[i + 1][0] and r[i][1] == -r[i + 1][1])
            for i in range(len(r) - 1)
        )


def test_word_group_laws_random():
    rng = random.Random(32)
    for _ in range(150):
        a = free_reduce(_random_word(rng, "abc", rng.randrange(8)))
        b = free_reduce(_random_word(rng, "abc", rng.randrange(8)))
        c = free_reduce(_random_word(rng, "abc", rng.randrange(8)))
        assert word_mul(word_mul(a, b), c) == word_mul(a, word_mul(b, c))
        assert word_mul(a, word_inverse(a)) == ()
        assert word_mul(word_inverse(a), a) == ()


def test_normalize_strips_leading_base_run():
    x = fq_normalize("a", [("a", 1), ("a", 1), ("b", 1)])
    assert x.tail == (("b", 1),)
    y = fq_normalize("a", [("a", -1), ("b", 1), ("a", 1)])
    assert y.tail == (("b", 1), ("a", 1))
    z = fq_normalize("a", [("a", 1), ("a", -1)])
    assert z.tail == ()


def test_keys():
    assert FreeQuandleElement("a", ()).key() == "a^1"
    assert FreeQuandleElement("a", (("b", 1), ("c", -1))).key() == "a^b*c^-1"
    assert parse_fq_key("a^1") == FreeQuandleElement("a", ())
    assert parse_fq_key("a^b*c^-1") == FreeQuandleElement("a", (("b", 1), ("c", -1)))
    with pytest.raises(ValueError):
        parse_fq_key("no-caret")
    with pytest.raises(ValueError):
        parse_fq_key("a^b^2")


def test_key_roundtrip_random():
    rng = random.Random(33)
    for _ in range(150):
        x = fq_normalize("a", _random_word(rng, "abc", rng.randrange(8)))
        assert parse_fq_key(x.key()) == x


def test_op_basics():
    a = FreeQuandleElement("a", ())
    b = FreeQuandleElement("b", ())
    assert fq_op(a, a) == a
    assert fq_op(a, b).key() == "a^b"
    assert fq_op(fq_op(a, b), b, -1) == a
    assert fq_op(a, b, -1).key() == "a^b^-1"


def test_op_axioms_random():
    rng = random.Random(34)
    elems = []
    for _ in range(40):
        base = rng.choice("ab")
        elems.append(fq_normalize(base, _random_word(rng, "ab", rng.randrange(5))))
    for _ in range(300):
        x, y, z = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert fq_op(x, x) == x
        assert fq_op(fq_op(x, y), y, -1) == x
        assert fq_op(fq_op(x, y, -1), y) == x
        lhs = fq_op(fq_op(x, y), z)
        rhs = fq_op(fq_op(x, z), fq_op(y, z))
        assert lhs == rhs


def test_word_aut_acts_as_right_multiplication():
    aut = FreeWordAut((("b", 1),))
    a = FreeQuandleElement("a", ())
    assert aut.act(a).key() == "a^b"
    assert aut.inverse().act(aut.act(a)) == a
    two = aut * aut
    assert two.act(a).key() == "a^b*b"
    assert FreeWordAut.identity().is_identity()


def test_word_aut_group_laws_random():
    rng = random.Random(35)
    for _ in range(100):
        f = FreeWordAut(free_reduce(_random_word(rng, "ab", rng.randrange(6))))
        g = FreeWordAut(free_reduce(_random_word(rng, "ab", rng.randrange(6))))
        x = fq_normalize("a", _random_word(rng, "ab", rng.randrange(5)))
        assert (f * g).act(x) == g.act(f.act(x))
        assert (f * f.inverse()).is_identity()
