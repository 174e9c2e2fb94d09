import functools
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftrees import elements, generators
from ftrees.elements import (
    GroupElement,
    NotInF,
    inverse,
    multiply,
    validate_unitary,
)
from ftrees.generators import (
    NormalFormWord,
    element_of_word,
    equals,
    from_normal_form,
    gen_x,
    generator_ball,
    parse_generator_word,
    parse_normal_form,
    to_normal_form,
)

from oracles import (
    ball_by_words,
    generator_terms,
    merge_siblings,
    normal_form_by_words,
    product_of_word,
    random_normal_form,
)


def test_gen_x_goldens():
    assert [(t.alpha, t.beta) for t in gen_x(0).terms] == [
        ("11", "1"),
        ("12", "21"),
        ("2", "22"),
    ]
    assert [(t.alpha, t.beta) for t in gen_x(1).terms] == [
        ("1", "1"),
        ("211", "21"),
        ("212", "221"),
        ("22", "222"),
    ]
    assert [(t.alpha, t.beta) for t in gen_x(2).terms] == [
        ("1", "1"),
        ("21", "21"),
        ("2211", "221"),
        ("2212", "2221"),
        ("222", "2222"),
    ]


def test_gen_x_is_canonical():
    # gen_x builds its terms without validation; they must already be canonical
    for k in range(65):
        assert gen_x(k) == validate_unitary(list(gen_x(k).terms))


def test_presentation_relations():
    # x_j x_i = x_i x_{j+1} for all 0 <= i < j <= 4
    for i in range(5):
        for j in range(i + 1, 5):
            lhs = multiply(gen_x(j), gen_x(i))
            rhs = multiply(gen_x(i), gen_x(j + 1))
            assert equals(lhs, rhs), (i, j)


def _commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    return multiply(multiply(multiply(a, b), inverse(a)), inverse(b))


def test_finite_presentation_relators():
    A, B = gen_x(0), gen_x(1)
    ab1 = multiply(A, inverse(B))
    c1 = multiply(multiply(inverse(A), B), A)
    assert _commutator(ab1, c1).is_identity()
    A2 = multiply(A, A)
    c2 = multiply(multiply(inverse(A2), B), A2)
    assert _commutator(ab1, c2).is_identity()


def test_xn_as_conjugate():
    A, B = gen_x(0), gen_x(1)
    for n in range(1, 5):
        conj = B
        for _ in range(n - 1):
            conj = multiply(multiply(inverse(A), conj), A)
        assert equals(gen_x(n), conj), n


def test_equals_examples():
    assert equals(multiply(gen_x(1), gen_x(0)), multiply(gen_x(0), gen_x(2)))
    assert not equals(gen_x(0), gen_x(1))
    A, B = gen_x(0), gen_x(1)
    rel = _commutator(multiply(A, inverse(B)), multiply(multiply(inverse(A), B), A))
    assert equals(rel, GroupElement.identity())


def test_normal_form_word_validation():
    NormalFormWord((0, 2), ())
    NormalFormWord((0, 1), (0,))
    with pytest.raises(ValueError):
        NormalFormWord((2, 0), ())  # not sorted
    with pytest.raises(ValueError):
        NormalFormWord((1,), (1,))  # j_k == i_l
    with pytest.raises(ValueError):
        NormalFormWord((0, 3), (0,))  # 0 on both sides but no 1
    with pytest.raises(ValueError):
        NormalFormWord((-1,), ())  # a negative index
    with pytest.raises(ValueError):
        gen_x(-1)


def test_from_normal_form_is_the_product():
    nf = NormalFormWord((0, 2), ())
    assert equals(from_normal_form(nf), multiply(gen_x(0), gen_x(2)))
    assert from_normal_form(NormalFormWord((), ())).is_identity()


def test_normal_form_examples():
    nf = to_normal_form(multiply(gen_x(1), gen_x(0)))
    assert (nf.positive, nf.negative) == ((0, 2), ())
    assert (
        to_normal_form(GroupElement.identity()).positive,
        to_normal_form(GroupElement.identity()).negative,
    ) == ((), ())
    conj = multiply(multiply(gen_x(0), gen_x(1)), inverse(gen_x(0)))
    nf2 = to_normal_form(conj)
    assert (nf2.positive, nf2.negative) == ((0, 1), (0,))
    assert equals(from_normal_form(nf2), conj)


def test_normal_form_reads_leaf_exponents():
    f = multiply(gen_x(1), gen_x(0))
    assert str(f) == "11:1 + 12:21 + 211:221 + 212:2221 + 22:2222"
    # range leaves 11, 12, 211, 212, 22 have exponents 1, 0, 1, 0, 0 and
    # every domain leaf has exponent 0
    assert to_normal_form(f) == NormalFormWord((0, 2), ())
    assert to_normal_form(GroupElement.identity()) == NormalFormWord((), ())


def _random_tree(rng: random.Random, leaves: int) -> list[str]:
    words = [""]
    while len(words) < leaves:
        i = rng.randrange(len(words))
        words[i : i + 1] = [words[i] + "1", words[i] + "2"]
    return words


def test_normal_form_of_random_tree_pairs():
    rng = random.Random(40)
    for _ in range(300):
        n = rng.randint(2, 40)
        f = GroupElement.from_terms(zip(_random_tree(rng, n), _random_tree(rng, n)))
        assert equals(from_normal_form(to_normal_form(f)), f)


@st.composite
def tree_pairs(draw) -> GroupElement:
    """The reduced element of two random trees with the same number of leaves."""
    rng, n = draw(st.randoms(use_true_random=False)), draw(st.integers(1, 30))
    return GroupElement(zip(_random_tree(rng, n), _random_tree(rng, n)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(tree_pairs(), st.sampled_from(generator_ball(4))))
def test_normal_forms_match_the_leaf_word_oracle(f):
    nf = to_normal_form(f)
    assert nf == normal_form_by_words(f)
    assert from_normal_form(nf).terms == product_of_word(nf.letters())


def test_to_normal_form_requires_f():
    t_gen = GroupElement.from_terms([("22", "1"), ("1", "21"), ("21", "22")])
    with pytest.raises(NotInF):
        to_normal_form(t_gen)


def _valid_normal_forms(max_total: int, max_index: int):
    """All valid NormalFormWords with |positive| + |negative| <= max_total."""
    def sorted_lists(length):
        return itertools.combinations_with_replacement(range(max_index + 1), length)

    for lp in range(max_total + 1):
        for ln in range(max_total + 1 - lp):
            for pos in sorted_lists(lp):
                for neg in sorted_lists(ln):
                    try:
                        yield NormalFormWord(pos, neg)
                    except ValueError:
                        continue


def test_from_normal_form_is_the_letter_product_on_long_words():
    rng = random.Random(901)
    for letters in [300] + [rng.randint(0, 300) for _ in range(6)]:
        nf = random_normal_form(rng, letters)
        assert len(nf.letters()) == letters
        terms = from_normal_form(nf).terms
        assert terms == product_of_word(nf.letters()), nf
        assert merge_siblings(terms) == terms, nf
        assert to_normal_form(GroupElement(terms)) == nf


def test_normal_form_certificate_rejects_a_wrong_exponent(monkeypatch):
    # raise one exponent of the range tree: the word stays a valid normal
    # form, of another element, so only the certificate can catch it
    read = generators._leaf_exponents

    def perturbed(f):
        pos, neg = read(f)
        extra = pos[0] if pos else len(f._quads)
        return tuple(sorted(pos + (extra,))), neg

    rng = random.Random(41)
    ball = generator_ball(3)
    elements = ball + [
        GroupElement.from_terms(zip(_random_tree(rng, n), _random_tree(rng, n)))
        for n in range(2, 40)
    ]
    monkeypatch.setattr(generators, "_leaf_exponents", perturbed)
    for f in elements:
        with pytest.raises(AssertionError):
            to_normal_form(f)


def test_normal_form_word_validation_is_linear():
    n = 20000
    start = time.perf_counter()
    NormalFormWord(tuple(range(n)), tuple(range(n - 1)))
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="x_3 occurs with both signs but x_4 with neither"):
        NormalFormWord((0, 3, 5), (3,))


def test_normal_form_uniqueness_round_trip():
    # from_normal_form(nf) is the reduced letter product and
    # to_normal_form(from_normal_form(nf)) == nf for all short valid words
    count = 0
    for nf in _valid_normal_forms(6, 4):
        f = from_normal_form(nf)
        assert f.terms == product_of_word(nf.letters()), nf
        assert merge_siblings(f.terms) == f.terms, nf
        back = to_normal_form(f)
        assert (back.positive, back.negative) == (nf.positive, nf.negative), nf
        count += 1
    assert count > 2000


def test_a_normal_form_round_trip_makes_no_products(monkeypatch):
    # a work count: both directions walk the leaves, and neither multiplies
    products = []
    for module in (elements, generators):
        product = module.multiply
        monkeypatch.setattr(module, "multiply", lambda u, w, m=product: products.append(1) or m(u, w))
    nf = random_normal_form(random.Random(91), 64)
    assert len(nf.letters()) == 64
    assert to_normal_form(from_normal_form(nf)) == nf
    assert products == []


def test_ball_round_trip_and_counts():
    ball = generator_ball(4)
    assert len(ball) == 161
    forms = set()
    for f in ball:
        nf = to_normal_form(f)
        assert equals(from_normal_form(nf), f)
        forms.add((nf.positive, nf.negative))
    assert len(forms) == len(ball)


def test_generator_ball_is_the_walk_over_words():
    # the oracle keeps every element it has seen and multiplies words letter by letter
    sizes = []
    for r in range(6):
        ball = generator_ball(r)
        assert [f.terms for f in ball] == [f.terms for f in ball_by_words(r)]
        sizes.append(len(ball))
    assert sizes == [1, 5, 17, 53, 161, 475]


def test_negative_radius_is_rejected():
    assert generator_ball(0) == [GroupElement.identity()]
    for radius in (-1, -3):
        with pytest.raises(ValueError, match="^radius must be >= 0$"):
            generator_ball(radius)


def test_parse_and_format_normal_form():
    nf = parse_normal_form("x0 x2 x1^-1")
    assert nf.positive == (0, 2) and nf.negative == (1,)
    assert str(nf) == "x0 x2 x1^-1"
    assert str(parse_normal_form("e")) == "e"
    with pytest.raises(ValueError):
        parse_normal_form("y3")
    with pytest.raises(ValueError):
        parse_normal_form("x1 x0")  # violates normal-form ordering


def test_parse_generator_word_loose():
    letters = parse_generator_word("x1 x0 x0^-1")
    assert letters == [(1, 1), (0, 1), (0, -1)]
    assert equals(element_of_word(letters), gen_x(1))
    assert element_of_word([]).is_identity()


def test_a_word_builds_each_distinct_generator_once(monkeypatch):
    rng = random.Random(12)
    letters = [(rng.randrange(64), rng.choice((1, -1))) for _ in range(1000)]
    built = []
    make = generators.gen_x

    def counting_gen_x(k):
        built.append(k)
        return make(k)

    monkeypatch.setattr(generators, "gen_x", counting_gen_x)
    f = element_of_word(letters)
    assert sorted(built) == sorted({k for k, _ in letters})
    # shared letters make the product of fresh ones, taken letter by letter
    fresh = [make(k) if sign > 0 else inverse(make(k)) for k, sign in letters]
    assert f == functools.reduce(multiply, fresh)


def test_generators_match_their_closed_form():
    for k in range(65):
        assert gen_x(k).terms == generator_terms(k), k
        assert inverse(gen_x(k)).terms == generator_terms(k, -1), k


def test_long_words_multiply_out_as_the_letter_product():
    rng = random.Random(10)
    for _ in range(30):
        letters = [(rng.randint(0, 8), rng.choice((1, -1))) for _ in range(rng.randint(0, 40))]
        f = element_of_word(letters)
        assert f.terms == product_of_word(letters)
        assert f == GroupElement(product_of_word(letters))
        assert to_normal_form(f) == to_normal_form(GroupElement(f.terms))


def test_words_up_to_200_letters_multiply_out_as_the_letter_product():
    # element_of_word multiplies a balanced tree of products; the oracle goes letter by letter
    rng = random.Random(11)
    words = [[(0, 1)] * n for n in (1, 2, 3, 64, 200)] + [[(0, -1)] * 131]
    words += [[(i % 8, 1) for i in range(n)] for n in (7, 9, 200)]
    words += [[(i % 5, -1) for i in range(n)] for n in (33, 150)]
    words += [
        [(rng.randrange(64), rng.choice((1, -1))) for _ in range(n)] for n in (5, 17, 100, 200)
    ]
    for letters in words:
        f, want = element_of_word(letters), product_of_word(letters)
        assert f.terms == want and f == GroupElement(want), letters


def test_normal_form_of_random_words():
    rng = random.Random(9)
    for _ in range(80):
        letters = [
            (rng.randint(0, 2), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 7))
        ]
        f = element_of_word(letters)
        assert f.terms == product_of_word(letters)
        nf = to_normal_form(f)
        assert equals(from_normal_form(nf), f)
