import operator
import re
import time
from fractions import Fraction

import pytest

from ftrees.dyadic import Dyadic

from oracles import exact_digits


def test_lowest_terms():
    assert Dyadic(4, 3) == Dyadic(1, 1)
    assert Dyadic(6, 4) == Dyadic(3, 3)
    assert Dyadic(0, 5).exponent == 0
    assert Dyadic(8, 2) == Dyadic(2, 0)


def test_lowest_terms_of_large_and_signed_values():
    t0 = time.perf_counter()
    assert Dyadic(1 << 40000, 40000) == 1
    assert time.perf_counter() - t0 < 0.05
    assert Dyadic(0, 5) == Dyadic(0)
    assert repr(Dyadic(0, 5)) == repr(Dyadic(0)) == "Dyadic(0, 0)"
    assert repr(Dyadic(-12, 3)) == "Dyadic(-3, 1)"
    assert repr(Dyadic(-(1 << 50), 60)) == "Dyadic(-1, 10)"


def test_values_of_more_than_4300_digits_print_every_digit():
    big = 3 ** 10000  # 4,772 digits
    assert str(Dyadic(big, 7)) == f"{exact_digits(big)}/128"
    assert str(Dyadic(-big)) == f"-{exact_digits(big)}"
    assert str(Dyadic(1, 15000)) == f"1/{exact_digits(1 << 15000)}"
    assert repr(Dyadic(big, 7)) == f"Dyadic({exact_digits(big)}, 7)"


COMPARISONS = (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge)


def test_arithmetic_matches_fractions():
    import random

    random.seed(0)
    for _ in range(500):
        a = Dyadic(random.randint(-40, 40), random.randint(0, 6))
        b = Dyadic(random.randint(-40, 40), random.randint(0, 6))
        fa = Fraction(a.numerator, 2 ** a.exponent)
        fb = Fraction(b.numerator, 2 ** b.exponent)
        for got, want in (
            (a + b, fa + fb),
            (a - b, fa - fb),
            (a * b, fa * fb),
        ):
            assert Fraction(got.numerator, 2 ** got.exponent) == want
        n = random.randint(-3, 3)
        for op in COMPARISONS:
            assert op(a, b) == op(fa, fb)
            # an int on either side
            assert op(a, n) == op(fa, n) and op(n, a) == op(n, fa)


def test_int_interop():
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 1 - Dyadic(1, 2) == Dyadic(3, 2)
    assert 2 * Dyadic(3, 2) == Dyadic(3, 1)
    assert Dyadic(2, 0) == 2
    assert Dyadic(3, -2) == 12  # a negative exponent scales the numerator up
    assert abs(Dyadic(-3, 2)) == Dyadic(3, 2)
    assert Dyadic(1, 1) <= 1 and 1 < Dyadic(3, 1) and Dyadic(4, 2) >= 1 and not 0 > Dyadic(1, 3)
    # comparing with a value that is no dyadic rational is an error; equality is False
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(Dyadic(1), "x")
        with pytest.raises(TypeError):
            op("x", Dyadic(1))
    assert Dyadic(1) != "x"


def test_equal_values_hash_equal():
    for a, b in ((Dyadic(1), 1), (Dyadic(8, 2), 2), (Dyadic(-3), -3), (Dyadic(0, 4), 0)):
        assert a == b and hash(a) == hash(b)
    assert len({Dyadic(1), 1, Dyadic(2, 1)}) == 1
    assert Dyadic(6, 4) in {Dyadic(3, 3)}


def test_str_lowest_terms():
    assert str(Dyadic(5, 3)) == "5/8"
    assert str(Dyadic(1, 0)) == "1"
    assert str(Dyadic(0, 0)) == "0"
    assert str(Dyadic(2, 2)) == "1/2"


def test_scaled():
    assert Dyadic(5, 3).scaled(3) == 5
    assert Dyadic(5, 3).scaled(5) == 20
    with pytest.raises(ValueError):
        Dyadic(5, 3).scaled(2)


def test_only_integers_build_a_dyadic():
    half = Fraction(1, 2)
    for args, bad in (((0.5,), 0.5), ((1, 0.5), 0.5), ((half,), half), (("1",), "1"), ((3, 2.0), 2.0)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            Dyadic(*args)
