import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftrees.dyadic import Dyadic
from ftrees.words import (
    CompleteCode,
    Ordering,
    check_word,
    common_refinement,
    is_prefix,
    kraft_sum,
    lex_compare,
    word_to_str,
)

from oracles import common_refinement_by_scan, first_bad_letter, is_antichain, word_from_str

words = st.text(alphabet="12", max_size=7)


def codes_with_leaves(n: int) -> list[tuple[str, ...]]:
    """All complete codes with exactly n leaves (leaf sets of binary trees)."""
    if n == 1:
        return [("",)]
    out = []
    for k in range(1, n):
        for left in codes_with_leaves(k):
            for right in codes_with_leaves(n - k):
                out.append(
                    tuple("1" + w for w in left) + tuple("2" + w for w in right)
                )
    return out


def test_lex_compare_examples():
    assert lex_compare("211", "2121") is Ordering.BEFORE
    assert lex_compare("1", "11") is Ordering.PREFIX_RELATED
    assert lex_compare("22", "21") is Ordering.AFTER
    assert lex_compare("", "") is Ordering.PREFIX_RELATED


def test_is_prefix_examples():
    assert is_prefix("", "12")
    assert is_prefix("12", "122")
    assert not is_prefix("21", "122")


@given(words, words)
def test_lex_compare_antisymmetric(u, v):
    got = lex_compare(u, v)
    rev = lex_compare(v, u)
    if got is Ordering.PREFIX_RELATED:
        assert rev is Ordering.PREFIX_RELATED
        assert is_prefix(u, v) or is_prefix(v, u)
    else:
        assert {got, rev} == {Ordering.BEFORE, Ordering.AFTER}


def test_lex_total_order_on_antichain():
    code = CompleteCode(["11", "12", "21", "221", "222"])
    ws = list(code)
    for i, u in enumerate(ws):
        for v in ws[i + 1 :]:
            assert lex_compare(u, v) is Ordering.BEFORE
            assert lex_compare(v, u) is Ordering.AFTER


def test_kraft_examples():
    assert kraft_sum(["1", "211", "2121", "2122", "22"]) == 1
    assert kraft_sum([]) == 0
    assert kraft_sum(["12"]) == Dyadic(1, 2)


def test_common_refinement_examples():
    a = CompleteCode(["1", "21", "22"])
    b = CompleteCode(["11", "12", "2"])
    assert common_refinement(a, b).words == ("11", "12", "21", "22")
    c = CompleteCode(["1", "2"])
    assert common_refinement(c, c).words == ("1", "2")
    assert common_refinement(a, c).words == a.words


def test_common_refinement_properties():
    import random

    random.seed(1)
    pool = [c for n in range(1, 6) for c in codes_with_leaves(n)]
    for _ in range(200):
        a = CompleteCode(random.choice(pool))
        b = CompleteCode(random.choice(pool))
        r1 = common_refinement(a, b)
        r2 = common_refinement(b, a)
        assert r1.words == r2.words
        assert common_refinement(r1, a).words == r1.words
        assert common_refinement(r1, b).words == r1.words


def test_common_refinement_matches_scan_oracle():
    import random

    rng = random.Random(17)

    def random_code(leaves: int) -> CompleteCode:
        words = [""]
        while len(words) < leaves:
            i = rng.randrange(len(words))
            words[i : i + 1] = [words[i] + "1", words[i] + "2"]
        return CompleteCode(words)

    for _ in range(300):
        a, b = random_code(rng.randint(1, 64)), random_code(rng.randint(1, 64))
        assert common_refinement(a, b).words == common_refinement_by_scan(a.words, b.words)


def test_code_characterization_and_catalan():
    # codes with n leaves are exactly the antichains with Kraft sum 1;
    # their number is the Catalan number C(n-1)
    catalan = [1, 1, 2, 5, 14]
    for n in range(1, 6):
        enumerated = codes_with_leaves(n)
        assert len(set(enumerated)) == catalan[n - 1]
        for ws in enumerated:
            assert is_antichain(ws)
            assert kraft_sum(ws) == 1
            CompleteCode(ws)


@settings(max_examples=300)
@given(st.lists(words, max_size=6))
def test_complete_code_accepts_iff_antichain_kraft_one(ws):
    ok = is_antichain(ws) and kraft_sum(ws) == 1 and len(ws) > 0
    try:
        CompleteCode(ws)
        built = True
    except ValueError:
        built = False
    assert built == ok


def test_complete_code_rejections():
    with pytest.raises(ValueError):
        CompleteCode(["1", "11", "12", "2"])  # prefix violation
    with pytest.raises(ValueError):
        CompleteCode(["11", "12"])  # Kraft sum 1/2
    with pytest.raises(ValueError):
        CompleteCode(["1", "23"])  # bad letter
    assert "11" in CompleteCode(["11", "12", "2"]) and "1" not in CompleteCode(["11", "12", "2"])


def test_word_str_round_trip():
    assert word_to_str("") == "e"
    assert word_from_str("e") == ""
    assert word_from_str("121") == "121"
    with pytest.raises(ValueError):
        word_from_str("13")


def test_check_word_matches_a_letter_by_letter_oracle():
    rng = random.Random(12)
    # spaces, newlines and digits that are not ASCII are letters too
    pool = "1212121203e \n\t１٢"
    cases = ["", " ", "\n", "１", "1 ", "\n1", "12１2", "13", "2221"]
    cases += ["".join(rng.choice(pool) for _ in range(rng.randrange(12))) for _ in range(3000)]
    valid = 0
    for w in cases:
        bad = first_bad_letter(w)
        if bad is None:
            valid += 1
            assert check_word(w) == w
        else:
            with pytest.raises(ValueError) as info:
                check_word(w)
            assert str(info.value) == f"invalid letter {bad!r} in word {w!r}"
    assert 100 < valid < len(cases) - 100
    with pytest.raises(ValueError, match=r"^invalid letter '3' in word '13'$"):
        check_word("13")
