import contextlib
import copy
import io
import json
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from ftrees import cli, omega
from ftrees._packed import interval
from ftrees.elements import (
    GroupElement,
    NotInF,
    NotUnitary,
    Side,
    TargetNotARefinement,
    Term,
    _reduce_terms,
    abelianization,
    height,
    in_commutator_subgroup,
    inverse,
    is_cyclic_order_preserving,
    is_order_preserving,
    multiply,
    multiply_terms,
    parity_split,
    reduce,
    refine,
    validate_unitary,
)
from ftrees.generators import (
    element_of_word, from_normal_form, gen_x, generator_ball, to_normal_form,
)
from ftrees.omega import ONE, act, realize
from ftrees.representation import independence_certificate
from ftrees.words import CompleteCode, kraft_sum

from oracles import (
    _all_words,
    common_refinement_by_scan,
    compose_values,
    composition_agrees,
    eval_element,
    first_bad_letter,
    is_antichain,
    merge_siblings,
    multiply_terms_by_match,
    pl_equal,
    position_map,
    product_of_word,
    random_normal_form,
    refine_by_scan,
)

X0 = gen_x(0)

# the worked-product golden pair: u = x0 composed with this w
W_TERMS = [
    ("111", "11"),
    ("112", "121"),
    ("12", "122"),
    ("211", "21"),
    ("212", "221"),
    ("22", "222"),
]
W = GroupElement.from_terms(W_TERMS)

REFINED_U = [
    ("1111", "111"),
    ("1112", "112"),
    ("1121", "121"),
    ("1122", "122"),
    ("121", "211"),
    ("122", "212"),
    ("21", "221"),
    ("22", "222"),
]
REFINED_W = [
    ("111", "11"),
    ("112", "121"),
    ("121", "1221"),
    ("122", "1222"),
    ("211", "21"),
    ("212", "221"),
    ("221", "2221"),
    ("222", "2222"),
]
PRODUCT_DISPLAY = [
    ("1111", "11"),
    ("1112", "121"),
    ("1121", "1221"),
    ("1122", "1222"),
    ("121", "21"),
    ("122", "221"),
    ("21", "2221"),
    ("22", "2222"),
]


def random_code(rng: random.Random, leaves: int) -> list[str]:
    """Leaves, in lex order, of a binary tree grown by splitting random leaves."""
    words = [""]
    while len(words) < leaves:
        i = rng.randrange(len(words))
        words[i : i + 1] = [words[i] + "1", words[i] + "2"]
    return words


def random_element(rng: random.Random, leaves: int) -> GroupElement:
    """Reduced element of a random tree pair; in V with its leaves
    permuted half of the time, else in F."""
    alphas, betas = random_code(rng, leaves), random_code(rng, leaves)
    if rng.random() < 0.5:
        rng.shuffle(betas)
    return GroupElement.from_terms(zip(alphas, betas))


def split_some(rng: random.Random, words: tuple[str, ...]) -> CompleteCode:
    """A code refining `words`: each word split into two children a third
    of the time, once more for one of them a third of the time after."""
    out: list[str] = []
    for w in words:
        if rng.random() < 1 / 3:
            kids = [w + "1", w + "2"]
            if rng.random() < 1 / 3:
                k = rng.randrange(2)
                kids[k : k + 1] = [kids[k] + "1", kids[k] + "2"]
            out += kids
        else:
            out.append(w)
    return CompleteCode(out)


def coarsen(rng: random.Random, words: tuple[str, ...]) -> CompleteCode:
    """`words` with one random full sibling pair merged into its parent
    (unchanged when there is none)."""
    pairs = [i for i in range(len(words) - 1) if words[i + 1] == words[i][:-1] + "2"]
    if not pairs:
        return CompleteCode(words)
    i = rng.choice(pairs)
    return CompleteCode(words[:i] + (words[i][:-1],) + words[i + 2 :])


def random_pairs(seed: int, count: int) -> list[tuple[GroupElement, GroupElement]]:
    rng = random.Random(seed)
    return [
        (random_element(rng, rng.randint(1, 64)), random_element(rng, rng.randint(1, 64)))
        for _ in range(count)
    ]


def test_validate_unitary_golden():
    assert X0.terms == (Term("11", "1"), Term("12", "21"), Term("2", "22"))
    assert GroupElement.from_terms([("", "")]).is_identity()


def test_constructor_canonicalizes_and_checks_its_terms():
    shuffled = GroupElement(reversed(X0.terms))
    assert shuffled == X0 and hash(shuffled) == hash(X0)
    assert shuffled.terms == X0.terms
    assert is_order_preserving(shuffled)
    assert to_normal_form(shuffled) == to_normal_form(X0)
    assert independence_certificate([shuffled]) == independence_certificate([X0])
    # 11 + 12 + 2 in two pieces is 1 + 2, that is x0 refined
    assert GroupElement([("2", "22"), ("111", "11"), ("12", "21"), ("112", "12")]) == X0
    assert GroupElement([("", "")]) == GroupElement.identity()
    with pytest.raises(NotUnitary, match="^range side: Kraft sum"):
        GroupElement([("1", "1")])
    with pytest.raises(NotUnitary, match="^empty term list"):
        GroupElement([])


def test_validate_unitary_rejects_incomplete():
    with pytest.raises(NotUnitary):
        validate_unitary([Term("11", "1"), Term("12", "21")])
    with pytest.raises(NotUnitary):
        validate_unitary([])
    with pytest.raises(NotUnitary):
        validate_unitary([Term("1", "1"), Term("2", "21"), Term("21", "2")])


def random_pairing(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    """Two random codes of n words, paired in order, rotated or shuffled."""
    alphas, betas = random_code(rng, n), random_code(rng, n)
    r = rng.randrange(n)
    pairing = rng.choice(["identity", "rotated", "shuffled"])
    if pairing == "rotated":
        betas = betas[r:] + betas[:r]
    elif pairing == "shuffled":
        rng.shuffle(betas)
    return alphas, betas


def broken_term_list(rng: random.Random) -> list[Term]:
    """A random term list: a valid tree pair (paired in order, rotated or
    shuffled, some terms split into both children), or one with a side
    broken by dropping, repeating or extending a word or by a bad letter."""
    alphas, betas = random_pairing(rng, rng.randint(1, 24))
    pairs = []
    for a, b in zip(alphas, betas):
        if rng.random() < 0.2:
            pairs += [(a + "1", b + "1"), (a + "2", b + "2")]
        else:
            pairs.append((a, b))
    how = rng.choice(["valid", "drop", "repeat", "extend", "letter"])
    side = rng.randrange(2)
    sides = [[p[0] for p in pairs], [p[1] for p in pairs]]
    ws, i = sides[side], rng.randrange(len(pairs))
    if how == "drop":
        # the other side stays a complete code of one word fewer: a
        # sibling pair merged into its parent, when it has one
        other = sides[1 - side]
        kids = [j for j, w in enumerate(other) if w.endswith("1") and w[:-1] + "2" in other]
        del ws[i]
        if kids:
            w = other[kids[0]][:-1]
            other.remove(w + "2")
            other[other.index(w + "1")] = w
        else:
            del other[i]
    elif how == "repeat":
        ws[i] = ws[rng.randrange(len(ws))]
    elif how == "extend":
        ws[i] = ws[rng.randrange(len(ws))] + rng.choice("12")
    elif how == "letter":
        ws[i] = ws[i] + rng.choice("03x")
    return [Term(a, b) for a, b in zip(*sides)]


def rejection(words: list[str]) -> str | None:
    """The oracle: why the words are not a complete code, if they are not."""
    if not all(ch in "12" for w in words for ch in w):
        return "invalid letter"
    if not is_antichain(words):
        return "not an antichain"
    if kraft_sum(words) != 1:
        return "Kraft sum"
    return None


def test_validate_unitary_matches_code_oracles():
    rng = random.Random(81)
    seen = {"range": 0, "domain": 0, "valid": 0}
    for _ in range(600):
        terms = broken_term_list(rng)
        if not terms:
            with pytest.raises(NotUnitary, match="^empty term list"):
                validate_unitary(terms)
            continue
        alphas, betas = [t.alpha for t in terms], [t.beta for t in terms]
        for side, words in (("range", alphas), ("domain", betas)):
            why = rejection(words)
            if why is not None:
                seen[side] += 1
                with pytest.raises(NotUnitary, match=f"^{side} side: {why}"):
                    validate_unitary(terms)
                break
        else:
            seen["valid"] += 1
            got = validate_unitary(terms)
            # the canonical form: alpha-sorted, no sibling pair left to
            # merge, and the input is its refinement to the input's alphas
            assert list(got.terms) == sorted(got.terms)
            assert not any(
                a.alpha[:-1] == b.alpha[:-1] and a.beta[:-1] == b.beta[:-1]
                and a.alpha[-1:] == a.beta[-1:] == "1" and b.alpha[-1:] == b.beta[-1:] == "2"
                for a, b in zip(got.terms, got.terms[1:])
            )
            assert refine_by_scan(got, CompleteCode(alphas), Side.RANGE) == sorted(terms)
    assert min(seen.values()) >= 100, seen


def unitary_message(terms: list[Term]) -> str | None:
    """The oracle: the exact message that rejects a term list, if any.
    The range side is read first; on a side, a bad letter (the first word
    in input order) comes before a prefix pair, and that before the Kraft
    sum, summed here as a fraction."""
    if not terms:
        return "empty term list (group elements are never zero)"
    for side, words in (("range", [t.alpha for t in terms]), ("domain", [t.beta for t in terms])):
        bad = [(w, first_bad_letter(w)) for w in words if first_bad_letter(w) is not None]
        ws = tuple(sorted(words))
        if bad:
            return f"{side} side: invalid letter {bad[0][1]!r} in word {bad[0][0]!r}"
        if not is_antichain(words):
            return f"{side} side: not an antichain: {ws}"
        total = sum(Fraction(1, 2 ** len(w)) for w in words)
        if total != 1:
            return f"{side} side: Kraft sum of {ws} is {total}, not 1"
    return None


def test_validate_unitary_messages_match_the_oracle_byte_for_byte():
    rng = random.Random(83)
    cases = [[], [Term("1", "1"), Term("1", "2")], [Term("11", "x"), Term("3", "1")]]
    for _ in range(800):
        terms = broken_term_list(rng)
        if rng.random() < 0.2:
            # a bad letter on each side, or an overlap after a gap
            i = rng.randrange(len(terms))
            t = terms[i]
            terms[i] = Term(t.alpha + "x", t.beta + "0") if rng.random() < 0.5 else Term("1", t.beta)
        cases.append(terms)
    kinds = set()
    for terms in cases:
        want = unitary_message(terms)
        if want is None:
            assert validate_unitary(terms).terms == merge_siblings(terms)
            assert GroupElement(terms) == validate_unitary(terms)
            continue
        # the constructor checks like validate_unitary, with the same message
        for build in (validate_unitary, GroupElement):
            with pytest.raises(NotUnitary) as info:
                build(terms)
            assert str(info.value) == want
        kind = next(k for k in ("empty", "letter", "antichain", "Kraft") if k in want)
        kinds.add((want.split()[0], kind))
    # the empty list, and each kind of rejection on each side
    assert len(kinds) == 7, kinds


def element_text(terms) -> str:
    """The CLI text of a term list: "e" is the empty word."""
    return " + ".join(f"{a or 'e'}:{b or 'e'}" for a, b in terms)


def test_the_text_parser_agrees_with_validate_unitary_byte_for_byte():
    rng = random.Random(85)
    cases = [terms for terms in (broken_term_list(rng) for _ in range(600)) if terms]
    # a bad letter on each side; the range side's is reported
    cases += [[Term("11", "x"), Term("3", "1")], [Term("1", "1x"), Term("2", "0")]]
    for terms in cases:
        want = unitary_message(terms)
        as_json = json.dumps({"terms": [[a or "e", b or "e"] for a, b in terms]})
        for text, json_mode in ((element_text(terms), False), (as_json, True)):
            if want is None:
                got = cli.parse_element(text, json_mode)
                assert got == validate_unitary(terms)
                assert got.terms == validate_unitary(terms).terms
                continue
            with pytest.raises(NotUnitary) as info:
                cli.parse_element(text, json_mode)
            assert str(info.value) == want


def test_an_element_read_from_words_keeps_only_its_intervals():
    # one representation however an element is built: the words of `terms` are made
    # from the intervals on each read, also when the input words were already reduced
    rng = random.Random(88)
    merged = Counter()
    for n in range(120):
        alphas, betas = random_pairing(rng, rng.randint(1, 12))
        terms = [Term(a, b) for a, b in zip(alphas, betas)]
        rng.shuffle(terms)
        want = merge_siblings(terms)
        merged[len(want) < len(terms)] += 1
        as_json = json.dumps({"terms": [[a or "e", b or "e"] for a, b in terms]})
        built = [
            cli.parse_element(element_text(terms)),
            cli.parse_element(as_json, True),
            GroupElement(terms),
            validate_unitary(terms),
        ]
        for f in built:
            assert "terms" not in vars(f), n
            text = str(f)
            assert "terms" not in vars(f) and text == str(built[0]), n
            assert f.terms == want and "terms" not in vars(f), n
            assert str(f) == text == element_text(want), n
    # inputs already reduced, whose words were once kept, and inputs that merge
    assert merged[False] >= 30 and merged[True] >= 30, merged


def test_no_reader_of_an_element_keeps_its_words():
    # every constructor, then every reader of the words: an element holds its intervals,
    # its recorded F membership and, once it has acted, its compiled map, and nothing else
    rng = random.Random(89)
    kinds = Counter()
    for n in range(60):
        alphas, betas = random_pairing(rng, rng.randint(1, 12))
        terms = list(zip(alphas, betas))
        nf = random_normal_form(rng, rng.randint(0, 16))
        u, w = GroupElement(terms), from_normal_form(nf)
        as_json = json.dumps({"terms": [[a or "e", b or "e"] for a, b in terms]})
        built = [
            cli.parse_element(element_text(terms)),
            cli.parse_element(as_json, True),
            u,
            w,
            multiply(u, w),
            w * u,
            inverse(u),
            ~w,
            realize(act(w, ONE)),
        ]
        for f in built:
            kinds[is_order_preserving(f)] += 1
            if is_order_preserving(f):
                act(f, ONE)
            words = f.terms
            assert f.terms == words and str(f) == element_text(words), n
            assert json.loads(cli.format_element(f, as_json=True)) == {
                "terms": [[a or "e", b or "e"] for a, b in words]
            }, n
            cli.export_dot("bipartite", f)
            cli.export_dot("treepair", f)
            even, odd = parity_split(f)
            assert sorted(even + odd) == list(words), n
            for g in (f, copy.copy(f), pickle.loads(pickle.dumps(f))):
                assert g == f and g.terms == words, n
                assert "terms" not in vars(g), n
                assert set(vars(g)) == {"_quads", "_in_f"}, n
    assert kinds[True] >= 200 and kinds[False] >= 50, kinds


def run_separate(texts: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["separate", *texts])
    return code, out.getvalue(), err.getvalue()


def test_separate_reads_each_element_of_a_family_with_the_same_answers():
    rng = random.Random(86)
    cases = [terms for terms in (broken_term_list(rng) for _ in range(300)) if terms]
    family = []  # distinct elements of F, in the order met
    for terms in cases:
        if unitary_message(terms) is None:
            f = validate_unitary(terms)
            if is_order_preserving(f) and f not in family:
                family.append(f)
    assert len(family) >= 20
    # the family's words repeat from element to element; the certificate is
    # the one of the elements parsed one by one
    texts = [element_text(f.terms) for f in family]
    code, out, err = run_separate(texts)
    assert (code, err) == (0, "")
    assert out == json.dumps(independence_certificate(family).to_json(), sort_keys=True) + "\n"
    # a bad word first met in a later element: exit 2, one line naming it
    first, second = family[0], family[1]
    seen = 0
    for terms in cases:
        want = unitary_message(terms)
        if want is None:
            continue
        code, out, err = run_separate([element_text(first.terms), element_text(second.terms),
                                       element_text(terms)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {want[:cli.MAX_ERROR_CHARS]}") and err.count("\n") == 1
        seen += "letter" in want
    assert seen >= 20
    # the third element repeats every word of the first two but one, which has a bad letter
    terms = [*first.terms[:-1], Term(first.terms[-1].alpha, second.terms[0].beta + "x")]
    want = unitary_message(terms)
    assert want == f"domain side: invalid letter 'x' in word {second.terms[0].beta + 'x'!r}"
    code, out, err = run_separate([element_text(first.terms), element_text(second.terms),
                                   element_text(terms)])
    assert (code, out, err) == (2, "", f"error: {want}\n")


def test_products_of_v_elements_are_the_merged_dictionary_match():
    pairs = random_pairs(14, 300)
    outside_f = sum(position_map(u) != sorted(position_map(u)) for u, _ in pairs)
    assert outside_f >= 100
    for u, w in pairs:
        prod = multiply(u, w)
        assert prod.terms == merge_siblings(multiply_terms_by_match(u, w))
        # the inverse swaps the words of each term, alpha-sorted
        assert inverse(u).terms == tuple(sorted(Term(b, a) for a, b in u.terms))
        assert multiply(prod, inverse(w)) == u


def test_equal_elements_are_equal_and_hash_equal_however_built():
    rng = random.Random(84)
    for _ in range(60):
        nf = random_normal_form(rng, rng.randint(0, 24))
        words = product_of_word(nf.letters())
        x = gen_x(rng.randint(0, 4))
        finer = CompleteCode(
            common_refinement_by_scan(tuple(t.alpha for t in words), tuple(_all_words(3)))
        )
        # a term split into its two children, moved apart: unreduced and unsorted
        i = rng.randrange(len(words))
        a, b = words[i]
        split = [(a + "2", b + "2"), *words[:i], *words[i + 1 :], (a + "1", b + "1")]
        built = [
            from_normal_form(nf),
            GroupElement(words),
            GroupElement(reversed(words)),
            GroupElement(split),
            validate_unitary(refine_by_scan(GroupElement(words), finer, Side.RANGE)),
            element_of_word(nf.letters()),
            multiply(multiply(from_normal_form(nf), x), inverse(x)),
        ]
        assert all(f == built[0] and hash(f) == hash(built[0]) for f in built), nf
        assert len(set(built)) == 1
        assert all(f.terms == words for f in built)


def test_f_and_t_membership_match_the_position_map():
    rng = random.Random(82)
    kinds = {"F": 0, "T": 0, "V": 0}
    for _ in range(600):
        alphas, betas = random_pairing(rng, rng.randint(1, 20))
        f = GroupElement.from_terms(zip(alphas, betas))
        pm = position_map(f)
        m = len(pm)
        in_f = pm == list(range(m))
        in_t = pm == [(pm[0] + i) % m for i in range(m)]
        assert is_order_preserving(f) == in_f, f
        assert is_cyclic_order_preserving(f) == in_t, f
        kinds["F" if in_f else "T" if in_t else "V"] += 1
    assert min(kinds.values()) >= 50, kinds


def kind_by_position(f: GroupElement) -> str:
    """The oracle: "F", "T" or "V", the smallest of the three groups holding f."""
    pm = position_map(f)
    m = len(pm)
    return "F" if pm == list(range(m)) else "T" if pm == [(pm[0] + i) % m for i in range(m)] else "V"


def recorded_in_f(f: GroupElement) -> bool:
    """F membership as the constructor recorded it; fails if it recorded none."""
    assert "_in_f" in vars(f), f
    return vars(f)["_in_f"]


def test_recorded_f_membership_matches_the_position_map_for_every_constructor():
    rng = random.Random(87)
    pool = []
    for _ in range(300):
        terms = list(zip(*random_pairing(rng, rng.randint(1, 16))))
        want = kind_by_position(GroupElement(terms)) == "F"
        as_json = json.dumps({"terms": [[a or "e", b or "e"] for a, b in terms]})
        rng.shuffle(terms)
        parsed = [cli.parse_element(element_text(terms)), cli.parse_element(as_json, True)]
        for f in [GroupElement(terms), validate_unitary(terms), *parsed]:
            assert recorded_in_f(f) == want, terms
        pool.append(f)
    nfs = [random_normal_form(rng, rng.randint(0, 30)) for _ in range(60)]
    pool += [from_normal_form(nf) for nf in nfs] + [GroupElement.identity()]
    pool += generator_ball(3)
    for f in pool:
        assert recorded_in_f(f) == (kind_by_position(f) == "F"), f
    # every F/T/V pair: a product records its membership, whatever its left factor
    kinds = {}
    for u in pool:
        kinds.setdefault(kind_by_position(u), []).append(u)
    assert min(map(len, kinds.values())) >= 40, {k: len(v) for k, v in kinds.items()}
    for ku in kinds.values():
        for kw in kinds.values():
            for _ in range(100):
                u, w = rng.choice(ku), rng.choice(kw)
                uw, inv = multiply(u, w), inverse(u)
                assert recorded_in_f(inv) == (kind_by_position(inv) == "F"), u
                assert recorded_in_f(uw) == (kind_by_position(uw) == "F"), (u, w)
                assert is_order_preserving(uw) == (kind_by_position(uw) == "F"), (u, w)


def test_realize_records_f_membership_and_keeps_no_interval_map(monkeypatch):
    built = []

    def spy(quads, in_f=None):
        built.append(in_f)
        return element(quads, in_f)

    element = omega._element
    monkeypatch.setattr(omega, "_element", spy)
    for f in generator_ball(3):
        g = realize(act(f, ONE))
        # the witness is built once, recorded in F by its certificate's tilings
        assert built.pop() is True and not built
        assert recorded_in_f(g) and kind_by_position(g) == "F"
        # the certificate's f . 1 compiles a map that the witness does not keep
        assert set(vars(g)) == {"_quads", "_in_f"}


def test_reduction_undoes_every_split_as_the_oracle_does():
    rng = random.Random(88)
    seen = {"F": 0, "T": 0, "V": 0}
    for _ in range(200):
        f = GroupElement(zip(*random_pairing(rng, rng.randint(1, 12))))
        seen[kind_by_position(f)] += 1
        split = []
        for a, b in f.terms:
            # all 2^k suffix pairs: the merges cascade k levels up
            k = rng.randint(1, 6)
            split += [Term(a + s, b + s) for s in _all_words(k)]
        assert merge_siblings(split) == f.terms
        assert _reduce_terms([interval(a) + interval(b) for a, b in sorted(split)]) == f._quads
        rng.shuffle(split)
        assert validate_unitary(split) == f and validate_unitary(split).terms == f.terms
    assert min(seen.values()) >= 30, seen


def test_refine_worked_example():
    level3 = CompleteCode(_all_words(3))
    got = refine(X0, level3, Side.DOMAIN)
    assert [(t.alpha, t.beta) for t in got] == REFINED_U
    got_w = refine(W, level3, Side.RANGE)
    assert [(t.alpha, t.beta) for t in got_w] == REFINED_W


def test_refine_trivial_cases():
    assert refine(GroupElement.identity(), CompleteCode(["1", "2"]), Side.DOMAIN) == [
        Term("1", "1"),
        Term("2", "2"),
    ]
    assert refine(X0, CompleteCode(["1", "21", "22"]), Side.DOMAIN) == list(X0.terms)
    with pytest.raises(TargetNotARefinement):
        refine(X0, CompleteCode(["1", "2"]), Side.DOMAIN)


def test_refine_preserves_degrees_and_round_trips():
    random.seed(2)
    ball = generator_ball(3)
    deeper = CompleteCode(_all_words(5))
    for f in random.sample(ball, 20):
        for side in (Side.DOMAIN, Side.RANGE):
            terms = refine(f, deeper, side)
            assert set(t.degree for t in terms) == set(t.degree for t in f.terms)
            assert reduce(terms).terms == f.terms


def test_multiply_worked_product():
    got = multiply_terms(X0, W, CompleteCode(_all_words(3)))
    assert [(t.alpha, t.beta) for t in got] == PRODUCT_DISPLAY
    # the displayed sum is not sibling-reduced; canonically it has 6 terms
    assert multiply(X0, W).terms == validate_unitary(
        [Term(a, b) for a, b in PRODUCT_DISPLAY]
    ).terms
    assert len(multiply(X0, W).terms) == 6


def test_multiply_identity_and_inverse():
    e = GroupElement.identity()
    ball = generator_ball(2)
    for f in ball:
        assert multiply(f, e).terms == f.terms
        assert multiply(e, f).terms == f.terms
        assert multiply(f, inverse(f)).is_identity()
        assert multiply(inverse(f), f).is_identity()
        assert inverse(inverse(f)).terms == f.terms
    x1 = gen_x(1)
    assert X0 * x1 == multiply(X0, x1)
    assert ~X0 == inverse(X0)


def test_inverse_golden():
    assert [(t.alpha, t.beta) for t in inverse(X0).terms] == [
        ("1", "11"),
        ("21", "12"),
        ("22", "2"),
    ]


def test_inverse_of_f_t_and_v_elements_recorded_or_not_is_the_sorted_swap():
    # the inverse of an element recorded in F skips the sort
    rng = random.Random(24)
    kinds = Counter()
    for _ in range(300):
        f = GroupElement(zip(*random_pairing(rng, rng.randint(1, 40))))
        kinds[is_order_preserving(f), is_cyclic_order_preserving(f)] += 1
        want = tuple(sorted(Term(b, a) for a, b in f.terms))
        inv = inverse(f)
        assert inv.terms == want and inv == reduce(want)
        assert recorded_in_f(inv) == recorded_in_f(f)
    assert min(kinds.values()) >= 50 and len(kinds) == 3


def test_multiplying_by_a_non_element_raises_type_error():
    # `__mul__` returns NotImplemented, so Python names both operand types
    for other in (3, None):
        with pytest.raises(TypeError, match="unsupported operand"):
            X0 * other
        with pytest.raises(TypeError, match="unsupported operand"):
            other * X0


def test_multiply_associative_on_ball():
    random.seed(3)
    ball = generator_ball(3)
    for _ in range(60):
        f, g, h = (random.choice(ball) for _ in range(3))
        assert multiply(multiply(f, g), h).terms == multiply(f, multiply(g, h)).terms


def test_multiply_against_pl_oracle():
    random.seed(4)
    ball = generator_ball(3)
    for _ in range(40):
        u, w = random.choice(ball), random.choice(ball)
        prod = multiply(u, w)
        grid = 1 + max(
            max(max(len(t.alpha), len(t.beta)) for t in e.terms)
            for e in (u, w, prod)
        )
        assert pl_equal(prod, compose_values(u, w, grid), grid)


def test_multiply_matches_match_oracle():
    rng = random.Random(12)
    for u, w in random_pairs(11, 300):
        got = multiply_terms(u, w)
        assert got == multiply_terms_by_match(u, w)
        assert multiply(u, w).terms == validate_unitary(got).terms
        middle = common_refinement_by_scan(
            tuple(sorted(t.beta for t in u.terms)), tuple(t.alpha for t in w.terms)
        )
        via = split_some(rng, middle)
        assert multiply_terms(u, w, via) == multiply_terms_by_match(u, w, via)


def test_multiply_of_random_pairs_against_pl_oracle():
    pairs = random_pairs(13, 120)
    assert any(not is_order_preserving(u) for u, _ in pairs)
    for u, w in pairs:
        prod = multiply(u, w)
        assert composition_agrees(prod, u, w)
        grid = 1 + max(max(len(a), len(b)) for f in (u, w, prod) for a, b in f.terms)
        if grid <= 8 and is_order_preserving(u) and is_order_preserving(w):
            assert pl_equal(prod, compose_values(u, w, grid), grid)


def test_composition_oracle_rejects_wrong_products():
    for u, w in random_pairs(14, 40):
        if u.is_identity() or w.is_identity():
            continue
        assert composition_agrees(multiply(w, u), u, w) == (multiply(w, u) == multiply(u, w))
        assert not composition_agrees(u, u, w)


def test_refine_raises_where_the_scan_oracle_raises():
    rng = random.Random(15)
    raised = 0
    for u, w in random_pairs(16, 200):
        for side in (Side.DOMAIN, Side.RANGE):
            words = tuple(sorted(t.beta if side is Side.DOMAIN else t.alpha for t in u.terms))
            other = tuple(t.alpha for t in w.terms)
            for target in (
                split_some(rng, words),
                CompleteCode(common_refinement_by_scan(words, other)),
                CompleteCode(other),
                coarsen(rng, words),
            ):
                try:
                    want = refine_by_scan(u, target, side)
                except TargetNotARefinement as exc:
                    raised += 1
                    with pytest.raises(TargetNotARefinement) as got:
                        refine(u, target, side)
                    if side is Side.RANGE or is_order_preserving(u):
                        # the first failing term is the same in alpha and beta order
                        assert str(got.value) == str(exc)
                    continue
                assert refine(u, target, side) == want
    assert raised > 100


def test_reduce_examples():
    got = reduce(
        [
            Term("111", "11"),
            Term("112", "12"),
            Term("12", "21"),
            Term("21", "221"),
            Term("22", "222"),
        ]
    )
    assert got.terms == X0.terms
    assert reduce(list(X0.terms)).terms == X0.terms


def test_canonical_form_unique_under_random_refinement():
    random.seed(5)
    ball = generator_ball(3)
    for _ in range(40):
        f = random.choice(ball)
        # refine the domain against a random code, then reduce back
        other = CompleteCode(t.beta for t in random.choice(ball).terms)
        from ftrees.words import common_refinement

        target = common_refinement(CompleteCode(t.beta for t in f.terms), other)
        assert reduce(refine(f, target, Side.DOMAIN)).terms == f.terms


def test_order_preserving_examples():
    assert is_order_preserving(X0)
    assert is_cyclic_order_preserving(X0)
    t_gen = GroupElement.from_terms([("22", "1"), ("1", "21"), ("21", "22")])
    assert not is_order_preserving(t_gen)
    assert is_cyclic_order_preserving(t_gen)
    crossing = GroupElement.from_terms([("21", "1"), ("22", "21"), ("1", "22")])
    assert not is_order_preserving(crossing)


def test_products_of_order_preserving_stay_in_f():
    ball = generator_ball(2)
    for f in ball:
        for g in ball:
            assert is_order_preserving(multiply(f, g))
            assert is_order_preserving(inverse(f))


def test_parity_split_examples():
    even, odd = parity_split(X0)
    assert even == (Term("12", "21"),)
    assert odd == (Term("11", "1"), Term("2", "22"))
    even_e, odd_e = parity_split(GroupElement.identity())
    assert even_e == (Term("", ""),) and odd_e == ()
    h = GroupElement.from_terms(
        [("1", "111"), ("211", "112"), ("2121", "12"), ("2122", "21"), ("22", "22")]
    )
    even_h, odd_h = parity_split(h)
    assert len(even_h) == 5 and odd_h == ()


def test_gauge_grading_of_products():
    # (fg)_0 terms arise exactly from even*even and odd*odd matchings
    from ftrees.words import common_refinement

    random.seed(6)
    ball = generator_ball(2)
    for _ in range(40):
        f, g = random.choice(ball), random.choice(ball)
        fg = multiply(f, g)
        via = common_refinement(
            CompleteCode(t.beta for t in f.terms), CompleteCode(t.alpha for t in g.terms)
        )
        ru_by_beta = {t.beta: t for t in refine(f, via, Side.DOMAIN)}
        even_support = []
        for w_term in refine(g, via, Side.RANGE):
            u_term = ru_by_beta[w_term.alpha]
            product = Term(u_term.alpha, w_term.beta)
            assert product.degree == u_term.degree + w_term.degree
            if u_term.degree % 2 == w_term.degree % 2:
                even_support.append(product)
        # the even part of fg is the reduction of exactly these matchings
        even_fg, _ = parity_split(fg)
        got = sorted(t for t in reduce_partial(even_support))
        assert got == sorted(even_fg)


def reduce_partial(terms):
    """Sibling-merge a term list that need not be unitary."""
    stack = []
    for t in sorted(terms):
        stack.append(t)
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            if (
                a.alpha.endswith("1")
                and a.beta.endswith("1")
                and b.alpha == a.alpha[:-1] + "2"
                and b.beta == a.beta[:-1] + "2"
            ):
                stack[-2:] = [Term(a.alpha[:-1], a.beta[:-1])]
            else:
                break
    return stack


def test_height_examples():
    assert height(X0) == 1
    assert height(GroupElement.identity()) == 0
    h = GroupElement.from_terms(
        [("1", "111"), ("211", "112"), ("2121", "12"), ("2122", "21"), ("22", "22")]
    )
    assert height(h) == 2


def test_abelianization_examples():
    assert abelianization(X0) == (-1, 1)
    assert abelianization(GroupElement.identity()) == (0, 0)
    assert in_commutator_subgroup(GroupElement.identity())
    # homomorphism into Z^2, checked against the direct product
    x1 = gen_x(1)
    assert abelianization(x1) == (0, 1)
    prod = multiply(X0, x1)
    assert abelianization(prod) == (-1, 2)


def test_abelianization_is_homomorphism():
    random.seed(7)
    ball = generator_ball(3)
    for _ in range(60):
        f, g = random.choice(ball), random.choice(ball)
        af, ag = abelianization(f), abelianization(g)
        afg = abelianization(multiply(f, g))
        assert afg == (af[0] + ag[0], af[1] + ag[1])


def test_abelianization_slope_matches_pl_model():
    # slope of the PL map at 0 is 2^a, at 1 is 2^b
    random.seed(8)
    for f in random.sample(generator_ball(3), 25):
        a, b = abelianization(f)
        eps = Fraction(1, 2 ** 12)
        assert eval_element(f, eps) == eval_element(f, Fraction(0)) + eps * Fraction(
            2
        ) ** a
        assert 1 - eval_element(f, 1 - eps) == eps * Fraction(2) ** b


def test_abelianization_requires_f():
    t_gen = GroupElement.from_terms([("22", "1"), ("1", "21"), ("21", "22")])
    with pytest.raises(NotInF):
        abelianization(t_gen)


def test_t_membership_closed_under_products():
    c = GroupElement.from_terms([("22", "1"), ("1", "21"), ("21", "22")])
    gens = [X0, gen_x(1), c, inverse(X0), inverse(gen_x(1)), inverse(c)]
    rng = random.Random(17)
    for _ in range(150):
        f = GroupElement.identity()
        for _ in range(rng.randint(0, 6)):
            f = multiply(f, rng.choice(gens))
        assert is_cyclic_order_preserving(f)
    swap = GroupElement.from_terms([("12", "11"), ("11", "12"), ("2", "2")])
    assert not is_cyclic_order_preserving(swap)


def test_every_valid_sum_is_in_v():
    # V membership is just validity; arbitrary pairings pass
    perm = GroupElement.from_terms([("11", "21"), ("12", "22"), ("21", "11"), ("22", "12")])
    assert not is_order_preserving(perm)
    assert perm.terms == (Term("1", "2"), Term("2", "1"))
