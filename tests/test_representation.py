import json
import random
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from ftrees import _packed, representation
from ftrees.elements import GroupElement, NotInF, inverse, multiply
from ftrees.generators import gen_x, generator_ball
from ftrees.omega import ONE, DiagonalProjection, _wrap, act, h2_member
from ftrees.representation import (
    FormalVector,
    IndependenceCertificate,
    SearchExhausted,
    apply,
    independence_certificate,
    separating_point,
)

from oracles import ball_by_words, separation_by_ball


def test_vector_validation_and_normalization():
    v = FormalVector({ONE: Fraction(2), DiagonalProjection(["12"]): 1})
    assert len(v.coefficients) == 2
    assert FormalVector({ONE: 0}).coefficients == ()
    assert str(FormalVector({})) == "0"
    assert str(FormalVector.basis(ONE)) == "1*d[1]"
    with pytest.raises(ValueError):
        FormalVector({DiagonalProjection(["1"]): 1})  # not in Omega_2


def test_vector_coefficients_are_exact():
    # a float would be read as its binary value, a string parsed: both refused
    for c in (0.1, 1.0, 0.0, "1/3", None):
        message = f"^coefficient {re.escape(repr(c))} is not an int or a Fraction$"
        with pytest.raises(TypeError, match=message):
            FormalVector({ONE: c})
    assert FormalVector({ONE: 1}) == FormalVector({ONE: Fraction(1)})
    assert str(FormalVector({ONE: Fraction(1, 3)})) == "1/3*d[1]"


def test_apply_examples():
    x0 = gen_x(0)
    d1 = FormalVector.basis(ONE)
    assert apply(x0, d1) == FormalVector.basis(DiagonalProjection(["12"]))
    v = FormalVector({ONE: Fraction(1, 2), DiagonalProjection(["12"]): 3})
    assert apply(GroupElement.identity(), v) == v
    assert apply(inverse(x0), apply(x0, v)) == v
    with pytest.raises(NotInF):  # an element of T outside F
        apply(GroupElement([("22", "1"), ("1", "21"), ("21", "22")]), v)


def test_apply_is_homomorphism_and_permutes_basis():
    rng = random.Random(0)
    ball = generator_ball(2)
    basis_pool = sorted({act(f, ONE) for f in generator_ball(3)}, key=lambda p: p.support)
    for _ in range(60):
        f, g = rng.choice(ball), rng.choice(ball)
        coeffs = {p: Fraction(rng.randint(1, 5)) for p in rng.sample(basis_pool, 4)}
        v = FormalVector(coeffs)
        assert apply(multiply(f, g), v) == apply(f, apply(g, v))
        image = apply(f, v)
        assert sorted(c for _, c in image.coefficients) == sorted(coeffs.values())


def test_separating_point_examples():
    x0, x1 = gen_x(0), gen_x(1)
    assert separating_point([GroupElement.identity(), x0]) == ONE
    assert separating_point([x0]) == ONE
    p = separating_point([x0, x1])
    assert act(x0, p) != act(x1, p)
    with pytest.raises(NotInF):  # an element of T outside F
        separating_point([x0, GroupElement([("22", "1"), ("1", "21"), ("21", "22")])])


def _separating_point_by_radius(fs, max_radius=8):
    """Reference search: rebuild the oracle's ball for each radius and retest all."""
    for radius in range(max_radius + 1):
        for g in ball_by_words(radius):
            p = act(g, ONE)
            images = [act(f, p) for f in fs]
            if len(set(images)) == len(images):
                return p
    return None


def test_ball_walk_is_the_generator_ball():
    # the cached layers' spheres, in order, are the generator ball
    spheres = [representation._layer(r)[0] for r in range(5)]
    for r in range(5):
        ball = generator_ball(r)
        assert [f.terms for f in ball] == [f.terms for s in spheres[: r + 1] for f in s]
        assert len({f.terms for f in ball}) == len(ball)
    assert [len(s) for s in spheres] == [1, 4, 12, 36, 108]
    # each sphere holds the elements of its word length: the radius of the first ball holding them
    balls = [set(generator_ball(r)) for r in range(5)]
    for r, sphere in enumerate(spheres):
        for f in sphere:
            assert r == next(s for s in range(5) if f in balls[s])


def test_layer_points_are_the_first_sightings_of_the_oracle_walk():
    seen, want = set(), []
    for g in ball_by_words(5):
        p = act(g, ONE)
        if p not in seen:
            seen.add(p)
            want.append(p)
    got = [p for r in range(6) for p in representation._layer(r)[1]]
    assert [_wrap(p) for p in got] == want


def test_separating_point_matches_radius_search():
    rng = random.Random(7)
    families = [rng.sample(generator_ball(3), size) for size in (2, 4, 8, 16, 24, 32, 40, 48)]
    families.append(rng.sample(generator_ball(4), 80))
    radii = set()
    for fs in families:
        p = separating_point(fs)
        assert p == _separating_point_by_radius(fs)
        radii.add(next(r for r in range(9) if p in {act(g, ONE) for g in generator_ball(r)}))
    # points come from several radii, so earlier candidates get skipped
    assert len(radii) >= 4


def test_search_exhausted_reported():
    # an H2 element moved deep into I(2222), the identity elsewhere: it
    # fixes every point of the radius-1 ball, whose atoms are far coarser
    h = [("111", "1"), ("112", "211"), ("121", "212"), ("122", "221"), ("2", "222")]
    g = GroupElement.from_terms(
        [(w, w) for w in ("1", "21", "221", "2221")] + [("2222" + a, "2222" + b) for a, b in h]
    )
    with pytest.raises(SearchExhausted) as info:
        separating_point([GroupElement.identity(), g], max_radius=1)
    assert info.value.radius == 1


def test_a_repeated_element_is_rejected_before_any_action(monkeypatch):
    calls = []
    monkeypatch.setattr(representation, "act", lambda f, p: calls.append(f) or act(f, p))
    for search in (separating_point, independence_certificate):
        with pytest.raises(ValueError, match="^certificate requires pairwise distinct elements$"):
            search([gen_x(0), gen_x(1), gen_x(0)], max_radius=8)
    assert calls == []


def test_a_negative_radius_is_rejected_before_any_action(monkeypatch):
    calls = []
    monkeypatch.setattr(representation, "act", lambda f, p: calls.append(f) or act(f, p))
    for search in (separating_point, independence_certificate):
        for radius in (-1, -2):
            with pytest.raises(ValueError, match="^radius must be >= 0$"):
                search([gen_x(0), gen_x(1)], max_radius=radius)
    assert calls == []


def test_certificate_ball1_and_trivial():
    ball1 = generator_ball(1)
    assert len(ball1) == 5
    cert = independence_certificate(ball1)
    assert cert.verify()
    trivial = independence_certificate([GroupElement.identity()])
    assert trivial.verify() and len(trivial.images) == 1


def test_certificate_ball2_and_verify():
    ball = generator_ball(2)
    cert = independence_certificate(ball)
    assert cert.verify()
    assert len(set(cert.images)) == len(ball)


def test_certificate_random_ball3():
    rng = random.Random(1)
    sample = rng.sample(generator_ball(3), 20)
    cert = independence_certificate(sample)
    assert cert.verify()


def test_certificate_rejects_duplicates():
    with pytest.raises(ValueError):
        independence_certificate([gen_x(0), gen_x(0)])


def test_certificate_json():
    cert = independence_certificate([GroupElement.identity(), gen_x(0)])
    data = cert.to_json()
    assert set(data) == {"p", "images", "elements"}
    json.dumps(data)
    # tampered certificates fail verification
    bad = IndependenceCertificate(cert.elements, cert.point, tuple(reversed(cert.images)))
    assert not bad.verify()


def count_calls(monkeypatch, name: str, record) -> list:
    """Calls of PackedElement.<name>, each recorded as record(self, *args)."""
    calls = []
    method = getattr(_packed.PackedElement, name)

    def counting(self, *args):
        calls.append(record(self, *args))
        return method(self, *args)

    monkeypatch.setattr(_packed.PackedElement, name, counting)
    return calls


def count_acts(monkeypatch) -> list:
    """(compiled element, canonical input point) of every interval-map action."""
    canonical = _packed._canonical
    return count_calls(monkeypatch, "act", lambda g, n, ends: (g, canonical(n, list(ends))))


def test_certificate_compiles_each_element_once(monkeypatch):
    built = count_calls(monkeypatch, "__init__", lambda g, terms: terms)
    # no cached layers, so that this search walks the ball itself
    representation._layer.cache_clear()
    rng = random.Random(31)
    sample = rng.sample(generator_ball(4), 40)
    # fresh elements, so nothing was compiled before
    fs = [GroupElement(f.terms) for f in sample]
    cert = independence_certificate(fs)
    assert cert.verify()
    family = sorted(id(t) for t in built if any(t is f._quads for f in fs))
    assert family == sorted(id(f._quads) for f in fs)
    walked = [t for t in built if not any(t is f._quads for f in fs)]
    assert len(walked) > 1 and len(set(walked)) == len(walked)
    # the cached layers serve the next family: only its own elements compile
    built.clear()
    fs = [GroupElement(f.terms) for f in sample]
    assert independence_certificate(fs) == cert
    assert len(built) == len(fs)


def test_certificate_acts_on_its_point_once_per_element(monkeypatch):
    calls = count_acts(monkeypatch)
    rng = random.Random(32)
    fs = rng.sample(generator_ball(3), 20)
    cert = independence_certificate(fs)
    family = {id(f._interval_map) for f in fs}
    assert sum(id(g) in family and p == cert.point for g, p in calls) == len(fs)
    assert cert.images == tuple(act(f, cert.point) for f in fs)
    assert cert.verify()


def test_a_candidate_stops_at_its_first_repeated_image(monkeypatch):
    calls = count_acts(monkeypatch)
    h = GroupElement.from_terms(
        [("111", "1"), ("112", "211"), ("121", "212"), ("122", "221"), ("2", "222")]
    )
    assert h == next(f for f in generator_ball(4) if not f.is_identity() and h2_member(f))
    # e and h both fix 1, so the candidate 1 fails at the second element
    fs = [GroupElement.identity(), h, *generator_ball(2)[1:]]
    cert = independence_certificate(fs)
    family = {id(f._interval_map) for f in fs}
    assert sum(p == ONE and id(g) in family for g, p in calls) == 2
    assert cert.point == _separating_point_by_radius(fs)
    assert cert.verify()


def test_separating_point_matches_radius_search_on_seeded_families():
    rng = random.Random(10)
    ball = generator_ball(3)
    for _ in range(12):
        fs = rng.sample(ball, rng.randint(20, 48))
        p = separating_point(fs)
        assert p == _separating_point_by_radius(fs)
        assert len({act(f, p) for f in fs}) == len(fs)


def deep_h2(k: int, side: str) -> GroupElement:
    """The first H2 element of the radius-4 ball moved into I(side^k), the
    identity elsewhere: only points finer than side^k tell it from e."""
    h = [("111", "1"), ("112", "211"), ("121", "212"), ("122", "221"), ("2", "222")]
    other = "2" if side == "1" else "1"
    return GroupElement.from_terms(
        [(side * i + other, side * i + other) for i in range(k)]
        + [(side * k + a, side * k + b) for a, b in h]
    )


def test_certificate_matches_the_ball_reference_search():
    # no cached layers: the searches below walk as far as they need
    representation._layer.cache_clear()
    rng = random.Random(40)
    ball = generator_ball(4)[1:]
    deep = [deep_h2(k, side) for k in range(3, 8) for side in "12"]
    found, layers = Counter(), []
    for n in range(200):
        radius = (3, 1, 8, 0)[n % 4]
        fs = rng.sample(ball, rng.choice((1, 2, 4, 8, 16, 32, 48)))
        if n % 3 == 0:  # e and a deep element agree on every coarse point
            fs += [GroupElement.identity(), rng.choice(deep)]
            rng.shuffle(fs)
        want = separation_by_ball(fs, radius)
        if want is None:
            with pytest.raises(SearchExhausted):
                independence_certificate(fs, radius)
        else:
            cert = independence_certificate(fs, radius)
            assert (cert.point, cert.images) == want
            assert all(type(q) is DiagonalProjection for q in (cert.point, *cert.images))
        found[radius, want is not None] += 1
        layers.append(representation._layer.cache_info().currsize)
    # every radius both finds points and runs out, except 8 which always finds
    assert all(found[r, True] and found[r, False] for r in (0, 1, 3))
    assert found[8, True] == 50
    # the layers grow after the first search, to beyond the radius-3 ball
    assert layers[0] < layers[-1] and layers[-1] > 4


def test_an_interrupted_extension_leaves_a_prefix_of_the_walk(monkeypatch):
    layer = representation._layer
    layer.cache_clear()
    clean = [layer(r) for r in range(5)]
    layer.cache_clear()
    acts = 0

    class Interrupted(_packed.PackedElement):
        def act(self, n, ends):
            nonlocal acts
            acts += 1
            if acts == 50:  # in the radius-3 sphere: the ball of radius 2 has 17 elements
                raise KeyboardInterrupt
            return super().act(n, ends)

    monkeypatch.setattr(representation, "PackedElement", Interrupted)
    fs = [GroupElement.identity(), deep_h2(6, "1")]
    with pytest.raises(KeyboardInterrupt):
        independence_certificate(fs)
    # the interrupted radius cached nothing; the radii below it are the walk's
    assert layer.cache_info().currsize == 3
    assert [layer(r) for r in range(3)] == clean[:3]
    monkeypatch.undo()
    assert independence_certificate(fs).point == separation_by_ball(fs, 8)[0]
    assert [layer(r) for r in range(5)] == clean


def test_concurrent_searches_extend_one_table():
    layer = representation._layer
    layer.cache_clear()
    rng = random.Random(41)
    ball = generator_ball(3)[1:]
    families = [
        rng.sample(ball, 4) + [GroupElement.identity(), deep_h2(k, side)]
        for k in range(3, 7) for side in "12" for _ in range(2)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade places inside layer walks
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            points = list(pool.map(separating_point, families, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert points == [separation_by_ball(fs, 8)[0] for fs in families]
    # no sighting lost or repeated: the layers are those of a walk made alone
    shared = [layer(r) for r in range(layer.cache_info().currsize)]
    layer.cache_clear()
    assert len(shared) > 4 and shared == [layer(r) for r in range(len(shared))]
