import json
import random
from fractions import Fraction

import pytest

from ftrees import _packed, representation
from ftrees.elements import GroupElement, inverse, multiply
from ftrees.generators import _ball_walk, gen_x, generator_ball
from ftrees.omega import ONE, DiagonalProjection, act, h2_member
from ftrees.representation import (
    FormalVector,
    IndependenceCertificate,
    SearchExhausted,
    apply,
    independence_certificate,
    separating_point,
)


def test_vector_validation_and_normalization():
    v = FormalVector({ONE: Fraction(2), DiagonalProjection(["12"]): 1})
    assert len(v.coefficients) == 2
    assert FormalVector({ONE: 0}).coefficients == ()
    with pytest.raises(ValueError):
        FormalVector({DiagonalProjection(["1"]): 1})  # not in Omega_2


def test_apply_examples():
    x0 = gen_x(0)
    d1 = FormalVector.basis(ONE)
    assert apply(x0, d1) == FormalVector.basis(DiagonalProjection(["12"]))
    v = FormalVector({ONE: Fraction(1, 2), DiagonalProjection(["12"]): 3})
    assert apply(GroupElement.identity(), v) == v
    assert apply(inverse(x0), apply(x0, v)) == v


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


def _separating_point_by_radius(fs, max_radius=8):
    """Reference search: rebuild the ball for each radius and retest all."""
    for radius in range(max_radius + 1):
        for g in generator_ball(radius):
            p = act(g, ONE)
            images = [act(f, p) for f in fs]
            if len(set(images)) == len(images):
                return p
    return None


def test_ball_walk_is_the_generator_ball():
    sizes = []
    for r in range(5):
        ball = generator_ball(r)
        assert [f.terms for f in ball] == [f.terms for f in _ball_walk(r)]
        assert len({f.terms for f in ball}) == len(ball)
        sizes.append(len(ball))
    assert sizes == [1, 5, 17, 53, 161]


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


def test_certificate_compiles_each_element_once(monkeypatch):
    built = []
    compile_terms = _packed.PackedElement.__init__

    def counting_init(self, terms):
        built.append(terms)
        compile_terms(self, terms)

    walked = []

    def counting_walk(radius):
        for g in _ball_walk(radius):
            walked.append(g)
            yield g

    monkeypatch.setattr(_packed.PackedElement, "__init__", counting_init)
    monkeypatch.setattr(representation, "_ball_walk", counting_walk)
    rng = random.Random(31)
    # fresh elements, so nothing was compiled before
    fs = [GroupElement(f.terms) for f in rng.sample(generator_ball(4), 40)]
    cert = independence_certificate(fs)
    assert cert.verify()
    assert len(walked) > 1
    assert len(built) <= len(fs) + len(walked)


def test_certificate_acts_on_its_point_once_per_element(monkeypatch):
    calls = []

    def counting_act(f, p):
        calls.append((f.terms, p))
        return act(f, p)

    monkeypatch.setattr(representation, "act", counting_act)
    rng = random.Random(32)
    fs = rng.sample(generator_ball(3), 20)
    cert = independence_certificate(fs)
    family = {f.terms for f in fs}
    assert sum(t in family and p == cert.point for t, p in calls) == len(fs)
    assert cert.images == tuple(act(f, cert.point) for f in fs)
    assert cert.verify()


def test_a_candidate_stops_at_its_first_repeated_image(monkeypatch):
    calls = []

    def counting_act(f, p):
        calls.append((f, p))
        return act(f, p)

    monkeypatch.setattr(representation, "act", counting_act)
    h = GroupElement.from_terms(
        [("111", "1"), ("112", "211"), ("121", "212"), ("122", "221"), ("2", "222")]
    )
    assert h == next(f for f in generator_ball(4) if not f.is_identity() and h2_member(f))
    # e and h both fix 1, so the candidate 1 fails at the second element
    fs = [GroupElement.identity(), h, *generator_ball(2)[1:]]
    cert = independence_certificate(fs)
    assert sum(p == ONE and any(f is g for g in fs) for f, p in calls) == 2
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
