"""Intersections, ideal quotients, regular elements and annihilators from the
witness kernel, against the elimination and exact-division references."""

from hypothesis import given, settings, strategies as st

from chowcalc.fields import GF, QQ
from chowcalc.groebner import Ideal, intersect, is_regular_element, quotient
from chowcalc.homology import FPModule, annihilator
from chowcalc.polyring import PolynomialRing

from oracles import division_quotient, elimination_intersect

NAMES = ("x", "y", "z")


@st.composite
def rings(draw):
    field = draw(st.sampled_from([QQ, GF(7)]))
    return PolynomialRing(field, NAMES[:draw(st.integers(min_value=2, max_value=3))])


@st.composite
def polys(draw, ring):
    p = ring.zero
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        exps = [draw(st.integers(min_value=0, max_value=2)) for _ in range(ring.nvars)]
        p = p + ring.monomial(exps, ring.field.coerce(draw(st.integers(-3, 3))))
    return p


@st.composite
def ideals(draw, ring, max_gens=3):
    return Ideal(ring, draw(st.lists(polys(ring), max_size=max_gens)))


@st.composite
def ideal_pairs(draw):
    ring = draw(rings())
    return draw(ideals(ring)), draw(ideals(ring))


@settings(max_examples=40, deadline=None)
@given(ideal_pairs())
def test_intersect_matches_elimination(pair):
    I, J = pair
    assert intersect(I, J) == elimination_intersect(I, J)


def test_intersect_keeps_coefficients_small():
    # ordered by lcm degree alone, the witness run on this pair swelled its
    # intermediate coefficients past 40000 bits; the sugar order keeps the
    # run to a fraction of a second
    R = PolynomialRing(QQ, NAMES)
    I = Ideal(R, ("2*x^2*y^2 - 2*x^2*y + 2*y*z", "x^2*y^2*z^2 - 2*x*y^2*z", "3*x^2 - 2*y"))
    J = Ideal(R, ("-x^2*y^2*z + 3*x*y*z^2", "-2*x^2*y^2 - x*z"))
    K = intersect(I, J)
    assert K == elimination_intersect(I, J)
    assert len(K.groebner_basis()) == 13
    assert K.normal_form(R.parse("6*x^4*y^2 + 3*x^3*z - 4*x^2*y^3 - 2*x*y*z")).is_zero()


@settings(max_examples=40, deadline=None)
@given(ideal_pairs())
def test_quotient_matches_exact_division(pair):
    I, J = pair
    assert quotient(I, J) == division_quotient(I, J)


@settings(max_examples=40, deadline=None)
@given(ideal_pairs())
def test_regular_elements_match_exact_division(pair):
    I, J = pair
    for f in J.gens:
        assert is_regular_element(f, I) == (division_quotient(I, Ideal(I.ring, (f,))) == I)


@settings(max_examples=40, deadline=None)
@given(ideal_pairs())
def test_annihilator_of_a_sum_of_cyclic_modules_is_the_intersection(pair):
    I, J = pair
    ring = I.ring
    M = FPModule(ring, 2, [(g, ring.zero) for g in I.gens] + [(ring.zero, h) for h in J.gens])
    assert annihilator(M) == elimination_intersect(I, J)
