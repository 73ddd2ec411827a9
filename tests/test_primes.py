"""Factorization, minimal primes, certification, local lengths."""

import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.rings import PolyElement

from chowcalc import groebner as groebner_module
from chowcalc import homology as homology_module
from chowcalc import primes as primes_module
from chowcalc.errors import (ConsistencyError, DecompositionError, HypothesisError,
                             NotPrimeError)
from chowcalc.fields import GF, QQ, RationalField
from chowcalc.correspondences import compose, correspondence_degree, graph
from chowcalc.geometry import Chart, cycle_of_subscheme
from chowcalc.groebner import Ideal, intersect
from chowcalc.homology import FPModule, FreeModuleElement, tor_modules
from chowcalc.intersection import intersection_product, tor_length_table
from chowcalc.morphisms import ChartMap
from chowcalc.polyring import PolynomialRing
from chowcalc.primes import (FactorizationUnavailable, PrimeIdeal, assert_decomposition,
                             assert_prime, factor, generic_rank, is_prime,
                             length_at_prime, minimal_polynomial,
                             minimal_primes, vector_space_dimension)
from chowcalc.errors import EngineError
from chowcalc.primes import standard_exponents
from chowcalc.script import run_script

from oracles import (count_standard_monomials, factor_by_expressions, factor_multiset,
                     filtration_length, position_over_term_fiber_key, quadric_splits,
                     rank_at_prime)

R2 = PolynomialRing(QQ, ("x", "y"))
R3 = PolynomialRing(QQ, ("x", "y", "z"))


def keys(primes):
    return {p.key for p in primes}


def test_factor_multivariate_rational():
    f = R2.parse("x^2*y - y^3")
    assert factor_multiset(factor(f)) == [("x + y", 1), ("x - y", 1), ("y", 1)]


def test_factor_univariate_rational():
    R1 = PolynomialRing(QQ, ("t",))
    facs = factor(R1.parse("t^4 - 1"))
    assert {str(q) for q, _ in facs} == {"t - 1", "t + 1", "t^2 + 1"}


def test_factor_constants_and_irreducibles():
    assert factor(R2.parse("3/4")) == []
    assert factor(R2.zero) == []
    facs = factor(R2.parse("x^2 + 2"))
    assert len(facs) == 1 and facs[0][1] == 1


def test_factor_finite_field():
    F5 = PolynomialRing(GF(5), ("x", "y"))
    assert factor_multiset(factor(F5.parse("x^2 + 1"))) == [("x + 2", 1), ("x + 3", 1)]
    # homogeneous bivariate reduces to the univariate case
    assert factor_multiset(factor(F5.parse("x^2 + y^2"))) == [("x + 2*y", 1), ("x + 3*y", 1)]
    assert factor_multiset(factor(F5.parse("x^3*y^2 + x*y^4"))) == [
        ("x", 1), ("x + 2*y", 1), ("x + 3*y", 1), ("y", 2)]
    # a non-homogeneous bivariate cubic with no variable of degree one
    with pytest.raises(FactorizationUnavailable):
        factor(F5.parse("x^3 + y^3 + 1"))


def test_factor_finite_field_quadric_without_a_square_root():
    # x^2 + y^2 + 1 raised at the fragment's old edge; completing the square
    # leaves D = y^2 + 1, not a square over F_5, and the matrix has rank 3
    F5 = PolynomialRing(GF(5), ("x", "y"))
    f = F5.parse("x^2 + y^2 + 1")
    assert not quadric_splits(f)
    assert factor(f) == [(f, 1)]
    I = Ideal(F5, (f,))
    primes = minimal_primes(I)
    assert [p.key for p in primes] == [("x^2 + y^2 + 1",)]
    assert [p.key for p in assert_decomposition(I, [p.ideal for p in primes])] == [
        ("x^2 + y^2 + 1",)]


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_quadric_whose_discriminant_has_no_square_term_is_irreducible(field, monkeypatch):
    # y^2 + x*z + x completes to D = -4*(x*z + x): a nonconstant D with no
    # square term is no square, so f is irreducible without sympy
    monkeypatch.setattr(primes_module, "_factor_with_sympy", None)
    ring = PolynomialRing(field, ("x", "y", "z"))
    f = ring.parse("y^2 + x*z + x")
    assert factor(f) == [(f, 1)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_linear_shortcut_matches_the_sympy_route(data):
    # QQ: 1-3 variables; F_p: univariate; factors compared up to units
    p = data.draw(st.sampled_from([None, 2, 7, 101]), label="field")
    if p is None:
        ring = PolynomialRing(QQ, ("x", "y", "z")[:data.draw(st.integers(1, 3))])
        coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    else:
        ring = PolynomialRing(GF(p), ("t",))
        coeff = st.integers(0, p - 1)
    n = ring.nvars
    terms = {tuple(int(j == i) for j in range(n)): data.draw(coeff) for i in range(n)}
    terms[(0,) * n] = data.draw(coeff)
    f = ring.from_dict(terms)
    if f.total_degree() != 1:
        return
    assert factor_multiset(factor(f)) == factor_multiset(factor_by_expressions(f))


def _degree_one_shape(data, ring, coeff):
    """c*y + b: y a variable, c a nonzero constant, b random terms free of y."""
    n = ring.nvars
    y = data.draw(st.integers(0, n - 1), label="y")
    terms = {tuple(int(j == y) for j in range(n)): data.draw(coeff.filter(bool))}
    for _ in range(data.draw(st.integers(0, 3))):
        e = tuple(0 if j == y else data.draw(st.integers(0, 2)) for j in range(n))
        terms[e] = data.draw(coeff)
    return ring.from_dict(terms)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_factor_matches_the_expression_route(data):
    # factors up to units, and multiplicities, equal the reference: QQ in
    # 1-3 variables with random terms, c*y + b shapes and products of
    # two such shapes; F_p univariate
    p = data.draw(st.sampled_from([None, 2, 7, 101]), label="field")
    if p is None:
        ring = PolynomialRing(QQ, ("x", "y", "z")[:data.draw(st.integers(1, 3))])
        coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        shape = data.draw(st.sampled_from(["random", "c*y + b", "product"]), label="shape")
    else:
        ring = PolynomialRing(GF(p), ("t",))
        coeff = st.integers(0, p - 1)
        shape = "random"
    n = ring.nvars
    if shape == "random":
        exps = st.tuples(*[st.integers(0, 3)] * n)
        f = ring.from_dict(data.draw(st.dictionaries(exps, coeff, min_size=1, max_size=5)))
    elif shape == "c*y + b":
        f = _degree_one_shape(data, ring, coeff)
    else:
        f = _degree_one_shape(data, ring, coeff) * _degree_one_shape(data, ring, coeff)
    if f.is_constant():
        return
    assert factor_multiset(factor(f)) == factor_multiset(factor_by_expressions(f))


def test_factor_reaches_sympy_only_outside_the_shapes_it_answers(monkeypatch):
    calls = []
    real = PolyElement.factor_list

    def counted(self):
        calls.append("QQ" if self.ring.domain == sympy.QQ else "Fp")
        return real(self)

    monkeypatch.setattr(PolyElement, "factor_list", counted)
    F7 = PolynomialRing(GF(7), ("x", "y"))
    RUV = PolynomialRing(QQ, ("u", "v"))  # same exponent tuples, another ring
    polys = [R2.parse("x^3 - y^3"), R2.parse("x^3 + 2"), RUV.parse("u^3 + 2"),
             F7.parse("x^3 + 2"), F7.parse("x^3 - 1"), F7.parse("x^3 + 2*y^3"),
             R2.parse("2*x - 3*y + 1"), F7.parse("x + 3*y"),
             R2.parse("x^3 - x + 2*y"), F7.parse("3*y + x^2 + 1")]
    for f in polys:
        factor(f)
    # linear forms and c*y + b never reach sympy; x^3 + 2*y^3 over F_7 does
    # through its dehomogenization x^3 + 2
    assert sorted(calls) == ["Fp", "Fp", "Fp", "QQ", "QQ", "QQ"]


def test_factor_finite_field_multivariate_linear_form():
    # a linear form is irreducible: no finite-field backend is needed
    F5 = PolynomialRing(GF(5), ("x", "y", "z"))
    f = F5.parse("x + 2*y + 3*z + 1")
    assert factor_multiset(factor(f)) == [("x + 2*y + 3*z + 1", 1)]
    assert factor_multiset(factor(F5.parse("2*y + z + 4"))) == [("y + 3*z + 2", 1)]


def test_factor_finite_field_degree_one_in_a_variable():
    # c*y + b, y not in b, is irreducible on sight, so it leaves the
    # finite-field fragment's univariate and homogeneous bivariate shapes
    F5 = PolynomialRing(GF(5), ("x", "y", "z"))
    assert factor_multiset(factor(F5.parse("x^2 + y"))) == [("x^2 + y", 1)]
    assert factor_multiset(factor(F5.parse("3*x*z + 2*y + 1"))) == [("x*z + 4*y + 2", 1)]
    assert factor_multiset(factor(F5.parse("y^3 + 2*x + z^2"))) == [("y^3 + z^2 + 2*x", 1)]


@contextmanager
def sympy_factor_calls():
    """The polynomials that reach sympy's factor_list, as strings."""
    calls = []
    real = PolyElement.factor_list

    def counted(self):
        calls.append(str(self))
        return real(self)

    with mock.patch.object(PolyElement, "factor_list", counted):
        yield calls


def test_quadrics_that_reached_sympy_answer_without_it():
    # the inputs of the cache-scope test before quadrics were recognized;
    # x^2 + y^2 over F_7, homogeneous bivariate, is a quadric too
    F7 = PolynomialRing(GF(7), ("x", "y"))
    RUV = PolynomialRing(QQ, ("u", "v"))
    polys = [R2.parse("x^2 - y^2"), R2.parse("x^2 + 1"), RUV.parse("u^2 + 1"),
             F7.parse("x^2 + 1")]
    with sympy_factor_calls() as calls, primes_module.prime_cache_scope():
        got = [factor(f) for f in polys] + [factor(F7.parse("x^2 + y^2"))]
    assert calls == []
    assert [factor_multiset(g) for g in got[:4]] == [
        factor_multiset(factor_by_expressions(f)) for f in polys]
    assert factor_multiset(got[4]) == [("x^2 + y^2", 1)]


_FLAGS = {"flat": True, "finite": True, "proper": True}


def test_graph_against_its_transpose_reaches_sympy_zero_times():
    # f(s) - f(t) on A1, and y^2 - y_r^2 on A2, are quadrics
    S, X = (Chart(n, PolynomialRing(QQ, (v,))) for n, v in (("S", "t"), ("X", "x")))
    A, B = Chart("A", R2), Chart("B", PolynomialRing(QQ, ("u", "v")))
    with sympy_factor_calls() as calls:
        g = graph(ChartMap(S, X, {"x": "t^2 - 20*t + 3"}, **_FLAGS))
        h = compose(g, g.transpose())
        assert (str(h.cycle), correspondence_degree(h)) == ("[(t + t_r - 20)] + [(t - t_r)]", 2)
        g = graph(ChartMap(A, B, {"u": "x", "v": "y^2 + 3*x - 7"}, **_FLAGS))
        assert str(compose(g, g.transpose()).cycle) == "[(x - x_r, y + y_r)] + [(x - x_r, y - y_r)]"
    assert calls == []


def test_excess_tor_table_reaches_sympy_zero_times():
    # (x^k, x^(k-1)*y) against a slant meets monomials and a*x + b only
    A = Chart("A", R2)
    with sympy_factor_calls() as calls:
        for k in (2, 3, 4):
            [(z, lengths)] = tor_length_table(A, (f"x^{k}", f"x^{k - 1}*y"), ("y - 3*x - 5*x^2",))
            assert (str(z), lengths) == ("(x, y)", [k, 1, 0, 0, 0])
    assert calls == []


def test_bezout_product_with_linear_and_quadratic_factors_reaches_sympy_zero_times():
    A = Chart("A", R2)
    line = "y - x^2 - 3*x + 1"
    with sympy_factor_calls() as calls:
        for diff, want in (("2*(x - 1)*(x + 2)", "[(x + 2, y + 3)] + [(x - 1, y - 3)]"),
                           ("3*(x^2 + 3)", "[(y^2 + 8*y + 43, x - 1/3*y - 4/3)]"),
                           ("5*(x - 1)^2", "2*[(x - 1, y - 3)]")):
            a = cycle_of_subscheme(Ideal(R2, (line,)), A)
            b = cycle_of_subscheme(Ideal(R2, (f"{line} + {diff}",)), A)
            assert str(intersection_product(a, b)) == want
    assert calls == []


def test_quadrics_in_characteristic_two_keep_the_sympy_route():
    # completing the square divides by 2: over GF(2) a quadric still goes
    # to sympy when univariate and raises otherwise, x^2 + y^2 + 1 being
    # (x + y + 1)^2 there
    F2 = PolynomialRing(GF(2), ("x", "y"))
    with sympy_factor_calls() as calls:
        assert [(str(q), e) for q, e in factor(F2.parse("x^2 + 1"))] == [("x + 1", 2)]
    assert calls == ["x**2 + 1 mod 2"]
    with pytest.raises(FactorizationUnavailable):
        factor(F2.parse("x^2 + y^2 + 1"))


_SHAPE_FIELDS = [None, 7, 101]


def _shape_ring(data, nvars):
    p = data.draw(st.sampled_from(_SHAPE_FIELDS), label="field")
    field = QQ if p is None else GF(p)
    ring = PolynomialRing(field, ("x", "y", "z")[:nvars])
    coeff = (st.fractions(min_value=-20, max_value=20, max_denominator=12) if p is None
             else st.integers(0, p - 1))
    return ring, coeff


def _check_factors(f, facs):
    """The factors multiply to f up to a nonzero constant; where sympy has
    a reference (QQ, or one variable) they equal it up to one unit per
    factor, with the same multiplicities."""
    ring = f.ring
    product = ring.one
    for q, e in facs:
        assert not q.is_constant() and e >= 1
        product = product * q ** e
    assert product * ring.field.div(f.lc(), product.lc()) == f
    if isinstance(ring.field, RationalField) or len(f.support()) == 1:
        assert factor_multiset(facs) == factor_multiset(factor_by_expressions(f))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_monomials_are_read_off(data):
    ring, coeff = _shape_ring(data, data.draw(st.integers(1, 3)))
    exps = data.draw(st.tuples(*[st.integers(0, 4)] * ring.nvars))
    f = ring.monomial(exps, data.draw(coeff.filter(bool)))
    if f.is_constant():
        return
    with sympy_factor_calls() as calls:
        facs = factor(f)
    assert calls == []
    assert sorted((q.terms[0][0].index(1), e) for q, e in facs) == [
        (i, k) for i, k in enumerate(exps) if k]
    _check_factors(f, facs)


def test_factor_divides_out_the_monomial_content_first():
    # over F_7 both raised FactorizationUnavailable: neither is univariate,
    # homogeneous bivariate or one of the shapes until x^J is divided out
    F7 = PolynomialRing(GF(7), ("x", "y", "z"))
    with sympy_factor_calls() as calls:
        assert factor_multiset(factor(F7.parse("6*x^3*y^2*z^4 + 4*x^3*y^2*z^3"))) == [
            ("x", 3), ("y", 2), ("z", 3), ("z + 3", 1)]
        assert factor_multiset(factor(F7.parse("6*x^3*y^2 + 2*y^3"))) == [
            ("x^3 + 5*y", 1), ("y", 2)]
    assert calls == []
    # a cofactor outside the fragment still raises
    with pytest.raises(FactorizationUnavailable):
        factor(F7.parse("x*y^3 + x^4 + x"))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_monomial_content_times_a_polynomial_factors_as_sympy_does(data):
    # x^J * g for random g: over QQ the answer is sympy's up to units; over
    # F_p g is a linear form, which every shape route can answer
    ring, coeff = _shape_ring(data, data.draw(st.integers(1, 3)))
    n = ring.nvars
    J = data.draw(st.tuples(*[st.integers(0, 3)] * n), label="J")
    if isinstance(ring.field, RationalField):
        exps = st.tuples(*[st.integers(0, 3)] * n)
        g = ring.from_dict(data.draw(st.dictionaries(exps, coeff, min_size=1, max_size=4)))
    else:
        g = _linear_form(data, ring, coeff)
    f = g * ring.monomial(J)
    if f.is_zero() or f.is_constant() or any(all(e[i] for e, _ in g.terms) for i in range(n)):
        return  # g has a monomial content of its own
    facs = factor(f)
    _check_factors(f, facs)
    assert factor_multiset(facs) == factor_multiset(
        [(ring.var(i), k) for i, k in enumerate(J) if k] + factor(g))


def _linear_form(data, ring, coeff):
    n = ring.nvars
    terms = {tuple(int(j == i) for j in range(n)): data.draw(coeff) for i in range(n)}
    terms[(0,) * n] = data.draw(coeff)
    return ring.from_dict(terms)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quadrics_split_exactly_when_their_matrix_says_so(data):
    # reducible draws are products of two linear polynomials, irreducible
    # ones random terms of degree at most 2; quadric_splits decides by rank
    ring, coeff = _shape_ring(data, data.draw(st.integers(1, 3)))
    n = ring.nvars
    if data.draw(st.booleans(), label="product"):
        f = _linear_form(data, ring, coeff) * _linear_form(data, ring, coeff)
    else:
        exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
        f = ring.from_dict(data.draw(st.dictionaries(exps, coeff, min_size=1, max_size=6)))
    if f.total_degree() != 2 or not any(2 in e for e, _ in f.terms):
        return
    with sympy_factor_calls() as calls:
        facs = factor(f)
    assert calls == []
    _check_factors(f, facs)
    assert quadric_splits(f) == (len(facs) > 1 or facs[0][1] > 1)
    if quadric_splits(f):
        assert all(q.total_degree() == 1 for q, _ in facs)


def _poly_in(data, ring, var, coeff, degree):
    n = ring.nvars
    return ring.from_dict({tuple(k if j == var else 0 for j in range(n)): data.draw(coeff)
                           for k in range(degree + 1)})


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_degree_one_in_x_over_one_other_variable_splits_off_the_gcd(data):
    # f = a*x + b, a and b in k[y]: reducible draws g*(a*x + b), irreducible
    # ones random a, b; over F_p the factors free of x multiply to gcd(a, b),
    # which sympy's expression layer computes independently
    ring, coeff = _shape_ring(data, data.draw(st.integers(2, 3)))
    a = _poly_in(data, ring, 1, coeff, data.draw(st.integers(1, 2)))
    b = _poly_in(data, ring, 1, coeff, data.draw(st.integers(0, 3)))
    f = a * ring.var(0) + b
    if data.draw(st.booleans(), label="product"):
        f = f * _poly_in(data, ring, 1, coeff, data.draw(st.integers(1, 2)))
    if f.support() != {0, 1} or max(e[0] for e, _ in f.terms) != 1:
        return
    facs = factor(f)
    _check_factors(f, facs)
    with_x = [(q, e) for q, e in facs if 0 in q.support()]
    assert len(with_x) == 1 and with_x[0][1] == 1
    if not isinstance(ring.field, RationalField):
        p = ring.field.p
        y = sympy.Symbol("y")
        expr = lambda g: sum(int(c) * y ** e[1] for e, c in g.terms)
        coeffs = {0: ring.zero, 1: ring.zero}
        for e, c in f.terms:
            coeffs[e[0]] = coeffs[e[0]] + ring.monomial((0,) + e[1:], c)
        gcd = sympy.Poly(sympy.gcd(expr(coeffs[0]), expr(coeffs[1]), modulus=p), y, modulus=p)
        free = sympy.Integer(1)
        for q, e in facs:
            if 0 not in q.support():
                free *= expr(q) ** e
        assert sympy.Poly(free, y, modulus=p).monic() == gcd.monic()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_primitive_binomials_are_irreducible_on_sight(data):
    # c1*x^A + c2*x^B with disjoint supports: irreducible without sympy
    # when the entries of A - B are coprime (Gao 2001), otherwise factored
    # by another route; either way the reference agrees where it exists
    ring, coeff = _shape_ring(data, data.draw(st.integers(1, 3)))
    n = ring.nvars
    A = data.draw(st.tuples(*[st.integers(0, 5)] * n), label="A")
    B = tuple(0 if a else data.draw(st.integers(0, 5)) for a in A)
    if A == B:
        return
    f = ring.from_dict({A: data.draw(coeff.filter(bool)), B: data.draw(coeff.filter(bool))})
    with sympy_factor_calls() as calls:
        try:
            facs = factor(f)
        except FactorizationUnavailable:
            assert not isinstance(ring.field, RationalField)
            assert math.gcd(*(a - b for a, b in zip(A, B))) > 1
            return
    _check_factors(f, facs)
    if math.gcd(*(a - b for a, b in zip(A, B))) == 1:
        assert calls == [] and factor_multiset(facs) == factor_multiset([(f, 1)])


@pytest.mark.parametrize("field", [GF(7), GF(101), QQ])
@pytest.mark.parametrize("gen", ["x^2 - y^3", "x^3*z - 2*y^5", "x^2*y^3 - z^5"])
def test_primitive_binomials_are_prime_over_every_field(field, gen):
    # over F_7 and F_101 these raised DecompositionError: the binomial went
    # to sympy, which factors no multivariate polynomial over F_p
    I = Ideal(PolynomialRing(field, ("x", "y", "z")), (gen,))
    with sympy_factor_calls() as calls:
        assert is_prime(I)
    assert calls == []
    assert [p.key for p in minimal_primes(I)] == [I.key()]


@pytest.mark.parametrize("field", [GF(7), QQ])
def test_cusp_chart_is_integral_over_every_field(field):
    cusp = Chart("C", PolynomialRing(field, ("x", "y")), ("x^2 - y^3",))
    assert cusp.is_integral()
    whole = "[(y^3 + 6*x^2)]" if field == GF(7) else "[(y^3 - x^2)]"
    assert str(cycle_of_subscheme(Ideal(cusp.ring, ()), cusp)) == whole
    assert str(cycle_of_subscheme(Ideal(cusp.ring, ("x",)), cusp)) == "3*[(x, y)]"


def test_prime_ideal_identity():
    p = minimal_primes(Ideal(R2, ("x",)))[0]
    q = minimal_primes(Ideal(R2, ("x", "x*y")))[0]
    assert p == q and hash(p) == hash(q)
    assert str(p) == "(x)"
    assert p.dim() == 1
    assert p.contains(R2.parse("x^2*y"))


def test_minimal_primes_principal_split():
    primes = minimal_primes(Ideal(R2, ("x*y",)))
    assert keys(primes) == {("x",), ("y",)}
    assert all(p.certified for p in primes)


def test_minimal_primes_radical_collapse():
    assert keys(minimal_primes(Ideal(R2, ("x^2",)))) == {("x",)}
    assert keys(minimal_primes(Ideal(R2, ("x^2", "x*y")))) == {("x",)}


def test_minimal_primes_two_components_mixed_dim():
    primes = minimal_primes(Ideal(R3, ("x*y", "x*z")))
    assert keys(primes) == {("x",), ("y", "z")}
    dims = sorted(p.dim() for p in primes)
    assert dims == [1, 2]


def test_minimal_primes_two_planes():
    R4 = PolynomialRing(QQ, ("x", "y", "z", "w"))
    I = intersect(Ideal(R4, ("x", "y")), Ideal(R4, ("z", "w")))
    primes = minimal_primes(I)
    assert keys(primes) == {("x", "y"), ("z", "w")}


def test_twisted_cubic_is_prime():
    I = Ideal(R3, ("y - x^2", "z - x^3"))
    assert is_prime(I)
    assert minimal_primes(I)[0].dim() == 1


def test_linear_ideal_is_prime():
    R4 = PolynomialRing(QQ, ("x", "y", "z", "w"))
    assert is_prime(Ideal(R4, ("x - z", "y - w")))
    assert is_prime(Ideal(R4, ("x", "y", "z", "w")))


def test_hypersurfaces():
    assert is_prime(Ideal(R2, ("x*y - 1",)))
    assert is_prime(Ideal(R2, ("y^2 - x^3",)))  # cusp: irreducible though singular
    assert not is_prime(Ideal(R2, ("y^2 - x^2",)))


def test_zero_dimensional_field_extension():
    I = Ideal(R2, ("x^2 - 2", "y - x"))
    assert is_prime(I)


def test_zero_dimensional_splitting_via_eliminant():
    # both generators are irreducible, yet the ideal splits along y = +-x
    I = Ideal(R2, ("x^2 - 2", "y^2 - 2"))
    primes = minimal_primes(I)
    assert keys(primes) == {("y^2 - 2", "x - y"), ("y^2 - 2", "x + y")}
    assert all(p.dim() == 0 for p in primes)


def test_zero_dimensional_rational_points():
    I = Ideal(R2, ("x^2 - 1", "y - x"))
    primes = minimal_primes(I)
    assert keys(primes) == {("x - 1", "y - 1"), ("x + 1", "y + 1")}


def test_localization_chart_prime():
    R = PolynomialRing(QQ, ("u", "x", "y"))
    assert is_prime(Ideal(R, ("y", "u*x - 1")))
    # inverting x on V(x) leaves nothing
    assert minimal_primes(Ideal(R, ("x", "u*x - 1"))) == ()


def test_localization_with_split_downstairs():
    R = PolynomialRing(QQ, ("u", "x", "y"))
    I = Ideal(R, ("x*y", "u*x - 1"))  # inverting x kills the x-axis branch
    primes = minimal_primes(I)
    assert keys(primes) == {("u*x - 1", "y")}


def test_localization_relation_with_any_nonzero_constant():
    # y*u - 2 presents u as the inverse of 1/2*y
    R = PolynomialRing(QQ, ("x", "y", "u"))
    I = Ideal(R, ("x*u - 1", "y - 2*x"))
    assert [str(p) for p in minimal_primes(I)] == ["(y*u - 2, x - 1/2*y)"]


def test_localization_tries_the_next_candidate_variable():
    # reading y*u - 1 as y = 1/u leaves (u*u_ + u - u_, x) in the ring
    # without y, itself certified, so the first candidate answers; the
    # fall-through to a later candidate is pinned over F_7 below
    R = PolynomialRing(QQ, ("x", "y", "u", "u_"))
    I = Ideal(R, ("x", "y*u - 1", "(y - 1)*u_ - 1"))
    assert [str(p) for p in minimal_primes(I)] == [
        "(y*u - 1, y*u_ - u_ - 1, u*u_ + u - u_, x)"]


def test_an_elimination_candidate_outside_the_fragment_gives_way(monkeypatch):
    # reading 4xyu + 6yu + 6 as y = 1/(4xu + 6u) leaves a curve in F_7[x, u]
    # outside the fragment; the next candidate, u = 1/(4xy + 6y), leaves
    # the prime (x^3 + 5y^2) in F_7[x, y] and certifies the ideal
    R = PolynomialRing(GF(7), ("x", "y", "u"))
    I = Ideal(R, ("5*x^3 + 4*y^2", "4*x*y*u + 6*y*u + 6"))
    inner = primes_module.minimal_primes
    failed = []

    def spy(J):
        try:
            return inner(J)
        except DecompositionError:
            failed.append(J.ring.names)
            raise

    monkeypatch.setattr(primes_module, "minimal_primes", spy)
    assert [str(p) for p in spy(I)] == [
        "(y^3*u + 6*x^2 + 3*y*u + 5*x + 3, x^3 + 5*y^2, x*y*u + 5*y*u + 5)"]
    assert failed == [("x", "u")]


def test_a_substitution_certifies_a_localized_conjugate_curve():
    # x - u + 1 puts x at u - 1, leaving (u^2 - 2u - 1) in QQ[y, u]: prime,
    # though the ideal is neither triangular nor zero-dimensional
    R = PolynomialRing(QQ, ("x", "y", "u"))
    I = Ideal(R, ("u^2 - 2*u - 1", "x - u + 1"))
    assert is_prime(I)
    assert minimal_primes(I)[0].dim() == 1


@pytest.mark.parametrize("field, gens", [
    (QQ, ("y^3*z^2 + x - 3*z - w", "x*y^3 - 2*y^3*z - x*z + 3*z^2 + z*w",
          "z^3 + x - 2*z")),
    (GF(7), ("y^3 + 6*x^2*w", "y^2*z + 2*x*w", "y*z^2 + 3*w", "x*z + 2*y")),
])
def test_four_variable_triangular_ideals_are_prime(field, gens):
    # x and w are polynomials in y and z over QQ, y and w in x and z over
    # F_7; the substitutions u := -b/c take the bound variables off one at
    # a time
    R4 = PolynomialRing(field, ("x", "y", "z", "w"))
    I = Ideal(R4, gens)
    assert is_prime(I)
    assert minimal_primes(I)[0].dim() == 2


def _triangular_ideal(data, field):
    """(x_t - g_t(x_F) for t in T), T and F a random split of 2-3 variables
    with T nonempty, each generator then mixed by multiples of the others in
    turn: elementary steps, so the ideal is unchanged."""
    n = data.draw(st.integers(2, 3), label="nvars")
    ring = PolynomialRing(field, ("x", "y", "z")[:n])
    coeff = st.integers(-3, 3) if field is QQ else st.integers(0, 6)
    bound = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any),
                      label="bound")
    free = [j for j in range(n) if not bound[j]]
    gens = []
    for t in (j for j in range(n) if bound[j]):
        terms = {tuple(int(j == t) for j in range(n)): 1}
        for _ in range(data.draw(st.integers(0, 3))):
            e = tuple(data.draw(st.integers(0, 2)) if j in free else 0 for j in range(n))
            terms[e] = data.draw(coeff)
        gens.append(ring.from_dict(terms))
    exps = st.tuples(*[st.integers(0, 1)] * n)
    for i in range(len(gens)):
        for j in range(len(gens)):
            if j != i:
                m = ring.from_dict(data.draw(st.dictionaries(exps, coeff, max_size=2)))
                gens[i] = gens[i] + m * gens[j]
    return Ideal(ring, gens)


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from([QQ, GF(7)]), data=st.data())
def test_triangular_ideals_are_certified_prime(field, data):
    # a triangular ideal is prime, its quotient a polynomial ring in the
    # free variables; the elimination step reaches it as a chain of
    # substitutions, whichever basis element it reads first
    J = _triangular_ideal(data, field)
    primes = minimal_primes(J)
    assert len(primes) == 1 and primes[0].ideal == J


def test_unit_ideal_and_zero_ideal():
    assert minimal_primes(Ideal(R2, ("x", "x - 1"))) == ()
    zero = minimal_primes(Ideal(R2, ()))
    assert len(zero) == 1 and zero[0].key == ()
    assert str(zero[0]) == "(0)"
    assert not is_prime(Ideal(R2, ("1",)))


def test_finite_field_decomposition():
    F5 = PolynomialRing(GF(5), ("x", "y"))
    primes = minimal_primes(Ideal(F5, ("x^2 + 1", "y")))
    assert keys(primes) == {("x + 2", "y"), ("x + 3", "y")}


def test_decomposition_error_outside_fragment():
    with pytest.raises(DecompositionError):
        minimal_primes(Ideal(R3, ("x^2 + y^2", "z^2 - 2")))
    F5 = PolynomialRing(GF(5), ("x", "y"))
    with pytest.raises(DecompositionError):
        minimal_primes(Ideal(F5, ("x^3 + y^3 + 1",)))


@pytest.mark.parametrize("field, name", [(QQ, "QQ"), (GF(7), "Fp:7")])
def test_a_shape_no_step_reaches_raises_with_the_ideal(field, name):
    # neither generator factors or eliminates a variable, the ideal is not
    # zero-dimensional and no eliminant splits
    gens = ("x^2 + y^3 + z^2", "x^3 + y^2*z + z^3")
    message = ("ideal shape outside the certification fragment: "
               "(x^3 + y^2*z + z^3, y^3 + x^2 + z^2)")
    ring = PolynomialRing(field, ("x", "y", "z"))
    with pytest.raises(DecompositionError) as info:
        minimal_primes(Ideal(ring, gens))
    assert str(info.value) == message
    report, code = run_script(f"field {name}\nlet R = ring(x, y, z)\n"
                              f"let I = ideal(R; {', '.join(gens)})\nprint [I]\n")
    assert code == 1
    assert report["error"] == {"line": 4, "message": message}


def test_a_failure_on_every_elimination_candidate_raises_the_first():
    # u*x - 1 and the x of x^3 + y^2 + x are both candidates; each smaller
    # ring falls outside the fragment, and the first failure is raised
    F7 = PolynomialRing(GF(7), ("x", "y", "u"))
    with pytest.raises(DecompositionError) as info:
        minimal_primes(Ideal(F7, ("x^3 + y^2 + x", "x*u - 1")))
    assert str(info.value) == (
        "ideal shape outside the certification fragment: (y^2*u^3 + u^2 + 1)")


@pytest.mark.parametrize("field, gens, expected", [
    (QQ, ("x^2 - 2", "y^2 - 2"), [("y^2 - 2", "x + y"), ("y^2 - 2", "x - y")]),
    (GF(7), ("x^2 - 3", "y^2 - 3"), [("y^2 + 4", "x + 6*y"), ("y^2 + 4", "x + y")]),
])
def test_a_variable_in_no_generator_is_adjoined_freely(field, gens, expected):
    # z occurs in no generator; (x, y, z) used to fall outside the fragment
    for names in (("x", "y"), ("x", "y", "z"), ("z", "x", "y")):
        ring = PolynomialRing(field, names)
        I = Ideal(ring, gens)
        primes = minimal_primes(I)
        assert [p.key for p in primes] == expected
        assert [p.key for p in assert_decomposition(I, [p.ideal for p in primes])] == expected


def test_split_found_only_in_an_eliminant():
    # no reduced-basis element factors, but eliminating x exposes t^2 - s^2
    R = PolynomialRing(QQ, ("t", "x", "s"))
    primes = minimal_primes(Ideal(R, ("t^2 - x", "s^2 - x")))
    assert keys(primes) == {("s^2 - x", "t + s"), ("s^2 - x", "t - s")}


def test_an_eliminant_split_reads_the_ideals_own_basis(monkeypatch):
    # the eliminants are the elements free of x in the cached basis of J
    # eliminating x, factored in J's own ring: no smaller ring is built
    R = PolynomialRing(QQ, ("t", "x", "s"))
    J = Ideal(R, ("t^2 - x", "s^2 - x"))
    real = primes_module.eliminate
    calls = []
    monkeypatch.setattr(primes_module, "eliminate",
                        lambda *args: calls.append(args) or real(*args))
    step = primes_module._eliminant_split(J)
    assert calls == []
    assert step.witness.ring == R and step.witness == R.parse("t^2 - s^2")
    assert sorted(str(q.monic()) for q, _ in step.factors) == ["t + s", "t - s"]


def test_finite_field_homogeneous_split():
    F5 = PolynomialRing(GF(5), ("x", "y"))
    primes = minimal_primes(Ideal(F5, ("x^2 + y^2",)))
    assert keys(primes) == {("x + 2*y",), ("x + 3*y",)}


def test_assert_decomposition_escape_hatch():
    I = Ideal(R3, ("x^2 + y^2", "z"))
    primes = assert_decomposition(I, [Ideal(R3, ("x^2 + y^2", "z"))])
    assert len(primes) == 1 and not primes[0].certified
    with pytest.raises(DecompositionError):
        assert_decomposition(I, [Ideal(R3, ("x", "z"))])  # (x, z) misses x^2 + y^2
    with pytest.raises(NotPrimeError):
        assert_prime(Ideal(R2, ("1",)))


def test_decomposition_audit_survives_optimize_flag():
    # python -O strips assert statements; both audits must still reject: the
    # full one of assert_decomposition, and the tree audit of minimal_primes
    # given a split whose factors miss one of the witness's
    code = (
        "from chowcalc import DecompositionError, Ideal, PolynomialRing, QQ\n"
        "from chowcalc import primes\n"
        "assert False, 'asserts are live'\n"
        "R = PolynomialRing(QQ, ('x', 'y', 'z'))\n"
        "I = Ideal(R, ('x^2 + y^2', 'z'))\n"
        "try:\n"
        "    primes.assert_decomposition(I, [Ideal(R, ('x', 'z'))])\n"
        "except DecompositionError:\n"
        "    print('rejected')\n"
        "I = Ideal(R, ('x*y',))\n"
        "split = primes._process(I)\n"
        "tree = {I.key(): split._replace(factors=split.factors[1:])}\n"
        "try:\n"
        "    primes._audit_tree(I, tree)\n"
        "except DecompositionError:\n"
        "    print('rejected')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["rejected", "rejected"]


def _spy_on_process(monkeypatch):
    """Record (ideal key, cache dict) for every decomposition step."""
    calls = []
    original = primes_module._process

    def spy(J):
        calls.append((J.key(), primes_module._prime_cache_var.get()))
        return original(J)

    monkeypatch.setattr(primes_module, "_process", spy)
    return calls


def test_prime_cache_does_not_outlive_a_call(monkeypatch):
    calls = _spy_on_process(monkeypatch)
    I = Ideal(R3, ("x*y", "x*z"))
    first = minimal_primes(I)
    steps = len(calls)
    assert minimal_primes(I) == first
    assert len(calls) == 2 * steps  # recomputed: nothing kept between calls
    cycle_of_subscheme(I, Chart("A3", R3))
    assert primes_module._prime_cache_var.get() is None
    for value in vars(primes_module).values():
        if isinstance(value, dict):
            assert not any(isinstance(k, Ideal) for k in value)


def test_prime_cache_is_shared_inside_one_call(monkeypatch):
    calls = _spy_on_process(monkeypatch)
    # the grade, the chart's components and the support all decompose
    # ideals; (x*y) itself is asked for twice
    cycle_of_subscheme(Ideal(R2, ("x*y",)), Chart("A2", R2))
    keys = [k for k, _ in calls]
    assert len(keys) == len(set(keys)) >= 3
    assert len({id(cache) for _, cache in calls}) == 1
    J = Ideal(R2, ("x*y",))
    with primes_module.prime_cache_scope() as cache:
        minimal_primes(J)
        once = len(calls)
        minimal_primes(J)
        assert len(calls) == once and J in cache


def _module_level_sizes():
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name != "chowcalc" and not name.startswith("chowcalc."):
            continue
        for attr, value in vars(module).items():
            if not attr.startswith("__") and isinstance(value, (dict, list, set)):
                sizes[f"{name}.{attr}"] = len(value)
    return sizes


def test_no_module_level_state_grows_with_new_rings():
    before = _module_level_sizes()
    assert before  # the engine does keep module-level tables
    for k in range(24):
        ring = PolynomialRing(QQ, (f"fresh{k}", f"other{k}"))
        u, v = ring.names
        # a principal ideal that only factoring can split
        assert len(minimal_primes(Ideal(ring, [f"{u}^2*{v} - {v}"]))) == 3
    _, code = run_script("let R = ring(p, q)\nproduct [(q - p^2)] [(q)]")
    assert code == 0
    for p in (10007, 10009, 10037, 10039):
        ring = PolynomialRing(GF(p), ("u", "v"))
        assert len(minimal_primes(Ideal(ring, ["u^2 - 1", "v"]))) == 2
        _, code = run_script(
            f"field Fp:{p}\nlet R = ring(p, q)\nproduct [(q - p^2)] [(q)]")
        assert code == 0
    assert _module_level_sizes() == before


def test_vector_space_dimension_table():
    cases = [
        (R2, ("x", "y"), 1),
        (R2, ("x^2", "y^3"), 6),
        (R2, ("x^2", "x*y", "y^2"), 3),
        (R2, ("x^3", "y"), 3),
        (R2, ("x^2 - 1", "y - x"), 2),
        (R2, ("y - x^2",), None),
        (R2, ("1",), 0),
        (R3, ("x", "y", "z"), 1),
        (R3, ("x^2", "y^2", "z^2"), 8),
        (R3, ("x^2 - y", "y^2 - z", "z^2"), 8),
        (R3, ("x*y", "z"), None),
    ]
    for ring, gens, expected in cases:
        assert vector_space_dimension(Ideal(ring, gens)) == expected, gens


@settings(max_examples=200, deadline=None)
@given(nvars=st.integers(2, 3), data=st.data())
def test_standard_exponents_match_the_oracle_count(nvars, data):
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(any)
    lead = data.draw(st.lists(exps, max_size=5))
    for i in range(nvars):
        power = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        if power is not None:
            lead.append(tuple(power if j == i else 0 for j in range(nvars)))
    lead = data.draw(st.permutations(lead))
    std = standard_exponents(lead, nvars, bound=1000)
    expected = count_standard_monomials(lead, bound=100)
    assert (None if std is None else len(std)) == expected
    if std is not None:
        assert len(set(std)) == len(std)
        assert not any(all(x >= y for x, y in zip(m, e))
                       for m in std for e in lead)


def test_standard_exponents_bound_names_its_value():
    with pytest.raises(EngineError, match="exceeds bound 10"):
        standard_exponents([(4, 0), (0, 3)], 2, bound=10)
    assert standard_exponents([(0, 0), (1, 0)], 2, bound=10) == []
    assert standard_exponents([], 0, bound=10) == [()]


def test_minimal_polynomial():
    I = Ideal(R2, ("x^2 - 2", "y - x"))
    m = minimal_polynomial(I, "x + y")  # = 2x, squaring to 8
    assert str(m) == "s^2 - 8"
    assert str(minimal_polynomial(I, "x")) == "s^2 - 2"


def test_generic_rank():
    p_y = minimal_primes(Ideal(R2, ("y",)))[0]
    p_x = minimal_primes(Ideal(R2, ("x",)))[0]
    M = FPModule(R2, 2, [FreeModuleElement(R2, (R2.parse("x"), R2.zero))])
    assert generic_rank(FPModule.free(R2, 2), p_y) == 2
    assert generic_rank(M, p_y) == 1
    assert generic_rank(M, p_x) == 2
    assert generic_rank(FPModule.cyclic(Ideal(R2, ("x",))), p_x) == 1


def prime_of(ring, *gens):
    primes = minimal_primes(Ideal(ring, gens))
    assert len(primes) == 1
    return primes[0]


def test_length_at_prime_curve_cases():
    R1 = PolynomialRing(QQ, ("x",))
    at_x = prime_of(R1, "x")
    assert length_at_prime(FPModule.cyclic(Ideal(R1, ("x",))), at_x) == 1
    assert length_at_prime(FPModule.cyclic(Ideal(R1, ("x^2",))), at_x) == 2
    assert length_at_prime(FPModule.cyclic(Ideal(R1, ("x^5",))), at_x) == 5


def test_length_at_prime_with_residue_extension():
    # one point of degree 2: the local ring k[x]/(q^2) has length 2, not 4
    R1 = PolynomialRing(QQ, ("x",))
    q = prime_of(R1, "x^2 + 2")
    M = FPModule.cyclic(Ideal(R1, ("x^4 + 4*x^2 + 4",)))
    assert length_at_prime(M, q) == 2


def test_length_at_prime_embedded_direction():
    # (x^2, xy) localized at (x) is just (x); at the origin the length diverges
    M = FPModule.cyclic(Ideal(R2, ("x^2", "x*y")))
    at_x = prime_of(R2, "x")
    assert length_at_prime(M, at_x) == 1
    origin = prime_of(R2, "x", "y")
    with pytest.raises(HypothesisError):
        length_at_prime(M, origin, max_steps=8)


def test_length_at_prime_plane_point():
    origin = prime_of(R2, "x", "y")
    assert length_at_prime(FPModule.cyclic(Ideal(R2, ("x^3", "y"))), origin) == 3
    assert length_at_prime(FPModule.cyclic(Ideal(R2, ("x^2", "x*y", "y^2"))), origin) == 3
    M = FPModule(R2, 2, [FreeModuleElement(R2, (R2.parse("x"), R2.zero)),
                         FreeModuleElement(R2, (R2.zero, R2.parse("x^2"))),
                         FreeModuleElement(R2, (R2.parse("y"), R2.zero)),
                         FreeModuleElement(R2, (R2.zero, R2.parse("y")))])
    assert length_at_prime(M, origin) == 3


def test_length_at_prime_on_chart():
    # chart A = k[x, y]/(y): the module A/(x) has length 1 at the origin
    J = Ideal(R2, ("y",))
    origin = prime_of(R2, "x", "y")
    M = FPModule.cyclic(Ideal(R2, ("x",)), J)
    assert length_at_prime(M, origin) == 1


def test_length_at_generic_point_of_chart():
    zero = minimal_primes(Ideal(R2, ()))[0]
    assert length_at_prime(FPModule.free(R2, 3), zero) == 3


def test_tor_lengths_of_crossing_planes():
    # derived by hand: modulo the diagonal identification the union of the
    # two planes becomes (x^2, xy, y^2), of colength 3; the first torsion
    # term contributes 1.
    from chowcalc.homology import tor_modules
    R4 = PolynomialRing(QQ, ("x", "y", "z", "w"))
    I = intersect(Ideal(R4, ("x", "y")), Ideal(R4, ("z", "w")))
    K = Ideal(R4, ("x - z", "y - w"))
    assert vector_space_dimension(I + K) == 3  # independent check of the 3
    origin = prime_of(R4, "x", "y", "z", "w")
    tors = tor_modules(FPModule.cyclic(I), FPModule.cyclic(K), up_to=4)
    lengths = [length_at_prime(T, origin) if T.rank else 0 for T in tors]
    assert lengths == [3, 1, 0, 0, 0]


# ---------------------------------------------------------------------------
# the counting kernel against the filtration and rank oracles

def _local_case(data):
    M, p, modulo, _, _ = _local_case_listed(data)
    return M, p, modulo


def _local_case_listed(data):
    """A prime p of A^n (n = 2, 3) of any dimension, a module near it, a
    chart ideal inside p, the drawn primes (p and the second component
    when drawn: the minimal primes of a closed set containing the
    support) and whether each of them lies in the support: no mixing
    relation was drawn and the chart, if any, runs through them.

    p = (t_0, ..., t_{c-1}) for c = codim p (c = 0: the zero prime), with
    t_i = x_i - a_i - b_i*w for w the last variable (w = 0 when p is a
    point), or t_0 = x^2 + 2 (residue degree 2; irreducible over QQ and
    F_7).  Every position carries t_i^k (one of them times a factor that
    vanishes on a second component), so p is minimal in the support; the
    other relations are random combinations of products of the t_i and
    w + 1.  The chart, when there is one, is t_{c-1} = f * t_0."""
    field = data.draw(st.sampled_from([QQ, GF(7)]), label="field")
    nvars = data.draw(st.integers(2, 3), label="nvars")
    ring = PolynomialRing(field, ("x", "y", "z")[:nvars])
    codim = data.draw(st.integers(0, nvars), label="codim")
    free = ring.var(nvars - 1) if codim < nvars else ring.zero
    shift = [data.draw(st.integers(-2, 2)) for _ in range(codim)]
    coords = [ring.var(i) - ring.const(shift[i])
              - ring.const(data.draw(st.integers(-1, 1))) * free for i in range(codim)]
    if codim and data.draw(st.booleans(), label="residue degree 2"):
        coords[0] = ring.var(0) ** 2 + ring.const(2)
    p = assert_prime(Ideal(ring, coords))
    rank = data.draw(st.integers(1, 2), label="rank")
    top = 3 if nvars == 2 and rank == 1 else 2

    def local_poly():
        f = ring.zero
        for _ in range(data.draw(st.integers(1, 3))):
            term = ring.const(data.draw(st.integers(-3, 3)))
            for t in coords + [free + ring.one]:
                term = term * t ** data.draw(st.integers(0, top - 1))
            f = f + term
        return f

    rels = []
    listed = [p]
    for a in range(rank):
        for i, t in enumerate(coords):
            g = t ** data.draw(st.integers(1, top))
            if i == 0 and data.draw(st.booleans(), label="second component"):
                other = ring.var(0) - ring.const(shift[0] + 1)
                g = g * other
                listed.append(assert_prime(Ideal(ring, [other] + coords[1:])))
            rels.append(tuple(g if b == a else ring.zero for b in range(rank)))
    mixing = data.draw(st.integers(0, 2))
    for _ in range(mixing):
        rels.append(tuple(local_poly() for _ in range(rank)))
    modulo = None
    if codim and data.draw(st.booleans(), label="chart"):
        modulo = Ideal(ring, (coords[-1] - local_poly() * coords[0],))
    listed = list(dict.fromkeys(listed))
    full = not mixing and (modulo is None or all(q.contains(g) for q in listed
                                                 for g in modulo.gens))
    return FPModule(ring, rank, rels, modulo), p, modulo, listed, full


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_length_at_prime_matches_the_filtration_oracle(data):
    M, p, _ = _local_case(data)
    assert length_at_prime(M, p) == filtration_length(M, p)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generic_rank_matches_the_rank_oracle(data):
    # the module is arbitrary here: p need not be minimal in its support
    _, p, modulo = _local_case(data)
    ring = p.ring
    rank = data.draw(st.integers(1, 3), label="rank")
    polys = [ring.zero, ring.one] + [ring.var(i) for i in range(ring.nvars)] + list(p.gens)
    rels = [tuple(data.draw(st.sampled_from(polys)) * data.draw(st.sampled_from(polys))
                  for _ in range(rank))
            for _ in range(data.draw(st.integers(0, 3)))]
    M = FPModule(ring, rank, rels, modulo)
    assert generic_rank(M, p) == rank_at_prime(M, p)


def _closed_case(data):
    M, p, modulo, _, _ = _closed_case_listed(data)
    return M, p, modulo


def _closed_case_listed(data):
    """A module over A^n (n = 2, 3) supported at 1-3 closed points, one of
    which is p, maybe a chart ideal through all of them, the points as
    primes, and whether each of them lies in the support (no mixing
    relation was drawn).

    A point is rational, (x - a, y - b, z - c), or of residue degree 2,
    (x^2 + 2, y - b, z - c), irreducible over QQ and F_7.  Every position
    carries the product of the points' ideals, each maybe squared, so the
    support is those points; up to two more relations mix the positions.
    The chart, when there is one, is cut by a product of one generator of
    each point."""
    field = data.draw(st.sampled_from([QQ, GF(7)]), label="field")
    nvars = data.draw(st.integers(2, 3), label="nvars")
    ring = PolynomialRing(field, ("x", "y", "z")[:nvars])
    x = ring.gens()
    coord = st.integers(-2, 2)
    point = st.tuples(st.booleans(), coord, st.tuples(*[coord] * (nvars - 1)))
    points = data.draw(st.lists(point, min_size=1, max_size=3,
                                unique_by=lambda t: (t[0], 0 if t[0] else t[1], t[2])),
                       label="points (degree 2, a, rest)")
    ideals = []
    for degree_2, a, rest in points:
        head = x[0] ** 2 + ring.const(2) if degree_2 else x[0] - ring.const(a)
        ideals.append([head] + [x[i + 1] - ring.const(c) for i, c in enumerate(rest)])
    support = Ideal(ring, (ring.one,))
    for gens in ideals:
        P = Ideal(ring, gens)
        if data.draw(st.booleans(), label="squared"):
            P = P * P
        support = Ideal(ring, (support * P).groebner_basis())
    rank = data.draw(st.integers(1, 2), label="rank")

    def small_poly():
        f = ring.zero
        for _ in range(data.draw(st.integers(1, 3))):
            term = ring.const(data.draw(st.integers(-3, 3)))
            for v in x:
                term = term * v ** data.draw(st.integers(0, 2))
            f = f + term
        return f

    rels = [tuple(g if b == a else ring.zero for b in range(rank))
            for a in range(rank) for g in support.gens]
    mixing = data.draw(st.integers(0, 2))
    rels += [tuple(small_poly() for _ in range(rank)) for _ in range(mixing)]
    listed = [assert_prime(Ideal(ring, gens)) for gens in ideals]
    p = data.draw(st.sampled_from(listed), label="p")
    modulo = None
    if data.draw(st.booleans(), label="chart"):
        f = small_poly() + ring.one
        for gens in ideals:
            f = f * data.draw(st.sampled_from(gens))
        modulo = Ideal(ring, (f,))
    return FPModule(ring, rank, rels, modulo), p, modulo, listed, not mixing


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_point_length_matches_the_filtration_oracle(data):
    M, p, _ = _closed_case(data)
    assert length_at_prime(M, p) == filtration_length(M, p)


def _fiber_counts(ring, rank, U, relations):
    """The count of standard (position, U-monomial) pairs of the relations'
    basis under primes._fiber_key and under the position-over-term
    reference key."""
    counts = []
    for key in (primes_module._fiber_key(ring, rank, U),
                position_over_term_fiber_key(ring, rank, U)):
        basis = groebner_module.buchberger(
            [groebner_module.vec_from_polys(v, key) for v in relations], key, ring.field)
        counts.append(primes_module._fiber_count([v[0][0] for v in basis], rank, U))
    return counts


@pytest.mark.parametrize("relations", [("s", "1"), ("1", "s"), ("s", "s^2 + 1")])
def test_an_s_part_deciding_the_lead_position_keeps_the_count(relations):
    # over k(s), k[u, s]^2 / (u*e_1, u*e_2, v) has dimension 1; term over
    # position leads v by its larger S-term where positions first lead it
    # at e_1 whatever the S-parts
    R = PolynomialRing(QQ, ("u", "s"))
    rels = [(R.var(0), R.zero), (R.zero, R.var(0)), tuple(R.parse(c) for c in relations)]
    assert _fiber_counts(R, 2, (0,), rels) == [1, 1]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fiber_counts_match_the_position_over_term_key(data):
    field = data.draw(st.sampled_from([QQ, GF(7)]), label="field")
    nvars = data.draw(st.integers(2, 3), label="nvars")
    rank = data.draw(st.integers(1, 3), label="rank")
    ring = PolynomialRing(field, ("x", "y", "z")[:nvars])
    U = tuple(sorted(data.draw(st.sets(st.integers(0, nvars - 1)), label="U")))
    monomial = st.tuples(*[st.integers(0, 2)] * nvars)
    poly = st.dictionaries(monomial, st.integers(-3, 3).filter(bool), max_size=3).map(
        lambda d: ring.from_dict({e: field.coerce(c) for e, c in d.items()}))
    rels = data.draw(st.lists(st.tuples(*[poly] * rank), min_size=1, max_size=3), label="rels")
    # pure powers of the U variables at every position make every count finite
    for i in U:
        k = data.draw(st.integers(1, 3), label="power")
        for a in range(rank):
            rels.append(tuple(ring.var(i) ** k if b == a else ring.zero for b in range(rank)))
    new, reference = _fiber_counts(ring, rank, U, rels)
    assert new == reference


def test_closed_lengths_on_points_of_residue_degree_up_to_four():
    # M = QQ[x, y]/(prod_(c=1..6) (x^2 + y^2 - c), x*y - 1), of dimension 24
    # over QQ: nine points, of residue degree 1 (c = 2), 2 (c = 3, 6) and 4
    # (c = 1, 4, 5); every echelon span is reduced at all nine
    prod = R2.one
    for c in range(1, 7):
        prod = prod * R2.parse(f"x^2 + y^2 - {c}")
    I = Ideal(R2, (prod, R2.parse("x*y - 1")))
    assert vector_space_dimension(I) == 24
    comps = minimal_primes(I)
    M = FPModule.cyclic(I)
    lengths = [length_at_prime(M, p) for p in comps]
    assert lengths == [filtration_length(M, p) for p in comps]
    assert lengths == [2, 2, 1, 1, 1, 1, 1, 1, 1]


def _with_a_line(data, p, listed, full):
    """Maybe list the line x = 3 too, off every drawn prime: a prime of
    higher dimension meeting k[x_S] in 0 whenever x is outside S, which no
    rule may read past."""
    ring = p.ring
    if p.gens and data.draw(st.booleans(), label="a line on the list"):
        return listed + [assert_prime(Ideal(ring, (ring.var(0) - ring.const(3),)))], False
    return listed, full


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_lengths_by_additivity_match_the_filtration_oracle(data):
    M, p, _, listed, full = _closed_case_listed(data)
    listed, full = _with_a_line(data, p, listed, full)
    assert (length_at_prime(M, p, components=listed, full_support=full)
            == filtration_length(M, p))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lengths_by_additivity_match_the_filtration_oracle(data):
    M, p, _, listed, full = _local_case_listed(data)
    listed, full = _with_a_line(data, p, listed, full)
    assert (length_at_prime(M, p, components=listed, full_support=full)
            == filtration_length(M, p))


def test_a_listed_prime_of_higher_dimension_blocks_the_lone_component_rule():
    # M = A/(x, y) + A/(x - 1, y) lies in V(x) ∪ V(x - 1, y), and M tensor k
    # has dimension 2.  (x - 1, y) is the only listed point, but the origin
    # on the listed line x = 0 is in Supp M too: the length is 1, not 2 / 1
    zero = R2.zero
    M = FPModule(R2, 2, [(R2.parse("x"), zero), (R2.parse("y"), zero),
                         (zero, R2.parse("x - 1")), (zero, R2.parse("y"))])
    line, point = prime_of(R2, "x"), prime_of(R2, "x - 1", "y")
    assert length_at_prime(M, point, components=[line, point]) == 1


def test_the_unit_length_rule_needs_every_listed_prime_in_the_support():
    # A/((x - 1)^2, y) lies in {(0, 0), (1, 0)}, and its dimension 2 is the
    # sum of the two points' degrees; but the origin is not in its support,
    # so the lengths are 0 and 2, not 1 and 1
    M = FPModule.cyclic(Ideal(R2, ("x^2 - 2*x + 1", "y")))
    comps = [prime_of(R2, "x", "y"), prime_of(R2, "x - 1", "y")]
    assert [length_at_prime(M, z, components=comps) for z in comps] == [0, 2]


def test_a_module_gone_over_k_of_x_s_has_length_zero_without_a_filtration(monkeypatch):
    # A/(x) tensor k(x) = 0, so its length at (y), where S = {x}, is 0
    # before any count of M / (y)^N M
    monkeypatch.setattr(primes_module, "_fiber_dimension", None)
    M = FPModule.cyclic(Ideal(R2, ("x",)))
    assert length_at_prime(M, prime_of(R2, "y")) == 0


def test_closed_components_of_one_tor_module_share_one_basis(monkeypatch):
    # y = x^2*(x - 1)*(x + 2) meets y = 0 at three points; Tor_0 is
    # A/(I + K), of dimension 4 over k
    I = Ideal(R2, ("y - x^2*(x - 1)*(x + 2)",))
    K = Ideal(R2, ("y",))
    tor_0 = tor_modules(FPModule.cyclic(I), FPModule.cyclic(K), up_to=2)[0]
    comps = minimal_primes(I + K)
    assert [str(z) for z in comps] == ["(x, y)", "(x + 2, y)", "(x - 1, y)"]
    runs = []
    for module in (groebner_module, homology_module, primes_module):
        original = module.buchberger

        def spy(*args, _original=original):
            runs.append(args)
            return _original(*args)

        monkeypatch.setattr(module, "buchberger", spy)
    assert [length_at_prime(tor_0, z) for z in comps] == [2, 1, 1]
    assert len(runs) == 1
    assert length_at_prime(tor_0, comps[0]) == 2
    assert len(runs) == 1


def test_point_length_on_a_non_isolated_point_raises():
    # position 0 is k[x, y]/(x^2, xy): the origin lies on its line x = 0
    zero = R2.zero
    M = FPModule(R2, 2, [(R2.parse("x^2"), zero), (R2.parse("x*y"), zero),
                         (zero, R2.parse("x")), (zero, R2.parse("y"))])
    origin = assert_prime(Ideal(R2, ("x", "y")))
    with pytest.raises(HypothesisError, match="after 8 steps"):
        length_at_prime(M, origin, max_steps=8)


def test_length_reaching_the_step_bound_names_both_causes():
    # the origin is the only component of (x^12, y), where the length is 12
    origin = prime_of(R2, "x", "y")
    with pytest.raises(HypothesisError, match=(
            r"after 8 steps: either the prime is not minimal over the "
            r"annihilator or the length there is at least 8$")):
        length_at_prime(FPModule.cyclic(Ideal(R2, ("x^12", "y"))), origin,
                        max_steps=8)


def test_reaching_the_count_of_the_module_stops_at_the_step_bound():
    # (x^8, y) lives at the origin alone: the count at N = 8 is the count of
    # the whole module, so no ninth step is needed to see it repeat; with a
    # second point the repeat is needed, and the ninth step is not allowed
    origin = prime_of(R2, "x", "y")
    assert length_at_prime(FPModule.cyclic(Ideal(R2, ("x^8", "y"))), origin,
                           max_steps=8) == 8
    with pytest.raises(HypothesisError, match="after 8 steps"):
        length_at_prime(FPModule.cyclic(Ideal(R2, ("x^8*(x - 1)", "y"))), origin,
                        max_steps=8)


def test_point_length_rejects_a_dimension_off_the_residue_degree():
    # (x^2 - 1) is trusted as a point of degree 2, but R/(x - 1) meets it in
    # a space of dimension 1: no length is returned
    R1 = PolynomialRing(QQ, ("x",))
    z = assert_prime(Ideal(R1, ("x^2 - 1",)))
    with pytest.raises(ConsistencyError, match="residue degree 2"):
        length_at_prime(FPModule.cyclic(Ideal(R1, ("x - 1",))), z)
