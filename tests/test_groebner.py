import signal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from chowcalc.errors import DegreeOverflowError, InexactDivisionError
from chowcalc.fields import GF, QQ, RationalField
from chowcalc.groebner import (Ideal, buchberger, degree_limit, divide_exact, eliminate,
                               in_radical, independent_set, intersect,
                               is_regular_element, krull_dim, module_order, quotient,
                               vec_from_polys)
from chowcalc.polyring import PolynomialRing, grevlex, lex

from oracles import (assert_good_basis, independent_set_by_scan, is_groebner,
                     is_reduced_basis, reduces_into)


def R2(order=grevlex):
    return PolynomialRing(QQ, ("x", "y"), order)


def R3(order=grevlex):
    return PolynomialRing(QQ, ("x", "y", "z"), order)


def I(ring, *gens):
    return Ideal(ring, [ring.parse(g) for g in gens])


# ---------------------------------------------------------------------------
# bases

def test_monomial_ideal_is_its_own_basis():
    ring = R2()
    J = I(ring, "x^2", "x*y")
    gb = J.groebner_basis()
    assert [str(g) for g in gb] == ["x^2", "x*y"]
    assert_good_basis(J.gens, gb, ring.order)


def test_coprime_leading_monomials():
    # lm's coprime: generators already a basis (derived via the criterion oracle)
    ring = R2()
    J = I(ring, "x^2 + y", "y^3 - 1")
    gb = J.groebner_basis()
    assert_good_basis(J.gens, gb, ring.order)
    assert {str(g) for g in gb} == {"x^2 + y", "y^3 - 1"}


def test_lex_basis_classic():
    # cross-checked example: lex basis of (x^2 + 2*x*y^2, x*y + 2*y^3 - 1)
    ring = R2(lex)
    J = I(ring, "x^2 + 2*x*y^2", "x*y + 2*y^3 - 1")
    gb = J.groebner_basis()
    assert [str(g) for g in gb] == ["x", "y^3 - 1/2"]
    assert_good_basis(J.gens, gb, lex)


def test_twisted_cubic_lex():
    ring = R3(lex)
    J = I(ring, "y - x^2", "z - x^3")
    gb = J.groebner_basis()
    assert_good_basis(J.gens, gb, lex)
    # x^2 - y and x*y - z belong to the span
    assert J.contains(ring.parse("x*z - y^2"))
    assert J.contains(ring.parse("y^3 - z^2"))
    assert not J.contains(ring.parse("x*y - 1"))


def test_unit_ideal():
    ring = R2()
    J = I(ring, "x", "x + 1")
    assert J.is_unit()
    assert [str(g) for g in J.groebner_basis()] == ["1"]


def test_zero_ideal():
    ring = R2()
    J = Ideal(ring, ())
    assert J.groebner_basis() == ()
    assert J.is_zero()
    f = ring.parse("x + y")
    assert J.normal_form(f) == f


def test_basis_cached_and_canonical():
    ring = R2()
    J = I(ring, "y - x^2", "x*y - 1")
    first = J.groebner_basis()
    assert J.groebner_basis() is first
    K = I(ring, "x*y - 1", "y - x^2")  # same ideal, different generators
    assert J == K
    assert J.groebner_basis() == K.groebner_basis()
    assert hash(J) == hash(K)


def test_fp_basis():
    ring = PolynomialRing(GF(7), ("x", "y"))
    J = I(ring, "x^2 + y", "x*y + 6")
    gb = J.groebner_basis()
    assert_good_basis(J.gens, gb, ring.order)


def test_degree_limit_guard():
    ring = R2()
    J = I(ring, "y - x^5", "x*y^5 - 1")
    with degree_limit(2):
        with pytest.raises(DegreeOverflowError):
            J.groebner_basis()


# ---------------------------------------------------------------------------
# normal forms

def test_normal_form_examples():
    ring = R2()
    J = I(ring, "y - x^2")
    # grevlex leading monomial of the generator is x^2, so x^2 rewrites to y
    assert str(J.normal_form("x^4")) == "y^2"
    assert J.normal_form("y - x^2").is_zero()
    assert J.contains(ring.parse("x^2*y - x^4"))
    # under lex (y > x is false here: x > y), eliminate through a y-first ring
    ring_yx = PolynomialRing(QQ, ("y", "x"), lex)
    Jyx = I(ring_yx, "y - x^2")
    assert str(Jyx.normal_form("y^2")) == "x^4"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_normal_form_is_additive_and_idempotent(data):
    ring = R2()
    J = I(ring, "y^2 - x^3", "x*y")
    coeffs = st.integers(-3, 3)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    raw = data.draw(st.lists(st.tuples(exps, coeffs), max_size=5))
    raw2 = data.draw(st.lists(st.tuples(exps, coeffs), max_size=5))
    f = ring.from_dict({e: sum(c for e2, c in raw if e2 == e) for e, _ in raw})
    g = ring.from_dict({e: sum(c for e2, c in raw2 if e2 == e) for e, _ in raw2})
    nf = J.normal_form
    assert nf(f + g) == nf(f) + nf(g)
    assert nf(nf(f)) == nf(f)
    assert nf(f - nf(f)).is_zero()


# ---------------------------------------------------------------------------
# ideal operations

def test_sum_and_product():
    ring = R2()
    A = I(ring, "x")
    B = I(ring, "y")
    assert (A + B) == I(ring, "x", "y")
    assert (A * B) == I(ring, "x*y")


def test_intersection():
    ring = R2()
    assert intersect(I(ring, "x"), I(ring, "y")) == I(ring, "x*y")
    # (x^2, y) cap (x) = (x^2, x*y)
    assert intersect(I(ring, "x^2", "y"), I(ring, "x")) == I(ring, "x^2", "x*y")
    assert intersect(Ideal(ring, ()), I(ring, "x")).is_zero()


def test_quotient():
    ring = R2()
    assert quotient(I(ring, "x*y"), I(ring, "x")) == I(ring, "y")
    assert quotient(I(ring, "x^2*y"), ring.parse("x")) == I(ring, "x*y")
    assert quotient(I(ring, "x"), I(ring, "x")) == I(ring, "1")
    assert quotient(I(ring, "x"), Ideal(ring, ())).is_unit()


def test_eliminate():
    ring = R2()
    J = eliminate(I(ring, "y - x^2"), ("y",))
    assert J.ring.names == ("x",)
    assert J.is_zero()
    K = eliminate(I(ring, "y - x^2", "y"), ("y",))
    assert [str(g) for g in K.groebner_basis()] == ["x^2"]
    # implicitization of the twisted cubic
    ring3 = PolynomialRing(QQ, ("t", "x", "y", "z"))
    C = I(ring3, "x - t", "y - t^2", "z - t^3")
    E = eliminate(C, ("t",))
    assert E.ring.names == ("x", "y", "z")
    gb = {str(g) for g in E.groebner_basis()}
    assert E.contains(E.ring.parse("y - x^2"))
    assert E.contains(E.ring.parse("z - x^3"))
    assert len(gb) >= 2


def test_divide_exact():
    ring = R2()
    g = ring.parse("x^2*y + x*y^2")
    h = ring.parse("x*y")
    assert divide_exact(g, h) == ring.parse("x + y")
    with pytest.raises(InexactDivisionError):
        divide_exact(ring.parse("x + 1"), ring.parse("y"))


def test_in_radical():
    ring = R2()
    J = I(ring, "x^2")
    assert in_radical(ring.parse("x"), J)
    assert not in_radical(ring.parse("y"), J)
    assert in_radical(ring.parse("x*y + x"), J)
    # x is not in rad(x*y)
    assert not in_radical(ring.parse("x"), I(ring, "x*y"))


def test_is_regular_element():
    ring = R2()
    assert not is_regular_element(ring.parse("x"), I(ring, "x*y"))
    assert is_regular_element(ring.parse("x"), I(ring, "y"))
    assert is_regular_element(ring.parse("x - 1"), I(ring, "x^2*y"))
    assert not is_regular_element(ring.parse("x"), I(ring, "x^2*y"))


# ---------------------------------------------------------------------------
# dimension

def test_krull_dim_examples():
    ring, ring3 = R2(), R3()
    cases = [(Ideal(ring, ()), 2), (I(ring, "x"), 1), (I(ring, "x", "y"), 0),
             (I(ring, "1"), -1), (I(ring, "y - x^2"), 1),
             (I(ring3, "y - x^2", "z - x^3"), 1),
             (I(ring3, "x*y", "x*z"), 2)]  # V(x) union V(y,z)
    for ideal, dim in cases:
        assert krull_dim(ideal) == dim
        S = independent_set(ideal)
        if dim == -1:
            assert S is None
            continue
        # S meets no leading-monomial support: no leading monomial lies in k[x_S]
        assert len(S) == dim
        assert not any(all(i in S for i, k in enumerate(e) if k)
                       for e in ideal.leading_exponents())


def test_krull_dim_order_invariance():
    for gens in (("y - x^2",), ("x*y", "x*z"), ("x^2", "y"), ()):
        dims = set()
        for order in (grevlex, lex):
            ring = PolynomialRing(QQ, ("x", "y", "z"), order)
            dims.add(krull_dim(Ideal(ring, [ring.parse(g) for g in gens])))
        assert len(dims) == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_independent_set_matches_the_subset_scan(data):
    # monomial ideals are their own leading ideals, so any leading set can
    # be drawn; the zero exponent gives the unit ideal
    n = data.draw(st.integers(1, 7), label="nvars")
    ring = PolynomialRing(QQ, [f"x{i}" for i in range(n)])
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=6), label="lms")
    ideal = Ideal(ring, [ring.monomial(e) for e in exps])
    assert independent_set(ideal) == independent_set_by_scan(ideal)


def test_krull_dim_of_thirty_variables_returns():
    # the subset scan visits 2^30 subsets here before it reaches size 0
    ring = PolynomialRing(QQ, [f"x{i}" for i in range(1, 31)])
    ideal = Ideal(ring, ring.gens())

    def hang(signum, frame):
        raise TimeoutError("krull_dim of (x_1, ..., x_30) ran past 10 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        assert krull_dim(ideal) == 0
        assert independent_set(ideal) == ()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_rational_basis_builds_rationals_only_at_the_monic_step(monkeypatch):
    # over QQ the engine reduces integer vectors: from the input conversion
    # on, the one rational built per coefficient is the monic step's
    ring = R3()
    key = module_order(ring.order, 1).key
    vecs = [vec_from_polys((ring.parse(g),), key)
            for g in ("1/2*x^2*y - 3*y + 1", "2/3*x*y^2 - x + 5", "x^3 - 5/4*y^2 + z")]
    mpq = type(QQ.one)
    built, fractions = [0], [0]
    new, fraction = mpq._new.__func__, RationalField.fraction

    def counted_new(cls, num, den):
        built[0] += 1
        return new(cls, num, den)

    def counted_fraction(self, num, den):
        fractions[0] += 1
        return fraction(self, num, den)

    monkeypatch.setattr(mpq, "_new", classmethod(counted_new))
    monkeypatch.setattr(RationalField, "fraction", counted_fraction)
    basis = buchberger(vecs, key, QQ)
    monkeypatch.undo()
    terms = sum(len(v) for v in basis)
    assert len(basis) > 3 and terms > 20
    assert built[0] == fractions[0] == terms
    assert all(type(c) is mpq for v in basis for _, c in v)
    assert all(v[0][1] == QQ.one for v in basis)


# ---------------------------------------------------------------------------
# randomized basis soundness (acceptance criterion 8 feeds on this oracle)

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_bases_pass_criterion(data):
    ring = R2()
    pool = ["x", "y", "x + y", "x - 1", "y - x^2", "x*y - 1", "y^2 - x^3", "x + y - 2"]
    k = data.draw(st.integers(1, 3))
    gens = [ring.parse(data.draw(st.sampled_from(pool))) for _ in range(k)]
    J = Ideal(ring, gens)
    gb = J.groebner_basis()
    assert_good_basis(gens, gb, ring.order)


# ---------------------------------------------------------------------------
# sympy's groebner as an independent implementation

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduced_basis_matches_sympy(data):
    nvars = data.draw(st.integers(2, 3), label="nvars")
    order_name = data.draw(st.sampled_from(["grevlex", "lex"]), label="order")
    p = data.draw(st.sampled_from([0, 7, 101]), label="p")
    field = QQ if p == 0 else GF(p)
    names = ("x", "y", "z")[:nvars]
    ring = PolynomialRing(field, names, grevlex if order_name == "grevlex" else lex)
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    # over QQ rationals too, so the engine's input conversion clears denominators
    coeff = st.integers(-4, 4)
    if not p:
        coeff = st.one_of(coeff, st.fractions(-4, 4, max_denominator=9))
    poly = st.dictionaries(exps, coeff.filter(bool), min_size=1, max_size=3)
    raw = data.draw(st.lists(poly, min_size=1, max_size=3), label="gens")
    gens = [ring.from_dict({e: field.coerce(c) for e, c in d.items()}) for d in raw]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return

    syms = sympy.symbols(names)
    exprs = [sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                         * sympy.Mul(*[s ** k for s, k in zip(syms, e)])
                         for e, c in d.items()]) for d in raw]
    opts = {"order": order_name}
    if p:
        opts["modulus"] = p
    expected = set()
    for q in sympy.groebner(exprs, *syms, **opts).exprs:
        poly_q = sympy.Poly(q, *syms, **({"modulus": p} if p else {"domain": "QQ"}))
        terms = {}
        for e, c in poly_q.terms():
            if p:
                terms[e] = int(c) % p
            else:
                r = sympy.Rational(c)
                terms[e] = Fraction(int(r.p), int(r.q))
        expected.add(ring.from_dict(terms).monic())
    assert set(Ideal(ring, gens).groebner_basis()) == expected
