from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from chowcalc.errors import EngineError, ParseError, RingMismatchError
from chowcalc.fields import _MR_BOUND, GF, QQ, field_from_name
from chowcalc.polyring import (BlockOrder, PolynomialRing, elimination_order,
                               grevlex, lex, mono_div, mono_divides, mono_lcm,
                               transport)

from oracles import monomial_compare


def ring_xy():
    return PolynomialRing(QQ, ("x", "y"))


# ---------------------------------------------------------------------------
# fields

def test_field_basics():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.fraction(1, 2) == Fraction(1, 2)
    F7 = GF(7)
    assert F7.coerce(-3) == 4
    assert F7.inv(3) == 5
    assert F7.fraction(3, 2) == F7.mul(3, F7.inv(2))
    with pytest.raises(EngineError):
        GF(6)
    with pytest.raises(EngineError):
        QQ.fraction(1, 0)
    assert field_from_name("QQ") == QQ
    assert field_from_name("Fp:7") == F7
    assert field_from_name("Fp(7)") == F7


@pytest.mark.parametrize("p", [7.0, True, "7"])
def test_prime_field_needs_an_int(p):
    with pytest.raises(EngineError) as info:
        GF(p)
    assert str(info.value) == f"the characteristic must be an int, not {p!r}"


def test_prime_field_primality_check():
    F = field_from_name("Fp:1000000000000037")  # 16-digit prime, instant
    assert F.p == 1000000000000037 and F.inv(2) * 2 % F.p == 1
    for carmichael in (561, 41041, 3215031751):  # the last fools bases 2, 3, 5, 7
        with pytest.raises(EngineError, match="not prime"):
            GF(carmichael)
    with pytest.raises(EngineError, match="not prime"):
        GF(1000000000000037 * 1000000007)
    assert GF(3317044064679887385961813).p == 3317044064679887385961813
    with pytest.raises(EngineError, match="cannot certify"):
        GF(3317044064679887385961981)  # first strong pseudoprime to all 13 bases
    with pytest.raises(EngineError, match="cannot certify"):
        GF(2 ** 127 - 1)


def test_prime_field_certificates_at_the_edges_of_each_base_set():
    # strong pseudoprimes to the prime bases up to 7, 23 and 37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(EngineError, match="is not prime"):
            GF(n)
    for p in (2 ** 61 - 1, 2 ** 64 - 59):
        assert GF(p).p == p
    with pytest.raises(EngineError, match="cannot certify primality"):
        GF(2 ** 89 - 1)  # prime, above the bound
    with pytest.raises(EngineError, match="is not prime"):
        GF(2 * _MR_BOUND)  # above the bound, but a multiple of a base


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101])
def test_prime_field_square_roots(p):
    F = GF(p)
    squares = {x * x % p for x in range(p)}
    for a in range(p):
        r = F.sqrt(a)
        if a in squares:
            assert r is not None and r * r % p == a
        else:
            assert r is None


# ---------------------------------------------------------------------------
# orders

def test_order_examples():
    # two variables x > y
    x2y = (2, 1)
    xy2 = (1, 2)
    assert monomial_compare(x2y, xy2, grevlex) == 1
    # lex in two variables: y^5 < x
    assert monomial_compare((0, 5), (1, 0), lex) == -1
    # block order with {y} first flips that
    blk = BlockOrder([((1,), grevlex), ((0,), grevlex)])
    assert monomial_compare((0, 5), (1, 0), blk) == 1
    assert monomial_compare((1, 1), (1, 1), grevlex) == 0


def test_elimination_order_property():
    order = elimination_order((1,), 2)  # eliminate y
    # any monomial containing y beats any monomial without
    assert monomial_compare((0, 1), (9, 0), order) == 1


def test_monomial_helpers():
    assert mono_lcm((2, 0), (1, 1)) == (2, 1)
    assert mono_divides((1, 0), (2, 1))
    assert not mono_divides((3, 0), (2, 1))
    assert mono_div((2, 1), (1, 0)) == (1, 1)


exps2 = st.tuples(st.integers(0, 4), st.integers(0, 4))


@given(a=exps2, b=exps2, m=exps2)
def test_orders_total_and_multiplicative(a, b, m):
    for order in (grevlex, lex, elimination_order((0,), 2)):
        ka, kb = order.key(a), order.key(b)
        assert (ka == kb) == (a == b)
        c = monomial_compare(a, b, order)
        # multiplicative: scaling by m preserves the comparison
        am = tuple(x + y for x, y in zip(a, m))
        bm = tuple(x + y for x, y in zip(b, m))
        assert monomial_compare(am, bm, order) == c
        # 1 is the minimum (well-foundedness for monomial orders)
        assert monomial_compare(a, (0, 0), order) >= 0


# ---------------------------------------------------------------------------
# parsing and printing

def test_parse_print_example():
    R = ring_xy()
    p = R.parse("x^2*y - 3*x")
    assert str(p) == "x^2*y - 3*x"
    assert p.terms == (((2, 1), Fraction(1)), ((1, 0), Fraction(-3)))


def test_parse_parenthesized():
    R = ring_xy()
    assert R.parse("(x + y)*(x - y)") == R.parse("x^2 - y^2")


def test_parse_fractions_and_signs():
    R = ring_xy()
    p = R.parse("-1/2*x + y^2")
    assert str(p) == "y^2 - 1/2*x"
    assert R.parse(str(p)) == p
    assert R.parse("3/2") == R.const(Fraction(3, 2))
    assert R.parse("-x") == -R.var("x")


def test_parse_errors():
    R = ring_xy()
    with pytest.raises(ParseError):
        R.parse("x/2")  # division only inside literal fractions
    with pytest.raises(ParseError):
        R.parse("1/0")
    with pytest.raises(ParseError):
        R.parse("z + 1")
    with pytest.raises(ParseError):
        R.parse("x +")
    with pytest.raises(ParseError):
        R.parse("x ^ y")
    with pytest.raises(ParseError):
        R.parse("x*")
    with pytest.raises(ParseError):
        R.parse("2^3")  # exponents apply to variables and groups only


def test_parse_number_after_star():
    R = ring_xy()
    assert R.parse("x*2") == R.parse("2*x")
    assert R.parse("2*3") == R.const(6)
    assert R.parse("x*1/2*y") == R.parse("1/2*x*y")
    assert str(R.parse("y*3 - x*2")) == "-2*x + 3*y"


def test_parse_power_of_group():
    R = ring_xy()
    p = R.parse("(x - 1)^2")
    assert p == R.parse("x^2 - 2*x + 1")
    assert R.parse("2*(x + y)^3*y") == 2 * R.parse("x + y") ** 3 * R.var("y")
    assert R.parse("(x)^0") == R.one
    assert str(p) == "x^2 - 2*x + 1"
    assert R.parse(str(p)) == p


def test_print_edge_cases():
    R = ring_xy()
    assert str(R.zero) == "0"
    assert str(R.one) == "1"
    assert str(R.parse("x")) == "x"
    assert str(R.parse("0 - x")) == "-x"
    assert str(R.parse("2*x*y")) == "2*x*y"
    assert str(R.const(Fraction(-3, 4))) == "-3/4"


def test_fp_parse_print():
    R = PolynomialRing(GF(7), ("x",))
    p = R.parse("x + 6*x")
    assert p.is_zero()
    q = R.parse("0 - 3*x")
    assert str(q) == "4*x"
    assert R.parse(str(q)) == q
    assert R.parse("3/2*x") == R.parse("5*x")  # 2^{-1} = 4, 3*4 = 12 = 5


# ---------------------------------------------------------------------------
# arithmetic

def test_ring_basics():
    R = ring_xy()
    x, y = R.gens()
    assert (x + y) - y == x
    assert (x + y) * (x - y) == x * x - y * y
    assert x * R.zero == R.zero
    assert (x + 1) ** 3 == R.parse("x^3 + 3*x^2 + 3*x + 1")
    assert 2 * x == x + x
    assert x.total_degree() == 1
    assert R.zero.total_degree() == -1


def test_canonical_storage():
    R = ring_xy()
    x, y = R.gens()
    a = (x + y) - y
    assert a.terms == x.terms
    assert hash(a) == hash(x)


def test_ring_mismatch():
    R = ring_xy()
    S = PolynomialRing(QQ, ("x", "z"))
    with pytest.raises(RingMismatchError):
        R.var("x") + S.var("x")


def test_unknown_variable_name_raises_engine_error():
    with pytest.raises(EngineError):
        ring_xy().var("z")


def test_sum_and_difference_coerce_field_elements():
    R = ring_xy()
    x = R.var("x")
    assert x + Fraction(1, 2) == R.parse("x + 1/2")
    assert x - Fraction(1, 2) == R.parse("x - 1/2")
    assert Fraction(1, 2) - x == R.parse("1/2 - x")
    F = PolynomialRing(GF(7), ("x",))
    assert F.var("x") + Fraction(3, 2) == F.parse("x + 5")
    assert F.var("x") * Fraction(3, 2) == F.parse("5*x")


def test_arithmetic_with_an_uncoercible_operand_raises_engine_error():
    R = ring_xy()
    x = R.var("x")
    for bad in (0.5, "y", None):
        for op in (lambda: x + bad, lambda: x - bad, lambda: x * bad):
            with pytest.raises(EngineError):
                op()
    F = PolynomialRing(GF(7), ("x",))
    with pytest.raises(EngineError):
        F.var("x") + Fraction(1, 7)  # 7 has no inverse in F_7


def _through_every_entry(ring, c):
    """Polynomials built from the coefficient c by each public entry that
    takes one, keyed by the entry."""
    x = ring.var("x")
    e = (1, 1)
    return {"const": ring.const(c), "monomial": ring.monomial(e, c),
            "from_dict": ring.from_dict({e: c, (0, 0): 1}),
            "x + c": x + c, "c + x": c + x, "x - c": x - c, "c - x": c - x,
            "x * c": x * c, "c * x": c * x, "mul_term": x.mul_term(e, c),
            "coerce": ring.const(ring.field.coerce(c))}


@pytest.mark.parametrize("field,values,text", [
    (QQ, (Fraction(3), 3, QQ.coerce(3)), "3"),
    (QQ, (Fraction(1), 1, True, QQ.one), "1"),
    (QQ, (Fraction(-3, 2), QQ.fraction(-3, 2)), "-3/2"),
    (GF(7), (Fraction(3, 2), 5, QQ.fraction(3, 2)), "3/2"),
])
def test_every_coefficient_entry_gives_the_native_type(field, values, text):
    R = PolynomialRing(field, ("x", "y"))
    native = type(field.one)
    built = [_through_every_entry(R, c) for c in values]
    for entry in built[0]:
        polys = [b[entry] for b in built]
        assert len({p.terms for p in polys}) == 1, entry
        assert len({str(p) for p in polys}) == 1, entry
        for p in polys:
            assert all(type(c) is native for _, c in p.terms), entry
    # the parser reads the same coefficient into the same terms
    assert R.parse(text).terms == built[0]["const"].terms
    assert R.parse(f"({text})*x*y").terms == built[0]["monomial"].terms


@pytest.mark.parametrize("field", [QQ, GF(7)])
@pytest.mark.parametrize("bad", [0.5, "1/2", sympy.Rational(1, 2)])
def test_every_coefficient_entry_rejects_other_types(field, bad):
    R = PolynomialRing(field, ("x", "y"))
    x = R.var("x")
    entries = [lambda: field.coerce(bad), lambda: R.const(bad),
               lambda: R.monomial((1, 0), bad), lambda: R.from_dict({(1, 0): bad}),
               lambda: x + bad, lambda: bad + x, lambda: x - bad, lambda: bad - x,
               lambda: x * bad, lambda: bad * x, lambda: x.mul_term((1, 0), bad)]
    for entry in entries:
        with pytest.raises(EngineError):
            entry()


def test_diff():
    R = ring_xy()
    p = R.parse("x^3*y + 2*x")
    assert p.diff("x") == R.parse("3*x^2*y + 2")
    assert p.diff("y") == R.parse("x^3")


def test_substitute():
    R = ring_xy()
    S = PolynomialRing(QQ, ("t",))
    t = S.var("t")
    p = R.parse("y - x^2")
    assert p.substitute([t, t ** 2], S).is_zero()
    assert R.parse("x + y").substitute([t, S.one], S) == t + 1


def test_transport():
    R = ring_xy()
    S = PolynomialRing(QQ, ("x", "y", "z"))
    p = R.parse("x^2 - y")
    q = transport(p, S)
    assert str(q) == "x^2 - y"
    back = transport(q, R)
    assert back == p
    with pytest.raises(EngineError):
        transport(S.var("z"), R)
    T = PolynomialRing(QQ, ("u", "v"))
    assert str(transport(p, T, rename={"x": "u", "y": "v"})) == "u^2 - v"


def test_monic_and_leading():
    R = ring_xy()
    p = R.parse("2*x^2 + x")
    assert p.lm() == (2, 0)
    assert p.lc() == Fraction(2)
    assert p.monic() == R.parse("x^2 + 1/2*x")


small_coeff = st.integers(-4, 4)


def polys(ring, max_terms=4):
    term = st.tuples(
        st.tuples(*(st.integers(0, 3) for _ in range(ring.nvars))), small_coeff)
    return st.lists(term, max_size=max_terms).map(
        lambda items: ring.from_dict(
            {e: sum(c for e2, c in items if e2 == e) for e, _ in items}))


R2 = PolynomialRing(QQ, ("x", "y"))


@settings(max_examples=60)
@given(a=polys(R2), b=polys(R2), c=polys(R2))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + R2.zero == a
    assert a * R2.one == a
    assert a - a == R2.zero


@settings(max_examples=60)
@given(p=polys(R2))
def test_round_trip(p):
    assert R2.parse(str(p)) == p


@settings(max_examples=60)
@given(p=polys(R2))
def test_terms_canonical(p):
    key = R2.order.key
    keys = [key(e) for e, c in p.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(c != 0 for _, c in p.terms)
