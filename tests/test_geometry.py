"""Charts, cycles, Cartier divisors, gluing."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chowcalc import geometry as geometry_module
from chowcalc.errors import DecompositionError, EngineError, GlueError, RingMismatchError
from chowcalc.fields import GF, QQ
from chowcalc.geometry import (CartierDivisor, Chart, ChartedSpace, Cycle, codim,
                               cycle_of_module, cycle_of_subscheme, point_cycle,
                               principal_atlas, restrict_cycle, transport_cycle)
from chowcalc.groebner import Ideal
from chowcalc.homology import FPModule, FreeModuleElement
from chowcalc.polyring import PolynomialRing
from chowcalc.primes import assert_decomposition, assert_prime, minimal_primes

from oracles import laplace_det

R2 = PolynomialRing(QQ, ("x", "y"))
R3 = PolynomialRing(QQ, ("x", "y", "z"))

PLANE = Chart("A2", R2)
PARABOLA = Chart("P", R2, ("y - x^2",))
CUSP = Chart("C", R2, ("y^2 - x^3",))
AXES = Chart("axes", R2, ("x*y",))


def test_chart_basics():
    assert PLANE.dim() == 2
    assert PARABOLA.dim() == 1
    assert PARABOLA.is_integral()
    assert not AXES.is_integral()
    assert len(AXES.components()) == 2
    with pytest.raises(EngineError):
        Chart("bad", R2, ("1",))


def test_chart_regularity():
    assert PLANE.is_regular() is True
    assert PARABOLA.is_regular() is True
    assert CUSP.is_regular() is False
    assert Chart("node", R2, ("y^2 - x^2 - x^3",)).is_regular() is False
    assert Chart("line", R3, ("x", "y")).is_regular() is True
    R4 = PolynomialRing(QQ, ("x", "y", "z", "w"))
    planes = Chart("pp", R4, ("x*z", "x*w", "y*z", "y*w"))
    assert planes.is_regular() is None  # not a complete intersection


def test_localization_chart():
    L = PLANE.localize("x")
    assert L.dim() == 2
    assert L.ring.names == ("x", "y", "u")
    assert L.is_regular() is True
    # a taken default name gets "_" appended until it is free
    assert L.localize("y").ring.names == ("x", "y", "u", "u_")
    assert L.localize("y").localize("x").ring.names == ("x", "y", "u", "u_", "u__")
    with pytest.raises(EngineError):
        PLANE.localize("x", inv_name="y")


def test_codimension_sup_convention():
    origin = _prime(R2, "x", "y")
    assert codim(origin, PLANE) == 2
    assert codim(_prime(R2, "x"), PLANE) == 1
    assert codim(origin, AXES) == 1
    mixed = Chart("m", R3, ("x*y", "x*z"))
    assert codim(_prime(R3, "x", "y", "z"), mixed) == 2
    assert codim(_prime(R3, "x - 1", "y", "z"), mixed) == 1
    with pytest.raises(EngineError):
        codim(_prime(R2, "x - 1", "y - 2"), PARABOLA)  # point off the curve


def _prime(ring, *gens):
    from chowcalc.primes import assert_decomposition, minimal_primes
    primes = minimal_primes(Ideal(ring, gens))
    assert len(primes) == 1
    return primes[0]


def test_cycle_arithmetic_and_printing():
    px = _prime(R2, "x")
    py = _prime(R2, "y")
    a = Cycle(PLANE, 1, {px: 2})
    b = Cycle(PLANE, 1, {py: 1, px: -2})
    assert str(a) == "2*[(x)]"
    assert str(a + b) == "[(y)]"
    assert str(-b) == "2*[(x)] - [(y)]"
    assert str(Cycle.zero(PLANE, 1)) == "0"
    assert 3 * a == Cycle(PLANE, 1, {px: 6})
    assert (a - a).is_zero()
    with pytest.raises(EngineError):
        Cycle(PLANE, 2, {px: 1})  # wrong codimension
    with pytest.raises(EngineError):
        a + Cycle(PLANE, 2, {_prime(R2, "x", "y"): 1})


def test_cycle_of_subscheme():
    assert str(cycle_of_subscheme(Ideal(R2, ("x^2",)), PLANE)) == "2*[(x)]"
    assert str(cycle_of_subscheme(Ideal(R2, ("x^2", "x*y")), PLANE, grade=1)) == "[(x)]"
    c = cycle_of_subscheme(Ideal(R2, ("x^2 - 1", "y")), PLANE, grade=2)
    assert str(c) == "[(x + 1, y)] + [(x - 1, y)]"
    assert cycle_of_subscheme(Ideal(R2, ("1",)), PLANE).is_zero()


def test_point_cycle_degree_with_residue_extension():
    R1 = PolynomialRing(QQ, ("t",))
    line = Chart("A1", R1)
    c = point_cycle(line, Ideal(R1, ("t^4 - 1",)))
    assert len(c.coeffs) == 3
    assert all(m == 1 for m in c.coeffs.values())
    assert c.degree() == 4  # 1 + 1 + 2: a quadratic point counts twice
    double = point_cycle(line, Ideal(R1, ("t^2 + 4*t + 4",)))
    assert str(double) == "2*[(t + 2)]"
    assert double.degree() == 2


def test_cycle_of_module():
    M = FPModule(R2, 2, [FreeModuleElement(R2, (R2.parse("x"), R2.zero)),
                         FreeModuleElement(R2, (R2.zero, R2.parse("x")))])
    assert str(cycle_of_module(M, PLANE, 1)) == "2*[(x)]"
    # a free module is supported everywhere: codim 0 < 1 is an honest error
    from chowcalc.errors import HypothesisError
    with pytest.raises(HypothesisError):
        cycle_of_module(FPModule.free(R2, 1), PLANE, 1)


def test_cycle_of_module_needs_a_module_over_the_charts_algebra():
    origin = FPModule.cyclic(Ideal(R2, ("x",)))
    with pytest.raises(RingMismatchError):
        cycle_of_module(origin, PARABOLA, 1)
    with pytest.raises(RingMismatchError):
        cycle_of_module(FPModule.free(R3, 1), PLANE, 0)
    on_parabola = FPModule.cyclic(Ideal(R2, ("x",)), PARABOLA.ideal)
    assert str(cycle_of_module(on_parabola, PARABOLA, 1)) == "[(x, y)]"


def test_cartier_divisor_weil_cycles():
    D = CartierDivisor(PLANE, "x^2*y")
    assert str(D.weil()) == "2*[(x)] + [(y)]"
    F = CartierDivisor(PLANE, "x", "y")
    assert str(F.weil()) == "[(x)] - [(y)]"
    assert str((-F).weil()) == "-[(x)] + [(y)]"
    assert (D + (-D)).weil().is_zero()
    assert (2 * F).weil() == 2 * F.weil()


def test_cartier_divisor_validation_and_equality():
    with pytest.raises(EngineError):
        CartierDivisor(AXES, "x")  # zero divisor on the union of axes
    with pytest.raises(EngineError):
        CartierDivisor(PLANE, "0")
    assert CartierDivisor(PLANE, "x") == CartierDivisor(PLANE, "x*y", "y")
    assert CartierDivisor(PLANE, "x") != CartierDivisor(PLANE, "y")
    on_curve = CartierDivisor(PARABOLA, "y")  # vanishes only at the origin point
    assert str(on_curve.weil()) == "2*[(y, x)]" or str(on_curve.weil()) == "2*[(x, y)]"


def test_cartier_divisor_tests_only_nonconstant_parts_on_charts_with_relations(monkeypatch):
    tested = []
    original = geometry_module.is_regular_element

    def spy(f, I):
        tested.append(str(f))
        return original(f, I)

    monkeypatch.setattr(geometry_module, "is_regular_element", spy)
    CartierDivisor(PARABOLA, "x")
    assert tested == ["x"]  # the denominator 1 is a unit
    CartierDivisor(PLANE, "x", "y")
    assert tested == ["x"]  # the plane's ring is a domain
    for chart in (PARABOLA, PLANE):
        with pytest.raises(EngineError, match="zero divisor"):
            CartierDivisor(chart, "0")


def test_cartier_divisor_arithmetic_does_not_retest_regularity(monkeypatch):
    ring = PolynomialRing(QQ, ("x", "y", "z"))
    chart = Chart("C", ring, ("y^2 - x^3 - x*z", "z^2 - y"))
    D = CartierDivisor(chart, "x", "y + 1")
    tested = []
    original = geometry_module.is_regular_element

    def spy(f, I):
        tested.append(str(f))
        return original(f, I)

    monkeypatch.setattr(geometry_module, "is_regular_element", spy)
    total = D + D
    assert (total.num, total.den) == (ring.parse("x^2"), ring.parse("(y + 1)^2"))
    assert ((-D).num, (-D).den) == (D.den, D.num)
    assert (3 * D).num == ring.parse("x^3")
    assert D - D == CartierDivisor(chart, "1")
    assert tested == []
    with pytest.raises(EngineError, match="zero divisor"):
        CartierDivisor(chart, "0")
    assert tested == ["0"]


DIVISOR_POOL_PLANE = ["x", "y", "x - 1", "y - 1", "x + y", "x - y", "y - x^2"]
DIVISOR_POOL_PARABOLA = ["x", "x - 1", "x + 1", "y - 1", "x + y"]


@pytest.mark.parametrize("f,g", list(itertools.combinations(DIVISOR_POOL_PLANE, 2)))
def test_divisor_additivity_on_plane(f, g):
    lhs = CartierDivisor(PLANE, PLANE.ring.parse(f) * PLANE.ring.parse(g)).weil()
    rhs = CartierDivisor(PLANE, f).weil() + CartierDivisor(PLANE, g).weil()
    assert lhs == rhs


@pytest.mark.parametrize("f,g", list(itertools.combinations(DIVISOR_POOL_PARABOLA, 2)))
def test_divisor_additivity_on_curve(f, g):
    ring = PARABOLA.ring
    lhs = CartierDivisor(PARABOLA, ring.parse(f) * ring.parse(g)).weil()
    rhs = CartierDivisor(PARABOLA, f).weil() + CartierDivisor(PARABOLA, g).weil()
    assert lhs == rhs


def test_restrict_cycle_drops_invisible_components():
    c = cycle_of_subscheme(Ideal(R2, ("x^2*y",)), PLANE, grade=1)
    assert str(c) == "2*[(x)] + [(y)]"
    L = PLANE.localize("x")
    r = restrict_cycle(c, L)
    assert len(r.coeffs) == 1
    assert list(r.coeffs.values()) == [1]


def line_glued_to_line():
    """Two affine lines glued along x ~ 1/y (the projective line)."""
    space = ChartedSpace("P1")
    space.add_chart(Chart("C1", PolynomialRing(QQ, ("x",))))
    space.add_chart(Chart("C2", PolynomialRing(QQ, ("y",))))
    space.add_glue("C1", "x", "C2", "y",
                   {"x": "w2", "w1": "y"}, {"y": "w1", "w2": "x"})
    return space


def test_projective_line_glue():
    space = line_glued_to_line()
    C1, C2 = space.charts["C1"], space.charts["C2"]
    a = point_cycle(C1, Ideal(C1.ring, ("x^2 - 1",)))
    b = point_cycle(C2, Ideal(C2.ring, ("y^2 - 1",)))
    ok, messages = space.glue_cycles({"C1": a, "C2": b})
    assert ok, messages
    # zero and infinity miss the overlap entirely, so they are consistent too
    zero = point_cycle(C1, Ideal(C1.ring, ("x",)))
    infinity = point_cycle(C2, Ideal(C2.ring, ("y",)))
    ok, _ = space.glue_cycles({"C1": zero, "C2": infinity})
    assert ok
    # a genuinely mismatched family is flagged
    ok, messages = space.glue_cycles({"C1": a, "C2": infinity})
    assert not ok
    assert any("mismatch" in m for m in messages)


def test_glue_rejects_non_isomorphisms():
    space = ChartedSpace()
    space.add_chart(Chart("C1", PolynomialRing(QQ, ("x",))))
    space.add_chart(Chart("C2", PolynomialRing(QQ, ("y",))))
    with pytest.raises(GlueError):
        space.add_glue("C1", "x", "C2", "y",
                       {"x": "w2", "w1": "y"}, {"y": "w1", "w2": "x + 1"})
    # squaring respects the relations but is not invertible
    with pytest.raises(GlueError):
        space.add_glue("C1", "x", "C2", "y",
                       {"x": "y^2", "w1": "w2^2"}, {"y": "x", "w2": "w1"})


@pytest.mark.parametrize("target, forward, backward, message", [
    (("y",), {"x": "y", "w1": "y"}, {"y": "x", "w2": "x"},
     "gluing C1->C2 does not preserve relations: x*w1 - 1"),
    (("y",), {"x": "y^2", "w1": "w2^2"}, {"y": "x", "w2": "x"},
     "gluing C2->C1 does not preserve relations: y*w2 - 1"),
    (("y",), {"x": "y^2", "w1": "w2^2"}, {"y": "x", "w2": "w1"},
     "gluing maps are not mutually inverse at 'x'"),
    (("y", "z"), {"x": "y", "w1": "w2"}, {"y": "x", "z": "0", "w2": "w1"},
     "gluing maps are not mutually inverse at 'z'"),
])
def test_glue_checks_relations_then_inverses(target, forward, backward, message):
    space = ChartedSpace()
    space.add_chart(Chart("C1", PolynomialRing(QQ, ("x",))))
    space.add_chart(Chart("C2", PolynomialRing(QQ, target)))
    with pytest.raises(GlueError) as info:
        space.add_glue("C1", "x", "C2", "y", forward, backward)
    assert str(info.value) == message


def test_principal_atlas_consistency():
    space = principal_atlas(PLANE, ["x", "y"])
    U0, U1 = space.charts["U0"], space.charts["U1"]
    diag = {"U0": cycle_of_subscheme(Ideal(U0.ring, ("x - y",)), U0, grade=1),
            "U1": cycle_of_subscheme(Ideal(U1.ring, ("x - y",)), U1, grade=1)}
    ok, messages = space.glue_cycles(diag)
    assert ok, messages
    skew = {"U0": cycle_of_subscheme(Ideal(U0.ring, ("x - y",)), U0, grade=1),
            "U1": cycle_of_subscheme(Ideal(U1.ring, ("x + y",)), U1, grade=1)}
    ok, _ = space.glue_cycles(skew)
    assert not ok


def test_transport_cycle_through_isomorphism():
    space = line_glued_to_line()
    rec = space.glues[0]
    c = point_cycle(space.charts["C1"], Ideal(space.charts["C1"].ring, ("x - 2",)))
    r = restrict_cycle(c, rec.overlap1)
    moved = transport_cycle(r, rec.overlap2, rec.forward)
    # x = 2 corresponds to y = 1/2
    expected_prime = next(iter(moved.coeffs))
    assert expected_prime.contains(rec.overlap2.ring.parse("2*y - 1"))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bareiss_determinant_matches_laplace(data):
    # sparse entries make zero pivots, and so row swaps, common
    ring = PolynomialRing(data.draw(st.sampled_from([QQ, GF(7)])), ("x", "y"))
    n = data.draw(st.integers(1, 5))
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
    entry = st.dictionaries(mono, st.integers(-3, 3), max_size=3).map(ring.from_dict)
    m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and data.draw(st.booleans(), label="dependent rows"):
        m[-1] = [a * ring.var(0) + b for a, b in zip(m[0], m[1])]
    assert geometry_module._det(m, ring) == laplace_det(m, ring)


# ---------------------------------------------------------------------------
# localized charts inherit their components

def test_localized_chart_extends_its_parents_components(monkeypatch):
    lines = Chart("lines", R2, ("x*(x - 1)*(y - 2)",))
    assert [str(p) for p in lines.components()] == ["(x)", "(x - 1)", "(y - 2)"]
    # x - 1 vanishes on one component; the other two survive, and the
    # child never decomposes its own ideal
    monkeypatch.setattr(geometry_module, "minimal_primes", _no_decomposition)
    L = lines.localize("x - 1")
    assert [str(p) for p in L.components()] == ["(x, u + 1)", "(x*u - u - 1, y - 2)"]
    assert all(p.certified for p in L.components())
    LL = L.localize("y")
    assert [str(p) for p in LL.components()] == ["(x*u - u - 1, y - 2, u_ - 1/2)",
                                                 "(y*u_ - 1, x, u + 1)"]


def _no_decomposition(ideal):
    raise AssertionError(f"unexpected decomposition of {ideal}")


def test_localized_chart_decomposes_itself_when_its_parent_cannot():
    # over F_7 the backend cannot factor x^2*y^2 + 1, a non-homogeneous
    # quartic with no variable of degree one and no monomial content, but
    # inverting x leaves y^2 + u^2, homogeneous in y and u = 1/x
    ring = PolynomialRing(GF(7), ("x", "y"))
    parent = Chart("A", ring, ("x^2*y^2 + 1",))
    with pytest.raises(DecompositionError):
        parent.components()
    child = parent.localize("x")
    assert [str(p) for p in child.components()] == ["(y^2 + u^2, x*u + 6)"]


def test_a_monomial_content_no_longer_needs_a_localization():
    # x*y^2 - x^2 = x*(y^2 - x) raised over F_7 until factor divided out
    # its monomial content; the quotient is degree one in x
    ring = PolynomialRing(GF(7), ("x", "y"))
    parent = Chart("A", ring, ("x*y^2 - x^2",))
    assert [str(p) for p in parent.components()] == ["(x)", "(y^2 + 6*x)"]
    child = parent.localize("x")
    assert [str(p) for p in child.components()] == ["(y^2 + 6*x, x*u + 6)"]


def test_chart_over_a_finite_field_splits_off_a_variable_by_gauss():
    # x*y - x^3 = x*(y - x^2) over F_7: degree one in y with coefficients
    # x and -x^3, whose gcd x splits off
    ring = PolynomialRing(GF(7), ("x", "y"))
    chart = Chart("A", ring, ("x*y - x^3",))
    primes = chart.components()
    assert [str(p) for p in primes] == ["(x)", "(x^2 + 6*y)"]
    I = Ideal(ring, ("x*y - x^3",))
    assert [p.key for p in assert_decomposition(I, [p.ideal for p in primes])] == [
        p.key for p in primes]
    child = chart.localize("x")
    assert [str(p) for p in child.components()] == ["(x^2 + 6*y, x*u + 6, y*u + 6*x)"]


# components of the oracle charts: vertical lines x = a, rational points
# (a, b), pairs of conjugate points (x^2 - c, y - b) and pairs of conjugate
# lines x^2 - c.  Values may be 0, so x or y itself may be inverted.
_CONJUGATE = {QQ: "x^2 - 2", GF(7): "x^2 + 1"}


@st.composite
def _oracle_charts(draw):
    """(chart, [elements to invert in turn]) with 1-3 distinct components;
    each element vanishes on some components but never on the first, so the
    localized chart is never empty."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    ring = PolynomialRing(field, ("x", "y"))
    value = st.integers(-3, 3) if field is QQ else st.integers(0, 6)
    component = st.one_of(
        st.tuples(st.just("line"), value, st.none()),
        st.tuples(st.just("point"), value, value),
        st.tuples(st.just("conjugate"), st.none(), value),
        st.tuples(st.just("curve"), st.none(), st.none()))
    comps = draw(st.lists(component, min_size=1, max_size=3, unique=True))
    ideal = None
    for kind, a, b in comps:
        gens = {"line": [f"x - ({a})"], "point": [f"x - ({a})", f"y - ({b})"],
                "conjugate": [_CONJUGATE[field], f"y - ({b})"],
                "curve": [_CONJUGATE[field]]}[kind]
        P = Ideal(ring, gens)
        if draw(st.booleans(), label="squared"):
            P = P * P
        ideal = P if ideal is None else ideal * P
    _, keep_a, keep_b = comps[0]
    elements = []
    for _ in range(draw(st.integers(1, 2), label="localizations")):
        if draw(st.booleans(), label="kill by x"):
            xs = sorted({a for _, a, _ in comps if a is not None and a != keep_a})
            kill = draw(st.lists(st.sampled_from(xs), unique=True) if xs else st.just([]))
            elements.append("*".join(f"(x - ({a}))" for a in kill) or "1")
        else:
            b = draw(value.filter(lambda b: b != keep_b))
            elements.append(f"y - ({b})")
    return Chart("A", ring, ideal), elements


@settings(max_examples=40, deadline=None)
@given(case=_oracle_charts())
def test_inherited_components_equal_a_fresh_decomposition(case):
    chart, elements = case
    for f in elements:
        chart = chart.localize(f)
    inherited = chart.components()
    fresh = minimal_primes(chart.ideal)
    assert [p.key for p in inherited] == [p.key for p in fresh]
    assert inherited == fresh


def test_restrict_cycle_follows_nested_localizations():
    c = cycle_of_subscheme(Ideal(R2, ("x^2*y*(x - y)",)), PLANE, grade=1)
    U = PLANE.localize("x")
    UV = U.localize("y")
    r = restrict_cycle(c, UV)
    assert str(r) == "[(y*u_ - 1, x - y, u - u_)]"
    assert r == restrict_cycle(restrict_cycle(c, U), UV)
    assert restrict_cycle(c, PLANE) == c


def test_restrict_cycle_rejects_a_chart_that_is_not_a_localization_of_its_chart():
    c = cycle_of_subscheme(Ideal(R2, ("x - 1",)), PLANE, grade=1)
    with pytest.raises(EngineError) as info:
        restrict_cycle(c, PARABOLA.localize("x", name="V"))
    assert str(info.value) == "chart 'V' is not a localization of chart 'A2'"
    with pytest.raises(EngineError) as info:
        restrict_cycle(c, Chart("B", R3))
    assert str(info.value) == "chart 'B' is not a localization of chart 'A2'"


def test_transport_cycle_keeps_each_primes_certified_flag():
    space = principal_atlas(PLANE, ["x", "y"])
    rec = space.glues[0]
    gens = ("x^2 - 2", "y - 1")
    for p in (assert_prime(Ideal(R2, gens)), minimal_primes(Ideal(R2, gens))[0]):
        restricted = restrict_cycle(Cycle(PLANE, 2, {p: 1}), rec.overlap1)
        moved = transport_cycle(restricted, rec.overlap2, rec.forward)
        assert [q.certified for q in restricted.coeffs] == [p.certified]
        assert [q.certified for q in moved.coeffs] == [p.certified]


def test_glue_cycles_reports_mixed_grades_and_missing_cycles():
    space = principal_atlas(PLANE, ["x", "y"])
    U0, U1 = space.charts["U0"], space.charts["U1"]
    line = cycle_of_subscheme(Ideal(U0.ring, ("x - y",)), U0, grade=1)
    point = point_cycle(U1, Ideal(U1.ring, ("x - 1", "y - 1")))
    assert space.glue_cycles({"U0": line, "U1": point}) == (False, ["mixed grades [1, 2]"])
    assert space.glue_cycles({"U0": line}) == (False, ["missing cycle on U0 or U1"])


def test_glue_cycles_rejects_a_cycle_keyed_by_another_chart():
    space = principal_atlas(PLANE, ["x", "y"])
    line = cycle_of_subscheme(Ideal(R2, ("x - y",)), PLANE, grade=1)
    L0 = restrict_cycle(line, space.charts["U0"])
    L1 = restrict_cycle(line, space.charts["U1"])
    assert space.glue_cycles({"U0": L0, "U1": L1}) == (True, ["U0|U1: consistent"])
    for family, message in [
            ({"U0": line, "U1": line},
             "the cycle for 'U0' lives on chart 'A2', expected 'U0'"),
            ({"U0": L0, "U1": L0},
             "the cycle for 'U1' lives on chart 'U0', expected 'U1'"),
            ({"U0": L1, "U1": L0},
             "the cycle for 'U0' lives on chart 'U1', expected 'U0'"),
            ({"U0": L0, "U1": L1, "U2": L0},
             "no chart 'U2' in space 'A2-atlas'")]:
        with pytest.raises(GlueError) as info:
            space.glue_cycles(family)
        assert str(info.value) == message
