"""Chart maps: images, finiteness, degree, pullback, pushforward."""

import pytest

from chowcalc.errors import EngineError
from chowcalc.fields import QQ
from chowcalc.geometry import Chart, Cycle, cycle_of_subscheme, point_cycle
from chowcalc.groebner import Ideal
from chowcalc.homology import FPModule
from chowcalc.morphisms import (ChartMap, degree, fiber_product, flat_pullback,
                                identity_map, proper_pushforward, pullback_module,
                                pushforward_module, zariski_image)
from chowcalc.morphisms import ProductChart
from chowcalc.polyring import PolynomialRing
from chowcalc.primes import minimal_primes

LINE_T = Chart("At", PolynomialRing(QQ, ("t",)))
LINE_X = Chart("Ax", PolynomialRing(QQ, ("x",)))
PLANE = Chart("A2", PolynomialRing(QQ, ("x", "y")))

SQUARING = ChartMap(LINE_T, LINE_X, {"x": "t^2"}, flat=True, finite=True, proper=True)
CUSP_PARAM = ChartMap(LINE_T, PLANE, {"x": "t^2", "y": "t^3"})
# the closed immersion of the line V(x) into the plane
AXIS_INCLUSION = ChartMap(Chart("A2|V", PLANE.ring, ("x",)), PLANE,
                          {"x": "x", "y": "y"}, finite=True, proper=True)


def test_map_well_definedness():
    parabola = Chart("P", PLANE.ring, ("y - x^2",))
    ChartMap(LINE_T, parabola, {"x": "t", "y": "t^2"})  # fine
    with pytest.raises(EngineError):
        ChartMap(LINE_T, parabola, {"x": "t", "y": "t"})
    with pytest.raises(EngineError):
        ChartMap(LINE_T, LINE_X, {})  # missing image


def test_pullback_and_composition():
    assert str(SQUARING.pullback("x^2 + 1")) == "t^4 + 1"
    cubing = ChartMap(LINE_X, LINE_T, {"t": "x^3"})
    composite = SQUARING.then(cubing)
    assert str(composite.images["t"]) == "t^6"
    ident = identity_map(LINE_T)
    assert str(ident.then(SQUARING).images["x"]) == "t^2"


def test_zariski_image_cusp():
    assert zariski_image(CUSP_PARAM) == Ideal(PLANE.ring, ("x^3 - y^2",))


def test_zariski_image_open_dense():
    hyperbola = Chart("H", PLANE.ring, ("x*y - 1",))
    proj = ChartMap(hyperbola, LINE_X, {"x": "x"})
    assert zariski_image(proj).is_zero()  # closure is the whole line


def test_finiteness():
    assert SQUARING.is_finite()
    assert CUSP_PARAM.is_finite()
    hyperbola = Chart("H", PLANE.ring, ("x*y - 1",))
    proj = ChartMap(hyperbola, LINE_X, {"x": "x"})
    assert not proj.is_finite()
    punctured = Chart("U", PolynomialRing(QQ, ("t", "u")), ("t*u - 1",))
    open_inc = ChartMap(punctured, LINE_T, {"t": "t"})
    assert not open_inc.is_finite()
    assert AXIS_INCLUSION.is_finite()


def test_pushforward_module_and_degree():
    M = pushforward_module(SQUARING)
    assert M.rank == 2 and M.relations == ()  # free of rank 2: 1 and t
    assert degree(SQUARING) == 2
    cubing = ChartMap(LINE_T, LINE_X, {"x": "t^3"})
    assert degree(cubing) == 3
    assert degree(CUSP_PARAM) == 1  # birational onto the cuspidal cubic
    assert degree(identity_map(PLANE)) == 1
    assert degree(AXIS_INCLUSION) == 1


def test_pushforward_module_not_finite():
    hyperbola = Chart("H", PLANE.ring, ("x*y - 1",))
    proj = ChartMap(hyperbola, LINE_X, {"x": "x"})
    with pytest.raises(EngineError):
        pushforward_module(proj)


def test_pullback_module():
    M = FPModule.cyclic(Ideal(LINE_X.ring, ("x",)))
    N = pullback_module(SQUARING, M)
    assert N.rank == 1
    assert [str(v[0]) for v in N.relations] == ["t^2"]


def test_flat_pullback_with_ramification():
    split = flat_pullback(SQUARING, point_cycle(LINE_X, Ideal(LINE_X.ring, ("x - 1",))))
    assert str(split) == "[(t + 1)] + [(t - 1)]"
    ramified = flat_pullback(SQUARING, point_cycle(LINE_X, Ideal(LINE_X.ring, ("x",))))
    assert str(ramified) == "2*[(t)]"
    inert = flat_pullback(SQUARING, point_cycle(LINE_X, Ideal(LINE_X.ring, ("x + 1",))))
    assert str(inert) == "[(t^2 + 1)]"


def test_flat_pullback_needs_the_flag():
    with pytest.raises(EngineError):
        flat_pullback(CUSP_PARAM, cycle_of_subscheme(Ideal(PLANE.ring, ("x",)), PLANE))


def test_flat_pullback_of_projection():
    proj = ChartMap(PLANE, LINE_X, {"x": "x"}, flat=True)
    c = flat_pullback(proj, point_cycle(LINE_X, Ideal(LINE_X.ring, ("x - 1",))))
    assert str(c) == "[(x - 1)]"
    assert c.grade == 1 and c.chart == PLANE


def test_proper_pushforward_degrees():
    push = proper_pushforward(SQUARING, point_cycle(LINE_T, Ideal(LINE_T.ring, ("t - 1",))))
    assert str(push) == "[(x - 1)]"
    doubled = proper_pushforward(SQUARING, point_cycle(LINE_T, Ideal(LINE_T.ring, ("t",))))
    assert str(doubled) == "[(x)]"  # the image point, multiplicity 1, not 2
    quadratic = proper_pushforward(
        SQUARING, point_cycle(LINE_T, Ideal(LINE_T.ring, ("t^2 - 2",))))
    assert str(quadratic) == "2*[(x - 2)]"  # residue field degree 2 over the image


def test_proper_pushforward_whole_chart_cycle():
    # push the fundamental class of the source along the squaring map
    whole = Cycle(LINE_T, 0, {minimal_primes(Ideal(LINE_T.ring, ()))[0]: 1})
    push = proper_pushforward(SQUARING, whole)
    assert str(push) == "2*[(0)]"  # generic degree two


def test_proper_pushforward_dimension_drop():
    collapse = ChartMap(PLANE, PLANE, {"x": "x", "y": "0"})
    vertical = cycle_of_subscheme(Ideal(PLANE.ring, ("x",)), PLANE)
    with pytest.raises(EngineError):
        proper_pushforward(collapse, vertical)
    collapse_proper = ChartMap(PLANE, PLANE, {"x": "x", "y": "0"}, proper=True)
    assert proper_pushforward(collapse_proper, vertical).is_zero()
    horizontal = cycle_of_subscheme(Ideal(PLANE.ring, ("y",)), PLANE)
    assert str(proper_pushforward(collapse_proper, horizontal)) == "[(y)]"


def test_proper_pushforward_outside_fragment():
    hyperbola = Chart("H", PLANE.ring, ("x*y - 1",))
    proj = ChartMap(hyperbola, LINE_X, {"x": "x"}, proper=True)
    whole = Cycle(hyperbola, 0, {minimal_primes(hyperbola.ideal)[0]: 1})
    with pytest.raises(EngineError):
        proper_pushforward(proj, whole)


def test_fiber_product_plain():
    point = Chart("pt", PolynomialRing(QQ, ("s",)), ("s",))
    to_base = ChartMap(point, LINE_X, {"x": "s"}, finite=True, proper=True)
    W, to_x, to_pt = fiber_product(SQUARING, to_base)
    assert W.ring.names == ("t", "s")
    assert W.ideal.contains(W.ring.parse("t^2"))
    assert to_x.finite is True  # base change of a finite map
    assert to_x.source == W and to_x.target == LINE_T


def test_fiber_product_renames_clashing_variables():
    f = ChartMap(LINE_T, LINE_X, {"x": "t^2"})
    g = ChartMap(LINE_T, LINE_X, {"x": "t^3"})
    W, _, to_second = fiber_product(f, g)
    assert W.ring.names == ("t", "t_r")
    assert W.ideal.contains(W.ring.parse("t^2 - t_r^3"))
    assert str(to_second.images["t"]) == "t_r"


def test_fiber_product_names_its_ring_as_the_product_chart():
    f = ChartMap(LINE_T, LINE_X, {"x": "t^2"})
    g = ChartMap(LINE_T, LINE_X, {"x": "t^3"})
    W, to_first, to_second = fiber_product(f, g)
    prod = ProductChart(f.source, g.source)
    assert W.ring == prod.chart.ring and W.name == prod.chart.name
    assert to_first.images == prod.projection(0).images
    assert to_second.images == prod.projection(1).images


def test_functoriality_of_pushforward():
    # (g o f)_* = g_* o f_* on a point cycle, for two squarings
    second = ChartMap(LINE_X, LINE_T, {"t": "x^2"}, finite=True, proper=True)
    c = point_cycle(LINE_T, Ideal(LINE_T.ring, ("t - 2",)))
    via_composite = proper_pushforward(SQUARING.then(second), c)
    via_stages = proper_pushforward(second, proper_pushforward(SQUARING, c))
    assert via_composite == via_stages
    assert str(via_composite) == "[(t - 16)]"
