"""Finite correspondences: graphs, transposes, composition, degrees."""

import pytest

from chowcalc.correspondences import (Correspondence, ProductChart, compose,
                                      correspondence_degree, graph,
                                      identity_correspondence)
from chowcalc.errors import EngineError, RingMismatchError
from chowcalc.fields import GF, QQ
from chowcalc.geometry import Chart
from chowcalc.groebner import Ideal
from chowcalc.morphisms import ChartMap
from chowcalc.polyring import PolynomialRing


def line(name, var, field=QQ):
    return Chart(name, PolynomialRing(field, (var,)))


def doubling(field=QQ):
    src = line("S", "t", field)
    tgt = line("T", "x", field)
    return ChartMap(src, tgt, {"x": "t^2"}, flat=True, finite=True, proper=True)


def test_product_chart_renames_clashes():
    X = line("X", "t")
    prod = ProductChart(X, line("Y", "t"))
    assert prod.chart.ring.names == ("t", "t_r")
    assert prod.renames[1] == {"t": "t_r"}
    assert prod.projection(0).images["t"].__str__() == "t"


def test_triple_product_names_match_compose():
    X, Y, Z = line("X", "t"), line("Y", "t"), line("Z", "t")
    triple = ProductChart(X, Y, Z)
    assert triple.chart.ring.names == ("t", "t_r", "t_r_r")
    assert triple.chart.name == "XxYxZ"
    assert triple.renames == [{"t": "t"}, {"t": "t_r"}, {"t": "t_r_r"}]
    outer = triple.onto(ProductChart(X, Z), (0, 2))
    assert {nm: str(v) for nm, v in outer.images.items()} == {
        "t": "t", "t_r": "t_r_r"}
    with pytest.raises(EngineError):
        triple.onto(ProductChart(Z, X), (0, 2))
    with pytest.raises(EngineError, match="two charts"):
        Correspondence.from_gens(triple, ["t - t_r", "t_r - t_r_r"])


def test_product_of_charts_over_different_fields_is_rejected():
    with pytest.raises(RingMismatchError, match="^product of charts over different fields$"):
        ProductChart(line("X", "t"), line("Y", "t", GF(5)))


def test_graph_of_doubling():
    g = graph(doubling())
    assert str(g.cycle) == "[(t^2 - x)]"
    assert g.is_elementary()
    assert correspondence_degree(g) == 1


def test_graph_from_a_chart_with_relations():
    R = PolynomialRing(QQ, ("x", "y"))
    parabola = Chart("P", R, Ideal(R, ["y - x^2"]))
    f = ChartMap(parabola, line("A", "x"), {"x": "x"}, flat=True)
    prod = ProductChart(parabola, f.target)
    assert prod.renames[1] == {"x": "x_r"}
    g = graph(f)
    assert g == Correspondence.from_gens(prod, ["x_r - x"])
    assert g.is_elementary()
    assert correspondence_degree(g) == 1


def test_identity_correspondence_is_diagonal():
    X = line("X", "t")
    d = identity_correspondence(X)
    assert str(d.cycle) == "[(t - t_r)]"
    assert correspondence_degree(d) == 1


def test_transpose_of_graph():
    gt = graph(doubling()).transpose()
    assert gt.source.name == "T" and gt.target.name == "S"
    assert str(gt.cycle) == "[(t^2 - x)]"
    assert gt.is_elementary()
    assert correspondence_degree(gt) == 2


def test_double_transpose_returns_original():
    g = graph(doubling())
    assert g.transpose().transpose() == g


def test_composition_of_graphs_is_graph_of_composite():
    f = doubling()
    tgt2 = line("U", "u")
    h = ChartMap(f.target, tgt2, {"u": "x^2"}, flat=True, finite=True)
    composite = compose(graph(f), graph(h))
    assert composite == graph(f.then(h))
    assert str(composite.cycle) == "[(t^4 - u)]"


def test_graph_against_transpose_splits_into_two_lines():
    # going down by squaring and back up again: the composite relation
    # t'^2 = t^2 breaks into the diagonal and the antidiagonal.
    g = graph(doubling())
    back_and_forth = compose(g, g.transpose())
    assert str(back_and_forth.cycle) == "[(t + t_r)] + [(t - t_r)]"
    assert correspondence_degree(back_and_forth) == 2


def test_transpose_before_graph_doubles_the_diagonal():
    # downstairs the two preimages both square back to the same point
    g = graph(doubling())
    down = compose(g.transpose(), g)
    assert str(down.cycle) == "2*[(x - x_r)]"
    assert correspondence_degree(down) == 2


def test_degree_multiplies_under_composition():
    g = graph(doubling())
    gt = g.transpose()
    assert correspondence_degree(g) == 1
    assert correspondence_degree(gt) == 2
    assert correspondence_degree(compose(gt, g)) == 2
    assert correspondence_degree(compose(gt, compose(g, gt))) == 4


def test_identity_laws():
    g = graph(doubling())
    left = identity_correspondence(g.source)
    right = identity_correspondence(g.target)
    assert compose(left, g) == g
    assert compose(g, right) == g


def test_composition_is_associative():
    f = doubling()
    h = ChartMap(f.target, line("U", "u"), {"u": "x^2"}, flat=True, finite=True)
    k = ChartMap(h.target, line("V", "v"), {"v": "u + 1"}, flat=True, finite=True)
    a, b, c = graph(f), graph(h), graph(k)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_vertical_component_is_not_elementary():
    X = line("X", "t")
    Y = line("Y", "x")
    prod = ProductChart(X, Y)
    vertical = Correspondence.from_gens(prod, ["t - 1"])
    assert not vertical.is_elementary()


def test_fiberwise_positive_dimension_is_not_elementary():
    R = PolynomialRing(QQ, ("x", "y"))
    X = Chart("A2", R)
    Y = line("Y", "u")
    prod = ProductChart(X, Y)
    sheet = Correspondence.from_gens(prod, ["x"])
    assert not sheet.is_elementary()


def test_correspondences_add_and_scale():
    X = line("X", "t")
    Y = line("Y", "x")
    prod = ProductChart(X, Y)
    const = Correspondence.from_gens(prod, ["x - 1"])
    g = graph(ChartMap(X, Y, {"x": "t^2"}, flat=True, finite=True))
    total = g + 2 * const
    assert correspondence_degree(total) == 3
    assert total - g == 2 * const


def test_mismatched_chain_is_rejected():
    g = graph(doubling())
    with pytest.raises(EngineError):
        compose(g, g)


def test_grade_validation():
    X = line("X", "t")
    Y = line("Y", "x")
    prod = ProductChart(X, Y)
    # a lone point sits too deep: its graded part is the zero correspondence
    assert Correspondence.from_gens(prod, ["t - 1", "x - 1"]).cycle.is_zero()
    # but a cycle of the wrong grade is rejected outright
    from chowcalc.geometry import point_cycle
    pt = point_cycle(prod.chart, Ideal(prod.chart.ring, ["t - 1", "x - 1"]))
    with pytest.raises(EngineError):
        Correspondence(prod, pt)


def test_finite_field_composition():
    g = graph(doubling(GF(5)))
    square = ProductChart(g.source, g.source)
    antidiagonal = Correspondence.from_gens(square, ["t + t_r"])
    assert compose(g, g.transpose()) == identity_correspondence(g.source) + antidiagonal
