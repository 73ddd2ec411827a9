"""Chart maps: images, finiteness, degree, pullback, pushforward."""

import pytest
from hypothesis import given, settings, strategies as st

from chowcalc import correspondences, groebner, homology, morphisms, primes
from chowcalc.correspondences import compose, correspondence_degree, graph
from chowcalc.errors import EngineError, RingMismatchError
from chowcalc.fields import GF, QQ
from chowcalc.geometry import Chart, Cycle, cycle_of_subscheme, point_cycle
from chowcalc.groebner import Ideal
from chowcalc.homology import FPModule
from chowcalc.morphisms import (ChartMap, degree, fiber_product, flat_pullback,
                                identity_map, proper_pushforward, pullback_module,
                                pushforward_module, zariski_image)
from chowcalc.morphisms import ProductChart
from chowcalc.polyring import PolynomialRing, elimination_order
from chowcalc.primes import PrimeIdeal, generic_rank, minimal_primes
from oracles import ProductRingGraphMap, tower_law_degree

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


def test_module_pullback_and_pushforward_need_the_chart_algebra():
    # the source of AXIS_INCLUSION shares the plane's ring, not its algebra
    V = AXIS_INCLUSION.source
    with pytest.raises(RingMismatchError):
        pushforward_module(AXIS_INCLUSION, FPModule.free(PLANE.ring, 1))
    with pytest.raises(RingMismatchError):
        pullback_module(AXIS_INCLUSION, FPModule.free(PLANE.ring, 1, V.ideal))
    pushed = pushforward_module(AXIS_INCLUSION, FPModule.free(PLANE.ring, 1, V.ideal))
    assert pushed.modulo == PLANE.ideal
    pulled = pullback_module(AXIS_INCLUSION, FPModule.cyclic(Ideal(PLANE.ring, ("y",))))
    assert pulled.modulo == V.ideal


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


# ---------------------------------------------------------------------------
# pushforward degrees against the rank of the pushed-forward module

# c with t^2 - c, and with t^3 - c, irreducible over each field
NON_SQUARES = {QQ: (2, 3, 5, -1, -2, -3), GF(7): (3, 5, 6)}
NON_CUBES = {QQ: (2, 3, 4, 5, -2, -3), GF(7): (2, 3, 4, 5)}
FIELDS = (QQ, GF(7))


def _module_rank_degree(m, p):
    """The image of p and the rank there of its pushed-forward module."""
    q = PrimeIdeal(zariski_image(m, p.ideal) + m.target.ideal)
    M = pushforward_module(m, extra=p.ideal)
    return q, generic_rank(M, q)


def _check_against_module_rank(m, ideal, grade):
    # and against the tower law, which counts on two further bases
    for p in minimal_primes(ideal):
        q, rank = _module_rank_degree(m, p)
        assert tower_law_degree(m, p.ideal) == (q, rank)
        push = proper_pushforward(m, Cycle(m.source, grade, {p: 1}))
        assert push.coeffs == {q: rank}


def _check_degree(m, expected):
    image = PrimeIdeal(zariski_image(m) + m.target.ideal)
    assert (degree(m) == generic_rank(pushforward_module(m), image)
            == tower_law_degree(m)[1] == expected)


@st.composite
def _univariate(draw, t, field, kinds):
    """A polynomial in t: t - a, or (t + b)^2 - c and (t + b)^3 - c
    irreducible, or 0 (the whole chart)."""
    kind = draw(st.sampled_from(kinds))
    b = draw(st.integers(-6, 6))
    if kind == 1:
        return t - b
    if kind == 2:
        return (t + b) ** 2 - draw(st.sampled_from(NON_SQUARES[field]))
    if kind == 3:
        return (t + b) ** 3 - draw(st.sampled_from(NON_CUBES[field]))
    return t.ring.zero


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a1_pushforward_degrees_match_the_module_rank(data):
    field = data.draw(st.sampled_from(FIELDS))
    src = Chart("At", PolynomialRing(field, ("t",)))
    tgt = Chart("Ax", PolynomialRing(field, ("x",)))
    t = src.ring.var(0)
    d = data.draw(st.integers(1, 4))
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
    f = sum((c * t ** i for i, c in enumerate(coeffs)), src.ring.zero) + t ** d
    m = ChartMap(src, tgt, {"x": f})
    g = data.draw(_univariate(t, field, (0, 1, 2, 3)))
    _check_against_module_rank(m, Ideal(src.ring, (g,)), 0 if g.is_zero() else 1)
    _check_degree(m, d)
    # t -> (t^2 + a*t, t^3 + b*t^2 + c*t): birational onto a curve that is
    # not normal, where counting pure source leads alone overcounts
    a, b, c = (data.draw(st.integers(-4, 4)) for _ in range(3))
    plane = Chart("A2", PolynomialRing(field, ("x", "y")))
    curve = ChartMap(src, plane, {"x": t ** 2 + a * t, "y": t ** 3 + b * t ** 2 + c * t})
    _check_against_module_rank(curve, Ideal(src.ring, (g,)), 0 if g.is_zero() else 1)
    _check_degree(curve, 1)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a2_pushforward_degrees_match_the_module_rank(data):
    # (x, y) -> (x, y^2 + a*x + b) on points, curves and the whole chart
    field = data.draw(st.sampled_from(FIELDS))
    src = Chart("A2", PolynomialRing(field, ("x", "y")))
    tgt = Chart("B", PolynomialRing(field, ("u", "v")))
    x, y = src.ring.gens()
    a, b = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
    m = ChartMap(src, tgt, {"u": x, "v": y ** 2 + a * x + b})
    kind = data.draw(st.sampled_from(("point", "curve", "whole")))
    c = data.draw(st.integers(-4, 4))
    if kind == "point":
        gens = (data.draw(_univariate(x, field, (1, 2))),
                data.draw(_univariate(y, field, (1, 2, 3))))
    elif kind == "curve":
        gens = (data.draw(st.sampled_from((x - c, y - c * x ** 2 - 1, y ** 2 - x - c))),)
    else:
        gens = ()
    _check_against_module_rank(m, Ideal(src.ring, gens), len(gens))
    _check_degree(m, 2)
    # (x, y) -> (x, y^2 + a*x, y^3 + b*x*y + c): birational onto a surface
    # that is not normal
    space = Chart("A3", PolynomialRing(field, ("u", "v", "w")))
    surface = ChartMap(src, space, {"u": x, "v": y ** 2 + a * x,
                                    "w": y ** 3 + b * x * y + c})
    _check_against_module_rank(surface, Ideal(src.ring, gens), len(gens))
    _check_degree(surface, 1)


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(FIELDS), c=st.integers(1, 6))
def test_pushforward_errors_keep_their_type_and_message(field, c):
    plane = Chart("A2", PolynomialRing(field, ("x", "y")))
    line = Chart("Ax", PolynomialRing(field, ("x",)))
    collapse = ChartMap(plane, plane, {"x": "x", "y": "0"})
    vertical = cycle_of_subscheme(Ideal(plane.ring, (f"x - {c}",)), plane)
    (p,) = vertical.support()
    with pytest.raises(EngineError) as drop:
        proper_pushforward(collapse, vertical)
    assert type(drop.value) is EngineError
    assert str(drop.value) == (f"component {p} drops dimension; pushforward is only "
                               "defined for proper maps (mark the map proper)")
    hyperbola = Chart("H", plane.ring, (f"x*y - {c}",))
    proj = ChartMap(hyperbola, line, {"x": "x"}, proper=True)
    (h,) = minimal_primes(hyperbola.ideal)
    with pytest.raises(EngineError) as infinite:
        proper_pushforward(proj, Cycle(hyperbola, 0, {h: 1}))
    assert type(infinite.value) is EngineError
    assert str(infinite.value) == (f"component {h} is not finite over its image; "
                                   "outside the supported fragment")
    with pytest.raises(EngineError) as not_finite:
        degree(proj)
    assert type(not_finite.value) is EngineError
    assert str(not_finite.value) == ("map H -> Ax is not finite here; "
                                     "pushforward needs module-finiteness")


def _count_bases(monkeypatch):
    """A list that gets (ring, order tag) for every Groebner basis built
    from now on, cached ones not counted."""
    built = []
    computed = groebner.Ideal._computed

    def counting(self, order=None):
        tag = (order or self.ring.order).tag
        if tag not in self._cache:
            built.append((self.ring, tag))
        return computed(self, order)

    monkeypatch.setattr(groebner.Ideal, "_computed", counting)
    return built


def test_pushing_a_point_forward_builds_one_basis_and_no_module(monkeypatch):
    m = ChartMap(LINE_T, LINE_X, {"x": "t^2"}, finite=True, proper=True)
    point = point_cycle(LINE_T, Ideal(LINE_T.ring, ("t^2 - 2",)))
    P = m.graph()[0]
    source_order = elimination_order([P.index_of("t")], P.nvars)
    built = _count_bases(monkeypatch)
    called = []

    def noting(name, fn):
        def wrapper(*args, **kw):
            called.append(name)
            return fn(*args, **kw)
        return wrapper

    for module in (groebner, homology, primes, morphisms):
        for name in ("coefficient_module", "witness_syzygies", "generic_rank"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, noting(name, getattr(module, name)))
    assert str(proper_pushforward(m, point)) == "2*[(x - 2)]"
    assert called == []
    assert built.count((P, source_order.tag)) == 1


def test_pushing_a_curve_forward_builds_the_image_bases_alone(monkeypatch):
    # the degree is counted on the source-eliminating basis that gives the
    # image, and the image's ring-order basis tests its leading coefficients
    m = ChartMap(PLANE, PLANE, {"x": "x", "y": "y^2"}, finite=True, proper=True)
    curve = cycle_of_subscheme(Ideal(PLANE.ring, ("y - x^2",)), PLANE)
    P = m.graph()[0]
    source_order = elimination_order([P.index_of("y")], P.nvars)
    built = _count_bases(monkeypatch)
    assert str(proper_pushforward(m, curve)) == "[(x^4 - y)]"
    assert built == [(P, source_order.tag), (PLANE.ring, PLANE.ring.order.tag)]


def test_a_finite_map_with_a_large_fibre_is_finite():
    # finiteness is read off pure powers, with no standard monomial listed;
    # only pushforward_module lists them, within its bound
    m = ChartMap(LINE_T, LINE_X, {"x": "t^100001"})
    assert m.is_finite()
    assert degree(m) == 100001
    whole = Cycle(LINE_T, 0, {minimal_primes(Ideal(LINE_T.ring, ()))[0]: 1})
    assert str(proper_pushforward(m, whole)) == "100001*[(0)]"
    with pytest.raises(EngineError, match="^standard monomial count exceeds bound 100000$"):
        pushforward_module(m)
    # a degree is counted column by column, with no monomial listed, so no
    # bound caps it
    far = ChartMap(LINE_T, LINE_X, {"x": "t^200001"})
    assert degree(far) == 200001
    assert str(proper_pushforward(far, whole)) == "200001*[(0)]"


@pytest.mark.parametrize("image, cycle, deg", [
    ("t^2", "[(t + t_r)] + [(t - t_r)]", 2),
    ("t^3 - t", "[(t - t_r)] + [(t^2 + t*t_r + t_r^2 - 1)]", 3)])
def test_composing_along_a_projection_works_in_the_triple_product(
        monkeypatch, image, cycle, deg):
    # the projection that forgets the middle factor of At x Ax x At names
    # its target coordinates by the source variables they are, so every
    # basis of the pushforward lives in the 3-variable triple product
    g = graph(ChartMap(LINE_T, LINE_X, {"x": image}))
    built = _count_bases(monkeypatch)
    pushed = []
    push = correspondences.proper_pushforward

    def noting(m, c):
        start = len(built)
        out = push(m, c)
        pushed.extend(built[start:])
        return out

    monkeypatch.setattr(correspondences, "proper_pushforward", noting)
    composite = compose(g, g.transpose())
    assert str(composite.cycle) == cycle
    assert pushed and max(ring.nvars for ring, _ in pushed) <= 3
    assert correspondence_degree(composite) == deg


# ---------------------------------------------------------------------------
# the engine's graph against the full product-ring graph

def _outcome(fn, *args, **kw):
    """fn's answer, or the type and message of the EngineError it raises."""
    try:
        return fn(*args, **kw)
    except EngineError as err:
        return type(err), str(err)


def _module_rank_and_generic_rank(m, extra=None):
    M = pushforward_module(m, extra=extra)
    q = PrimeIdeal(zariski_image(m, extra) + m.target.ideal)
    return M.rank, generic_rank(M, q)


@st.composite
def _source_polynomial(draw, ring):
    """A source variable, or up to three terms of degree at most 2."""
    if draw(st.booleans()):
        return draw(st.sampled_from(ring.gens()))
    x, y = ring.gens()
    monomials = (ring.one, x, y, x ** 2, x * y, y ** 2)
    terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(monomials)),
                          min_size=1, max_size=3))
    return sum((c * mono for c, mono in terms), ring.zero)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_graph_presentations_agree_with_the_product_ring(data):
    # variable images (repeated, swapped, mixed with polynomials) and target
    # names that clash with source names and with the "_r" renames
    field = data.draw(st.sampled_from(FIELDS))
    ring = PolynomialRing(field, ("x", "y"))
    relations = ((), ("x^2 + y^2 - 1",), ("x^2 - y^3",))
    src = Chart("S", ring, data.draw(st.sampled_from(relations)))
    names = data.draw(st.lists(st.sampled_from(("u", "v", "x", "y", "x_r", "y_r")),
                               min_size=1, max_size=3, unique=True))
    tgt = Chart("T", PolynomialRing(field, names))
    images = {nm: data.draw(_source_polynomial(ring)) for nm in names}
    engine = ChartMap(src, tgt, images)
    oracle = ProductRingGraphMap(src, tgt, images)
    gens = data.draw(st.sampled_from(((), ("x - 1",), ("y + 2",), ("y - x",),
                                      ("x^2 - 2",), ("x - 1", "y + 1"))))
    cycle = cycle_of_subscheme(Ideal(ring, gens), src)
    assert zariski_image(engine) == zariski_image(oracle)
    assert engine.is_finite() == oracle.is_finite()
    assert _outcome(degree, engine) == _outcome(degree, oracle)
    assert (_outcome(proper_pushforward, engine, cycle)
            == _outcome(proper_pushforward, oracle, cycle))
    assert (_outcome(_module_rank_and_generic_rank, engine)
            == _outcome(_module_rank_and_generic_rank, oracle))
    for p in cycle.support():
        assert (_outcome(_module_rank_and_generic_rank, engine, p.ideal)
                == _outcome(_module_rank_and_generic_rank, oracle, p.ideal))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("images", [{"u": "x", "v": "y^2 + x"}, {"u": "x", "v": "x"},
                                    {"u": "y", "v": "x"}])
def test_pushforward_modules_print_as_on_the_product_ring(field, images):
    cusp = Chart("C", PolynomialRing(field, ("x", "y")), ("x^2 - y^3",))
    plane = Chart("B", PolynomialRing(field, ("u", "v")))
    engine = pushforward_module(ChartMap(cusp, plane, images))
    oracle = pushforward_module(ProductRingGraphMap(cusp, plane, images))
    assert engine.rank == oracle.rank
    assert ([[str(c) for c in v.coords] for v in engine.relations]
            == [[str(c) for c in v.coords] for v in oracle.relations])
