"""Intersection products: plane-curve counts, the alternating-sum
correction term, locality, and the structural identities."""

import pytest
from hypothesis import given, settings, strategies as st

from chowcalc import intersection as intersection_module
from chowcalc import primes as primes_module
from chowcalc.errors import EngineError, HypothesisError
from chowcalc.fields import GF, QQ
from chowcalc.geometry import (Chart, Cycle, cycle_of_subscheme, point_cycle,
                               restrict_cycle)
from chowcalc.groebner import Ideal
from chowcalc.homology import FPModule, tor_modules
from chowcalc.intersection import (IntersectionReport, intersection_product,
                                   intersects_properly, serre_multiplicity,
                                   tor_length_table, verify_identity)
from chowcalc.morphisms import ChartMap, flat_pullback, proper_pushforward
from chowcalc.polyring import PolynomialRing
from chowcalc.primes import PrimeIdeal, vector_space_dimension

from oracles import count_standard_monomials, filtration_length, module_dimension


def plane():
    R = PolynomialRing(QQ, ("x", "y"))
    return Chart("A2", R)


def curve_cycle(chart, f):
    return cycle_of_subscheme(Ideal(chart.ring, [f]), chart, grade=1)


def test_parabola_meets_axis_tangentially():
    # y = x^2 against y = 0: a single point counted twice.
    A2 = plane()
    prod = intersection_product(curve_cycle(A2, "y - x^2"), curve_cycle(A2, "y"))
    assert str(prod) == "2*[(x, y)]"
    assert prod.degree() == 2


def test_cusp_meets_axis():
    A2 = plane()
    prod = intersection_product(curve_cycle(A2, "y^2 - x^3"), curve_cycle(A2, "y"))
    assert str(prod) == "3*[(x, y)]"


def test_transverse_axes():
    A2 = plane()
    prod = intersection_product(curve_cycle(A2, "x"), curve_cycle(A2, "y"))
    assert str(prod) == "[(x, y)]"


def test_parabola_meets_horizontal_line():
    A2 = plane()
    prod = intersection_product(curve_cycle(A2, "y - x^2"),
                                curve_cycle(A2, "y - 1"))
    assert str(prod) == "[(x + 1, y - 1)] + [(x - 1, y - 1)]"
    assert prod.degree() == 2


def test_circle_meets_tangent_line():
    A2 = plane()
    prod = intersection_product(curve_cycle(A2, "x^2 + y^2 - 1"),
                                curve_cycle(A2, "y - 1"))
    assert str(prod) == "2*[(x, y - 1)]"


def test_conic_degrees_match_bezout_count():
    # total degree of conic . line is always 2, however the points split
    A2 = plane()
    conic = curve_cycle(A2, "x*y - 1")
    for line in ("y - x", "y - 2*x", "x + y - 3"):
        prod = intersection_product(conic, curve_cycle(A2, line))
        assert prod.degree() == 2
        assert all(m > 0 for _, m in prod.components())


def test_two_conics():
    A2 = plane()
    prod = intersection_product(curve_cycle(A2, "y - x^2"),
                                curve_cycle(A2, "x - y^2"))
    # four points over the closure: (0,0) and the three roots of x^3 = 1
    assert prod.degree() == 4
    keys = {p.key for p in prod.support()}
    assert ("x", "y") in keys
    assert ("x - 1", "y - 1") in keys
    assert ("y^2 + y + 1", "x + y + 1") in keys


def four_space():
    R = PolynomialRing(QQ, ("x", "y", "z", "w"))
    return Chart("A4", R)


def planes_union_ideal(chart):
    # (x, y) meet (z, w): the union is cut out by the four products
    return Ideal(chart.ring, ["x*z", "x*w", "y*z", "y*w"])


def test_alternating_sum_corrects_naive_length():
    # the classical example where the naive vector-space length over-counts:
    # a union of two transverse planes against a plane through both.
    A4 = four_space()
    union = planes_union_ideal(A4)
    slant = Ideal(A4.ring, ["x - z", "y - w"])
    origin = PrimeIdeal(Ideal(A4.ring, ["x", "y", "z", "w"]))

    naive = vector_space_dimension(union + slant)
    assert naive == 3

    table = tor_length_table(A4, union, slant)
    assert len(table) == 1
    z, lengths = table[0]
    assert z == origin
    assert lengths[0] == 3 and lengths[1] == 1
    assert all(n == 0 for n in lengths[2:])

    mult = serre_multiplicity(A4, union, slant, origin)
    assert mult == 3 - 1 == 2


def test_planes_product_cycle_matches_componentwise_count():
    A4 = four_space()
    union_cycle = cycle_of_subscheme(planes_union_ideal(A4), A4, grade=2)
    slant_cycle = cycle_of_subscheme(Ideal(A4.ring, ["x - z", "y - w"]), A4,
                                     grade=2)
    assert str(union_cycle) == "[(x, y)] + [(z, w)]"
    prod = intersection_product(union_cycle, slant_cycle)
    assert str(prod) == "2*[(x, y, z, w)]"


def test_report_shows_length_table():
    A4 = four_space()
    a = cycle_of_subscheme(Ideal(A4.ring, ["x", "y"]), A4, grade=2)
    b = cycle_of_subscheme(Ideal(A4.ring, ["x - z", "y - w"]), A4, grade=2)
    rep = intersection_product(a, b, report=True)
    assert isinstance(rep, IntersectionReport)
    assert len(rep.rows) == 1
    row = rep.rows[0]
    assert row["multiplicity"] == 1
    assert row["tor_lengths"][0] == 1
    d = rep.as_dict()
    assert d["grade"] == 4
    assert d["cycle"] == [{"prime": ["x", "y", "z", "w"], "mult": 1}]
    assert "lengths" in str(rep)


def test_fundamental_class_is_identity():
    A2 = plane()
    one = Cycle(A2, 0, {PrimeIdeal(Ideal(A2.ring, [])): 1})
    beta = curve_cycle(A2, "y - x^2")
    assert intersection_product(one, beta) == beta
    assert intersection_product(beta, one) == beta


def test_disjoint_cycles_multiply_to_zero():
    A2 = plane()
    prod = intersection_product(curve_cycle(A2, "x"), curve_cycle(A2, "x - 1"))
    assert prod.is_zero()
    assert prod.grade == 2


def test_self_intersection_is_improper():
    A2 = plane()
    c = curve_cycle(A2, "y - x^2")
    assert not intersects_properly(c, c)
    with pytest.raises(EngineError):
        intersection_product(c, c)


def test_properness_predicate():
    A2 = plane()
    assert intersects_properly(curve_cycle(A2, "x"), curve_cycle(A2, "y"))
    assert intersects_properly(curve_cycle(A2, "x"), curve_cycle(A2, "x - 1"))


def test_singular_chart_rejected():
    R = PolynomialRing(QQ, ("x", "y"))
    node = Chart("node", R, ["x*y"])
    assert node.is_regular() is False
    a = point_cycle(node, Ideal(R, ["x", "y - 1"]))
    b = point_cycle(node, Ideal(R, ["x - 1", "y"]))
    with pytest.raises(EngineError):
        intersection_product(a, b)


def test_hidden_singularity_caught_by_tail_check():
    # a line with a fat origin: the quick regularity test is inconclusive,
    # but the residue field at the origin has torsion in every degree, which
    # the vanishing tail check must notice.
    R = PolynomialRing(QQ, ("x", "y"))
    fat = Chart("fatline", R, ["x^2", "x*y"])
    assert fat.is_regular() is None
    origin = PrimeIdeal(Ideal(R, ["x", "y"]))
    with pytest.raises(HypothesisError):
        serre_multiplicity(fat, Ideal(R, ["x", "y"]), Ideal(R, ["x", "y"]),
                           origin)


def test_localization_invariance():
    # compute on the plane, then on the chart where x - 1 is inverted;
    # the point of tangency survives and keeps its multiplicity 2.
    A2 = plane()
    a = curve_cycle(A2, "y - x^2")
    b = curve_cycle(A2, "y")
    prod = intersection_product(a, b)

    loc = A2.localize("x - 1")
    a_loc = restrict_cycle(a, loc)
    b_loc = restrict_cycle(b, loc)
    prod_loc = intersection_product(a_loc, b_loc)
    assert prod_loc == restrict_cycle(prod, loc)
    assert prod_loc.degree() == 2


def test_commutativity():
    A2 = plane()
    a = curve_cycle(A2, "y - x^2")
    b = curve_cycle(A2, "y")
    assert verify_identity("commutativity", a, b)


def test_associativity_of_coordinate_planes():
    R = PolynomialRing(QQ, ("x", "y", "z"))
    A3 = Chart("A3", R)
    a = cycle_of_subscheme(Ideal(R, ["x"]), A3, grade=1)
    b = cycle_of_subscheme(Ideal(R, ["y"]), A3, grade=1)
    c = cycle_of_subscheme(Ideal(R, ["z - x"]), A3, grade=1)
    assert verify_identity("associativity", a, b, c)
    prod = intersection_product(intersection_product(a, b), c)
    assert str(prod) == "[(x, y, z)]"


def doubling_map():
    Rt = PolynomialRing(QQ, ("t",))
    Rx = PolynomialRing(QQ, ("x",))
    src = Chart("line_t", Rt)
    tgt = Chart("line_x", Rx)
    f = ChartMap(src, tgt, {"x": "t^2"}, flat=True, finite=True, proper=True)
    return src, tgt, f


def test_projection_formula_for_doubling():
    src, tgt, f = doubling_map()
    alpha = Cycle(src, 0, {PrimeIdeal(Ideal(src.ring, [])): 1})
    beta = point_cycle(tgt, Ideal(tgt.ring, ["x - 1"]))
    assert verify_identity("projection_formula", f, alpha, beta)
    left = proper_pushforward(
        f, intersection_product(alpha, flat_pullback(f, beta)))
    assert str(left) == "2*[(x - 1)]"


def test_pullback_distributes_over_product():
    # project A^2 onto the x-axis: flat with line fibers
    R2 = PolynomialRing(QQ, ("x", "y"))
    R1 = PolynomialRing(QQ, ("u",))
    A2 = Chart("A2", R2)
    A1 = Chart("A1", R1)
    pr = ChartMap(A2, A1, {"u": "x"}, flat=True)
    one = Cycle(A1, 0, {PrimeIdeal(Ideal(R1, [])): 1})
    beta = point_cycle(A1, Ideal(R1, ["u - 2"]))
    assert verify_identity("pullback_product", pr, one, beta)
    assert str(flat_pullback(pr, beta)) == "[(x - 2)]"


def test_unknown_identity_name():
    with pytest.raises(EngineError):
        verify_identity("abracadabra")


# ---------------------------------------------------------------------------
# the report rows, the length table, the multiplicity and the properness
# predicate all read the same torsion lengths

def _agreement_cases():
    A4 = four_space()
    union = cycle_of_subscheme(planes_union_ideal(A4), A4, grade=2)
    slant = cycle_of_subscheme(Ideal(A4.ring, ["x - z", "y - w"]), A4, grade=2)
    A2 = plane()
    return [(union, slant),
            (curve_cycle(A2, "y - x^2"), curve_cycle(A2, "y - 1")),
            (curve_cycle(A2, "y^2 - x^3"), curve_cycle(A2, "y"))]


def test_report_rows_agree_with_table_and_multiplicity():
    for a, b in _agreement_cases():
        chart = a.chart
        rep = intersection_product(a, b, report=True)
        assert rep.rows
        for row in rep.rows:
            left, right = row["left"].ideal, row["right"].ideal
            table = dict(tor_length_table(chart, left, right))
            assert table[row["component"]] == row["tor_lengths"]
            alternating = sum((-1) ** i * n
                              for i, n in enumerate(row["tor_lengths"]))
            assert row["multiplicity"] == alternating
            assert serre_multiplicity(chart, left, right,
                                      row["component"]) == alternating


def test_two_planes_table_sums_to_the_product():
    A4 = four_space()
    union = planes_union_ideal(A4)
    slant = Ideal(A4.ring, ["x - z", "y - w"])
    [(z, lengths)] = tor_length_table(A4, union, slant)
    alternating = sum((-1) ** i * n for i, n in enumerate(lengths))
    assert serre_multiplicity(A4, union, slant, z) == alternating == 2
    union_cycle, slant_cycle = _agreement_cases()[0]
    assert intersection_product(union_cycle, slant_cycle) == Cycle(A4, 4, {z: 2})


def test_properness_predicate_matches_the_product():
    A2 = plane()
    A4 = four_space()
    plane_xy = cycle_of_subscheme(Ideal(A4.ring, ["x", "y"]), A4, grade=2)
    union, slant = _agreement_cases()[0]
    pairs = [(curve_cycle(A2, "y - x^2"), curve_cycle(A2, "y - x^2")),
             (curve_cycle(A2, "x"), curve_cycle(A2, "y")),
             (curve_cycle(A2, "x"), curve_cycle(A2, "x - 1")),
             (curve_cycle(A2, "x*y"), curve_cycle(A2, "x")),
             (union, slant), (union, plane_xy)]
    outcomes = []
    for a, b in pairs:
        try:
            intersection_product(a, b)
            improper = False
        except EngineError as exc:
            assert "improper intersection" in str(exc)
            improper = True
        assert intersects_properly(a, b) is not improper
        outcomes.append(improper)
    assert outcomes == [True, False, False, True, False, True]


# ---------------------------------------------------------------------------
# lengths read off one count by additivity: the component list, the
# full-support flag of Tor_0, and where the filtration still runs

def test_lengths_past_the_filtration_step_bound_answer_at_a_lone_component():
    # (x^k, x^(k-1)*y) against a smooth curve through the origin meet there
    # alone, so Tor_0 (length k) and Tor_1 (length 1) are read off their
    # counts over k, past the filtration's 60-step bound
    A2 = plane()
    for k in (61, 70):
        table = tor_length_table(A2, (f"x^{k}", f"x^{k - 1}*y"), ("y - 3*x - 5*x^2",))
        assert [(str(z), lengths) for z, lengths in table] == [("(x, y)", [k, 1, 0, 0, 0])]


def _spy_on_span_times(monkeypatch):
    runs = []
    original = primes_module.span_times

    def spy(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(primes_module, "span_times", spy)
    return runs


def test_transverse_conics_run_no_filtration(monkeypatch):
    # x^2 + y^2 = 5 meets xy = 2 in four rational points: Tor_0 has
    # dimension 4, the sum of their degrees, so each has length 1
    runs = _spy_on_span_times(monkeypatch)
    A2 = plane()
    prod = intersection_product(curve_cycle(A2, "x^2 + y^2 - 5"), curve_cycle(A2, "x*y - 2"))
    assert sorted(m for _, m in prod.components()) == [1, 1, 1, 1]
    assert runs == []


def test_cycle_of_an_irreducible_curve_runs_no_filtration(monkeypatch):
    # the twisted cubic is the only component of its subscheme, doubled or
    # not, so its multiplicity is the count over k(x) by its residue degree
    monkeypatch.setattr(primes_module, "_fiber_dimension", None)
    A3 = Chart("A3", PolynomialRing(QQ, ("x", "y", "z")))
    cubic = "(x^2 - y, x*y - z, y^2 - x*z)"
    for gens, cycle in ((["y - x^2", "z - x^3"], f"[{cubic}]"),
                        (["(y - x^2)^2", "z - x^3"], f"2*[{cubic}]")):
        assert str(cycle_of_subscheme(Ideal(A3.ring, gens), A3)) == cycle


def test_serre_multiplicity_keeps_the_filtration(monkeypatch):
    # the origin is the only point of y = x^2 on y = 0; the table reads its
    # length off the count, serre_multiplicity is given no component list
    runs = _spy_on_span_times(monkeypatch)
    A2 = plane()
    [(z, lengths)] = tor_length_table(A2, ["y - x^2"], ["y"])
    assert lengths == [2, 0, 0, 0, 0] and runs == []
    assert serre_multiplicity(A2, ["y - x^2"], ["y"], z) == 2
    assert runs


def test_only_tor_0_is_flagged_full_support(monkeypatch):
    seen, made = [], []
    tors, length = intersection_module.tor_modules, intersection_module.length_at_prime

    def tors_spy(*args, **kwargs):
        made.append(tors(*args, **kwargs))
        return made[-1]

    def length_spy(T, z, **kwargs):
        seen.append((T, kwargs))
        return length(T, z, **kwargs)

    monkeypatch.setattr(intersection_module, "tor_modules", tors_spy)
    monkeypatch.setattr(intersection_module, "length_at_prime", length_spy)
    A4 = four_space()
    union, slant = planes_union_ideal(A4), Ideal(A4.ring, ["x - z", "y - w"])
    table = tor_length_table(A4, union, slant)
    [(z, _)] = table
    [tor] = made
    assert {T is tor[0] for T, _ in seen} == {True, False}
    for T, kwargs in seen:
        assert kwargs["full_support"] is (T is tor[0])
        assert list(kwargs["components"]) == [z]
    seen.clear()
    assert serre_multiplicity(A4, union, slant, z) == 2
    assert seen and all(kwargs["components"] is None for _, kwargs in seen)


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from([QQ, GF(7)]), data=st.data())
def test_bezout_tables_match_the_filtration_oracle(field, data):
    # y = g(x) against y = g(x) + c*P(x), P with simple and double integer
    # roots and maybe the factor x^2 + 2, irreducible over QQ and F_7
    R = PolynomialRing(field, ("x", "y"))
    A2 = Chart("A2", R)
    x, y = R.gens()
    coeff = st.integers(-3, 3)
    g = R.const(data.draw(coeff)) * x ** 2 + R.const(data.draw(coeff)) * x
    P = R.const(data.draw(st.integers(1, 3), label="c"))
    for r in data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True),
                       label="roots"):
        P = P * (x - R.const(r)) ** data.draw(st.integers(1, 2), label="multiplicity")
    if data.draw(st.booleans(), label="x^2 + 2"):
        P = P * (x ** 2 + R.const(2))
    I, K = Ideal(R, [y - g]), Ideal(R, [y - g - P])
    table = tor_length_table(A2, I, K)
    tors = tor_modules(FPModule.cyclic(I), FPModule.cyclic(K), up_to=A2.dim() + 2)
    for z, lengths in table:
        assert lengths == [filtration_length(T, z) if T.rank else 0 for T in tors]
    # every component is a closed point, so S is empty and the count over
    # k(x_S) is dim_k Tor_i: it is the sum of len * [k(z):k] over the rows
    degrees = [count_standard_monomials(z.ideal.leading_exponents()) for z, _ in table]
    for i, T in enumerate(tors):
        assert sum(d * lengths[i] for d, (_, lengths) in zip(degrees, table)) == (
            module_dimension(T) if T.rank else 0)
