"""Acceptance gate: the eight headline behaviors, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; every
criterion also stands alone as a pytest test with its runtime bound
enforced inside the wrapper.
"""

import functools
import random
import time

from chowcalc.fields import GF, QQ
from chowcalc.geometry import (CartierDivisor, Chart, Cycle, cycle_of_module,
                               cycle_of_subscheme, point_cycle,
                               principal_atlas, restrict_cycle)
from chowcalc.groebner import Ideal
from chowcalc.homology import FPModule, free_resolution
from chowcalc.intersection import (identity_sides, intersection_product,
                                   serre_multiplicity, tor_length_table)
from chowcalc.morphisms import (ChartMap, fiber_product, flat_pullback,
                                proper_pushforward, pullback_module,
                                pushforward_module)
from chowcalc.polyring import PolynomialRing, transport
from chowcalc.primes import PrimeIdeal, length_at_prime
from chowcalc.correspondences import compose, graph, identity_correspondence

from oracles import (assert_good_basis, count_standard_monomials, filtration_length,
                     is_complex)


def criterion(num, label, limit=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            ok = False
            try:
                fn()
                elapsed = time.monotonic() - start
                if limit is not None and elapsed >= limit:
                    raise AssertionError(
                        f"runtime {elapsed:.2f}s exceeds the {limit}s bound")
                ok = True
            finally:
                elapsed = time.monotonic() - start
                status = "PASS" if ok else "FAIL"
                print(f"criterion {num} ({label}): {status} [{elapsed:.2f}s]")
        return wrapper
    return deco


def plane(name="A2", field=QQ):
    ring = PolynomialRing(field, ("x", "y"))
    return Chart(name, ring)


def line_pair(field=QQ):
    S = PolynomialRing(field, ("t",))
    T = PolynomialRing(field, ("x",))
    return Chart("Src", S), Chart("Tgt", T)


def cover(n, field=QQ):
    src, tgt = line_pair(field)
    f = ChartMap(src, tgt, {"x": f"t^{n}"}, flat=True, finite=True,
                 proper=True)
    return f


def prime_on(chart, *gens):
    return PrimeIdeal(Ideal(chart.ring, gens) + chart.ideal)


def cyc(chart, grade, *pairs):
    return Cycle(chart, grade, {prime_on(chart, *gens): m
                                for m, gens in pairs})


# ----------------------------------------------------------------------

@criterion(1, "two-planes torsion correction", limit=5.0)
def test_criterion_1_two_planes_regression():
    ring = PolynomialRing(QQ, ("x", "y", "z", "w"))
    A4 = Chart("A4", ring)
    union = cycle_of_subscheme(Ideal(ring, ["x*z", "x*w", "y*z", "y*w"]), A4)
    slant = cycle_of_subscheme(Ideal(ring, ["x - z", "y - w"]), A4)
    assert union == cyc(A4, 2, (1, ("x", "y")), (1, ("z", "w")))

    product = intersection_product(union, slant)
    assert product == cyc(A4, 4, (2, ("x", "y", "z", "w")))

    rows = tor_length_table(A4, Ideal(ring, ["x*z", "x*w", "y*z", "y*w"]),
                            Ideal(ring, ["x - z", "y - w"]))
    assert len(rows) == 1
    lengths = rows[0][1]
    naive = lengths[0]
    corrected = sum((-1) ** i * n for i, n in enumerate(lengths))
    assert naive == 3
    assert corrected == 2
    assert naive != corrected  # the higher torsion really matters


@criterion(2, "plane-curve multiplicity battery", limit=5.0)
def test_criterion_2_bezout_battery():
    A2 = plane()
    ring = A2.ring

    def prod(left, right):
        return intersection_product(
            cycle_of_subscheme(Ideal(ring, [left]), A2),
            cycle_of_subscheme(Ideal(ring, [right]), A2))

    origin = cyc(A2, 2, (1, ("x", "y")))
    assert prod("y - x^2", "y") == 2 * origin
    assert prod("y^2 - x^3", "y") == 3 * origin
    assert prod("x", "y") == origin
    assert prod("y - x^2", "y - 1") == cyc(A2, 2, (1, ("x - 1", "y - 1")),
                                           (1, ("x + 1", "y - 1")))


@criterion(3, "projection formula", limit=10.0)
def test_criterion_3_projection_formula():
    f = cover(2)
    alpha = cycle_of_subscheme(Ideal(f.source.ring, ()), f.source, grade=0)
    beta = point_cycle(f.target, Ideal(f.target.ring, ["x - 1"]))
    lhs, rhs = identity_sides("projection_formula", f, alpha, beta)
    expected = cyc(f.target, 1, (2, ("x - 1",)))
    assert lhs == expected
    assert rhs == expected

    rng = random.Random(314159)
    instances = 0
    while instances < 6:
        n = rng.choice([2, 3, 4])
        c = rng.randint(-3, 3)
        translated = f"x - {c}" if c >= 0 else f"x + {-c}"
        g = cover(n)
        a = cycle_of_subscheme(Ideal(g.source.ring, ()), g.source, grade=0)
        b = point_cycle(g.target, Ideal(g.target.ring, [translated]))
        lhs, rhs = identity_sides("projection_formula", g, a, b)
        assert lhs == rhs
        assert not lhs.is_zero()
        instances += 1
    assert instances >= 5


@criterion(4, "flat base change")
def test_criterion_4_flat_base_change():
    squares = []

    # line covers against a localization and a variable adjunction
    for n in (2, 3):
        f = cover(n)
        tgt = f.target
        loc = tgt.localize("x - 1", name="L")
        g_loc = ChartMap(loc, tgt, {"x": "x"}, flat=True)
        adj = Chart("TgtxA1", PolynomialRing(QQ, ("x", "s")))
        g_adj = ChartMap(adj, tgt, {"x": "x"}, flat=True)
        cycles = [
            point_cycle(f.source, Ideal(f.source.ring, ["t - 2"])),
            point_cycle(f.source, Ideal(f.source.ring, ["t - 1"])),
            cycle_of_subscheme(Ideal(f.source.ring, ()), f.source, grade=0),
        ]
        squares.append((f, g_loc, cycles))
        squares.append((f, g_adj, cycles))

    # a plane double cover against a localization
    X = plane("X")
    Z = Chart("Z", PolynomialRing(QQ, ("a", "b")))
    f5 = ChartMap(X, Z, {"a": "x", "b": "y^2"}, flat=True, finite=True,
                  proper=True)
    loc5 = Z.localize("a", name="Za")
    g5 = ChartMap(loc5, Z, {"a": "a", "b": "b"}, flat=True)
    squares.append((f5, g5, [
        point_cycle(X, Ideal(X.ring, ["x - 1", "y - 2"])),
        cycle_of_subscheme(Ideal(X.ring, ["y - x"]), X),
    ]))

    assert len(squares) >= 5
    for f, g, cycles in squares:
        W, to_x, to_y = fiber_product(f, g)
        for alpha in cycles:
            lhs = flat_pullback(g, proper_pushforward(f, alpha))
            rhs = proper_pushforward(to_y, flat_pullback(to_x, alpha))
            assert lhs == rhs


@criterion(5, "module/cycle compatibilities")
def test_criterion_5_module_compatibilities():
    checked = 0

    # pullback: cycle-of-module commutes with flat pullback
    def check_pull(f, gens, grade):
        nonlocal checked
        F = FPModule.cyclic(Ideal(f.target.ring, gens))
        lhs = cycle_of_module(pullback_module(f, F), f.source, grade)
        rhs = flat_pullback(f, cycle_of_module(F, f.target, grade))
        assert lhs == rhs
        checked += 1

    src, tgt = line_pair()
    adj = ChartMap(Chart("P", PolynomialRing(QQ, ("x", "s"))), tgt,
                   {"x": "x"}, flat=True)
    check_pull(adj, ["x - 1"], 1)
    check_pull(adj, ["x^2"], 1)
    loc = tgt.localize("x - 1", name="L")
    check_pull(ChartMap(loc, tgt, {"x": "x"}, flat=True),
               ["x * (x - 2)"], 1)
    check_pull(cover(2), ["x - 1"], 1)
    check_pull(cover(2), ["x^2 - 2"], 1)
    check_pull(cover(3), ["x"], 1)
    A2 = plane()
    proj = ChartMap(A2, tgt, {"x": "x"}, flat=True)
    check_pull(proj, ["x^3"], 1)
    A2loc = A2.localize("y", name="A2y")
    check_pull(ChartMap(A2loc, A2, {"x": "x", "y": "y"}, flat=True),
               ["x - y"], 1)
    f5 = cover(2, GF(5))
    check_pull(f5, ["x + 1"], 1)

    # pushforward: cycle-of-module commutes with finite pushforward
    def check_push(f, module, grade_src):
        nonlocal checked
        grade_tgt = f.target.dim() - (f.source.dim() - grade_src)
        lhs = proper_pushforward(f, cycle_of_module(module, f.source,
                                                    grade_src))
        rhs = cycle_of_module(pushforward_module(f, module), f.target,
                              grade_tgt)
        assert lhs == rhs
        checked += 1

    f2 = cover(2)
    S = f2.source.ring
    check_push(f2, FPModule.cyclic(Ideal(S, ["t - 1"])), 1)
    check_push(f2, FPModule.cyclic(Ideal(S, ["t^2 - 2"])), 1)
    check_push(f2, FPModule.cyclic(Ideal(S, ["t^2"])), 1)
    check_push(f2, FPModule.free(S, 1), 0)
    f3 = cover(3)
    check_push(f3, FPModule.cyclic(Ideal(f3.source.ring, ["t - 2"])), 1)
    X = plane("X")
    Z = Chart("Z", PolynomialRing(QQ, ("a", "b")))
    fpl = ChartMap(X, Z, {"a": "x", "b": "y^2"}, flat=True, finite=True,
                   proper=True)
    check_push(fpl, FPModule.cyclic(Ideal(X.ring, ["y - x"])), 1)
    check_push(fpl, FPModule.cyclic(Ideal(X.ring, ["x - 1", "y - 2"])), 2)
    g5 = cover(2, GF(5))
    check_push(g5, FPModule.cyclic(Ideal(g5.source.ring, ["t^2 + 1"])), 1)

    assert checked >= 8


@criterion(6, "localization invariance and gluing")
def test_criterion_6_cross_chart_invariance():
    A2 = plane()
    ring = A2.ring

    # multiplicities of modules at primes survive principal localization
    corpus = [
        (["x^2", "y"], ("x", "y"), "x - 1"),
        (["y - x^2"], ("y - x^2",), "x"),
        (["x^3"], ("x",), "y - 1"),
        (["x^2 * (x + 2)"], ("x",), "y"),
    ]
    for gens, prime_gens, element in corpus:
        M = FPModule.cyclic(Ideal(ring, gens), A2.ideal)
        p = prime_on(A2, *prime_gens)
        before = length_at_prime(M, p)
        loc = A2.localize(element)
        M_loc = FPModule.cyclic(Ideal(loc.ring,
                                      [transport(ring.parse(s), loc.ring)
                                       for s in gens]), loc.ideal)
        p_loc = PrimeIdeal(Ideal(loc.ring, [transport(g, loc.ring)
                                            for g in p.ideal.gens])
                           + loc.ideal)
        after = length_at_prime(M_loc, p_loc)
        assert before == after

    # Weil-divisor coefficients survive principal localization
    for num, element in [("x^2 * y", "x - 1"), ("(y - x^2) * y^3", "x - 2"),
                         ("x * (x - 1)", "y - 5")]:
        D = CartierDivisor(A2, num)
        loc = A2.localize(element)
        assert restrict_cycle(D.weil(), loc) == CartierDivisor(loc, num).weil()

    # Serre multiplicities survive principal localization
    for left, right, z_gens, element in [
            ("y - x^2", "y", ("x", "y"), "x - 1"),
            ("y^2 - x^3", "y", ("x", "y"), "x + 1"),
    ]:
        I, K = Ideal(ring, [left]), Ideal(ring, [right])
        z = prime_on(A2, *z_gens)
        before = serre_multiplicity(A2, I, K, z)
        loc = A2.localize(element)
        I_loc = Ideal(loc.ring, [transport(g, loc.ring) for g in I.gens])
        K_loc = Ideal(loc.ring, [transport(g, loc.ring) for g in K.gens])
        z_loc = PrimeIdeal(Ideal(loc.ring, [transport(g, loc.ring)
                                            for g in z.ideal.gens])
                           + loc.ideal)
        after = serre_multiplicity(loc, I_loc, K_loc, z_loc)
        assert before == after

    # punctured-plane atlas: consistent data glues, corrupted data does not
    atlas = principal_atlas(A2, ["x", "y"])
    diagonal = cycle_of_subscheme(Ideal(ring, ["x - y"]), A2)
    family = {label: restrict_cycle(diagonal, chart)
              for label, chart in atlas.charts.items()}
    ok, _ = atlas.glue_cycles(family)
    assert ok
    corrupted = dict(family)
    corrupted["U1"] = 2 * corrupted["U1"]
    ok, messages = atlas.glue_cycles(corrupted)
    assert not ok
    assert any("mismatch" in msg for msg in messages)


@criterion(7, "correspondence category laws")
def test_criterion_7_correspondence_laws():
    src, tgt = line_pair()

    def corr(expr, a=src, b=tgt):
        return graph(ChartMap(a, b, {b.ring.names[0]: expr}, flat=True,
                              finite=True, proper=True))

    def endo(expr):
        return graph(ChartMap(src, src, {"t": expr}, flat=True, finite=True,
                              proper=True))

    # identity laws on both sides
    g = corr("t^2")
    for V in (g, corr("t^3"), g.transpose()):
        left_id = identity_correspondence(V.source)
        right_id = identity_correspondence(V.target)
        assert compose(left_id, V) == V
        assert compose(V, right_id) == V

    # graph functoriality on >= 5 composable pairs
    pairs = [("t^2", "t^2"), ("t + 1", "t^2"), ("2*t", "t^3"),
             ("t^2", "t + 1"), ("t + 2", "t + 5"), ("t^3", "2*t")]
    for first_expr, second_expr in pairs:
        f = ChartMap(src, src, {"t": first_expr}, flat=True, finite=True,
                     proper=True)
        h = ChartMap(src, src, {"t": second_expr}, flat=True, finite=True,
                     proper=True)
        assert compose(graph(f), graph(h)) == graph(f.then(h))
    assert len(pairs) >= 5

    # associativity on >= 3 triples (one involving a transpose)
    triples = [
        (endo("t + 1"), endo("t^2"), endo("2*t")),
        (endo("2*t"), endo("t + 3"), endo("t^2")),
        (g, g.transpose(), g),
    ]
    for a, b, c in triples:
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    # the double cover composed with its transpose: diagonal + antidiagonal
    sym = compose(g, g.transpose())
    names = sym.product.chart.ring.names
    t0, t1 = names[0], names[1]
    expected = (cycle_of_subscheme(
                    Ideal(sym.product.chart.ring, [f"{t0} - {t1}"]),
                    sym.product.chart)
                + cycle_of_subscheme(
                    Ideal(sym.product.chart.ring, [f"{t0} + {t1}"]),
                    sym.product.chart))
    assert sym.cycle == expected


@criterion(8, "kernel property suites")
def test_criterion_8_kernel_properties():
    # Buchberger criterion + reducedness on every basis in a mixed corpus
    corpus = [
        (QQ, ("x", "y"), ["y - x^2", "y"]),
        (QQ, ("x", "y"), ["x*y - 1", "x^2 + y^2 - 4"]),
        (QQ, ("x", "y", "z"), ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"]),
        (QQ, ("x", "y", "z"), ["x^2 - y*z", "y^2 - x*z"]),
        (QQ, ("t",), ["t^4 - 1", "t^6 - 1"]),
        (GF(7), ("x", "y"), ["x^3 + y", "y^3 + x"]),
        (GF(7), ("x", "y"), ["x^2 + y^2 - 1", "x - 2*y"]),
        (QQ, ("x", "y"), ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"]),
        (QQ, ("x", "y", "z", "w"), ["x*z", "x*w", "y*z", "y*w"]),
        (QQ, ("x", "y"), ["x^3 + 3*x^2*y + 3*x*y^2 + y^3", "x^2*y - x*y^2"]),
    ]
    for field, names, gens in corpus:
        ring = PolynomialRing(field, names)
        I = Ideal(ring, gens)
        assert_good_basis([ring.parse(g) for g in gens],
                          I.groebner_basis(), ring.order)

    # d^2 = 0 and completeness on resolutions
    R2 = PolynomialRing(QQ, ("x", "y"))
    R4 = PolynomialRing(QQ, ("x", "y", "z", "w"))
    modules = [
        FPModule.cyclic(Ideal(R2, ["x^2", "x*y", "y^3"])),
        FPModule.cyclic(Ideal(R4, ["x*z", "x*w", "y*z", "y*w"])),
        FPModule.cyclic(Ideal(R2, ["x", "y"])),
        FPModule(R2, 2, [["x", "y"], ["y", "x"]]),
    ]
    for M in modules:
        res = free_resolution(M)
        assert res.complete
        assert is_complex(res)
    J = Ideal(R2, ["y - x^2"])
    res = free_resolution(FPModule.cyclic(Ideal(R2, ["x", "y"]), J),
                          max_length=4, partial=True)
    assert is_complex(res, modulo=J)

    # local length equals the standard-monomial count on monomial/primary
    # zero-dimensional cases
    R3 = PolynomialRing(QQ, ("x", "y", "z"))
    zero_dim = [
        (R2, ["x", "y"]),
        (R2, ["x^2", "y"]),
        (R2, ["x", "y^2"]),
        (R2, ["x^2", "y^2"]),
        (R2, ["x^2", "x*y", "y^2"]),
        (R2, ["x^3", "y^2"]),
        (R2, ["x^3", "x*y", "y^4"]),
        (R3, ["x", "y", "z"]),
        (R3, ["x^2", "y", "z"]),
        (R3, ["x^2", "y^2", "z^2"]),
        (R3, ["x^2", "x*y", "y^3", "z"]),
    ]
    assert len(zero_dim) >= 10
    for ring, gens in zero_dim:
        Q = Ideal(ring, gens)
        maximal = PrimeIdeal(Ideal(ring, ring.names))
        length = length_at_prime(FPModule.cyclic(Q), maximal)
        expected = count_standard_monomials(
            [g.lm() for g in Q.groebner_basis()])
        assert expected is not None
        assert length == expected
        # the filtration oracle meets the same count
        assert filtration_length(FPModule.cyclic(Q), maximal) == expected

    # order-of-vanishing additivity on randomized regular pairs
    A2 = plane()
    pool = ["x", "y", "x - 1", "y - 2", "x + y", "y - x^2", "x + 2*y - 1",
            "x^2 + y^2 + 1", "y^2 - x^3"]
    rng = random.Random(271828)
    pairs = 0
    while pairs < 20:
        def draw():
            poly = A2.ring.one
            for _ in range(rng.randint(1, 2)):
                poly = poly * A2.ring.parse(rng.choice(pool)) \
                    ** rng.randint(1, 2)
            return poly
        f, g = draw(), draw()
        lhs = CartierDivisor(A2, f * g).weil()
        rhs = CartierDivisor(A2, f).weil() + CartierDivisor(A2, g).weil()
        assert lhs == rhs
        pairs += 1
