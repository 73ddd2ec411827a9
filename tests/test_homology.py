"""Module layer: syzygies, resolutions, Tor, annihilators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowcalc import homology as homology_module
from chowcalc.errors import ResolutionError, RingMismatchError
from chowcalc.fields import QQ
from chowcalc.groebner import Ideal, intersect
from chowcalc.homology import (Complex, FPModule, FreeModuleElement, annihilator,
                               coefficient_module, free_resolution, syzygies,
                               tor_modules)
from chowcalc.polyring import PolynomialRing, elimination_order

from oracles import (in_span, is_complex, is_zero_module, module_basis, position_order,
                     reduce_vector, unit_vector)


R2 = PolynomialRing(QQ, ("x", "y"))
x, y = R2.gens()


def vec(*coords):
    return FreeModuleElement(R2, [R2.parse(c) if isinstance(c, str) else c
                                  for c in coords])


def test_element_arithmetic():
    a = vec("x", "y")
    b = vec("1", "x*y")
    assert (a + b).coords == (R2.parse("x + 1"), R2.parse("x*y + y"))
    assert (a - a).is_zero()
    assert (-a).coords == (R2.parse("-x"), R2.parse("-y"))
    assert a.scale(R2.parse("y")).coords == (R2.parse("x*y"), R2.parse("y^2"))
    assert unit_vector(R2, 3, 1).coords[1] == R2.one
    assert str(vec("x", "0")) == "(x, 0)"


def test_vector_normal_form_and_span():
    basis = [vec("x", "0")]
    key = position_order(2, R2.order)
    assert reduce_vector(vec("x^2", "0"), basis, key).is_zero()
    nf = reduce_vector(vec("y", "0"), basis, key)
    assert nf == vec("y", "0")
    assert in_span(vec("x^2", "0"), basis, 2, R2)
    assert not in_span(vec("y", "0"), basis, 2, R2)


def test_module_basis_membership():
    gens = [vec("x", "0"), vec("y", "x"), vec("0", "y")]
    basis = module_basis(gens, 2, R2)
    for g in gens:
        assert in_span(g, basis, 2, R2)
    # (y, x) - (y, 0)-ish reductions stay inside the span
    assert in_span(vec("x*y", "x^2"), basis, 2, R2)
    assert not in_span(vec("1", "0"), basis, 2, R2)


def test_koszul_syzygy():
    gens = [vec_rank1("x"), vec_rank1("y")]
    syz = syzygies(gens, 1, R2)
    assert len(syz) == 1
    basis = module_basis(syz, 2, R2)
    assert in_span(vec("y", "-x"), basis, 2, R2)
    # soundness: the syzygy really kills the generators
    s = syz[0]
    assert (s[0] * R2.parse("x") + s[1] * R2.parse("y")).is_zero()


def vec_rank1(s):
    return FreeModuleElement(R2, (R2.parse(s),))


def test_koszul_resolution_shape():
    M = FPModule.cyclic(Ideal(R2, ("x", "y")))
    res = free_resolution(M)
    assert res.complete
    assert res.ranks == [1, 2, 1]
    assert is_complex(res)


def test_resolution_of_x2_xy():
    M = FPModule.cyclic(Ideal(R2, ("x^2", "x*y")))
    res = free_resolution(M)
    assert res.complete
    assert res.ranks == [1, 2, 1]
    assert is_complex(res)


def test_resolution_builds_one_module_basis(monkeypatch):
    # only M's relations need a module basis: each syzygy list already is one
    calls = []
    original = homology_module.buchberger

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(homology_module, "buchberger", spy)
    res = free_resolution(FPModule.cyclic(Ideal(R2, ("x^2", "x*y"))))
    assert res.ranks == [1, 2, 1]
    assert len(calls) == 1


def test_basis_folds_the_chart_ideal_in_once_per_order(monkeypatch):
    calls = []
    original = homology_module.buchberger

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(homology_module, "buchberger", spy)
    M = FPModule.cyclic(Ideal(R2, ("x^2", "x*y")), Ideal(R2, ("y",)))
    basis = M.basis()
    assert M.basis() is basis and len(calls) == 1
    eliminating_x = elimination_order((0,), 2)
    assert M.basis(eliminating_x) is M.basis(eliminating_x)
    assert len(calls) == 2
    assert module_basis(M.relations, 1, R2, M.modulo) == [vec_rank1("x^2"), vec_rank1("y")]


def test_module_and_chart_ideal_share_a_ring():
    R1 = PolynomialRing(QQ, ("x",))
    with pytest.raises(RingMismatchError):
        FPModule.free(R2, 1, Ideal(R1, ("x",)))


def test_tor_modules_are_over_the_algebra_of_their_inputs():
    J = Ideal(R2, ("y",))
    M = FPModule.cyclic(Ideal(R2, ("x",)), J)
    with pytest.raises(RingMismatchError):
        tor_modules(M, FPModule.cyclic(Ideal(R2, ("x - 1",))), up_to=1)
    # an equal chart ideal built apart is the same algebra
    tors = tor_modules(M, FPModule.cyclic(Ideal(R2, ("x",)), Ideal(R2, ("y",))), up_to=2)
    assert all(T.modulo == J for T in tors)
    assert [is_zero_module(T) for T in tors] == [False, False, True]


def test_resolution_free_module():
    res = free_resolution(FPModule.free(R2, 3))
    assert res.complete
    assert res.ranks == [3]
    assert res.length() == 0


def test_periodic_resolution_over_nonregular_chart():
    # A = k[x, y]/(x^2); A/(x) has the periodic resolution ... x-> A x-> A
    J = Ideal(R2, ("x^2",))
    M = FPModule.cyclic(Ideal(R2, ("x",)), J)
    res = free_resolution(M, max_length=3, partial=True)
    assert not res.complete
    assert res.ranks == [1, 1, 1, 1]
    for cols in res.mats:
        assert len(cols) == 1 and cols[0][0] == R2.parse("x")
    assert is_complex(res, modulo=J)
    assert not is_complex(res)  # d*d = x^2 is nonzero upstairs
    with pytest.raises(ResolutionError):
        free_resolution(M, max_length=3)


def test_tor_of_free_vanishes():
    N = FPModule.cyclic(Ideal(R2, ("x",)))
    tors = tor_modules(FPModule.free(R2, 2), N, up_to=2)
    assert not is_zero_module(tors[0])
    assert is_zero_module(tors[1])
    assert is_zero_module(tors[2])


def test_tor_against_the_zero_module_is_zero():
    # no rank-0 shortcut: empty block copies, empty tensored columns and an
    # empty kernel give the zero module on either side
    zero = FPModule.free(R2, 0)
    point = FPModule.cyclic(Ideal(R2, ("x", "y")))
    for M, N in ((zero, point), (point, zero)):
        tors = tor_modules(M, N, up_to=3)
        assert [(T.rank, T.relations) for T in tors] == [(0, ())] * 4


def test_tor_zero_for_transverse_cyclics():
    M = FPModule.cyclic(Ideal(R2, ("x",)))
    N = FPModule.cyclic(Ideal(R2, ("x - 1",)))
    tors = tor_modules(M, N, up_to=2)
    assert all(is_zero_module(T) for T in tors)


def test_tor_selfintersection_on_line():
    R1 = PolynomialRing(QQ, ("x",))
    M = FPModule.cyclic(Ideal(R1, ("x",)))
    tors = tor_modules(M, M, up_to=2)
    assert annihilator(tors[0]) == Ideal(R1, ("x",))
    assert annihilator(tors[1]) == Ideal(R1, ("x",))
    assert is_zero_module(tors[2])


def test_tor_two_planes_through_origin():
    R4 = PolynomialRing(QQ, ("x", "y", "z", "w"))
    I = intersect(Ideal(R4, ("x", "y")), Ideal(R4, ("z", "w")))
    K = Ideal(R4, ("x - z", "y - w"))
    tors = tor_modules(FPModule.cyclic(I), FPModule.cyclic(K), up_to=3)
    assert not is_zero_module(tors[0])
    assert not is_zero_module(tors[1])
    flipped = tor_modules(FPModule.cyclic(K), FPModule.cyclic(I), up_to=3)
    for a, b in zip(tors, flipped):
        assert is_zero_module(a) == is_zero_module(b)


def test_annihilator_examples():
    assert annihilator(FPModule.cyclic(Ideal(R2, ("x^2", "x*y")))) == Ideal(R2, ("x^2", "x*y"))
    M = FPModule(R2, 2, [vec("x", "0"), vec("0", "y")])
    assert annihilator(M) == Ideal(R2, ("x*y",))
    assert annihilator(FPModule.free(R2, 1)).is_zero()
    J = Ideal(R2, ("y",))
    assert annihilator(FPModule.free(R2, 1, J)) == J


def test_is_zero_module():
    assert is_zero_module(FPModule.cyclic(Ideal(R2, ("1",))))
    assert not is_zero_module(FPModule.cyclic(Ideal(R2, ("x",))))
    assert is_zero_module(FPModule(R2, 0, ()))
    # x becomes a unit on the chart x = 1
    assert is_zero_module(FPModule.cyclic(Ideal(R2, ("x",)), Ideal(R2, ("x - 1",))))


def test_coefficient_module_subring_restriction():
    # k[t]/(t^3) as a module over k[x] via x = t^2, on generators 1, t:
    # relations are exactly x^2 * 1 and x * t.
    R = PolynomialRing(QQ, ("t", "x"))
    J = Ideal(R, ("t^3", "t^2 - x"))
    one = FreeModuleElement(R, (R.one,))
    tvec = FreeModuleElement(R, (R.parse("t"),))
    rels = coefficient_module([one, tvec], [], 1, R, modulo=J, coeff_names=("x",))
    expected = [FreeModuleElement(R, (R.parse("x^2"), R.zero)),
                FreeModuleElement(R, (R.zero, R.parse("x")))]
    assert (module_basis(rels, 2, R, modulo=J)
            == module_basis(expected, 2, R, modulo=J))
    for s in rels:
        assert not (set(s[0].support()) | set(s[1].support())) - {R.index_of("x")}


def test_coefficient_module_free_case_is_empty():
    # k[t] over k[x] via x = t^2 is free on 1, t: no relations at all.
    R = PolynomialRing(QQ, ("t", "x"))
    J = Ideal(R, ("t^2 - x",))
    one = FreeModuleElement(R, (R.one,))
    tvec = FreeModuleElement(R, (R.parse("t"),))
    rels = coefficient_module([one, tvec], [], 1, R, modulo=J, coeff_names=("x",))
    assert rels == []


# --- randomized soundness -------------------------------------------------

MONOMIALS = ["1", "x", "y", "x*y", "x^2", "y^2"]


@st.composite
def small_poly(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    p = R2.zero
    for _ in range(n):
        m = draw(st.sampled_from(MONOMIALS))
        c = draw(st.integers(min_value=-3, max_value=3))
        p = p + R2.parse(m) * c
    return p


@st.composite
def small_vectors(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    return [FreeModuleElement(R2, (draw(small_poly()), draw(small_poly())))
            for _ in range(count)]


@settings(max_examples=25, deadline=None)
@given(small_vectors())
def test_syzygies_are_sound(vectors):
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return
    for s in syzygies(vectors, 2, R2):
        total = FreeModuleElement(R2, (R2.zero, R2.zero))
        for c, g in zip(s.coords, vectors):
            total = total + g.scale(c)
        assert total.is_zero()


@settings(max_examples=25, deadline=None)
@given(small_vectors(), st.sampled_from([None, ("x^2",), ("x*y", "y^2"), ("x^2 - y",)]))
def test_syzygies_are_their_own_module_basis(vectors, modulo):
    # free_resolution builds no basis of the syzygies: with J folded in and
    # reduced they must come back unchanged
    vectors = [v for v in vectors if not v.is_zero()]
    J = None if modulo is None else Ideal(R2, modulo)
    syz = syzygies(vectors, 2, R2, modulo=J)
    assert module_basis(syz, len(vectors), R2, modulo=J) == syz


@settings(max_examples=15, deadline=None)
@given(small_vectors())
def test_resolutions_are_complexes(vectors):
    M = FPModule(R2, 2, vectors)
    res = free_resolution(M, max_length=8)
    assert res.complete
    assert is_complex(res)
