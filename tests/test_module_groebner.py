"""Module Gröbner bases against the module-vector Buchberger oracle, and the
pair criteria on the module path."""

import pytest
from hypothesis import given, settings, strategies as st

from chowcalc import groebner
from chowcalc.fields import GF, QQ
from chowcalc.groebner import vec_to_polys
from chowcalc.homology import FreeModuleElement, coefficient_module
from chowcalc.polyring import PolynomialRing, elimination_order

from oracles import (assert_good_module_basis, is_module_groebner, is_reduced_module_basis,
                     module_basis, position_order, reduce_vector)


R3 = PolynomialRing(QQ, ("x", "y", "z"))


def vec(*coords):
    return FreeModuleElement(R3, [R3.parse(c) for c in coords])


KOSZUL_SQUARES = [vec("x*y"), vec("y*z"), vec("x*z")]
RANK_TWO = [vec("x*y", "z"), vec("y*z", "x"), vec("x*z", "y"), vec("x^2", "0")]


def strs(elements):
    return [str(e) for e in elements]


# ---------------------------------------------------------------------------
# the chain criterion fires on module runs

def spair_count(monkeypatch, run):
    count = [0]
    spair = groebner._spair

    def counting(*args):
        count[0] += 1
        return spair(*args)

    monkeypatch.setattr(groebner, "_spair", counting)
    run()
    return count[0]


def test_chain_criterion_fires_on_coefficient_module(monkeypatch):
    # witness block present, so only the chain criterion can skip: 3 S-vectors
    # are formed without it
    n = spair_count(monkeypatch, lambda: coefficient_module(KOSZUL_SQUARES, [], 1, R3))
    assert n == 2


def test_chain_criterion_fires_on_rank_two_module_basis(monkeypatch):
    # two positions, so only the chain criterion can skip: 21 S-vectors are
    # formed without it
    n = spair_count(monkeypatch, lambda: module_basis(RANK_TWO, 2, R3))
    assert n == 12


def test_module_outputs_pinned():
    # values computed before any pair criterion ran on module input
    assert strs(coefficient_module(KOSZUL_SQUARES, [], 1, R3)) == [
        "(-z, x, 0)", "(-z, 0, y)"]
    assert strs(coefficient_module(RANK_TWO, [], 2, R3)) == [
        "(x^3, -x^2*z, 0, -x^2*y + y*z^2)",
        "(0, -x^2*y, x^3, -x^2*z + y^2*z)",
        "(-x^2*z + y^2*z, -x*y^2 + x*z^2, x^2*y - y*z^2, 0)",
        "(x*y, 0, -x*z, -y^2 + z^2)"]
    assert strs(module_basis(RANK_TWO, 2, R3)) == [
        "(0, y*z^2)", "(0, z^3)", "(x^2, 0)", "(0, x^2 - z^2)", "(x*y, z)",
        "(0, x*y)", "(0, y^2 - z^2)", "(x*z, y)", "(0, x*z)", "(y*z, x)"]


R2 = PolynomialRing(QQ, ("x", "y"))
# (x, 1) and (y, 0): coprime heads at one position, yet the S-vector (0, y)
# is a new basis element
COPRIME_HEADS = [FreeModuleElement(R2, (R2.parse("x"), R2.one)),
                 FreeModuleElement(R2, (R2.parse("y"), R2.zero))]


def test_coprime_heads_of_vectors_are_not_skipped():
    basis = module_basis(COPRIME_HEADS, 2, R2)
    assert "(0, y)" in strs(basis)
    assert_good_module_basis(COPRIME_HEADS, basis, position_order(2, R2.order))


def test_oracle_rejects_a_non_basis():
    key = position_order(2, R2.order)
    assert not is_module_groebner(COPRIME_HEADS, key)
    assert not is_reduced_module_basis([COPRIME_HEADS[0].scale(R2.const(2))], key)
    assert not reduce_vector(FreeModuleElement(R2, (R2.zero, R2.parse("y"))),
                             COPRIME_HEADS, key).is_zero()


FRACTIONAL = [vec("1/2*x*y - 2/3", "3/4*z"), vec("2/5*y*z", "x - 1/7"),
              vec("5/3*x^2", "-7/2")]


def test_module_basis_with_fractional_coordinates():
    # the engine works on these scaled to coprime integers; the reduced basis
    # is the monic one of their span, so integer multiples give the same one
    key = position_order(2, R3.order)
    basis = module_basis(FRACTIONAL, 2, R3)
    assert_good_module_basis(FRACTIONAL, basis, key)
    scaled = [v.scale(R3.const(c)) for v, c in zip(FRACTIONAL, (6, -35, 2))]
    assert strs(module_basis(scaled, 2, R3)) == strs(basis)
    assert any("/" in s for s in strs(basis))


# ---------------------------------------------------------------------------
# randomized: module_basis and the raw coefficient_module basis

MONOMIALS = ["1", "x", "y", "x*y", "x^2", "y^2"]


@st.composite
def small_poly(draw, ring):
    p = ring.zero
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        m = draw(st.sampled_from(MONOMIALS))
        p = p + ring.parse(m) * draw(st.integers(min_value=-3, max_value=3))
    return p


@st.composite
def module_input(draw):
    ring = PolynomialRing(draw(st.sampled_from([QQ, GF(7)])), ("x", "y"))
    rank = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=3))
    vectors = [FreeModuleElement(ring, [draw(small_poly(ring)) for _ in range(rank)])
               for _ in range(count)]
    return ring, rank, vectors


@settings(max_examples=40, deadline=None)
@given(module_input())
def test_module_basis_passes_the_module_criterion(data):
    ring, rank, vectors = data
    basis = module_basis(vectors, rank, ring)
    assert_good_module_basis(vectors, basis, position_order(rank, ring.order))


@settings(max_examples=40, deadline=None)
@given(module_input(), st.data())
def test_raw_coefficient_module_basis_passes_the_module_criterion(data, draw):
    ring, rank, targets = data
    ambient = draw.draw(st.lists(
        st.builds(lambda cs: FreeModuleElement(ring, cs),
                  st.lists(small_poly(ring), min_size=rank, max_size=rank)),
        max_size=2))
    coeff_names = draw.draw(st.sampled_from([None, ("y",)]))
    m = len(targets)
    captured = []
    original = groebner.buchberger

    def capture(vecs, key, field):
        captured.append(original(vecs, key, field))
        return captured[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "buchberger", capture)
        coefficient_module(targets, ambient, rank, ring, coeff_names=coeff_names)
    witness = ring.order if coeff_names is None else elimination_order([0], ring.nvars)
    key = position_order(rank, ring.order, witness)
    zero = (ring.zero,) * m
    gens = [FreeModuleElement(ring, u.coords + zero) for u in ambient]
    gens += [FreeModuleElement(ring, t.coords + zero[:i] + (ring.one,) + zero[i + 1:])
             for i, t in enumerate(targets)]
    (raw,) = captured
    basis = [FreeModuleElement(ring, vec_to_polys(b, rank + m, ring)) for b in raw]
    assert_good_module_basis(gens, basis, key)
