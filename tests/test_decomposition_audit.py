"""The decomposition audits: containment, incomparability and covering.

assert_decomposition runs the full audit, whose covering is proved by
intersecting and the Rabinowitsch test; every answer is compared with the
elimination reference in oracles.py.  minimal_primes is audited through its
split tree (_audit_tree); hand-built trees with one fault each must be
rejected, and its answers must pass the full audit and the reference."""

import re
import signal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chowcalc import groebner as groebner_module
from chowcalc import primes as primes_module
from chowcalc.errors import DecompositionError, EngineError
from chowcalc.fields import GF, QQ
from chowcalc.groebner import Ideal
from chowcalc.polyring import PolynomialRing
from chowcalc.primes import (assert_decomposition, minimal_primes,
                             vector_space_dimension)

from oracles import audit_accepts, radical_covers

R2 = PolynomialRing(QQ, ("x", "y"))
R3 = PolynomialRing(QQ, ("x", "y", "z"))


def accepts(I, ideals):
    try:
        assert_decomposition(I, ideals)
    except DecompositionError:
        return False
    return True


def test_empty_decomposition_of_a_proper_ideal_is_rejected():
    # the empty product is the unit ideal: it covers only the unit ideal
    with pytest.raises(DecompositionError, match="do not cover"):
        assert_decomposition(Ideal(R2, ("x", "y")), [])  # zero-dimensional
    with pytest.raises(DecompositionError, match="do not cover"):
        assert_decomposition(Ideal(R2, ("x",)), [])  # positive-dimensional
    assert assert_decomposition(Ideal(R2, ("x", "x - 1")), []) == ()


def _point_set(data):
    """A zero-dimensional ideal supported at a few points, and the maximal
    ideals of those points.  Each point z = (t_0, t_1, ...) enters as z or
    z^2, or curvilinear as (t_0^k, t_1, ...), whose nilpotent t_0 needs all
    k of its powers.  One point may have residue degree 2: x^2 + 2 is
    irreducible over QQ and over F_7."""
    field = data.draw(st.sampled_from([QQ, GF(7)]), label="field")
    nvars = data.draw(st.integers(2, 3), label="nvars")
    ring = PolynomialRing(field, ("x", "y", "z")[:nvars])
    coords = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * nvars),
                                min_size=1, max_size=3, unique=True), label="points")
    points = []
    for point in coords:
        points.append([ring.var(i) - ring.const(a) for i, a in enumerate(point)])
    if data.draw(st.booleans(), label="residue degree 2"):
        points[0][0] = ring.var(0) ** 2 + ring.const(2)
    comps = [Ideal(ring, gens) for gens in points]
    I = Ideal(ring, (ring.one,))
    for gens, m in zip(points, comps):
        k = data.draw(st.integers(1, 5), label="multiplicity")
        if data.draw(st.booleans(), label="curvilinear"):
            local = Ideal(ring, [gens[0] ** k] + gens[1:])
        else:
            local = m * m if k > 2 else m
        I = Ideal(ring, (I * local).groebner_basis())
    return I, comps


def _candidates(data, I, comps):
    """The true components, or a list changed in one of the ways the audit
    must notice (or must accept: a non-prime component with the right
    radical still covers)."""
    ring = I.ring
    unit = Ideal(ring, (ring.one,))
    kind = data.draw(st.sampled_from(["true", "drop", "swap", "unit"]), label="kind")
    i = data.draw(st.integers(0, len(comps) - 1), label="index")
    if kind == "true":
        return kind, comps
    if kind == "drop":
        return kind, comps[:i] + comps[i + 1:]
    if kind == "swap":
        j = data.draw(st.integers(0, len(comps) - 1), label="partner")
        other = data.draw(st.sampled_from(["square", "product", "itself"]), label="swap")
        J = {"square": I + comps[i] * comps[i],
             "product": I + comps[i] * comps[j],
             "itself": I}[other]
        return kind, comps[:i] + [J] + comps[i + 1:]
    if data.draw(st.booleans(), label="replace"):
        return kind, comps[:i] + [unit] + comps[i + 1:]
    return kind, comps + [unit]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normal_form_audit_agrees_with_the_elimination_reference(data):
    I, comps = _point_set(data)
    kind, ideals = _candidates(data, I, comps)
    dim = vector_space_dimension(I)
    assert dim is not None and dim > 0
    covered = radical_covers(I, ideals)
    assert accepts(I, ideals) == audit_accepts(I, ideals)
    if kind == "true":
        assert covered and accepts(I, ideals)
    if kind == "drop":
        assert not covered


def test_nilpotency_needs_every_power_up_to_the_dimension():
    # x is nilpotent of index 4 = dim_k R/I: (x, y) covers, (x - 1, y) does not
    I = Ideal(R2, ("x^4", "y"))
    assert len(assert_decomposition(I, [Ideal(R2, ("x", "y"))])) == 1
    assert not accepts(I, [Ideal(R2, ("x - 1", "y"))])


def test_small_quotient_in_a_large_box_is_certified():
    # dim_k R/I = 899, though the pure powers span a 450 x 450 box of
    # 202,500 monomials, more than the bound: the count walks the 450
    # columns over x and lists nothing
    I = Ideal(R2, ("x*y", "x^450", "y^450"))
    assert vector_space_dimension(I) == 899
    assert [p.key for p in minimal_primes(I)] == [("x", "y")]


def test_the_count_walks_past_covered_prefixes():
    # the caps of x and y span a 500 x 500 box of 250,000 columns, more
    # than the bound, but x*y covers every prefix (a, b) with a, b > 0: the
    # walk visits the 999 standard columns, not the box
    I = Ideal(R3, ("x*y", "x^500", "y^500", "z"))
    assert vector_space_dimension(I) == 999


def test_a_walk_over_more_columns_than_the_bound_raises():
    # 10^6 standard columns over x and y, each holding one exponent of z
    with pytest.raises(EngineError, match="standard monomial walk exceeds bound 200000"):
        vector_space_dimension(Ideal(R3, ("x^1000", "y^1000", "z")))


def _grid(xs=(-2, -1, 1, 3), ys=(-3, -2, 0, 1, 2, 4)):
    """The reduced points of the grid xs x ys, cut out by (f(x), g(y)), and
    their maximal ideals; by default a 4 x 6 grid, dim_k R/I = 24."""
    fx, fy = R2.one, R2.one
    for a in xs:
        fx = fx * (R2.var(0) - R2.const(a))
    for b in ys:
        fy = fy * (R2.var(1) - R2.const(b))
    I = Ideal(R2, (fx, fy))
    comps = [Ideal(R2, (R2.var(0) - R2.const(a), R2.var(1) - R2.const(b)))
             for a in xs for b in ys]
    return I, comps


def test_24_point_certificate_stays_within_the_dimension():
    I, comps = _grid()
    assert vector_space_dimension(I) == 24
    assert len(assert_decomposition(I, comps)) == 24
    for k in (0, 11, 23):
        with pytest.raises(DecompositionError, match="do not cover"):
            assert_decomposition(I, comps[:k] + comps[k + 1:])


def test_30_doubled_points_are_covered_within_ten_seconds():
    # (f(x)^2, g(y)^2) doubles each of the 30 points in both directions, so
    # dim_k R/I = 120; the squared normal forms of the deleted Artinian route
    # took over 15 s
    reduced, comps = _grid((-2, -1, 0, 1, 3), (-3, -2, 0, 1, 2, 4))
    fx, fy = reduced.gens
    I = Ideal(R2, (fx * fx, fy * fy))

    def hang(signum, frame):
        raise TimeoutError("the 30 doubled points ran past 10 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        assert len(assert_decomposition(I, comps)) == 30
        assert not accepts(I, comps[:7] + comps[8:])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_positive_dimensional_audit_keeps_the_rabinowitsch_route(monkeypatch):
    seen = []
    for name in ("intersect", "in_radical"):
        original = getattr(primes_module, name)

        def spy(*args, _name=name, _original=original):
            seen.append(_name)
            return _original(*args)

        monkeypatch.setattr(primes_module, name, spy)
    comps = [Ideal(R3, ("x",)), Ideal(R3, ("y", "z"))]
    # the intersection (x*y, x*z) is I itself: one normal form per generator
    I = Ideal(R3, ("x*y", "x*z"))
    assert len(assert_decomposition(I, comps)) == 2
    assert seen == ["intersect"]
    # here the intersection's generators lie outside I, so each needs a
    # Rabinowitsch basis
    seen.clear()
    I = Ideal(R3, ("x^2*y", "x^2*z"))
    assert len(assert_decomposition(I, comps)) == 2
    assert seen.count("intersect") == 1 and "in_radical" in seen
    with pytest.raises(DecompositionError, match="do not cover"):
        assert_decomposition(I, [Ideal(R3, ("x",))])


def test_comparable_trusted_components_of_equal_dimension_are_rejected():
    # both components are zero-dimensional, but assert_decomposition's ideals
    # are trusted, not certified prime, so the dimension rule does not apply
    with pytest.raises(DecompositionError, match="comparable components"):
        assert_decomposition(Ideal(R2, ("x", "y^2")),
                             [Ideal(R2, ("x", "y")), Ideal(R2, ("x", "y^2"))])


# ---------------------------------------------------------------------------
# the split-tree audit of minimal_primes

# Four points, one of residue degree 2: a factor split at the root, then an
# elimination step (y = x^2) below each branch.
POINTS = Ideal(R2, ("y - x^2", "(x - 1)*(x - 2)*(x - 3)*(x^2 + 1)"))


def _walk(I):
    """The tree minimal_primes walks for I: ideal key -> step, I's first."""
    tree, work = {}, [I]
    while work:
        J = work.pop()
        step = tree[J.key()] = primes_module._process(J)
        for B in step.branches if isinstance(step, primes_module.Split) else ():
            if not B.is_unit() and B.key() not in tree and B not in work:
                work.append(B)
    return tree


@pytest.mark.parametrize("gens", [
    ("x*y",), ("x*y", "x*z"), ("x^2", "x*y"), ("y - x^2", "x^4 - 1"),
    ("x*y*z - 1", "x^2 - 2"), ("y^2 - x^3", "x*y"),
])
def test_walked_tree_passes_the_tree_audit(gens):
    I = Ideal(R3, gens)
    assert primes_module._audit_tree(I, _walk(I)) == minimal_primes(I)


def test_points_tree_has_both_node_kinds():
    tree = _walk(POINTS)
    assert isinstance(tree[POINTS.key()], primes_module.Split)
    assert any(isinstance(step, primes_module.Elimination) for step in tree.values())
    assert len(primes_module._audit_tree(POINTS, tree)) == 4


def _rejects(tree, match, I=POINTS):
    with pytest.raises(DecompositionError, match=match):
        primes_module._audit_tree(I, tree)


def test_tree_with_a_dropped_factor_is_rejected():
    tree = _walk(POINTS)
    root = tree[POINTS.key()]
    tree[POINTS.key()] = root._replace(factors=root.factors[1:], branches=root.branches[1:])
    _rejects(tree, "multiply to")
    # the factor kept but its branch dropped
    tree[POINTS.key()] = root._replace(branches=root.branches[1:])
    _rejects(tree, "branches for")


def test_tree_with_a_witness_outside_the_ideal_is_rejected():
    tree = _walk(POINTS)
    root = tree[POINTS.key()]
    q, _ = root.factors[0]
    # x^2 + 1 with its own branch multiplies to the witness, but is not in J
    tree[POINTS.key()] = root._replace(witness=q, factors=root.factors[:1],
                                       branches=root.branches[:1])
    _rejects(tree, "witness")


def test_tree_with_a_wrong_branch_is_rejected():
    tree = _walk(POINTS)
    root = tree[POINTS.key()]
    wrong = Ideal(R2, ("x - 1", "y - 1"))
    tree[wrong.key()] = primes_module._process(wrong)
    tree[POINTS.key()] = root._replace(branches=(wrong,) + root.branches[1:])
    _rejects(tree, "is not")


def test_tree_with_factors_that_do_not_multiply_to_the_witness_is_rejected():
    tree = _walk(POINTS)
    root = tree[POINTS.key()]
    (q, e), rest = root.factors[0], root.factors[1:]
    tree[POINTS.key()] = root._replace(factors=((q, e + 1),) + rest)
    _rejects(tree, "multiply to")


def test_tree_with_a_wrong_elimination_is_rejected():
    tree = _walk(POINTS)
    key = next(k for k, step in tree.items() if isinstance(step, primes_module.Elimination))
    step = tree[key]
    # the eliminated ideal alone, without the relation y - x^2
    small = Ideal(R2, step.extended.gens[:-1])
    tree[key] = step._replace(extended=small)
    _rejects(tree, "extended by")
    # a component of the smaller ring that is not carried over
    tree[key] = step._replace(primes=step.primes[1:])
    _rejects(tree, "not carried")


def test_elimination_whose_relation_is_not_linear_in_u_is_rejected():
    # with f = 1 the relation must be c*y + b or 0: y^2 - 2 would carry the
    # prime (x^2 - 2) of QQ[x] to (x^2 - 2, y^2 - 2), which is not prime
    I = Ideal(R2, ("x^2 - 2", "y^2 - 2"))
    small = groebner_module.eliminate(I, ("y",))
    below = minimal_primes(small)
    rel = R2.parse("y^2 - 2")
    primes = primes_module.localized_primes(below, small.ring.one, rel)
    step = primes_module.Elimination(I, I, small, below, 1, R2.one, rel, primes)
    _rejects({I.key(): step}, "does not eliminate y", I)


def test_tree_with_a_cycle_or_a_missing_node_is_rejected():
    I = Ideal(R2, ("x*y",))
    tree = _walk(I)
    split = tree[I.key()]
    g = split.witness
    # a "factor" g of g gives the branch I itself
    tree[I.key()] = split._replace(factors=((g, 1),), branches=(I + Ideal(R2, (g,)),))
    _rejects(tree, "larger node", I)
    tree = {I.key(): split}
    _rejects(tree, "larger node", I)
    _rejects({}, "no node", I)


def test_zero_dimensional_components_are_never_compared(monkeypatch):
    seen = []
    original = groebner_module.Ideal.contains_ideal

    def spy(self, other):
        seen.append((self.key(), other.key()))
        return original(self, other)

    def refuse(*args, **kwargs):
        raise AssertionError("the tree audit recomputed the covering")

    monkeypatch.setattr(groebner_module.Ideal, "contains_ideal", spy)
    for name in ("intersect", "in_radical", "span_times"):
        monkeypatch.setattr(primes_module, name, refuse)
    primes = minimal_primes(POINTS)
    assert [p.dim() for p in primes] == [0, 0, 0, 0]
    keys = {p.key for p in primes}
    assert not [pair for pair in seen if set(pair) <= keys]


def _random_ideal(data):
    field = data.draw(st.sampled_from([QQ, GF(7)]), label="field")
    nvars = data.draw(st.integers(2, 3), label="nvars")
    ring = PolynomialRing(field, ("x", "y", "z")[:nvars])
    coeff = st.integers(-3, 3) if field is QQ else st.integers(0, 6)
    # squares in three variables can keep the walk busy for over 30 s
    exps = st.tuples(*[st.integers(0, 2 if nvars == 2 else 1)] * nvars)

    def poly():
        return ring.from_dict(data.draw(st.dictionaries(exps, coeff, min_size=1, max_size=3)))

    gens = []
    for _ in range(data.draw(st.integers(1, 2), label="generators")):
        g = poly()
        if data.draw(st.booleans(), label="product"):
            g = g * poly()
        gens.append(g)
    return Ideal(ring, gens)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_minimal_primes_pass_the_full_audit_and_the_reference(data):
    I = _random_ideal(data)
    try:
        primes = minimal_primes(I)
    except DecompositionError as err:
        # only the walk raises on these inputs, as it did before the tree audit
        assert "outside the certification fragment" in str(err) or "cannot certify" in str(err)
        return
    ideals = [p.ideal for p in primes]
    assert audit_accepts(I, ideals)
    assert [p.key for p in assert_decomposition(I, ideals)] == [p.key for p in primes]
    assert primes_module._covers_by_rabinowitsch(I, ideals)


def _decomposition_outcome(I):
    """The keys of I's minimal primes, or the type and message raised."""
    try:
        return [p.key for p in minimal_primes(I)]
    except EngineError as err:
        return type(err), str(err)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_minimal_primes_ignore_the_order_and_units_of_factors(data):
    # factor answers up to units and in no fixed order: reversing every
    # answer and scaling each factor by a nonzero constant changes nothing
    I = _random_ideal(data)
    field = I.ring.field
    scales = data.draw(st.lists(st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3, 5]),
                                          st.sampled_from([1, 2, 3, 4])),
                                min_size=1, max_size=4), label="scales")
    real = primes_module.factor

    def scrambled(f):
        return [(q * field.fraction(*scales[k % len(scales)]), e)
                for k, (q, e) in enumerate(reversed(real(f)))]

    want = _decomposition_outcome(I)
    with mock.patch.object(primes_module, "factor", scrambled):
        assert _decomposition_outcome(I) == want


@pytest.mark.parametrize("field, names, gens, message", [
    (QQ, "xyz", ("2*x*y^3*z^2 - 2*y^2*z^2 + 6*y*z^2",
                 "3*x^3*y^2*z^4 - 2*x^3*y^2*z^2 + 3*x^2*y*z^4 - 2*x^2*y*z^2"),
     "ideal shape outside the certification fragment: (x*y^2 - y + 3, z^2 - 2/3)"),
    # x^J times a cubic that no shape of the finite-field fragment covers
    (GF(7), "xy", ("6*x^3*y^2 + 2*y^5 + y^2",),
     "ideal shape outside the certification fragment: (x^3*y^2 + 5*y^5 + 6*y^2)"),
    (GF(7), "xyz", ("6*x^3*y^2*z^6 + 4*x^5*y^3*z^3 + x^3*y^2*z^3",),
     "ideal shape outside the certification fragment: "
     "(x^5*y^3*z^3 + 5*x^3*y^2*z^6 + 2*x^3*y^2*z^3)"),
])
def test_inputs_outside_the_fragment_still_raise(field, names, gens, message):
    ring = PolynomialRing(field, tuple(names))
    with pytest.raises(DecompositionError, match=f"^{re.escape(message)}$"):
        minimal_primes(Ideal(ring, gens))


@pytest.mark.parametrize("names, gens, expected", [
    # x^3*y + 2*x^2*y = x^2*y*(x + 2) is degree one in y over k[x]
    ("xy", ("5*x^2*y^2 + 3*x*y^2", "6*x^2*y^3 + 4*x^2*y"),
     [("x",), ("y",), ("x + 2", "y + 2"), ("x + 2", "y + 5")]),
    # x*z^4 + 6*z^4 = z^4*(x + 6) is degree one in x over k[z]
    ("xyz", ("x*y*z + y", "5*x^3*y*z^3", "2*x^2*y^2*z^4 + 4*x*z^4 + 3*z^4"),
     [("x + 6", "y"), ("y", "z")]),
    # y^2*(6*x^3 + 2*y) once its monomial content is divided out
    ("xy", ("6*x^3*y^2 + 2*y^3",), [("x^3 + 5*y",), ("y",)]),
    # x^3*y^2*z^3*(6*z + 4)
    ("xyz", ("6*x^3*y^2*z^4 + 4*x^3*y^2*z^3",), [("x",), ("y",), ("z",), ("z + 3",)]),
])
def test_inputs_that_left_the_fragment_pass_the_full_audit(names, gens, expected):
    # over F_7 these raised while a*x + b, and then while a monomial
    # content, went unfactored
    I = Ideal(PolynomialRing(GF(7), tuple(names)), gens)
    primes = minimal_primes(I)
    assert [p.key for p in primes] == expected
    assert [p.key for p in assert_decomposition(I, [p.ideal for p in primes])] == expected
    assert audit_accepts(I, [p.ideal for p in primes])
