"""Chart maps, product charts, graphs, finiteness, pullback, pushforward.

A ChartMap is a morphism of charts source -> target, stored through its
algebra map: each target variable gets a polynomial image over the source
(checked to send the target relations to zero).  All geometric operations
run through the graph: the source variables plus one fresh variable for
each target coordinate whose image is not a source variable, with the graph
ideal

    (source relations) + (fresh target variable - its image).

A coordinate whose image is a source variable is named by that variable
(see _build_graph), so a coordinate projection's graph is its source.
The target block is the fresh variables and the reused source variables;
the source block is the rest.  One basis eliminating the source block
serves a component: its elements free of the source block give the closure
of the image, its pure powers of source-block variables certify finiteness,
and its leads with coefficients outside the image count the pushforward
degree (_push_component); coefficient modules over the target block present
pushforward modules.
"""

from .errors import EngineError, RingMismatchError
from .geometry import Chart, Cycle, cycle_of_subscheme
from .groebner import Ideal, eliminate
from .homology import (FPModule, FreeModuleElement, coefficient_module,
                       unit_multiples)
from .polyring import PolynomialRing, elimination_order, fresh_names, transport
from .primes import PrimeIdeal, pure_power_caps, residue_degree, standard_exponents


class ChartMap:
    """A morphism of charts, dual to images of the target coordinates."""

    def __init__(self, source, target, images, flat=None, finite=None, proper=None):
        if source.ring.field != target.ring.field:
            raise RingMismatchError("chart map across base fields")
        self.source = source
        self.target = target
        imgs = {}
        for nm in target.ring.names:
            if nm not in images:
                raise EngineError(f"no image for target variable {nm!r}")
            v = images[nm]
            imgs[nm] = source.ring.parse(v) if isinstance(v, str) else v
        self.images = imgs
        for g in target.ideal.gens:
            if not source.ideal.contains(self.pullback(g)):
                raise EngineError(
                    f"map does not respect target relations: {g} pulls back "
                    f"to {source.ideal.normal_form(self.pullback(g))}")
        self.flat = flat
        self.finite = finite
        self.proper = proper
        self._graph = None
        self._finite_checked = None

    def pullback(self, f):
        """The image of a target function in the source algebra."""
        if isinstance(f, str):
            f = self.target.ring.parse(f)
        image_list = [self.images[nm] for nm in self.target.ring.names]
        return f.substitute(image_list, self.source.ring)

    def then(self, other):
        """The composite source -> target -> other.target."""
        if other.source != self.target:
            raise EngineError("composition mismatch: target != next source")
        images = {nm: self.pullback(other.images[nm])
                  for nm in other.target.ring.names}
        flat = True if (self.flat and other.flat) else None
        finite = True if (self.finite and other.finite) else None
        proper = True if (self.proper and other.proper) else None
        return ChartMap(self.source, other.target, images,
                        flat=flat, finite=finite, proper=proper)

    def graph(self):
        """(graph ring, graph ideal, source-block names, target rename map):
        the pushforward's presentation, in which a target coordinate whose
        image is a source variable is that variable (see _build_graph)."""
        if self._graph is None:
            self._graph = _build_graph(self)
        return self._graph

    def is_finite(self):
        """Pure powers of every source-block variable among the monic leads
        of the graph ideal (_monic_leads), or the lead 1, certify
        module-finiteness over the target; nothing is enumerated."""
        if self._finite_checked is None:
            idx, _, lead = _monic_leads(self, self.graph()[1])
            self._finite_checked = pure_power_caps(lead, len(idx)) is not None
            if self._finite_checked:
                self.finite = True
        return self._finite_checked

    def __repr__(self):
        pairs = ", ".join(f"{nm} -> {self.images[nm]}"
                          for nm in self.target.ring.names)
        return f"<map {self.source.name} -> {self.target.name}: {pairs}>"


def product_ring(*rings):
    """The ring on the variables of all `rings` renamed apart in factor
    order, and one {old name: new name} dict per factor."""
    field = rings[0].field
    if any(R.field != field for R in rings):
        raise EngineError("product of charts over different fields")
    taken = set()
    names = [fresh_names(R.names, taken, "_r") for R in rings]
    renames = [dict(zip(R.names, nm)) for R, nm in zip(rings, names)]
    return PolynomialRing(field, sum(names, ())), renames


class ProductChart:
    """X1 x ... x Xn: the chart on the factors' variables renamed apart
    (`renames[i]` sends the names of factor i to their names here), with
    the flat projections to single factors and to products of some."""

    def __init__(self, *factors):
        ring, self.renames = product_ring(*(X.ring for X in factors))
        self.factors = factors
        gens = [transport(g, ring, ren)
                for X, ren in zip(factors, self.renames) for g in X.ideal.gens]
        self.chart = Chart("x".join(X.name for X in factors), ring,
                           Ideal(ring, gens))

    def projection(self, i):
        """The flat map to factor i."""
        return ChartMap(self.chart, self.factors[i], self.renames[i], flat=True)

    def onto(self, other, picks):
        """The flat map to `other`, the product of the factors at `picks`."""
        if other.factors != tuple(self.factors[i] for i in picks):
            raise EngineError(f"{other.chart.name} is not a product of "
                              f"factors of {self.chart.name}")
        images = {ren[nm]: self.renames[i][nm]
                  for i, ren in zip(picks, other.renames) for nm in ren}
        return ChartMap(self.chart, other.chart, images, flat=True)

    def __eq__(self, other):
        return isinstance(other, ProductChart) and other.factors == self.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"<product {self.chart.name}>"


def identity_map(chart):
    return ChartMap(chart, chart, {nm: nm for nm in chart.ring.names},
                    flat=True, finite=True, proper=True)


def _build_graph(m):
    """m.graph(): (P, G, source-block names, rename) for m with source
    relations I and images phi.

    A target coordinate y_j whose image is a source variable x_k, each x_k
    taken by the first such y_j, is named x_k in P (rename[y_j] = x_k) and
    gets no relation; every other y_j gets a fresh name and the relation
    y_j - phi(y_j).  So P = k[x, y_rest], G = I + (y_rest - phi(y_rest)),
    the target block is x_picked and y_rest, and the source block, the
    variables to eliminate, is the unpicked x.

    This is the full graph ring k[x, y], G_full = I + (y - phi(y)), up to
    isomorphism.  sigma: k[x, y] -> P, y_j -> x_k for the picked pairs, is
    onto with kernel (y_j - x_k), which lies in G_full + J for every source
    ideal J, and sigma(G_full + J) = G + J.  So sigma induces
    k[x, y]/(G_full + J) = P/(G + J), and it maps k[y] isomorphically onto
    the target block k[x_picked, y_rest].  The image (the contraction to
    the target block), module-finiteness over it, residue degrees over its
    variables and coefficient modules over it are therefore the same on
    either presentation.  In the full one each picked x_k has the pure
    power x_k, the lead of x_k - y_j under the block order, so the source
    standard monomials are the same too."""
    S = m.source.ring
    unpicked = {S.var(nm).terms: nm for nm in S.names}
    rename, rest = {}, []
    for nm in m.target.ring.names:
        x = unpicked.pop(m.images[nm].terms, None)
        if x is None:
            rest.append(nm)
        else:
            rename[nm] = x
    rename.update(zip(rest, fresh_names(rest, set(S.names), "_r")))
    P = PolynomialRing(S.field, S.names + tuple(rename[nm] for nm in rest))
    gens = [transport(g, P) for g in m.source.ideal.gens]
    gens += [P.var(rename[nm]) - transport(m.images[nm], P) for nm in rest]
    return P, Ideal(P, gens), tuple(unpicked.values()), rename


_PUSHFORWARD_BOUND = 100000  # largest number of source standard monomials listed


def _monic_leads(m, total):
    """The source-block positions in the graph ring, the block order
    eliminating them, and the leads of total's basis under it that are free
    of the target block (of elements with a constant leading coefficient
    over it), as exponents over those positions."""
    P, _, src_names, _ = m.graph()
    idx = [P.index_of(nm) for nm in src_names]
    order = elimination_order(idx, P.nvars)
    lead = [tuple(e[i] for i in idx) for e in total.leading_exponents(order)
            if not any(k for i, k in enumerate(e) if i not in idx)]
    return idx, order, lead


def _not_finite(m):
    return EngineError(f"map {m.source.name} -> {m.target.name} is not finite here; "
                       "pushforward needs module-finiteness")


def _graph_ideal(m, ideal):
    """The graph ideal plus `ideal` (source polynomials, or None for none)
    carried into the product ring."""
    P, G, _, _ = m.graph()
    if ideal is None:
        return G
    if not isinstance(ideal, Ideal):
        ideal = Ideal(m.source.ring, ideal)
    return G + Ideal(P, [transport(g, P) for g in ideal.gens])


def _image(m, total):
    """The target ideal total meets: the part of total's source-eliminating
    basis free of source-block variables, carried back to the target
    ring."""
    _, _, src_names, rename = m.graph()
    small = eliminate(total, src_names)
    back = {rename[nm]: nm for nm in m.target.ring.names}
    return Ideal(m.target.ring, [transport(g, m.target.ring, back) for g in small.gens])


def _push_component(m, total):
    """(q, [k(p):k(q)]) for a prime p of the source and total = G + p, q
    the image of p; None for the degree when p is not finite over q.  Read
    off B, total's source-eliminating basis, and q's ring-order basis.

    Write P = k[y][x], x the source block, and lc(h) in k[y] for the
    coefficient of h's leading x-monomial.  Under the block order the lc(h)
    of the h in total led by x^a form an ideal of k[y] (with 0), generated
    by the lc(g) of the g in B whose lead divides x^a.  Keep the g with
    lc(g) outside q.  An f in total k(q)[x], times a denominator, lifts to
    an h in total; dropping h's terms with coefficients in q, which lies in
    total, leaves lc(h) outside q, so some kept g has a lead dividing f's.
    So the kept g specialize to a Gröbner basis of total k(q)[x]
    (Kalkbrener, J. Symb. Comp. 24, 1997; Gianni, EUROCAL '87), whose
    standard monomials count [k(p):k(q)]: P/total = A/p is a domain finite
    over k[y]/q, so (P/total) tensor k(q) is its fraction field.  An
    element of B led by a monomial free of x lies in total meet k[y] = q."""
    P, _, _, rename = m.graph()
    ring = m.target.ring
    # the image of an irreducible stays irreducible
    q = PrimeIdeal(_image(m, total) + m.target.ideal)
    idx, order, lead = _monic_leads(m, total)
    if pure_power_caps(lead, len(idx)) is None:
        return q, None
    back = {rename[nm]: nm for nm in ring.names}
    kept = []
    for g, e in zip(total.groebner_basis(order), total.leading_exponents(order)):
        a = [e[i] for i in idx]
        lc = P.from_dict({tuple(0 if i in idx else k for i, k in enumerate(f)): c
                          for f, c in g.terms if [f[i] for i in idx] == a})
        if lc.is_constant() or (any(a) and not q.contains(transport(lc, ring, back))):
            kept.append(e)
    return q, residue_degree(kept, idx)


def zariski_image(m, ideal=None):
    """Closure of the image of V(ideal) (default: the whole source chart),
    as an ideal over the target ring."""
    return _image(m, _graph_ideal(m, ideal))


def pushforward_module(m, M=None, extra=None):
    """The source module M (default: the structure algebra) viewed over the
    target chart's algebra, presented on the standard monomial generators.

    Requires the map restricted to V(extra) to be finite.  Raises
    RingMismatchError when M is not over the source chart's algebra."""
    P, _, _, rename = m.graph()
    if M is None:
        M = FPModule.free(m.source.ring, 1, m.source.ideal)
    if M.modulo != m.source.ideal:
        raise RingMismatchError("module not over the source chart")
    total = _graph_ideal(m, extra)
    idx, _, lead = _monic_leads(m, total)
    std = standard_exponents(lead, len(idx), _PUSHFORWARD_BOUND)
    if std is None:
        raise _not_finite(m)
    monos = []
    for exps in std:
        full = [0] * P.nvars
        for i, k in zip(idx, exps):
            full[i] = k
        monos.append(P.monomial(full))
    monos.sort(key=lambda mono: P.order.key(mono.lm()))
    rank = M.rank
    gens = unit_multiples(monos, P, rank)
    rels = [FreeModuleElement(P, [transport(c, P) for c in v.coords])
            for v in M.relations]
    ynames = tuple(rename[nm] for nm in m.target.ring.names)
    coeffs = coefficient_module(gens, rels, rank, P, modulo=total,
                                coeff_names=ynames)
    back = {rename[nm]: nm for nm in m.target.ring.names}
    out_rels = [FreeModuleElement(m.target.ring,
                                  [transport(c, m.target.ring, back)
                                   for c in w.coords])
                for w in coeffs]
    return FPModule(m.target.ring, len(gens), out_rels, m.target.ideal)


def pullback_module(m, M):
    """M tensored up along the map to the source chart's algebra: same
    presentation, entries pulled back.  Raises RingMismatchError when M is
    not over the target chart's algebra."""
    if M.modulo != m.target.ideal:
        raise RingMismatchError("module not over the target chart")
    rels = [FreeModuleElement(m.source.ring, [m.pullback(c) for c in v.coords])
            for v in M.relations]
    return FPModule(m.source.ring, M.rank, rels, m.source.ideal)


def degree(m):
    """Generic degree: [k(source):k(image)] for an integral source finite
    over the target (_push_component with p the source ideal)."""
    if not m.source.is_integral():
        raise EngineError("degree needs an integral source chart")
    _, deg = _push_component(m, m.graph()[1])
    if deg is None:
        raise _not_finite(m)
    return deg


def flat_pullback(m, cycle):
    """Preimage cycle of a cycle on the target, for a flat map: each prime
    pulls back to the fundamental cycle of its preimage subscheme."""
    if m.flat is not True:
        raise EngineError("flat_pullback: the map is not marked flat")
    if cycle.chart != m.target:
        raise EngineError("cycle does not live on the target chart")
    out = Cycle.zero(m.source, cycle.grade)
    for p, mult in cycle.coeffs.items():
        preimage = Ideal(m.source.ring, [m.pullback(g) for g in p.ideal.gens])
        out = out + mult * cycle_of_subscheme(preimage, m.source, grade=cycle.grade)
    return out


def proper_pushforward(m, cycle):
    """Image cycle with field-extension degrees as multiplicities; verified
    finite onto its image component-by-component, with honest dimension
    drops allowed only for maps marked proper.

    A component p counts [k(p):k(q)] times its image q (Fulton,
    Intersection Theory, section 1.4).  _push_component reads q, finiteness
    and the degree off one basis of the graph ideal plus p: the degree is
    the count of standard monomials of its specialization to k(q)."""
    if cycle.chart != m.source:
        raise EngineError("cycle does not live on the source chart")
    grade_out = m.target.dim() - (m.source.dim() - cycle.grade)
    out = Cycle.zero(m.target, grade_out)
    for p, mult in cycle.coeffs.items():
        q, deg = _push_component(m, _graph_ideal(m, p.ideal))
        if q.dim() < p.dim():
            if m.proper is not True:
                raise EngineError(
                    f"component {p} drops dimension; pushforward is only "
                    "defined for proper maps (mark the map proper)")
            continue
        if deg is None:
            raise EngineError(
                f"component {p} is not finite over its image; outside the "
                "supported fragment")
        out = out + Cycle(m.target, grade_out, {q: mult * deg})
    return out


def fiber_product(f, g):
    """X x_Z Y for maps f: X -> Z, g: Y -> Z: the chart on the joined
    variables with both relation sets and the identification of the two
    pullbacks of every base coordinate; returns (chart, to X, to Y).

    Flatness and finiteness of g transfer to the projection to X."""
    if f.target != g.target:
        raise EngineError("fiber product needs a common base chart")
    prod = ProductChart(f.source, g.source)
    P = prod.chart.ring
    ren_x, ren_y = prod.renames
    gens = list(prod.chart.ideal.gens)
    for nm in f.target.ring.names:
        gens.append(transport(f.images[nm], P, ren_x)
                    - transport(g.images[nm], P, ren_y))
    W = Chart(prod.chart.name, P, Ideal(P, gens))
    to_x = ChartMap(W, f.source, ren_x,
                    flat=g.flat, finite=g.finite, proper=g.proper)
    to_y = ChartMap(W, g.source, ren_y,
                    flat=f.flat, finite=f.finite, proper=f.proper)
    return W, to_x, to_y
