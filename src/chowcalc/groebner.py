"""Buchberger engine and ideal arithmetic.

One engine serves ideals and submodules of free modules: a module monomial is
a (position, exponents) pair and an ideal is the rank-one case.  Pairs come
off a heap ordered by sugar, then lcm degree, then lcm under the order, then
index; each pair is keyed once, when it is pushed.  The sugar of a vector is
the largest total degree among its terms, and a pair's sugar is the larger
of its two vectors' sugars, each raised by the degree of the monomial that
lifts it to the lcm (Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar
cube, please", ISSAC 1991).  Under the block orders of the witness trick the
lcm degree sees only the leading term; ordering by it alone let the
intersection of two small ideals over QQ swell its intermediate coefficients
to tens of thousands of bits (tests/test_colon.py keeps that pair).

Buchberger's chain criterion skips pairs on every run: it holds for pairs at
one position of a free module.  The coprime (product) criterion skips pairs
only when every input term sits at one position, so the run is an ideal's;
for vectors spread over positions it is unsound.  Skipped pairs change the route, never the answer: the reduced
basis is unique, so syzygies read off it do not depend on which pairs ran.

Reduced bases (monic, fully auto-reduced, sorted by descending leading
monomial) are canonical, cached per ideal per order, and every computation
here is deterministic.

The engine computes in its field's working domain (fields.py): over QQ on
integer vectors.  An input vector is scaled to coprime integers once
(`working`); an S-vector and a reduction step cancel a head c*m against
a head lc by the multipliers (lc/g, c/g), g = gcd(c, lc) (`field.cancel`);
each new basis vector has its content divided out; and the reduced basis
is made monic, through `field.fraction`, only in `_reduce_basis`.  These
steps multiply vectors by nonzero constants, which keeps every span and
every leading term, so the pairs, their order and the reduced basis are
those of rational arithmetic; only the coefficient operations are on ints.
Over F_p the working domain is the field and nothing is rescaled.

The witness trick lives here too (`witness_syzygies`); `intersect`,
`quotient` and `homology.annihilator` are colon computations on it.  So
does `span_times`, linear algebra over k inside a quotient of finite
dimension, which serves only the closed-point lengths of `primes`.  Of the
ideal operations, only `in_radical` (Rabinowitsch) and
`primes.minimal_polynomial` adjoin a variable.
"""

import contextvars
import heapq
from contextlib import contextmanager

from .errors import (ConsistencyError, DegreeOverflowError, InexactDivisionError,
                     RingMismatchError)
from .polyring import (PolynomialRing, elimination_order, fresh_names, grevlex,
                       lex, merge_terms, mono_degree, mono_div, mono_divides,
                       mono_lcm, mono_mul, transport)

_degree_limit_var = contextvars.ContextVar("chowcalc_degree_limit", default=None)


@contextmanager
def degree_limit(bound):
    """Abort any basis computation that produces a leading monomial of total
    degree above `bound` (the CLI safety valve)."""
    token = _degree_limit_var.set(bound)
    try:
        yield
    finally:
        _degree_limit_var.reset(token)


# ---------------------------------------------------------------------------
# module orders: block of positions decides first, then the block's ring
# order on the monomial, then (reversed) position.

class ModuleOrder:
    def __init__(self, ring_orders, block_of):
        self.ring_orders = tuple(ring_orders)
        self.block_of = tuple(block_of)

    def key(self, m):
        pos, exps = m
        b = self.block_of[pos]
        return (-b, self.ring_orders[b].key(exps), -pos)


def module_order(ring_order, rank):
    """Term-over-position order on A^rank."""
    return ModuleOrder((ring_order,), (0,) * rank)


def split_module_order(main_rank, witness_rank, main_order, witness_order):
    """Main positions dominate witness positions: a basis element whose
    leading term sits in the witness block lives entirely in it."""
    return ModuleOrder((main_order, witness_order),
                       (0,) * main_rank + (1,) * witness_rank)


# ---------------------------------------------------------------------------
# vector terms: tuple of ((pos, exps), coeff) sorted descending by key

def vec_from_polys(polys, key):
    terms = []
    for i, p in enumerate(polys):
        for e, c in p.terms:
            terms.append(((i, e), c))
    terms.sort(key=lambda t: key(t[0]), reverse=True)
    return tuple(terms)


def vec_to_polys(v, rank, ring):
    buckets = [{} for _ in range(rank)]
    for (i, e), c in v:
        buckets[i][e] = c
    return tuple(ring.from_dict(b) for b in buckets)


def vec_mul_term(v, exps, coeff, field):
    return tuple(((pos, mono_mul(e, exps)), field.mul(c, coeff)) for (pos, e), c in v)


def vec_scale(v, a, field):
    return v if a == 1 else tuple((m, field.mul(c, a)) for m, c in v)


def working(v, field):
    """v brought into the working domain (fields.py): coprime integers
    with a positive head over QQ, v itself over F_p."""
    return field.primitive(field.integral(v)[1])


def vec_reduce(v, prepared, key, field):
    """Full normal form of a working vector v against prepared =
    [(lm, lc, terms), ...], up to a factor: (s, r) with r = s * (normal
    form of v), s a nonzero working scalar (1 over F_p).  Each step
    cancels the head of the remaining work by `field.cancel`, and scales
    the part of r already emitted by the same factor as the work."""
    out = []
    scale = 1
    work = v
    while work:
        (pos, e), c = work[0]
        for lm, lc, terms in prepared:
            if lm[0] == pos and mono_divides(lm[1], e):
                break
        else:
            out.append(work[0])
            work = work[1:]
            continue
        a, b = field.cancel(c, lc)
        if a != 1:
            work = vec_scale(work, a, field)
            out = list(vec_scale(out, a, field))
            scale = field.mul(scale, a)
        work = merge_terms(work, vec_mul_term(terms, mono_div(e, lm[1]), b, field),
                           key, field, subtract=True)
    return scale, tuple(out)


def _prepare(basis):
    return [(v[0][0], v[0][1], v) for v in basis]


def span_times(span, gens, basis, key, field):
    """An echelon set, one vector per leading term, spanning the normal
    forms against the reduced `basis` of g*v, for v in `span` and
    polynomials g in `gens`.  Vectors are term tuples sorted by `key`, and
    `span` and the rows returned are working vectors (fields.py); a row is
    a basis vector up to a factor, which does not change the count of
    rows.  The normal forms live in the span of the standard terms of
    `basis`, so there are at most as many rows as standard terms."""
    prepared = _prepare([working(v, field) for v in basis])
    gens = [working(g.terms, field) for g in gens]
    rows = {}
    for v in span:
        for g in gens:
            prod = ()
            for e, c in g:
                prod = merge_terms(prod, vec_mul_term(v, e, c, field), key, field)
            r = field.primitive(vec_reduce(prod, prepared, key, field)[1])
            while r and r[0][0] in rows:
                row = rows[r[0][0]]
                a, b = field.cancel(r[0][1], row[0][1])
                r = field.primitive(merge_terms(vec_scale(r, a, field), vec_scale(row, b, field),
                                                key, field, subtract=True))
            if r:
                rows[r[0][0]] = r
    return list(rows.values())


def _spair(f, g, key, field):
    (_, ef), cf = f[0]
    (_, eg), cg = g[0]
    l = mono_lcm(ef, eg)
    a, b = field.cancel(cf, cg)
    return merge_terms(vec_mul_term(f, mono_div(l, ef), a, field),
                       vec_mul_term(g, mono_div(l, eg), b, field), key, field, subtract=True)


def _top_degree(v):
    return max(mono_degree(e) for (_, e), _ in v)


def buchberger(vecs, key, field):
    """Reduced basis of the submodule generated by `vecs`.

    A pair (i, j) is skipped by the chain criterion when some other k at the
    same position has a leading monomial dividing their lcm and neither
    (i, k) nor (j, k) is still queued.  It is skipped by the coprime
    criterion when the leading monomials are coprime and every input term
    sits at one position.  The coprime rule rests on S(f, g) being a
    combination tail(g)*f - tail(f)*g, which needs f and g to be ring
    elements; for vectors, (x, 1) and (y, 0) have coprime heads x*e_0 and
    y*e_0, but their S-vector (0, y) does not reduce to zero against them."""
    limit = _degree_limit_var.get()
    basis = [working(v, field) for v in vecs if v]
    basis.sort(key=lambda v: key(v[0][0]))
    prepared = _prepare(basis)
    coprime_ok = len({pos for v in basis for (pos, _), _ in v}) <= 1

    # pending mirrors the heap for the chain criterion's membership test
    pending = set()
    heap = []
    sugar = [_top_degree(v) for v in basis]

    def push(i, j):
        (pi, ei), _ = basis[i][0]
        (pj, ej), _ = basis[j][0]
        if pi == pj:
            l = mono_lcm(ei, ej)
            d = mono_degree(l)
            s = max(sugar[i] + d - mono_degree(ei), sugar[j] + d - mono_degree(ej))
            pending.add((i, j))
            heapq.heappush(heap, (s, d, key((pi, l)), (i, j), l))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)

    while heap:
        s, _, _, (i, j), l = heapq.heappop(heap)
        pending.remove((i, j))
        (pos, ei), _ = basis[i][0]
        if coprime_ok and l == mono_mul(ei, basis[j][0][0][1]):
            continue
        if any(k != i and k != j and pk == pos and mono_divides(ek, l)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, ((pk, ek), _, _) in enumerate(prepared)):
            continue
        r = field.primitive(vec_reduce(_spair(basis[i], basis[j], key, field),
                                       prepared, key, field)[1])
        if not r:
            continue
        if limit is not None and mono_degree(r[0][0][1]) > limit:
            raise DegreeOverflowError(
                f"basis element of degree {mono_degree(r[0][0][1])} exceeds --max-degree {limit}")
        t = len(basis)
        basis.append(r)
        sugar.append(max(s, _top_degree(r)))
        prepared.append((r[0][0], r[0][1], r))
        for i in range(t):
            push(i, t)

    return _reduce_basis(basis, key, field)


def _reduce_basis(basis, key, field):
    # minimal: drop anything whose leading monomial another leading monomial divides
    basis = sorted(basis, key=lambda v: key(v[0][0]))
    kept = []
    for v in basis:
        (pos, e), _ = v[0]
        if not any(u[0][0][0] == pos and mono_divides(u[0][0][1], e) for u in kept):
            kept.append(v)
    # one full-reduction pass: leading monomials are untouched, tails become
    # irreducible against the fixed leading set
    reduced = []
    for idx, v in enumerate(kept):
        others = _prepare([u for t, u in enumerate(kept) if t != idx])
        reduced.append(field.monic(vec_reduce(v, others, key, field)[1]))
    reduced.sort(key=lambda v: key(v[0][0]), reverse=True)
    return tuple(reduced)


# ---------------------------------------------------------------------------
# ideals

class Ideal:
    """Finitely generated ideal with reduced bases cached per order."""

    def __init__(self, ring, gens):
        self.ring = ring
        clean = []
        for g in gens:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring != ring:
                raise RingMismatchError(f"generator {g} not in {ring}")
            if not g.is_zero():
                clean.append(g)
        self.gens = tuple(clean)
        self._cache = {}
        self._working = None  # the ring order's basis as working vectors, for normal_form

    def _computed(self, order=None):
        order = order or self.ring.order
        tag = order.tag
        if tag not in self._cache:
            key = module_order(order, 1).key
            vecs = [vec_from_polys((g,), key) for g in self.gens]
            basis = buchberger(vecs, key, self.ring.field) if vecs else ()
            polys = tuple(vec_to_polys(v, 1, self.ring)[0] for v in basis)
            lms = tuple(v[0][0][1] for v in basis)
            self._cache[tag] = (polys, lms, basis, key)
        return self._cache[tag]

    def groebner_basis(self, order=None):
        return self._computed(order)[0]

    def leading_exponents(self, order=None):
        return self._computed(order)[1]

    def normal_form(self, f):
        if isinstance(f, str):
            f = self.ring.parse(f)
        if f.ring != self.ring:
            raise RingMismatchError(f"{f} not in {self.ring}")
        _, _, basis, key = self._computed()
        if not basis:
            return f
        field = self.ring.field
        if self._working is None:
            self._working = _prepare([working(v, field) for v in basis])
        d, w = field.integral(vec_from_polys((f,), key))
        s, r = vec_reduce(w, self._working, key, field)
        ds = field.mul(d, s)  # r is d*s times the normal form of f
        return vec_to_polys(tuple((m, field.fraction(c, ds)) for m, c in r), 1, self.ring)[0]

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_zero(self):
        return not self.groebner_basis()

    def is_unit(self):
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_one()

    def key(self):
        return tuple(str(g) for g in self.groebner_basis())

    def __add__(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise RingMismatchError("ideal sum across rings")
            return Ideal(self.ring, self.gens + other.gens)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Ideal):
            if other.ring != self.ring:
                raise RingMismatchError("ideal product across rings")
            return Ideal(self.ring, tuple(g * h for g in self.gens for h in other.gens))
        return NotImplemented

    def __eq__(self, other):
        return other is self or (isinstance(other, Ideal) and other.ring == self.ring
                                 and other.groebner_basis() == self.groebner_basis())

    def __hash__(self):
        return hash((self.ring, self.groebner_basis()))

    def __str__(self):
        gb = self.groebner_basis()
        return "(" + ", ".join(str(g) for g in gb) + ")" if gb else "(0)"

    def __repr__(self):
        return f"Ideal{self}"


def _result_order(order):
    # block orders do not survive variable removal; fall back to grevlex
    return order if order in (grevlex, lex) else grevlex


def eliminate(I, kill):
    """I intersected with the subring omitting the named variables, as an
    ideal of that smaller ring."""
    ring = I.ring
    idx = []
    for v in kill:
        idx.append(ring.index_of(v) if isinstance(v, str) else v)
    idx = sorted(set(idx))
    keep = [i for i in range(ring.nvars) if i not in idx]
    order = elimination_order(idx, ring.nvars)
    gb = I.groebner_basis(order)
    target = PolynomialRing(ring.field, tuple(ring.names[i] for i in keep),
                            _result_order(ring.order))
    out = []
    for g in gb:
        if not (g.support() & set(idx)):
            out.append(transport(g, target))
    return Ideal(target, out)


def divide_exact(g, h):
    """g / h when h divides g in the ambient polynomial ring."""
    ring = g.ring
    field = ring.field
    q = {}
    r = g
    while not r.is_zero():
        if not mono_divides(h.lm(), r.lm()):
            raise InexactDivisionError(f"{h} does not divide {g}")
        e = mono_div(r.lm(), h.lm())
        c = field.div(r.lc(), h.lc())
        q[e] = field.add(q.get(e, field.zero), c)
        r = r - h.mul_term(e, c)
    return ring.from_dict(q)


def witness_syzygies(targets, ambient, rank, ring, keep=None):
    """Generators of {(c_1..c_m) : sum c_t * targets_t in span(ambient)} for
    rank-tuples of polynomials, read off the reduced basis of (u, 0) and
    (targets_t, e_t) under an order whose main block dominates the witness
    block.  With variable indices `keep`, the witness block eliminates the
    other variables and only vectors over `keep` are returned."""
    m = len(targets)
    if m == 0:
        return []
    units = block_copies([(ring.one,)], 1, m, ring)  # e_1, ..., e_m
    vectors = [tuple(u) + (ring.zero,) * m for u in ambient]
    vectors += [tuple(v) + e for v, e in zip(targets, units)]
    banned = [] if keep is None else [i for i in range(ring.nvars) if i not in keep]
    witness_order = elimination_order(banned, ring.nvars) if banned else ring.order
    order = split_module_order(rank, m, ring.order, witness_order)
    out = []
    for b in buchberger([vec_from_polys(v, order.key) for v in vectors], order.key, ring.field):
        (pos, e), _ = b[0]
        if pos < rank or any(e[i] for i in banned):
            continue  # led in the main block, or by an eliminated variable
        coords = vec_to_polys(b, rank + m, ring)[rank:]
        # the order argument guarantees this; keep it as a hard check
        if banned and any(set(c.support()) & set(banned) for c in coords):
            raise ConsistencyError("coefficient-module element meets an eliminated variable")
        out.append(coords)
    return out


def block_copies(vectors, rank, slots, ring):
    """Each rank-tuple of `vectors` placed in each of `slots` consecutive
    blocks of size rank, block by block."""
    zero = (ring.zero,) * rank
    return [zero * t + tuple(v) + zero * (slots - 1 - t)
            for t in range(slots) for v in vectors]


def colon(targets, ambient, rank, ring):
    """The ideal of c with c*t in span(ambient) for every rank-tuple t in
    targets: one witness run on the concatenated targets against one copy
    of the ambient span per target.  No targets: the unit ideal."""
    slots = len(targets)
    joined = tuple(c for t in targets for c in t)
    gens = witness_syzygies([joined], block_copies(ambient, rank, slots, ring),
                            rank * slots, ring)
    return Ideal(ring, [c for (c,) in gens])


def intersect(I, J):
    """I ∩ J: the c with c*(1, 1) in I*e_1 + J*e_2."""
    if I.ring != J.ring:
        raise RingMismatchError("intersecting ideals across rings")
    ring = I.ring
    ambient = [(g, ring.zero) for g in I.gens] + [(ring.zero, h) for h in J.gens]
    return colon([(ring.one, ring.one)], ambient, 2, ring)


def quotient(I, J):
    """Ideal quotient (I : J) = {g : g*J inside I}: the c with
    c*(h_1, ..., h_m) in I^m for the generators h of J."""
    ring = I.ring
    if not isinstance(J, Ideal):
        J = Ideal(ring, (J,))
    if J.ring != ring:
        raise RingMismatchError("ideal quotient across rings")
    return colon([(h,) for h in J.gens], [(g,) for g in I.gens], 1, ring)


def in_radical(f, I):
    """Rabinowitsch membership test: f in rad(I) iff 1 in I + (1 - t*f)."""
    ring = I.ring
    if isinstance(f, str):
        f = ring.parse(f)
    (tname,) = fresh_names(("t",), set(ring.names), "_")
    big = PolynomialRing(ring.field, (tname,) + ring.names, grevlex)
    t = big.var(0)
    gens = [transport(g, big) for g in I.gens]
    gens.append(big.one - t * transport(f, big))
    return Ideal(big, gens).is_unit()


def is_regular_element(f, I):
    """f is a non-zerodivisor on ring/I iff (I : f) == I."""
    return quotient(I, f) == I


def independent_set(I):
    """A largest set of variable indices independent modulo the leading-term
    ideal (no leading monomial is supported inside it), as a sorted tuple;
    its size is dim ring/I.  None for the unit ideal, whose leading
    monomial 1 lies inside every set.

    An include-first depth-first search over the variables in index order
    (Kredel & Weispfenning, "Computing dimension and independent sets for
    polynomial ideals", 1988).  Dependence is upward closed, so a branch
    stops at its first dependent set, and a branch that cannot beat the
    largest set found stops too.  Include-first meets the sets of one size
    in lexicographic order, so the answer is the lexicographically first
    largest set."""
    supports = {sum(1 << i for i, k in enumerate(e) if k) for e in I.leading_exponents()}
    if 0 in supports:
        return None
    n = I.ring.nvars
    # adding i to an independent set can only complete a support that holds i
    meeting = [[m for m in supports if m >> i & 1] for i in range(n)]
    best = ()

    def search(i, chosen, mask):
        nonlocal best
        if len(chosen) + n - i <= len(best):
            return
        if i == n:
            best = chosen
            return
        grown = mask | 1 << i
        if all(m & grown != m for m in meeting[i]):
            search(i + 1, chosen + (i,), grown)
        search(i + 1, chosen, mask)

    search(0, (), 0)
    return best


def krull_dim(I):
    """Dimension of ring/I: the size of `independent_set`.  Unit ideal
    gives -1."""
    S = independent_set(I)
    return -1 if S is None else len(S)
