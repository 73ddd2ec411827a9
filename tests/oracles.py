"""Independent oracles used to derive and then pin expected test values.

Everything here works through the public Polynomial and FreeModuleElement
APIs only (leading terms, term multiplication, subtraction) so it does not
share code paths with the engine's vector machinery it is checking.  The
ideal-operation references are the exception: they intersect by adjoining a
variable and eliminating it, divide exactly and test radical membership
through the engine's eliminations, routes that neither the engine's witness
kernel nor its zero-dimensional covering certificate takes.  The module
checkers `is_zero_module` and `is_complex` also lean on the engine: they
test membership against bases that the engine computes.  The local-length
and rank references compute through the engine's coefficient modules and
normal forms, by the filtration by powers of the prime and by elimination
over the residue field, routes that its counting kernel does not take.
The factorization reference goes through sympy's expression layer (symbols,
Poly and factor_list), where the engine builds sparse ring elements and
recognizes monomials, primitive binomials, quadrics, c*y + b and a*x + b
without sympy; factor_multiset compares two factorizations up to units
and order.  Over F_p in several variables sympy has no reference; there
quadric_splits decides a quadric by the rank of its matrix, where the
engine completes the square.  ProductRingGraphMap is a chart map whose
graph gives every target coordinate a fresh variable and a relation,
where the engine's graph reuses a source variable for a coordinate whose
image is one.  tower_law_degree counts a pushforward degree by the tower
law through a transcendence basis of the image, on two further bases,
where the engine counts on its source-eliminating basis alone.
position_over_term_fiber_key orders a module's relations for a count over
k(x_S) positions first, where the engine compares terms first.
"""

import warnings
from fractions import Fraction
from itertools import combinations, permutations, product

import sympy

from chowcalc.errors import HypothesisError
from chowcalc.fields import RationalField
from chowcalc.groebner import (Ideal, ModuleOrder, divide_exact, eliminate, in_radical,
                               independent_set, module_order, vec_to_polys)
from chowcalc.homology import (FPModule, FreeModuleElement, coefficient_module, fold_modulo,
                               unit_multiples)
from chowcalc.morphisms import ChartMap, product_ring, zariski_image
from chowcalc.polyring import (PolynomialRing, elimination_order, fresh_names, grevlex,
                               mono_div, mono_divides, mono_lcm, transport)
from chowcalc.primes import PrimeIdeal, residue_degree


def independent_set_by_scan(I):
    """The reference for groebner.independent_set: scan the variable
    subsets from the largest size down, each size in lexicographic order,
    and return the first one that holds no leading-monomial support.  It
    visits up to 2^n subsets."""
    supports = [frozenset(i for i, k in enumerate(e) if k) for e in I.leading_exponents()]
    n = I.ring.nvars
    for size in range(n, -1, -1):
        for S in combinations(range(n), size):
            if not any(sup.issubset(S) for sup in supports):
                return S
    return None


def monomial_compare(a, b, order):
    """-1, 0 or 1 as a <, =, > b under `order`."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def order_view(p, order):
    """The same polynomial in a sibling ring whose default order is `order`,
    so lm()/lc() answer for that order."""
    if p.ring.order == order:
        return p
    return transport(p, PolynomialRing(p.ring.field, p.ring.names, order))


def reduce_full(f, basis):
    """Plain multivariate division: full normal form of f against basis."""
    ring = f.ring
    remainder = ring.zero
    work = f
    while not work.is_zero():
        e, c = work.terms[0]
        for g in basis:
            if mono_divides(g.lm(), e):
                factor = ring.field.div(c, g.lc())
                work = work - g.mul_term(mono_div(e, g.lm()), factor)
                break
        else:
            head = ring.monomial(e, c)
            remainder = remainder + head
            work = work - head
    return remainder


def s_polynomial(f, g):
    ring = f.ring
    l = mono_lcm(f.lm(), g.lm())
    a = f.mul_term(mono_div(l, f.lm()), ring.field.inv(f.lc()))
    b = g.mul_term(mono_div(l, g.lm()), ring.field.inv(g.lc()))
    return a - b


def is_groebner(basis, order):
    """Buchberger criterion: every S-polynomial reduces to zero."""
    basis = [order_view(g, order) for g in basis if not g.is_zero()]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j])
            if not reduce_full(s, basis).is_zero():
                return False
    return True


def is_reduced_basis(basis, order):
    """Monic, and no term of any element is divisible by another's lm."""
    basis = [order_view(g, order) for g in basis]
    for i, g in enumerate(basis):
        if g.is_zero() or g.lc() != g.ring.field.one:
            return False
        for j, h in enumerate(basis):
            if i == j:
                continue
            if any(mono_divides(h.lm(), e) for e, _ in g.terms):
                return False
    return True


def reduces_into(f, basis, order):
    """Membership certificate for the span of a Groebner basis."""
    basis = [order_view(g, order) for g in basis]
    return reduce_full(order_view(f, order), basis).is_zero()


def assert_good_basis(gens, basis, order):
    """The combined oracle: basis is a reduced Groebner basis whose span
    contains every original generator."""
    assert basis or not [g for g in gens if not g.is_zero()]
    if basis:
        assert is_groebner(basis, order)
        assert is_reduced_basis(basis, order)
        for g in gens:
            assert reduces_into(g, basis, order)


def count_standard_monomials(lead_exponents, bound=60):
    """Number of monomials outside the leading-term ideal (for
    zero-dimensional ideals this is the vector-space dimension of the
    quotient).  Simple box enumeration; needs a pure power of every
    variable among the leading exponents."""
    if not lead_exponents:
        return None
    n = len(lead_exponents[0])
    caps = []
    for i in range(n):
        pures = [e[i] for e in lead_exponents
                 if all(e[j] == 0 for j in range(n) if j != i) and e[i] > 0]
        if not pures:
            return None  # not zero-dimensional
        caps.append(min(pures))
    count = 0
    boxes = [range(c) for c in caps]
    for point in product(*boxes):
        if not any(mono_divides(e, point) for e in lead_exponents):
            count += 1
        if count > bound:
            raise AssertionError("standard monomial count exploded")
    return count


# ---------------------------------------------------------------------------
# submodules of free modules: a term is (position, exponents, coefficient)

def position_order(main_rank, main_order, witness_order=None):
    """Sort key on (position, exponents): positions below main_rank beat the
    rest, then the block's monomial order decides, then the lower position.
    With witness_order None this is term-over-position on A^main_rank."""
    def key(pos, exps):
        if pos < main_rank:
            return (1, main_order.key(exps), -pos)
        return (0, witness_order.key(exps), -pos)
    return key


def leading_term(v, key):
    """(position, exponents, coefficient) of the largest term of v."""
    best = None
    for pos, p in enumerate(v.coords):
        for e, c in p.terms:
            if best is None or key(pos, e) > key(best[0], best[1]):
                best = (pos, e, c)
    return best


def reduce_vector(f, basis, key):
    """Plain division by position: full normal form of f against basis."""
    ring, rank = f.ring, f.rank
    heads = [(leading_term(g, key), g) for g in basis if not g.is_zero()]
    remainder = FreeModuleElement(ring, [ring.zero] * rank)
    work = f
    while not work.is_zero():
        pos, e, c = leading_term(work, key)
        for (gp, ge, gc), g in heads:
            if gp == pos and mono_divides(ge, e):
                work = work - g.scale(ring.monomial(mono_div(e, ge), ring.field.div(c, gc)))
                break
        else:
            head = FreeModuleElement(ring, [ring.monomial(e, c) if i == pos else ring.zero
                                            for i in range(rank)])
            remainder = remainder + head
            work = work - head
    return remainder


def s_vector(f, g, key):
    """S-vector of two vectors whose leading terms share a position."""
    ring = f.ring
    _, ef, cf = leading_term(f, key)
    _, eg, cg = leading_term(g, key)
    l = mono_lcm(ef, eg)
    inv = ring.field.inv
    return (f.scale(ring.monomial(mono_div(l, ef), inv(cf)))
            - g.scale(ring.monomial(mono_div(l, eg), inv(cg))))


def is_module_groebner(basis, key):
    """Buchberger criterion for modules: every S-vector of two elements with
    leading terms at one position reduces to zero."""
    basis = [g for g in basis if not g.is_zero()]
    heads = [leading_term(g, key) for g in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if heads[i][0] != heads[j][0]:
                continue
            if not reduce_vector(s_vector(basis[i], basis[j], key), basis, key).is_zero():
                return False
    return True


def is_reduced_module_basis(basis, key):
    """Monic, and no term of any element is divisible by the leading term of
    another element at the same position."""
    heads = [leading_term(g, key) for g in basis]
    for i, g in enumerate(basis):
        if heads[i] is None or heads[i][2] != g.ring.field.one:
            return False
        for j, (hp, he, _) in enumerate(heads):
            if i != j and any(mono_divides(he, e) for e, _ in g.coords[hp].terms):
                return False
    return True


def assert_good_module_basis(gens, basis, key):
    """The combined module oracle: basis is a reduced Groebner basis whose
    span contains every original generator."""
    assert basis or all(g.is_zero() for g in gens)
    assert is_module_groebner(basis, key)
    assert is_reduced_module_basis(basis, key)
    for g in gens:
        assert reduce_vector(g, basis, key).is_zero()


def unit_vector(ring, rank, pos):
    """The unit vector e_pos of ring^rank."""
    return FreeModuleElement(ring, [ring.one if i == pos else ring.zero
                                    for i in range(rank)])


def in_span(v, basis, rank, ring):
    """v lies in the span of a term-over-position module basis of ring^rank."""
    return reduce_vector(v, basis, position_order(rank, ring.order)).is_zero()


def module_basis(vectors, rank, ring, modulo=None):
    """The reduced basis of span(vectors) + J * ring^rank under the ring's
    order, as elements: the engine's FPModule.basis."""
    M = FPModule(ring, rank, vectors, modulo)
    return [FreeModuleElement(ring, vec_to_polys(v, rank, ring)) for v in M.basis()]


def is_zero_module(M):
    """Every unit vector lies in the relations of M (plus J * A^rank)."""
    if M.rank == 0:
        return True
    basis = module_basis(M.relations, M.rank, M.ring, M.modulo)
    return all(in_span(unit_vector(M.ring, M.rank, a), basis, M.rank, M.ring)
               for a in range(M.rank))


def is_complex(res, modulo=None):
    """d_i composed with d_{i+1} vanishes (modulo the chart ideal) for the
    homology.Complex `res`, whose mats[i - 1] are the columns of d_i."""
    zero = Ideal(res.ring, ()) if modulo is None else modulo
    for i in range(1, len(res.mats)):
        for col in res.mats[i]:
            for b in range(res.ranks[i - 1]):
                image = sum((p * d[b] for p, d in zip(col.coords, res.mats[i - 1])),
                            res.ring.zero)
                if not zero.contains(image):
                    return False
    return True


# ---------------------------------------------------------------------------
# ideal operations by elimination

def elimination_intersect(I, J):
    """I ∩ J as the t-free part of t*I + (1 - t)*J."""
    ring = I.ring
    if not I.gens or not J.gens:
        return Ideal(ring, ())
    (tname,) = fresh_names(("t",), set(ring.names), "_")
    big = PolynomialRing(ring.field, (tname,) + ring.names, grevlex)
    t = big.var(0)
    gens = [t * transport(g, big) for g in I.gens]
    gens += [(big.one - t) * transport(h, big) for h in J.gens]
    elim = eliminate(Ideal(big, gens), (tname,))
    return Ideal(ring, [transport(g, ring) for g in elim.gens])


def division_quotient(I, J):
    """(I : J) as the intersection over the generators h of J of
    (I ∩ (h)) / h, each generator divided exactly."""
    ring = I.ring
    result = Ideal(ring, (ring.one,))
    for h in J.gens:
        K = elimination_intersect(I, Ideal(ring, (h,)))
        Qh = Ideal(ring, [divide_exact(g, h) for g in K.gens])
        result = Qh if result.is_unit() else elimination_intersect(result, Qh)
    return result


# ---------------------------------------------------------------------------
# determinants and decomposition audits

def laplace_det(m, ring):
    """Determinant as the signed sum over all permutations (n! terms)."""
    n = len(m)
    total = ring.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = ring.one
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def radical_covers(I, ideals):
    """J_1 ∩ ... ∩ J_r ⊆ rad(I) by elimination: the ideals are intersected
    one at a time and every generator of the intersection is tested by
    Rabinowitsch.  This is a Gröbner route that the engine's zero-dimensional
    covering certificate does not take.  No ideals: the unit ideal."""
    if not ideals:
        return in_radical(I.ring.one, I)
    total = ideals[0]
    for J in ideals[1:]:
        total = elimination_intersect(total, J)
    return all(in_radical(g, I) for g in total.gens)


def audit_accepts(I, ideals):
    """Reference decomposition audit: every ideal contains I, no two are
    comparable, and together they cover I."""
    if not all(J.contains_ideal(I) for J in ideals):
        return False
    if any(J.contains_ideal(K) or K.contains_ideal(J)
           for J, K in combinations(ideals, 2)):
        return False
    return radical_covers(I, ideals)


# ---------------------------------------------------------------------------
# factorization through sympy expressions

def factor_by_expressions(f):
    """[(irreducible factor, multiplicity)] of a nonconstant f over QQ, or
    of a univariate f over F_p, built as a sympy expression and factored by
    Poly.factor_list (QQ) or factor_list(..., modulus=p) (F_p)."""
    ring = f.ring
    syms = tuple(sympy.Symbol(nm) for nm in ring.names)
    rational = isinstance(ring.field, RationalField)
    expr = sympy.Integer(0)
    for e, c in f.terms:
        piece = sympy.Rational(c.numerator, c.denominator) if rational else sympy.Integer(c)
        for i, k in enumerate(e):
            piece *= syms[i] ** k
        expr += piece
    if rational:
        _, raw = sympy.Poly(expr, *syms, domain="QQ").factor_list()
    else:
        if len(f.support()) != 1:
            raise ValueError("the F_p reference factors univariate polynomials only")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, pairs = sympy.factor_list(expr, modulus=ring.field.p)
        raw = [(sympy.Poly(q, *syms, modulus=ring.field.p), e) for q, e in pairs]
    out = []
    for q, e in raw:
        coeffs = {}
        for exps, c in q.as_dict().items():
            if rational:
                r = sympy.Rational(c)
                coeffs[exps] = Fraction(int(r.p), int(r.q))
            else:
                coeffs[exps] = int(c) % ring.field.p
        g = ring.from_dict(coeffs)
        if not g.is_constant():
            out.append((g, e))
    return out


def factor_multiset(facs):
    """A factorization [(factor, multiplicity)] as the sorted list of
    (monic factor, multiplicity), factors printed: two factorizations give
    the same list exactly when they agree up to one unit per factor, in
    any order, with the same multiplicities."""
    return sorted((str(q.monic()), e) for q, e in facs)


def _is_square(c, field):
    """Whether c is a square in the field: by sympy's exact square root
    over QQ, by trying every residue over F_p."""
    if isinstance(field, RationalField):
        return sympy.sqrt(sympy.Rational(c.numerator, c.denominator)).is_Rational
    return any(x * x % field.p == c % field.p for x in range(field.p))


def quadric_splits(f):
    """Whether f, of total degree 2 over a field of characteristic other
    than 2, is a product of two linear polynomials over that field.
    Homogenize and take the (n+1) x (n+1) symmetric matrix Q of the
    quadratic form.  Rank 1 is c*l^2.  At rank 2 the form is equivalent to
    a*X^2 + b*Y^2, which splits iff -a*b is a square, and any nonzero 2 x 2
    principal minor of Q is a*b times a square (Lam, Introduction to
    Quadratic Forms over Fields, ch. I).  Rank 3 or more never splits."""
    ring = f.ring
    field = ring.field
    n = ring.nvars + 1
    if isinstance(field, RationalField):
        num = lambda c: Fraction(c.numerator, c.denominator)
        div = lambda a, b: a / b
    else:
        p = field.p
        num = lambda c: int(c) % p
        div = lambda a, b: a * pow(b, p - 2, p) % p
    sub = lambda a, b: num(a - b)
    Q = [[num(0)] * n for _ in range(n)]
    for e, c in f.terms:
        i, j = [i for i, k in enumerate(tuple(e) + (2 - sum(e),)) for _ in range(k)]
        if i == j:
            Q[i][i] = num(Q[i][i] + num(c))
        else:
            Q[i][j] = Q[j][i] = num(Q[i][j] + div(num(c), num(2)))
    rows = [row[:] for row in Q]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n):
            scale = div(rows[r][col], rows[rank][col])
            rows[r] = [sub(a, scale * b) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    if rank != 2:
        return rank == 1
    minor = next(m for i, j in combinations(range(n), 2)
                 if (m := sub(Q[i][i] * Q[j][j], Q[i][j] * Q[j][i])))
    return _is_square(-minor, field)


# ---------------------------------------------------------------------------
# local lengths and ranks over the residue field of a prime

def matrix_rank_mod_prime(rows, p):
    """Rank over Frac(ring/p) of the matrix whose rows are coordinate
    tuples, by fraction-free elimination with normal forms as zero tests."""
    nf = p.ideal.normal_form
    mat = [[nf(c) for c in row] for row in rows]
    mat = [row for row in mat if any(not c.is_zero() for c in row)]
    if not mat:
        return 0
    cols = len(mat[0])
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(mat)):
            if not mat[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col].is_zero():
                continue
            scale = mat[r][col]
            mat[r] = [nf(pv * mat[r][j] - scale * mat[rank][j])
                      for j in range(cols)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def module_dimension(M):
    """dim_k M, or None when infinite: the standard monomials of M's
    relation basis, counted position by position."""
    basis = module_basis(M.relations, M.rank, M.ring, M.modulo)
    key = position_order(M.rank, M.ring.order)
    heads = [leading_term(v, key) for v in basis]
    total = 0
    for a in range(M.rank):
        lead = [e for pos, e, _ in heads if pos == a]
        if any(not any(e) for e in lead):
            continue  # e_a itself is a relation
        count = count_standard_monomials(lead)
        if count is None:
            return None
        total += count
    return total


def rank_at_prime(M, p):
    """Rank of M at the generic point of V(p): rank minus the rank of the
    relation matrix, J folded in, over the residue field of p."""
    rows = [v.coords for v in list(M.relations) + fold_modulo(M.modulo, M.ring, M.rank)]
    return M.rank - matrix_rank_mod_prime(rows, p)


def filtration_length(M, p, max_steps=60):
    """Length of M_p by the filtration by powers of p: each graded piece is a
    vector space over the residue field of p; its dimension is the number of
    degree-i generators minus the rank of their relation module there.  The
    first empty piece ends the sum (Nakayama)."""
    ring = M.ring
    pgens = list(p.ideal.groebner_basis())
    rels = list(M.relations) + fold_modulo(M.modulo, ring, M.rank)
    level = [ring.one]
    total = 0
    for _ in range(max_steps):
        nxt_set = {}
        for m in level:
            for g in pgens:
                q = m * g
                nxt_set[q.terms] = q
        nxt = list(nxt_set.values())
        targets = unit_multiples(level, ring, M.rank)
        ambient = unit_multiples(nxt, ring, M.rank) + rels
        W = coefficient_module(targets, ambient, M.rank, ring)
        d = len(targets) - matrix_rank_mod_prime([w.coords for w in W], p)
        if d == 0:
            return total
        total += d
        level = nxt
    raise HypothesisError(f"filtration at {p} did not end within {max_steps} steps")


class ProductRingGraphMap(ChartMap):
    """A chart map presented on the full graph ring k[x, y]: the source
    relations and y - phi(y) for every target coordinate y, the target
    variables renamed apart from the source's, and every source variable
    eliminated.  The engine's pushforward, image, finiteness and degree
    read it through graph() as they read the engine's own graph."""

    def graph(self):
        if self._graph is None:
            P, (_, rename) = product_ring(self.source.ring, self.target.ring)
            gens = [transport(g, P) for g in self.source.ideal.gens]
            gens += [P.var(rename[nm]) - transport(self.images[nm], P)
                     for nm in self.target.ring.names]
            self._graph = (P, Ideal(P, gens), self.source.ring.names, rename)
        return self._graph


def tower_law_degree(m, ideal=None):
    """(q, [k(p):k(q)]) for the prime p = `ideal` of the source (None: the
    whole source, which must be integral) and its image q, by the tower law.
    On total = G + p in the graph ring P = k[x, y], with T a largest
    independent set of q, the y_T are independent modulo total too, and
    there are dim q = dim p of them: a transcendence basis of k(p) and of
    k(q).  So [k(p):k(q)] = [k(p):k(y_T)] / [k(q):k(y_T)], and
    residue_degree counts each factor on a basis of total or of q under an
    order eliminating the variables outside y_T.  p must be finite over q."""
    P, G, src_names, rename = m.graph()
    ring = m.target.ring
    total = G if ideal is None else G + Ideal(P, [transport(g, P) for g in ideal.gens])
    q = PrimeIdeal(zariski_image(m, ideal) + m.target.ideal)
    T = independent_set(q.ideal)
    U = tuple(i for i in range(ring.nvars) if i not in T)
    outside = tuple(sorted([P.index_of(nm) for nm in src_names]
                           + [P.index_of(rename[ring.names[i]]) for i in U]))
    up = residue_degree(total.leading_exponents(elimination_order(outside, P.nvars)), outside)
    down = residue_degree(q.ideal.leading_exponents(
        elimination_order(U, ring.nvars) if T else None), U)
    assert up % down == 0, f"residue degree {up} over {q} is not a multiple of {down}"
    return q, up // down


def position_over_term_fiber_key(ring, rank, U):
    """The reference for primes._fiber_key: positions first, the variables
    U eliminated at each of them, so a basis over k[x] is one over
    k(x_S)[x_U], led there by the U-parts of its leading terms (Gianni,
    Trager & Zacharias 1988), and the standard (position, U-monomial)
    pairs count dim M tensor k(x_S).  With U every variable it is
    term over position on the ring's own order."""
    if len(U) == ring.nvars:
        return module_order(ring.order, rank).key
    return ModuleOrder((elimination_order(U, ring.nvars),) * rank, range(rank)).key
