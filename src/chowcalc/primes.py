"""Minimal primes, primality certificates, and local lengths.

The decomposition loop splits an ideal along factorizations (of reduced
Gröbner basis elements, of single-variable elimination ideals, or of
eliminants of a primitive linear form in the zero-dimensional case) until
the leaves land in a certifiable shape:

  * a linear ideal, or a principal one with irreducible generator;
  * an elimination presentation: a basis element c*u + b, c a nonzero
    constant and u not occurring in b (the quotient is then a smaller
    quotient, u being -b/c there), or u*h + c0, c0 a nonzero constant and
    u not occurring in h (the quotient is then a smaller quotient localized
    at f = -h/c0), or a variable u in no basis element (the quotient is
    then a smaller quotient with u adjoined freely).  The smaller quotient
    is decomposed in turn and its primes lifted; each such u is tried in
    turn, free ones last.  A triangular basis x_i - g_i(free vars) is a
    chain of such substitutions;
  * zero-dimensional with a primitive linear form whose minimal polynomial
    is irreducible of degree equal to the vector-space dimension
    (the quotient is then a field).

Splitting only ever branches on factors q of an element of the ideal, so
every minimal prime survives into some branch; leaves are certified primes
containing the input; dropping the comparable ones leaves exactly the
minimal primes.  minimal_primes keeps the tree it walks, and the audit
(_audit_tree) checks the tree rather than trusting how it was found: at
each split one normal form puts the witness g in J, the factors multiply to
g up to a unit and each branch is J + (q_i); at each elimination step the
extended ideal equals J and the smaller ring's audited primes are carried
over; every surviving leaf contains I.  Comparability is tested once, only
between primes of different Krull dimension: a strict inclusion of primes
strictly lowers the dimension of an affine domain (Eisenbud, Commutative
Algebra, ch. 13).  assert_decomposition has no tree and trusts its ideals,
so it keeps the full audit (_audit_decomposition): every pair compared, and
p_1 ∩ ... ∩ p_r ⊆ rad(I) proved from scratch, by intersecting and the
Rabinowitsch radical-membership test.
Shapes outside the fragment raise DecompositionError rather than guess.

Factors come from `factor`, each up to a unit and in no fixed order: a
split uses a factor q only through its branch J + (q), whose key is a
reduced basis, and the audit compares products up to a unit.  A monomial
content x^J is divided out first and its variables read off.  Four shapes
of the rest are answered without sympy: c*y + b (c a nonzero constant, y
not in b) and a binomial whose two exponents differ by a primitive vector
are irreducible on sight; a quadric with a square term, in odd
characteristic, splits by completing the square; a*x + b with a and b in
one other variable y splits off gcd(a, b) by Gauss's lemma, the gcd read
off the reduced basis of (a, b) and factored in turn, the cofactor an exact
division.  Every other polynomial goes to sympy's sparse polynomial rings,
over QQ in its own variables and over F_p in its one variable (a
homogeneous bivariate one through its dehomogenization).

Local lengths and generic ranks share one kernel.  With S a largest set of
variables independent modulo p's leading ideal, M's reduced relation basis
(M.basis, its chart ideal folded in, kept on M) gives whole = dim_k(x_S)(M
tensor k(x_S)).  When finite, whole is the sum of length(M_P) *
[k(P):k(x_S)] over the P in Supp M meeting k[x_S] in 0, each of dimension
|S| (Atiyah & Macdonald, Thm 8.7 and Ex. 3.19 (v), (vii)).  So whole = 0
gives length 0.  A caller may pass the minimal primes of a closed set
containing Supp M: if p is the only listed prime meeting k[x_S] in 0 with
dimension |S|, the length is whole / [k(p):k(x_S)]; if every listed prime
lies in Supp M (full_support) and those at k(x_S) have degrees summing to
whole, each of their lengths is 1.  Neither rule is taken when a listed
prime meets k[x_S] in 0 with dimension above |S|: a prime of Supp M inside
it need not be listed.  Otherwise M / p^N M tensor k(x_S) lives at p
alone, so length(M_p) = dim_k(x_S)(M / p^N M tensor k(x_S)) /
[k(p):k(x_S)] once p^N M_p = 0; the first N at which the count repeats, or
reaches whole, gives p^N M_p = 0 by Nakayama.  At a closed point, with M
of finite dimension over k, p^N M is an echelon span inside M
(groebner.span_times, whose only caller this is) and no further basis is
built; elsewhere each N costs one module basis, seeded with M's, under
term over position on an order eliminating the variables U outside S
(_fiber_key).  No stop of this filtration within max_steps is reported as
HypothesisError; the generic rank is the N = 1 count.  The residue degree
[k(p):k(x_S)] is the same count on p's leading ideal (residue_degree);
morphisms runs it on leads of a graph ideal's basis for pushforward
degrees, never on the image's leading ideal.  Every count walks the
standard exponents of all variables but the last, depth-first, and lists
nothing (_standard_columns).
"""

import contextvars
import itertools
import math
from contextlib import contextmanager
from typing import NamedTuple

import sympy
from sympy.polys.rings import PolyRing

from .errors import (ConsistencyError, DecompositionError, EngineError,
                     HypothesisError, NotPrimeError)
from .fields import RationalField
from .groebner import (Ideal, buchberger, divide_exact, eliminate,
                       in_radical, independent_set, intersect, krull_dim,
                       module_order, span_times, vec_from_polys)
from .homology import unit_multiples
from .polyring import (PolynomialRing, elimination_order, fresh_names,
                       mono_div, mono_divides, transport)


class FactorizationUnavailable(EngineError):
    """Raised when a polynomial over F_p falls outside the finite-field
    fragment of factor: a monomial x^J times 1 or times a univariate
    polynomial, a homogeneous bivariate one, c*y + b with c a nonzero
    constant and y not occurring in b, a binomial whose two exponents differ
    by a primitive vector, a quadric with a square term in odd
    characteristic, or a*x + b with a and b in one other variable."""


def _degree_one_alone(f):
    """Yield each variable y with f = c*y + b, c a nonzero constant and b
    free of y.  Such an f has degree one in y and a unit leading
    coefficient, so it is irreducible over any field (Gauss's lemma; von zur
    Gathen & Gerhard, Modern Computer Algebra, 6.2).  Linear forms are the
    case b of degree at most one."""
    for e, _ in f.terms:
        if sum(e) == 1:
            y = e.index(1)
            if sum(1 for e2, _ in f.terms if e2[y]) == 1:
                yield y


def _is_primitive_binomial(f):
    """Whether f, which no variable divides, is c1*x^A + c2*x^B with the
    entries of A - B coprime.  Its Newton polytope is then a segment with
    no lattice point inside, not a Minkowski sum of two lattice polytopes
    with more than one point each, so f is irreducible over the algebraic
    closure of any field (Gao, "Absolute irreducibility of polynomials via
    Newton polytopes", J. Algebra 237, 2001)."""
    if len(f.terms) != 2:
        return False
    (A, _), (B, _) = f.terms
    return math.gcd(*(a - b for a, b in zip(A, B))) == 1


def _monomial_content(f):
    """([(x_i, J_i)], g) with f = x^J * g, J the least exponent of each
    variable over f's terms; ([], f) when J = 0.  The variables are prime
    in the polynomial ring, a unique factorization domain, so the factors
    of f are the x_i with their exponents J_i and the factors of g, which
    no x_i divides (sympy's dmp_terms_gcd).  A monomial is the case g
    constant."""
    J = tuple(map(min, zip(*(e for e, _ in f.terms))))
    if not any(J):
        return [], f
    ring = f.ring
    return ([(ring.var(i), k) for i, k in enumerate(J) if k],
            ring.from_dict({mono_div(e, J): c for e, c in f.terms}))


def _square_root(D):
    """L with L*L == D, for D of total degree at most 2, or None.  A
    nonconstant square L*L has some z^2 term, s^2*z^2 with s the
    coefficient of z in L, and its z-linear part is 2*s*z*(L - s*z); so
    L = s*z + D_z/(2*s), D_z the coefficient of z in D, is the one
    candidate up to sign, and one expansion tests it."""
    ring = D.ring
    field = ring.field
    if not D:
        return D
    if D.is_constant():
        s = field.sqrt(D.lc())
        return None if s is None else ring.const(s)
    z = min((e.index(2) for e, _ in D.terms if 2 in e), default=None)
    if z is None:
        return None
    s = field.sqrt(next(c for e, c in D.terms if e[z] == 2))
    if s is None:
        return None
    half = field.inv(field.add(s, s))
    L = ring.from_dict({e[:z] + (0,) + e[z + 1:]: field.mul(c, half)
                        for e, c in D.terms if e[z] == 1})
    L = L + ring.var(z) * s
    return L if L * L == D else None


def _quadric_factors(f):
    """f of total degree 2 with a y^2 term, over a field of characteristic
    other than 2: with f = a*y^2 + B*y + C (a a nonzero constant, B and C
    free of y) and D = B^2 - 4*a*C, 4*a*f = (2*a*y + B)^2 - D.  A factor
    of f free of y divides the constant a, so f splits iff it has a factor
    of degree one in y, a root y = r with D = (2*a*r + B)^2: iff D = L^2 in
    the other variables (Lam, Introduction to Quadratic Forms over Fields,
    ch. I).  The factors are then 2*a*y + B -+ L, one of multiplicity 2
    when L = 0; each has a unit coefficient of y, so is irreducible."""
    ring = f.ring
    field = ring.field
    if field.characteristic == 2 or f.total_degree() != 2:
        return None
    y = min((e.index(2) for e, _ in f.terms if 2 in e), default=None)
    if y is None:
        return None
    parts = ({}, {}, {})
    for e, c in f.terms:
        parts[e[y]][e[:y] + (0,) + e[y + 1:]] = c
    (a,) = parts[2].values()
    B, C = ring.from_dict(parts[1]), ring.from_dict(parts[0])
    L = _square_root(B * B - C * field.mul(field.coerce(4), a))
    if L is None:
        return [(f, 1)]
    lin = ring.var(y) * field.add(a, a) + B
    if not L:
        return [(lin, 2)]
    return [(lin - L, 1), (lin + L, 1)]


def _gauss_split(f):
    """(g, f/g) for f = a*x + b with a and b in k[y], y the one other
    variable of f, and g the monic gcd of a and b; None for other shapes.
    k[y] is a principal ideal domain, so (a, b) = (g) there, and the reduced
    Gröbner basis of a nonzero principal ideal is its monic generator; it
    stays the reduced basis in a ring with more variables (Cox, Little &
    O'Shea, Ideals, Varieties, and Algorithms, ch. 1 §5 and ch. 2 §7).  So
    g is the one element of the reduced basis of (a, b), and f/g an exact
    division.  The cofactor, primitive of degree one in x over k[y], is
    irreducible (Gauss's lemma; von zur Gathen & Gerhard, Modern Computer
    Algebra, 6.2)."""
    support = f.support()
    if len(support) != 2:
        return None
    x = next((i for i in sorted(support) if max(e[i] for e, _ in f.terms) == 1), None)
    if x is None:
        return None
    ring = f.ring
    parts = ({}, {})
    for e, c in f.terms:
        parts[e[x]][e[:x] + (0,) + e[x + 1:]] = c
    (g,) = Ideal(ring, map(ring.from_dict, parts)).groebner_basis()
    return g, divide_exact(f, g)


def _factor_homogeneous_bivariate(f):
    """Factor f over F_p, homogeneous in exactly two variables x_i and x_j
    and divisible by neither, through sympy and its dehomogenization
    f(x_j = 1).  That keeps f's degree, as f has a term free of x_j, so its
    factors q, each homogenized back to x_j^deg(q) * q(x_i/x_j), are f's.
    This is the one multivariate shape the finite-field backend can always
    handle; other shapes raise FactorizationUnavailable."""
    ring = f.ring
    support = sorted(f.support())
    d = f.total_degree()
    if len(support) != 2 or any(sum(e) != d for e, _ in f.terms):
        raise FactorizationUnavailable(
            "multivariate factorization over a finite field is not supported")
    i, j = support
    shadow = ring.from_dict({e[:j] + (0,) + e[j + 1:]: c for e, c in f.terms})
    return [(ring.from_dict({e[:j] + (q.total_degree() - e[i],) + e[j + 1:]: c
                             for e, c in q.terms}), k)
            for q, k in _factor_with_sympy(shadow)]


def _factor_with_sympy(f):
    """sympy's factor_list of f, over QQ in f's ring's variables, over F_p
    in f's one variable."""
    ring = f.ring
    field = ring.field
    if isinstance(field, RationalField):
        sparse = PolyRing(ring.names, sympy.QQ)
        g = sparse.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in f.terms})
        _, raw = g.factor_list()
        out = [(ring.from_dict({e: field.fraction(int(c.numerator), int(c.denominator))
                                for e, c in q.to_dict().items()}), k)
               for q, k in raw]
    else:
        (v,) = f.support()
        sparse = PolyRing((ring.names[v],), sympy.GF(field.p))
        g = sparse.from_dict({(e[v],): c for e, c in f.terms})
        _, raw = g.factor_list()
        unit = (0,) * ring.nvars
        out = [(ring.from_dict({unit[:v] + (k,) + unit[v + 1:]: int(c) % field.p
                                for (k,), c in q.to_dict().items()}), m)
               for q, m in raw]
    return out


def factor(f):
    """[(irreducible factor, multiplicity)] of f, constants dropped, each
    factor up to a unit and in no fixed order.

    Exact over QQ in any number of variables; over F_p in the fragment
    FactorizationUnavailable names (it is raised otherwise).  The monomial
    content x^J is divided out first (_monomial_content).  The rest is
    answered without sympy when it is c*y + b (_degree_one_alone), a
    primitive binomial (_is_primitive_binomial), a quadric
    (_quadric_factors) or a*x + b over k[y] (_gauss_split, whose gcd, the
    reduced basis of (a, b), goes round the same loop); any other polynomial goes to sympy
    (_factor_with_sympy), over F_p in several variables through its
    dehomogenization (_factor_homogeneous_bivariate)."""
    out = []
    todo = [f]
    while todo:
        variables, g = _monomial_content(todo.pop())
        out += variables
        if g.is_constant():
            continue
        if next(_degree_one_alone(g), None) is not None or _is_primitive_binomial(g):
            out.append((g, 1))
        elif (pairs := _quadric_factors(g)) is not None:
            out += pairs
        elif (split := _gauss_split(g)) is not None:
            gcd, cofactor = split
            out.append((cofactor, 1))
            todo.append(gcd)
        elif isinstance(g.ring.field, RationalField) or len(g.support()) == 1:
            out += _factor_with_sympy(g)
        else:
            out += _factor_homogeneous_bivariate(g)
    return out


def _splits(facs):
    """Whether `facs`, the factorization of a nonconstant polynomial, shows
    it reducible: two factors, or one of multiplicity above 1."""
    return len(facs) > 1 or facs[0][1] > 1


# ---------------------------------------------------------------------------
# prime ideals

class PrimeIdeal:
    """A prime ideal, canonicalized by its reduced Gröbner basis.

    Built by minimal_primes (certified) or assert_prime (trusted)."""

    __slots__ = ("ideal", "certified", "key", "_independent")

    def __init__(self, ideal, certified=True):
        self.ideal = ideal
        self.certified = certified
        self.key = ideal.key()
        self._independent = None

    @property
    def ring(self):
        return self.ideal.ring

    @property
    def gens(self):
        return self.ideal.groebner_basis()

    def independent_set(self):
        """groebner.independent_set of the ideal, searched once."""
        if self._independent is None:
            self._independent = independent_set(self.ideal)
        return self._independent

    def dim(self):
        return len(self.independent_set())

    def contains(self, f):
        return self.ideal.contains(f)

    def __eq__(self, other):
        return (isinstance(other, PrimeIdeal) and other.ring == self.ring
                and other.key == self.key)

    def __hash__(self):
        return hash((self.ring, self.key))

    def __str__(self):
        return "(" + (", ".join(self.key) if self.key else "0") + ")"

    def __repr__(self):
        return f"<prime {self}>"


def assert_prime(I):
    """Escape hatch: wrap an ideal the caller knows to be prime."""
    if I.is_unit():
        raise NotPrimeError("the unit ideal is not prime")
    return PrimeIdeal(I, certified=False)


def pure_power_caps(lead, nvars):
    """The least k with x_i^k in `lead`, for each of nvars variables (all 0
    when 1 leads), or None when some variable has no pure power in `lead`.
    Every standard exponent lies in the box range(k_1) x ... x range(k_n)."""
    if any(not any(e) for e in lead):
        return [0] * nvars  # 1 leads: the unit ideal
    caps = [None] * nvars
    for e in lead:
        nz = [i for i, k in enumerate(e) if k]
        if len(nz) == 1 and (caps[nz[0]] is None or e[nz[0]] < caps[nz[0]]):
            caps[nz[0]] = e[nz[0]]
    return None if any(c is None for c in caps) else caps


def _standard_columns(lead, nvars, bound):
    """The standard exponents of `lead` in nvars variables, column by
    column: (t, k) for each t, exponents of all variables but the last,
    with k > 0 standard exponents t + (j,), j < k, in lexicographic order.
    None when some variable has no pure power in `lead`; raises when there
    are more than `bound` columns.  With no variables, k counts the one
    exponent ().

    The t grow one variable at a time.  Over a prefix t of i exponents the
    standard t + (a, 0, ..., 0) are the a below each e[i] of a lead e free
    of the later variables with e[:i] dividing t (there is one: x_i's pure
    power); a larger a, or any completion of a covered prefix, is divisible
    by that lead.  So every prefix kept has a standard completion: no
    level outgrows the columns, and the walk keeps at most nvars times as
    many prefixes as there are columns."""
    if pure_power_caps(lead, nvars) is None:
        return None
    if not nvars:
        return [((), 0 if lead else 1)]
    prefixes = [()]
    for i in range(nvars - 1):
        free = [e[:i + 1] for e in lead if not any(e[i + 1:])]
        rooms = [min(e[-1] for e in free if mono_divides(e[:-1], t)) for t in prefixes]
        if sum(rooms) > bound:
            raise EngineError(f"standard monomial walk exceeds bound {bound}")
        prefixes = [t + (a,) for t, k in zip(prefixes, rooms) for a in range(k)]
    return [(t, min(e[-1] for e in lead if mono_divides(e[:-1], t))) for t in prefixes]


def standard_exponents(lead, nvars, bound):
    """Exponent tuples in nvars variables divisible by no exponent in `lead`,
    in lexicographic order, or None when some variable has no pure power in
    `lead` (there are then infinitely many).  Raises when there are more
    than `bound`."""
    columns = _standard_columns(lead, nvars, bound)
    if columns is None:
        return None
    out = []
    for t, k in columns:
        if len(out) + k > bound:
            raise EngineError(f"standard monomial count exceeds bound {bound}")
        out += [t + (j,) for j in range(k)] if nvars else [t] * k
    return out


_VDIM_BOUND = 200000  # most columns walked, and most standard monomials listed


def vector_space_dimension(I):
    """dim_k ring/I when finite, else None: the standard monomials, counted
    at one position with every variable in U."""
    return _fiber_count([(0, e) for e in I.leading_exponents()], 1, range(I.ring.nvars))


def minimal_polynomial(I, lam):
    """Monic generator of the kernel of k[s] -> ring/I, s -> lam
    (I zero-dimensional), as a univariate polynomial."""
    ring = I.ring
    if isinstance(lam, str):
        lam = ring.parse(lam)
    (sname,) = fresh_names(("s",), set(ring.names), "_")
    big = PolynomialRing(ring.field, ring.names + (sname,))
    gens = [transport(g, big) for g in I.gens]
    gens.append(big.var(big.nvars - 1) - transport(lam, big))
    elim = eliminate(Ideal(big, gens), ring.names)
    basis = elim.groebner_basis()
    if len(basis) != 1:
        raise HypothesisError(f"{I} is not zero-dimensional: no minimal polynomial")
    return basis[0]


def _elimination_shape(I, gb):
    """Yield (u index, f, rel) with rel in I and f free of u, such that u
    is, modulo rel, an element of the smaller ring with f inverted, or free:
      * g = c*u + b, c a nonzero constant and u not occurring in b: rel = g
        and f = 1 (u is -b/c);
      * g = u*h + c0, c0 a nonzero constant and u not occurring in h:
        rel = u*f - 1 with f = -h/c0, so that g is -c0 times rel (u is 1/f);
      * u in no element of gb: rel = 0 and f = 1 (the quotient is the
        smaller one with u adjoined as a polynomial variable), yielded after
        every other shape.
    u may occur in other basis elements: multiplying by powers of f clears
    it, so I is still the contraction plus rel (proved in _elimination_step)."""
    ring = I.ring
    field = ring.field
    for g in gb:
        for u in _degree_one_alone(g):
            yield u, ring.one, g
        const = [c for e, c in g.terms if not any(e)]
        if len(const) != 1:
            continue
        body = g - ring.const(const[0])
        scale = field.neg(field.inv(const[0]))
        for u in sorted(body.support()):
            if any(t[0][u] == 0 for t in body.terms):
                continue  # u does not divide every term
            f = divide_exact(body, ring.var(u)) * scale
            if u in f.support():
                continue
            yield u, f, ring.var(u) * f - ring.one
    used = set().union(*(g.support() for g in gb))
    for u in range(ring.nvars):
        if u not in used:
            yield u, ring.one, ring.zero


class Split(NamedTuple):
    """A split of `ideal` along `witness`, an element of it, whose
    irreducible factors with multiplicities are `factors`; `branches` are
    the ideal + (q) for the factors q in order.  Every prime over the ideal
    contains the witness, so one of its factors, so one branch."""
    ideal: Ideal
    witness: object
    factors: tuple
    branches: tuple


class Elimination(NamedTuple):
    """An elimination step: `ideal` equals `extended`, the ideal of
    `small`'s generators (a ring without variable `u`) plus `rel`, which is
    u*f - 1 or, with f = 1, c*u + b or 0 (u free).  `below` are small's
    audited minimal primes and `primes` their images P + (rel), f outside P
    (localized_primes)."""
    ideal: Ideal
    extended: Ideal
    small: Ideal
    below: tuple
    u: int
    f: object
    rel: object
    primes: tuple


def _split(J, witness, facs):
    """The Split of J along `witness` with factorization `facs`."""
    return Split(J, witness, tuple(facs), tuple(J + Ideal(J.ring, (q,)) for q, _ in facs))


def _factorizations(gens):
    """(g, factor(g)) for each g in `gens` inside factor's fragment."""
    for g in gens:
        try:
            facs = factor(g)
        except FactorizationUnavailable:
            continue
        yield g, facs


def _split_on_factors(J):
    """A Split along a reducible reduced-basis element, or J as a PrimeIdeal
    when J is principal with an irreducible generator; None when every
    element is irreducible or unfactorable."""
    gb = J.groebner_basis()
    for g, facs in _factorizations(gb):
        if _splits(facs):
            return _split(J, g, facs)
        if len(gb) == 1:
            return PrimeIdeal(J)
    return None


def _eliminant_split(J):
    """Split J along a reducible element of a single-variable elimination
    ideal, read off J's cached basis eliminating one variable v at a time.
    Each branch is larger than J: a proper factor q of a reduced-basis
    element g is not in J, as lm(q) properly divides lm(g), which no other
    lead divides."""
    n = J.ring.nvars
    for v in range(n):
        gb = J.groebner_basis(elimination_order((v,), n))
        for g, facs in _factorizations(g for g in gb if v not in g.support()):
            if _splits(facs):
                return _split(J, g, facs)
    return None


_LINEAR_FORM_TRIES = 4


def _zero_dim_step(J):
    """Certify a zero-dimensional ideal prime via a primitive element, or
    split it along m(lam) when the minimal polynomial m of lam factors;
    J is proper of Krull dimension 0 (_process), so vdim is positive."""
    ring = J.ring
    vdim = vector_space_dimension(J)
    candidates = [ring.var(i) for i in range(ring.nvars)]
    for c in range(1, _LINEAR_FORM_TRIES):
        lam = ring.zero
        for i in range(ring.nvars):
            lam = lam + ring.var(i) * (c ** i)
        candidates.append(lam)
    for lam in candidates:
        m = minimal_polynomial(J, lam)
        facs = factor(m)
        if _splits(facs):
            return _split(J, m.substitute([lam]),
                          [(q.substitute([lam]), e) for q, e in facs])
        if m.total_degree() == vdim:
            return PrimeIdeal(J)
        # a proper subfield so far; another form may separate
    raise DecompositionError(
        f"cannot certify the zero-dimensional ideal {J}: no primitive linear form found")


def _extension(gens, rel):
    """The ideal of rel's ring generated by the polynomials `gens` of a
    smaller ring and rel; like every Ideal it drops a zero generator, so
    generator tuples are compared in this form."""
    ring = rel.ring
    return Ideal(ring, tuple(transport(g, ring) for g in gens) + (rel,))


def localized_primes(primes, f, rel):
    """The primes P + (rel) of the ring of rel, one for each given prime P
    of the smaller ring with f not in P, sorted by canonical key as
    minimal_primes sorts.  rel is u*f - 1, or, with f = 1, c*u + b (c a
    nonzero constant, u not occurring in b) or 0.

    With A the smaller quotient, the bigger ring modulo P + (rel) is
    (A/P)[1/f], a domain, and the primes of A[1/f] are exactly the
    P A[1/f] with f not in P, in the same inclusions (Atiyah & Macdonald,
    Prop. 3.11(iv)).  So the minimal primes of A[1/f] are the images of
    those of A, and each keeps its `certified` flag.  With rel = 0 the
    bigger quotient is A[u] and P A[u] is prime, (A/P)[u] being a domain;
    a prime over J A[u] contracts to a prime of A over J, so the same
    images are again the minimal primes."""
    out = []
    for p in primes:
        if p.ideal.contains(f):
            continue
        out.append(PrimeIdeal(_extension(p.ideal.gens, rel), certified=p.certified))
    out.sort(key=lambda p: (len(p.key), p.key))
    return tuple(out)


def _elimination_step(J, gb):
    """Certify via an elimination presentation: with J' = J ∩ R' for the
    ring R' without u and J = J'R + (rel), R/J is (R'/J')[1/f], or
    (R'/J')[u] when u is free, so the primes of R'/J' with f outside them
    extend to the primes here
    (Gianni, Trager & Zacharias 1988; localized_primes).  A candidate whose
    smaller ring falls outside the fragment gives way to the next one; when
    none succeeds, the first such failure is raised.  Each shape has
    J = J'R + (rel), so only _check_elimination compares them: h in J is
    h(u = -b/c) in J' modulo c*u + b; modulo u*f - 1, h = (u*f)^d * h and
    f^d * h lies in J' for d = deg_u h; with rel = 0 the basis lies in J'."""
    ring = J.ring
    failure = None
    for u, f, rel in _elimination_shape(J, gb):
        small = eliminate(J, (ring.names[u],))
        try:
            below = minimal_primes(small)
        except DecompositionError as err:
            failure = failure or err
            continue
        out = localized_primes(below, transport(f, small.ring), rel)
        return Elimination(J, _extension(small.gens, rel), small, below, u, f, rel, out)
    if failure is not None:
        raise failure
    return None


def _process(J):
    """One decomposition step: J as a PrimeIdeal, a Split or an
    Elimination; or raise DecompositionError."""
    gb = J.groebner_basis()
    if all(g.total_degree() == 1 for g in gb):
        # linear (or zero): the quotient is a polynomial ring
        return PrimeIdeal(J)
    step = _split_on_factors(J)
    if step is not None:
        return step
    step = _elimination_step(J, gb)
    if step is not None:
        return step
    if krull_dim(J) == 0:
        return _zero_dim_step(J)
    step = _eliminant_split(J)
    if step is not None:
        return step
    raise DecompositionError(
        f"ideal shape outside the certification fragment: {J}")


# Minimal primes by ideal.  The cache lives for one top-level call: the
# outermost prime_cache_scope opens it, nested scopes share it, and it is
# dropped when that call returns, so a long-lived process keeps no answers.
_prime_cache_var = contextvars.ContextVar("chowcalc_prime_cache", default=None)


@contextmanager
def prime_cache_scope():
    """Share one cache of minimal primes among all calls inside the block;
    also usable as a decorator on an engine entry point."""
    cache = _prime_cache_var.get()
    if cache is not None:
        yield cache
        return
    cache = {}
    token = _prime_cache_var.set(cache)
    try:
        yield cache
    finally:
        _prime_cache_var.reset(token)


@prime_cache_scope()
def minimal_primes(I):
    """The minimal primes over I, certified, as a tuple sorted by canonical
    key.  Raises DecompositionError outside the supported fragment."""
    cache = _prime_cache_var.get()
    hit = cache.get(I)
    if hit is not None:
        return hit
    if I.is_unit():
        cache[I] = ()
        return ()
    root = I.key()
    tree = {}  # ideal key -> its step, in the order processed
    seen = {root}
    work = [(root, I)]
    while work:
        key, J = work.pop()
        step = tree[key] = _process(J)
        if isinstance(step, Split):
            # pushed in key order: the walk, and so the first failure it
            # meets, does not depend on the order or units of the factors
            branches = {B.key(): B for B in step.branches if not B.is_unit()}
            for k in sorted(branches.keys() - seen):
                seen.add(k)
                work.append((k, branches[k]))
    result = cache[I] = _audit_tree(I, tree)
    return result


def _audit_tree(I, tree):
    """The minimal primes over I, read off the tree minimal_primes walked
    (ideal key -> step, I's first), or DecompositionError unless the tree
    proves them.

    The checker trusts only what it re-checks (McConnell, Mehlhorn, Näher &
    Schweitzer, "Certifying algorithms", Computer Science Review 5, 2011),
    node by node:
      * a Split: _check_split, so V(J) is the union of its branches' loci;
      * an Elimination: _check_elimination, so every prime over J contains
        one of its primes;
      * a PrimeIdeal leaf: its own certificate of primality.
    Each non-unit branch is a node of the tree and strictly larger than its
    parent, so by induction every prime over I contains a leaf.  Leaves
    that properly contain another are dropped (_properly_contains); the
    survivors are pairwise incomparable and still cover I, and each must
    contain I's generators, which ties the answer to I without trusting the
    tree."""
    root = next(iter(tree.values()), None)
    if root is None or root.ideal != I:
        raise DecompositionError(f"the decomposition tree has no node for {I}")
    leaves = {}
    for step in tree.values():
        if isinstance(step, Split):
            _check_split(step, tree)
        elif isinstance(step, Elimination):
            _check_elimination(step)
            leaves.update((p.key, p) for p in step.primes)
        else:
            leaves[step.key] = step
    primes = list(leaves.values())
    survivors = [p for p in primes
                 if not any(_properly_contains(p, q) for q in primes)]
    survivors.sort(key=lambda p: (len(p.key), p.key))
    for p in survivors:
        for g in I.gens:
            if not p.ideal.contains(g):
                raise DecompositionError(f"component {p} misses the ideal")
    return tuple(survivors)


def _check_split(step, tree):
    """Reject unless the witness is a nonzero element of J (one normal
    form), its factors multiply to it up to a unit, and each branch is
    J + (q) on the generators, for its factor q, and is the unit ideal or a
    node of the tree other than J."""
    J, g = step.ideal, step.witness
    if g.is_zero() or not J.normal_form(g).is_zero():
        raise DecompositionError(f"split witness {g} is not a nonzero element of {J}")
    product = J.ring.one
    for q, e in step.factors:
        product = product * q ** e
    if product.monic() != g.monic():
        raise DecompositionError(f"the factors of {g} multiply to {product}")
    if len(step.branches) != len(step.factors):
        raise DecompositionError(
            f"the split of {J} has {len(step.branches)} branches for "
            f"{len(step.factors)} factors")
    for (q, _), B in zip(step.factors, step.branches):
        if B.gens != J.gens + (q,):
            raise DecompositionError(f"branch {B} is not {J} + ({q})")
        if B.is_unit():
            continue
        node = tree.get(B.key())
        if B == J or node is None or node.ideal != B:
            raise DecompositionError(f"branch {B} of {J} is not a larger node of the tree")


def _check_elimination(step):
    """Reject unless J = J'R + (rel), checked on the cached bases and on the
    canonical generators, rel is u*f - 1 or, with f = 1, c*u + b or 0, and
    `primes` are exactly the P + (rel) for the P in `below` with f outside
    P.  A prime Q over J then contracts to a prime over J', which contains
    some P of the audited `below`, and P + (rel) lies in Q; a dropped P
    holds f, which is a unit modulo u*f - 1 (Atiyah & Macdonald,
    Prop. 3.11(iv))."""
    J, rel, f = step.ideal, step.rel, step.f
    ring = J.ring
    if step.extended != J or step.extended.gens != _extension(step.small.gens, rel).gens:
        raise DecompositionError(f"{J} is not {step.small} extended by {rel}")
    if f.is_one():
        shaped = rel.is_zero() or step.u in _degree_one_alone(rel)
    else:
        shaped = rel + ring.one == ring.var(step.u) * f
    if not shaped:
        raise DecompositionError(f"{rel} does not eliminate {ring.names[step.u]}")
    images = {p.ideal.gens for p in step.primes}
    kept = 0
    for P in step.below:
        if _extension(P.ideal.gens, rel).gens in images:
            kept += 1
        elif not P.contains(transport(f, P.ring)):
            raise DecompositionError(f"component {P} of {step.small} is not carried to {J}")
    if kept != len(step.primes):
        raise DecompositionError(f"a component of {J} comes from no component of {step.small}")


def _properly_contains(p, q):
    """p ⊋ q.  A strict inclusion of primes strictly lowers the Krull
    dimension of the quotient, an affine domain (Eisenbud, Commutative
    Algebra, ch. 13), so two certified primes are compared only when p has
    the smaller dimension."""
    if p.key == q.key or (p.certified and q.certified and p.dim() >= q.dim()):
        return False
    return p.ideal.contains_ideal(q.ideal)


def _audit_decomposition(I, primes):
    """The full audit of assert_decomposition, whose ideals are trusted
    rather than certified and come without a tree (minimal_primes checks
    its tree instead, _audit_tree): reject unless every component contains
    I, no two are comparable (every pair is compared, since the dimension
    argument of _properly_contains needs primes), and the components cover
    I: p_1 ∩ ... ∩ p_r ⊆ rad(I).  An empty list is the unit ideal, so it
    covers only the unit ideal.  The covering is proved by
    _covers_by_rabinowitsch, which accepts exactly when the intersection
    lies in rad(I), whether or not the components are prime."""
    for p in primes:
        for g in I.gens:
            if not p.ideal.contains(g):
                raise DecompositionError(f"component {p} misses the ideal")
    for p, q in itertools.combinations(primes, 2):
        if p.ideal.contains_ideal(q.ideal) or q.ideal.contains_ideal(p.ideal):
            raise DecompositionError(f"comparable components {p} and {q}")
    if not _covers_by_rabinowitsch(I, [p.ideal for p in primes]):
        raise DecompositionError("components do not cover the ideal")


def _covers_by_rabinowitsch(I, ideals):
    """J_1 ∩ ... ∩ J_r ⊆ rad(I) by r - 1 eliminations, then one Rabinowitsch
    basis per generator of the intersection outside I; a generator already
    in I costs one normal form."""
    if not ideals:
        return I.is_unit()
    total = ideals[0]
    for J in ideals[1:]:
        total = intersect(total, J)
    return all(I.contains(g) or in_radical(g, I) for g in total.gens)


def is_prime(I):
    """Certified primality: I equals its single minimal prime."""
    primes = minimal_primes(I)
    return len(primes) == 1 and primes[0].ideal == I


def assert_decomposition(I, ideals):
    """Escape hatch: trust primality of the given ideals, but still audit
    containment, incomparability of every pair and covering from scratch
    (see _audit_decomposition)."""
    primes = tuple(PrimeIdeal(J, certified=False) for J in ideals)
    _audit_decomposition(I, primes)
    return primes


# ---------------------------------------------------------------------------
# local lengths and ranks: dimensions over k(x_S), S a largest independent
# set of the prime, of modules that live at the prime alone

def _fiber_order(ring, U):
    """The ring order of the count over k(x_S), S the variables outside U:
    the ring's own order when S is empty, else the one eliminating U."""
    return ring.order if len(U) == ring.nvars else elimination_order(U, ring.nvars)


def _fiber_key(ring, rank, U):
    """The module order of the count over k(x_S): term over position on
    _fiber_order, so U-parts decide first.  With N M's relations in
    k[x_S][x_U]^r, r = rank, V_a is the k[x_S]-module of the coefficient
    vectors at x_U^a of the elements of N with greatest U-part x_U^a.  Such
    an element is led by x_U^a times its vector's lead, so the S-parts and
    positions of the leads of the basis elements whose U-part divides
    x_U^a generate V_a's initial module.  That has V_a's rank, the number
    of positions holding a lead; so dim M tensor k(x_S) =
    sum_a (r - rank V_a) counts the standard (U-monomial, position) pairs."""
    return module_order(_fiber_order(ring, U), rank).key


def _fiber_count(lead, rank, U):
    """The number of standard (position, U-exponents) pairs, given the
    leading (position, exponents) pairs of a basis, counted by
    _standard_columns and never listed; None when there are infinitely
    many."""
    total = 0
    for a in range(rank):
        columns = _standard_columns([tuple(e[i] for i in U) for pos, e in lead if pos == a],
                                    len(U), _VDIM_BOUND)
        if columns is None:
            return None
        total += sum(k for _, k in columns)
    return total


def _fiber_dimension(base, gens, M, U):
    """dim over k(x_S) of M / (gens) M tensor k(x_S), S the variables
    outside U, or None when infinite; `base` is M's relation basis under
    _fiber_order (M.basis)."""
    key = _fiber_key(M.ring, M.rank, U)
    vectors = list(base) + [vec_from_polys(v.coords, key)
                            for v in unit_multiples(gens, M.ring, M.rank)]
    return _fiber_count([v[0][0] for v in buchberger(vectors, key, M.ring.field)],
                        M.rank, U)


def residue_degree(lead, U):
    """[k(p):k(x_S)] for a prime p and a largest independent set S of p, U
    the variables outside S: the number of standard U-monomials of `lead`,
    the leading exponents of p's basis under an order eliminating U (any
    order when U is every variable).  That basis is one of p over k(x_S),
    led there by the U-parts of its leading monomials (Gianni, Trager &
    Zacharias 1988), and p k(x_S)[x_U] is the maximal ideal with residue
    field k(p).  None when the count is infinite."""
    return _fiber_count([(0, e) for e in lead], 1, U)


def _fiber_degree(q, U):
    """[k(q):k(x_S)], S the variables outside U, when q meets k[x_S] in 0
    and has dimension |S|; 0 when q meets k[x_S] in more than 0; None when
    q meets it in 0 with dimension above |S|.  A prime meeting k[x_S] in 0
    has dimension at least |S|, and under the order eliminating U a basis
    element led by an S-monomial lies in k[x_S]."""
    if q.dim() < q.ring.nvars - len(U):
        return 0
    lead = q.ideal.leading_exponents(_fiber_order(q.ring, U))
    if any(not any(e[i] for i in U) for e in lead):
        return 0
    return residue_degree(lead, U)


def _length_by_additivity(whole, p, U, components, full_support):
    """length(M_p) read off whole = dim M tensor k(x_S), or None when
    neither rule applies; `components` are the minimal primes of a closed
    set containing Supp M, and `full_support` says each lies in Supp M.

    Finite `whole` is the sum of length(M_P) * [k(P):k(x_S)] over the P in
    Supp M meeting k[x_S] in 0, each of dimension |S| (Atiyah & Macdonald,
    Thm 8.7 and Ex. 3.19 (v), (vii)).  Each such P contains a listed prime
    meeting k[x_S] in 0; when no listed one has dimension above |S| (the
    guard), that listed prime is P itself.  So when p is the only listed
    prime at k(x_S), the length is whole / [k(p):k(x_S)].  When every
    listed prime is in Supp M, each one at k(x_S) adds at least its degree
    to whole; if those degrees sum to whole, each length is 1."""
    degrees = {q: _fiber_degree(q, U) for q in components}
    if None in degrees.values() or not degrees.get(p):
        return None
    at_fiber = [d for d in degrees.values() if d]
    if len(at_fiber) == 1:
        return _per_residue_degree(whole, p, U)
    if full_support and sum(at_fiber) == whole:
        return 1
    return None


def _per_residue_degree(count, p, U):
    """count / [k(p):k(x_S)]."""
    degree = residue_degree(p.ideal.leading_exponents(_fiber_order(p.ring, U)), U)
    if count % degree:
        raise ConsistencyError(
            f"dimension {count} at {p} is not a multiple of its residue degree {degree}")
    return count // degree


def generic_rank(M, p):
    """Rank of M at the generic point of V(p): dim over k(p) of M / pM
    there, the count of M / pM over k(x_S) divided by [k(p):k(x_S)]."""
    U = tuple(i for i in range(p.ring.nvars) if i not in p.independent_set())
    basis = M.basis(_fiber_order(M.ring, U))
    return _per_residue_degree(_fiber_dimension(basis, p.gens, M, U), p, U)


def length_at_prime(M, p, max_steps=60, components=None, full_support=False):
    """Length of the localization of M at p (p minimal over Ann M).

    With S a largest independent set of p, the count of M tensor k(x_S)
    alone answers when it is 0, and when `components` (the minimal primes
    of a closed set containing Supp M, each in Supp M if full_support)
    lets _length_by_additivity read the length off it.

    Otherwise: every prime above p meets k[x_S], so M / p^N M tensor
    k(x_S) lives at p alone: its dimension over k(x_S) is [k(p):k(x_S)] *
    length(M_p / p^N M_p).  These counts grow with N and never pass the
    count of M itself; once one repeats, or reaches M's, p^N M_p = 0
    (Nakayama) and it gives the length.  No stop within max_steps means p
    was not minimal over the annihilator or the length is at least
    max_steps, reported as HypothesisError.

    At a closed point (S empty: p has dimension 0) with M of finite
    dimension over k, the counts come from M's cached basis alone
    (_closed_point_length)."""
    ring = M.ring
    U = tuple(i for i in range(ring.nvars) if i not in p.independent_set())
    closed = len(U) == ring.nvars
    basis = M.basis(_fiber_order(ring, U))
    whole = _fiber_count([v[0][0] for v in basis], M.rank, U)
    if whole == 0:
        return 0
    if whole is not None and components is not None:
        length = _length_by_additivity(whole, p, U, components, full_support)
        if length is not None:
            return length
    if closed and whole is not None:
        return _closed_point_length(M, p, U, basis, max_steps)
    power = (ring.one,)
    dim = 0
    for _ in range(max_steps):
        power = tuple({q.terms: q for q in (g * h for g in power for h in p.gens)}.values())
        prev, dim = dim, _fiber_dimension(basis, power, M, U)
        if dim in (prev, whole):
            return _per_residue_degree(dim, p, U)
    raise _unstable(p, max_steps)


def _closed_point_length(M, p, U, basis, max_steps):
    """length_at_prime at a closed point p, U all the variables, M of
    finite dimension D over k with reduced `basis`.

    V_0 is the span of the D standard vectors, which is M itself, and V_N
    the echelon span of the normal forms of g*v for g in p's basis and v in
    V_(N-1): an R-submodule, so V_N = p^N M and the count of M / p^N M is
    D - dim V_N.  The count repeats exactly when dim V_N does, and reaches
    M's exactly when V_N is empty (Cox, Little & O'Shea, Using Algebraic
    Geometry, ch. 2 §2 and ch. 4 §2)."""
    key = _fiber_key(M.ring, M.rank, U)
    field = M.ring.field
    lead = [v[0][0] for v in basis]
    span = [(((a, e), 1),)  # working vectors: 1 in either field
            for a in range(M.rank) for e in standard_exponents(
                [x for pos, x in lead if pos == a], M.ring.nvars, _VDIM_BOUND)]
    whole = len(span)
    for _ in range(max_steps):
        prev = len(span)
        span = span_times(span, p.gens, basis, key, field)
        if len(span) in (prev, 0):
            return _per_residue_degree(whole - len(span), p, U)
    raise _unstable(p, max_steps)


def _unstable(p, max_steps):
    return HypothesisError(
        f"length at {p} did not stabilize after {max_steps} steps: either "
        "the prime is not minimal over the annihilator or the length there "
        f"is at least {max_steps}")
