"""Finitely presented modules, syzygies, free resolutions and Tor.

A module over a chart algebra A = R/J carries J (`FPModule.modulo`) and is
presented over the polynomial ring R, so one Gröbner engine serves both the
polynomial ring and its quotients: `FPModule.basis` folds J * A^rank into
the relations, once per order.  Syzygies, coefficient modules and
annihilators call the witness-trick kernel of `groebner` (`witness_syzygies`
and `colon`) on coordinate tuples; this module converts, folds J and names
the coefficient variables.  Resolutions iterate syzygies; Tor is the
homology of a resolution tensored with the second module.
"""

from .errors import EngineError, ResolutionError, RingMismatchError
from .groebner import (Ideal, block_copies, buchberger, colon, module_order,
                       vec_from_polys, vec_to_polys, witness_syzygies)


class FreeModuleElement:
    """An element of R^rank: a tuple of polynomial coordinates."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        coords = tuple(coords)
        for c in coords:
            if c.ring != ring:
                raise RingMismatchError("coordinate from a different ring")
        self.ring = ring
        self.coords = coords

    @property
    def rank(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __add__(self, other):
        return FreeModuleElement(self.ring, (a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return FreeModuleElement(self.ring, (a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FreeModuleElement(self.ring, (-a for a in self.coords))

    def scale(self, p):
        return FreeModuleElement(self.ring, (p * a for a in self.coords))

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, FreeModuleElement)
                and other.ring == self.ring and other.coords == self.coords)

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"<vec {self}>"


def _as_element(ring, rank, v):
    if isinstance(v, FreeModuleElement):
        if v.rank != rank:
            raise EngineError(f"rank mismatch: {v.rank} != {rank}")
        return v
    coords = []
    for c in v:
        coords.append(ring.parse(c) if isinstance(c, str) else c)
    if len(coords) != rank:
        raise EngineError(f"rank mismatch: {len(coords)} != {rank}")
    return FreeModuleElement(ring, coords)


class FPModule:
    """coker of the relation matrix: A^rank / span(relations), over the
    chart algebra A = ring/J, J = modulo (the zero ideal when None).

    `basis` is the one place where the relations meet J * A^rank; it keeps
    the reduced basis per order, so a resolution and every count of
    `primes.length_at_prime` on one module read one basis."""

    def __init__(self, ring, rank, relations=(), modulo=None):
        if modulo is None:
            modulo = Ideal(ring, ())
        elif modulo.ring != ring:
            raise RingMismatchError("chart ideal from a different ring")
        self.ring = ring
        self.rank = rank
        self.modulo = modulo
        rels = [_as_element(ring, rank, v) for v in relations]
        self.relations = tuple(v for v in rels if not v.is_zero())
        self._bases = {}

    @classmethod
    def free(cls, ring, rank, modulo=None):
        return cls(ring, rank, (), modulo)

    @classmethod
    def cyclic(cls, ideal, modulo=None):
        """Presentation of A/ideal."""
        return cls(ideal.ring, 1, [(g,) for g in ideal.gens], modulo)

    def basis(self, order=None):
        """The reduced basis of the relations and J * e_a, as engine vectors
        under term over position on `order` (the ring's by default), built
        once per order like an Ideal's."""
        order = order or self.ring.order
        if order.tag not in self._bases:
            key = module_order(order, self.rank).key
            rels = list(self.relations) + fold_modulo(self.modulo, self.ring, self.rank)
            self._bases[order.tag] = buchberger(
                [vec_from_polys(v.coords, key) for v in rels], key, self.ring.field)
        return self._bases[order.tag]

    def __repr__(self):
        return f"<module rank {self.rank}, {len(self.relations)} relations over {self.ring}>"


def unit_multiples(gens, ring, rank):
    """g * e_a for every g in gens and a < rank, g in the outer loop."""
    zero = (ring.zero,) * rank
    return [FreeModuleElement(ring, zero[:a] + (g,) + zero[a + 1:])
            for g in gens for a in range(rank)]


def fold_modulo(modulo, ring, rank):
    """J * e_a relation copies for working over R/J."""
    return [] if modulo is None else unit_multiples(modulo.gens, ring, rank)


def coefficient_module(targets, ambient, rank, ring, modulo=None, coeff_names=None):
    """Generators of {(c_1..c_m) : sum c_t * targets_t in span(ambient) + J*A^rank}.

    With coeff_names given, only coefficient vectors lying in the subring on
    those variables are returned (and they generate the restricted module
    over that subring: module elimination).
    """
    targets = [_as_element(ring, rank, t).coords for t in targets]
    ambient = [_as_element(ring, rank, u).coords
               for u in list(ambient) + fold_modulo(modulo, ring, rank)]
    keep = None if coeff_names is None else {ring.index_of(nm) for nm in coeff_names}
    return [FreeModuleElement(ring, c)
            for c in witness_syzygies(targets, ambient, rank, ring, keep)]


def syzygies(vectors, rank, ring, modulo=None):
    """Generators of the syzygy module of `vectors` over ring/modulo."""
    return coefficient_module(vectors, [], rank, ring, modulo=modulo)


class Complex:
    """... -> A^{ranks[i]} --mats[i-1]--> A^{ranks[i-1]} -> ... -> A^{ranks[0]}

    mats[i] is the list of columns of d_{i+1} (each a FreeModuleElement of
    rank ranks[i]).  `complete` records whether the syzygies were exhausted.
    """

    def __init__(self, ring, ranks, mats, complete):
        self.ring = ring
        self.ranks = list(ranks)
        self.mats = list(mats)
        self.complete = complete

    def length(self):
        return len(self.mats)


def free_resolution(M, max_length=None, partial=False):
    """Free resolution of M over its algebra A = ring/J by iterated syzygies.

    Only M's relations need a basis (M.basis).  `syzygies` returns the
    witness-block part of a reduced split-order basis, which is the reduced
    basis of the syzygy module under module_order(ring.order, m), and that
    module already contains J*R^m: folding J in again and reducing would
    return the same list.

    Raises ResolutionError when max_length is hit, unless partial=True (used
    by Tor, which only needs a truncation)."""
    ring = M.ring
    if max_length is None:
        max_length = ring.nvars + 6

    def significant(vectors):
        return [v for v in vectors if not all(map(M.modulo.contains, v.coords))]

    ranks = [M.rank]
    mats = []
    current = significant([FreeModuleElement(ring, vec_to_polys(v, M.rank, ring))
                           for v in M.basis()])
    while current:
        if len(mats) >= max_length:
            if partial:
                break
            raise ResolutionError(
                f"free resolution exceeded max_length={max_length} without terminating")
        mats.append(current)
        ranks.append(len(current))
        current = significant(syzygies(current, ranks[-2], ring, modulo=M.modulo))
    return Complex(ring, ranks, mats, not current)


def _slot_relations(N, slots, ring):
    """N.relations, as tuples, copied into each of `slots` blocks of size N.rank."""
    return block_copies([rel.coords for rel in N.relations], N.rank, slots, ring)


def _tensor_columns(cols, N, ring):
    """Columns of d tensor id_N on free covers.

    d, a matrix of free_resolution, has `len(cols)` > 0 columns in
    A^{target_rank}; the tensored map sends basis vector (t, b) to the
    vector with col_t[a] placed at (a, b)."""
    target_rank = cols[0].rank
    out = []
    for t, col in enumerate(cols):
        for b in range(N.rank):
            coords = [ring.zero] * (target_rank * N.rank)
            for a in range(target_rank):
                coords[a * N.rank + b] = col[a]
            out.append(FreeModuleElement(ring, coords))
    return out


def tor_modules(M, N, up_to=None):
    """[Tor_0(M, N), ..., Tor_up_to(M, N)] over the algebra of M and N, as
    FPModules over it.  Raises RingMismatchError when M and N are modules
    over different algebras."""
    ring = M.ring
    if N.modulo != M.modulo:
        raise RingMismatchError("Tor of modules over different algebras")
    if up_to is None:
        up_to = ring.nvars
    res = free_resolution(M, max_length=up_to + 1, partial=True)
    out = []
    for i in range(up_to + 1):
        if i > res.length():
            out.append(FPModule(ring, 0, (), M.modulo))
            continue
        rank_i = res.ranks[i] * N.rank
        u_here = _slot_relations(N, res.ranks[i], ring)
        boundary = _tensor_columns(res.mats[i], N, ring) if i < res.length() else []
        if i == 0:
            out.append(FPModule(ring, rank_i, boundary + u_here, M.modulo))
            continue
        d_cols = _tensor_columns(res.mats[i - 1], N, ring)
        u_prev = _slot_relations(N, res.ranks[i - 1], ring)
        kernel = coefficient_module(d_cols, u_prev, res.ranks[i - 1] * N.rank,
                                    ring, modulo=M.modulo)
        rels = coefficient_module(kernel, boundary + u_here, rank_i, ring, modulo=M.modulo)
        out.append(FPModule(ring, len(kernel), rels, M.modulo))
    return out


def annihilator(M):
    """Ann(M) over M's algebra, as an ideal of the polynomial ring
    (contains the chart ideal J): the c with c*e_a in the span of M.basis()
    for every a."""
    ring = M.ring
    units = block_copies([(ring.one,)], 1, M.rank, ring)  # e_1, ..., e_rank
    rels = [vec_to_polys(v, M.rank, ring) for v in M.basis()]
    return colon(units, rels, M.rank, ring)
