"""Finitely presented modules, syzygies, free resolutions and Tor.

A module over a chart algebra A = R/J is presented over the polynomial ring R
with J folded into every relation list, so one Gröbner engine serves both the
polynomial ring and its quotients.  Syzygies, coefficient modules and
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
    """coker of the relation matrix: A^rank / span(relations).

    `bases` keeps reduced bases of the relations per chart ideal and order,
    filled by `primes.length_at_prime`, so every component of one module
    reads one basis; they live as long as the module."""

    def __init__(self, ring, rank, relations=()):
        self.ring = ring
        self.rank = rank
        rels = [_as_element(ring, rank, v) for v in relations]
        self.relations = tuple(v for v in rels if not v.is_zero())
        self.bases = {}

    @classmethod
    def free(cls, ring, rank):
        return cls(ring, rank, ())

    @classmethod
    def cyclic(cls, ideal):
        """Presentation of ring/ideal."""
        return cls(ideal.ring, 1, [FreeModuleElement(ideal.ring, (g,)) for g in ideal.gens])

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


def module_basis(vectors, rank, ring, modulo=None):
    """Reduced module Gröbner basis of the span (with J folded in)."""
    vecs = list(vectors) + fold_modulo(modulo, ring, rank)
    order = module_order(ring.order, rank)
    raw = [vec_from_polys(v.coords, order.key) for v in vecs]
    basis = buchberger(raw, order.key, ring.field)
    return [FreeModuleElement(ring, vec_to_polys(v, rank, ring)) for v in basis]


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


def free_resolution(M, modulo=None, max_length=None, partial=False):
    """Free resolution of M over ring/modulo by iterated syzygies.

    Only M's relations need a module_basis.  `syzygies` returns the
    witness-block part of a reduced split-order basis, which is the reduced
    basis of the syzygy module under module_order(ring.order, m), and that
    module already contains J*R^m: folding J in again and reducing would
    return the same list.

    Raises ResolutionError when max_length is hit, unless partial=True (used
    by Tor, which only needs a truncation)."""
    ring = M.ring
    if max_length is None:
        max_length = ring.nvars + 6
    kill = Ideal(ring, ()) if modulo is None else modulo

    def significant(vectors):
        return [v for v in vectors
                if not all(kill.normal_form(c).is_zero() for c in v.coords)]

    ranks = [M.rank]
    mats = []
    current = significant(module_basis(M.relations, M.rank, ring, modulo=modulo))
    while current:
        if len(mats) >= max_length:
            if partial:
                break
            raise ResolutionError(
                f"free resolution exceeded max_length={max_length} without terminating")
        mats.append(current)
        ranks.append(len(current))
        current = significant(syzygies(current, ranks[-2], ring, modulo=modulo))
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


def tor_modules(M, N, modulo=None, up_to=None):
    """[Tor_0(M, N), ..., Tor_up_to(M, N)] over ring/modulo as FPModules."""
    ring = M.ring
    if N.ring != ring:
        raise RingMismatchError("Tor of modules over different rings")
    if up_to is None:
        up_to = ring.nvars
    res = free_resolution(M, modulo=modulo, max_length=up_to + 1, partial=True)
    out = []
    for i in range(up_to + 1):
        if i > res.length():
            out.append(FPModule(ring, 0, ()))
            continue
        rank_i = res.ranks[i] * N.rank
        u_here = _slot_relations(N, res.ranks[i], ring)
        boundary = _tensor_columns(res.mats[i], N, ring) if i < res.length() else []
        if i == 0:
            out.append(FPModule(ring, rank_i, boundary + u_here))
            continue
        d_cols = _tensor_columns(res.mats[i - 1], N, ring)
        u_prev = _slot_relations(N, res.ranks[i - 1], ring)
        kernel = coefficient_module(d_cols, u_prev, res.ranks[i - 1] * N.rank,
                                    ring, modulo=modulo)
        rels = coefficient_module(kernel, boundary + u_here, rank_i, ring, modulo=modulo)
        out.append(FPModule(ring, len(kernel), rels))
    return out


def annihilator(M, modulo=None):
    """Ann(M) over ring/modulo, as an ideal of the polynomial ring
    (contains the chart ideal): the c with c*e_a in relations + J*A^rank
    for every a."""
    ring = M.ring
    units = block_copies([(ring.one,)], 1, M.rank, ring)  # e_1, ..., e_rank
    rels = [v.coords for v in list(M.relations) + fold_modulo(modulo, ring, M.rank)]
    return colon(units, rels, M.rank, ring)
