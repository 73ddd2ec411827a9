"""Finite correspondences between charts and their composition calculus.

A correspondence from X to Y is a cycle on the product chart X x Y in the
codimension of Y; it is elementary when every component is finite and
dominant over X.  Composition pulls two correspondences back to the triple
product, intersects them there, and pushes down along the projection that
forgets the middle factor.  Finiteness over the image is verified during
the pushforward rather than assumed, so non-composable inputs fail loudly.
"""

from .errors import EngineError
from .geometry import Chart, cycle_of_subscheme, transport_cycle
from .groebner import Ideal
from .intersection import intersection_product
from .morphisms import ChartMap, flat_pullback, proper_pushforward, zariski_image
from .polyring import PolynomialRing, fresh_names, transport
from .primes import PrimeIdeal, prime_cache_scope


class ProductChart:
    """X x Y with its renaming bookkeeping and the two flat projections."""

    def __init__(self, left, right):
        if left.ring.field != right.ring.field:
            raise EngineError("product of charts over different fields")
        taken = set()
        lnames = fresh_names(left.ring.names, taken, "_r")
        rnames = fresh_names(right.ring.names, taken, "_r")
        ring = PolynomialRing(left.ring.field, lnames + rnames)
        self.left = left
        self.right = right
        self.left_rename = dict(zip(left.ring.names, lnames))
        self.right_rename = dict(zip(right.ring.names, rnames))
        gens = [transport(g, ring, self.left_rename) for g in left.ideal.gens]
        gens += [transport(g, ring, self.right_rename) for g in right.ideal.gens]
        self.chart = Chart(f"{left.name}x{right.name}", ring, Ideal(ring, gens))
        self.to_left = ChartMap(
            self.chart, left,
            {nm: self.left_rename[nm] for nm in left.ring.names}, flat=True)
        self.to_right = ChartMap(
            self.chart, right,
            {nm: self.right_rename[nm] for nm in right.ring.names}, flat=True)

    def __eq__(self, other):
        return (isinstance(other, ProductChart) and other.left == self.left
                and other.right == self.right)

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"<product {self.chart.name}>"


class Correspondence:
    """A cycle on X x Y in the codimension of Y."""

    def __init__(self, product, cycle):
        expected = product.chart.dim() - product.left.dim()
        if cycle.chart != product.chart:
            raise EngineError("correspondence cycle lives off the product chart")
        if cycle.grade != expected:
            raise EngineError(
                f"correspondence cycle has grade {cycle.grade}, "
                f"expected {expected}")
        self.product = product
        self.cycle = cycle
        self.source = product.left
        self.target = product.right

    @classmethod
    def from_gens(cls, product, gens):
        expected = product.chart.dim() - product.left.dim()
        I = Ideal(product.chart.ring, gens)
        return cls(product, cycle_of_subscheme(I, product.chart, grade=expected))

    def is_elementary(self):
        """Every component finite and dominant over the source."""
        for p in self.cycle.support():
            W = Chart(f"comp({p})", self.product.chart.ring, p.ideal)
            to_src = ChartMap(
                W, self.source,
                {nm: self.product.left_rename[nm]
                 for nm in self.source.ring.names})
            if not to_src.is_finite():
                return False
            if zariski_image(to_src) + self.source.ideal != self.source.ideal:
                return False
        return True

    def transpose(self):
        flipped = ProductChart(self.product.right, self.product.left)
        ring = flipped.chart.ring
        images = {}
        for nm in self.source.ring.names:
            images[self.product.left_rename[nm]] = ring.parse(flipped.right_rename[nm])
        for nm in self.target.ring.names:
            images[self.product.right_rename[nm]] = ring.parse(flipped.left_rename[nm])
        moved = transport_cycle(self.cycle, flipped.chart, images)
        return Correspondence(flipped, moved)

    def __add__(self, other):
        if not isinstance(other, Correspondence) or other.product != self.product:
            return NotImplemented
        return Correspondence(self.product, self.cycle + other.cycle)

    def __sub__(self, other):
        if not isinstance(other, Correspondence) or other.product != self.product:
            return NotImplemented
        return Correspondence(self.product, self.cycle - other.cycle)

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return Correspondence(self.product, n * self.cycle)

    __mul__ = __rmul__

    def __eq__(self, other):
        return (isinstance(other, Correspondence)
                and other.product == self.product and other.cycle == self.cycle)

    def __hash__(self):
        return hash((self.product, self.cycle))

    def __str__(self):
        return f"{self.source.name} => {self.target.name}: {self.cycle}"

    __repr__ = __str__


def graph(f):
    """The graph of a chart map as a correspondence from its source to its
    target; always elementary (it projects isomorphically to the source)."""
    prod = ProductChart(f.source, f.target)
    ring = prod.chart.ring
    gens = []
    for nm in f.target.ring.names:
        gens.append(ring.parse(prod.right_rename[nm])
                    - transport(f.images[nm], ring, prod.left_rename))
    return Correspondence.from_gens(prod, gens)


def identity_correspondence(chart):
    from .morphisms import identity_map
    return graph(identity_map(chart))


@prime_cache_scope()
def compose(first, second):
    """first: X => Y followed by second: Y => Z, giving X => Z.

    Pull both cycles back to X x Y x Z, intersect, and push forward along
    the projection that forgets Y; per-component finiteness over the image
    is verified by the pushforward."""
    if first.target != second.source:
        raise EngineError(
            f"cannot chain {first.target.name} => with => {second.source.name}")
    X, Y, Z = first.source, first.target, second.target
    taken = set()
    xn = fresh_names(X.ring.names, taken, "_r")
    yn = fresh_names(Y.ring.names, taken, "_r")
    zn = fresh_names(Z.ring.names, taken, "_r")
    ring = PolynomialRing(X.ring.field, xn + yn + zn)
    x_ren = dict(zip(X.ring.names, xn))
    y_ren = dict(zip(Y.ring.names, yn))
    z_ren = dict(zip(Z.ring.names, zn))
    gens = [transport(g, ring, x_ren) for g in X.ideal.gens]
    gens += [transport(g, ring, y_ren) for g in Y.ideal.gens]
    gens += [transport(g, ring, z_ren) for g in Z.ideal.gens]
    T = Chart(f"{X.name}x{Y.name}x{Z.name}", ring, Ideal(ring, gens))

    pXY, pYZ = first.product, second.product
    images_xy = {pXY.left_rename[nm]: x_ren[nm] for nm in X.ring.names}
    images_xy.update({pXY.right_rename[nm]: y_ren[nm] for nm in Y.ring.names})
    proj_xy = ChartMap(T, pXY.chart, images_xy, flat=True)
    images_yz = {pYZ.left_rename[nm]: y_ren[nm] for nm in Y.ring.names}
    images_yz.update({pYZ.right_rename[nm]: z_ren[nm] for nm in Z.ring.names})
    proj_yz = ChartMap(T, pYZ.chart, images_yz, flat=True)

    meet = intersection_product(flat_pullback(proj_xy, first.cycle),
                                flat_pullback(proj_yz, second.cycle))

    out = ProductChart(X, Z)
    images_xz = {out.left_rename[nm]: x_ren[nm] for nm in X.ring.names}
    images_xz.update({out.right_rename[nm]: z_ren[nm] for nm in Z.ring.names})
    proj_xz = ChartMap(T, out.chart, images_xz, flat=True)
    return Correspondence(out, proper_pushforward(proj_xz, meet))


@prime_cache_scope()
def correspondence_degree(c):
    """Total degree over the source: the multiplicity of the generic point
    of the (integral) source under the left projection."""
    if not c.source.is_integral():
        raise EngineError("correspondence degree needs an integral source")
    pushed = proper_pushforward(c.product.to_left, c.cycle)
    generic = PrimeIdeal(c.source.ideal)
    return pushed.coeffs.get(generic, 0)
