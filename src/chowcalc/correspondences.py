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
from .morphisms import (ChartMap, ProductChart, flat_pullback, identity_map,
                        proper_pushforward, zariski_image)
from .polyring import transport
from .primes import PrimeIdeal, prime_cache_scope


def _grade(product):
    """The codimension of every correspondence on X x Y: the dimension of Y."""
    return product.chart.dim() - product.factors[0].dim()


class Correspondence:
    """A cycle on X x Y in the codimension of Y."""

    def __init__(self, product, cycle):
        if len(product.factors) != 2:
            raise EngineError("a correspondence needs a product of two charts")
        if cycle.chart != product.chart:
            raise EngineError("correspondence cycle lives off the product chart")
        if cycle.grade != _grade(product):
            raise EngineError(
                f"correspondence cycle has grade {cycle.grade}, "
                f"expected {_grade(product)}")
        self.product = product
        self.cycle = cycle
        self.source, self.target = product.factors

    @classmethod
    def from_gens(cls, product, gens):
        I = Ideal(product.chart.ring, gens)
        return cls(product, cycle_of_subscheme(I, product.chart,
                                               grade=_grade(product)))

    def is_elementary(self):
        """Every component finite and dominant over the source."""
        for p in self.cycle.support():
            W = Chart(f"comp({p})", self.product.chart.ring, p.ideal)
            to_src = ChartMap(W, self.source, self.product.renames[0])
            if not to_src.is_finite():
                return False
            if zariski_image(to_src) + self.source.ideal != self.source.ideal:
                return False
        return True

    def transpose(self):
        flipped = ProductChart(self.target, self.source)
        images = flipped.onto(self.product, (1, 0)).images
        return Correspondence(flipped,
                              transport_cycle(self.cycle, flipped.chart, images))

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
    target: the product chart's relations plus each (renamed) target
    coordinate minus its image.  Always elementary (it projects
    isomorphically to the source)."""
    prod = ProductChart(f.source, f.target)
    P = prod.chart.ring
    to_x, to_y = prod.renames
    gens = list(prod.chart.ideal.gens)
    gens += [P.var(to_y[nm]) - transport(f.images[nm], P, to_x)
             for nm in f.target.ring.names]
    return Correspondence.from_gens(prod, gens)


def identity_correspondence(chart):
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
    T = ProductChart(first.source, first.target, second.target)
    meet = intersection_product(
        flat_pullback(T.onto(first.product, (0, 1)), first.cycle),
        flat_pullback(T.onto(second.product, (1, 2)), second.cycle))
    out = ProductChart(first.source, second.target)
    return Correspondence(out, proper_pushforward(T.onto(out, (0, 2)), meet))


@prime_cache_scope()
def correspondence_degree(c):
    """Total degree over the source: the multiplicity of the generic point
    of the (integral) source under the left projection."""
    if not c.source.is_integral():
        raise EngineError("correspondence degree needs an integral source")
    pushed = proper_pushforward(c.product.projection(0), c.cycle)
    generic = PrimeIdeal(c.source.ideal)
    return pushed.coeffs.get(generic, 0)
