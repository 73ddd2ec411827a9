"""Charts, cycles, Cartier divisors, and glued spaces.

A chart is Spec of a finitely presented algebra over the base field,
presented as ring/ideal.  Cycles are integer combinations of certified
prime ideals of fixed codimension on a chart.  Charts glue along principal
localizations; the gluing data is a pair of variable-image dictionaries
checked to be mutually inverse ring isomorphisms, and cycles on a glued
space can be audited for consistency on the overlaps.

A localized chart remembers its parent, the inverted element f and the
relation u*f - 1.  Its minimal primes are the P + (u*f - 1) for the parent's
minimal primes P with f not in P: the primes of A[1/f] are the P A[1/f]
with f not in P, in the same inclusions (Atiyah & Macdonald, Prop.
3.11(iv)), and each is prime because (A/P)[1/f] is a domain.  So the
parent's certified, audited list is extended, not decomposed or audited
anew; only when the parent's decomposition raises DecompositionError does
the child decompose its own ideal.  restrict_cycle applies the same rule
along the recorded parents, and rejects a chart that is not a localization
of the cycle's chart; glue_cycles rejects a cycle keyed by a chart it does
not live on.
"""

from itertools import combinations

from .errors import (ConsistencyError, DecompositionError, EngineError, GlueError,
                     HypothesisError, RingMismatchError)
from .groebner import Ideal, divide_exact, is_regular_element, krull_dim
from .homology import FPModule, annihilator
from .polyring import PolynomialRing, fresh_names, transport
from .primes import (PrimeIdeal, length_at_prime, localized_primes,
                     minimal_primes, prime_cache_scope, vector_space_dimension)


class Chart:
    """An affine chart ring/ideal with cached geometry."""

    def __init__(self, name, ring, ideal=()):
        if not isinstance(ideal, Ideal):
            ideal = Ideal(ring, ideal)
        if ideal.ring != ring:
            raise RingMismatchError("chart ideal from a different ring")
        if ideal.is_unit():
            raise EngineError(f"chart {name!r} would be empty")
        self.name = name
        self.ring = ring
        self.ideal = ideal
        self._dim = None
        self._components = None
        self._regular = -1
        self._origin = None  # (parent chart, f, u*f - 1) when made by localize

    def dim(self):
        if self._dim is None:
            self._dim = krull_dim(self.ideal)
        return self._dim

    def components(self):
        """The minimal primes of the chart ideal.  A chart made by localize
        takes its parent's, extended by localized_primes, and decomposes its
        own ideal only when the parent's raises DecompositionError."""
        if self._components is None and self._origin is not None:
            parent, f, rel = self._origin
            try:
                primes = parent.components()
            except DecompositionError:
                pass  # the parent lies outside the fragment; the child may not
            else:
                self._components = localized_primes(primes, f, rel)
        if self._components is None:
            self._components = minimal_primes(self.ideal)
        return self._components

    def is_integral(self):
        comps = self.components()
        return len(comps) == 1 and comps[0].ideal == self.ideal

    def is_regular(self):
        """Jacobian criterion for complete-intersection presentations;
        None when the presentation is not a complete intersection."""
        if self._regular == -1:
            self._regular = self._regular_check()
        return self._regular

    def _regular_check(self):
        gens = self.ideal.groebner_basis()
        if not gens:
            return True
        c = self.ring.nvars - self.dim()
        if len(gens) != c:
            return None
        minors = _jacobian_minors(gens, self.ring, c)
        return (self.ideal + Ideal(self.ring, minors)).is_unit()

    def localize(self, f, inv_name=None, name=None):
        """The chart with f inverted: adjoin u with u*f = 1.

        The inverse variable is `inv_name`, or by default u, with "_"
        appended while the name is taken.  The child records this chart, f
        and u*f - 1, so its components() and restrict_cycle extend this
        chart's primes rather than decompose anew."""
        if isinstance(f, str):
            f = self.ring.parse(f)
        if f.ring != self.ring:
            raise RingMismatchError("localizing at an element of a different ring")
        if inv_name is None:
            (inv_name,) = fresh_names(("u",), set(self.ring.names), "_")
        elif inv_name in self.ring.names:
            raise EngineError(f"inverse variable {inv_name!r} already in use")
        big = PolynomialRing(self.ring.field, self.ring.names + (inv_name,),
                             self.ring.order)
        rel = big.var(big.nvars - 1) * transport(f, big) - big.one
        gens = [transport(g, big) for g in self.ideal.gens] + [rel]
        label = name if name is not None else f"{self.name}[1/{f}]"
        child = Chart(label, big, Ideal(big, gens))
        child._origin = (self, f, rel)
        return child

    def __eq__(self, other):
        return (isinstance(other, Chart) and other.name == self.name
                and other.ring == self.ring and other.ideal == self.ideal)

    def __hash__(self):
        return hash((self.name, self.ring, self.ideal))

    def __repr__(self):
        rel = ", ".join(str(g) for g in self.ideal.gens) or "0"
        return f"<chart {self.name}: {self.ring} mod ({rel})>"


def _jacobian_minors(gens, ring, c):
    """All c x c minors of the Jacobian of gens."""
    rows = [[g.diff(j) for j in range(ring.nvars)] for g in gens]
    out = []
    for cols in combinations(range(ring.nvars), c):
        out.append(_det([[rows[i][j] for j in cols] for i in range(c)], ring))
    return out


def _det(m, ring):
    """Determinant by Bareiss fraction-free elimination (Bareiss 1968): after
    step k every entry is a (k+1)-minor, so the division by the previous
    pivot is exact in the polynomial ring.  A zero pivot swaps in a lower
    row with a nonzero entry, or the determinant is zero."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, ring.one
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if swap is None:
                return ring.zero
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = divide_exact(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
        prev = a[k][k]
    return a[-1][-1] if sign > 0 else -a[-1][-1]


def codim(prime, chart):
    """sup over chart components through the prime of (dim component -
    dim prime)."""
    if not prime.ideal.contains_ideal(chart.ideal):
        raise EngineError(f"{prime} does not lie on chart {chart.name}")
    best = None
    for comp in chart.components():
        if prime.ideal.contains_ideal(comp.ideal):
            c = comp.dim() - prime.dim()
            best = c if best is None else max(best, c)
    if best is None:
        raise ConsistencyError(f"no component of chart {chart.name} contains {prime}")
    return best


class Cycle:
    """Integer combination of codimension-`grade` primes on a chart."""

    __slots__ = ("chart", "grade", "coeffs")

    def __init__(self, chart, grade, coeffs):
        clean = {}
        for p, m in coeffs.items():
            if m == 0:
                continue
            if p.ring != chart.ring:
                raise RingMismatchError("cycle prime from a different ring")
            if codim(p, chart) != grade:
                raise EngineError(
                    f"{p} has codimension {codim(p, chart)} on {chart.name}, "
                    f"expected {grade}")
            clean[p] = m
        self.chart = chart
        self.grade = grade
        self.coeffs = clean

    @classmethod
    def zero(cls, chart, grade):
        return cls(chart, grade, {})

    def components(self):
        return sorted(self.coeffs.items(), key=lambda it: (len(it[0].key), it[0].key))

    def support(self):
        return [p for p, _ in self.components()]

    def is_zero(self):
        return not self.coeffs

    def _merge(self, other, sign):
        if not isinstance(other, Cycle):
            return NotImplemented
        if other.chart != self.chart or other.grade != self.grade:
            raise EngineError("cycle arithmetic across charts or grades")
        out = dict(self.coeffs)
        for p, m in other.coeffs.items():
            out[p] = out.get(p, 0) + sign * m
        return Cycle(self.chart, self.grade, out)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return Cycle(self.chart, self.grade, {p: -m for p, m in self.coeffs.items()})

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return Cycle(self.chart, self.grade, {p: n * m for p, m in self.coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        return (isinstance(other, Cycle) and other.chart == self.chart
                and other.grade == self.grade and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.chart, self.grade,
                     tuple(sorted((p.key, m) for p, m in self.coeffs.items()))))

    def degree(self):
        """Sum of multiplicities weighted by residue degrees; the primes
        must be points."""
        total = 0
        for p, m in self.coeffs.items():
            if p.dim() != 0:
                raise EngineError("degree of a non-point cycle")
            total += m * vector_space_dimension(p.ideal)
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for p, m in self.components():
            mag = f"[{p}]" if abs(m) == 1 else f"{abs(m)}*[{p}]"
            if not bits:
                bits.append(mag if m > 0 else f"-{mag}")
            else:
                bits.append(f"+ {mag}" if m > 0 else f"- {mag}")
        return " ".join(bits)

    def __repr__(self):
        return f"<cycle {self} (codim {self.grade} on {self.chart.name})>"


def serialize_cycle(c):
    """The components of a cycle as [{"prime": basis strings, "mult": n}]."""
    return [{"prime": list(p.key), "mult": m} for p, m in c.components()]


def _cycle_from_support(M, ann, chart, grade):
    """The codimension-`grade` part of the cycle of M, ann = Ann M with the
    chart ideal in it.  Supp M = V(ann), so its minimal primes go to
    length_at_prime as the component list, each in the support
    (full_support).  By additivity of length (Atiyah & Macdonald, Thm 8.7)
    a length is then read off whole, M's count over k(x_S): 0 when whole
    is 0; whole / [k(p):k(x_S)] when p is the only listed prime meeting
    k[x_S] in 0 with dimension |S|; 1 when those primes' degrees sum to
    whole; unless a listed prime meeting k[x_S] in 0 has dimension above
    |S|."""
    coeffs = {}
    comps = minimal_primes(ann)
    for p in comps:
        c = codim(p, chart)
        if c < grade:
            raise HypothesisError(
                f"support component {p} has codimension {c} < {grade}")
        if c == grade:
            coeffs[p] = length_at_prime(M, p, components=comps, full_support=True)
    return Cycle(chart, grade, coeffs)


def cycle_of_module(M, chart, grade):
    """Codimension-`grade` part of the support cycle of M on the chart,
    with local lengths as multiplicities.  Raises RingMismatchError when M
    is not a module over the chart's algebra."""
    if M.modulo != chart.ideal:
        raise RingMismatchError("module not over the chart's algebra")
    return _cycle_from_support(M, annihilator(M), chart, grade)


@prime_cache_scope()
def cycle_of_subscheme(I, chart, grade=None):
    """Fundamental cycle of V(I) on the chart."""
    if not isinstance(I, Ideal):
        I = Ideal(chart.ring, I)
    total = I + chart.ideal
    if grade is None:
        grade = min((codim(p, chart) for p in minimal_primes(total)), default=0)
    return _cycle_from_support(FPModule.cyclic(I, chart.ideal), total, chart, grade)


def point_cycle(chart, I):
    """Zero-cycle (top codimension) of a finite subscheme."""
    return cycle_of_subscheme(I, chart, grade=chart.dim())


# ---------------------------------------------------------------------------
# Cartier divisors

class CartierDivisor:
    """A fraction a/b of elements regular on the chart (principal data)."""

    __slots__ = ("chart", "num", "den")

    def __init__(self, chart, num, den=None):
        ring = chart.ring
        if isinstance(num, str):
            num = ring.parse(num)
        den = ring.one if den is None else (ring.parse(den) if isinstance(den, str) else den)
        for part in (num, den):
            if part.ring != ring:
                raise RingMismatchError("divisor data from a different ring")
            # a nonzero constant is a unit, and ring/(0) is a domain
            obvious = not part.is_zero() and (part.is_constant() or not chart.ideal.gens)
            if not (obvious or is_regular_element(part, chart.ideal)):
                raise EngineError(f"{part} is a zero divisor on chart {chart.name}")
        self.chart = chart
        self.num = num
        self.den = den

    def _proven(self, num, den):
        """A divisor on this chart from products, powers or a swap of parts
        already proven regular, which are regular too: no test is rerun."""
        D = object.__new__(CartierDivisor)
        D.chart, D.num, D.den = self.chart, num, den
        return D

    def __add__(self, other):
        if not isinstance(other, CartierDivisor) or other.chart != self.chart:
            raise EngineError("divisor arithmetic across charts")
        return self._proven(self.num * other.num, self.den * other.den)

    def __neg__(self):
        return self._proven(self.den, self.num)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n >= 0:
            return self._proven(self.num ** n, self.den ** n)
        return self._proven(self.den ** (-n), self.num ** (-n))

    __mul__ = __rmul__

    def __eq__(self, other):
        """Equality of the defining fractions modulo the chart ideal."""
        return (isinstance(other, CartierDivisor) and other.chart == self.chart
                and self.chart.ideal.contains(self.num * other.den - other.num * self.den))

    def __hash__(self):
        return hash(self.chart)

    def weil(self):
        """Associated codimension-1 cycle: orders of vanishing of the
        numerator minus those of the denominator."""
        return (_principal_cycle(self.num, self.chart)
                - _principal_cycle(self.den, self.chart))

    def __str__(self):
        if self.den == self.chart.ring.one:
            return f"div({self.num})"
        return f"div({self.num} / {self.den})"

    def __repr__(self):
        return f"<cartier {self} on {self.chart.name}>"


def _principal_cycle(f, chart):
    return cycle_of_subscheme(Ideal(chart.ring, (f,)), chart, grade=1)


# ---------------------------------------------------------------------------
# glued spaces

def _apply_images(f, images, target_ring):
    """Evaluate f under variable images given as a name -> polynomial dict."""
    source = f.ring
    try:
        image_list = [images[nm] for nm in source.names]
    except KeyError as missing:
        raise GlueError(f"no image for variable {missing.args[0]}")
    return f.substitute(image_list, target_ring)


def _parse_images(raw, source_ring, target_ring):
    out = {}
    for nm in source_ring.names:
        if nm not in raw:
            raise GlueError(f"gluing map misses variable {nm!r}")
        v = raw[nm]
        out[nm] = target_ring.parse(v) if isinstance(v, str) else v
    return out


class GlueRecord:
    """A verified isomorphism between principal localizations of two charts."""

    __slots__ = ("name1", "name2", "overlap1", "overlap2", "forward", "backward")

    def __init__(self, name1, name2, overlap1, overlap2, forward, backward):
        self.name1 = name1
        self.name2 = name2
        self.overlap1 = overlap1
        self.overlap2 = overlap2
        self.forward = forward
        self.backward = backward


_GLUE_INV1, _GLUE_INV2 = "w1", "w2"  # inverse variables of the two overlap sides


class ChartedSpace:
    """Charts glued along principal localizations with verified data."""

    def __init__(self, name="X"):
        self.name = name
        self.charts = {}
        self.glues = []

    def add_chart(self, chart):
        if chart.name in self.charts:
            raise GlueError(f"duplicate chart name {chart.name!r}")
        self.charts[chart.name] = chart
        return chart

    def add_glue(self, name1, f1, name2, f2, forward, backward):
        """Glue chart1 localized at f1 to chart2 localized at f2.

        forward maps every variable of the first overlap ring to a
        polynomial over the second; backward inverts it.  Both directions
        are verified to be well defined and mutually inverse modulo the
        overlap ideals."""
        c1, c2 = self.charts[name1], self.charts[name2]
        L1 = c1.localize(f1, inv_name=_GLUE_INV1, name=f"{name1}&{name2}")
        L2 = c2.localize(f2, inv_name=_GLUE_INV2, name=f"{name2}&{name1}")
        fwd = _parse_images(forward, L1.ring, L2.ring)
        bwd = _parse_images(backward, L2.ring, L1.ring)
        # per direction: names, overlap charts, images there and back
        sides = ((name1, name2, L1, L2, fwd, bwd), (name2, name1, L2, L1, bwd, fwd))
        for a, b, La, Lb, there, _ in sides:
            for g in La.ideal.gens:
                if not Lb.ideal.contains(_apply_images(g, there, Lb.ring)):
                    raise GlueError(
                        f"gluing {a}->{b} does not preserve relations: {g}")
        for _, _, La, _, there, back in sides:
            for nm in La.ring.names:
                round_trip = _apply_images(there[nm], back, La.ring)
                if not La.ideal.contains(round_trip - La.ring.var(nm)):
                    raise GlueError(f"gluing maps are not mutually inverse at {nm!r}")
        rec = GlueRecord(name1, name2, L1, L2, fwd, bwd)
        self.glues.append(rec)
        return rec

    def glue_cycles(self, cycles):
        """Check a per-chart cycle family for agreement on every overlap.

        Returns (consistent, messages).  Raises GlueError when a key is not
        a chart of the space or its cycle lives on another chart."""
        for key, cyc in cycles.items():
            if key not in self.charts:
                raise GlueError(f"no chart {key!r} in space {self.name!r}")
            if cyc.chart != self.charts[key]:
                raise GlueError(f"the cycle for {key!r} lives on chart "
                                f"{cyc.chart.name!r}, expected {key!r}")
        messages = []
        ok = True
        grades = {c.grade for c in cycles.values()}
        if len(grades) > 1:
            return False, [f"mixed grades {sorted(grades)}"]
        for rec in self.glues:
            if rec.name1 not in cycles or rec.name2 not in cycles:
                messages.append(f"missing cycle on {rec.name1} or {rec.name2}")
                ok = False
                continue
            a = restrict_cycle(cycles[rec.name1], rec.overlap1)
            b = restrict_cycle(cycles[rec.name2], rec.overlap2)
            a_on_b = transport_cycle(a, rec.overlap2, rec.forward)
            if a_on_b == b:
                messages.append(f"{rec.name1}|{rec.name2}: consistent")
            else:
                ok = False
                messages.append(
                    f"{rec.name1}|{rec.name2}: mismatch {a_on_b} != {b}")
        return ok, messages


def restrict_cycle(cycle, loc_chart):
    """Restrict a cycle to a localization of its chart: the cycle's own
    chart, or one made from it by one or more localize steps.  At each step
    a prime P becomes P + (u*f - 1) with the same multiplicity, and dies
    when f lies in P (localized_primes).  Raises EngineError for any other
    chart, found by walking the recorded parents of loc_chart."""
    steps = []
    chart = loc_chart
    while chart != cycle.chart:
        if chart._origin is None:
            raise EngineError(f"chart {loc_chart.name!r} is not a localization "
                              f"of chart {cycle.chart.name!r}")
        chart, f, rel = chart._origin
        steps.append((f, rel))
    coeffs = cycle.coeffs
    for f, rel in reversed(steps):
        coeffs = {q: m for p, m in coeffs.items()
                  for q in localized_primes((p,), f, rel)}
    return Cycle(loc_chart, cycle.grade, coeffs)


def transport_cycle(cycle, target_chart, images):
    """Push a cycle through a verified chart isomorphism; each image keeps
    its prime's `certified` flag."""
    coeffs = {}
    for p, m in cycle.coeffs.items():
        gens = [_apply_images(g, images, target_chart.ring) for g in p.ideal.gens]
        total = Ideal(target_chart.ring, gens) + target_chart.ideal
        coeffs[PrimeIdeal(total, certified=p.certified)] = m
    return Cycle(target_chart, cycle.grade, coeffs)


def principal_atlas(base, elements):
    """The charted space covering `base` by the principal localizations at
    the given elements, labelled U0, U1, ... and glued pairwise by the
    identity.  Chart Ui inverts its element by u<i>, with "_" appended while
    the name is taken; w1 and w2 name the overlaps' inverses (add_glue)."""
    space = ChartedSpace(name=f"{base.name}-atlas")
    elems = [base.ring.parse(f) if isinstance(f, str) else f for f in elements]
    names = [f"U{i}" for i in range(len(elems))]
    invs = fresh_names([f"u{i}" for i in range(len(elems))], set(base.ring.names), "_")
    for i, f in enumerate(elems):
        space.add_chart(base.localize(f, inv_name=invs[i], name=names[i]))
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            fi = str(elems[i])
            fj = str(elems[j])
            fwd = {nm: nm for nm in base.ring.names}
            fwd[invs[i]] = _GLUE_INV2
            fwd[_GLUE_INV1] = invs[j]
            bwd = {nm: nm for nm in base.ring.names}
            bwd[invs[j]] = _GLUE_INV1
            bwd[_GLUE_INV2] = invs[i]
            space.add_glue(names[i], fj, names[j], fi, fwd, bwd)
    return space
