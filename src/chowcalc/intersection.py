"""Proper intersections via the alternating sum of local torsion lengths.

For cycles of codimensions s and t on a chart, the product is supported on
the components of the ideal sum; properness means every such component has
codimension at least s + t.   Each pair of primes contributes, on every
component Z of the expected codimension, the alternating sum of the local
lengths of the torsion modules of the two structure algebras at Z.  The
torsion modules are required to die within the regular range (one past the
chart dimension, double-checked two past); charts whose presentation is
certifiably singular are rejected up front.

One private kernel resolves the two structure algebras of a pair once and
measures the torsion at each requested component; `tor_length_table`,
`serre_multiplicity` and `intersection_product` all take their lengths from
it, and `intersects_properly` shares the properness scan of
`intersection_product`.  `tor_length_table` and `intersection_product`
pass every component of V(I + K) to length_at_prime, which reads a length
off one count over k(x_S) by additivity (Atiyah & Macdonald, Thm 8.7 and
Ex. 3.19): when its component is the only listed one at that fiber, or,
for Tor_0 alone, whose support is all of V(I + K), when the listed
components' residue degrees there sum to the count (each length is then
1).  A listed component of higher dimension meeting k[x_S] in 0 blocks
both rules.  `serre_multiplicity` passes no list and keeps the filtration.
"""

from .errors import EngineError, HypothesisError
from .geometry import Cycle, codim, serialize_cycle
from .groebner import Ideal
from .homology import FPModule, tor_modules
from .morphisms import flat_pullback, proper_pushforward
from .primes import length_at_prime, minimal_primes, prime_cache_scope


def _as_ideal(chart, data):
    if isinstance(data, Ideal):
        return data
    return Ideal(chart.ring, data)


def _common_chart(a, b):
    if a.chart != b.chart:
        raise EngineError("cycles on different charts")
    return a.chart


def _require_regular(chart):
    if chart.is_regular() is False:
        raise EngineError(
            f"chart {chart.name} is singular; the torsion formula needs a "
            "regular chart")


def _components(chart, I, K):
    """Minimal primes of I + K on the chart; none when they do not meet."""
    return minimal_primes(I + K + chart.ideal)


def _improper(chart, comps, want):
    """The first component of codimension below `want`, or None."""
    return next((z for z in comps if codim(z, chart) < want), None)


def _tor_lengths(chart, I, K, at, comps=None):
    """(z, [length at z of Tor_0, Tor_1, ...]) for A/I and A/K on the chart
    and each z in `at`, from one resolution shared by all of them (and no
    resolution when `at` is empty).  Lazy, so that a caller's check on one
    row runs before the next row is measured.

    `comps`, when given, is every minimal prime of I + K + J, J the chart
    ideal.  Each Tor_i lives on V(I + K + J), so length_at_prime may read a
    length off whole, the count of Tor_i over k(x_S), by additivity
    (Atiyah & Macdonald, Thm 8.7): 0 when whole is 0, whole / [k(z):k(x_S)]
    when z is the only listed prime at that fiber, and no rule while a
    listed prime of higher dimension meets k[x_S] in 0.  Tor_0 = A/(I + K)
    has all of V(I + K + J) as support (Supp(M tensor N) = Supp M ∩ Supp
    N), so it alone is flagged full_support: its lengths are 1 when the
    listed primes' degrees at the fiber sum to whole."""
    if not at:
        return
    tors = tor_modules(FPModule.cyclic(I, chart.ideal), FPModule.cyclic(K, chart.ideal),
                       up_to=chart.dim() + 2)
    for z in at:
        yield z, [length_at_prime(T, z, components=comps, full_support=i == 0)
                  if T.rank else 0 for i, T in enumerate(tors)]


def _alternating_sum(z, lengths):
    if lengths[-1] or lengths[-2]:
        raise HypothesisError(
            f"torsion does not vanish past the chart dimension at {z}; "
            "the chart is not regular there, outside the supported fragment")
    return sum((-1) ** i * n for i, n in enumerate(lengths))


def intersects_properly(a, b):
    """Every component of every pairwise intersection has codimension at
    least grade(a) + grade(b)."""
    chart = _common_chart(a, b)
    want = a.grade + b.grade
    return all(_improper(chart, _components(chart, p.ideal, q.ideal), want)
               is None for p in a.support() for q in b.support())


@prime_cache_scope()
def tor_length_table(chart, I, K):
    """[(component, [length of Tor_0 at it, Tor_1, ...])] for the two
    structure modules A/I and A/K on the chart."""
    I = _as_ideal(chart, I)
    K = _as_ideal(chart, K)
    comps = _components(chart, I, K)
    return list(_tor_lengths(chart, I, K, comps, comps))


def serre_multiplicity(chart, I, K, z):
    """Alternating sum of local torsion lengths at the component z."""
    _require_regular(chart)
    [(z, lengths)] = _tor_lengths(chart, _as_ideal(chart, I),
                                  _as_ideal(chart, K), [z])
    return _alternating_sum(z, lengths)


class IntersectionReport:
    """Full accounting of a product: one row per (left prime, right prime,
    component) with the torsion length vector and resulting multiplicity."""

    def __init__(self, chart, grade, rows, cycle):
        self.chart = chart
        self.grade = grade
        self.rows = rows
        self.cycle = cycle

    def as_dict(self):
        return {
            "chart": self.chart.name,
            "grade": self.grade,
            "rows": [
                {
                    "left": list(r["left"].key),
                    "right": list(r["right"].key),
                    "component": list(r["component"].key),
                    "tor_lengths": list(r["tor_lengths"]),
                    "multiplicity": r["multiplicity"],
                    "weight": r["weight"],
                }
                for r in self.rows
            ],
            "cycle": serialize_cycle(self.cycle),
        }

    def __str__(self):
        lines = [f"intersection on {self.chart.name} (codim {self.grade})"]
        for r in self.rows:
            alt = ",".join(str(n) for n in r["tor_lengths"])
            lines.append(
                f"  {r['left']} . {r['right']} along {r['component']}: "
                f"lengths [{alt}] -> {r['multiplicity']} (weight {r['weight']})")
        lines.append(f"  total: {self.cycle}")
        return "\n".join(lines)


@prime_cache_scope()
def intersection_product(a, b, report=False):
    """The product cycle in codimension grade(a) + grade(b); bilinear over
    components, multiplicities from the torsion formula.  Raises on excess
    (improper) intersections."""
    chart = _common_chart(a, b)
    _require_regular(chart)
    want = a.grade + b.grade
    total_cycle = Cycle.zero(chart, want)
    rows = []
    for p, mp in a.components():
        for q, mq in b.components():
            comps = _components(chart, p.ideal, q.ideal)
            low = _improper(chart, comps, want)
            if low is not None:
                raise EngineError(
                    f"improper intersection at component {low}: "
                    f"{p} . {q} meets in codimension "
                    f"{codim(low, chart)} < {want}")
            exact = [z for z in comps if codim(z, chart) == want]
            for z, lengths in _tor_lengths(chart, p.ideal, q.ideal, exact, comps):
                mult = _alternating_sum(z, lengths)
                rows.append({"left": p, "right": q, "component": z,
                             "tor_lengths": lengths, "multiplicity": mult,
                             "weight": mp * mq})
                total_cycle = total_cycle + Cycle(chart, want, {z: mp * mq * mult})
    if report:
        return IntersectionReport(chart, want, rows, total_cycle)
    return total_cycle


# ---------------------------------------------------------------------------
# structural identities

def _sides_commutativity(a, b):
    return intersection_product(a, b), intersection_product(b, a)


def _sides_associativity(a, b, c):
    return (intersection_product(intersection_product(a, b), c),
            intersection_product(a, intersection_product(b, c)))


def _sides_pullback_product(f, a, b):
    """Flat pullback distributes over products."""
    return (flat_pullback(f, intersection_product(a, b)),
            intersection_product(flat_pullback(f, a), flat_pullback(f, b)))


def _sides_projection_formula(f, alpha, beta):
    """push(alpha . pull(beta)) == push(alpha) . beta."""
    return (proper_pushforward(
                f, intersection_product(alpha, flat_pullback(f, beta))),
            intersection_product(proper_pushforward(f, alpha), beta))


_IDENTITIES = {
    "commutativity": _sides_commutativity,
    "associativity": _sides_associativity,
    "pullback_product": _sides_pullback_product,
    "projection_formula": _sides_projection_formula,
}


def identity_sides(name, *args):
    """Both sides of a named structural identity, for comparison or
    reporting."""
    if name not in _IDENTITIES:
        raise EngineError(f"unknown identity {name!r}; "
                          f"choose from {sorted(_IDENTITIES)}")
    return _IDENTITIES[name](*args)


def verify_identity(name, *args):
    """Whether the two sides of a named structural identity agree."""
    lhs, rhs = identity_sides(name, *args)
    return lhs == rhs
