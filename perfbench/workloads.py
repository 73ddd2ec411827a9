"""The four benchmark workloads: seeded input generators, the engine call
that makes one op, and an oracle that checks each answer by construction.

Every op input is a small JSON-able dict made from (workload, seed, index)
alone.  The family of op i is fixed by i and repeats every `cycle` ops, so
every seed gets the same mix of families and only the coefficients change.  Inputs are written in the
engine's printed form with the coefficient first, because the parser rejects
a number after `*` (`x*2`).
"""

import json
import random

import algebra as alg

# ---------------------------------------------------------------------------
# shared oracle helpers


def parse_cycle(text):
    """[(mult, [generator strings])] from a printed cycle such as
    '2*[(x + 2, y - 5)] - [(x^2 + 1, y)]'."""
    if text == "0":
        return []
    out = []
    for piece in text.replace("] - ", "]\n-").replace("] + ", "]\n").split("\n"):
        sign = -1 if piece.startswith("-") else 1
        piece = piece.lstrip("-")
        mult, _, body = piece.partition("*[") if piece[0].isdigit() else ("1", "", piece[1:])
        if not (body.startswith("(") and body.endswith(")]")):
            raise ValueError(f"cannot read cycle {text!r}")
        out.append((sign * int(mult), body[1:-2].split(", ")))
    return out


def match_points(components, expected, names, field):
    """Match each printed component to one expected point by evaluation.

    expected: [(mult, minpoly, coords)] with coordinates in F[s]/(minpoly).
    A prime of full codimension that vanishes at a point is that point's
    maximal ideal, so a one-to-one match with equal multiplicities proves the
    cycle.  Returns None or a message."""
    left = list(components)
    for mult, minpoly, coords in expected:
        hits = [c for c in left
                if len(c[1]) >= len(names)
                and all(alg.vanishes_at(alg.parse(g, names, field), coords,
                                        minpoly, field) for g in c[1])]
        if len(hits) != 1:
            return f"{len(hits)} components at point {coords} mod {minpoly}"
        if hits[0][0] != mult:
            return f"multiplicity {hits[0][0]} != {mult} at {coords}"
        left.remove(hits[0])
    if left:
        return f"unexpected components {left}"
    return None


def linear_cycle(components, names, field):
    """Sorted [(mult, rref of the generators)] for a cycle of linear primes."""
    out = []
    for mult, gens in components:
        form = alg.rref([alg.parse(g, names, field) for g in gens],
                        len(names), field)
        if form is None:
            return None
        out.append((mult, form))
    return sorted(out)


def expect_linear(components, expected, names, field):
    """Compare a cycle of linear primes with [(mult, [generator dicts])]."""
    got = linear_cycle(components, names, field)
    want = sorted((m, alg.rref(gens, len(names), field)) for m, gens in expected)
    return None if got == want else f"expected {want}, got {got}"


# Coefficients are drawn nonzero: a zero coefficient makes a sparser input
# whose op is far cheaper, which would make a run's cost depend on the seed.
# Ranges are wide where an op has few coefficients, so that inputs almost
# never repeat within a run and the engine's caches do not shorten later
# ops; an op's cost hardly depends on the size of its coefficients.
def _nonzero(rng, lo, hi):
    return rng.choice([v for v in range(lo, hi + 1) if v])


def _rng(name, seed, i):
    return random.Random(f"{name}:{seed}:{i}")


def _spread(slots, i):
    # a stride coprime to the slot count walks every slot once per cycle
    return slots[(i * 7) % len(slots)]


# ---------------------------------------------------------------------------
# bezout: QQ products of plane curves y = g(x) and y = g(x) + c*P(x)

XY = ("x", "y")
_BEZOUT_SLOTS = [(n, double, quad) for quad in (False, True)
                 for double in (True, False, False, False) for n in (1, 2, 3)]


def bezout_make(seed, i):
    n, double, quad = _spread(_BEZOUT_SLOTS, i)
    rng = _rng("bezout", seed, i)
    g = [_nonzero(rng, -5, 5), _nonzero(rng, -4, 4), _nonzero(rng, -2, 2)]
    roots = rng.sample(range(-6, 7), n)
    mults = [2 if double and k == 0 else 1 for k in range(n)]
    factors = [alg.univariate([-r, 1], 0, 2) for r, m in zip(roots, mults)
               for _ in range(m)]
    q = None
    if quad:
        b = rng.randint(-3, 3)
        q = [rng.randint(b * b // 4 + 1, b * b // 4 + 6), b]
        factors.append(alg.univariate(q + [1], 0, 2))
    lead = _nonzero(rng, -3, 3)
    P = alg.scale(alg.product(factors, alg.QQ, 2), lead, alg.QQ)
    curve = alg.add(alg.var(1, 2), alg.scale(alg.univariate(g, 0, 2), -1, alg.QQ),
                    alg.QQ)
    other = alg.add(curve, alg.scale(P, -1, alg.QQ), alg.QQ)
    return {"f": alg.fmt(curve, XY), "h": alg.fmt(other, XY), "g": g,
            "points": [[r, m] for r, m in zip(roots, mults)], "quad": q}


# Warm-up inputs use a coefficient that the generators never draw (out of
# range, or zero), so no timed op repeats them.
def bezout_warmup(seed):
    return {"f": "y - x^2 - 7*x", "h": "y", "g": [0, 7, 1],
            "points": [[0, 1], [-7, 1]], "quad": None}


def bezout_check(inp, out):
    """One component per root with its multiplicity, plus one of residue
    degree 2 for q, so the total degree is deg(f - g)."""
    g = inp["g"]
    expected = [(m, [-r, 1], [[r], [g[0] + g[1] * r + g[2] * r * r]])
                for r, m in inp["points"]]
    if inp["quad"]:
        minpoly = inp["quad"] + [1]
        expected.append((1, minpoly, [[0, 1], alg.reduce_mod(g, minpoly, alg.QQ)]))
    return match_points(parse_cycle(out), expected, XY, alg.QQ)


class Bezout:
    name = "bezout"
    cycle = len(_BEZOUT_SLOTS)
    make = staticmethod(bezout_make)
    warmup = staticmethod(bezout_warmup)
    check = staticmethod(bezout_check)

    def __init__(self, cc):
        self.cc = cc
        self.ring = cc.PolynomialRing(cc.QQ, XY)
        self.chart = cc.Chart("A2", self.ring)

    def run(self, inp):
        cc = self.cc
        a = cc.cycle_of_subscheme(cc.Ideal(self.ring, [inp["f"]]), self.chart)
        b = cc.cycle_of_subscheme(cc.Ideal(self.ring, [inp["h"]]), self.chart)
        return str(cc.intersection_product(a, b))


# ---------------------------------------------------------------------------
# excess-tor: Tor length tables where O/(I+K) overcounts

_AFFINE = {2: ("x", "y"), 3: ("x", "y", "z"), 4: ("x", "y", "z", "w")}
# Family counts put op_p50_ms inside the a2:3 cluster and op_p90_ms inside
# the a3:plane cluster, away from the gaps between per-family costs where a
# quantile would jump from run to run.  One A4 op in 48 (about 2 s each on a
# 2-core machine) keeps a 25-second run above 100 ops.
_TOR_SLOTS = (["a2:2"] * 15 + ["a2:3"] * 15 + ["a2:4"] * 8 + ["a3:line"] * 2
              + ["a3:plane"] * 7 + ["a4"])


def _lin(coeffs, names):
    return alg.fmt({tuple(1 if j == i else 0 for j in range(len(names))): c
                    for i, c in enumerate(coeffs) if c}, names)


def excess_make(seed, i):
    kind = _spread(_TOR_SLOTS, i)
    rng = _rng("excess-tor", seed, i)
    if kind.startswith("a2"):
        k = int(kind[3:])
        a, b = _nonzero(rng, -50, 50), _nonzero(rng, -50, 50)
        I = [f"x^{k}", f"x^{k - 1}*y" if k > 2 else "x*y"]
        K = [alg.fmt(alg.clean({(0, 1): 1, (1, 0): -a, (2, 0): -b}, alg.QQ),
                     _AFFINE[2])]
        return {"n": 2, "I": I, "K": K, "tor0": k, "alt": k - 1}
    if kind == "a3:line":
        al, be, ga = (_nonzero(rng, -9, 9) for _ in range(3))
        K = [_lin([be, -al, 0], _AFFINE[3]), _lin([ga, 0, -al], _AFFINE[3])]
        return {"n": 3, "I": ["x^2", "x*y", "x*z"], "K": K, "tor0": 2, "alt": 1}
    if kind == "a3:plane":
        a, b = _nonzero(rng, -50, 50), _nonzero(rng, -50, 50)
        return {"n": 3, "I": ["x^2", "x*y", "y^2", "x*z", "y*z"],
                "K": [_lin([-a, -b, 1], _AFFINE[3])], "tor0": 3, "alt": 1}
    while True:
        a, b, c, d = (_nonzero(rng, -3, 3) for _ in range(4))
        if a * d - b * c:
            break
    K = [_lin([1, 0, -a, -b], _AFFINE[4]), _lin([0, 1, -c, -d], _AFFINE[4])]
    return {"n": 4, "I": ["x*z", "x*w", "y*z", "y*w"], "K": K, "tor0": 3,
            "alt": 2}


def excess_warmup(seed):
    return {"n": 2, "I": ["x^2", "x*y"], "K": ["y - 6*x^2"], "tor0": 2, "alt": 1}


def excess_check(inp, out):
    n = inp["n"]
    names = _AFFINE[n]
    rows = [row.split(": ") for row in out.split("; ")] if out else []
    if len(rows) != 1:
        return f"{len(rows)} components, expected the origin only"
    prime, lengths = rows[0]
    lengths = [int(v) for v in lengths.strip("[]").split(", ")]
    gens = prime[1:-1].split(", ")
    origin = [[0]] * n
    if len(gens) < n or not all(alg.vanishes_at(alg.parse(g, names, alg.QQ),
                                                origin, [0, 1], alg.QQ)
                                for g in gens):
        return f"component {prime} is not the origin"
    if lengths[0] != inp["tor0"]:
        return f"Tor_0 length {lengths[0]} != {inp['tor0']}"
    if any(lengths[n + 1:]):
        return f"torsion does not vanish past dimension {n}: {lengths}"
    alt = sum((-1) ** k * v for k, v in enumerate(lengths))
    if alt != inp["alt"]:
        return f"alternating sum {alt} != {inp['alt']}"
    return None


class ExcessTor:
    name = "excess-tor"
    cycle = len(_TOR_SLOTS)
    make = staticmethod(excess_make)
    warmup = staticmethod(excess_warmup)
    check = staticmethod(excess_check)

    def __init__(self, cc):
        self.cc = cc
        self.charts = {n: cc.Chart(f"A{n}", cc.PolynomialRing(cc.QQ, names))
                       for n, names in _AFFINE.items()}

    def run(self, inp):
        rows = self.cc.tor_length_table(self.charts[inp["n"]], inp["I"], inp["K"])
        return "; ".join(f"{z}: {lengths}" for z, lengths in rows)


# ---------------------------------------------------------------------------
# correspondences: compositions through the triple product

# Counts put op_p50_ms inside the a1 cluster and op_p90_ms inside the a2
# cluster (a2 ops cost about four a1 ops).
_CORR_SLOTS = ["chain"] * 4 + ["a1"] * 6 + ["a2"] * 2


def _quadratic(rng):
    return [_nonzero(rng, -50, 50), _nonzero(rng, -50, 50), 1]


def corr_make(seed, i):
    kind = _spread(_CORR_SLOTS, i)
    rng = _rng("correspondences", seed, i)
    if kind == "a1":
        f = _quadratic(rng)
        return {"kind": kind, "f": f, "fx": alg.fmt(alg.univariate(f, 0, 1), ("t",))}
    if kind == "a2":
        a, b = _nonzero(rng, -50, 50), _nonzero(rng, -50, 50)
        return {"kind": kind, "v": alg.fmt({(0, 2): 1, (1, 0): a, (0, 0): b}, XY)}
    f = _quadratic(rng)
    h = [_nonzero(rng, -4, 4), _nonzero(rng, -3, 3)]
    return {"kind": kind, "f": f, "h": h,
            "fx": alg.fmt(alg.univariate(f, 0, 1), ("t",)),
            "hu": alg.fmt(alg.univariate(h, 0, 1), ("x",))}


def corr_warmup(seed):
    return {"kind": "a1", "f": [0, 5, 1], "fx": "t^2 + 5*t"}


def corr_check(inp, out):
    cycle, _, degree = out.partition(" | degree ")
    comps = parse_cycle(cycle)
    if inp["kind"] == "a1":
        # f(s) = f(t) factors as (s - t)(s + t + a)
        if degree != "2":
            return f"degree {degree} != 2"
        names = ("t", "t_r")
        want = [(1, [{(1, 0): 1, (0, 1): -1}]),
                (1, [alg.clean({(1, 0): 1, (0, 1): 1, (0, 0): inp["f"][1]}, alg.QQ)])]
        return expect_linear(comps, want, names, alg.QQ)
    if inp["kind"] == "a2":
        names = ("x", "y", "x_r", "y_r")
        same_x = {(1, 0, 0, 0): 1, (0, 0, 1, 0): -1}
        want = [(1, [same_x, {(0, 1, 0, 0): 1, (0, 0, 0, 1): -1}]),
                (1, [same_x, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1}])]
        return expect_linear(comps, want, names, alg.QQ)
    # a chain of graphs is the graph of the composite map: u = h(f(t))
    names = ("t", "u")
    f = alg.univariate(inp["f"], 0, 2)
    hf = alg.add(alg.const(inp["h"][0], 2), alg.scale(f, inp["h"][1], alg.QQ), alg.QQ)
    want = alg.add(alg.var(1, 2), alg.scale(hf, -1, alg.QQ), alg.QQ)
    if len(comps) != 1 or comps[0][0] != 1 or len(comps[0][1]) != 1:
        return f"expected one reduced component, got {cycle}"
    got = alg.parse(comps[0][1][0], names, alg.QQ)
    if alg.monic_key(got, alg.QQ) != alg.monic_key(want, alg.QQ):
        return f"chain {cycle} != graph of {alg.fmt(want, names)}"
    return None


class Correspondences:
    name = "correspondences"
    cycle = len(_CORR_SLOTS)
    make = staticmethod(corr_make)
    warmup = staticmethod(corr_warmup)
    check = staticmethod(corr_check)

    def __init__(self, cc):
        self.cc = cc
        line = lambda name, v: cc.Chart(name, cc.PolynomialRing(cc.QQ, (v,)))
        self.S, self.X, self.U = line("S", "t"), line("X", "x"), line("U", "u")
        self.A = cc.Chart("A", cc.PolynomialRing(cc.QQ, XY))
        self.B = cc.Chart("B", cc.PolynomialRing(cc.QQ, ("u", "v")))

    def run(self, inp):
        cc = self.cc
        flags = {"flat": True, "finite": True, "proper": True}
        if inp["kind"] == "a1":
            g = cc.graph(cc.ChartMap(self.S, self.X, {"x": inp["fx"]}, **flags))
            h = cc.compose(g, g.transpose())
            return f"{h.cycle} | degree {cc.correspondence_degree(h)}"
        if inp["kind"] == "a2":
            g = cc.graph(cc.ChartMap(self.A, self.B, {"u": "x", "v": inp["v"]},
                                     **flags))
            return str(cc.compose(g, g.transpose()).cycle)
        f = cc.ChartMap(self.S, self.X, {"x": inp["fx"]}, **flags)
        h = cc.ChartMap(self.X, self.U, {"u": inp["hu"]}, **flags)
        return str(cc.compose(cc.graph(f), cc.graph(h)).cycle)


# ---------------------------------------------------------------------------
# scripts: generated .chow scripts through run_script and render_report

_FIELDS = [None, 7, 101]

SCRIPT = """\
field {field}
let R = ring(x, y)
let A = chart(R)
let C = cycle(A; [({curve})])
let K = cycle(A; [({other})])
product C K
verify commutativity C K
let D = divisor(A; {num}; {den})
let W = weil(D)
print W
let U = atlas(A; {u0}, {u1})
let L = cycle(A; [({line})])
let L0 = restrict(L, U.U0)
let L1 = restrict(L, U.U1)
glue U: U0 = L0, U1 = L1
"""
ASSOCIATIVITY = """\
let S = ring(x, y, z)
let B = chart(S)
let P1 = cycle(B; [({p1})])
let P2 = cycle(B; [({p2})])
let P3 = cycle(B; [({p3})])
verify associativity P1 P2 P3
"""


def script_make(seed, i):
    p = _FIELDS[i % 3]
    field = alg.Field(p)
    rng = _rng("scripts", seed, i)
    g = [_nonzero(rng, -5, 5), _nonzero(rng, -4, 4), _nonzero(rng, -2, 2)]
    span = range(7) if p == 7 else range(-6, 7)
    roots = rng.sample(span, 2)
    lead = _nonzero(rng, -3, 3)
    P = alg.scale(alg.product([alg.univariate([-r, 1], 0, 2) for r in roots],
                              alg.QQ, 2), lead, alg.QQ)
    curve = alg.add(alg.var(1, 2), alg.scale(alg.univariate(g, 0, 2), -1, alg.QQ),
                    alg.QQ)
    # F_p factorization handles univariate powers but not products of
    # factors in different variables, so the numerator is c*(x - a)^2
    a, d = _nonzero(rng, -6, 6), _nonzero(rng, -6, 6)
    num = alg.scale(alg.univariate([a * a, -2 * a, 1], 0, 2), lead, alg.QQ)
    den = {(1, 0): 1, (0, 1): 1, (0, 0): -d}
    # a slope keeps the line off both atlas hypersurfaces x = ua and y = ub
    m, k = _nonzero(rng, -4, 4), _nonzero(rng, -4, 4)
    line = alg.clean({(0, 1): 1, (1, 0): -m, (0, 0): -k}, alg.QQ)
    ua, ub = _nonzero(rng, -5, 5), _nonzero(rng, -5, 5)
    minus = lambda i, c: alg.fmt(alg.clean({tuple(int(j == i) for j in range(2)): 1,
                                            (0, 0): -c}, alg.QQ), XY)
    text = SCRIPT.format(
        field=field.name, curve=alg.fmt(curve, XY),
        other=alg.fmt(alg.add(curve, alg.scale(P, -1, alg.QQ), alg.QQ), XY),
        num=alg.fmt(num, XY), den=alg.fmt(den, XY),
        u0=minus(0, ua), u1=minus(1, ub),
        line=alg.fmt(line, XY))
    if i % 2:
        xyz = _AFFINE[3]
        # the three planes meet properly only when 1 - c0*c2 - c1*c3 != 0
        while True:
            c = [_nonzero(rng, -4, 4) for _ in range(4)]
            if field.coerce(1 - c[0] * c[2] - c[1] * c[3]):
                break
        text += ASSOCIATIVITY.format(p1=_lin([1, 0, -c[0]], xyz),
                                     p2=_lin([0, 1, -c[1]], xyz),
                                     p3=_lin([-c[2], -c[3], 1], xyz))
    return {"p": p, "text": text, "g": g, "roots": roots, "a": a, "d": d}


def script_warmup(seed):
    return {"p": None, "text": "let R = ring(x, y)\nlet A = chart(R)\n"
            "product [(y - x^2 - 7*x)] [(y)]\n", "g": None}


def script_check(inp, out):
    report = json.loads(out)
    if not report["ok"]:
        return f"script failed: {report.get('error')}"
    if inp["g"] is None:
        return None
    field = alg.Field(inp["p"])
    bad = [r for r in report["results"] if r.get("pass") is False]
    if bad:
        return f"failed checks {bad}"
    g = inp["g"]
    product = [r for r in report["results"] if r["op"] == "product"][0]
    comps = [(c["mult"], c["prime"]) for c in product["cycle"]]
    points = [(1, [-r, 1], [[r], [g[0] + g[1] * r + g[2] * r * r]])
              for r in inp["roots"]]
    points = [(m, [field.coerce(c) for c in mp], [[field.coerce(c) for c in x]
                                                  for x in xs])
              for m, mp, xs in points]
    msg = match_points(comps, points, XY, field)
    if msg:
        return f"product: {msg}"
    weil = report["objects"]["W"]["components"]
    want = [(2, [alg.clean({(1, 0): 1, (0, 0): -inp["a"]}, field)]),
            (-1, [alg.clean({(1, 0): 1, (0, 1): 1, (0, 0): -inp["d"]}, field)])]
    msg = expect_linear([(c["mult"], c["prime"]) for c in weil], want, XY, field)
    return f"weil: {msg}" if msg else None


class Scripts:
    name = "scripts"
    cycle = 6  # three fields times with or without associativity
    make = staticmethod(script_make)
    warmup = staticmethod(script_warmup)
    check = staticmethod(script_check)

    def __init__(self, cc):
        self.cc = cc

    def run(self, inp):
        report, _ = self.cc.run_script(inp["text"], echo=lambda line: None)
        return self.cc.script.render_report(report)


WORKLOADS = {w.name: w for w in (Bezout, ExcessTor, Correspondences, Scripts)}
