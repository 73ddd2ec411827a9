"""Small exact polynomial helpers that the oracles use instead of the engine.

Polynomials are dicts {exponent tuple: coefficient} over a tuple of variable
names.  Coefficients are Fractions over QQ and ints in [0, p) over F_p.  The
printer writes the engine's input form (coefficient first, `^` only after a
variable) and the parser reads what the engine prints, so generated inputs
and printed answers never go through the code being measured.
"""

import re
from fractions import Fraction


class Field:
    """QQ when p is None, otherwise the prime field F_p."""

    def __init__(self, p=None):
        self.p = p

    @property
    def name(self):
        return "QQ" if self.p is None else f"Fp:{self.p}"

    def coerce(self, v):
        if self.p is None:
            return Fraction(v)
        if isinstance(v, Fraction):
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return v % self.p

    def inv(self, a):
        return 1 / a if self.p is None else pow(a, -1, self.p)


QQ = Field()


def clean(poly, field):
    out = {}
    for e, c in poly.items():
        c = field.coerce(c)
        if c:
            out[e] = c
    return out


def add(a, b, field):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return clean(out, field)


def mul(a, b, field):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return clean(out, field)


def scale(a, c, field):
    return clean({e: c * v for e, v in a.items()}, field)


def const(c, nvars):
    return {(0,) * nvars: c} if c else {}


def var(i, nvars):
    return {tuple(int(j == i) for j in range(nvars)): 1}


def univariate(coeffs, i, nvars):
    """sum coeffs[k] * v_i^k as a polynomial in nvars variables."""
    return {tuple(k if j == i else 0 for j in range(nvars)): c
            for k, c in enumerate(coeffs) if c}


def product(polys, field, nvars):
    out = const(1, nvars)
    for p in polys:
        out = mul(out, p, field)
    return out


def fmt(poly, names):
    """Engine input form: '3*x^2*y - 1/2*y + 4'."""
    if not poly:
        return "0"
    pieces = []
    for e in sorted(poly, key=lambda e: (sum(e), e), reverse=True):
        c = poly[e]
        mono = "*".join(nm if k == 1 else f"{nm}^{k}"
                        for nm, k in zip(names, e) if k)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse(text, names, field):
    """Read a polynomial printed by the engine (no parentheses)."""
    index = {nm: i for i, nm in enumerate(names)}
    out = {}
    pos, text = 0, text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text!r}")
        pos = m.end()
        sign = -1 if m.group(1) == "-" else 1
        coeff, exps = Fraction(1), [0] * len(names)
        for factor in m.group(2).strip().split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                nm, _, k = factor.partition("^")
                exps[index[nm]] += int(k) if k else 1
        e = tuple(exps)
        out[e] = out.get(e, 0) + sign * coeff
    return clean(out, field)


# ---------------------------------------------------------------------------
# evaluation at algebraic points

def reduce_mod(a, m, field):
    """Remainder of a univariate coefficient list a modulo monic m."""
    a = [field.coerce(c) for c in a]
    d = len(m) - 1
    while len(a) > d:
        top = a.pop()
        if top:
            for k in range(d):
                a[len(a) - d + k] -= top * m[k]
    return [field.coerce(c) for c in a]


def _poly_mul_mod(a, b, m, field):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return reduce_mod(out, m, field)


def vanishes_at(poly, point, minpoly, field):
    """Whether poly vanishes at a point with coordinates in F[s]/(minpoly).

    `minpoly` is a monic coefficient list (constant first); each coordinate
    is a coefficient list in the generator s of the residue field.  A linear
    minpoly s - r gives the rational point with those coordinate values."""
    total = [0] * (len(minpoly) - 1)
    for e, c in poly.items():
        term = [field.coerce(c)]
        for coord, k in zip(point, e):
            for _ in range(k):
                term = _poly_mul_mod(term, coord, minpoly, field)
        term = term + [0] * (len(total) - len(term))
        total = [field.coerce(x + y) for x, y in zip(total, term)]
    return not any(total)


def rref(polys, nvars, field):
    """Reduced row echelon form of linear polynomials, as a tuple of rows of
    (coefficient of each variable, constant); None if any is not linear."""
    rows = []
    for p in polys:
        row = [0] * (nvars + 1)
        for e, c in p.items():
            deg = sum(e)
            if deg > 1:
                return None
            row[e.index(1) if deg else nvars] = c
        rows.append(row)
    out, col = [], 0
    while rows and col <= nvars:
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            col += 1
            continue
        rows.remove(pivot)
        inv = field.inv(pivot[col])
        pivot = [field.coerce(x * inv) for x in pivot]
        rows = [[field.coerce(x - r[col] * y) for x, y in zip(r, pivot)]
                for r in rows]
        out = [[field.coerce(x - r[col] * y) for x, y in zip(r, pivot)]
               for r in out]
        out.append(pivot)
        rows = [r for r in rows if any(r)]
        col += 1
    return tuple(tuple(r) for r in out)


def monic_key(poly, field):
    """The polynomial scaled so its largest exponent carries coefficient 1."""
    lead = max(poly)
    inv = field.inv(poly[lead])
    return tuple(sorted((e, field.coerce(c * inv)) for e, c in poly.items()))
