"""Sparse multivariate polynomials over an exact field, with total monomial
orders and a bit-exact text format.

A monomial is an exponent tuple.  A Polynomial stores its terms as a tuple of
(exponents, coefficient) pairs sorted descending by the ring's order with no
zero coefficients, so equal polynomials have identical storage.  All values
are immutable; nothing here keeps mutable global state.

Text format (both directions):

    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' uint)? | '(' poly ')'
    coeff  := uint ('/' uint)?

The printer emits terms in descending order, coefficient first, '*' between
all factors and '^' only for exponents > 1, so parse(print(p)) == p.
"""

from operator import add, itemgetter, le, neg, sub

from .errors import EngineError, ParseError, RingMismatchError


# ---------------------------------------------------------------------------
# monomials = exponent tuples; map over a C function runs without a Python
# frame per exponent, which a generator expression pays

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True when a | b componentwise."""
    return all(map(le, a, b))


def mono_div(a, b):
    """a / b, assuming b | a."""
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_degree(a):
    return sum(a)


def mono_is_one(a):
    return not any(a)


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """Total multiplicative well-order on exponent tuples via sort keys:
    m1 > m2 iff key(m1) > key(m2)."""

    tag = None

    def key(self, exps):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag[0] if len(self.tag) == 1 else str(self.tag)


class GrevlexOrder(MonomialOrder):
    """Graded reverse lexicographic: higher total degree wins; ties go to the
    monomial whose last differing exponent is smaller."""

    tag = ("grevlex",)

    def key(self, exps):
        return (sum(exps), tuple(map(neg, exps[::-1])))


class LexOrder(MonomialOrder):
    """Pure lexicographic, earlier variables more significant."""

    tag = ("lex",)

    def key(self, exps):
        return exps


class BlockOrder(MonomialOrder):
    """Compare variable blocks left to right, each with its own suborder.

    With the doomed variables in the first block this is an elimination
    order: any monomial meeting the first block beats any monomial that
    misses it (the suborders are graded, and () block keys pad shorter
    tuples, so the first block decides first).
    """

    def __init__(self, blocks):
        # blocks: sequence of (index tuple, MonomialOrder)
        self.blocks = tuple((tuple(ix), sub) for ix, sub in blocks)
        self.tag = ("block",) + tuple((ix, sub.tag) for ix, sub in self.blocks)
        self._parts = tuple((_picker(ix), sub.key) for ix, sub in self.blocks)

    def key(self, exps):
        return tuple([key(pick(exps)) for pick, key in self._parts])


def _picker(ix):
    """exps -> the tuple of exps at the indices ix, in C: itemgetter gives
    a tuple only for two or more indices, so shorter blocks take a slice."""
    if len(ix) > 1:
        return itemgetter(*ix)
    return itemgetter(slice(ix[0], ix[0] + 1) if ix else slice(0))


grevlex = GrevlexOrder()
lex = LexOrder()


def elimination_order(first, nvars):
    """Block order eliminating the variables with indices in `first`."""
    first = tuple(sorted(first))
    rest = tuple(i for i in range(nvars) if i not in set(first))
    return BlockOrder([(first, grevlex), (rest, grevlex)])


# ---------------------------------------------------------------------------
# rings

class PolynomialRing:
    """k[x_1..x_n] with a fixed coefficient field, variable names and order.

    Rings compare by value, so independently constructed rings with the same
    data interoperate.
    """

    def __init__(self, field, names, order=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise EngineError(f"duplicate variable names in {names}")
        for nm in names:
            if not nm or not (nm[0].isalpha() or nm[0] == "_") or not all(
                    c.isalnum() or c == "_" for c in nm):
                raise EngineError(f"bad variable name {nm!r}")
        self.field = field
        self.names = names
        self.nvars = len(names)
        self.order = order if order is not None else grevlex
        self._index = {nm: i for i, nm in enumerate(names)}
        self.zero = Polynomial(self, ())
        one = field.one
        self.one = Polynomial(self, (((0,) * self.nvars, one),))

    def var(self, i):
        if isinstance(i, str):
            i = self.index_of(i)
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, ((tuple(e), self.field.one),))

    def gens(self):
        return tuple(self.var(i) for i in range(self.nvars))

    def const(self, c):
        c = self.field.coerce(c)
        if not c:
            return self.zero
        return Polynomial(self, (((0,) * self.nvars, c),))

    def monomial(self, exps, coeff=None):
        coeff = self.field.one if coeff is None else self.field.coerce(coeff)
        if not coeff:
            return self.zero
        return Polynomial(self, ((tuple(exps), coeff),))

    def from_dict(self, d):
        field = self.field
        items = []
        for exps, c in d.items():
            c = field.coerce(c)
            if c:
                items.append((tuple(exps), c))
        key = self.order.key
        items.sort(key=lambda t: key(t[0]), reverse=True)
        return Polynomial(self, tuple(items))

    def parse(self, text):
        return _Parser(self, text).parse()

    def index_of(self, name):
        if name not in self._index:
            raise EngineError(f"no variable {name!r} in {self}")
        return self._index[name]

    def __eq__(self, other):
        return (isinstance(other, PolynomialRing)
                and other.field == self.field
                and other.names == self.names
                and other.order == self.order)

    def __hash__(self):
        return hash((self.field, self.names, self.order))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"


def transport(p, target, rename=None):
    """Re-express p in `target`, matching variables by name (or through the
    rename map {source name: target name}).  Variables missing from the
    target must not occur in p."""
    src = p.ring
    if src.field != target.field:
        raise RingMismatchError(f"cannot transport between {src} and {target}")
    rename = rename or {}
    moves = []
    for i, nm in enumerate(src.names):
        nm = rename.get(nm, nm)
        moves.append(target._index.get(nm, -1))
    d = {}
    for exps, c in p.terms:
        out = [0] * target.nvars
        for i, e in enumerate(exps):
            if not e:
                continue
            j = moves[i]
            if j < 0:
                raise EngineError(
                    f"variable {src.names[i]!r} has no image in {target}")
            out[j] = e
        d[tuple(out)] = target.field.add(d.get(tuple(out), target.field.zero), c)
    return target.from_dict(d)


def fresh_names(names, taken, suffix):
    """Each name with `suffix` appended until it is not in `taken`; every
    result joins `taken`, so the results are distinct."""
    out = []
    for nm in names:
        while nm in taken:
            nm += suffix
        taken.add(nm)
        out.append(nm)
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        # terms must already be canonical; use ring.from_dict to build safely
        self.ring = ring
        self.terms = terms

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or mono_is_one(self.terms[0][0])

    def is_one(self):
        return (len(self.terms) == 1 and mono_is_one(self.terms[0][0])
                and self.terms[0][1] == self.ring.field.one)

    # -- leading data (w.r.t. the ring's own order) -------------------------

    def lm(self):
        if not self.terms:
            raise EngineError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self):
        if not self.terms:
            raise EngineError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(mono_degree(e) for e, _ in self.terms)

    def support(self):
        """Indices of variables actually present."""
        seen = set()
        for e, _ in self.terms:
            for i, x in enumerate(e):
                if x:
                    seen.add(i)
        return seen

    def monic(self):
        if self.is_zero():
            return self
        f = self.ring.field
        c = self.lc()
        if c == f.one:
            return self
        inv = f.inv(c)
        return Polynomial(self.ring, tuple((e, f.mul(k, inv)) for e, k in self.terms))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"mixing {self.ring} and {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        return Polynomial(self.ring, merge_terms(
            self.terms, other.terms, self.ring.order.key, self.ring.field))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        return Polynomial(self.ring, merge_terms(
            self.terms, other.terms, self.ring.order.key, self.ring.field,
            subtract=True))

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, tuple((e, f.neg(c)) for e, c in self.terms))

    def __mul__(self, other):
        ring = self.ring
        f = ring.field
        if not isinstance(other, Polynomial):
            c = f.coerce(other)
            if not c:
                return ring.zero
            return Polynomial(ring, tuple((e, f.mul(k, c)) for e, k in self.terms))
        self._check(other)
        if not self.terms or not other.terms:
            return ring.zero
        if len(self.terms) == 1:
            return other.mul_term(self.terms[0][0], self.terms[0][1])
        if len(other.terms) == 1:
            return self.mul_term(other.terms[0][0], other.terms[0][1])
        acc = {}
        zero = f.zero
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = mono_mul(e1, e2)
                c = f.add(acc.get(e, zero), f.mul(c1, c2))
                if c:
                    acc[e] = c
                else:
                    acc.pop(e, None)
        key = ring.order.key
        return Polynomial(ring, tuple(sorted(acc.items(), key=lambda t: key(t[0]), reverse=True)))

    __rmul__ = __mul__

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def mul_term(self, exps, coeff):
        """Multiply by coeff * x^exps; order is multiplicative so the sorted
        term tuple is preserved."""
        f = self.ring.field
        coeff = f.coerce(coeff)
        if not coeff:
            return self.ring.zero
        return Polynomial(self.ring,
                          tuple((mono_mul(e, exps), f.mul(c, coeff)) for e, c in self.terms))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise EngineError("polynomial powers take non-negative integer exponents")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def diff(self, var):
        """Partial derivative with respect to a variable (index or name)."""
        ring = self.ring
        if isinstance(var, str):
            var = ring.index_of(var)
        f = ring.field
        d = {}
        for e, c in self.terms:
            k = e[var]
            if not k:
                continue
            e2 = list(e)
            e2[var] = k - 1
            c2 = f.mul(c, f.coerce(k))
            if c2:
                d[tuple(e2)] = c2
        return ring.from_dict(d)

    def substitute(self, images, target=None):
        """Evaluate at images[i] in place of variable i; images are
        polynomials of the target ring."""
        if target is None:
            if not images:
                raise EngineError("substitute needs images or a target ring")
            target = images[0].ring
        if len(images) != self.ring.nvars:
            raise EngineError("wrong number of substitution images")
        powers = [{} for _ in images]

        def power(i, k):
            memo = powers[i]
            if k not in memo:
                memo[k] = images[i] ** k
            return memo[k]

        total = target.zero
        for e, c in self.terms:
            piece = target.const(c)
            for i, k in enumerate(e):
                if k:
                    piece = piece * power(i, k)
            total = total + piece
        return total

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.const(other)
        return (isinstance(other, Polynomial) and other.ring == self.ring
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        return _print_polynomial(self)

    def __repr__(self):
        return f"<{self}>"

    def __bool__(self):
        return bool(self.terms)


def merge_terms(a, b, key, field, subtract=False):
    """a + b (or a - b) for term tuples sorted descending by `key`: the
    polynomial terms here and the module vectors of the Buchberger engine."""
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ma, ca = a[i]
        mb, cb = b[j]
        if ma == mb:
            c = field.sub(ca, cb) if subtract else field.add(ca, cb)
            if c:
                out.append((ma, c))
            i += 1
            j += 1
        elif key(ma) > key(mb):
            out.append((ma, ca))
            i += 1
        else:
            out.append((mb, field.neg(cb) if subtract else cb))
            j += 1
    out.extend(a[i:])
    if subtract:
        out.extend((m, field.neg(c)) for m, c in b[j:])
    else:
        out.extend(b[j:])
    return tuple(out)


# ---------------------------------------------------------------------------
# printer

def _print_polynomial(p):
    if not p.terms:
        return "0"
    ring = p.ring
    f = ring.field
    pieces = []
    for idx, (e, c) in enumerate(p.terms):
        neg = f.is_negative(c)
        mag = f.abs(c)
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(ring.names[i])
            elif k > 1:
                factors.append(f"{ring.names[i]}^{k}")
        if not factors:
            body = f.to_str(mag)
        elif mag == f.one:
            body = "*".join(factors)
        else:
            body = "*".join([f.to_str(mag)] + factors)
        if idx == 0:
            pieces.append("-" + body if neg else body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


# ---------------------------------------------------------------------------
# parser

_TOKEN_CHARS = {"+", "-", "*", "^", "/", "(", ")"}


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, ring, text):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        p = self.poly()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return p

    def poly(self):
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        total = self.term() * sign
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            total = total + t if op == "+" else total - t
        return total

    def term(self):
        p = self.factor()
        while self.peek()[0] == "*":
            self.take()
            p = p * self.factor()
        return p

    def coeff(self):
        tok = self.take("int")
        num = int(tok[1])
        if self.peek()[0] == "/":
            self.take()
            dtok = self.take("int")
            den = int(dtok[1])
            if den == 0:
                raise ParseError("zero denominator", dtok[2])
            return self.ring.field.fraction(num, den)
        return self.ring.field.coerce(num)

    def factor(self):
        """A number, or a variable or parenthesized polynomial with an
        optional ^exponent."""
        tok = self.peek()
        if tok[0] == "int":
            return self.ring.const(self.coeff())
        if tok[0] == "(":
            self.take()
            p = self.poly()
            self.take(")")
        elif tok[0] == "name":
            self.take()
            if tok[1] not in self.ring._index:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
            p = self.ring.var(tok[1])
        else:
            raise ParseError(f"expected a variable, '(' or a number, found {tok[1]!r}", tok[2])
        if self.peek()[0] == "^":
            self.take()
            etok = self.take("int")
            p = p ** int(etok[1])
        return p
