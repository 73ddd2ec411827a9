"""Line-oriented script language driving the whole engine.

One statement per line; `#` starts a comment; a trailing `;` is allowed.

    field QQ|Fp:<p>                     # before any declaration
    let NAME = KIND(args)
    product A B
    pullback F C
    pushforward F C
    compose C D
    degree X
    verify IDENTITY ARG...
    glue SPACE: chartname = cycle, ...
    assert_equal A B
    print X

let-kinds (sections separated by `;`):

    ring(x, y, ...)
    chart(RING[; relation, ...])
    localize(CHART; element)
    atlas(CHART; element, ...)          # principal cover, charts NAME.U0, ...
    ideal(RING-or-CHART; gen, ...)
    cycle(CHART; 2*[(x, y)] + [IDEAL])  # re-parses everything the engine prints
    points(CHART; gen, ...)
    fundamental(CHART)
    divisor(CHART; numerator[; denominator])
    weil(DIVISOR)
    map(SRC -> TGT; var = image, ...[; flat, finite, proper])
    product(A, B)      pullback(F, C)    pushforward(F, C)
    graph(F)           transpose(C)      compose(C, D)
    restrict(C, LOCALIZED-CHART)

Cycle arguments to verbs may be declared names or bracket literals such as
`[I]` (fundamental cycle of a declared ideal) or `[(y - x^2)]`.  Unbalanced
`()` or `[]`, or a bracket closed by the other kind as in `(x]`, anywhere in
a `let` statement or in a verb's arguments make the script malformed
(ScriptParseError, exit code 2 from the CLI).  Reports
serialize cycles as arrays of {"prime": [...], "mult": n} and products
carry their full torsion length tables.

The verbs product, pullback, pushforward and compose make their result with
the same call as the let kind of the same name: the let form declares it,
the verb records it in the report and echoes it.
"""

import json
import re

from .correspondences import correspondence_degree
from .correspondences import compose as compose_correspondences
from .correspondences import graph as graph_of_map
from .errors import EngineError, RingMismatchError
from .fields import QQ, field_from_name
from .geometry import (CartierDivisor, Chart, cycle_of_subscheme,
                       point_cycle, principal_atlas, restrict_cycle,
                       serialize_cycle)
from .groebner import Ideal
from .intersection import identity_sides, intersection_product
from .morphisms import ChartMap, flat_pullback, proper_pushforward
from .morphisms import degree as map_degree
from .polyring import PolynomialRing
from .primes import prime_cache_scope

SCHEMA = "chowcalc-report/1"

_NAME = r"[A-Za-z_]\w*"


class ScriptParseError(Exception):
    """Malformed statement; reported with its line number, exit code 2."""


def field_name(field):
    return "QQ" if field is QQ or getattr(field, "p", None) is None \
        else f"Fp:{field.p}"


_OPENER = {")": "(", "]": "["}


def _scan(text, seps=None):
    """[(separator, chunk)]: `text` split at the characters of `seps`
    (whitespace when None) outside any (), [] nesting; each chunk comes
    with the separator before it, None for the first."""
    pairs, buf, opened, before = [], [], [], None
    for ch in text:
        if ch in "([":
            opened.append(ch)
        elif ch in _OPENER:
            if not opened or opened.pop() != _OPENER[ch]:
                raise ScriptParseError(f"unbalanced brackets in {text!r}")
        if not opened and (ch.isspace() if seps is None else ch in seps):
            pairs.append((before, "".join(buf)))
            buf, before = [], ch
        else:
            buf.append(ch)
    if opened:
        raise ScriptParseError(f"unbalanced brackets in {text!r}")
    pairs.append((before, "".join(buf)))
    return pairs


def _split_top(text, sep):
    """Split on `sep` outside any (), [] nesting."""
    return [chunk for _, chunk in _scan(text, sep)]


def _verb_args(rest, count, usage):
    """The whitespace-separated arguments of a verb: exactly `count` of
    them, or two or more when `count` is None."""
    args = [chunk for _, chunk in _scan(rest) if chunk]
    if len(args) < 2 if count is None else len(args) != count:
        raise ScriptParseError(usage)
    return args


def _signed_terms(text):
    """[(sign, chunk)] at top-level +/- boundaries."""
    out, sign = [], 1
    for sep, chunk in _scan(text, "+-"):
        sign *= -1 if sep == "-" else 1
        if chunk.strip():
            out.append((sign, chunk.strip()))
            sign = 1
    return out


_TERM_RE = re.compile(r"(?:(\d+)\s*\*\s*)?\[(.+)\]\Z", re.S)


def _is_cycle_literal(token):
    """A bracket literal such as `[I]` or `2*[(x)]`, not a declared name."""
    return token.startswith("[") or ("*" in token and "[" in token)


class Interpreter:
    """Executes parsed statements against a name environment."""

    def __init__(self, field=None, echo=None, trace=None):
        self.field = field
        self.env = {}
        self.results = []
        self.failed = False
        self.error = None
        self.echo = echo if echo is not None else (lambda line: None)
        self.trace = trace if trace is not None else (lambda line: None)
        self._auto_charts = {}

    # ------------------------------------------------------------------
    # environment helpers

    def _field_now(self):
        if self.field is None:
            self.field = QQ
        return self.field

    def _declare(self, name, kind, obj):
        if name in self.env:
            raise EngineError(f"name {name!r} already declared")
        self.env[name] = (kind, obj)
        return obj

    def _lookup(self, name, kinds=None):
        if name not in self.env:
            raise EngineError(f"undeclared name {name!r}")
        kind, obj = self.env[name]
        if kinds is not None and kind not in kinds:
            raise EngineError(
                f"{name!r} is a {kind}, expected one of {sorted(kinds)}")
        return kind, obj

    def _chart(self, name):
        return self._lookup(name, {"chart"})[1]

    def _ring_of(self, name):
        kind, obj = self._lookup(name, {"ring", "chart"})
        return obj if kind == "ring" else obj.ring

    def _chart_for_ring(self, ring):
        declared = [obj for kind, obj in self.env.values()
                    if kind == "chart" and obj.ring == ring]
        if len(declared) == 1:
            return declared[0]
        if len(declared) > 1:
            raise EngineError(
                "several charts share this ring; name the chart explicitly")
        if ring not in self._auto_charts:
            label = f"Spec[{', '.join(ring.names)}]"
            self._auto_charts[ring] = Chart(label, ring)
        return self._auto_charts[ring]

    # ------------------------------------------------------------------
    # cycle literals

    def _parse_cycle(self, text, chart=None):
        terms = _signed_terms(text)
        if not terms:
            raise ScriptParseError(f"empty cycle literal {text!r}")
        parsed = []
        for sign, chunk in terms:
            m = _TERM_RE.fullmatch(chunk.strip())
            if not m:
                raise ScriptParseError(f"bad cycle term {chunk!r}")
            mult = sign * int(m.group(1) or 1)
            inner = m.group(2).strip()
            parsed.append((mult, inner))
        # pin down the chart before parsing generators
        if chart is None:
            for _, inner in parsed:
                if not inner.startswith("("):
                    chart = self._chart_for_ring(
                        self._lookup(inner, {"ideal"})[1].ring)
                    break
            else:
                charts = [obj for kind, obj in self.env.values()
                          if kind == "chart"]
                rings = [obj for kind, obj in self.env.values()
                         if kind == "ring"]
                if len(charts) == 1:
                    chart = charts[0]
                elif not charts and len(rings) == 1:
                    chart = self._chart_for_ring(rings[0])
                else:
                    raise EngineError(
                        f"cannot infer a chart for cycle {text!r}; "
                        "declare it with cycle(CHART; ...)")
        total = None
        for mult, inner in parsed:
            if inner.startswith("("):
                if not inner.endswith(")"):
                    raise ScriptParseError(f"bad cycle term [({inner!r}]")
                gens = [g.strip() for g in inner[1:-1].split(",") if g.strip()]
                I = Ideal(chart.ring, gens)
            else:
                I = self._lookup(inner, {"ideal"})[1]
                if I.ring != chart.ring:
                    raise RingMismatchError(
                        f"ideal {inner!r} lives on a different ring")
            piece = mult * cycle_of_subscheme(I, chart)
            total = piece if total is None else total + piece
        return total

    def _resolve_cycle(self, token, chart=None):
        if _is_cycle_literal(token):
            return self._parse_cycle(token, chart)
        return self._lookup(token, {"cycle"})[1]

    def _resolve_any(self, token):
        if _is_cycle_literal(token):
            return "cycle", self._parse_cycle(token)
        return self._lookup(token)

    # ------------------------------------------------------------------
    # let-expression builders

    def _build(self, name, kind, sections):
        builder = getattr(self, f"_build_{kind}", None)
        if builder is None:
            raise ScriptParseError(f"unknown kind {kind!r}")
        return builder(name, sections)

    @staticmethod
    def _args(section):
        return [a.strip() for a in _split_top(section, ",") if a.strip()]

    def _build_ring(self, name, sections):
        if len(sections) != 1:
            raise ScriptParseError("ring(v1, v2, ...)")
        names = self._args(sections[0])
        if not names or not all(re.fullmatch(_NAME, v) for v in names):
            raise ScriptParseError(f"bad variable list {sections[0]!r}")
        ring = PolynomialRing(self._field_now(), tuple(names))
        return self._declare(name, "ring", ring)

    def _build_chart(self, name, sections):
        if not sections or len(sections) > 2:
            raise ScriptParseError("chart(RING[; relations])")
        ring = self._ring_of(sections[0].strip())
        rels = self._args(sections[1]) if len(sections) == 2 else ()
        chart = Chart(name, ring, Ideal(ring, rels))
        return self._declare(name, "chart", chart)

    def _build_localize(self, name, sections):
        if len(sections) != 2:
            raise ScriptParseError("localize(CHART; element)")
        chart = self._chart(sections[0].strip())
        loc = chart.localize(sections[1].strip(), name=name)
        return self._declare(name, "chart", loc)

    def _build_atlas(self, name, sections):
        if len(sections) != 2:
            raise ScriptParseError("atlas(CHART; element, ...)")
        chart = self._chart(sections[0].strip())
        elements = self._args(sections[1])
        space = principal_atlas(chart, elements)
        self._declare(name, "atlas", space)
        for label, member in space.charts.items():
            self.env[f"{name}.{label}"] = ("chart", member)
        return space

    def _build_ideal(self, name, sections):
        if len(sections) != 2:
            raise ScriptParseError("ideal(RING; gen, ...)")
        ring = self._ring_of(sections[0].strip())
        I = Ideal(ring, self._args(sections[1]))
        return self._declare(name, "ideal", I)

    def _build_cycle(self, name, sections):
        if len(sections) != 2:
            raise ScriptParseError("cycle(CHART; literal)")
        chart = self._chart(sections[0].strip())
        return self._declare(name, "cycle",
                             self._parse_cycle(sections[1].strip(), chart))

    def _build_points(self, name, sections):
        if len(sections) != 2:
            raise ScriptParseError("points(CHART; gen, ...)")
        chart = self._chart(sections[0].strip())
        I = Ideal(chart.ring, self._args(sections[1]))
        return self._declare(name, "cycle", point_cycle(chart, I))

    def _build_fundamental(self, name, sections):
        if len(sections) != 1:
            raise ScriptParseError("fundamental(CHART)")
        chart = self._chart(sections[0].strip())
        cyc = cycle_of_subscheme(Ideal(chart.ring, ()), chart, grade=0)
        return self._declare(name, "cycle", cyc)

    def _build_divisor(self, name, sections):
        if len(sections) not in (2, 3):
            raise ScriptParseError("divisor(CHART; num[; den])")
        chart = self._chart(sections[0].strip())
        num = sections[1].strip()
        den = sections[2].strip() if len(sections) == 3 else None
        return self._declare(name, "divisor", CartierDivisor(chart, num, den))

    def _build_weil(self, name, sections):
        if len(sections) != 1:
            raise ScriptParseError("weil(DIVISOR)")
        D = self._lookup(sections[0].strip(), {"divisor"})[1]
        return self._declare(name, "cycle", D.weil())

    def _build_map(self, name, sections):
        if len(sections) not in (2, 3):
            raise ScriptParseError("map(SRC -> TGT; var = image, ...[; flags])")
        ends = sections[0].split("->")
        if len(ends) != 2:
            raise ScriptParseError(f"bad map header {sections[0]!r}")
        src = self._chart(ends[0].strip())
        tgt = self._chart(ends[1].strip())
        images = {}
        for piece in self._args(sections[1]):
            var, eq, img = piece.partition("=")
            if not eq:
                raise ScriptParseError(f"bad image assignment {piece!r}")
            images[var.strip()] = img.strip()
        flags = {"flat": None, "finite": None, "proper": None}
        if len(sections) == 3:
            for flag in self._args(sections[2]):
                if flag not in flags:
                    raise ScriptParseError(f"unknown map flag {flag!r}")
                flags[flag] = True
        m = ChartMap(src, tgt, images, **flags)
        return self._declare(name, "map", m)

    def _build_product(self, name, sections):
        rep = self._make_product(self._let_pair(sections, "product(A, B)"))
        return self._declare(name, "cycle", rep.cycle)

    def _build_pullback(self, name, sections):
        out = self._make_pullback(self._let_pair(sections, "pullback(F, C)"))
        return self._declare(name, "cycle", out)

    def _build_pushforward(self, name, sections):
        out = self._make_pushforward(
            self._let_pair(sections, "pushforward(F, C)"))
        return self._declare(name, "cycle", out)

    def _build_graph(self, name, sections):
        if len(sections) != 1:
            raise ScriptParseError("graph(MAP)")
        f = self._lookup(sections[0].strip(), {"map"})[1]
        return self._declare(name, "corr", graph_of_map(f))

    def _build_transpose(self, name, sections):
        if len(sections) != 1:
            raise ScriptParseError("transpose(CORR)")
        c = self._lookup(sections[0].strip(), {"corr"})[1]
        return self._declare(name, "corr", c.transpose())

    def _build_compose(self, name, sections):
        out = self._make_compose(
            self._let_pair(sections, "compose(FIRST, SECOND)"))
        return self._declare(name, "corr", out)

    def _build_restrict(self, name, sections):
        args = self._let_pair(sections, "restrict(CYCLE, CHART)")
        c = self._resolve_cycle(args[0])
        loc = self._chart(args[1])
        return self._declare(name, "cycle", restrict_cycle(c, loc))

    def _let_pair(self, sections, usage):
        args = self._args(sections[0]) if len(sections) == 1 else None
        if not args or len(args) != 2:
            raise ScriptParseError(usage)
        return args

    # ------------------------------------------------------------------
    # engine calls shared by a let kind and the verb of the same name; each
    # takes the two argument tokens

    def _make_product(self, args):
        a, b = [self._resolve_cycle(t) for t in args]
        return intersection_product(a, b, report=True)

    def _make_pullback(self, args):
        f = self._lookup(args[0], {"map"})[1]
        return flat_pullback(f, self._resolve_cycle(args[1], f.target))

    def _make_pushforward(self, args):
        f = self._lookup(args[0], {"map"})[1]
        return proper_pushforward(f, self._resolve_cycle(args[1], f.source))

    def _make_compose(self, args):
        first, second = [self._lookup(t, {"corr"})[1] for t in args]
        return compose_correspondences(first, second)

    # ------------------------------------------------------------------
    # verbs

    def _verb_field(self, rest):
        (name,) = _verb_args(rest, 1, "field QQ|Fp:<p>")
        if self.env:
            raise EngineError("field must be chosen before declarations")
        self.field = field_from_name(name)

    def _verb_product(self, rest):
        toks = _verb_args(rest, 2, "product A B")
        rep = self._make_product(toks)
        self._record("product", toks, rep.cycle,
                     tor_table=rep.as_dict()["rows"])

    def _verb_pullback(self, rest):
        toks = _verb_args(rest, 2, "pullback F C")
        self._record("pullback", toks, self._make_pullback(toks))

    def _verb_pushforward(self, rest):
        toks = _verb_args(rest, 2, "pushforward F C")
        self._record("pushforward", toks, self._make_pushforward(toks))

    def _verb_compose(self, rest):
        toks = _verb_args(rest, 2, "compose FIRST SECOND")
        out = self._make_compose(toks)
        self._record("compose", toks, out.cycle,
                     source=out.source.name, target=out.target.name)

    def _record(self, op, toks, cycle, **extra):
        """Append the result of an engine verb and echo its cycle."""
        self.results.append({"op": op, "args": toks, **extra,
                             "cycle": serialize_cycle(cycle)})
        self.echo(str(cycle))

    def _verb_degree(self, rest):
        toks = _verb_args(rest, 1, "degree X")
        kind, obj = self._resolve_any(toks[0])
        if kind == "map":
            value = map_degree(obj)
        elif kind == "corr":
            value = correspondence_degree(obj)
        elif kind == "cycle":
            value = obj.degree()
        else:
            raise EngineError(f"degree undefined for a {kind}")
        self.results.append({"op": "degree", "arg": toks[0], "value": value})
        self.echo(str(value))

    def _verb_verify(self, rest):
        identity, *raw = _verb_args(rest, None, "verify IDENTITY ARG...")
        objs = [self._resolve_any(t)[1] for t in raw]
        lhs, rhs = identity_sides(identity, *objs)
        ok = lhs == rhs
        self.results.append({
            "op": "verify", "identity": identity, "pass": ok,
            "lhs": serialize_cycle(lhs), "rhs": serialize_cycle(rhs),
        })
        if not ok:
            self.failed = True
        self.echo(f"verify {identity}: {'pass' if ok else 'FAIL'}")

    def _verb_glue(self, rest):
        usage = "glue SPACE: chart = cycle, ..."
        space_name, colon, assigns = rest.partition(":")
        if not colon:
            raise ScriptParseError(usage)
        (space_name,) = _verb_args(space_name, 1, usage)
        space = self._lookup(space_name, {"atlas"})[1]
        data = {}
        for piece in _split_top(assigns, ","):
            piece = piece.strip()
            if not piece:
                continue
            label, eq, token = piece.partition("=")
            if not eq:
                raise ScriptParseError(f"bad glue assignment {piece!r}")
            label, token = label.strip(), token.strip()
            if label not in space.charts:
                raise EngineError(f"no chart {label!r} in {space_name!r}")
            data[label] = self._resolve_cycle(token, space.charts[label])
        ok, messages = space.glue_cycles(data)
        self.results.append({"op": "glue", "space": space_name,
                             "pass": ok, "messages": messages})
        if not ok:
            self.failed = True
        self.echo(f"glue {space_name}: "
                  f"{'consistent' if ok else 'INCONSISTENT'}")

    def _verb_assert_equal(self, rest):
        toks = _verb_args(rest, 2, "assert_equal A B")
        a = self._resolve_any(toks[0])[1]
        b = self._resolve_any(toks[1])[1]
        ok = a == b
        self.results.append({"op": "assert_equal", "args": toks, "pass": ok})
        if not ok:
            self.failed = True
        self.echo(f"assert_equal: {'pass' if ok else 'FAIL'}")

    def _verb_print(self, rest):
        toks = _verb_args(rest, 1, "print X")
        kind, obj = self._resolve_any(toks[0])
        self.results.append({"op": "print", "arg": toks[0],
                             "value": serialize_object(kind, obj)})
        self.echo(str(obj))

    # ------------------------------------------------------------------
    # statements

    def execute(self, line):
        stmt = line.split("#", 1)[0].strip()
        if stmt.endswith(";"):
            stmt = stmt[:-1].rstrip()
        if not stmt:
            return
        self.trace(stmt)
        verb = stmt.split(None, 1)[0]
        if verb == "let":
            m = re.fullmatch(
                rf"let\s+({_NAME})\s*=\s*({_NAME})\s*\((.*)\)", stmt, re.S)
            if not m:
                raise ScriptParseError(f"bad let statement {stmt!r}")
            name, kind, inner = m.group(1), m.group(2), m.group(3)
            sections = [s.strip() for s in _split_top(inner, ";")]
            self._build(name, kind, sections)
            return
        handler = getattr(self, f"_verb_{verb}", None)
        if handler is None:
            raise ScriptParseError(f"unknown statement {verb!r}")
        handler(stmt[len(verb):].strip())

    def run(self, text):
        for lineno, line in enumerate(text.splitlines(), start=1):
            try:
                self.execute(line)
            except ScriptParseError as exc:
                raise ScriptParseError(f"line {lineno}: {exc}") from None
            except EngineError as exc:
                self.error = {"line": lineno, "message": str(exc)}
                self.echo(f"error: line {lineno}: {exc}")
                break

    def report(self):
        objects = {}
        for name, (kind, obj) in self.env.items():
            try:
                objects[name] = serialize_object(kind, obj)
            except EngineError as exc:
                objects[name] = {"kind": kind, "error": str(exc)}
        doc = {
            "schema": SCHEMA,
            "field": field_name(self._field_now()),
            "ok": self.error is None and not self.failed,
            "results": self.results,
            "objects": objects,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


# ----------------------------------------------------------------------
# serialization

def serialize_object(kind, obj):
    if kind == "ring":
        return {"kind": "ring", "field": field_name(obj.field),
                "vars": list(obj.names)}
    if kind == "chart":
        return {"kind": "chart", "name": obj.name,
                "vars": list(obj.ring.names),
                "relations": [str(g) for g in obj.ideal.gens],
                "dim": obj.dim()}
    if kind == "ideal":
        return {"kind": "ideal", "gens": [str(g) for g in obj.gens],
                "basis": [str(g) for g in obj.groebner_basis()]}
    if kind == "cycle":
        return {"kind": "cycle", "chart": obj.chart.name, "grade": obj.grade,
                "components": serialize_cycle(obj)}
    if kind == "divisor":
        return {"kind": "divisor", "chart": obj.chart.name,
                "num": str(obj.num), "den": str(obj.den)}
    if kind == "map":
        return {"kind": "map", "source": obj.source.name,
                "target": obj.target.name,
                "images": {nm: str(img) for nm, img in obj.images.items()},
                "flat": obj.flat, "finite": obj.finite, "proper": obj.proper}
    if kind == "corr":
        return {"kind": "correspondence", "source": obj.source.name,
                "target": obj.target.name, "grade": obj.cycle.grade,
                "cycle": serialize_cycle(obj.cycle)}
    if kind == "atlas":
        return {"kind": "atlas", "name": obj.name,
                "charts": sorted(obj.charts)}
    raise EngineError(f"unserializable kind {kind!r}")


@prime_cache_scope()
def run_script(text, field=None, echo=None, trace=None):
    """Execute a script; returns (report dict, exit code 0|1)."""
    interp = Interpreter(field=field, echo=echo, trace=trace)
    interp.run(text)
    report = interp.report()
    return report, (0 if report["ok"] else 1)


def render_report(report):
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
