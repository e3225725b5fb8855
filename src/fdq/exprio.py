"""Parsing, canonical printing, and JSON forms for the core value types.

The text grammar (l is the deformation parameter, i the imaginary unit):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := rational | 'i' | 'l' | var | '(' expr ')'

Division appears only inside rational literals (``3/4``), never between
expressions.  The parser builds terms directly: a product of atoms is one
monomial (scalar, power of l, exponent vector) until it meets ``+``, ``-``
or a factor with several terms, and a sum gathers its terms in one dict.
The result, term order and ``tail_lost`` flags included, is what
PolyObservable arithmetic gives on the same text.

Canonical printing emits terms in descending graded-lex order with ascending
powers of l inside each term; ``parse(print(x)) == x`` holds for every value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .errors import MixedChart, ParseError, SchemaError, UnknownVariable
from .observables import PhaseSpaceSignature, PolyObservable
from .series import (DEFAULT_ORDER, GR_I, GR_ONE, GR_ZERO, FormalSeries,
                     GaussianRational)

# -- canonical printing ---------------------------------------------------------


def rational_text(q: Fraction) -> str:
    return str(q)


def gaussian_text(c: GaussianRational) -> str:
    """Canonical scalar form: ``3``, ``-1/4``, ``i``, ``1/2*i``, ``1 - 2*i``."""
    re_, im = c.re, c.im
    if not im:
        return rational_text(re_)
    if im == 1:
        istr = "i"
    elif im == -1:
        istr = "-i"
    else:
        istr = f"{rational_text(im)}*i"
    if not re_:
        return istr
    if im > 0:
        return f"{rational_text(re_)} + {istr}"
    return f"{rational_text(re_)} - {istr.lstrip('-')}"


def _atom_text(c: GaussianRational, var_factors, leading=False) -> str:
    if not var_factors:
        text = gaussian_text(c)
        if text.startswith("-") and not leading:
            return f"({text})"
        return text
    var_str = "*".join(var_factors)
    if c == GaussianRational(1):
        return var_str
    ctext = gaussian_text(c)
    if c.is_real() and c.re > 0:
        return f"{ctext}*{var_str}"
    return f"({ctext})*{var_str}"


def _power_factor(name, k):
    return name if k == 1 else f"{name}^{k}"


def series_text(s: FormalSeries) -> str:
    parts = []
    for r, c in enumerate(s.coeffs):
        if not c:
            continue
        factors = [] if r == 0 else [_power_factor("l", r)]
        parts.append(_atom_text(c, factors, leading=not parts))
    return " + ".join(parts) if parts else "0"


def observable_text(f: PolyObservable) -> str:
    names = f.signature.variables()
    atoms = []
    for exp, coeff in f.terms.items():
        for r, c in enumerate(coeff.coeffs):
            if c:
                atoms.append((exp, r, c))
    atoms.sort(key=lambda a: (-sum(a[0]), tuple(-e for e in a[0]), a[1]))
    parts = []
    for exp, r, c in atoms:
        factors = [_power_factor(names[k], e)
                   for k, e in enumerate(exp) if e]
        if r:
            factors.append(_power_factor("l", r))
        parts.append(_atom_text(c, factors, leading=not parts))
    return " + ".join(parts) if parts else "0"


def operator_text(op) -> str:
    """Canonical text of a differential operator, e.g. ``(-i*l)*d/dq1 + q1``."""
    names = op.signature.variables()
    items = sorted(op.terms.items(),
                   key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
    parts = []
    for exp, coeff in items:
        deriv = "*".join(
            (f"d/d{names[k]}" if e == 1 else f"d^{e}/d{names[k]}^{e}")
            for k, e in enumerate(exp) if e)
        ctext = observable_text(coeff)
        if not deriv:
            parts.append(ctext)
        elif ctext == "1":
            parts.append(deriv)
        else:
            parts.append(f"({ctext})*{deriv}")
    return " + ".join(parts) if parts else "0"


# -- tokenizer -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[-+*^()])
""", re.VERBOSE)

_VAR_RE = re.compile(r"(qb|zb|yb|q|p|z)([1-9][0-9]*)$")


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(src):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup == "number":
            if "/" in text:
                num, den = text.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", line, col)
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(text))
            tokens.append(_Token("number", value, line, col))
        elif m.lastgroup == "name":
            tokens.append(_Token("name", text, line, col))
        elif m.lastgroup == "op":
            tokens.append(_Token("op", text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


_CHART_OF_PREFIX = {"q": "real", "p": "real", "z": "holo", "zb": "holo",
                    "yb": "fock"}


def _classify_variables(tokens, n, chart):
    """Infer/validate the chart from variable names; map names to indices."""
    seen_real = seen_holo = seen_fock = False
    for tok in tokens:
        if tok.kind != "name" or tok.value in ("i", "l"):
            continue
        m = _VAR_RE.match(tok.value)
        if not m:
            raise UnknownVariable(f"unknown variable {tok.value!r}",
                                  tok.line, tok.column)
        prefix, idx = m.group(1), int(m.group(2))
        family = _CHART_OF_PREFIX.get(prefix)
        if family is None:
            raise UnknownVariable(f"unknown variable {tok.value!r}",
                                  tok.line, tok.column)
        if idx > n:
            raise UnknownVariable(
                f"variable {tok.value!r} out of range for n={n}",
                tok.line, tok.column)
        if family == "real":
            seen_real = True
        elif family == "holo":
            seen_holo = True
        else:
            seen_fock = True
        if seen_real + seen_holo + seen_fock > 1:
            raise MixedChart("variables from different charts in one "
                             "expression", tok.line, tok.column)
    if chart is None:
        if seen_holo:
            chart = "holo"
        elif seen_fock:
            chart = "fock"
        else:
            chart = "real"
    else:
        want = {"real": seen_holo or seen_fock, "wave": seen_holo or seen_fock,
                "holo": seen_real or seen_fock,
                "fock": seen_real or seen_holo}[chart]
        if want:
            raise MixedChart(f"expression does not fit chart {chart!r}")
    return chart


def _variable_index(signature, name, tok):
    m = _VAR_RE.match(name)
    prefix, idx = m.group(1), int(m.group(2))
    n = signature.n
    chart = signature.chart
    if chart in ("real", "wave"):
        if prefix == "q":
            return idx - 1
        if prefix == "p" and chart == "real":
            return n + idx - 1
    elif chart == "holo":
        if prefix == "z":
            return idx - 1
        if prefix == "zb":
            return n + idx - 1
    elif chart == "fock":
        if prefix == "yb":
            return idx - 1
    raise UnknownVariable(f"variable {name!r} not in chart {chart!r}",
                          tok.line, tok.column)


def _scalar_power(c, k):
    """c^k by repeated squaring: exact, so equal to k sequential products."""
    result = GR_ONE
    while k:
        if k & 1:
            result = result * c
        k >>= 1
        if k:
            c = c * c
    return result


class _Monomial:
    """A product of atoms, c*l^lpow*x^exp, held as the one term that
    PolyObservable arithmetic would hold for it.

    ``scalar`` None is the empty product (an observable with no terms).
    ``lost`` is the observable's tail_lost flag, ``coeff_lost`` that of the
    coefficient.  Every method gives what the PolyObservable operation of the
    same name gives on ``observable()``, flags included.
    """

    __slots__ = ("scalar", "lpow", "exp", "coeff_lost", "lost")

    def __init__(self, scalar, lpow, exp, coeff_lost=False, lost=False):
        self.scalar = scalar
        self.lpow = lpow
        self.exp = exp
        self.coeff_lost = coeff_lost
        self.lost = lost

    @classmethod
    def of(cls, f):
        """f as a monomial, or None when f has two terms or a coefficient
        with two nonzero powers of l."""
        if not f.terms:
            return cls(None, 0, (0,) * f.signature.width, False, f.tail_lost)
        if len(f.terms) > 1:
            return None
        [(exp, coeff)] = f.terms.items()
        nonzero = [r for r, c in enumerate(coeff.coeffs) if c]
        if len(nonzero) > 1:
            return None
        r = nonzero[0]
        return cls(coeff.coeffs[r], r, exp, coeff.tail_lost, f.tail_lost)

    def empty(self, lost):
        return _Monomial(None, 0, self.exp, False, lost)

    def times(self, other, order):
        lost = self.lost or other.lost
        if self.scalar is None or other.scalar is None:
            return self.empty(lost)
        lpow = self.lpow + other.lpow
        if lpow >= order:
            # The one product term lies beyond l^K.
            return self.empty(True)
        a, b = self.scalar, other.scalar
        scalar = b if a is GR_ONE else a if b is GR_ONE else a * b
        return _Monomial(scalar, lpow, tuple(map(add, self.exp, other.exp)),
                         self.coeff_lost or other.coeff_lost, lost)

    def power(self, k, order):
        if k == 0:
            return _Monomial(GR_ONE, 0, (0,) * len(self.exp))
        if self.scalar is None:
            return self
        lpow = self.lpow * k
        if lpow >= order:
            return self.empty(True)
        scalar = self.scalar
        if scalar is not GR_ONE:
            scalar = _scalar_power(scalar, k)
        return _Monomial(scalar, lpow,
                         tuple(e * k for e in self.exp), self.coeff_lost,
                         self.lost)

    def __neg__(self):
        if self.scalar is None:
            return self
        return _Monomial(-self.scalar, self.lpow, self.exp, self.coeff_lost,
                         self.lost)

    def items(self, order):
        """The (exp, coefficient) pairs of ``observable()``."""
        if self.scalar is None:
            return ()
        coeff = FormalSeries((GR_ZERO,) * self.lpow + (self.scalar,), order,
                             self.coeff_lost)
        return ((self.exp, coeff),)

    def observable(self, signature, order):
        return PolyObservable(signature, dict(self.items(order)), order,
                              self.lost)


class _Parser:
    """Recursive descent over the token list; a value is a _Monomial until
    it meets ``+``/``-`` or a factor that is not one."""

    def __init__(self, tokens, signature, order):
        self.tokens = tokens
        self.pos = 0
        self.signature = signature
        self.order = order
        self.zero_exp = (0,) * signature.width

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, ops):
        tok = self.tokens[self.pos]
        return tok.kind == "op" and tok.value in ops

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            raise ParseError(f"expected {op!r}", tok.line, tok.column)
        return tok

    def observable(self, value):
        if isinstance(value, _Monomial):
            return value.observable(self.signature, self.order)
        return value

    def parse_expr(self):
        """A single term comes back as it is; a sum as a PolyObservable."""
        negate = self.at_op("-")
        if negate:
            self.pos += 1
        value = self.parse_term()
        if negate:
            value = -value
        if not self.at_op("+-"):
            return value
        # One dict for the whole sum, with the term order, the dropped zero
        # coefficients and the flags of PolyObservable.__add__ at each sign.
        K = self.order
        terms = {}
        lost = False
        while True:
            if isinstance(value, _Monomial):
                items = value.items(K)
                lost = lost or value.lost
            else:
                items = value.terms.items()
                lost = lost or value.tail_lost
            for exp, c in items:
                old = terms.get(exp)
                if old is None:
                    terms[exp] = c
                    continue
                c = old + c
                if c.is_zero():
                    del terms[exp]
                    lost = lost or c.tail_lost
                else:
                    terms[exp] = c
            if not self.at_op("+-"):
                return PolyObservable(self.signature, terms, K, lost)
            negate = self.next().value == "-"
            value = self.parse_term()
            if negate:
                value = -value

    def parse_term(self):
        value = self.parse_factor()
        while self.at_op("*"):
            self.pos += 1
            rhs = self.parse_factor()
            if isinstance(value, _Monomial) and isinstance(rhs, _Monomial):
                value = value.times(rhs, self.order)
            else:
                value = self.observable(value) * self.observable(rhs)
        return value

    def parse_factor(self):
        value = self.parse_atom()
        if self.at_op("^"):
            self.pos += 1
            exp_tok = self.next()
            if exp_tok.kind != "number" or exp_tok.value.denominator != 1 \
                    or exp_tok.value < 0:
                raise ParseError("exponent must be a nonnegative integer",
                                 exp_tok.line, exp_tok.column)
            k = int(exp_tok.value)
            value = value.power(k, self.order) \
                if isinstance(value, _Monomial) else value ** k
        return value

    def parse_atom(self):
        tok = self.next()
        zero = self.zero_exp
        if tok.kind == "number":
            if not tok.value:
                return _Monomial(None, 0, zero)
            return _Monomial(GaussianRational(tok.value), 0, zero)
        if tok.kind == "name":
            if tok.value == "i":
                return _Monomial(GR_I, 0, zero)
            if tok.value == "l":
                # l is the zero series with a lost tail when K = 1.
                if self.order == 1:
                    return _Monomial(None, 0, zero, False, True)
                return _Monomial(GR_ONE, 1, zero)
            index = _variable_index(self.signature, tok.value, tok)
            exp = list(zero)
            exp[index] = 1
            return _Monomial(GR_ONE, 0, tuple(exp))
        if tok.kind == "op" and tok.value == "(":
            value = self.parse_expr()
            self.expect_op(")")
            if isinstance(value, PolyObservable):
                return _Monomial.of(value) or value
            return value
        raise ParseError(f"unexpected token {tok.value!r}", tok.line,
                         tok.column)


def _parse_tokens(tokens, n, order, chart):
    chart = _classify_variables(tokens, n, chart)
    signature = PhaseSpaceSignature(n, chart)
    parser = _Parser(tokens, signature, order)
    value = parser.observable(parser.parse_expr())
    end = parser.next()
    if end.kind != "end":
        raise ParseError(f"trailing input {end.value!r}", end.line, end.column)
    return value


def parse(src, n=1, order=None, chart=None) -> PolyObservable:
    """Parse an expression into an observable; the chart is inferred from the
    variables unless given explicitly."""
    return _parse_tokens(_tokenize(src), n, order or DEFAULT_ORDER, chart)


def parse_series(src, order=None) -> FormalSeries:
    """Parse a scalar expression (rationals, i, l only) into a series."""
    tokens = _tokenize(src)
    for tok in tokens:
        if tok.kind == "name" and tok.value not in ("i", "l"):
            raise ParseError(f"variable {tok.value!r} not allowed in a scalar",
                             tok.line, tok.column)
    order = order or DEFAULT_ORDER
    obs = _parse_tokens(tokens, 1, order, "real")
    return obs.terms.get((0, 0), FormalSeries.zero(order))


# -- JSON forms -------------------------------------------------------------------

SCHEMA_VERSION = 1


def _require(cond, message, pointer):
    if not cond:
        raise SchemaError(message, pointer)


def gaussian_to_json(c: GaussianRational):
    return [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]


def gaussian_from_json(obj, pointer=""):
    _require(isinstance(obj, list) and len(obj) == 4, "expected [re_num, "
             "re_den, im_num, im_den]", pointer)
    for k, v in enumerate(obj):
        _require(isinstance(v, int), "expected integer", f"{pointer}/{k}")
    _require(obj[1] > 0 and obj[3] > 0, "denominators must be positive",
             pointer)
    return GaussianRational(Fraction(obj[0], obj[1]), Fraction(obj[2], obj[3]))


def series_to_json(s: FormalSeries):
    return {"K": s.order, "coeffs": [gaussian_to_json(c) for c in s.coeffs]}


def series_from_json(obj, pointer="", expect_order=None):
    _require(isinstance(obj, dict), "expected series object", pointer)
    _require("K" in obj and "coeffs" in obj, "series needs K and coeffs",
             pointer)
    K = obj["K"]
    _require(isinstance(K, int) and K >= 1, "K must be a positive integer",
             f"{pointer}/K")
    if expect_order is not None:
        _require(K == expect_order,
                 f"truncation order {K} does not match expected "
                 f"{expect_order}", f"{pointer}/K")
    coeffs = obj["coeffs"]
    _require(isinstance(coeffs, list) and len(coeffs) == K,
             "coeffs must list exactly K entries", f"{pointer}/coeffs")
    return FormalSeries(
        tuple(gaussian_from_json(c, f"{pointer}/coeffs/{k}")
              for k, c in enumerate(coeffs)), K)


def observable_to_json(f: PolyObservable):
    terms = sorted(f.terms.items(),
                   key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
    return {
        "schema_version": SCHEMA_VERSION,
        "n": f.signature.n,
        "chart": f.signature.chart,
        "terms": [{"exp": list(exp), "coeff": series_to_json(c)}
                  for exp, c in terms],
    }


def observable_from_json(obj, pointer=""):
    _require(isinstance(obj, dict), "expected observable object", pointer)
    _require("n" in obj and "terms" in obj, "observable needs n and terms",
             pointer)
    n = obj["n"]
    _require(isinstance(n, int) and n >= 1, "n must be a positive integer",
             f"{pointer}/n")
    chart = obj.get("chart", "real")
    _require(chart in ("real", "holo", "fock", "wave"),
             f"unknown chart {chart!r}", f"{pointer}/chart")
    sig = PhaseSpaceSignature(n, chart)
    terms = {}
    order = None
    for k, item in enumerate(obj["terms"]):
        tp = f"{pointer}/terms/{k}"
        _require(isinstance(item, dict) and "exp" in item and "coeff" in item,
                 "term needs exp and coeff", tp)
        exp = item["exp"]
        _require(isinstance(exp, list) and len(exp) == sig.width
                 and all(isinstance(e, int) and e >= 0 for e in exp),
                 f"exp must be {sig.width} nonnegative integers", f"{tp}/exp")
        coeff = series_from_json(item["coeff"], f"{tp}/coeff", order)
        order = coeff.order
        terms[tuple(exp)] = coeff
    return PolyObservable(sig, terms, order)


def serialize(x):
    """Tagged JSON form for any core value; inverse of deserialize."""
    from .functionals import Functional
    from .star import EquivOperatorSpec, StarProductSpec

    if isinstance(x, Functional):
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "functional",
            "n": x.signature.n,
            "chart": x.signature.chart,
            "point": [gaussian_to_json(c) for c in x.base_point],
            "pre_operator": serialize(x.pre_operator)
                            if x.pre_operator is not None else None,
        }
    if isinstance(x, FormalSeries):
        payload = series_to_json(x)
        payload.update({"schema_version": SCHEMA_VERSION, "type": "series"})
        return payload
    if isinstance(x, PolyObservable):
        payload = observable_to_json(x)
        payload["type"] = "observable"
        return payload
    if isinstance(x, StarProductSpec):
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "star_product",
            "kind": x.name if x.name in ("weyl", "wick", "std") else "custom",
            "n": x.signature.n,
            "chart": x.signature.chart,
            "K": x.order,
            "pairing": [[series_to_json(e) for e in row] for row in x.pairing],
        }
    if isinstance(x, EquivOperatorSpec):
        gens = sorted(x.generator.items(),
                      key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "equiv_operator",
            "n": x.signature.n,
            "chart": x.signature.chart,
            "K": x.order,
            "name": x.name,
            "generator": [{"exp": list(e), "coeff": series_to_json(c)}
                          for e, c in gens],
        }
    if hasattr(x, "to_json"):
        return x.to_json()
    raise SchemaError(f"cannot serialize {type(x).__name__}")


def deserialize(obj, pointer=""):
    from .star import EquivOperatorSpec, StarProductSpec, builtin_spec

    _require(isinstance(obj, dict), "expected a JSON object", pointer)
    _require("type" in obj, "missing type tag", pointer)
    kind = obj["type"]
    if kind == "series":
        return series_from_json(obj, pointer)
    if kind == "observable":
        return observable_from_json(obj, pointer)
    if kind == "star_product":
        _require("n" in obj and isinstance(obj["n"], int), "missing n",
                 f"{pointer}/n")
        if obj.get("kind") in ("weyl", "wick", "std"):
            spec = builtin_spec(obj["kind"], obj["n"], obj.get("K"))
            return spec
        chart = obj.get("chart", "real")
        sig = PhaseSpaceSignature(obj["n"], chart)
        pairing_json = obj.get("pairing")
        _require(isinstance(pairing_json, list), "custom spec needs pairing",
                 f"{pointer}/pairing")
        pairing = [[series_from_json(e, f"{pointer}/pairing/{r}/{c}")
                    for c, e in enumerate(row)]
                   for r, row in enumerate(pairing_json)]
        return StarProductSpec(sig, pairing, obj.get("K"))
    if kind == "equiv_operator":
        sig = PhaseSpaceSignature(obj["n"], obj.get("chart", "real"))
        gen = {}
        for k, item in enumerate(obj.get("generator", [])):
            tp = f"{pointer}/generator/{k}"
            _require(isinstance(item, dict) and "exp" in item
                     and "coeff" in item, "generator term needs exp and coeff",
                     tp)
            gen[tuple(item["exp"])] = series_from_json(item["coeff"],
                                                       f"{tp}/coeff")
        return EquivOperatorSpec(sig, gen, obj.get("K"),
                                 name=obj.get("name", "custom"))
    if kind == "functional":
        from .functionals import Functional
        _require("n" in obj and "point" in obj, "functional needs n and point",
                 pointer)
        sig = PhaseSpaceSignature(obj["n"], obj.get("chart", "real"))
        point = [gaussian_from_json(c, f"{pointer}/point/{k}")
                 for k, c in enumerate(obj["point"])]
        pre = obj.get("pre_operator")
        op = deserialize(pre, f"{pointer}/pre_operator") if pre else None
        return Functional(sig, point, op)
    if kind == "matrix":
        from .matrices import matrix_from_json
        return matrix_from_json(obj, pointer)
    if kind == "gns_result":
        from .reps import gns_result_from_json
        return gns_result_from_json(obj, pointer)
    raise SchemaError(f"unknown type tag {kind!r}", f"{pointer}/type")
