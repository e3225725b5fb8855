"""Parsing, canonical printing, and JSON forms for the core value types.

The text grammar (l is the deformation parameter, i the imaginary unit):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := rational | 'i' | 'l' | var | '(' expr ')'

Division appears only inside rational literals (``3/4``), never between
expressions.  The lexer finds the token texts with one regex ``findall`` and
checks each distinct text once; a token's line and column are found, by
scanning the text again, only when an error is raised.  The variable names
that occur resolve through ``observables._CHART_PREFIXES``, the one table from
chart to name prefixes.  Every parsed value is one sparse term map, {exponent:
{power of l: (re, im, d)}}, for scalars (re + i*im)/d, whose sums, products
and powers follow PolyObservable arithmetic: the same terms, term order and
``tail_lost`` flags.  A term's sign and each run of plain factors (numbers,
i, l and variables, each with an optional power) fold into one monomial,
multiplied in once.  The observable and each coefficient series are built
once, at the end; the printer and JSON read their ints directly.

Canonical printing emits terms in descending graded-lex order with ascending
powers of l inside each term; ``parse(print(x)) == x`` holds for every value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import add

from .errors import MixedChart, ParseError, SchemaError, UnknownVariable
from .observables import _CHART_PREFIXES, PhaseSpaceSignature, PolyObservable
from .series import FormalSeries, GaussianRational, _order, _reduced

# -- canonical printing ---------------------------------------------------------


def _lowest(n, d):
    g = gcd(n, d)
    return n // g, d // g


def _rational_text(n, d):
    n, d = _lowest(n, d)
    return str(n) if d == 1 else f"{n}/{d}"


def _scalar_text(re_, im, d):
    """Canonical form of (re_ + i*im)/d, as ``gaussian_text`` gives it."""
    rtext = _rational_text(re_, d)
    if not im:
        return rtext
    istr = "i" if im == d else "-i" if im == -d \
        else f"{_rational_text(im, d)}*i"
    if not re_:
        return istr
    return f"{rtext} + {istr}" if im > 0 else f"{rtext} - {istr.lstrip('-')}"


def gaussian_text(c: GaussianRational) -> str:
    """Canonical scalar form: ``3``, ``-1/4``, ``i``, ``1/2*i``, ``1 - 2*i``."""
    return series_text(FormalSeries((c,), 1))


def _atom_text(re_, im, d, var_factors, leading=False) -> str:
    if not var_factors:
        text = _scalar_text(re_, im, d)
        return f"({text})" if text.startswith("-") and not leading else text
    var_str = "*".join(var_factors)
    if re_ == d and not im:
        return var_str
    text = _scalar_text(re_, im, d)
    return f"{text}*{var_str}" if not im and re_ > 0 else f"({text})*{var_str}"


def _graded_lex(exp):
    """Sort key for descending graded-lex order of exponent vectors."""
    return -sum(exp), tuple(-e for e in exp)


def _power_factor(name, k):
    return name if k == 1 else f"{name}^{k}"


def series_text(s: FormalSeries) -> str:
    v, parts = s._v, []
    for k in range(0, len(v), 2):
        if v[k] or v[k + 1]:
            factors = [_power_factor("l", k // 2)] if k else []
            parts.append(_atom_text(v[k], v[k + 1], s._d, factors, not parts))
    return " + ".join(parts) if parts else "0"


def observable_text(f: PolyObservable) -> str:
    names = f.signature.variables()
    atoms = [(exp, k // 2, c._v[k], c._v[k + 1], c._d)
             for exp, c in f.terms.items()
             for k in range(0, len(c._v), 2) if c._v[k] or c._v[k + 1]]
    atoms.sort(key=lambda a: (*_graded_lex(a[0]), a[1]))
    parts = []
    for exp, r, re_, im, d in atoms:
        factors = [_power_factor(names[k], e)
                   for k, e in enumerate(exp) if e]
        if r:
            factors.append(_power_factor("l", r))
        parts.append(_atom_text(re_, im, d, factors, leading=not parts))
    return " + ".join(parts) if parts else "0"


def operator_text(op) -> str:
    """Canonical text of a differential operator, e.g. ``(-i*l)*d/dq1 + q1``."""
    names = op.signature.variables()
    items = sorted(op.terms.items(), key=lambda kv: _graded_lex(kv[0]))
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

# Optional whitespace, then a number, a name or any other non-space character,
# so only trailing whitespace is left unmatched.  The first character tells the
# kind: ``\d`` is ``str.isdecimal``, and only ASCII letters start a name.
_TOKEN_RE = re.compile(r"\s*(\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9]*|\S)")

_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_OPS = frozenset("-+*^()")


def _error(cls, message, src, index):
    """``cls(message)`` at the 1-based line and column of token ``index`` (the
    end of ``src`` past the last token); the text is scanned again for it."""
    m = next(islice(_TOKEN_RE.finditer(src), index, None), None)
    offset = m.start(1) if m else len(src)
    return cls(message, src.count("\n", 0, offset) + 1,
               offset - src.rfind("\n", 0, offset))


def _tokenize(src):
    """The token texts and an empty end marker, each number text's reduced
    (num, den), and the variable names in order of first occurrence.  A text
    is checked at its first occurrence, where its first error would be."""
    tokens = _TOKEN_RE.findall(src)
    numbers, names = {}, []
    for tok in dict.fromkeys(tokens):
        if tok[0].isdecimal():
            num, _, den = tok.partition("/")
            if den and not int(den):
                raise _error(ParseError, "zero denominator", src,
                             tokens.index(tok))
            numbers[tok] = _lowest(int(num), int(den or 1))
        elif tok[0] in _LETTERS:
            if tok != "i" and tok != "l":
                names.append(tok)
        elif tok not in _OPS:
            raise _error(ParseError, f"unexpected character {tok!r}", src,
                         tokens.index(tok))
    tokens.append("")
    return tokens, numbers, names


# Each chart and each of its name prefixes mapped to its variable family; a
# variable is a prefix and an index, longer prefixes tried first.
_FAMILY_OF_CHART = dict(real="real", wave="real", holo="holo", fock="fock")
_FAMILY_OF_PREFIX = {prefix: _FAMILY_OF_CHART[chart]
                     for chart, prefixes in _CHART_PREFIXES.items()
                     for prefix in prefixes}
_VAR_RE = re.compile("(%s)([1-9][0-9]*)$" % "|".join(
    sorted(_FAMILY_OF_PREFIX, key=len, reverse=True)))


def _classify_variables(tokens, names, n, chart, src):
    """Check each name at its first occurrence, where all its errors sit;
    infer the chart (named after its family) or check the given one."""
    seen = set()
    for name in names:
        m = _VAR_RE.match(name)
        family = m and _FAMILY_OF_PREFIX[m.group(1)]
        if not family:
            raise _error(UnknownVariable, f"unknown variable {name!r}", src,
                         tokens.index(name))
        if int(m.group(2)) > n:
            raise _error(UnknownVariable, f"variable {name!r} out of range "
                         f"for n={n}", src, tokens.index(name))
        seen.add(family)
        if len(seen) > 1:
            raise _error(MixedChart, "variables from different charts in one "
                         "expression", src, tokens.index(name))
    if chart is None:
        return seen.pop() if seen else "real"
    if seen - {_FAMILY_OF_CHART[chart]}:
        raise MixedChart(f"expression does not fit chart {chart!r}")
    return chart


_ONE = (1, 0, 1)


def _scalar_mul(a, b):
    (ar, ai, ad), (br, bi, bd) = a, b
    return ar * br - ai * bi, ar * bi + ai * br, ad * bd


def _scalar_power(c, k):
    """c^k by repeated squaring: exact, so equal to k sequential products."""
    result = _ONE
    while k:
        if k & 1:
            result = _scalar_mul(result, c)
        k >>= 1
        if k:
            c = _scalar_mul(c, c)
    return result


def _accumulate(powers, r, c):
    """powers[r] += c for a nonzero c, over the lcm of the denominators,
    keeping only nonzero powers."""
    if r in powers:
        (ar, ai, ad), (br, bi, bd) = powers[r], c
        d = lcm(ad, bd)
        c = (ar * (d // ad) + br * (d // bd),
             ai * (d // ad) + bi * (d // bd), d)
    if c[0] or c[1]:
        powers[r] = c
    else:
        del powers[r]


def _series(powers, order, lost):
    """sum_r powers[r] l^r as a series over the lcm of the denominators."""
    d = lcm(*[c[2] for c in powers.values()])
    v = [0] * (2 * order)
    for r, (re_, im, cd) in powers.items():
        v[2 * r], v[2 * r + 1] = re_ * (d // cd), im * (d // cd)
    return _reduced(order, lost, d, v)


class _Terms:
    """A parsed value: ``terms`` maps an exponent to [powers, coeff_lost],
    powers being {power of l: nonzero scalar}; ``coeff_lost`` and
    ``lost`` are the tail_lost flags of the coefficient and the observable.
    Each operation gives the terms, term order and flags of its PolyObservable
    counterpart; a vanished coefficient is dropped, its flag put in ``lost``.
    """

    __slots__ = ("terms", "lost")

    def __init__(self, terms, lost=False):
        self.terms = terms
        self.lost = lost

    def __iadd__(self, other):
        """Add ``other`` in place; it is consumed."""
        terms = self.terms
        lost = self.lost or other.lost
        for exp, slot in other.terms.items():
            mine = terms.get(exp)
            if mine is None:
                terms[exp] = slot
                continue
            for r, c in slot[0].items():
                _accumulate(mine[0], r, c)
            mine[1] = mine[1] or slot[1]
            if not mine[0]:
                del terms[exp]
                lost = lost or mine[1]
        self.lost = lost
        return self

    def times(self, other, order):
        """The pointwise product: every pair of terms in order, a pair of
        powers at l^order or beyond marking its coefficient lost.  An
        exact-zero factor (no terms, nothing lost) gives an exact zero."""
        if not (self.terms or self.lost) or not (other.terms or other.lost):
            return _Terms({})
        terms = {}
        for e1, (p1, f1) in self.terms.items():
            for e2, (p2, f2) in other.terms.items():
                exp = tuple(map(add, e1, e2))
                slot = terms.setdefault(exp, [{}, False])
                powers, flag = slot[0], slot[1] or f1 or f2
                for r1, a in p1.items():
                    for r2, b in p2.items():
                        if r1 + r2 >= order:
                            flag = True
                        else:
                            _accumulate(powers, r1 + r2, b if a is _ONE
                                        else a if b is _ONE
                                        else _scalar_mul(a, b))
                slot[1] = flag
        lost = self.lost or other.lost
        for exp in [exp for exp, slot in terms.items() if not slot[0]]:
            lost = terms.pop(exp)[1] or lost
        return _Terms(terms, lost)

    def power(self, k, order, zero):
        """k - 1 successive products, as PolyObservable.__pow__ takes them,
        in closed form for a single term c*l^r*x^exp."""
        if k == 0:
            return _Terms({zero: [{0: _ONE}, False]})
        if len(self.terms) == 1:
            [(exp, (powers, flag))] = self.terms.items()
            if len(powers) == 1:
                [(r, c)] = powers.items()
                if r * k >= order:
                    return _Terms({}, True)
                if c is not _ONE:
                    c = _scalar_power(c, k)
                return _Terms({tuple(e * k for e in exp): [{r * k: c}, flag]},
                              self.lost)
        result = self
        for _ in range(k - 1):
            result = result.times(self, order)
        return result


class _Parser:
    """Recursive descent over the token texts; every value is a _Terms.
    ``plain`` maps each number, i, l and variable to c*l^r*x_index as
    (c, r, index): c is None for a zero, and index None for no variable."""

    def __init__(self, src, tokens, numbers, names, signature, order):
        self.src = src
        self.tokens = tokens
        self.numbers = numbers
        self.pos = 0
        self.plain = {text: ((num, 0, den) if num else None, 0, None)
                      for text, (num, den) in numbers.items()}
        self.plain.update(i=((0, 1, 1), 0, None), l=(_ONE, 1, None))
        n, prefixes = signature.n, _CHART_PREFIXES[signature.chart]
        for name in names:  # parse_atom rejects a prefix of another chart
            prefix, k = _VAR_RE.match(name).groups()
            if prefix in prefixes:
                self.plain[name] = (_ONE, 0,
                                    prefixes.index(prefix) * n + int(k) - 1)
        self.chart = signature.chart
        self.order = order
        self.zero_exp = (0,) * signature.width

    def parse_expr(self):
        tokens = self.tokens
        negate = tokens[self.pos] == "-"
        self.pos += negate
        value = self.parse_term(negate)
        while tokens[self.pos] in ("+", "-"):
            self.pos += 1
            value += self.parse_term(tokens[self.pos - 1] == "-")
        return value

    def parse_term(self, negate):
        """factor ('*' factor)*, negated if asked.  The sign (c = -1) and each
        run of plain factors are folded into one monomial c*l^r*x^exp and
        multiplied in once: exact, flags included, below l^order.  A factor
        that is no monomial, or that would carry the run to l^order, ends the
        run first."""
        tokens, order = self.tokens, self.order
        value = exp = None  # exp is None while no run is open
        if negate:
            c, r, exp = (-1, 0, 1), 0, list(self.zero_exp)
        while True:
            atom = self.plain.get(tokens[self.pos])
            self.pos += atom is not None
            factor = None if atom else self.parse_atom()
            k = self.parse_exponent() if tokens[self.pos] == "^" else 1
            if factor is not None:
                if k != 1:
                    factor = factor.power(k, order, self.zero_exp)
            else:
                a, s, var = atom if k else (_ONE, 0, None)  # x^0 is 1
                if a is None or s * k >= order:  # 0^k, or l^k past l^order
                    factor = _Terms({}, a is not None)
                elif k > 1 and a is not _ONE:
                    a = _scalar_power(a, k)
            if exp is not None and (factor is not None or r + s * k >= order):
                value, exp = self.times_run(value, c, r, exp), None
            if factor is not None:
                value = factor if value is None else value.times(factor, order)
            elif exp is None:
                c, r, exp = a, s * k, list(self.zero_exp)
            else:
                c = c if a is _ONE else a if c is _ONE else _scalar_mul(c, a)
                r += s * k
            if factor is None and var is not None:
                exp[var] += k
            if tokens[self.pos] != "*":
                break
            self.pos += 1
        return value if exp is None else self.times_run(value, c, r, exp)

    def times_run(self, value, c, r, exp):
        run = _Terms({tuple(exp): [{r: c}, False]})
        return run if value is None else value.times(run, self.order)

    def parse_exponent(self):
        """The k of '^k'."""
        self.pos += 2
        k = self.numbers.get(self.tokens[self.pos - 1])
        if k is None or k[1] != 1:
            raise _error(ParseError, "exponent must be a nonnegative integer",
                         self.src, self.pos - 1)
        return k[0]

    def parse_atom(self):
        """'(' expr ')' or an error: parse_term reads the plain atoms."""
        tok = self.tokens[self.pos]
        if tok == "(":
            self.pos += 1
            value = self.parse_expr()
            if self.tokens[self.pos] != ")":
                raise _error(ParseError, "expected ')'", self.src, self.pos)
            self.pos += 1
            return value
        if tok[:1] in _LETTERS:
            raise _error(UnknownVariable, f"variable {tok!r} not in chart "
                         f"{self.chart!r}", self.src, self.pos)
        raise _error(ParseError, f"unexpected token {tok!r}", self.src,
                     self.pos)


def _parse(src, n, order, chart, scalar=False):
    """The observable of ``src``, each coefficient series built once; a
    scalar admits no variable."""
    tokens, numbers, names = _tokenize(src)
    if scalar and names:
        raise _error(ParseError, f"variable {names[0]!r} not allowed in a "
                     "scalar", src, tokens.index(names[0]))
    order = _order(order)
    signature = PhaseSpaceSignature(n, _classify_variables(tokens, names, n,
                                                           chart, src))
    parser = _Parser(src, tokens, numbers, names, signature, order)
    value = parser.parse_expr()
    if parser.pos != len(tokens) - 1:
        raise _error(ParseError, f"trailing input {tokens[parser.pos]!r}", src,
                     parser.pos)
    terms = {exp: _series(powers, order, flag)
             for exp, (powers, flag) in value.terms.items()}
    return PolyObservable(signature, terms, order, value.lost)


def parse(src, n=1, order=None, chart=None) -> PolyObservable:
    """Parse an expression into an observable; the chart is inferred from the
    variables unless given explicitly."""
    return _parse(src, n, order, chart)


def parse_series(src, order=None) -> FormalSeries:
    """Parse a scalar expression (rationals, i, l only) into a series.  A
    value that vanishes up to l^K keeps the parse's lost tail."""
    obs = _parse(src, 1, order, "real", scalar=True)
    c = obs.terms.get((0, 0))
    return FormalSeries((), obs.order, obs.tail_lost) if c is None else c


# -- JSON forms -------------------------------------------------------------------

SCHEMA_VERSION = 1


def _require(cond, message, pointer):
    if not cond:
        raise SchemaError(message, pointer)


def gaussian_to_json(c: GaussianRational):
    return [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]


def _checked_gaussian(obj, pointer):
    _require(isinstance(obj, list) and len(obj) == 4, "expected [re_num, "
             "re_den, im_num, im_den]", pointer)
    for k, v in enumerate(obj):
        _require(isinstance(v, int), "expected integer", f"{pointer}/{k}")
    _require(obj[1] > 0 and obj[3] > 0, "denominators must be positive",
             pointer)
    return obj


def gaussian_from_json(obj, pointer=""):
    a, b, c, d = _checked_gaussian(obj, pointer)
    return GaussianRational(Fraction(a, b), Fraction(c, d))


def series_to_json(s: FormalSeries):
    d, v = s._d, s._v + (0, 0) * (s.order - len(s._v) // 2)
    return {"K": s.order, "coeffs": [[*_lowest(v[k], d), *_lowest(v[k + 1], d)]
                                     for k in range(0, len(v), 2)]}


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
    parts = [_checked_gaussian(c, f"{pointer}/coeffs/{k}")
             for k, c in enumerate(coeffs)]
    return _series({k: (a * d, c * b, b * d)
                    for k, (a, b, c, d) in enumerate(parts)}, K, False)


def _terms_to_json(terms):
    """{"exp", "coeff"} objects in descending graded-lex order of exp."""
    items = sorted(terms.items(), key=lambda kv: _graded_lex(kv[0]))
    return [{"exp": list(exp), "coeff": series_to_json(c)} for exp, c in items]


def _signature_from_json(obj, pointer):
    """The signature of a payload, and its K (None when absent)."""
    n = obj.get("n")
    _require(isinstance(n, int) and n >= 1, "n must be a positive integer",
             f"{pointer}/n")
    chart = obj.get("chart", "real")
    _require(chart in ("real", "holo", "fock", "wave"),
             f"unknown chart {chart!r}", f"{pointer}/chart")
    K = obj.get("K")
    _require(K is None or isinstance(K, int) and K >= 1,
             "K must be a positive integer", f"{pointer}/K")
    return PhaseSpaceSignature(n, chart), K


def _small_series_from_json(obj, pointer, expect_order):
    """A pairing or generator coefficient: a series that is O(l)."""
    s = series_from_json(obj, pointer, expect_order)
    _require(s.valuation() != 0, "coefficient must be O(l)", pointer)
    return s


def _terms_from_json(items, pointer, sig, order, read=series_from_json):
    """{exp: coefficient} from a list of {"exp", "coeff"} objects, and the
    coefficients' shared truncation order (``order`` when given)."""
    _require(isinstance(items, list), "expected a list of terms", pointer)
    terms = {}
    for k, item in enumerate(items):
        tp = f"{pointer}/{k}"
        _require(isinstance(item, dict) and "exp" in item and "coeff" in item,
                 "term needs exp and coeff", tp)
        exp = item["exp"]
        _require(isinstance(exp, list) and len(exp) == sig.width
                 and all(isinstance(e, int) and e >= 0 for e in exp),
                 f"exp must be {sig.width} nonnegative integers", f"{tp}/exp")
        coeff = read(item["coeff"], f"{tp}/coeff", order)
        order = coeff.order
        terms[tuple(exp)] = coeff
    return terms, order


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
        return {"schema_version": SCHEMA_VERSION, "n": x.signature.n,
                "chart": x.signature.chart, "terms": _terms_to_json(x.terms),
                "type": "observable"}
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
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "equiv_operator",
            "n": x.signature.n,
            "chart": x.signature.chart,
            "K": x.order,
            "name": x.name,
            "generator": _terms_to_json(x.generator),
        }
    if hasattr(x, "to_json"):
        return x.to_json()
    raise SchemaError(f"cannot serialize {type(x).__name__}")


def deserialize(obj, pointer=""):
    from .functionals import Functional
    from .star import EquivOperatorSpec, StarProductSpec, builtin_spec

    _require(isinstance(obj, dict), "expected a JSON object", pointer)
    _require("type" in obj, "missing type tag", pointer)
    kind = obj["type"]
    if kind == "series":
        return series_from_json(obj, pointer)
    if kind == "observable":
        _require("n" in obj and "terms" in obj, "observable needs n and terms",
                 pointer)
        sig, _ = _signature_from_json(obj, pointer)
        terms, order = _terms_from_json(obj["terms"], f"{pointer}/terms", sig,
                                        None)
        return PolyObservable(sig, terms, order)
    if kind == "star_product":
        sig, K = _signature_from_json(obj, pointer)
        if obj.get("kind") in ("weyl", "wick", "std"):
            return builtin_spec(obj["kind"], sig.n, K)
        w, rows = sig.width, obj.get("pairing")
        _require(isinstance(rows, list) and len(rows) == w
                 and all(isinstance(row, list) and len(row) == w
                         for row in rows),
                 f"custom spec needs a {w}x{w} pairing", f"{pointer}/pairing")
        pairing = [[_small_series_from_json(
            e, f"{pointer}/pairing/{r}/{c}", K) for c, e in enumerate(row)]
            for r, row in enumerate(rows)]
        return StarProductSpec(sig, pairing, K)
    if kind == "equiv_operator":
        sig, K = _signature_from_json(obj, pointer)
        gen, _ = _terms_from_json(obj.get("generator", []),
                                  f"{pointer}/generator", sig, K,
                                  _small_series_from_json)
        return EquivOperatorSpec(sig, gen, K, name=obj.get("name", "custom"))
    if kind == "functional":
        sig, _ = _signature_from_json(obj, pointer)
        point = obj.get("point")
        _require(isinstance(point, list), "point must be a list of scalars",
                 f"{pointer}/point")
        point = [gaussian_from_json(c, f"{pointer}/point/{k}")
                 for k, c in enumerate(point)]
        pre = obj.get("pre_operator")
        op = deserialize(pre, f"{pointer}/pre_operator") if pre else None
        _require(op is None or isinstance(op, EquivOperatorSpec),
                 "pre_operator must be an equiv_operator",
                 f"{pointer}/pre_operator")
        return Functional(sig, point, op)
    if kind == "matrix":
        from .matrices import matrix_from_json
        return matrix_from_json(obj, pointer)
    if kind == "gns_result":
        from .reps import gns_result_from_json
        return gns_result_from_json(obj, pointer)
    raise SchemaError(f"unknown type tag {kind!r}", f"{pointer}/type")
