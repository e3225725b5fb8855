import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fdq import exprio
from fdq.errors import (FdqError, MixedChart, ParseError, SchemaError,
                        UnknownVariable)
from fdq.exprio import (_graded_lex, _power_factor, _require, deserialize,
                        gaussian_text, observable_text, parse, parse_series,
                        serialize, series_from_json, series_text,
                        series_to_json)
from fdq.observables import PhaseSpaceSignature, PolyObservable
from fdq.series import FormalSeries, GaussianRational
from fdq.star import op_s, weyl, wick

K = 4


# -- parsing ---------------------------------------------------------------------------


def test_parse_oscillator():
    h = parse("1/2*(p1^2 + q1^2)", 1, K)
    q2 = PolyObservable.monomial(
        h.signature, (2, 0), K,
        FormalSeries.from_scalar(GaussianRational(Fraction(1, 2)), K))
    p2 = PolyObservable.monomial(
        h.signature, (0, 2), K,
        FormalSeries.from_scalar(GaussianRational(Fraction(1, 2)), K))
    assert h == q2 + p2


def test_parse_qp_plus_lambda():
    f = parse("q1*p1 + l", 1, K)
    assert f.terms[(1, 1)] == FormalSeries.one(K)
    assert f.terms[(0, 0)] == FormalSeries.lam(1, K)


def test_parse_mixed_chart_rejected():
    with pytest.raises(MixedChart):
        parse("q1 + z1", 1, K)


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse("q3", 2, K)
    with pytest.raises(UnknownVariable):
        parse("w1", 1, K)


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse("q1 + ", 1, K)
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse("q1 ** 2", 1, K)
    with pytest.raises(ParseError):
        parse("(q1", 1, K)
    with pytest.raises(ParseError):
        parse("q1^(2)", 1, K)
    with pytest.raises(ParseError):
        parse("1/0", 1, K)


def test_parse_never_crashes_on_fuzz():
    import random
    rng = random.Random(7)
    alphabet = "qp1 2z+-*^()/li."
    for _ in range(300):
        src = "".join(rng.choice(alphabet)
                      for _ in range(rng.randint(1, 25)))
        try:
            parse(src, 2, K)
        except ParseError:
            pass


def test_parse_series():
    s = parse_series("1/2 + i*l + 3*l^2", K)
    assert s.coeffs[0] == GaussianRational(Fraction(1, 2))
    assert s.coeffs[1] == GaussianRational(0, 1)
    assert s.coeffs[2] == GaussianRational(3)
    with pytest.raises(ParseError):
        parse_series("q1", K)


def test_division_only_in_literals():
    with pytest.raises(ParseError):
        parse("q1/p1", 1, K)


# -- the term-building parser against PolyObservable arithmetic -----------------------


# The lexer as it was before the one-pass scan, kept verbatim as the reference:
# tokens carry line and column, and names are matched again for their index.

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[-+*^()])
""", re.VERBOSE)

_VAR_RE = re.compile(r"(qb|zb|yb|q|p|z)([1-9][0-9]*)$")


class _Token:
    __slots__ = ("kind", "value", "line", "column", "text")

    def __init__(self, kind, value, line, column, text=""):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column
        self.text = text


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
            tokens.append(_Token("number", value, line, col, text))
        elif m.lastgroup == "name":
            tokens.append(_Token("name", text, line, col, text))
        elif m.lastgroup == "op":
            tokens.append(_Token("op", text, line, col, text))
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


class _ReferenceParser:
    """The grammar evaluated with PolyObservable arithmetic for every atom,
    product, sum and power: the parser before terms were built directly."""

    def __init__(self, tokens, signature, order):
        self.tokens = tokens
        self.pos = 0
        self.signature = signature
        self.order = order

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            raise ParseError(f"expected {op!r}", tok.line, tok.column)

    def parse_expr(self):
        tok = self.peek()
        negate = tok.kind == "op" and tok.value == "-"
        if negate:
            self.next()
        value = self.parse_term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.next()
                rhs = self.parse_term()
                value = value + rhs if tok.value == "+" else value - rhs
            else:
                return value

    def parse_term(self):
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "*":
                self.next()
                value = value * self.parse_factor()
            else:
                return value

    def parse_factor(self):
        value = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok.kind != "number" or exp_tok.value.denominator != 1 \
                    or exp_tok.value < 0:
                raise ParseError("exponent must be a nonnegative integer",
                                 exp_tok.line, exp_tok.column)
            value = value ** int(exp_tok.value)
        return value

    def parse_atom(self):
        tok = self.next()
        sig, K = self.signature, self.order
        if tok.kind == "number":
            return PolyObservable.constant(
                sig, FormalSeries.from_scalar(GaussianRational(tok.value), K))
        if tok.kind == "name":
            if tok.value == "i":
                return PolyObservable.constant(
                    sig, FormalSeries.from_scalar(GaussianRational(0, 1), K))
            if tok.value == "l":
                return PolyObservable.constant(sig, FormalSeries.lam(1, K))
            index = _variable_index(sig, tok.value, tok)
            return PolyObservable.variable(sig, index, K)
        if tok.kind == "op" and tok.value == "(":
            value = self.parse_expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {tok.value!r}", tok.line,
                         tok.column)


def reference_parse(src, n=1, order=K, chart=None):
    tokens = _tokenize(src)
    chart = _classify_variables(tokens, n, chart)
    parser = _ReferenceParser(tokens, PhaseSpaceSignature(n, chart), order)
    value = parser.parse_expr()
    end = parser.next()
    if end.kind != "end":
        raise ParseError(f"trailing input {end.text!r}", end.line, end.column)
    return value


def _outcome(parser, src, n, order, chart):
    """Terms in order with coefficient values and flags, and the observable
    flag; or the error's class, message, line and column."""
    try:
        f = parser(src, n, order, chart)
    except ParseError as exc:
        return ("error", type(exc), str(exc), exc.line, exc.column)
    return ("value", f.signature, f.order, f.tail_lost,
            [(exp, c.coeffs, c.tail_lost) for exp, c in f.terms.items()])


def assert_parses_like_reference(src, n=1, order=K, chart=None):
    want = _outcome(reference_parse, src, n, order, chart)
    assert _outcome(parse, src, n, order, chart) == want, src


_NAMES = {"real": ("q", "p"), "holo": ("z", "zb"), "fock": ("yb",),
          "wave": ("q", "p")}
_RATIONALS = ("0", "1", "2", "3", "1/2", "3/4", "0/5", "4/2", "12")


@st.composite
def _expr_text(draw, names, depth):
    terms = []
    for k in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(
                ("number", "i", "l", "var", "var", "paren") if depth
                else ("number", "i", "l", "var", "var")))
            if kind == "paren":
                atom = f"({draw(_expr_text(names, depth - 1))})"
                top = 2
            else:
                atom = {"number": draw(st.sampled_from(_RATIONALS)),
                        "i": "i", "l": "l",
                        "var": draw(st.sampled_from(names))}[kind]
                top = 5
            if draw(st.booleans()):
                atom += f"^{draw(st.integers(0, top))}"
            factors.append(atom)
        sign = draw(st.sampled_from(("", "-"))) if k == 0 \
            else draw(st.sampled_from((" + ", " - ")))
        terms.append(sign + "*".join(factors))
    return "".join(terms)


_TOKENS = ("+", "-", "*", "^", "(", ")", "2", "l", "q1", "i", "", "1/2", " ")


@st.composite
def _parse_cases(draw):
    chart = draw(st.sampled_from(("real", "holo", "fock", "wave")))
    n = draw(st.integers(1, 2))
    names = [f"{p}{k}" for p in _NAMES[chart] for k in range(1, n + 1)]
    src = draw(_expr_text(names, 2))
    if draw(st.integers(0, 3)) == 0:
        # Splice a token in, so the error paths are compared as well.
        at = draw(st.integers(0, len(src)))
        src = src[:at] + draw(st.sampled_from(_TOKENS)) + src[at:]
    given_chart = chart if chart == "wave" or draw(st.booleans()) else None
    return src, n, draw(st.integers(1, 4)), given_chart


@settings(max_examples=400)
@given(_parse_cases())
def test_parse_matches_polyobservable_arithmetic(case):
    assert_parses_like_reference(*case)


@pytest.mark.parametrize("src, n, order, chart", [
    ("l", 1, 1, None),
    ("l^3*0", 1, 3, None),
    ("0*l^3", 1, 3, None),
    ("0*l*l*l", 1, 2, None),
    ("q1*l*l*l*p1", 1, 3, None),
    ("l*l*l*l", 1, 3, None),
    ("l^0", 1, 1, None),
    ("q1 - q1 + q1", 1, K, None),
    ("q1 - q1 + p1 + q1", 1, K, None),
    ("l^2*q1 + q1 - l^2*q1", 1, 2, None),
    ("((q1*l + 2*i)^2*(p1 - l))^2", 1, K, None),
    ("-((-q1))^2", 1, K, None),
    ("(1/2 - 3*i)*q1^2*l + (2*i)*q1^2*l", 1, K, None),
    ("((1 + l)*l)^2*q1", 1, 2, None),
    ("((1 + l)*l)*q1 + p1", 1, 2, None),
    ("(1 + l)*l - l + q1", 1, 2, None),
    ("(q1 + l^2*q1 - l^2*q1)^2", 1, 2, None),
    ("(2*i*z1*l)^3 + zb1^0 - 1/2*z1*zb2", 2, 6, "holo"),
    ("yb1^2*yb2 + (i*yb1 - yb2)^2", 2, 3, None),
    ("yb1 + l^4", 1, 4, "fock"),
    ("q1 +", 1, K, None),
    ("q1*p1 -", 1, K, None),
    ("(q1 + p1", 1, K, None),
    ("q1^", 1, K, None),
    ("p1", 1, K, "wave"),
    ("(1 + l)^3", 1, 2, None),
    ("(l*q1 + p1)^2", 1, 2, None),
    ("(l^2)^0", 1, 2, None),
    ("0^0", 1, 4, None),
    ("(0*q1)^3", 1, 4, None),
    ("q1*l - q1*l + p1 + q1*l", 1, 3, None),
    ("(q1 + l*q1)*(q1 - l*q1)", 1, 2, None),
    ("(q1 + l)^4", 1, 2, None),
    ("(l*l)^0*q1", 1, 2, None),
    ("1 + l*(l + l*l)", 1, 2, None),
    ("q1^4/2 + p1^0/5", 1, K, None),
    ("q1^(4/2)", 1, K, None),
    ("q1^3/2", 1, K, None),
    ("0/7", 1, K, None),
    ("0/7*q1 + 2/4*i*l - 0/7*l^9", 1, K, None),
    # Runs of plain factors folded into one monomial: a zero after a run
    # that follows a value, a run carried past l^order, x^0 inside a run,
    # and a sign taken into the first run.
    ("(l^3 + q1)*l^2*0", 1, 4, None),
    ("(q1+1)*q1*0*l", 1, 3, None),
    ("(l^3 + q1)*l*l^3", 1, 4, None),
    ("2*(q1 + l)*l^2*p1^0*3", 1, 3, None),
    ("-0*l*l*l - l*l*l", 1, 2, None),
    ("q1 - (l^3 + q1)*l^2*0", 1, 4, None),
    # A Unicode decimal digit is a number; a superscript digit is not.
    ("\u0663*q1", 1, K, None),
    ("\u00b2*q1", 1, K, None),
])
def test_parse_matches_reference_on_edge_cases(src, n, order, chart):
    assert_parses_like_reference(src, n, order, chart)


# Pieces of arbitrary text: grammar characters, digits, letters, variable
# names of every chart, whitespace and characters outside the grammar.
_TEXT_PIECES = tuple("+-*^()/0123456789ilqpzbxw $.é") + (
    "q1", "p1", "q2", "p2", "z1", "zb1", "zb2", "yb1", "yb2", "qb1", "q0",
    " ", "\n", "\t")


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=8).map("".join),
       st.integers(1, 2), st.integers(1, 4))
def test_lexer_matches_reference_on_arbitrary_text(src, n, order):
    for chart in (None, "real", "holo", "fock", "wave"):
        assert_parses_like_reference(src, n, order, chart)


@pytest.mark.parametrize("src", [
    "q1 ", "  ", "", "(q1\n", "1/", "1/0", "q1 +\n  $ p1", "w1 $", "p1",
    "q1 +\n\t(p1 *\n 2", "\n\n  q1 q1", "1/00", "é", "q1.5", "z1\t+ q1",
    "q1 + yb1\n", "q3", "q1 2", "q1 4/2", "q1*p1 + q1*q9 + q9",
    "(1/2 + i)*q1*p1 +\n  q2^2*z1", "1/0 + q1 + 1/0"])
def test_lexer_matches_reference_on_edge_cases(src):
    for chart in (None, "real", "holo", "fock", "wave"):
        assert_parses_like_reference(src, 2, K, chart)


def test_fractional_exponent_and_zero_numerator():
    # An exponent literal is a rational equal to an integer; a parenthesised
    # one is not a number token.
    assert parse("q1^4/2", 1, K) == parse("q1^2", 1, K)
    for src in ("q1^(4/2)", "q1^3/2"):
        with pytest.raises(ParseError) as exc:
            parse(src, 1, K)
        assert (str(exc.value), exc.value.column) == (
            "exponent must be a nonnegative integer (line 1, column 4)", 4)
    assert parse("0/7", 1, K) == PolyObservable.zero(PhaseSpaceSignature(1), K)
    assert parse("0/7*q1 + 3/6", 1, K) == parse("1/2", 1, K)


def test_flag_rules_of_direct_terms():
    assert parse("l", 1, 1).tail_lost and not parse("l", 1, 1).terms
    assert parse("l^0", 1, 1) == parse("1", 1, 1)
    assert not parse("l^0", 1, 1).tail_lost
    # An exact zero annihilates a lossy factor, as in a series product.
    for text in ("l^3*0", "0*l^3", "(q1 + l^3)*0*l^3"):
        zero = parse(text, 1, 3)
        assert not zero.terms and not zero.tail_lost
    assert not parse("0*l*l*l", 1, 2).tail_lost
    assert not parse("0", 1, K).tail_lost
    f = parse("q1 - q1 + p1 + q1", 1, K)
    assert list(f.terms) == [(0, 1), (1, 0)] and not f.tail_lost
    g = parse("(q1 + l^2*q1 - l^2*q1)^2", 1, 2)
    assert g.tail_lost and list(g.terms) == [(2, 0)]


class _CountCalls:
    def __init__(self, monkeypatch, cls, name):
        self.count = 0
        original = getattr(cls, name)

        def counted(*args):
            self.count += 1
            return original(*args)

        monkeypatch.setattr(cls, name, counted)


def test_canonical_text_parses_without_series_products(monkeypatch):
    import itertools
    sig = PhaseSpaceSignature(2, "real")
    coeffs = [GaussianRational(Fraction(1, 2), -3), GaussianRational(-2),
              GaussianRational(0, Fraction(-1, 4)), GaussianRational(5, 1)]
    exps = [e for e in itertools.product(range(5), repeat=4) if sum(e) <= 4]
    terms = {}
    for k, exp in enumerate(exps[::4][:16]):
        terms[exp] = FormalSeries(
            [coeffs[(k + r) % 4] if (k + r) % 3 else 0 for r in range(K)], K)
    f = PolyObservable(sig, terms, K)
    assert len(f.terms) == 16 and f.total_degree() == 4
    text = observable_text(f)
    counters = [_CountCalls(monkeypatch, FormalSeries, "__mul__"),
                _CountCalls(monkeypatch, FormalSeries, "__add__")]
    assert parse(text, 2, K) == f
    assert [c.count for c in counters] == [0, 0]
    counters += [_CountCalls(monkeypatch, PolyObservable, name)
                 for name in ("__add__", "__mul__", "__pow__")]
    src = "(q1 + l*p1 + 1)^4*(p1 - i)"
    for c in counters:
        c.count = 0
    parse(src, 1, K)
    assert [c.count for c in counters] == [0] * 5
    assert_parses_like_reference(src, 1, K)


def test_large_power_of_a_variable_is_closed_form(monkeypatch):
    series_products = _CountCalls(monkeypatch, FormalSeries, "__mul__")
    scalar_products = _CountCalls(monkeypatch, exprio, "_scalar_mul")
    f = parse("q1^100000", 1, K)
    assert list(f.terms) == [(100000, 0)]
    assert f.terms[(100000, 0)] == FormalSeries.one(K)
    assert series_products.count == 0 and scalar_products.count == 0
    g = parse("(2*i*l)^3", 1, K)
    assert series_products.count == 0 and 0 < scalar_products.count < 10
    assert g == reference_parse("(2*i*l)^3", 1, K)


@pytest.mark.parametrize("name, chart, index", [
    ("q2000", None, 1999), ("p2000", None, 3999), ("zb2000", None, 3999),
    ("yb2000", None, 1999), ("q2000", "wave", 1999)])
def test_parse_indexes_only_the_names_that_occur(monkeypatch, name, chart,
                                                 index):
    def no_table(self):
        raise AssertionError("parse built the chart's whole name table")

    monkeypatch.setattr(PhaseSpaceSignature, "variables", no_table)
    f = parse(f"{name}^3 + 1/2", 2000, K, chart)
    exp = [0] * f.signature.width
    exp[index] = 3
    assert list(f.terms) == [tuple(exp), (0,) * f.signature.width]


def test_parse_series_matches_reference():
    for src, order in (("1/2 + i*l + 3*l^2", K), ("l", 1), ("l - l", 3),
                       ("(1 + l)^3", 3), ("2*l^2*i", 2)):
        want = reference_parse(src, 1, order, "real")
        got = parse_series(src, order)
        assert got == want.terms.get((0, 0), FormalSeries.zero(order))
        assert got.tail_lost == (want.terms[(0, 0)].tail_lost
                                 if want.terms else want.tail_lost)


def reference_parse_series(src, order):
    """parse_series on the reference lexer and parser."""
    for tok in _tokenize(src):
        if tok.kind == "name" and tok.value not in ("i", "l"):
            raise ParseError(f"variable {tok.value!r} not allowed in a scalar",
                             tok.line, tok.column)
    f = reference_parse(src, 1, order, "real")
    return f.terms.get((0, 0), FormalSeries((), order, f.tail_lost))


def _series_outcome(parser, src):
    try:
        s = parser(src, K)
    except ParseError as exc:
        return ("error", type(exc), str(exc), exc.line, exc.column)
    return ("value", s.coeffs, s.tail_lost)


def test_parse_series_error_precedence():
    cases = [("1 + q1 $", "unexpected character '$'"),
             ("1 + + q1", "variable 'q1' not allowed in a scalar"),
             ("1 + + l", "unexpected token '+'"),
             ("(1 + l", "expected ')'")]
    for src, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_series(src, K)
        assert str(exc.value).startswith(message), src
        assert _series_outcome(parse_series, src) == \
            _series_outcome(reference_parse_series, src)
    for src in ("", " l\n", "1 +\n q1", "\t1/0", "2*l^2 $", "zz"):
        assert _series_outcome(parse_series, src) == \
            _series_outcome(reference_parse_series, src), src


# -- printing ---------------------------------------------------------------------------


def test_print_examples():
    f = parse("q1*p1", 1, K)
    half_i_l = FormalSeries.lam(1, K).scalar_mul(
        GaussianRational(0, Fraction(1, 2)))
    g = f + PolyObservable.constant(f.signature, half_i_l)
    assert observable_text(g) == "q1*p1 + (1/2*i)*l"
    zero = PolyObservable.zero(f.signature, K)
    assert observable_text(zero) == "0"
    assert series_text(FormalSeries.zero(K)) == "0"
    assert series_text(FormalSeries.lam(2, K).scalar_mul(
        Fraction(-1, 4))) == "(-1/4)*l^2"


def test_gaussian_text_forms():
    assert gaussian_text(GaussianRational(3)) == "3"
    assert gaussian_text(GaussianRational(Fraction(-1, 4))) == "-1/4"
    assert gaussian_text(GaussianRational(0, 1)) == "i"
    assert gaussian_text(GaussianRational(0, -1)) == "-i"
    assert gaussian_text(GaussianRational(0, Fraction(1, 2))) == "1/2*i"
    assert gaussian_text(GaussianRational(1, -2)) == "1 - 2*i"


def test_print_is_stable_under_term_order():
    sig = PhaseSpaceSignature(1, "real")
    one = FormalSeries.one(K)
    a = PolyObservable(sig, {(1, 0): one, (0, 1): one}, K)
    b = PolyObservable(sig, {(0, 1): one, (1, 0): one}, K)
    assert observable_text(a) == observable_text(b)


def test_leading_negative_constant():
    f = parse("0 - 1/4 + q1", 1, K)
    text = observable_text(f)
    assert text == "q1 + (-1/4)"
    assert parse(text, 1, K) == f


# -- round trips ---------------------------------------------------------------------------


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=9)
gaussians = st.builds(GaussianRational, rationals, rationals)


@st.composite
def observables(draw):
    n = draw(st.integers(1, 2))
    chart = draw(st.sampled_from(["real", "holo", "fock"]))
    sig = PhaseSpaceSignature(n, chart)
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        exp = tuple(draw(st.integers(0, 3)) for _ in range(sig.width))
        coeffs = [draw(gaussians) for _ in range(K)]
        terms[exp] = FormalSeries(coeffs, K)
    return PolyObservable(sig, terms, K)


@given(observables())
def test_parse_print_roundtrip(f):
    text = observable_text(f)
    assert parse(text, f.signature.n, K, f.signature.chart) == f


@given(st.lists(gaussians, min_size=K, max_size=K))
def test_series_text_roundtrip(coeffs):
    s = FormalSeries(coeffs, K)
    assert parse_series(series_text(s), K) == s


# -- JSON ---------------------------------------------------------------------------------------


def test_series_json_shape():
    s = FormalSeries.lam(1, 2).scalar_mul(GaussianRational(Fraction(1, 2),
                                                           Fraction(-2, 3)))
    payload = series_to_json(s)
    assert payload == {"K": 2, "coeffs": [[0, 1, 0, 1], [1, 2, -2, 3]]}
    assert series_from_json(payload) == s


def test_series_json_schema_errors():
    with pytest.raises(SchemaError) as exc:
        series_from_json({"K": 2, "coeffs": [[0, 1, 0, 1]]}, "/x")
    assert "/x/coeffs" in str(exc.value)
    with pytest.raises(SchemaError):
        series_from_json({"coeffs": []})
    with pytest.raises(SchemaError):
        series_from_json({"K": 1, "coeffs": [[0, 0, 0, 0]]})


# -- the printer and JSON forms against their GaussianRational versions -----------------


# The printer and the JSON forms as they were when they read and built
# GaussianRationals, kept verbatim as the reference.

def ref_gaussian_text(c: GaussianRational) -> str:
    """Canonical scalar form: ``3``, ``-1/4``, ``i``, ``1/2*i``, ``1 - 2*i``."""
    re_, im = c.re, c.im
    if not im:
        return str(re_)
    if im == 1:
        istr = "i"
    elif im == -1:
        istr = "-i"
    else:
        istr = f"{im!s}*i"
    if not re_:
        return istr
    if im > 0:
        return f"{re_!s} + {istr}"
    return f"{re_!s} - {istr.lstrip('-')}"


def _ref_atom_text(c: GaussianRational, var_factors, leading=False) -> str:
    if not var_factors:
        text = ref_gaussian_text(c)
        if text.startswith("-") and not leading:
            return f"({text})"
        return text
    var_str = "*".join(var_factors)
    if c == GaussianRational(1):
        return var_str
    ctext = ref_gaussian_text(c)
    if c.is_real() and c.re > 0:
        return f"{ctext}*{var_str}"
    return f"({ctext})*{var_str}"


def ref_series_text(s: FormalSeries) -> str:
    parts = []
    for r, c in enumerate(s.coeffs):
        if not c:
            continue
        factors = [] if r == 0 else [_power_factor("l", r)]
        parts.append(_ref_atom_text(c, factors, leading=not parts))
    return " + ".join(parts) if parts else "0"


def ref_observable_text(f: PolyObservable) -> str:
    names = f.signature.variables()
    atoms = []
    for exp, coeff in f.terms.items():
        for r, c in enumerate(coeff.coeffs):
            if c:
                atoms.append((exp, r, c))
    atoms.sort(key=lambda a: (*_graded_lex(a[0]), a[1]))
    parts = []
    for exp, r, c in atoms:
        factors = [_power_factor(names[k], e)
                   for k, e in enumerate(exp) if e]
        if r:
            factors.append(_power_factor("l", r))
        parts.append(_ref_atom_text(c, factors, leading=not parts))
    return " + ".join(parts) if parts else "0"


def _ref_gaussian_to_json(c: GaussianRational):
    return [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]


def _ref_gaussian_from_json(obj, pointer=""):
    _require(isinstance(obj, list) and len(obj) == 4, "expected [re_num, "
             "re_den, im_num, im_den]", pointer)
    for k, v in enumerate(obj):
        _require(isinstance(v, int), "expected integer", f"{pointer}/{k}")
    _require(obj[1] > 0 and obj[3] > 0, "denominators must be positive",
             pointer)
    return GaussianRational(Fraction(obj[0], obj[1]), Fraction(obj[2], obj[3]))


def ref_series_to_json(s: FormalSeries):
    return {"K": s.order, "coeffs": [_ref_gaussian_to_json(c) for c in s.coeffs]}


def ref_series_from_json(obj, pointer="", expect_order=None):
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
        tuple(_ref_gaussian_from_json(c, f"{pointer}/coeffs/{k}")
              for k, c in enumerate(coeffs)), K)


_BIG = 10 ** 40
# Zero, small and large components of either sign.
_components = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-8, max_value=8, max_denominator=9),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)))
_scalars = st.builds(GaussianRational, _components, _components)


@st.composite
def _any_series(draw, order=None):
    """A series with about a third of its coefficients zero."""
    order = order or draw(st.integers(1, 6))
    return FormalSeries([draw(_scalars) if draw(st.integers(0, 2)) else 0
                         for _ in range(order)], order, draw(st.booleans()))


@st.composite
def _any_observable(draw):
    sig = PhaseSpaceSignature(draw(st.integers(1, 2)), draw(st.sampled_from(
        ("real", "holo", "fock", "wave"))))
    order = draw(st.integers(1, 6))
    exps = st.lists(st.integers(0, 3), min_size=sig.width,
                    max_size=sig.width).map(tuple)
    terms = draw(st.dictionaries(exps, _any_series(order), max_size=5))
    return PolyObservable(sig, terms, order)


def _json_bytes(s):
    return json.dumps(series_to_json(s)), json.dumps(ref_series_to_json(s))


@settings(max_examples=300)
@given(_any_series(), _scalars)
def test_series_text_and_json_match_reference(s, c):
    assert series_text(s) == ref_series_text(s)
    new, ref = _json_bytes(s)
    assert new == ref
    assert gaussian_text(c) == ref_gaussian_text(c)


@settings(max_examples=200)
@given(_any_observable())
def test_observable_text_and_json_match_reference(f):
    assert observable_text(f) == ref_observable_text(f)
    for c in f.terms.values():
        new, ref = _json_bytes(c)
        assert new == ref


def _read_outcome(reader, payload, expect_order):
    try:
        s = reader(payload, "/x", expect_order)
    except SchemaError as exc:
        return ("error", str(exc), exc.pointer)
    return ("value", s.order, s._d, s._v, s.tail_lost)


_MALFORMED = (None, True, False, 0, -1, 2, 2 ** 70, -2 ** 70, 1.5, "1", [],
              [0, 1, 0], [0, 0, 0, 1], [1, 1, 1, -1], [True, True, False, 1],
              {}, {"K": 1})


@st.composite
def _series_payloads(draw):
    """A series payload with up to two nodes replaced by malformed values,
    and the order the reader is told to expect."""
    s = draw(_any_series())
    payload = ref_series_to_json(s)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(_paths(payload)))
        payload = _replaced(payload, path, draw(st.sampled_from(_MALFORMED)))
    return payload, draw(st.sampled_from((None, s.order, s.order + 1)))


@settings(max_examples=400)
@given(_series_payloads())
def test_series_from_json_matches_reference(case):
    payload, expect_order = case
    assert _read_outcome(series_from_json, payload, expect_order) == \
        _read_outcome(ref_series_from_json, payload, expect_order)


def test_serialize_roundtrips():
    values = [
        FormalSeries.lam(1, K),
        parse("q1*p1 + i*l", 1, K),
        parse("z1*zb1", 1, K, "holo"),
        weyl(2, K),
        wick(1, K),
        op_s(1, K),
    ]
    for v in values:
        payload = serialize(v)
        assert payload["schema_version"] == 1
        assert deserialize(payload) == v


def test_deserialize_mismatched_truncation_rejected():
    f = parse("q1 + l*p1", 1, K)
    payload = serialize(f)
    payload["terms"][0]["coeff"]["K"] = K + 1
    with pytest.raises(SchemaError):
        deserialize(payload)


def test_deserialize_unknown_tag():
    with pytest.raises(SchemaError):
        deserialize({"type": "nonsense"})


def test_functional_roundtrip():
    from fdq.functionals import deform_delta, delta
    sig = PhaseSpaceSignature(1, "real")
    for w in (delta(sig), delta(sig, (Fraction(1, 2), -1)),
              deform_delta(sig, order=K)):
        assert deserialize(serialize(w)) == w


def test_gns_result_roundtrip():
    from fdq.matrices import MatrixStarAlgebra, SeriesMatrix
    from fdq.reps import MatrixFunctional, gns_build
    alg = MatrixStarAlgebra(2, K)
    lam = FormalSeries.lam(1, K)
    weights = SeriesMatrix([[FormalSeries.one(K), FormalSeries.zero(K)],
                            [FormalSeries.zero(K), lam]], K)
    res = gns_build(alg, MatrixFunctional(weights))
    assert deserialize(serialize(res)) == res
    # also for a genuinely quotiented example
    res2 = gns_build(alg, MatrixFunctional(
        SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], K)))
    assert deserialize(serialize(res2)) == res2


_SERIES_2 = {"K": 2, "coeffs": [[0, 1, 0, 1], [1, 2, 0, 1]]}
_O1_SERIES_2 = {"K": 2, "coeffs": [[1, 1, 0, 1], [1, 2, 0, 1]]}
_ONE_1 = {"K": 1, "coeffs": [[1, 1, 0, 1]]}
_GNS_1 = {"type": "gns_result", "m": 1, "K": 1, "omega": [[_ONE_1]],
          "basis_indices": [0], "kernel": [], "gram": [[_ONE_1]],
          "generators": [], "pi": [], "cyclic": [_ONE_1]}


@pytest.mark.parametrize("payload, pointer", [
    ({"type": "equiv_operator"}, "/n"),
    ({"type": "star_product", "kind": "weyl", "n": 0}, "/n"),
    ({"type": "star_product", "kind": "weyl", "n": 1, "K": -1}, "/K"),
    ({"type": "star_product", "kind": "weyl", "n": 1, "K": "a"}, "/K"),
    ({"type": "star_product", "n": 1, "chart": "bogus", "pairing": []},
     "/chart"),
    ({"type": "star_product", "n": 1, "pairing": [[_SERIES_2]]},
     "/pairing"),
    ({"type": "star_product", "n": 1,
      "pairing": [[_SERIES_2, _O1_SERIES_2], [_SERIES_2, _SERIES_2]]},
     "/pairing/0/1"),
    ({"type": "equiv_operator", "n": 1, "K": 2,
      "generator": [{"exp": [1, "a"], "coeff": _SERIES_2}]},
     "/generator/0/exp"),
    ({"type": "equiv_operator", "n": 1, "K": 2,
      "generator": [{"exp": [1, 0], "coeff": _O1_SERIES_2}]},
     "/generator/0/coeff"),
    ({"type": "equiv_operator", "n": 1, "generator": 5}, "/generator"),
    ({"type": "observable", "n": 1, "terms": 5}, "/terms"),
    ({"type": "functional", "n": 1, "point": [[0, 1, 0, 1]] * 2,
      "pre_operator": dict(_SERIES_2, type="series")}, "/pre_operator"),
    ({"type": "functional", "n": 1, "point": 5}, "/point"),
    ({"type": "matrix", "rows": 5}, ""),
    (dict(_GNS_1, kernel=[5]), "/kernel/0"),
    (dict(_GNS_1, kernel=[{"free": 1, "vector": []}]), "/kernel/0"),
    (dict(_GNS_1, kernel=5), "/kernel"),
    (dict(_GNS_1, basis_indices=5), "/basis_indices"),
    (dict(_GNS_1, basis_indices=[1]), "/basis_indices"),
    (dict(_GNS_1, cyclic=5), "/cyclic"),
    (dict(_GNS_1, generators=5), "/generators"),
    (dict(_GNS_1, pi=5), "/pi"),
    (dict(_GNS_1, m=0), "/m"),
    (dict(_GNS_1, K="a"), "/K"),
    (dict(_GNS_1, omega=[[_ONE_1], [_ONE_1]]), "/omega"),
    (dict(_GNS_1, kernel=[{"free": 0, "vector": []}]), "/kernel/0"),
    (dict(_GNS_1, gram=[[_ONE_1, _ONE_1]]), "/gram"),
    (dict(_GNS_1, generators=[[[_ONE_1, _ONE_1]]]), "/generators/0"),
    (dict(_GNS_1, generators=[[[_ONE_1]]], pi=[[[_ONE_1], [_ONE_1]]]),
     "/pi/0"),
    (dict(_GNS_1, pi=[[[_ONE_1]]]), "/pi"),
    (dict(_GNS_1, cyclic=[_ONE_1, _ONE_1]), "/cyclic"),
])
def test_deserialize_rejects_malformed_payloads(payload, pointer):
    with pytest.raises(SchemaError) as exc:
        deserialize(payload)
    assert exc.value.pointer == pointer


_JSON_KEYS = ("type", "n", "chart", "K", "kind", "name", "terms", "generator",
              "pairing", "point", "pre_operator", "exp", "coeff", "coeffs")
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 3)
                 | st.sampled_from(("real", "holo", "wave", "bogus", "weyl",
                                    "custom", "series", "equiv_operator")))
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_JSON_KEYS), inner, max_size=4),
    max_leaves=12)


def _valid_payloads():
    from fdq.functionals import deform_delta
    from fdq.matrices import MatrixStarAlgebra, SeriesMatrix
    from fdq.reps import MatrixFunctional, gns_build
    from fdq.star import std
    sig = PhaseSpaceSignature(1, "real")
    gns = gns_build(MatrixStarAlgebra(2, 2), MatrixFunctional(
        SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], 2)))
    return [serialize(v) for v in (
        parse("q1*p1 + i*l", 1, 2), weyl(1, 2), std(1, 2), op_s(1, 2),
        deform_delta(sig, (Fraction(1, 2), -1), 2), gns)] + [
        dict(serialize(weyl(1, 2)), kind="custom")]


def _paths(node, path=()):
    """The path of every node of a JSON value: the value itself, then each
    dict value and list item, depth first."""
    paths = [path]
    if isinstance(node, dict):
        children = sorted(node.items())
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        paths += _paths(child, path + (key,))
    return paths


def _replaced(payload, path, value):
    """A copy of ``payload`` with the node at ``path`` replaced by value."""
    if not path:
        return value
    payload = json.loads(json.dumps(payload))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return payload


@st.composite
def _mutated(draw, payload):
    """``payload`` with one node, drawn uniformly from all of its nodes (the
    whole payload included), replaced by arbitrary JSON."""
    return _replaced(payload, draw(st.sampled_from(_paths(payload))),
                     draw(_JSON))


_PAYLOADS = st.one_of(
    st.fixed_dictionaries(
        {"type": st.sampled_from(("observable", "star_product",
                                  "equiv_operator", "functional"))},
        optional={key: _JSON for key in _JSON_KEYS[1:]}),
    st.sampled_from(_valid_payloads()).flatmap(_mutated))


@settings(max_examples=300)
@given(_PAYLOADS)
def test_deserialize_raises_only_fdq_errors(payload):
    try:
        deserialize(payload)
    except FdqError:
        pass


def test_deserialize_every_node_raises_only_fdq_errors():
    """Every node of every valid payload, replaced in turn by each of a few
    malformed values.  The random draw above gives the 700-node gns_result
    about twenty of its examples, too few to reach each nested field."""
    for payload in _valid_payloads():
        for path in _paths(payload):
            for value in (None, 5, "real", [], [5], {}):
                try:
                    deserialize(_replaced(payload, path, value))
                except FdqError:
                    pass
