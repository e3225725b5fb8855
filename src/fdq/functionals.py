"""Lambda-linear functionals, positivity scanning, and positivity certificates.

Every functional here is a point evaluation composed with the exponential of
a constant-coefficient operator: omega = delta_x o exp(D).  That class holds
the delta functionals and their positive deformations and is closed under the
deformation construction used throughout.  The scan and the Cauchy-Schwarz
check read omega(m_alpha * m_beta) off a table per (spec, functional, K), at
most ``_BOUND`` series in all; a sum c_f c_g over it flags as ``_dot`` does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import factorial

from .errors import InvalidWeights, PositivityRefuted, SignatureMismatch
from .observables import (PolyObservable, eval_at_point, involution,
                          monomials_up_to)
from .series import GR_I, FormalSeries, GaussianRational, Sign, _sum_of_products
from .star import apply_equiv, op_s, star_multiply

_BOUND, _TABLES = 1 << 15, {}


class Functional:
    """omega(f) = (exp(D) f)(x): evaluation at base_point after pre_operator."""

    __slots__ = ("signature", "base_point", "pre_operator")

    def __init__(self, signature, base_point, pre_operator=None):
        if len(base_point) != signature.width:
            raise SignatureMismatch(
                f"point of length {len(base_point)}, expected {signature.width}")
        if pre_operator is not None and pre_operator.signature != signature:
            raise SignatureMismatch("pre-operator lives on another signature")
        self.signature = signature
        self.base_point = tuple(
            c if isinstance(c, GaussianRational) else GaussianRational(c)
            for c in base_point)
        self.pre_operator = pre_operator

    def __repr__(self):
        op = self.pre_operator.name if self.pre_operator else "id"
        return f"<functional delta_{list(self.base_point)} o {op}>"

    def __eq__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return (self.signature == other.signature
                and self.base_point == other.base_point
                and self.pre_operator == other.pre_operator)

    def __hash__(self):
        return hash((self.signature, self.base_point, self.pre_operator))


def delta(signature, point=None):
    """The evaluation functional at the given point (origin by default)."""
    if point is None:
        point = (0,) * signature.width
    return Functional(signature, point)


def deform_delta(signature, point=None, order=None):
    """delta_x composed with exp(l Delta), Delta the z-zb Laplacian.

    Positive for the symmetrized product; its classical limit is delta_x.
    """
    if signature.chart != "real":
        raise SignatureMismatch("deformed delta is built on the real chart")
    if point is None:
        point = (0,) * signature.width
    return Functional(signature, point, op_s(signature.n, order))


def evaluate(w: Functional, f: PolyObservable) -> FormalSeries:
    if f.signature != w.signature:
        raise SignatureMismatch("functional and observable signatures differ")
    if w.pre_operator is not None:
        f = apply_equiv(w.pre_operator, f)
    return eval_at_point(f, w.base_point)


def _table(w, spec, K, keys):
    """(spec, w, K)'s table filled at ``keys``; its key holds the tail flags."""
    key = (w, spec.signature, K, tuple((a, e, e.tail_lost) for a, e in
           spec._contractions), w.pre_operator and frozenset(
               e for e, c in w.pre_operator.generator.items() if c.tail_lost))
    table = _TABLES.get(key, {})
    new = keys - table.keys()
    if sum(map(len, _TABLES.values())) + len(new) > _BOUND:
        _TABLES.clear()
    m = {e: PolyObservable.monomial(spec.signature, e, K)
         for e in set().union(*new)}
    table.update({(a, b): evaluate(w, star_multiply(spec, m[a], m[b]))
                  for a, b in new})
    if table and len(table) <= _BOUND:
        _TABLES[key] = table
    return table


def _omega(w, spec, f, g):
    """omega(f * g) off the table: product then evaluate's value and errors."""
    if f.signature != spec.signature or g.signature != spec.signature:
        raise SignatureMismatch("operands must live on the spec's signature")
    if spec.signature != w.signature:
        raise SignatureMismatch("functional and observable signatures differ")
    K = min(spec.order, f.order, g.order)
    L = min(K, w.pre_operator.order) if w.pre_operator else K
    table = _table(w, spec, K, {(a, b) for a in f.terms for b in g.terms})
    return _sum_of_products(FormalSeries((), L, f.tail_lost or g.tail_lost), [
        (c.reduce_order(L), _sum_of_products(FormalSeries.zero(L), [
            (table[a, b], d.reduce_order(L)) for b, d in g.terms.items()]))
        for a, c in f.terms.items()])


class PositivityReport:
    """Scan record: (sample text, value, verdict) rows plus the overall verdict.

    The scan is a refuter, not a decision procedure: "positive on samples"
    only means no sampled value was negative.
    """

    def __init__(self, spec_name, functional_repr, max_degree, rows):
        self.spec_name = spec_name
        self.functional_repr = functional_repr
        self.max_degree = max_degree
        self.rows = rows

    @property
    def negative_witnesses(self):
        return [(text, value) for text, value, verdict in self.rows
                if verdict is Sign.NEGATIVE]

    def positive_on_samples(self):
        return not self.negative_witnesses

    def to_json(self):
        from .exprio import series_text
        return {
            "schema_version": 1,
            "spec": self.spec_name,
            "functional": self.functional_repr,
            "max_degree": self.max_degree,
            "samples": [
                {"input": text, "value": series_text(value),
                 "verdict": verdict.value}
                for text, value, verdict in self.rows
            ],
            "verdict": "positive on samples" if self.positive_on_samples()
                       else "negative witness found",
        }


_UNITS = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
          GaussianRational(0, -1))


def two_term_scan(gram, label, pair_label) -> list:
    """Scan rows (text, value, verdict) read off G_st = omega(b_s* x b_t).

    The samples are each b_t, labelled ``label(t)``, then b_s + u b_t for
    s < t and u in (1, -1, i, -i), labelled ``pair_label(s, t, u)``.  omega
    is linear, the product bilinear and the involution antilinear, so
    omega((b_s + u b_t)* x (b_s + u b_t)) = G_ss + u G_st + conj(u) G_ts
    + |u|^2 G_tt exactly.  omega(b* x b) is real for a Hermitian product; a
    residual imaginary part would itself refute positivity, so it is
    reported NEGATIVE.  For u = 1, -1, i, -i the value is diag + herm,
    diag - herm, diag + anti and diag - anti with diag = G_ss + G_tt,
    herm = G_st + G_ts and anti = i (G_st - G_ts), each computed once per
    pair; the arithmetic is exact and every value carries the flags of the
    same four entries.
    """
    samples = [(label(t), gram[t][t]) for t in range(len(gram))]
    for s in range(len(gram)):
        for t in range(s + 1, len(gram)):
            diag = gram[s][s] + gram[t][t]
            herm = gram[s][t] + gram[t][s]
            anti = (gram[s][t] - gram[t][s]).scalar_mul(GR_I)
            for u, value in zip(_UNITS, (diag + herm, diag - herm,
                                         diag + anti, diag - anti)):
                samples.append((pair_label(s, t, u), value))
    return [(text, value, value.sign() if value.is_real() else Sign.NEGATIVE)
            for text, value in samples]


def positivity_scan(w: Functional, spec, max_degree) -> PositivityReport:
    """omega(conj(f) * f) over the monomials m of degree <= max_degree and
    m_a + u m_b, read off a Gram of table entries (see above), flags and all."""
    from .exprio import observable_text

    monos = monomials_up_to(spec.signature, max_degree, spec.order)
    exps = [next(iter(m.terms)) for m in monos]
    conj = [next(iter(involution(m).terms)) for m in monos]
    table = _table(w, spec, spec.order, {(a, b) for a in conj for b in exps})
    gram = [[table[a, b] for b in exps] for a in conj]
    rows = two_term_scan(
        gram, lambda t: observable_text(monos[t]),
        lambda s, t, u: observable_text(monos[s] + monos[t].scale_scalar(u)))
    return PositivityReport(spec.name, repr(w), max_degree, rows)


def cauchy_schwarz_check(w: Functional, spec, a: PolyObservable,
                         b: PolyObservable) -> Sign:
    """Sign of omega(a* x a) omega(b* x b) - |omega(a* x b)|^2.

    Also verifies omega(a* x b) = conj(omega(b* x a)); a violation refutes
    positivity of the functional and raises PositivityRefuted.  Each value
    is one sum on the table, flagged per pair by ``_dot`` and by a and b."""
    ca, cb = involution(a), involution(b)
    wa, wb = _omega(w, spec, ca, a), _omega(w, spec, cb, b)
    wab, wba = _omega(w, spec, ca, b), _omega(w, spec, cb, a)
    if wab != wba.conjugate():
        raise PositivityRefuted(
            "omega(a* x b) != conj(omega(b* x a)) on the given pair")
    return (wa * wb - wab * wab.conjugate()).sign()


class PositivityCertificate:
    """Membership data for the algebraic positive cone: target = sum beta_i b_i* x b_i."""

    def __init__(self, target, summands):
        self.target = target
        self.summands = tuple(summands)

    def __repr__(self):
        return f"<certificate with {len(self.summands)} summands>"


def verify_certificate(cert: PositivityCertificate, spec) -> bool:
    """True iff the target equals the certified sum exactly up to K."""
    for beta, _ in cert.summands:
        if not isinstance(beta, Fraction):
            beta = Fraction(beta)
        if beta <= 0:
            raise InvalidWeights(f"certificate weight {beta} is not positive")
    total = PolyObservable.zero(cert.target.signature, cert.target.order)
    for beta, b in cert.summands:
        total = total + star_multiply(spec, involution(b), b).scale_scalar(
            Fraction(beta))
    return total == cert.target


def wick_value_oracle(f: PolyObservable, order=None) -> FormalSeries:
    """Independent evaluation of delta_0(conj(f) * f) for the normal-ordered
    product: sum_r (2l)^r / r! sum_{i_1..i_r} |d^r f / d zb^{i_1}..d zb^{i_r}(0)|^2.

    ``f`` must be a holomorphic-chart observable; the derivative sum is
    computed directly, with no star machinery involved.  An ``order`` below
    ``f.order`` truncates ``f`` to it first.
    """
    sig = f.signature
    if sig.chart != "holo":
        raise SignatureMismatch("oracle expects a holomorphic-chart observable")
    if order is not None:
        f = f.reduce_order(order)
    n, K = sig.n, f.order
    origin = (0,) * sig.width
    total = FormalSeries.zero(K)
    for r in range(min(f.total_degree(), K - 1) + 1):
        factor = Fraction(2 ** r, factorial(r))
        for idxs in iproduct(range(n), repeat=r):
            g = f
            for i in idxs:
                g = g.derivative(n + i)
            val = eval_at_point(g, origin)
            contrib = (val.conjugate() * val).scalar_mul(factor).shift(r)
            total = total + contrib
    return total
