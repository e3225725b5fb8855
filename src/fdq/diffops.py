"""Differential operators with polynomial coefficients, in normal form.

An operator is a finite sum c_alpha(x) d^alpha, coefficients to the left;
as in PolyObservable, a coefficient that vanishes up to l^K is dropped and
its lost tail flags the operator.  Application to a polynomial is exact.
Composition and the formal adjoint act on the standard-ordered symbol, the
term map {x^e xi^alpha: series} of sum c_alpha(x) xi^alpha, through
``star._exp_terms`` (Waldmann, math/0408217), whose lambda-free walk ends
when no xi is left:

    sigma_{A o B} = mu o exp(sum_i d_{xi_i} (x) d_{x_i})(sigma_A (x) sigma_B)
    sigma_{A*}(x, xi) = exp(sum_i d_{x_i} d_{xi_i}) conj sigma_A(x, -xi)
"""

from __future__ import annotations

from operator import add

from .errors import SignatureMismatch
from .observables import PolyObservable, _partial
from .series import FormalSeries
from .star import _accumulate, _exp_terms


class DiffOperator:
    """Normal-form differential operator over one signature: ``terms`` maps
    derivative exponents to coefficient observables that have terms.  As for
    PolyObservable, ``tail_lost`` is metadata, never part of equality."""

    __slots__ = ("signature", "order", "terms", "tail_lost")

    def __init__(self, signature, terms, order=None, tail_lost=False):
        self.signature = signature
        clean = {}
        K = order
        for exp, coeff in terms.items():
            if coeff.signature != signature:
                raise SignatureMismatch("coefficient signature mismatch")
            if K is None:
                K = coeff.order
            if coeff.terms:
                clean[tuple(exp)] = coeff
            else:
                tail_lost = tail_lost or coeff.tail_lost
        self.order = K
        self.terms = clean
        self.tail_lost = tail_lost

    @classmethod
    def zero(cls, signature, order):
        return cls(signature, {}, order)

    @classmethod
    def multiplication(cls, poly):
        """The operator 'multiply by poly'."""
        zero_exp = (0,) * poly.signature.width
        return cls(poly.signature, {zero_exp: poly}, poly.order)

    @classmethod
    def derivative_monomial(cls, signature, exp, order, coeff=None):
        c = coeff if coeff is not None else PolyObservable.one(signature, order)
        return cls(signature, {tuple(exp): c}, order)

    def __repr__(self):
        from .exprio import operator_text
        return f"<op {operator_text(self)}>"

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return (self.signature == other.signature
                and self.order == other.order and self.terms == other.terms)

    def __add__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if self.signature != other.signature:
            raise SignatureMismatch("operator signatures differ")
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms[exp] + c if exp in terms else c
        return DiffOperator(self.signature, terms, self.order,
                            self.tail_lost or other.tail_lost)

    def __neg__(self):
        return DiffOperator(self.signature,
                            {e: -c for e, c in self.terms.items()}, self.order,
                            self.tail_lost)

    def apply(self, psi: PolyObservable) -> PolyObservable:
        if psi.signature != self.signature:
            raise SignatureMismatch("operand signature mismatch")
        out = PolyObservable(self.signature, {}, self.order, self.tail_lost)
        for exp, coeff in self.terms.items():
            term = _partial(psi, tuple((i, t) for i, t in enumerate(exp) if t))
            if term.terms or term.tail_lost:
                out = out + coeff * term
        return out

    def compose(self, other: DiffOperator) -> DiffOperator:
        """self o other: exp(sum_i d_{xi_i} (x) d_{x_i}) on the tensor of the
        symbols.  As for observables, an exact-zero factor makes the product
        an exact zero."""
        if self.signature != other.signature:
            raise SignatureMismatch("operator signatures differ")
        if not all(a.terms or a.tail_lost for a in (self, other)):
            return DiffOperator.zero(self.signature, self.order)
        w = self.signature.width
        right = _symbol(other)
        tensor = {e1 + e2: c1 * c2 for e1, c1 in _symbol(self)
                  for e2, c2 in right}
        return _operator(self, tensor, [(w + i, 2 * w + i) for i in range(w)],
                         (self, other))

    def formal_adjoint(self) -> DiffOperator:
        """sum c_alpha d^alpha -> sum (-d)^alpha o conj(c_alpha), the adjoint
        by integration by parts, involutive and anti-multiplicative:
        exp(sum_i d_{x_i} d_{xi_i}) on conj sigma(x, -xi), in normal form."""
        w = self.signature.width
        symbol = {e: -c.conjugate() if sum(e[w:]) % 2 else c.conjugate()
                  for e, c in _symbol(self)}
        return _operator(self, symbol, [(i, w + i) for i in range(w)], (self,))


def _symbol(op):
    """op's symbol as (x^e xi^alpha, series) pairs, keys e + alpha."""
    return [(e + alpha, c) for alpha, coeff in op.terms.items()
            for e, c in coeff.terms.items()]


def _operator(op, symbol, pairs, operands):
    """The operator (op's signature and order) of exp(sum d_a d_b) applied to
    ``symbol``, with mu folding back a tensor's keys of width 4w.  Its flag
    is what a symbol cannot hold: the operands' and their coefficients'."""
    w = op.signature.width
    one = FormalSeries.one(op.order)
    grouped = {}
    for e, c in _exp_terms(symbol, [(((a, 1), (b, 1)), one) for a, b in pairs],
                           None, prune=False)[0].items():
        if len(e) > 2 * w:
            e = tuple(map(add, e[:2 * w], e[2 * w:]))
        _accumulate(grouped.setdefault(e[w:], {}), e[:w], c, prune=False)
    return DiffOperator(
        op.signature, {alpha: PolyObservable(op.signature, terms, op.order)
                       for alpha, terms in grouped.items()}, op.order,
        any(a.tail_lost or any(c.tail_lost for c in a.terms.values())
            for a in operands))


def formal_adjoint(op: DiffOperator) -> DiffOperator:
    return op.formal_adjoint()
