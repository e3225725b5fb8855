"""Differential operators with polynomial coefficients, in normal form.

An operator is a finite sum c_alpha(x) d^alpha with the coefficient
polynomials to the left of the derivative monomials.  Application to a
polynomial is exact; composition uses the Leibniz rule and stays in normal
form.  The formal adjoint is the integration-by-parts adjoint
sum (-d)^alpha o conj(c_alpha).
"""

from __future__ import annotations

from itertools import product
from math import comb, prod

from .errors import SignatureMismatch
from .observables import PolyObservable, _partial, involution
from .series import FormalSeries


class DiffOperator:
    """Normal-form differential operator over one signature.

    ``terms`` maps derivative exponent tuples to coefficient observables on
    the same signature (zero coefficients dropped).
    """

    __slots__ = ("signature", "order", "terms")

    def __init__(self, signature, terms, order=None):
        self.signature = signature
        clean = {}
        K = order
        for exp, coeff in terms.items():
            if coeff.signature != signature:
                raise SignatureMismatch("coefficient signature mismatch")
            if K is None:
                K = coeff.order
            if coeff.terms or coeff.tail_lost:
                clean[tuple(exp)] = coeff
        self.order = K
        self.terms = clean

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

    def is_zero(self):
        return all(c.is_zero() for c in self.terms.values())

    def __add__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if self.signature != other.signature:
            raise SignatureMismatch("operator signatures differ")
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms[exp] + c if exp in terms else c
        return DiffOperator(self.signature, terms, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DiffOperator(self.signature,
                            {e: -c for e, c in self.terms.items()}, self.order)

    def scale(self, series: FormalSeries):
        return DiffOperator(self.signature,
                            {e: c.scale(series) for e, c in self.terms.items()},
                            self.order)

    def scale_scalar(self, c):
        return DiffOperator(self.signature,
                            {e: p.scale_scalar(c) for e, p in self.terms.items()},
                            self.order)

    def apply(self, psi: PolyObservable) -> PolyObservable:
        if psi.signature != self.signature:
            raise SignatureMismatch("operand signature mismatch")
        out = PolyObservable.zero(self.signature, self.order)
        for exp, coeff in self.terms.items():
            term = _partial(psi, _pairs(exp))
            if term.terms or term.tail_lost:
                out = out + coeff * term
        return out

    def compose(self, other: DiffOperator) -> DiffOperator:
        """self o other in normal form via the Leibniz rule."""
        if self.signature != other.signature:
            raise SignatureMismatch("operator signatures differ")
        terms = {}
        for alpha, c in self.terms.items():
            for beta, d in other.terms.items():
                # d^alpha (d(x) .) = sum_{gamma <= alpha} C(alpha, gamma)
                #                    (d^gamma d)(x) d^{alpha-gamma}
                for gamma in _sub_multi_indices(alpha):
                    dg = _partial(d, _pairs(gamma))
                    if not dg.terms and not dg.tail_lost:
                        continue
                    mult = prod(map(comb, alpha, gamma))
                    exp = tuple(a - g + b for a, g, b in zip(alpha, gamma, beta))
                    contrib = (c * dg).scale_scalar(mult)
                    terms[exp] = terms[exp] + contrib if exp in terms else contrib
        return DiffOperator(self.signature, terms, self.order)

    def formal_adjoint(self) -> DiffOperator:
        """sum c_alpha d^alpha -> sum (-d)^alpha o conj(c_alpha), normal form.

        Involutive and anti-multiplicative; realizes the inner-product adjoint
        obtained by successive integration by parts.
        """
        out = DiffOperator.zero(self.signature, self.order)
        for alpha, c in self.terms.items():
            sign = (-1) ** sum(alpha)
            deriv = DiffOperator.derivative_monomial(
                self.signature, alpha, self.order)
            mult = DiffOperator.multiplication(involution(c))
            out = out + deriv.compose(mult).scale_scalar(sign)
        return out


def _pairs(exp):
    """The (index, times) pairs of d^exp that ``_partial`` takes."""
    return tuple((i, t) for i, t in enumerate(exp) if t)


def _sub_multi_indices(alpha):
    """All gamma with 0 <= gamma <= alpha componentwise, the first index
    running fastest."""
    return (g[::-1] for g in product(*(range(a + 1) for a in alpha[::-1])))


def formal_adjoint(op: DiffOperator) -> DiffOperator:
    return op.formal_adjoint()
