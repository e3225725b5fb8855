"""Exact arithmetic in Q(i)[[l]]/l^K with the ordered-ring structure of R[[l]].

Coefficients are Gaussian rationals (pairs of ``fractions.Fraction``), so all
results are exact and equality is structural.  A series remembers whether any
computation that produced it discarded a nonzero coefficient beyond the
truncation order (``tail_lost``); rank decisions elsewhere consult that flag
to stay precision-honest.  The flag never takes part in equality or printing.

Series products are integer convolutions.  Each operand is scaled once by the
lcm D of its coefficient denominators, so D*c_k is a Gaussian integer; the
K^2 term products and their sums run on Python ints, and each output
coefficient is built once as a pair of Fractions over Da*Db.  Fraction
normalises to lowest terms, so the result is the same value, with the same
text and JSON, as summing the Gaussian-rational products one by one.  Matrix
products (``SeriesMatrix @``) run on the same scaling and convolution.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from .errors import BadLeadingTerm, NotReal, NotUnit, TruncationMismatch

#: Global default truncation order; constructors use it when K is omitted.
DEFAULT_ORDER = 6

_F0 = Fraction(0)
_F1 = Fraction(1)


class Sign(enum.Enum):
    """Tri-state sign verdict of a real series: the order is non-Archimedean,
    so an all-zero stored prefix is reported honestly instead of as 0."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO_UP_TO_K = "zero-up-to-K"


class GaussianRational:
    """A Gaussian rational re + i*im with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __eq__(self, other):
        other = _promote(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _promote(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _promote(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _promote(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _promote(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def is_real(self):
        return not self.im

    def is_integer(self):
        return self.im == 0 and self.re.denominator == 1


def _promote(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def _scaled(entries):
    """(D, terms): D is the lcm of the coefficient denominators of all the
    series in ``entries``, and terms[e] lists (k, re, im) with
    D*c_k = re + i*im, Gaussian integers, for each nonzero coefficient c_k
    of entry e in index order.  An entry is zero up to K exactly when its
    list is empty."""
    d = 1
    for s in entries:
        for c in s.coeffs:
            if c is not GR_ZERO:
                d = lcm(d, c.re.denominator, c.im.denominator)
    terms = []
    for s in entries:
        t = []
        for k, c in enumerate(s.coeffs):
            if c is GR_ZERO:
                continue
            re, im = c.re, c.im
            r = re.numerator * (d // re.denominator)
            m = im.numerator * (d // im.denominator)
            if r or m:
                t.append((k, r, m))
        terms.append(t)
    return d, terms


def _convolve(a, b, re, im):
    """Add the products of the scaled terms ``a`` and ``b`` (see ``_scaled``)
    into the integer accumulators re, im of length K; True when a pair of
    terms lands at l^K or beyond and is dropped."""
    K = len(re)
    lost = False
    for i, ar, ai in a:
        for j, br, bi in b:
            k = i + j
            if k >= K:
                # b is in index order: every later term is out of range
                # too, and a product of nonzero terms is nonzero.
                lost = True
                break
            re[k] += ar * br - ai * bi
            im[k] += ar * bi + ai * br
    return lost


def _from_scaled(re, im, d, lost):
    """The series with coefficients (re[k] + i*im[k]) / d, each reduced once."""
    return FormalSeries(
        tuple(GaussianRational(Fraction(r, d) if r else _F0,
                               Fraction(m, d) if m else _F0)
              if r or m else GR_ZERO for r, m in zip(re, im)),
        len(re), lost)


class FormalSeries:
    """Truncated formal power series: K coefficients indexed by the power of l.

    Values are immutable; all arithmetic returns fresh series.  Binary
    operations require equal truncation orders (TruncationMismatch otherwise);
    callers that legitimately mix orders down-truncate explicitly first.
    """

    __slots__ = ("coeffs", "order", "tail_lost")

    def __init__(self, coeffs, order=None, tail_lost=False):
        coeffs = tuple(c if isinstance(c, GaussianRational) else GaussianRational(c)
                       for c in coeffs)
        if order is None:
            order = len(coeffs)
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        if len(coeffs) < order:
            coeffs = coeffs + (GR_ZERO,) * (order - len(coeffs))
        elif len(coeffs) > order:
            if any(coeffs[order:]):
                tail_lost = True
            coeffs = coeffs[:order]
        self.coeffs = coeffs
        self.order = order
        self.tail_lost = tail_lost

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order=None):
        return cls((), order or DEFAULT_ORDER)

    @classmethod
    def one(cls, order=None):
        return cls((GR_ONE,), order or DEFAULT_ORDER)

    @classmethod
    def from_scalar(cls, c, order=None):
        return cls((c,), order or DEFAULT_ORDER)

    @classmethod
    def lam(cls, power=1, order=None):
        """The monomial l^power (zero when power >= K)."""
        order = order or DEFAULT_ORDER
        if power >= order:
            return cls((), order, tail_lost=True)
        return cls((GR_ZERO,) * power + (GR_ONE,), order)

    # -- basics --------------------------------------------------------------

    def __repr__(self):
        from .exprio import series_text
        return f"<series {series_text(self)} (K={self.order})>"

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def is_zero(self):
        """True when every stored coefficient vanishes (zero up to order K)."""
        return not any(self.coeffs)

    def is_exact_zero(self):
        """True when the series is certified to be 0, not merely 0 up to K."""
        return self.is_zero() and not self.tail_lost

    def valuation(self):
        """Index of the lowest nonzero stored coefficient, or None."""
        for r, c in enumerate(self.coeffs):
            if c:
                return r
        return None

    def _check(self, other):
        if self.order != other.order:
            raise TruncationMismatch(
                f"truncation orders differ: {self.order} != {other.order}")

    def reduce_order(self, order):
        """Down-truncate to a smaller order (marks the tail lost if nonzero)."""
        if order == self.order:
            return self
        if order > self.order:
            raise TruncationMismatch(
                f"cannot extend order {self.order} to {order}")
        return FormalSeries(self.coeffs, order, self.tail_lost)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check(other)
        # Values are immutable, so adding an exact zero returns the other
        # operand itself: same coefficients, same flag.
        if other.is_exact_zero():
            return self
        if self.is_exact_zero():
            return other
        return FormalSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.order, self.tail_lost or other.tail_lost)

    def __sub__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check(other)
        if other.is_exact_zero():
            return self
        return FormalSeries(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
            self.order, self.tail_lost or other.tail_lost)

    def __neg__(self):
        return FormalSeries(tuple(-a for a in self.coeffs), self.order,
                            self.tail_lost)

    def __mul__(self, other):
        """Truncated product by integer convolution (see the module notes).

        Exact: with Da*a_i and Db*b_j Gaussian integers, coefficient k is
        (sum over i + j = k of (Da*a_i)(Db*b_j)) / (Da*Db), reduced once.
        The result has lost its tail when an operand has, or when a pair of
        nonzero terms lands at l^K or beyond.
        """
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check(other)
        K = self.order
        lost = self.tail_lost or other.tail_lost
        if self.is_zero() or other.is_zero():
            # What the convolution gives: no product term, the operands' flags.
            return FormalSeries((), K, lost)
        da, (a,) = _scaled((self,))
        db, (b,) = _scaled((other,))
        re, im = [0] * K, [0] * K
        lost = _convolve(a, b, re, im) or lost
        return _from_scaled(re, im, da * db, lost)

    def scalar_mul(self, c):
        c = _promote(c)
        return FormalSeries(tuple(c * a for a in self.coeffs), self.order,
                            self.tail_lost)

    def conjugate(self):
        return FormalSeries(tuple(a.conjugate() for a in self.coeffs),
                            self.order, self.tail_lost)

    def shift(self, power):
        """Multiply by l^power (power >= 0)."""
        if power == 0:
            return self
        K = self.order
        lost = self.tail_lost or any(self.coeffs[K - power:])
        return FormalSeries((GR_ZERO,) * power + self.coeffs[:K - power],
                            K, lost)

    # -- ordered-ring and analytic helpers ------------------------------------

    def sign(self):
        """Sign of a real series: the lowest nonzero coefficient rules."""
        for c in self.coeffs:
            if not c.is_real():
                raise NotReal("sign is defined for real series only")
        v = self.valuation()
        if v is None:
            return Sign.ZERO_UP_TO_K
        return Sign.POSITIVE if self.coeffs[v].re > 0 else Sign.NEGATIVE

    def invert(self):
        """Multiplicative inverse; the lambda^0 coefficient must be a unit."""
        c0 = self.coeffs[0]
        if not c0:
            raise NotUnit("series with vanishing lambda^0 coefficient")
        K = self.order
        inv0 = c0.inverse()
        out = [inv0] + [GR_ZERO] * (K - 1)
        for k in range(1, K):
            acc = GR_ZERO
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -(inv0 * acc)
        # The true inverse has an infinite tail unless the input is a constant.
        lost = self.tail_lost or any(self.coeffs[1:])
        return FormalSeries(tuple(out), K, lost)

    def sqrt_binomial(self, exponent):
        """(self)^exponent for exponent +1/2 or -1/2 via the binomial series.

        Requires a series of the form 1 + O(l); needs rational scalars.
        """
        if exponent not in (Fraction(1, 2), Fraction(-1, 2)):
            raise ValueError("exponent must be +1/2 or -1/2")
        if self.coeffs[0] != GR_ONE:
            raise BadLeadingTerm("binomial root needs lambda^0 coefficient 1")
        K = self.order
        u = FormalSeries((GR_ZERO,) + self.coeffs[1:], K, self.tail_lost)
        result = FormalSeries.one(K)
        power = FormalSeries.one(K)
        coeff = Fraction(1)
        for k in range(1, K):
            coeff = coeff * (exponent - (k - 1)) / k
            power = power * u
            if power.is_exact_zero():
                break
            result = result + power.scalar_mul(coeff)
        if any(self.coeffs[1:]):
            result = FormalSeries(result.coeffs, K, True)
        return result

    def classical_limit(self):
        """Coefficient at lambda^0."""
        return self.coeffs[0]

