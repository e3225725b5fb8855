"""Exact arithmetic in Q(i)[[l]]/l^K with the ordered-ring structure of R[[l]].

A series is one denominator over a vector of Gaussian integers: ``_d`` >= 1
and ``_v`` = (re_0, im_0, re_1, im_1, ...), with c_k = (re_k + i im_k) / _d.
The vector is trimmed (its last pair is nonzero, and it is empty for a series
that is zero up to K) and gcd(_d, *_v) = 1, with _d = 1 for zero.  The layout
is canonical, so equality and hashing compare (order, _d, _v) and all results
are exact.  Every operation runs on Python ints: a sum takes one lcm, a
product is the K^2 integer convolution over the product of the denominators,
and each result is reduced by one gcd.  ``GaussianRational`` (a pair of
``fractions.Fraction``) is the boundary type: the constructor takes it, the
``coeffs`` property builds it on each read, and scalars may be given as one;
the parser, printer and JSON forms of ``fdq.exprio`` use the ints directly.

A series remembers whether any computation that produced it discarded a
nonzero coefficient beyond the truncation order (``tail_lost``); rank
decisions elsewhere consult that flag to stay precision-honest.  The flag
never takes part in equality or printing.  A series that is zero with no
tail lost is an exact zero, and an exact zero annihilates every product,
flag included: 0 * x is an exact zero even when x has lost its tail.  Adding
an exact zero returns the other operand itself.  These two rules keep exact
identities exact; a caller that skips exact zeros only saves time.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import BadLeadingTerm, NotReal, NotUnit, TruncationMismatch

#: Global default truncation order; constructors use it when K is omitted.
DEFAULT_ORDER = 6


def _order(order):
    """``order``, or DEFAULT_ORDER when it is None; an order below 1 raises
    the ValueError of the FormalSeries constructor."""
    if order is None:
        return DEFAULT_ORDER
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    return order

_new = object.__new__


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


def _make(order, lost, d, v, s=None):
    s = _new(FormalSeries) if s is None else s
    s.order, s.tail_lost, s._d, s._v = order, lost, d, v
    return s


def _reduced(order, lost, d, v, s=None):
    """The series with coefficients (v[2k] + i v[2k+1]) / d: trailing zero
    pairs are trimmed and d and the entries divided by their gcd.  It is
    written into ``s`` when one is given."""
    n = len(v)
    while n and not (v[n - 1] or v[n - 2]):
        n -= 2
    g = gcd(d, *v) if n else d
    v = v[:n] if g == 1 else [x // g for x in v[:n]]
    return _make(order, lost, d // g, tuple(v), s)


def _over_lcm(series):
    """(D, vectors): the lcm D of the denominators of ``series`` and the
    vector of each one rescaled to D."""
    d = lcm(*[s._d for s in series])
    return d, [s._v if s._d == d else [x * (d // s._d) for x in s._v]
               for s in series]


def _convolve(a, b, acc):
    """acc += a * b for trimmed, nonzero Gaussian-integer vectors, keeping
    the terms below len(acc).  True when a product term lands beyond: the
    top terms of a and b are nonzero, so exactly when their product does."""
    n, nb = len(acc), len(b)
    for i in range(0, min(len(a), n), 2):
        ar, ai = a[i], a[i + 1]
        if ar or ai:
            for j in range(i, min(i + nb, n), 2):
                br, bi = b[j - i], b[j - i + 1]
                acc[j] += ar * br - ai * bi
                acc[j + 1] += ar * bi + ai * br
    return len(a) + len(b) > n + 2


def _dot(terms, acc):
    """acc += a * b over ``terms`` (a, a_lost, b, b_lost) of trimmed vectors
    and flags; returns the flag that ``*`` and ``+`` would give: a pair with
    an exact-zero factor (an empty vector without a flag) adds nothing, and
    any other adds its flags and one when a term lands at l^K or beyond."""
    lost = False
    for a, a_lost, b, b_lost in terms:
        if (a or a_lost) and (b or b_lost):
            lost = lost or a_lost or b_lost
            if a and b:
                lost = _convolve(a, b, acc) or lost
    return lost


def _sum_of_products(start, pairs, negate=False):
    """start + sum of a * b over the series ``pairs`` (a, b), or start - sum
    with ``negate``, reduced once: the value and flag of adding the products
    one by one, and ``start`` itself when every pair has an exact-zero
    factor."""
    pairs = [(a, b) for a, b in pairs
             if (a._v or a.tail_lost) and (b._v or b.tail_lost)]
    if not pairs:
        return start
    d = lcm(start._d, *[a._d * b._d for a, b in pairs])
    acc = [x * w for w in [d // start._d] for x in start._v]
    acc += [0] * (2 * start.order - len(acc))
    u = -d if negate else d
    lost = _dot([([x * w for x in a._v], a.tail_lost, b._v, b.tail_lost)
                 for a, b in pairs for w in [u // (a._d * b._d)]], acc)
    return _reduced(start.order, lost or start.tail_lost, d, acc)


class FormalSeries:
    """Truncated formal power series: K coefficients indexed by the power of l.

    Values are immutable; all arithmetic returns fresh series.  Binary
    operations require equal truncation orders (TruncationMismatch otherwise);
    callers that legitimately mix orders down-truncate explicitly first.
    """

    __slots__ = ("order", "tail_lost", "_d", "_v")

    def __init__(self, coeffs, order=None, tail_lost=False):
        coeffs = [c if isinstance(c, GaussianRational) else GaussianRational(c)
                  for c in coeffs]
        order = len(coeffs) if order is None else order
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        parts = [x for c in coeffs[:order] for x in (c.re, c.im)]
        d = lcm(*[x.denominator for x in parts])
        _reduced(order, tail_lost or any(coeffs[order:]), d,
                 [x.numerator * (d // x.denominator) for x in parts], self)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order=None):
        return _make(_order(order), False, 1, ())

    @classmethod
    def one(cls, order=None):
        return _make(_order(order), False, 1, (1, 0))

    @classmethod
    def from_scalar(cls, c, order=None):
        return cls((c,), _order(order))

    @classmethod
    def lam(cls, power=1, order=None):
        """The monomial l^power (zero when power >= K)."""
        return cls.one(order).shift(power)

    # -- basics --------------------------------------------------------------

    def coeff(self, r):
        """The coefficient of l^r as a GaussianRational, for 0 <= r < K."""
        if not 0 <= r < self.order:
            raise IndexError("series coefficient index out of range")
        re, im = self._v[2 * r:2 * r + 2] or (0, 0)
        if not (re or im):
            return GR_ZERO
        return GaussianRational(Fraction(re, self._d), Fraction(im, self._d))

    @property
    def coeffs(self):
        """The K coefficients as GaussianRationals, built on each read."""
        return tuple(self.coeff(r) for r in range(self.order))

    def __repr__(self):
        from .exprio import series_text
        return f"<series {series_text(self)} (K={self.order})>"

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.order == other.order and self._d == other._d
                and self._v == other._v)

    def __hash__(self):
        return hash((self.order, self._d, self._v))

    def is_zero(self):
        """True when every stored coefficient vanishes (zero up to order K)."""
        return not self._v

    def is_exact_zero(self):
        """True when the series is certified to be 0, not merely 0 up to K."""
        return not self._v and not self.tail_lost

    def is_real(self):
        return not any(self._v[1::2])

    def lossy(self):
        """The same value with its tail marked lost."""
        return self if self.tail_lost else _make(self.order, True, self._d,
                                                 self._v)

    def valuation(self):
        """Index of the lowest nonzero stored coefficient, or None."""
        v = self._v
        for k in range(0, len(v), 2):
            if v[k] or v[k + 1]:
                return k // 2
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
        return _reduced(order, self.tail_lost or len(self._v) > 2 * order,
                        self._d, self._v[:2 * order])

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
        d, (va, vb) = _over_lcm((self, other))
        if len(va) < len(vb):
            va, vb = vb, va
        v = list(map(add, va, vb))
        v += va[len(vb):]
        return _reduced(self.order, self.tail_lost or other.tail_lost, d, v)

    def __sub__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return _make(self.order, self.tail_lost, self._d,
                     tuple([-x for x in self._v]))

    def scaled_product(self, other, num=1, den=1):
        """Truncated num/den * self * other (``a * b`` has num = den = 1): the
        integer convolution over the product of the denominators and den,
        reduced once.  An exact-zero factor makes the product an exact zero.
        Otherwise the result has lost its tail when an operand has, or when a
        pair of nonzero terms lands at l^K or beyond."""
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check(other)
        K = self.order
        lost = self.tail_lost or other.tail_lost
        if not self._v or not other._v:
            # 0 * x = 0 whatever x is; a lossy zero times a series that is
            # not an exact zero is a lossy zero.
            lost = lost and not (self.is_exact_zero() or other.is_exact_zero())
            return _make(K, lost, 1, ())
        a = self._v if num == 1 else [x * num for x in self._v]
        acc = [0] * (2 * K)
        lost = _convolve(a, other._v, acc) or lost
        return _reduced(K, lost, self._d * other._d * den, acc)

    __mul__ = scaled_product

    def scalar_mul(self, c):
        """c * self for an int, a Fraction or a GaussianRational c."""
        if isinstance(c, GaussianRational):
            re, im = c.re, c.im
            cd = lcm(re.denominator, im.denominator)
            cr, ci = re.numerator * (cd // re.denominator), \
                im.numerator * (cd // im.denominator)
        else:
            cr, ci, cd = c.numerator, 0, c.denominator
        v = self._v
        if ci:
            w = [0] * len(v)
            _convolve((cr, ci), v, w)
        elif cr == cd:
            return self
        else:
            w = [x * cr for x in v]
        return _reduced(self.order, self.tail_lost, self._d * cd, w)

    def conjugate(self):
        v = list(self._v)
        v[1::2] = [-x for x in v[1::2]]
        return _make(self.order, self.tail_lost, self._d, tuple(v))

    def shift(self, power):
        """Multiply by l^power.  A negative power divides by l^-power: the
        series must have valuation >= -power, and the quotient's top -power
        coefficients are unknown, so its tail is lost."""
        v, K = self._v, self.order
        if power < 0:
            return _reduced(K, True, self._d, v[-2 * power:])
        if power == 0 or not v:
            return self
        keep = max(2 * (K - power), 0)  # at power >= K every term drops
        return _reduced(K, self.tail_lost or len(v) > keep, self._d,
                        (0, 0) * min(power, K) + v[:keep])

    # -- ordered-ring and analytic helpers ------------------------------------

    def sign(self):
        """Sign of a real series: the lowest nonzero coefficient rules."""
        if not self.is_real():
            raise NotReal("sign is defined for real series only")
        v = self.valuation()
        if v is None:
            return Sign.ZERO_UP_TO_K
        return Sign.POSITIVE if self._v[2 * v] > 0 else Sign.NEGATIVE

    def invert(self):
        """Multiplicative inverse; the lambda^0 coefficient must be a unit.

        With a = A / d and n = |A_0|^2, W_k = d n^K (1/A)_k is a Gaussian
        integer for k < K: W_0 = d n^(K-1) conj(A_0), and
        W_k = -conj(A_0) sum_{j=1..k} A_j W_(k-j) / n divides exactly."""
        v, K = self._v, self.order
        if not v or not (v[0] or v[1]):
            raise NotUnit("series with vanishing lambda^0 coefficient")
        r0, i0 = v[0], v[1]
        n = r0 * r0 + i0 * i0
        top = self._d * n ** (K - 1)
        w = [top * r0, -top * i0]
        for k in range(2, 2 * K, 2):
            sr = si = 0
            for j in range(2, min(k, len(v) - 2) + 1, 2):
                ar, ai, br, bi = v[j], v[j + 1], w[k - j], w[k - j + 1]
                sr += ar * br - ai * bi
                si += ar * bi + ai * br
            w += (-(r0 * sr + i0 * si) // n, (i0 * sr - r0 * si) // n)
        # The true inverse has an infinite tail unless the input is a constant.
        return _reduced(K, self.tail_lost or len(v) > 2, n ** K, w)

    def sqrt_binomial(self, exponent):
        """(self)^exponent for exponent +1/2 or -1/2 via the binomial series;
        requires a series of the form 1 + O(l)."""
        if exponent not in (Fraction(1, 2), Fraction(-1, 2)):
            raise ValueError("exponent must be +1/2 or -1/2")
        if self.coeff(0) != GR_ONE:
            raise BadLeadingTerm("binomial root needs lambda^0 coefficient 1")
        K = self.order
        u = self - FormalSeries.one(K)
        result = power = FormalSeries.one(K)
        coeff = Fraction(1)
        for k in range(1, K):
            coeff = coeff * (exponent - (k - 1)) / k
            power = power * u
            if power.is_exact_zero():
                break
            result = result + power.scalar_mul(coeff)
        return result if u.is_exact_zero() else result.lossy()

    def classical_limit(self):
        """Coefficient at lambda^0."""
        return self.coeff(0)
