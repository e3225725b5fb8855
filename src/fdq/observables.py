"""Polynomial observables on flat phase space R^2n with series coefficients.

Observables are sparse multivariate polynomials: a map from exponent vectors
to FormalSeries.  Three charts share the machinery:

* ``real``: variables q1..qn, p1..pn (exponent vectors of length 2n),
* ``holo``: variables z1..zn, zb1..zbn (length 2n),
* ``fock``: variables yb1..ybn (length n), used by the representation engine,
* ``wave``: variables q1..qn (length n), wave functions for Schroedinger
  operators.

Everything is exact; "real" observables are detected (all coefficients fixed
by conjugation), never typed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm

from .errors import DimensionMismatch, SignatureMismatch, TruncationMismatch
from .series import (FormalSeries, GaussianRational, _convolve, _order,
                     _reduced)

# Each chart's name prefixes in variable order: variable j*n + k - 1 of a
# chart is named prefixes[j] followed by k, for k = 1..n.
_CHART_PREFIXES = {"real": ("q", "p"), "holo": ("z", "zb"), "fock": ("yb",),
                   "wave": ("q",)}


class PhaseSpaceSignature:
    """Degrees of freedom plus chart; fixes the variable order for a computation."""

    __slots__ = ("n", "chart")

    def __init__(self, n, chart="real"):
        if n < 1:
            raise ValueError("need at least one degree of freedom")
        if chart not in _CHART_PREFIXES:
            raise ValueError(f"unknown chart {chart!r}")
        self.n = n
        self.chart = chart

    @property
    def width(self):
        """Number of polynomial variables in this chart."""
        return len(_CHART_PREFIXES[self.chart]) * self.n

    def variables(self):
        return tuple(f"{prefix}{k}" for prefix in _CHART_PREFIXES[self.chart]
                     for k in range(1, self.n + 1))

    def __eq__(self, other):
        return (isinstance(other, PhaseSpaceSignature)
                and self.n == other.n and self.chart == other.chart)

    def __hash__(self):
        return hash((self.n, self.chart))

    def __repr__(self):
        return f"PhaseSpaceSignature(n={self.n}, chart={self.chart!r})"


# One tuple per exponent vector, shared as a key by every term map: values
# repeat a few monomials many times over.  It grows with distinct monomials.
_EXPONENTS = {}


class PolyObservable:
    """Sparse polynomial with FormalSeries coefficients over a signature.

    ``terms`` maps exponent tuples (length = signature.width) to nonzero
    FormalSeries.  Instances are treated as immutable.  ``tail_lost`` records
    that some coefficient was silently truncated to a stored zero; it is
    metadata (never part of equality) consulted by precision-honest rank
    decisions downstream.
    """

    __slots__ = ("signature", "order", "terms", "tail_lost")

    def __init__(self, signature, terms, order=None, tail_lost=False):
        self.signature = signature
        w = signature.width
        clean = {}
        K = order
        for exp, coeff in terms.items():
            if len(exp) != w:
                raise DimensionMismatch(
                    f"exponent vector of length {len(exp)}, expected {w}")
            if K is None:
                K = coeff.order
            elif coeff.order != K:
                raise TruncationMismatch(
                    "all coefficients of one observable share the order")
            if coeff.is_zero():
                tail_lost = tail_lost or coeff.tail_lost
            else:
                exp = tuple(exp)
                clean[_EXPONENTS.setdefault(exp, exp)] = coeff
        self.order = _order(K)
        self.terms = clean
        self.tail_lost = tail_lost

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, signature, order=None):
        return cls(signature, {}, order)

    @classmethod
    def constant(cls, signature, series):
        return cls(signature, {(0,) * signature.width: series})

    @classmethod
    def one(cls, signature, order=None):
        return cls.constant(signature, FormalSeries.one(order))

    @classmethod
    def variable(cls, signature, index, order=None):
        """The coordinate monomial for variable ``index`` (0-based)."""
        exp = [0] * signature.width
        exp[index] = 1
        return cls(signature, {tuple(exp): FormalSeries.one(order)})

    @classmethod
    def monomial(cls, signature, exp, order=None, coeff=None):
        c = coeff if coeff is not None else FormalSeries.one(order)
        return cls(signature, {tuple(exp): c})

    # -- basics ---------------------------------------------------------------

    def __repr__(self):
        from .exprio import observable_text
        return f"<obs {observable_text(self)}>"

    def __eq__(self, other):
        if not isinstance(other, PolyObservable):
            return NotImplemented
        return (self.signature == other.signature
                and self.order == other.order and self.terms == other.terms)

    def __hash__(self):
        return hash((self.signature, self.order,
                     frozenset(self.terms.items())))

    def is_zero(self):
        return all(c.is_zero() for c in self.terms.values())

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def _check(self, other):
        if self.signature != other.signature:
            raise SignatureMismatch(
                f"{self.signature!r} vs {other.signature!r}")
        if self.order != other.order:
            raise TruncationMismatch(
                f"truncation orders differ: {self.order} != {other.order}")

    # -- algebra --------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyObservable):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms[exp] + c if exp in terms else c
        return PolyObservable(self.signature, terms, self.order,
                              self.tail_lost or other.tail_lost)

    def __sub__(self, other):
        if not isinstance(other, PolyObservable):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PolyObservable(
            self.signature, {e: -c for e, c in self.terms.items()}, self.order,
            self.tail_lost)

    def __mul__(self, other):
        """Pointwise (commutative) product.  As for series, an exact-zero
        factor (no terms, no lost tail) makes the product an exact zero."""
        if not isinstance(other, PolyObservable):
            return NotImplemented
        self._check(other)
        if not all(f.terms or f.tail_lost for f in (self, other)):
            return PolyObservable.zero(self.signature, self.order)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return PolyObservable(self.signature, terms, self.order,
                              self.tail_lost or other.tail_lost)

    def scale(self, series):
        return PolyObservable(
            self.signature, {e: c * series for e, c in self.terms.items()},
            self.order, self.tail_lost or series.tail_lost)

    def scale_scalar(self, c):
        return PolyObservable(
            self.signature, {e: s.scalar_mul(c) for e, s in self.terms.items()},
            self.order, self.tail_lost)

    def __pow__(self, k):
        result = PolyObservable.one(self.signature, self.order)
        for _ in range(k):
            result = result * self
        return result

    def derivative(self, index, times=1):
        """Exact partial derivative with respect to variable ``index``."""
        return _partial(self, ((index, times),))

    def reduce_order(self, order):
        return PolyObservable(
            self.signature,
            {e: c.reduce_order(order) for e, c in self.terms.items()}, order,
            self.tail_lost)

    def lambda_coefficient(self, r):
        """The polynomial coefficient of l^r, as an observable with constant
        (lambda-free) coefficients at the same truncation order."""
        terms = {}
        for exp, c in self.terms.items():
            cr = c.coeff(r)
            if cr:
                terms[exp] = FormalSeries.from_scalar(cr, self.order)
        return PolyObservable(self.signature, terms, self.order)


# -- operations ----------------------------------------------------------------


def _derive(exp, alpha):
    """d^alpha x^exp = ff x^d as (ff, d), where alpha lists (index, times)
    pairs and ff is the product of the falling factorials
    exp[i] (exp[i] - 1) ... (exp[i] - times + 1); ff is 0 when it vanishes."""
    ff = 1
    for i, t in alpha:
        ff *= perm(exp[i], t)
    if not ff:
        return 0, None
    d = list(exp)
    for i, t in alpha:
        d[i] -= t
    return ff, tuple(d)


def _partial(f, alpha):
    """d^alpha f, alpha a tuple of (index, times) pairs: each surviving
    term is scaled once by its falling factorial.  ``_derive`` inlined; a
    term the first pair kills costs one comparison and no call."""
    if not alpha:
        return f
    (i0, t0), terms = alpha[0], {}
    for exp, c in f.terms.items():
        if exp[i0] < t0:
            continue
        ff = 1
        for i, t in alpha:
            if exp[i] < t:
                break
            ff *= perm(exp[i], t)
        else:
            d = list(exp)
            for i, t in alpha:
                d[i] -= t
            terms[tuple(d)] = c.scalar_mul(ff)
    return PolyObservable(f.signature, terms, f.order, f.tail_lost)


def involution(f: PolyObservable) -> PolyObservable:
    """Complex conjugation f -> conj(f).

    On the real chart q, p are fixed and only coefficients conjugate; on the
    holomorphic chart z and zb swap as well.  Involutive in both cases.
    """
    sig = f.signature
    if sig.chart in ("real", "wave", "fock"):
        return PolyObservable(
            sig, {e: c.conjugate() for e, c in f.terms.items()}, f.order,
            f.tail_lost)
    n = sig.n
    terms = {}
    for exp, c in f.terms.items():
        swapped = exp[n:] + exp[:n]
        terms[swapped] = c.conjugate()
    return PolyObservable(sig, terms, f.order, f.tail_lost)


def poisson_bracket(f: PolyObservable, g: PolyObservable) -> PolyObservable:
    """Canonical bracket sum_k (df/dq^k dg/dp_k - df/dp_k dg/dq^k); on the
    holomorphic chart, where {z_k, zb_k} = -2i, it is
    -2i sum_k (df/dz_k dg/dzb_k - df/dzb_k dg/dz_k)."""
    if f.signature != g.signature:
        raise SignatureMismatch(f"{f.signature!r} vs {g.signature!r}")
    chart = f.signature.chart
    if chart not in ("real", "holo"):
        raise SignatureMismatch(
            "Poisson bracket lives on the real and holomorphic charts")
    n = f.signature.n
    out = PolyObservable.zero(f.signature, f.order)
    for k in range(n):
        out = out + f.derivative(k) * g.derivative(n + k)
        out = out - f.derivative(n + k) * g.derivative(k)
    return out if chart == "real" else out.scale_scalar(GaussianRational(0, -2))


def _substitute(f: PolyObservable, target, images) -> PolyObservable:
    """f with variable k replaced by images[k], an observable on ``target``."""
    n = target.n
    out = PolyObservable(target, {}, f.order, f.tail_lost)
    for exp, c in f.terms.items():
        term = PolyObservable.constant(target, c)
        for k in range(n):
            for _ in range(exp[k]):
                term = term * images[k]
            for _ in range(exp[n + k]):
                term = term * images[n + k]
        out = out + term
    return out


def to_holomorphic(f: PolyObservable) -> PolyObservable:
    """Substitute q = (z + zb)/2, p = (z - zb)/(2i) into a real-chart observable."""
    if f.signature.chart != "real":
        raise SignatureMismatch("expected a real-chart observable")
    n = f.signature.n
    hsig = PhaseSpaceSignature(n, "holo")
    z = [PolyObservable.variable(hsig, k, f.order) for k in range(n)]
    zb = [PolyObservable.variable(hsig, n + k, f.order) for k in range(n)]
    # q_k = (z_k + zb_k)/2, p_k = (z_k - zb_k)/(2i) = -i/2 z_k + i/2 zb_k
    half = GaussianRational(Fraction(1, 2))
    minus_half_i = GaussianRational(0, Fraction(-1, 2))
    return _substitute(
        f, hsig, [(z[k] + zb[k]).scale_scalar(half) for k in range(n)]
        + [(z[k] - zb[k]).scale_scalar(minus_half_i) for k in range(n)])


def to_real(f: PolyObservable) -> PolyObservable:
    """Substitute z = q + ip, zb = q - ip into a holomorphic-chart observable."""
    if f.signature.chart != "holo":
        raise SignatureMismatch("expected a holomorphic-chart observable")
    n = f.signature.n
    rsig = PhaseSpaceSignature(n, "real")
    q = [PolyObservable.variable(rsig, k, f.order) for k in range(n)]
    ip = [PolyObservable.variable(rsig, n + k, f.order).scale_scalar(
        GaussianRational(0, 1)) for k in range(n)]
    return _substitute(f, rsig, [q[k] + ip[k] for k in range(n)]
                       + [q[k] - ip[k] for k in range(n)])


def eval_at_point(f: PolyObservable, point) -> FormalSeries:
    """Evaluate at a point x = X/D of Gaussian rationals in one integer pass:
    the powers of each X_i are taken once, each term c x^e adds c's vector
    times X^e D^(top - |e|) to one sum over lcm(c._d) D^top, reduced once.
    Its tail is lost when the observable's or a coefficient's is."""
    w = f.signature.width
    if len(point) != w:
        raise DimensionMismatch(f"point of length {len(point)}, expected {w}")
    point = [c if isinstance(c, GaussianRational) else GaussianRational(c)
             for c in point]
    terms = f.terms
    d = lcm(*[x.denominator for c in point for x in (c.re, c.im)])
    powers = []
    for c, high in zip(point, map(max, zip(*terms))):
        xr, xi = (x.numerator * (d // x.denominator) for x in (c.re, c.im))
        p = [(1, 0)]
        for _ in range(high):
            pr, pi = p[-1]
            p.append((pr * xr - pi * xi, pr * xi + pi * xr))
        powers.append(p)
    top = f.total_degree()
    scale = lcm(*[c._d for c in terms.values()])
    acc = [0] * (2 * f.order)
    for exp, c in terms.items():
        mr, mi = scale // c._d * d ** (top - sum(exp)), 0
        for p, e in zip(powers, exp):
            if e:
                pr, pi = p[e]
                mr, mi = mr * pr - mi * pi, mr * pi + mi * pr
        _convolve((mr, mi), c._v, acc)
    return _reduced(f.order, f.tail_lost or any(
        c.tail_lost for c in terms.values()), scale * d ** top, acc)


def _exponents_of_degree(width, d):
    """All exponent vectors of total degree d, in descending order."""
    if width == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1)
            for rest in _exponents_of_degree(width - 1, d - e)]


def monomials_up_to(signature, degree, order=None):
    """All monomial observables of total degree <= degree, in graded-lex order."""
    return [PolyObservable.monomial(signature, e, order)
            for d in range(degree + 1)
            for e in _exponents_of_degree(signature.width, d)]
