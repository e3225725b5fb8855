"""Slow, obviously-correct references the benchmark checks fdq against.

Nothing here calls ``fdq.star``, ``fdq.functionals`` or ``fdq.matrices``.
The star product is written straight from

    f * g = sum_k 1/k! mu o P^k (f (x) g),   P = sum_ab L_ab d_a (x) d_b,

with the pairings L taken from their defining formulas, and expanded over
ordered sequences of pairing entries with ``PolyObservable.derivative``.
Equivalence operators exp(D) and point functionals are written the same way.
Scalar linear algebra (ranks, determinants) runs over exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from fdq.observables import PhaseSpaceSignature, PolyObservable
from fdq.series import FormalSeries, GaussianRational, Sign

HALF = Fraction(1, 2)


def _lam(coeff, K):
    """coeff * l as a series of order K."""
    c = coeff if isinstance(coeff, GaussianRational) else GaussianRational(coeff)
    return FormalSeries((GaussianRational(0), c), K)


def pairing(kind, n, K, chart="real"):
    """Sparse pairing [(a, b, L_ab)] of a built-in product, from its formula.

    weyl: (il/2)(d_q (x) d_p - d_p (x) d_q)
    wick: 2l d_z (x) d_zb on the holomorphic chart; on the real chart
          (l/2)(d_q (x) d_q + d_p (x) d_p) + (il/2)(d_q (x) d_p - d_p (x) d_q)
    std:  (l/i) d_p (x) d_q
    """
    half_i = GaussianRational(0, HALF)
    out = []
    for r in range(n):
        q, p = r, n + r
        if kind == "weyl":
            out += [(q, p, _lam(half_i, K)), (p, q, _lam(-half_i, K))]
        elif kind == "wick" and chart == "holo":
            out.append((q, p, _lam(2, K)))
        elif kind == "wick":
            out += [(q, q, _lam(HALF, K)), (p, p, _lam(HALF, K)),
                    (q, p, _lam(half_i, K)), (p, q, _lam(-half_i, K))]
        elif kind == "std":
            out.append((p, q, _lam(GaussianRational(0, -1), K)))
        else:
            raise ValueError(f"no reference pairing for {kind!r}")
    return out


def star(pairs, f, g):
    """Reference star product of two observables of one order K."""
    K = f.order
    result = PolyObservable.zero(f.signature, K)
    one = FormalSeries.one(K)

    def expand(F, G, coeff, k):
        nonlocal result
        result = result + (F * G).scale(coeff.scalar_mul(Fraction(1, factorial(k))))
        if k + 1 >= K:
            return
        for a, b, entry in pairs:
            dF = F.derivative(a)
            if not dF.terms:
                continue
            dG = G.derivative(b)
            if not dG.terms:
                continue
            expand(dF, dG, coeff * entry, k + 1)

    expand(f, g, one, 0)
    return result


def conjugate(f):
    """Complex conjugation on the real chart: coefficients only."""
    return PolyObservable(f.signature,
                          {e: c.conjugate() for e, c in f.terms.items()},
                          f.order)


# -- equivalence operators and functionals -------------------------------------------


def generator(name, n, K):
    """D with exp(D) the named operator, as [(derivative exponent, series)].

    S = exp(l Delta), Delta = (1/4) sum_r (d_q^2 + d_p^2);
    N = exp((l/2i) sum_r d_q d_p); a trailing ^-1 negates D.
    """
    inverse = name.endswith("^-1")
    base = name[:-3] if inverse else name
    gen = []
    for r in range(n):
        if base == "S":
            for idx in (r, n + r):
                exp = [0] * (2 * n)
                exp[idx] = 2
                gen.append((tuple(exp), _lam(Fraction(1, 4), K)))
        elif base == "N":
            exp = [0] * (2 * n)
            exp[r] = exp[n + r] = 1
            gen.append((tuple(exp), _lam(GaussianRational(0, -HALF), K)))
        else:
            raise ValueError(f"unknown operator {name!r}")
    if inverse:
        gen = [(e, -c) for e, c in gen]
    return gen


def apply_exp(gen, f):
    """exp(D) f = sum_k D^k f / k!, term by term."""
    K = f.order
    total, current, k = f, f, 0
    while current.terms and k + 1 < K:
        k += 1
        nxt = PolyObservable.zero(f.signature, K)
        for exp, c in gen:
            term = current
            for idx, times in enumerate(exp):
                for _ in range(times):
                    term = term.derivative(idx)
            if term.terms:
                nxt = nxt + term.scale(c)
        current = nxt
        total = total + current.scale_scalar(Fraction(1, factorial(k)))
    return total


def evaluate(point, gen, f):
    """omega(f) = (exp(D) f)(point); gen may be empty (plain delta)."""
    if gen:
        f = apply_exp(gen, f)
    total = FormalSeries.zero(f.order)
    for exp, c in f.terms.items():
        v = GaussianRational(1)
        for x, e in zip(point, exp):
            for _ in range(e):
                v = v * x
        total = total + c.scalar_mul(v)
    return total


def square_sign(value):
    """Verdict of one positivity sample omega(conj(f) * f): an imaginary
    part refutes positivity just as a negative value does."""
    if any(c.im for c in value.coeffs):
        return Sign.NEGATIVE
    return value.sign()


def monomials(n, degree, K):
    """All real-chart monomials of total degree <= degree, graded by degree
    and in descending exponent order inside a degree."""
    sig = PhaseSpaceSignature(n, "real")
    w = sig.width
    exps = []
    for d in range(degree + 1):
        batch = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                batch.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining + 1):
                rec(prefix + [e], remaining - e, slots - 1)

        rec([], d, w)
        exps.extend(sorted(batch, reverse=True))
    return [PolyObservable.monomial(sig, e, K) for e in exps]


def scan_samples(n, degree, K):
    """Monomials, then m_a + s m_b for a < b and s in (1, -1, i, -i)."""
    monos = monomials(n, degree, K)
    units = (GaussianRational(1), GaussianRational(-1),
             GaussianRational(0, 1), GaussianRational(0, -1))
    samples = list(monos)
    for a in range(len(monos)):
        for b in range(a + 1, len(monos)):
            for s in units:
                samples.append(monos[a] + monos[b].scale_scalar(s))
    return samples


def monomial_from_text(text, n, K):
    """Parse a monomial such as ``q1^2*p1`` or ``1`` (axiom witnesses)."""
    exp = [0] * (2 * n)
    if text != "1":
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            idx = int(name[1:]) - 1 + (n if name[0] == "p" else 0)
            exp[idx] += int(power or 1)
    return PolyObservable.monomial(PhaseSpaceSignature(n, "real"), exp, K)


# -- exact scalar linear algebra -------------------------------------------------------


def rank(rows):
    """Rank over Q(i) of a matrix of GaussianRationals (Gaussian elimination)."""
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c] * inv
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r
