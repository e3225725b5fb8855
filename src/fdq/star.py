"""Star products of exponential type and their equivalence transformations.

A star product is f * g = mu o exp(sum_ab L[a][b] d_a (x) d_b)(f (x) g) with a
constant pairing matrix L whose entries are O(l) series.  On polynomials the
exponential terminates (derivatives kill high terms) and each pairing
application raises the l-order by one, so evaluation is exact and bounded by
the truncation order.

One kernel, ``_exp_terms``, applies exp(D) = sum_{k<K} D^k/k! for a
constant-coefficient D = sum c_alpha d^alpha to a term map.  ``apply_equiv``
runs it on an observable's terms with the generator's multi-indices (S, N
and the deformed functionals delta_x o exp(D) all go through it).  The
kernel folds 1/k! into the contraction scalar: one scaled series product per
contraction.  ``diffops`` runs it without a step bound on operator symbols.

``star_multiply`` reads a monomial product table when every pairing entry is
one exact term s l, as in every built-in product from K = 2 on: m_alpha *
m_beta is then a fixed list of Gaussian-integer terms (the Groenewold-Moyal
sum), walked once per spec, K and alpha + beta in Python ints and extended
bilinearly.  Other pairings (lossy entries, entries of several terms or of
another power of l, and every pairing at K = 1, where l is a zero whose tail
is lost) take the kernel on the tensor {exp_f + exp_g: c_f c_g}, with one
alpha = e_a + e_b per pairing entry L_ab, and fold the image back with mu.
So do the rare products whose flags the table cannot tell (see
``star_multiply``).

``check_star_axioms`` reads every monomial product once, as sparse integer
entries {(E, k): (re, im)}: the table's row for alpha + beta when the spec
has one, else the terms of star_multiply.  All five checks compare entries
over one denominator, and associativity is a bilinear expansion of them,
not two star products per triple.  Only a witness becomes an observable.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import factorial, lcm
from operator import add

from .errors import PrecisionExhausted, SignatureMismatch, TruncationMismatch
from .observables import (_EXPONENTS, PhaseSpaceSignature, PolyObservable,
                          _derive, _exponents_of_degree, involution)
from .series import (FormalSeries, GaussianRational, _convolve, _order,
                     _over_lcm, _reduced)


class StarProductSpec:
    """Constant-coefficient bidifferential exponential star product."""

    __slots__ = ("signature", "order", "pairing", "name", "_contractions",
                 "_table")

    def __init__(self, signature, pairing, order=None, name="custom"):
        w = signature.width
        if len(pairing) != w or any(len(row) != w for row in pairing):
            raise SignatureMismatch(
                f"pairing must be {w}x{w} for signature {signature!r}")
        K = order
        for row in pairing:
            for entry in row:
                if K is None:
                    K = entry.order
                elif entry.order != K:
                    raise TruncationMismatch("pairing entries share one order")
                if entry.valuation() == 0:
                    raise ValueError(
                        "pairing entries must be O(l): C_0 must be the "
                        "pointwise product")
        self.signature = signature
        self.order = _order(K)
        self.pairing = tuple(tuple(row) for row in pairing)
        self.name = name
        # star_multiply's D: one d_a (x) d_b per L_ab that is not exactly 0.
        self._contractions = tuple(
            (((a, 1), (w + b, 1)), e) for a, row in enumerate(self.pairing)
            for b, e in enumerate(row) if not e.is_exact_zero())
        # The monomial product table per order, filled by star_multiply.
        self._table = {}

    def __eq__(self, other):
        if not isinstance(other, StarProductSpec):
            return NotImplemented
        return (self.signature == other.signature
                and self.order == other.order and self.pairing == other.pairing)

    def __repr__(self):
        return f"<star {self.name} n={self.signature.n} K={self.order}>"


class EquivOperatorSpec:
    """Exponential exp(D) of a constant-coefficient differential operator D.

    ``generator`` maps derivative exponent tuples to O(l) series coefficients:
    D = sum_alpha c_alpha d^alpha.  The operator is invertible with inverse
    exp(-D).
    """

    __slots__ = ("signature", "order", "generator", "name")

    def __init__(self, signature, generator, order=None, name="custom"):
        w = signature.width
        K = order
        clean = {}
        for exp, coeff in generator.items():
            if len(exp) != w:
                raise SignatureMismatch("generator exponent width mismatch")
            if K is None:
                K = coeff.order
            elif coeff.order != K:
                raise TruncationMismatch("generator entries share one order")
            if coeff.valuation() == 0:
                raise ValueError("generator coefficients must be O(l)")
            if not coeff.is_zero() or coeff.tail_lost:
                clean[tuple(exp)] = coeff
        self.signature = signature
        self.order = _order(K)
        self.generator = clean
        self.name = name

    def inverse(self):
        return EquivOperatorSpec(
            self.signature, {e: -c for e, c in self.generator.items()},
            self.order, name=f"{self.name}^-1")

    def __eq__(self, other):
        if not isinstance(other, EquivOperatorSpec):
            return NotImplemented
        return (self.signature == other.signature
                and self.order == other.order
                and self.generator == other.generator)

    def __hash__(self):
        return hash((self.signature, self.order,
                     frozenset(self.generator.items())))

    def __repr__(self):
        return f"<equiv-op {self.name} n={self.signature.n} K={self.order}>"


# -- built-in constructors -------------------------------------------------------


# Each built-in pairing by (name, chart), as (row half, column half, c)
# entries: L has c l at (row half * n + r, column half * n + r) for every r
# and zeros elsewhere.
_I_HALF = GaussianRational(0, Fraction(1, 2))
_PAIRINGS = {
    ("weyl", "real"): ((0, 1, _I_HALF), (1, 0, -_I_HALF)),
    ("wick", "real"): ((0, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2)),
                       (0, 1, _I_HALF), (1, 0, -_I_HALF)),
    ("wick", "holo"): ((0, 1, 2),),
    ("std", "real"): ((1, 0, GaussianRational(0, -1)),),
}


def _builtin(name, n, order, chart="real"):
    """One spec per (name, n, K, chart), its product table shared."""
    return _builtin_spec(name, n, _order(order), chart)


@lru_cache(maxsize=64)
def _builtin_spec(name, n, order, chart):
    sig = PhaseSpaceSignature(n, chart)
    l = FormalSeries.lam(1, order)
    pairing = [[FormalSeries.zero(order)] * sig.width
               for _ in range(sig.width)]
    for row, col, c in _PAIRINGS[name, chart]:
        entry = l.scalar_mul(c)
        for r in range(n):
            pairing[row * n + r][col * n + r] = entry
    return StarProductSpec(sig, pairing, order, name=name)


def weyl(n, order=None):
    """Totally symmetrized product: pairing (il/2)(d_q (x) d_p - d_p (x) d_q)."""
    return _builtin("weyl", n, order)


def wick(n, order=None, chart="real"):
    """Normal-ordered product 2l d_z (x) d_zb, expressed in the requested chart
    (the real one unless ``chart`` is "holo").

    On the real chart the z-substitution gives
    (l/2)(d_q (x) d_q + d_p (x) d_p) + (il/2)(d_q (x) d_p - d_p (x) d_q).
    """
    return _builtin("wick", n, order, "holo" if chart == "holo" else "real")


def std(n, order=None):
    """Standard-ordered product (momenta to the right): (l/i) d_p (x) d_q."""
    return _builtin("std", n, order)


def builtin_spec(kind, n, order=None):
    if kind not in ("weyl", "wick", "std"):
        raise ValueError(f"unknown built-in star product {kind!r}")
    return _builtin(kind, n, order)


def op_s(n, order=None):
    """S = exp(l Delta) with Delta the z-zb Laplacian, on the real chart:
    Delta = (1/4) sum_r (d_q^2 + d_p^2)."""
    sig = PhaseSpaceSignature(n, "real")
    quarter_l = FormalSeries.lam(1, order).scalar_mul(Fraction(1, 4))
    gen = {}
    for r in range(n):
        eq = [0] * sig.width
        eq[r] = 2
        ep = [0] * sig.width
        ep[n + r] = 2
        gen[tuple(eq)] = quarter_l
        gen[tuple(ep)] = quarter_l
    return EquivOperatorSpec(sig, gen, order, name="S")


def op_n(n, order=None):
    """N = exp((l/2i) sum_k d_p d_q), the Weyl-to-standard-ordering operator."""
    sig = PhaseSpaceSignature(n, "real")
    c = FormalSeries.lam(1, order).scalar_mul(
        GaussianRational(0, Fraction(-1, 2)))
    gen = {}
    for r in range(n):
        e = [0] * sig.width
        e[r] = 1
        e[n + r] = 1
        gen[tuple(e)] = c
    return EquivOperatorSpec(sig, gen, order, name="N")


def identity_op(n, order=None):
    return EquivOperatorSpec(PhaseSpaceSignature(n), {}, order, name="id")


# -- core operations --------------------------------------------------------------


def _common_order(*values):
    return min(v.order for v in values)


def _exp_terms(terms, ops, K, prune):
    """Apply exp(D) = sum_{k<K} D^k/k! to a term map {exp: series}.

    D = sum_alpha c_alpha d^alpha is ``ops``, a list of (alpha, c_alpha) with
    alpha a tuple of (variable index, times) pairs.  The sum stops once D^k
    kills every term, or at the step bound K: O(l) contractions pass the
    order K, as D^k starts at l^k; lambda-free ones pass None.  Step k holds
    D^k/k!: a contraction is one ``scaled_product`` c_alpha * c * ff/k, ff
    the falling factorial of d^alpha, and a term is absorbed unscaled.

    Returns the image and whether a tail was lost outside it.  With ``prune``
    the arithmetic is PolyObservable's, generator by generator: a zero is
    dropped where it appears and its flag goes to the observable, as does
    c_alpha's flag whenever d^alpha leaves a term.  Without it a lost zero
    stays in the map and flags the coefficient it is later added to.
    """
    result, lost = {}, False
    current, k = terms, 0
    while True:
        for e, c in current.items():
            lost = _accumulate(result, e, c, prune) or lost
        k += 1
        if not current or k == K:
            return result, lost
        new = {}
        for alpha, coeff in ops:
            hit = False
            for e, c in current.items():
                ff, d = _derive(e, alpha)
                if ff:
                    hit = True
                    lost = _accumulate(new, d, coeff.scaled_product(
                        c, ff, k), prune) or lost
            lost = lost or (prune and hit and coeff.tail_lost)
        current = new if prune else {
            e: c for e, c in new.items() if not c.is_zero() or c.tail_lost}


def _accumulate(terms, e, c, prune):
    """terms[e] += c.  With ``prune`` a zero addend or sum is dropped instead,
    and its flag is returned."""
    if prune and c.is_zero():
        return c.tail_lost
    if e in terms:
        c = terms[e] + c
        if prune and c.is_zero():
            del terms[e]
            return c.tail_lost
    terms[e] = c
    return False


def _product_table(spec, K):
    """spec's monomial product table at order K, made empty on first use:
    (ops, den, D, rows).  ``ops`` lists (a, w + b, re, im) for each pairing
    entry L_ab = (re + i im) l / den, D = den^(K-1) (K-1)! is the
    denominator of every entry, and ``rows`` maps alpha + beta to the
    entries of m_alpha * m_beta (see ``_monomial_walk``).  None when some
    entry at order K is not one exact term s l: a lost tail (every entry at
    K = 1), more than one term or another power of l."""
    if K not in spec._table:
        entries = [(a, b, e if e.order == K else e.reduce_order(K))
                   for ((a, _), (b, _)), e in spec._contractions]
        table = None
        if all(not e.tail_lost and len(e._v) == 4 and not (e._v[0] or e._v[1])
               for _, _, e in entries):
            den = lcm(*[e._d for _, _, e in entries])
            table = (tuple((a, b, e._v[2] * (den // e._d),
                            e._v[3] * (den // e._d)) for a, b, e in entries),
                     den, den ** (K - 1) * factorial(K - 1), {})
        spec._table[K] = table
    return spec._table[K]


def _monomial_walk(key, table, K):
    """The entries of m_alpha * m_beta for key = alpha + beta: exp(D) run
    on x^key in Python ints, one (E, k, re, im) per output exponent E and
    step k reached, (re + i im) l^k / D the term at x^E.
    An entry whose nodes cancel is kept, so a product it shifts beyond l^K
    is still flagged.  None when a node of the walk cancels: the series
    kernel keeps such a node only when its tail is lost, so the flags below
    it depend on f and g."""
    ops, den, scale, _ = table
    w = len(key) // 2
    sums, nodes, k = {}, {key: (1, 0)}, 0
    while True:
        for d, (xr, xi) in nodes.items():
            e = (tuple(map(add, d[:w], d[w:])), k)
            re, im = sums.get(e, (0, 0))
            sums[e] = (re + scale * xr, im + scale * xi)
        k += 1
        if k == K:
            break
        scale //= den * k
        new = {}
        for d, (xr, xi) in nodes.items():
            for a, b, sr, si in ops:
                ff = d[a] * d[b]
                if ff:
                    c = list(d)
                    c[a] -= 1
                    c[b] -= 1
                    c = tuple(c)
                    yr, yi = new.get(c, (0, 0))
                    new[c] = (yr + ff * (sr * xr - si * xi),
                              yi + ff * (sr * xi + si * xr))
        if (0, 0) in new.values():
            return None
        if not new:
            break
        nodes = new
    return tuple((_EXPONENTS.setdefault(e, e), k, re, im)
                 for (e, k), (re, im) in sums.items())


def _row(table, key, K):
    """The table's row for key = alpha + beta, walked on first read."""
    if key not in table[3]:
        table[3][key] = _monomial_walk(key, table, K)
    return table[3][key]


def _table_product(spec, f, g, K):
    """f * g from the monomial product table, or None when spec has none at
    K or a node of exp(D) might merge two term pairs whose top terms cancel
    there (see ``star_multiply``)."""
    table = _product_table(spec, K)
    if table is None:
        return None
    n = 2 * K
    df, vf = _over_lcm(f.terms.values())
    dg, vg = _over_lcm(g.terms.values())
    acc, lost, band = {}, set(), set()
    for (e1, c1), a1 in zip(f.terms.items(), vf):
        for (e2, c2), a2 in zip(g.terms.items(), vg):
            row = _row(table, e1 + e2, K)
            if row is None:
                return None
            c = [0] * n
            exact = not (_convolve(a1, a2, c) or c1.tail_lost or c2.tail_lost)
            m = n
            while m and not (c[m - 1] or c[m - 2]):
                m -= 2
            for e, k, er, ei in row:
                a = acc.get(e)
                if a is None:
                    a = acc[e] = [0] * n
                j = 2 * k
                for i in range(0, min(m, n - j), 2):
                    cr, ci = c[i], c[i + 1]
                    a[j + i] += er * cr - ei * ci
                    a[j + i + 1] += er * ci + ei * cr
                if not exact or m + j > n:
                    lost.add(e)
                elif m + j == n and m > 2 and k:
                    # c's top term lands on l^(K-1) at a node exp(D) goes
                    # on from; a second exact pair there could cancel it.
                    if (e, k) in band:
                        return None
                    band.add((e, k))
    d = df * dg * table[2]
    return PolyObservable(
        spec.signature, {e: _reduced(K, e in lost, d, a) for e, a in acc.items()},
        K, f.tail_lost or g.tail_lost)


def star_multiply(spec: StarProductSpec, f: PolyObservable,
                  g: PolyObservable) -> PolyObservable:
    """Exact evaluation of f * g.

    When every pairing entry is one exact term s l, m_alpha * m_beta is a
    fixed list of (output exponent, l^k, coefficient) entries, computed once
    per spec, K and alpha + beta.  Each term pair then costs one convolution
    c = c_f c_g and one shifted multiply-add per entry.  A coefficient has
    lost its tail when an operand coefficient has, when c dropped a term, or
    when an entry shifts c's top term to l^K or beyond.  That is the series
    kernel's flag as long as no node of exp(D) holds two exact term pairs
    whose top terms land on l^(K-1) there: the kernel flags the next step
    only if their sum keeps that term.  Two such pairs on one (E, k) entry
    send the product to the kernel, as do the other pairings.

    The kernel runs exp(P) on the tensor {exp_f + exp_g: c_f c_g} of width
    2w, with one contraction d_a (x) d_b per pairing entry L_ab; mu then
    folds each key e back to e[:w] + e[w:].
    """
    if f.signature != spec.signature or g.signature != spec.signature:
        raise SignatureMismatch("operands must live on the spec's signature")
    K = _common_order(spec, f, g)
    if f.order != K:
        f = f.reduce_order(K)
    if g.order != K:
        g = g.reduce_order(K)
    product = _table_product(spec, f, g, K)
    if product is not None:
        return product
    w = spec.signature.width
    ops = spec._contractions if K == spec.order else [
        (alpha, e.reduce_order(K)) for alpha, e in spec._contractions]
    tensor = {e1 + e2: c1 * c2 for e1, c1 in f.terms.items()
              for e2, c2 in g.terms.items()}
    result = {}
    for e, c in _exp_terms(tensor, ops, K, prune=False)[0].items():
        _accumulate(result, tuple(map(add, e[:w], e[w:])), c, prune=False)
    return PolyObservable(spec.signature, result, K,
                          f.tail_lost or g.tail_lost)


def commutator(spec, f, g):
    """f * g - g * f; its first l-order is i l {f, g}."""
    return star_multiply(spec, f, g) - star_multiply(spec, g, f)


def apply_equiv(op: EquivOperatorSpec, f: PolyObservable) -> PolyObservable:
    """Apply exp(D) to a polynomial exactly."""
    if f.signature != op.signature:
        raise SignatureMismatch("operand must live on the operator's signature")
    K = _common_order(op, f)
    if f.order != K:
        f = f.reduce_order(K)
    ops = [(tuple((i, t) for i, t in enumerate(e) if t),
            c if c.order == K else c.reduce_order(K))
           for e, c in op.generator.items()]
    terms, lost = _exp_terms(f.terms, ops, K, prune=True)
    return PolyObservable(op.signature, terms, K, f.tail_lost or lost)


def transported_product(op: EquivOperatorSpec, spec: StarProductSpec,
                        f: PolyObservable, g: PolyObservable) -> PolyObservable:
    """The star product transported along the equivalence operator:
    op(op^-1 f * op^-1 g).

    With op = S this turns the symmetrized product into the normal-ordered
    one, with op = N into the standard-ordered one.
    """
    inv = op.inverse()
    return apply_equiv(op, star_multiply(spec, apply_equiv(inv, f),
                                         apply_equiv(inv, g)))


def star_exponential_beta(spec, h, beta_order):
    """Coefficients e_k of Exp(-beta H) = sum beta^k e_k.

    Defined by the recursion e_0 = 1, e_k = -(1/k) H * e_{k-1}, the unique
    formal solution of d/dbeta Exp = -H * Exp with Exp(0) = 1.
    """
    if h != involution(h):
        warnings.warn("star exponential of a non-Hermitian generator",
                      stacklevel=2)
    coeffs = [PolyObservable.one(spec.signature, _common_order(spec, h))]
    for k in range(1, beta_order + 1):
        nxt = star_multiply(spec, h, coeffs[-1]).scale_scalar(Fraction(-1, k))
        coeffs.append(nxt)
    return coeffs


# -- axiom checking ----------------------------------------------------------------


class AxiomReport:
    """Outcome of the star-product axiom battery for one spec.

    ``checks`` maps check names to (passed, witness) where a witness is a
    canonical-text description of a failing input tuple, or None.
    """

    NAMES = ("unit", "correspondence_c0", "correspondence_c1", "hermitian",
             "associativity")

    def __init__(self, spec_name, sample_degree, checks):
        self.spec_name = spec_name
        self.sample_degree = sample_degree
        self.checks = checks

    def all_passed(self):
        return all(ok for ok, _ in self.checks.values())

    def to_json(self):
        return {
            "schema_version": 1,
            "spec": self.spec_name,
            "sample_degree": self.sample_degree,
            "checks": {
                name: {"passed": ok, "witness": witness}
                for name, (ok, witness) in self.checks.items()
            },
            "all_passed": self.all_passed(),
        }

    def __repr__(self):
        status = "pass" if self.all_passed() else "FAIL"
        return f"<AxiomReport {self.spec_name} degree={self.sample_degree} {status}>"


def _monomial_product(spec, a, b):
    """m_a * m_b at the spec's K as (d, {(E, k): (re, im)}), no entry 0 and
    (re + i im) l^k / d the term at x^E: the table's row for a + b, or when
    there is none, star_multiply's terms.  Only flags differ; none is kept."""
    K = spec.order
    table = _product_table(spec, K)
    row = None if table is None else _row(table, a + b, K)
    if row is not None:
        return table[2], {(e, k): (re, im) for e, k, re, im in row if re or im}
    p = star_multiply(spec, *(PolyObservable.monomial(spec.signature, e, K)
                              for e in (a, b)))
    d, vs = _over_lcm(p.terms.values())
    return d, {(e, k // 2): (v[k], v[k + 1]) for e, v in zip(p.terms, vs)
               for k in range(0, len(v), 2) if v[k] or v[k + 1]}


def check_star_axioms(spec, sample_degree=3):
    """Exhaustive verification on all monomials up to sample_degree.

    Bilinearity makes monomial verification a complete proof at that degree:
    unit law, C_0(f,g) = fg, antisymmetric C_1 = i{f,g}, the Hermitian
    property, and associativity on all monomial triples.  Each check reports
    its first failing tuple in graded-lex order.  C_1 is read from the l^1
    coefficients, so K = 1 raises PrecisionExhausted, and is compared with
    the Poisson bracket, so a spec on the fock or wave chart, which has
    none, raises SignatureMismatch.  A negative degree raises ValueError.
    All three come before any product is computed.

    Each monomial product is read once (``_monomial_product``): the N^2 of
    the sample monomials, which the first four checks read, and m_e * m_c
    and m_a * m_e for each exponent e in their support above the degree.
    Every check compares their integer entries over one denominator D.
    Values mod l^K are bilinear, so (m_a m_b) m_c is sum_e T_ab[e] (m_e *
    m_c) and m_a (m_b m_c) is sum_e T_bc[e] (m_a * m_e), both over D^2.
    """
    from .exprio import observable_text

    sig, K, n = spec.signature, spec.order, spec.signature.n
    if sig.chart not in ("real", "holo"):
        raise SignatureMismatch("correspondence_c1 needs the Poisson bracket, "
                                f"which chart {sig.chart!r} does not have")
    if K < 2:
        raise PrecisionExhausted("correspondence_c1 needs K >= 2: the l^1 "
                                 "coefficient is not stored at K = 1")
    if sample_degree < 0:
        raise ValueError("sample_degree must be >= 0")
    exps = [e for d in range(sample_degree + 1)  # graded-lex
            for e in _exponents_of_degree(sig.width, d)]
    P = {(a, b): _monomial_product(spec, a, b) for a in exps for b in exps}
    for e in {e for _, p in P.values() for e, _ in p} - set(exps):
        for a in exps:
            P[e, a] = _monomial_product(spec, e, a)
            P[a, e] = _monomial_product(spec, a, e)
    D = lcm(*[d for d, _ in P.values()])
    T = {key: {ek: (re * (D // d), im * (D // d))
               for ek, (re, im) in p.items()} for key, (d, p) in P.items()}
    # conj(m_a) is m_bar(a): the exponent halves swap on the holo chart.
    real = sig.chart == "real"
    bar = (lambda e: e) if real else (lambda e: e[n:] + e[:n])

    def at(p, j):
        return {e: x for (e, k), x in p.items() if k == j}

    def c1_fails(a, b):
        """T_ab - T_ba at l^1 is not i{m_a, m_b}: i c on the real chart and
        2c on the holo one, c x^(a+b-e_r-e_(n+r)) for each r."""
        diff = at(T[a, b], 1)
        for e, (re, im) in at(T[b, a], 1).items():
            xr, xi = diff.get(e, (0, 0))
            diff[e] = (xr - re, xi - im)
        ab, bracket = tuple(map(add, a, b)), {}
        for r in range(n):
            c = (a[r] * b[n + r] - a[n + r] * b[r]) * D
            if c:
                e = tuple(x - (j % n == r) for j, x in enumerate(ab))
                bracket[e] = (0, c) if real else (2 * c, 0)
        return {e: x for e, x in diff.items() if x != (0, 0)} != bracket

    def expand(outer, row):
        """sum_e outer[e] * row(e) as {(E, k): nonzero value over D^2}."""
        acc = {}
        for (e, k1), (xr, xi) in outer.items():
            for (d, k2), (yr, yi) in row(e).items():
                if k1 + k2 < K:
                    ar, ai = acc.get((d, k1 + k2), (0, 0))
                    acc[d, k1 + k2] = (ar + xr * yr - xi * yi,
                                       ai + xr * yi + xi * yr)
        return {key: x for key, x in acc.items() if x != (0, 0)}

    def first_failure(fails, arity=2):
        for idx in iproduct(exps, repeat=arity):
            if fails(*idx):
                text = ", ".join(observable_text(
                    PolyObservable.monomial(sig, e, K)) for e in idx)
                return (False, text if arity == 1 else f"({text})")
        return (True, None)

    z = exps[0]  # the exponent of 1
    return AxiomReport(spec.name, sample_degree, {
        "unit": first_failure(
            lambda a: not T[z, a] == T[a, z] == {(a, 0): (D, 0)}, 1),
        "correspondence_c0": first_failure(
            lambda a, b: at(T[a, b], 0) != {tuple(map(add, a, b)): (D, 0)}),
        "correspondence_c1": first_failure(c1_fails),
        "hermitian": first_failure(
            lambda a, b: {(bar(e), k): (re, -im)
                          for (e, k), (re, im) in T[a, b].items()}
            != T[bar(b), bar(a)]),
        "associativity": first_failure(
            lambda a, b, c: expand(T[a, b], lambda e: T[e, c])
            != expand(T[b, c], lambda e: T[a, e]), 3),
    })
