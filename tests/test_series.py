from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from fdq.errors import BadLeadingTerm, NotReal, NotUnit, TruncationMismatch
from fdq.series import FormalSeries, GaussianRational, Sign


def series(*coeffs, K=None):
    return FormalSeries([GaussianRational(Fraction(c)) if not
                         isinstance(c, GaussianRational) else c
                         for c in coeffs], K or max(len(coeffs), 1))


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)


def series_strategy(K=5, real=False):
    coeff = st.builds(GaussianRational, rationals) if real else gaussians
    return st.builds(lambda cs: FormalSeries(cs, K),
                     st.lists(coeff, min_size=K, max_size=K))


# -- arith -------------------------------------------------------------------------


def test_mul_difference_of_squares():
    one_plus = series(1, 1, 0, K=3)
    one_minus = series(1, -1, 0, K=3)
    assert one_plus * one_minus == series(1, 0, -1, K=3)


def test_mul_truncation_absorbs_high_powers():
    lam2 = FormalSeries.lam(2, 3)
    prod = lam2 * lam2
    assert prod.is_zero()
    assert prod.tail_lost  # the true l^4 content was dropped
    with pytest.raises(TruncationMismatch):
        FormalSeries.one(3) * FormalSeries.one(4)


def test_add_cancellation():
    a = series(Fraction(1, 2), 1, K=3)
    b = series(Fraction(1, 2), -1, K=3)
    assert a + b == FormalSeries.one(3)


@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


# -- sign ---------------------------------------------------------------------------


def test_sign_examples():
    assert series(0, 0, Fraction(-1, 4), K=4).sign() is Sign.NEGATIVE
    assert series(0, 1, -1000, K=4).sign() is Sign.POSITIVE
    assert FormalSeries.zero(4).sign() is Sign.ZERO_UP_TO_K


def test_sign_rejects_imaginary():
    with pytest.raises(NotReal):
        series(GaussianRational(0, 1), K=2).sign()


@given(series_strategy(real=True), series_strategy(real=True))
def test_order_axioms(a, b):
    sa, sb = a.sign(), b.sign()
    prod = (a * b).sign()
    if Sign.ZERO_UP_TO_K in (sa, sb):
        assert prod is Sign.ZERO_UP_TO_K
    elif sa == sb:
        assert prod is Sign.POSITIVE
        assert (a + b).sign() is sa
    else:
        assert prod is Sign.NEGATIVE


@given(series_strategy())
def test_conjugate_square_is_nonnegative(z):
    assert (z * z.conjugate()).sign() in (Sign.POSITIVE, Sign.ZERO_UP_TO_K)


# -- invert --------------------------------------------------------------------------


def test_invert_geometric_series():
    assert series(1, 1, 0, 0).invert() == series(1, -1, 1, -1)


def test_invert_constant():
    assert series(2, K=4).invert() == series(Fraction(1, 2), K=4)


def test_invert_requires_unit():
    with pytest.raises(NotUnit):
        FormalSeries.lam(1, 4).invert()


@given(series_strategy())
def test_invert_roundtrip(a):
    unit = FormalSeries((GaussianRational(1),) + a.coeffs[1:], a.order)
    assert unit * unit.invert() == FormalSeries.one(a.order)


# -- sqrt ----------------------------------------------------------------------------


def test_sqrt_binomial_coefficients():
    # Independent oracle: the k-th coefficient of (1+4l)^(-1/2) is
    # binom(-1/2, k) 4^k, accumulated by the defining recurrence.
    got = series(1, 4, 0, 0).sqrt_binomial(Fraction(-1, 2))
    binom = Fraction(1)
    expected = []
    for k in range(4):
        if k:
            binom = binom * (Fraction(-1, 2) - (k - 1)) / k
        expected.append(binom * 4 ** k)
    assert got == series(*expected)
    assert expected == [1, -2, 6, -20]
    # and squaring the root reproduces the input
    assert (got * got) * series(1, 4, 0, 0) == FormalSeries.one(4)


def test_sqrt_of_one():
    for e in (Fraction(1, 2), Fraction(-1, 2)):
        assert FormalSeries.one(4).sqrt_binomial(e) == FormalSeries.one(4)


def test_sqrt_of_perfect_square():
    sq = series(1, 1, 0, 0) * series(1, 1, 0, 0)
    assert sq.sqrt_binomial(Fraction(-1, 2)) == series(1, -1, 1, -1)


def test_sqrt_requires_unit_leading_one():
    with pytest.raises(BadLeadingTerm):
        series(2, 1).sqrt_binomial(Fraction(1, 2))


@given(series_strategy())
def test_sqrt_roundtrip(a):
    unit = FormalSeries((GaussianRational(1),) + a.coeffs[1:], a.order)
    root = unit.sqrt_binomial(Fraction(1, 2))
    assert root * root == unit


# -- classical limit -----------------------------------------------------------------


def test_classical_limit():
    assert series(3, 1).classical_limit() == GaussianRational(3)
    assert FormalSeries.lam(2, 4).scalar_mul(
        Fraction(1, 2)).classical_limit() == GaussianRational(0)
    assert series(0, 0, Fraction(-1, 4), K=4).classical_limit() == \
        GaussianRational(0)


# -- normalization and metadata ---------------------------------------------------------


def test_rationals_are_normalized():
    c = GaussianRational(Fraction(2, 4), Fraction(-3, -9))
    assert c.re == Fraction(1, 2) and c.re.denominator == 2
    assert c.im == Fraction(1, 3)


def test_conjugation_involutive():
    z = GaussianRational(Fraction(1, 3), Fraction(-2, 5))
    assert z.conjugate().conjugate() == z
    sq = z * z.conjugate()
    assert sq.im == 0 and sq.re >= 0


def test_tail_lost_is_not_part_of_equality():
    clean = FormalSeries.zero(3)
    lossy = FormalSeries.lam(2, 3) * FormalSeries.lam(2, 3)
    assert clean == lossy
    assert clean.is_exact_zero() and not lossy.is_exact_zero()


# -- the GaussianRational-list reference ------------------------------------------
#
# Each reference takes series, reads their coefficients at the boundary
# (``coeffs``) and returns (coefficient tuple, tail_lost) computed one
# Gaussian rational at a time, never through the integer layout.

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def reference_add(a, b):
    """Coefficient by coefficient, flags or-ed: no operand is special."""
    return (tuple(x + y for x, y in zip(a.coeffs, b.coeffs)),
            a.tail_lost or b.tail_lost)


def reference_sub(a, b):
    return (tuple(x - y for x, y in zip(a.coeffs, b.coeffs)),
            a.tail_lost or b.tail_lost)


def reference_neg(a):
    return tuple(-x for x in a.coeffs), a.tail_lost


def reference_mul(a, b):
    """The full K x K convolution; a nonzero product term beyond l^K marks
    the tail lost.  An exact-zero factor gives an exact zero."""
    if a.is_exact_zero() or b.is_exact_zero():
        return (ZERO,) * a.order, False
    return _list_mul(a.coeffs, b.coeffs, a.tail_lost or b.tail_lost)


def _list_mul(xs, ys, lost):
    K = len(xs)
    out = [ZERO] * K
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if i + j < K:
                out[i + j] = out[i + j] + x * y
            elif x * y:
                lost = True
    return tuple(out), lost


def reference_scalar_mul(a, c):
    return tuple(c * x for x in a.coeffs), a.tail_lost


def reference_conjugate(a):
    return tuple(x.conjugate() for x in a.coeffs), a.tail_lost


def reference_shift(a, power):
    """Coefficient k moves to k + power; one that leaves l^0 .. l^(K-1)
    and is nonzero marks the tail lost, whatever the power."""
    K = a.order
    out, lost = [ZERO] * K, a.tail_lost
    for k, x in enumerate(a.coeffs):
        if k + power < K:
            out[k + power] = x
        elif x:
            lost = True
    return tuple(out), lost


def reference_reduce_order(a, order):
    return a.coeffs[:order], a.tail_lost or any(a.coeffs[order:])


def reference_invert(a):
    cs, K = a.coeffs, a.order
    if not cs[0]:
        raise NotUnit("series with vanishing lambda^0 coefficient")
    inv0 = cs[0].inverse()
    out = [inv0] + [ZERO] * (K - 1)
    for k in range(1, K):
        acc = ZERO
        for j in range(1, k + 1):
            acc = acc + cs[j] * out[k - j]
        out[k] = -(inv0 * acc)
    return tuple(out), a.tail_lost or any(cs[1:])


def reference_sqrt_binomial(a, exponent):
    """sum_k binom(exponent, k) u^k with u = a - 1, truncated at K."""
    cs, K = a.coeffs, a.order
    if cs[0] != ONE:
        raise BadLeadingTerm("binomial root needs lambda^0 coefficient 1")
    u = (ZERO,) + cs[1:]
    out = power = (ONE,) + (ZERO,) * (K - 1)
    binom = Fraction(1)
    for k in range(1, K):
        binom = binom * (exponent - (k - 1)) / k
        power, _ = _list_mul(power, u, False)
        out = tuple(x + binom * y for x, y in zip(out, power))
    return tuple(out), a.tail_lost or any(cs[1:])


def reference_valuation(cs):
    return next((r for r, c in enumerate(cs) if c), None)


def reference_sign(cs):
    if any(c.im for c in cs):
        return NotReal
    r = reference_valuation(cs)
    if r is None:
        return Sign.ZERO_UP_TO_K
    return Sign.POSITIVE if cs[r].re > 0 else Sign.NEGATIVE


def assert_matches(got, want):
    """``got`` has the reference's value, flag, valuation and sign, its
    layout is canonical, and it hashes like an equal series built from the
    reference coefficients."""
    cs, lost = want
    assert got.coeffs == cs and got.order == len(cs)
    assert got.tail_lost == lost
    assert got.is_zero() == (not any(cs))
    assert got.valuation() == reference_valuation(cs)
    sign = reference_sign(cs)
    if sign is NotReal:
        with pytest.raises(NotReal):
            got.sign()
    else:
        assert got.sign() is sign
    d, v = got._d, got._v
    assert d >= 1 and gcd(d, *v) == 1 and (v or d == 1)
    assert len(v) % 2 == 0 and len(v) <= 2 * got.order
    assert not v or v[-2] or v[-1]
    built = FormalSeries(cs, len(cs), not lost)
    assert got == built and hash(got) == hash(built)


@st.composite
def gaussian_coeffs(draw, K):
    """K Gaussian rationals: zero, real, pure imaginary or general entries
    over denominators up to 50 that are either drawn per component (mostly
    coprime) or shared by the whole series, so lcm scaling is exercised."""
    shared = draw(st.one_of(st.none(), st.integers(1, 50)))
    dens = st.integers(1, 50) if shared is None else st.just(shared)

    def part():
        return Fraction(draw(st.integers(-60, 60)), draw(dens))

    def coeff():
        kind = draw(st.sampled_from(["zero", "real", "imag", "both"]))
        return GaussianRational(part() if kind in ("real", "both") else 0,
                                part() if kind in ("imag", "both") else 0)

    return [coeff() for _ in range(K)]


@st.composite
def series_pairs(draw):
    """Two series of one order K in {1, .., 6}, each an exact zero, a zero
    with a lost tail, or Gaussian-rational coefficients with or without
    one."""
    K = draw(st.integers(1, 6))

    def one():
        kind = draw(st.sampled_from(["exact-zero", "lossy-zero", "plain",
                                     "lossy"]))
        if kind == "exact-zero":
            return FormalSeries.zero(K)
        if kind == "lossy-zero":
            return FormalSeries((), K, tail_lost=True)
        return FormalSeries(draw(gaussian_coeffs(K)), K,
                            tail_lost=kind == "lossy")

    return one(), one()


MIXED = (FormalSeries([GaussianRational(Fraction(1, 6), Fraction(-5, 49)),
                       GaussianRational(0, Fraction(7, 10)),
                       GaussianRational(Fraction(-3, 35))], 4),
         FormalSeries([GaussianRational(6, Fraction(49, 5)),
                       GaussianRational(Fraction(1, 50)), 0,
                       GaussianRational(0, Fraction(-1, 47))], 4, True))


@settings(max_examples=400)
@given(series_pairs())
@example(MIXED)
def test_add_sub_mul_match_full_loops(pair):
    a, b = pair
    for op, ref in ((lambda x, y: x + y, reference_add),
                    (lambda x, y: x - y, reference_sub),
                    (lambda x, y: x * y, reference_mul)):
        for x, y in ((a, b), (b, a)):
            assert_matches(op(x, y), ref(x, y))
    # The scaled product of the exp(D) kernel: a product, then a scalar.
    cs, lost = reference_mul(a, b)
    assert_matches(a.scaled_product(b, 6, 5),
                   (tuple(Fraction(6, 5) * c for c in cs), lost))


scalars = st.one_of(st.integers(-6, 6), rationals, gaussians)


@settings(max_examples=400)
@given(series_pairs(), scalars, st.integers(0, 13), st.integers(1, 6))
@example(MIXED, GaussianRational(Fraction(1, 6), Fraction(-5, 7)), 5, 2)
@example((FormalSeries((1,), 1, True),) * 2, 1, 0, 1)
def test_unary_operations_match_reference(pair, c, power, order):
    for a in pair:
        K = a.order
        assert_matches(a, (a.coeffs, a.tail_lost))
        assert_matches(-a, reference_neg(a))
        assert_matches(a.scalar_mul(c), reference_scalar_mul(a, c))
        assert_matches(a.conjugate(), reference_conjugate(a))
        for p in sorted({0, power % K, K, power, 2 * K + 1}):
            assert_matches(a.shift(p), reference_shift(a, p))
        m = min(order, K)
        assert_matches(a.reduce_order(m), reference_reduce_order(a, m))
        unit = FormalSeries((1,) + a.coeffs[1:], K, a.tail_lost)
        for s in (a, unit):
            try:
                want = reference_invert(s)
            except NotUnit:
                with pytest.raises(NotUnit):
                    s.invert()
            else:
                assert_matches(s.invert(), want)
            for e in (Fraction(1, 2), Fraction(-1, 2)):
                try:
                    want = reference_sqrt_binomial(s, e)
                except BadLeadingTerm:
                    with pytest.raises(BadLeadingTerm):
                        s.sqrt_binomial(e)
                else:
                    assert_matches(s.sqrt_binomial(e), want)


def test_shift_past_the_order_drops_every_term():
    for K in range(1, 7):
        top = FormalSeries.lam(K - 1, K).scalar_mul(GaussianRational(2, -1))
        dense = FormalSeries(range(1, K + 1), K)
        for a in (top, dense, FormalSeries.zero(K),
                  FormalSeries((), K, True)):
            for p in range(2 * K + 3):
                assert_matches(a.shift(p), reference_shift(a, p))


@given(series_pairs(), st.integers(1, 5))
def test_negative_shift_divides_by_a_power_of_l(pair, power):
    """shift(-v) of a series of valuation >= v drops v zero coefficients and
    marks the unknown top ones lost, as dividing a pivot row does."""
    for a in pair:
        K = a.order
        v = min(power, K)
        a = a.shift(v)
        cs = a.coeffs
        assert_matches(a.shift(-v), (cs[v:] + (ZERO,) * v, True))


def assert_mul_matches_reference(a, b):
    for x, y in ((a, b), (b, a)):
        assert_matches(x * y, reference_mul(x, y))


def test_mul_out_of_range_terms_set_the_flag():
    half_i = GaussianRational(0, Fraction(1, 2))
    third = GaussianRational(Fraction(-1, 3), Fraction(2, 7))
    for K in range(2, 7):
        top = FormalSeries.lam(K - 1, K).scalar_mul(half_i)
        # c l^(K-1) * l: the only product term lands at l^K.
        prod = top * FormalSeries.lam(1, K)
        assert prod.is_zero() and prod.tail_lost
        assert_mul_matches_reference(top, FormalSeries.lam(1, K))
        # Only out-of-range pairs are nonzero: the product is a lossy zero.
        for i in range(K):
            for j in range(K - i, K):
                a = FormalSeries.lam(i, K).scalar_mul(third)
                b = FormalSeries.lam(j, K).scalar_mul(half_i)
                assert (a * b).is_zero() and (a * b).tail_lost
                assert_mul_matches_reference(a, b)
        # An in-range product of the same terms keeps the flag clear.
        low = FormalSeries.lam(0, K).scalar_mul(third)
        assert not (low * top).tail_lost and (low * top).coeffs[K - 1] == \
            third * half_i
        assert_mul_matches_reference(low, top)



# -- truncation orders ---------------------------------------------------------------


def order_constructors():
    from fdq.exprio import parse, parse_series
    from fdq.matrices import MatrixStarAlgebra, SeriesMatrix
    from fdq.observables import PhaseSpaceSignature, PolyObservable
    from fdq.star import identity_op, op_n, op_s, std, weyl, wick

    sig = PhaseSpaceSignature(1)
    return {
        "FormalSeries.zero": FormalSeries.zero,
        "FormalSeries.one": FormalSeries.one,
        "FormalSeries.lam": lambda K: FormalSeries.lam(1, K),
        "FormalSeries.from_scalar": lambda K: FormalSeries.from_scalar(2, K),
        "parse": lambda K: parse("q1 + l", 1, K),
        "parse_series": lambda K: parse_series("1 + l", K),
        "SeriesMatrix.zero": lambda K: SeriesMatrix.zero(2, 2, K),
        "SeriesMatrix.identity": lambda K: SeriesMatrix.identity(2, K),
        "SeriesMatrix.unit": lambda K: SeriesMatrix.unit(2, 0, 1, K),
        "MatrixStarAlgebra": lambda K: MatrixStarAlgebra(2, K),
        "PolyObservable.zero": lambda K: PolyObservable.zero(sig, K),
        "PolyObservable.one": lambda K: PolyObservable.one(sig, K),
        "weyl": lambda K: weyl(1, K),
        "wick": lambda K: wick(1, K),
        "wick-holo": lambda K: wick(1, K, chart="holo"),
        "std": lambda K: std(1, K),
        "op_s": lambda K: op_s(1, K),
        "op_n": lambda K: op_n(1, K),
        "identity_op": lambda K: identity_op(1, K),
    }


@pytest.mark.parametrize("name", list(order_constructors()))
def test_order_zero_is_rejected_and_none_is_the_default(name):
    from fdq.series import DEFAULT_ORDER

    build = order_constructors()[name]
    with pytest.raises(ValueError, match="truncation order must be >= 1"):
        build(0)
    assert build(None).order == DEFAULT_ORDER
    assert build(2).order == 2
