from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fdq.errors import DimensionMismatch, SignatureMismatch
from fdq.exprio import parse
from fdq.observables import (PhaseSpaceSignature, PolyObservable,
                             eval_at_point, involution, monomials_up_to,
                             poisson_bracket, to_holomorphic, to_real)
from fdq.series import FormalSeries, GaussianRational

K = 4
SIG = PhaseSpaceSignature(1, "real")


def obs(text, n=1, chart=None):
    return parse(text, n, K, chart)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
gaussians = st.builds(GaussianRational, rationals, rationals)


def observables(n=1, chart="real", degree=3):
    sig = PhaseSpaceSignature(n, chart)
    exps = st.tuples(*[st.integers(0, degree // 2 + 1)
                       for _ in range(sig.width)])
    term = st.tuples(exps, gaussians)
    return st.builds(
        lambda terms: sum(
            (PolyObservable.monomial(sig, e, K,
                                     FormalSeries.from_scalar(c, K))
             for e, c in terms),
            PolyObservable.zero(sig, K)),
        st.lists(term, min_size=1, max_size=3))


# -- involution -----------------------------------------------------------------------


def test_involution_examples():
    iq = obs("i*q1")
    assert involution(iq) == obs("q1").scale_scalar(GaussianRational(0, -1))
    real_obs = obs("q1*p1 + l")
    assert involution(real_obs) == real_obs


@given(observables())
def test_involution_involutive(f):
    assert involution(involution(f)) == f


@given(observables(), observables())
def test_involution_antiautomorphism(f, g):
    assert involution(f * g) == involution(g) * involution(f)
    assert involution(f * g) == involution(f) * involution(g)


# -- poisson bracket ----------------------------------------------------------------------


def test_canonical_pair():
    assert poisson_bracket(obs("q1"), obs("p1")) == obs("1")


def test_antisymmetry_on_hamiltonian():
    h = obs("1/2*(p1^2 + q1^2)")
    assert poisson_bracket(h, h).is_zero()


def test_hand_expanded_bracket():
    # {q p, q} = dq(qp) dp(q) - dp(qp) dq(q) = p*0 - q*1 = -q
    assert poisson_bracket(obs("q1*p1"), obs("q1")) == -obs("q1")


@given(observables(), observables(), observables())
def test_leibniz_rule(f, g, h):
    assert poisson_bracket(f * g, h) == \
        f * poisson_bracket(g, h) + poisson_bracket(f, h) * g


@given(observables(degree=2), observables(degree=2), observables(degree=2))
def test_jacobi_identity(f, g, h):
    total = (poisson_bracket(f, poisson_bracket(g, h))
             + poisson_bracket(g, poisson_bracket(h, f))
             + poisson_bracket(h, poisson_bracket(f, g)))
    assert total.is_zero()


def test_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        poisson_bracket(obs("q1"), obs("q1", n=2))
    with pytest.raises(SignatureMismatch):
        poisson_bracket(obs("yb1"), obs("yb1"))


def test_holomorphic_canonical_pair():
    # z = q + ip, zb = q - ip: {z, zb} = -i{q, p} + i{p, q} = -2i.
    z, zb = obs("z1", chart="holo"), obs("zb1", chart="holo")
    assert poisson_bracket(z, zb) == obs("-2*i", chart="holo")
    assert poisson_bracket(zb, z) == obs("2*i", chart="holo")
    assert poisson_bracket(z, z).is_zero()


@given(observables(n=2, chart="holo", degree=2),
       observables(n=2, chart="holo", degree=2))
def test_holomorphic_bracket_is_the_real_bracket(f, g):
    assert poisson_bracket(f, g) == \
        to_holomorphic(poisson_bracket(to_real(f), to_real(g)))


# -- chart conversion ------------------------------------------------------------------------


def test_convert_coordinate():
    got = to_holomorphic(obs("q1"))
    want = obs("1/2*(z1 + zb1)", chart="holo")
    assert got == want


def test_convert_oscillator():
    h = obs("1/2*(p1^2 + q1^2)")
    assert to_holomorphic(h) == obs("1/2*z1*zb1", chart="holo")


@given(observables())
def test_convert_roundtrip(f):
    assert to_real(to_holomorphic(f)) == f


@given(observables(chart="holo"))
def test_convert_roundtrip_other_way(f):
    assert to_holomorphic(to_real(f)) == f


@given(observables(), observables())
def test_convert_is_algebra_morphism(f, g):
    assert to_holomorphic(f * g) == to_holomorphic(f) * to_holomorphic(g)
    assert to_holomorphic(f + g) == to_holomorphic(f) + to_holomorphic(g)


@given(observables())
def test_convert_intertwines_involution(f):
    assert to_holomorphic(involution(f)) == involution(to_holomorphic(f))


def test_convert_keeps_observable_level_lost_tail():
    # The flag sits on the observable, not on any coefficient.
    one = FormalSeries.one(K)
    f = PolyObservable(SIG, {(2, 0): one, (0, 1): one}, K, tail_lost=True)
    assert not any(c.tail_lost for c in f.terms.values())
    assert to_holomorphic(f).tail_lost
    g = PolyObservable(PhaseSpaceSignature(1, "holo"),
                       {(2, 0): one, (0, 1): one}, K, tail_lost=True)
    assert to_real(g).tail_lost
    assert not to_holomorphic(obs("q1^2 + p1")).tail_lost


# -- evaluation ---------------------------------------------------------------------------------


def test_eval_simple_product():
    assert eval_at_point(obs("q1*p1"), (2, 3)) == \
        FormalSeries.from_scalar(GaussianRational(6), K)


def test_eval_oscillator_square_minus_correction():
    h = obs("1/2*(p1^2 + q1^2)")
    lam2 = FormalSeries.lam(2, K).scalar_mul(Fraction(-1, 4))
    f = h * h + PolyObservable.constant(SIG, lam2)
    assert eval_at_point(f, (0, 0)) == lam2


def test_eval_constant_one():
    assert eval_at_point(obs("1"), (7, -2)) == FormalSeries.one(K)


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_at_point(obs("q1"), (1, 2, 3))


@given(observables(), observables())
def test_eval_is_multiplicative(f, g):
    point = (Fraction(1, 2), Fraction(-2, 3))
    assert eval_at_point(f * g, point) == \
        eval_at_point(f, point) * eval_at_point(g, point)


def _ref_eval_at_point(f, point):
    """The earlier coding: each monomial by repeated GaussianRational
    products, scaled into a running series sum."""
    point = [c if isinstance(c, GaussianRational) else GaussianRational(c)
             for c in point]
    total = FormalSeries.zero(f.order)
    for exp, c in f.terms.items():
        v = GaussianRational(1)
        for x, e in zip(point, exp):
            for _ in range(e):
                v = v * x
        total = total + c.scalar_mul(v)
    return total.lossy() if f.tail_lost else total


# Zero, integer, non-integer and non-real coordinates, as ints, Fractions
# and GaussianRationals.
_COORDS = st.one_of(st.just(0), st.integers(-3, 3), rationals, gaussians)


@st.composite
def _points_and_observables(draw):
    sig = PhaseSpaceSignature(draw(st.integers(1, 2)), draw(
        st.sampled_from(["real", "holo", "fock", "wave"])))
    K = draw(st.integers(1, 6))
    coeff = st.one_of(st.just(0), gaussians)
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * sig.width),
                         max_size=4, unique=True))
    terms = {e: FormalSeries(draw(st.lists(coeff, min_size=K, max_size=K)),
                             K, draw(st.booleans())) for e in exps}
    f = PolyObservable(sig, terms, K, draw(st.booleans()))
    return f, draw(st.lists(_COORDS, min_size=sig.width,
                            max_size=sig.width))


@settings(max_examples=400)
@given(_points_and_observables())
def test_eval_matches_reference(case):
    f, point = case
    got, want = eval_at_point(f, point), _ref_eval_at_point(f, point)
    assert (got.order, got._d, got._v, got.tail_lost) == \
        (want.order, want._d, want._v, want.tail_lost)


# -- monomial enumeration -------------------------------------------------------------------------


def test_monomials_up_to_counts():
    # C(d + w, w) exponent vectors of total degree <= d in w variables
    assert len(monomials_up_to(SIG, 3, K)) == 10
    assert len(monomials_up_to(PhaseSpaceSignature(2, "real"), 2, K)) == 15


def test_monomials_sorted_by_degree():
    degs = [m.total_degree() for m in monomials_up_to(SIG, 3, K)]
    assert degs == sorted(degs)


def test_term_maps_share_exponent_tuples():
    """Equal exponents of different observables are one tuple object, so a
    term map's keys cost a pointer each however many observables hold them."""
    sig = PhaseSpaceSignature(1, "real")
    f = PolyObservable.variable(sig, 0, 3) * PolyObservable.variable(sig, 1, 3)
    g = PolyObservable.monomial(sig, [1, 1], 3)
    (a,), (b,) = f.terms, g.terms
    assert a == b == (1, 1) and a is b


def reference_derivative(f, index, times):
    """``times`` passes of the first derivative, each scaling by the exponent."""
    terms = f.terms
    for _ in range(times):
        new = {}
        for exp, c in terms.items():
            k = exp[index]
            if k:
                e = list(exp)
                e[index] = k - 1
                new[tuple(e)] = c.scalar_mul(k)
        terms = new
    return PolyObservable(f.signature, terms, f.order, f.tail_lost)


@settings(max_examples=200)
@given(observables(n=2, degree=5), st.integers(0, 3), st.integers(0, 4),
       st.booleans())
def test_derivative_matches_repeated_first_derivatives(f, index, times, lost):
    if lost:
        f = PolyObservable(f.signature, {e: c.lossy()
                                         for e, c in f.terms.items()},
                           f.order, True)
    got, want = f.derivative(index, times), reference_derivative(f, index,
                                                                 times)
    assert got == want and got.tail_lost == want.tail_lost
    assert {e: c.tail_lost for e, c in got.terms.items()} == \
        {e: c.tail_lost for e, c in want.terms.items()}
    # Terms the derivative kills are skipped before any work: t first
    # derivatives give the same terms in the same order, values and flags.
    for _ in range(times):
        f = f.derivative(index)
    assert f.tail_lost == got.tail_lost
    assert [(e, c, c.tail_lost) for e, c in f.terms.items()] == \
        [(e, c, c.tail_lost) for e, c in got.terms.items()]
