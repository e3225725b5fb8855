from fractions import Fraction
from itertools import product
from math import comb, prod

from hypothesis import given, settings, strategies as st

from fdq.diffops import DiffOperator, formal_adjoint
from fdq.exprio import operator_text, parse
from fdq.observables import (PhaseSpaceSignature, PolyObservable, _partial,
                             involution)
from fdq.reps import schroedinger_rep, wickrep
from fdq.series import FormalSeries, GaussianRational

K = 4
WSIG = PhaseSpaceSignature(1, "wave")


def wave(text):
    return parse(text, 1, K, "wave")


def momentum():
    minus_il = FormalSeries.lam(1, K).scalar_mul(GaussianRational(0, -1))
    return DiffOperator(WSIG, {(1,): PolyObservable.constant(WSIG, minus_il)},
                        K)


def test_apply_derivative():
    d = DiffOperator.derivative_monomial(WSIG, (1,), K)
    assert d.apply(wave("q1^3")) == wave("3*q1^2")
    assert d.apply(wave("1")).is_zero()


def test_multiplication_operator():
    m = DiffOperator.multiplication(wave("q1"))
    assert m.apply(wave("q1^2")) == wave("q1^3")


def test_composition_leibniz():
    d = DiffOperator.derivative_monomial(WSIG, (1,), K)
    q = DiffOperator.multiplication(wave("q1"))
    # d o q = q d + 1
    dq = d.compose(q)
    want = q.compose(d) + DiffOperator.multiplication(wave("1"))
    assert dq == want
    # and they act identically
    for text in ("q1^2", "q1^3 + q1", "1"):
        assert dq.apply(wave(text)) == d.apply(q.apply(wave(text)))


def test_composition_associative():
    d2 = DiffOperator.derivative_monomial(WSIG, (2,), K)
    q = DiffOperator.multiplication(wave("q1^2"))
    p = momentum()
    lhs = d2.compose(q).compose(p)
    rhs = d2.compose(q.compose(p))
    assert lhs == rhs


def test_adjoint_of_momentum_is_itself():
    p = momentum()
    assert formal_adjoint(p) == p


def test_adjoint_of_multiplication():
    q = DiffOperator.multiplication(wave("q1"))
    assert formal_adjoint(q) == q
    iq = DiffOperator.multiplication(
        wave("q1").scale_scalar(GaussianRational(0, 1)))
    assert formal_adjoint(iq) == DiffOperator.multiplication(
        wave("q1").scale_scalar(GaussianRational(0, -1)))


def test_adjoint_of_plain_derivative():
    d = DiffOperator.derivative_monomial(WSIG, (1,), K)
    assert formal_adjoint(d) == -d


def test_adjoint_involutive_and_antimultiplicative():
    p = momentum()
    q2 = DiffOperator.multiplication(wave("q1^2"))
    mixed = p.compose(q2) + DiffOperator.derivative_monomial(
        WSIG, (2,), K, wave("q1"))
    assert formal_adjoint(formal_adjoint(mixed)) == mixed
    assert formal_adjoint(p.compose(q2)) == \
        formal_adjoint(q2).compose(formal_adjoint(p))


def test_operator_text():
    p = momentum()
    q = DiffOperator.multiplication(wave("q1"))
    assert operator_text(p + q) == "((-i)*l)*d/dq1 + q1"
    assert operator_text(DiffOperator.zero(WSIG, K)) == "0"


# -- normal form -------------------------------------------------------------


def test_coefficients_vanishing_up_to_K_are_dropped():
    # (-il)^5 d^5/dq1^5 and (2l)^3 yb1 d^3/dyb1^3 vanish at K = 2; their lost
    # tails flag the operator.
    op = schroedinger_rep("std", parse("p1^5 + q1", 1, 2))
    assert (5,) not in op.terms and op.tail_lost
    assert operator_text(op) == "q1"
    fock = wickrep(parse("z1^3*zb1", 1, 2, "holo"))
    assert not fock.terms and fock.tail_lost
    assert operator_text(fock) == "0"
    image = op.apply(parse("q1^5", 1, 2, "wave"))
    assert image == parse("q1^6", 1, 2, "wave") and image.tail_lost


def test_compose_walks_until_the_symbol_has_no_xi_left():
    # d^5 o q1^5 = sum_g C(5, g) (d^g q1^5) d^(5-g): the constant 5! is the
    # fifth contraction, which a walk bounded by K = 2 never reaches.
    d5 = DiffOperator.derivative_monomial(WSIG, (5,), 2)
    q5 = DiffOperator.multiplication(parse("q1^5", 1, 2, "wave"))
    assert operator_text(d5.compose(q5)).endswith(" + 120")


# -- the Leibniz references ---------------------------------------------------
# Composition and adjoint by the Leibniz rule, on raw term maps
# {alpha: PolyObservable}.  No DiffOperator is built, so a coefficient that
# vanishes up to l^K stays in the map as a lossy zero, as it used to.


def _raw(terms):
    """A coefficient stays while it has terms or a lost tail."""
    return {e: c for e, c in terms.items() if c.terms or c.tail_lost}


def _pairs(exp):
    return tuple((i, t) for i, t in enumerate(exp) if t)


def _sub_multi_indices(alpha):
    """All gamma <= alpha componentwise, the first index running fastest."""
    return (g[::-1] for g in product(*(range(a + 1) for a in alpha[::-1])))


def _ref_compose(a_terms, b_terms):
    """A o B: d^alpha (d(x) .) = sum_{gamma <= alpha} C(alpha, gamma)
    (d^gamma d)(x) d^(alpha - gamma)."""
    terms = {}
    for alpha, c in a_terms.items():
        for beta, d in b_terms.items():
            for gamma in _sub_multi_indices(alpha):
                dg = _partial(d, _pairs(gamma))
                if not dg.terms and not dg.tail_lost:
                    continue
                mult = prod(map(comb, alpha, gamma))
                exp = tuple(a - g + b for a, g, b in zip(alpha, gamma, beta))
                contrib = (c * dg).scale_scalar(mult)
                terms[exp] = terms[exp] + contrib if exp in terms else contrib
    return _raw(terms)


def _ref_adjoint(terms, sig, K):
    """sum c_alpha d^alpha -> sum (-1)^|alpha| d^alpha o conj(c_alpha), one
    term at a time."""
    out = {}
    zero = (0,) * sig.width
    for alpha, c in terms.items():
        part = _ref_compose({alpha: PolyObservable.one(sig, K)},
                            _raw({zero: involution(c)}))
        for e, p in part.items():
            p = p.scale_scalar((-1) ** sum(alpha))
            out[e] = out[e] + p if e in out else p
    return _raw(out)


# Few distinct scalars, zero most often, so that sums cancel and products
# truncate to lossy zeros.
_SCALARS = st.sampled_from([GaussianRational(0)] * 3 + [
    GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
    GaussianRational(Fraction(1, 2)), GaussianRational(2, -1)])


@st.composite
def _raw_operators(draw, sig, K):
    """A raw term map {alpha: PolyObservable}: lossy coefficients, flagged
    observables and coefficients that are lossy zeros."""
    alphas = draw(st.lists(st.tuples(*[st.integers(0, 3)] * sig.width),
                           max_size=3, unique=True))
    terms = {}
    for alpha in alphas:
        exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * sig.width),
                             max_size=3, unique=True))
        terms[alpha] = PolyObservable(
            sig, {e: FormalSeries([draw(_SCALARS) for _ in range(K)], K,
                                  draw(st.booleans())) for e in exps},
            K, draw(st.booleans()))
    return _raw(terms)


def _draw_signature(data):
    n = data.draw(st.sampled_from([1, 2]))
    K = data.draw(st.integers(1, 6))
    chart = data.draw(st.sampled_from(["wave", "fock"]))
    return PhaseSpaceSignature(n, chart), K


def _assert_covers(op, ref):
    """op has ref's nonzero values and every flag of ref: a coefficient flag
    on the same coefficient, an observable flag or a lossy-zero key on that
    alpha's observable, one of its coefficients or the operator."""
    values = {(a, e): c for a, p in op.terms.items()
              for e, c in p.terms.items()}
    assert values == {(a, e): c for a, p in ref.items()
                      for e, c in p.terms.items()}
    for a, p in ref.items():
        assert all(values[a, e].tail_lost
                   for e, c in p.terms.items() if c.tail_lost)
        if p.tail_lost:
            q = op.terms.get(a)
            assert op.tail_lost or q is not None and (
                q.tail_lost or any(c.tail_lost for c in q.terms.values()))


@settings(max_examples=300)
@given(st.data())
def test_compose_matches_leibniz_reference(data):
    sig, K = _draw_signature(data)
    a = data.draw(_raw_operators(sig, K))
    b = data.draw(_raw_operators(sig, K))
    op = DiffOperator(sig, a, K).compose(DiffOperator(sig, b, K))
    _assert_covers(op, _ref_compose(a, b))


@settings(max_examples=300)
@given(st.data())
def test_formal_adjoint_matches_leibniz_reference(data):
    sig, K = _draw_signature(data)
    a = data.draw(_raw_operators(sig, K))
    _assert_covers(formal_adjoint(DiffOperator(sig, a, K)),
                   _ref_adjoint(a, sig, K))
