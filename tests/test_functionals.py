from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fdq.errors import InvalidWeights, PositivityRefuted, TruncationMismatch
from fdq.exprio import observable_text, parse, parse_series, series_text
from fdq.functionals import (PositivityCertificate, PositivityReport,
                             cauchy_schwarz_check, deform_delta, delta,
                             evaluate, positivity_scan, two_term_scan,
                             verify_certificate, wick_value_oracle)
from fdq.observables import (PhaseSpaceSignature, PolyObservable,
                             eval_at_point, involution, monomials_up_to,
                             to_holomorphic)
from fdq.series import FormalSeries, GaussianRational, Sign
from fdq.star import StarProductSpec, star_multiply, std, weyl, wick

K = 6
SIG = PhaseSpaceSignature(1, "real")
W = weyl(1, K)
WK = wick(1, K)
D0 = delta(SIG)
DD = deform_delta(SIG, order=K)


def obs(text, n=1):
    return parse(text, n, K)


H = obs("1/2*(p1^2 + q1^2)")


# -- evaluate -----------------------------------------------------------------------


def test_delta_on_oscillator_square():
    value = evaluate(D0, star_multiply(W, involution(H), H))
    assert value == FormalSeries.lam(2, K).scalar_mul(Fraction(-1, 4))
    assert value.sign() is Sign.NEGATIVE


def test_delta_normalization():
    assert evaluate(D0, obs("1")) == FormalSeries.one(K)
    assert evaluate(DD, obs("1")) == FormalSeries.one(K)


def test_deformed_delta_on_oscillator_square():
    value = evaluate(DD, star_multiply(W, involution(H), H))
    assert value == FormalSeries.lam(2, K).scalar_mul(Fraction(1, 4))
    assert value.sign() is Sign.POSITIVE


def test_evaluate_is_linear():
    f, g = obs("q1^2*p1"), obs("p1^3 + i*q1")
    lam = FormalSeries.lam(1, K)
    for w in (D0, DD):
        assert evaluate(w, f + g) == evaluate(w, f) + evaluate(w, g)
        assert evaluate(w, f.scale(lam)) == evaluate(w, f) * lam


# -- deform_delta -------------------------------------------------------------------------


def test_deform_delta_on_zzbar():
    zzb = obs("q1^2 + p1^2")
    assert evaluate(DD, zzb) == FormalSeries.lam(1, K)


def test_deform_delta_classical_limit_is_evaluation():
    for text in ("q1^2*p1", "q1 + p1^2", "1 + l*q1"):
        f = obs(text)
        assert evaluate(DD, f).classical_limit() == \
            eval_at_point(f, (0, 0)).classical_limit()


# -- positivity_scan ------------------------------------------------------------------------


def test_delta_weyl_scan_finds_negative_witness():
    report = positivity_scan(D0, W, 2)
    assert not report.positive_on_samples()
    # The oscillator-type combination q + i p is among the witnesses.
    assert any("q1" in text and "p1" in text
               for text, _ in report.negative_witnesses)


def test_delta_wick_scan_positive_and_matches_formula():
    report = positivity_scan(D0, WK, 3)
    assert report.positive_on_samples()
    for f in monomials_up_to(SIG, 3, K):
        value = evaluate(D0, star_multiply(WK, involution(f), f))
        assert value == wick_value_oracle(to_holomorphic(f), K)


def test_wick_value_oracle_truncates_to_a_lower_order():
    f = parse("zb1^2 + z1", 1, 4, "holo")
    assert wick_value_oracle(f) == parse_series("8*l^2", 4)
    assert wick_value_oracle(f, 3) == wick_value_oracle(f.reduce_order(3))
    assert wick_value_oracle(f, 3).order == 3
    with pytest.raises(TruncationMismatch) as exc:
        wick_value_oracle(f, 5)
    assert str(exc.value) == "cannot extend order 4 to 5"


def test_deformed_delta_weyl_scan_positive():
    report = positivity_scan(DD, W, 2)
    assert report.positive_on_samples()


def test_scan_report_serializes():
    payload = positivity_scan(D0, WK, 1).to_json()
    assert payload["verdict"] == "positive on samples"
    assert payload["samples"]


def test_positive_functional_is_hermitian_on_samples():
    # omega(conj(f)) = conj(omega(f)) for functionals that pass the scan
    for w, spec in ((D0, WK), (DD, W)):
        for f in monomials_up_to(SIG, 3, K):
            fi = f.scale_scalar(GaussianRational(Fraction(1, 2),
                                                 Fraction(1, 3)))
            assert evaluate(w, involution(fi)) == evaluate(w, fi).conjugate()


def reference_positivity_scan(w, spec, max_degree):
    """Sample by sample: one star product omega(conj(f) * f) per sample f."""
    units = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
             GaussianRational(0, -1))
    monos = monomials_up_to(spec.signature, max_degree, spec.order)
    samples = list(monos)
    for a in range(len(monos)):
        for b in range(a + 1, len(monos)):
            for u in units:
                samples.append(monos[a] + monos[b].scale_scalar(u))
    rows = []
    for f in samples:
        value = evaluate(w, star_multiply(spec, involution(f), f))
        if all(c.is_real() for c in value.coeffs):
            verdict = value.sign()
        else:
            verdict = Sign.NEGATIVE
        rows.append((observable_text(f), value, verdict))
    return PositivityReport(spec.name, repr(w), max_degree, rows)


@st.composite
def scan_cases(draw):
    """A star product (weyl, wick on either chart, std or a random custom
    pairing), a delta, a delta at a point or a deformed delta, and a degree."""
    n = draw(st.sampled_from([1, 2]))
    k = draw(st.sampled_from([2, 3, 4]))
    degree = draw(st.integers(1, 3 if n == 1 else 2))
    small = st.integers(-2, 2)

    def gaussian():
        return GaussianRational(Fraction(draw(small), draw(st.integers(1, 3))),
                                draw(small))

    kind = draw(st.sampled_from(["weyl", "wick", "wick-holo", "std",
                                 "custom"]))
    if kind == "weyl":
        spec = weyl(n, k)
    elif kind == "wick":
        spec = wick(n, k)
    elif kind == "wick-holo":
        spec = wick(n, k, chart="holo")
    elif kind == "std":
        spec = std(n, k)
    else:
        sig = PhaseSpaceSignature(n, draw(st.sampled_from(["real", "holo"])))
        spec = StarProductSpec(
            sig, [[FormalSeries([0] + [gaussian() for _ in range(k - 1)], k)
                   for _ in range(sig.width)] for _ in range(sig.width)], k)
    sig = spec.signature
    functional = draw(st.sampled_from(
        ["delta", "point", "deformed"] if sig.chart == "real"
        else ["delta", "point"]))
    if functional == "delta":
        w = delta(sig)
    elif functional == "point":
        w = delta(sig, [gaussian() for _ in range(sig.width)])
    else:
        w = deform_delta(sig, order=k)
    return w, spec, degree


CUSTOM_HOLO = StarProductSpec(
    PhaseSpaceSignature(1, "holo"),
    [[FormalSeries.lam(1, 3).scalar_mul(GaussianRational(r - c, r + c))
      for c in range(2)] for r in range(2)], 3)


@given(scan_cases())
@example((delta(SIG), weyl(1, 4), 2))  # has witnesses
@example((delta(SIG), wick(1, 4), 3))  # has none
@example((delta(PhaseSpaceSignature(2, "holo"),
                (1, GaussianRational(0, 1), -1, 2)),
          wick(2, 3, chart="holo"), 2))
@example((deform_delta(PhaseSpaceSignature(2, "real"), order=3), std(2, 3), 2))
@example((delta(CUSTOM_HOLO.signature), CUSTOM_HOLO, 3))
def test_gram_scan_matches_sample_products(case):
    w, spec, degree = case
    want = reference_positivity_scan(w, spec, degree)
    got = positivity_scan(w, spec, degree)
    assert [(text, series_text(v), verdict) for text, v, verdict in got.rows] \
        == [(text, series_text(v), verdict) for text, v, verdict in want.rows]
    assert got.to_json() == want.to_json()


def reference_two_term_values(gram):
    """Each sample value term by term, G_ss + u G_st + conj(u) G_ts + G_tt,
    with the flags that sum carries."""
    units = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
             GaussianRational(0, -1))
    values = [gram[t][t] for t in range(len(gram))]
    for s in range(len(gram)):
        for t in range(s + 1, len(gram)):
            for u in units:
                values.append(gram[s][s] + gram[s][t].scalar_mul(u)
                              + gram[t][s].scalar_mul(u.conjugate())
                              + gram[t][t])
    return values


@st.composite
def lossy_grams(draw):
    """Square arrays of series (d <= 4) mixing exact zeros, zeros with a lost
    tail and nonzeros with or without one."""
    k = draw(st.sampled_from([1, 2, 3]))
    d = draw(st.integers(1, 4))

    def entry():
        lost = draw(st.booleans())
        if draw(st.integers(0, 2)) == 0:
            return FormalSeries((), k, tail_lost=lost)
        cs = [GaussianRational(draw(st.integers(-2, 2)),
                               draw(st.integers(-1, 1))) for _ in range(k)]
        return FormalSeries(cs, k, tail_lost=lost)

    return [[entry() for _ in range(d)] for _ in range(d)]


@given(lossy_grams())
def test_two_term_scan_values_and_flags(gram):
    rows = two_term_scan(gram, str, lambda s, t, u: (s, t, u))
    want = reference_two_term_values(gram)
    assert [v for _, v, _ in rows] == want
    assert [v.tail_lost for _, v, _ in rows] == [v.tail_lost for v in want]


# -- cauchy schwarz ------------------------------------------------------------------------------


def test_cs_one_zbar():
    one, zb = obs("1"), obs("q1 - i*p1")
    assert cauchy_schwarz_check(D0, WK, one, zb) is Sign.POSITIVE


def test_cs_equal_arguments():
    a = obs("q1 - i*p1")
    assert cauchy_schwarz_check(D0, WK, a, a) is Sign.ZERO_UP_TO_K


def test_cs_z_zbar():
    z, zb = obs("q1 + i*p1"), obs("q1 - i*p1")
    assert cauchy_schwarz_check(D0, WK, z, zb) is Sign.ZERO_UP_TO_K


def test_cs_never_negative_for_positive_functional():
    monos = monomials_up_to(SIG, 2, K)
    for a in monos:
        for b in monos:
            assert cauchy_schwarz_check(DD, W, a, b) in (
                Sign.POSITIVE, Sign.ZERO_UP_TO_K)


def test_cs_refutes_hermiticity_violation():
    # delta_0 with the symmetrized product is not positive; the pair
    # (1, q) already breaks omega(a* x b) = conj(omega(b* x a))? It does
    # not, so use an explicitly complex-shifted evaluation point instead.
    w = delta(SIG, (GaussianRational(0, 1), 0))
    with pytest.raises(PositivityRefuted):
        cauchy_schwarz_check(w, W, obs("1"), obs("q1"))


# -- certificates ----------------------------------------------------------------------------------


def test_certificate_unit():
    cert = PositivityCertificate(obs("1"), [(Fraction(1), obs("1"))])
    assert verify_certificate(cert, WK)


def test_certificate_wick_zzbar():
    zb = obs("q1 - i*p1")
    target = star_multiply(WK, involution(zb), zb)
    two_l = FormalSeries.lam(1, K).scalar_mul(2)
    assert target == obs("q1^2 + p1^2") + PolyObservable.constant(SIG, two_l)
    cert = PositivityCertificate(target, [(Fraction(1), zb)])
    assert verify_certificate(cert, WK)


def test_certificate_rejects_wrong_target():
    cert = PositivityCertificate(-obs("1"), [(Fraction(1), obs("1"))])
    assert not verify_certificate(cert, WK)


def test_certificate_rejects_bad_weights():
    cert = PositivityCertificate(obs("1"), [(Fraction(-1), obs("1"))])
    with pytest.raises(InvalidWeights):
        verify_certificate(cert, WK)


def test_certificate_soundness_under_scanned_functionals():
    # Accepted certificates evaluate nonnegatively under functionals that
    # passed the positivity scan.
    zb = obs("q1 - i*p1")
    summands = [(Fraction(1, 2), zb), (Fraction(2), obs("q1"))]
    target = sum(
        (star_multiply(WK, involution(b), b).scale_scalar(Fraction(beta))
         for beta, b in summands),
        PolyObservable.zero(SIG, K))
    cert = PositivityCertificate(target, summands)
    assert verify_certificate(cert, WK)
    assert evaluate(D0, target).sign() in (Sign.POSITIVE, Sign.ZERO_UP_TO_K)
