from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdq.errors import InvalidWeights, PositivityRefuted, TruncationMismatch
from fdq.exprio import observable_text, parse, parse_series, series_text
from fdq import functionals
from fdq.functionals import (Functional, PositivityCertificate,
                             PositivityReport, _omega, cauchy_schwarz_check,
                             deform_delta, delta, evaluate, positivity_scan,
                             two_term_scan, verify_certificate,
                             wick_value_oracle)
from fdq.observables import (PhaseSpaceSignature, PolyObservable,
                             eval_at_point, involution, monomials_up_to,
                             to_holomorphic)
from fdq.series import FormalSeries, GaussianRational, Sign
from fdq.star import (EquivOperatorSpec, StarProductSpec, op_s, star_multiply,
                      std, weyl, wick)

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


# -- the omega(m_alpha * m_beta) tables --------------------------------------------------------


def reference_cauchy_schwarz_check(w, spec, a, b):
    """The check as four star products, each evaluated."""
    wa = evaluate(w, star_multiply(spec, involution(a), a))
    wb = evaluate(w, star_multiply(spec, involution(b), b))
    wab = evaluate(w, star_multiply(spec, involution(a), b))
    wba = evaluate(w, star_multiply(spec, involution(b), a))
    if wab != wba.conjugate():
        raise PositivityRefuted(
            "omega(a* x b) != conj(omega(b* x a)) on the given pair")
    return (wa * wb - wab * wab.conjugate()).sign()


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


def product_then_evaluate(w, spec, f, g):
    return evaluate(w, star_multiply(spec, f, g))


def gaussians(draw):
    small = st.integers(-2, 2)
    return GaussianRational(Fraction(draw(small), draw(st.integers(1, 3))),
                            draw(small))


@st.composite
def specs_and_functionals(draw):
    """weyl, wick on either chart, std or a custom pairing whose entries may
    have lost their tails, at K = 1..4; with a delta at the origin, a delta
    at a real or a complex point or, on the real chart, a deformed delta at
    the origin or a point, its order at, above or below K."""
    n = draw(st.sampled_from([1, 2]))
    k = draw(st.sampled_from([1, 2, 3, 3, 4, 4]))
    kind = draw(st.sampled_from(["weyl", "wick", "wick-holo", "std",
                                 "custom"]))
    if kind == "custom":
        sig = PhaseSpaceSignature(n, draw(st.sampled_from(["real", "holo"])))
        spec = StarProductSpec(sig, [[FormalSeries(
            [0] + [gaussians(draw) for _ in range(k - 1)], k,
            tail_lost=draw(st.integers(0, 3)) == 2)
            for _ in range(sig.width)] for _ in range(sig.width)], k)
    elif kind == "wick-holo":
        spec = wick(n, k, chart="holo")
    else:
        spec = {"weyl": weyl, "wick": wick, "std": std}[kind](n, k)
    sig = spec.signature
    where, point = draw(st.sampled_from(["origin", "real", "complex"])), None
    if where != "origin":
        point = [gaussians(draw) for _ in range(sig.width)]
        if where == "real":
            point = [x.re for x in point]
    if sig.chart == "real" and draw(st.booleans()):
        return spec, deform_delta(sig, point, draw(st.sampled_from(
            [k, k, k + 1, max(k - 1, 1)])))
    return spec, delta(sig, point)


@st.composite
def observables(draw, sig, k):
    """One to three terms of low degree (now and then none) whose
    coefficients, mostly at order k, may have lost their tails, as may the
    observable."""
    k = draw(st.sampled_from([k, k, k, k + 1, max(k - 1, 1)]))
    terms = {}
    for _ in range(0 if draw(st.integers(0, 15)) == 7
                   else draw(st.integers(1, 3))):
        exp = [0] * sig.width
        for _ in range(draw(st.integers(1 if terms else 0,
                                        3 if sig.n == 1 else 2))):
            exp[draw(st.integers(0, sig.width - 1))] += 1
        lead = GaussianRational(draw(st.sampled_from([1, -1, 2, -3])),
                                draw(st.integers(-1, 1)))
        terms[tuple(exp)] = FormalSeries(
            [lead] + [gaussians(draw) for _ in range(draw(st.integers(0, k)))],
            k, tail_lost=draw(st.integers(0, 3)) == 2)
    return PolyObservable(sig, terms, k, draw(st.integers(0, 7)) == 3)


@st.composite
def cs_cases(draw):
    """(w, spec, a, b); b is sometimes a multiple of a, and now and then a
    functional or an operand lives on another signature."""
    spec, w = draw(specs_and_functionals())
    sig = spec.signature
    other = PhaseSpaceSignature(3 - sig.n, sig.chart)
    if draw(st.integers(0, 15)) == 7:
        w = delta(other)
    a = draw(observables(other if draw(st.integers(0, 15)) == 7 else sig,
                         spec.order))
    if draw(st.integers(0, 7)) == 5:
        b = a.scale_scalar(gaussians(draw))
    else:
        b = draw(observables(other if draw(st.integers(0, 15)) == 7 else sig,
                             spec.order))
    return w, spec, a, b


def test_cauchy_schwarz_on_the_tables_matches_four_products():
    """Verdicts, refusals and every other error agree with the four-product
    check, and each table sum has the value and the error of product then
    evaluate; some draws refute positivity and some reach each sign."""
    seen = Counter()

    @settings(max_examples=300)
    @given(cs_cases())
    @example((D0, weyl(1, 4), parse("1 + q1", 1, 4), parse("p1", 1, 4)))
    @example((deform_delta(SIG, (1, 2), 2), weyl(1, 4),
              parse("1 + q1*p1 + l", 1, 6), parse("p1^2 - i*q1", 1, 5)))
    def check(case):
        w, spec, a, b = case
        want = outcome(reference_cauchy_schwarz_check, w, spec, a, b)
        assert outcome(cauchy_schwarz_check, w, spec, a, b) == want
        for f, g in ((involution(a), b), (b, a), (involution(b), b)):
            assert outcome(_omega, w, spec, f, g) \
                == outcome(product_then_evaluate, w, spec, f, g)
        seen[want if isinstance(want, Sign) else want[0]] += 1

    check()
    assert all(seen[v] for v in (PositivityRefuted, *Sign)), seen


def scanned_and_per_entry_grams(w, spec, degree):
    """(value, denominator, vector, flag) of each Gram entry the scan reads,
    and of omega(m_a* x m_b) computed entry by entry."""
    grams = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functionals, "two_term_scan",
                   lambda gram, *_: grams.append(gram) or [])
        positivity_scan(w, spec, degree)
    monos = monomials_up_to(spec.signature, degree, spec.order)
    want = [[evaluate(w, star_multiply(spec, involution(ma), mb))
             for mb in monos] for ma in monos]
    got, = grams
    return [[[(v.order, v._d, v._v, v.tail_lost) for v in row]
             for row in gram] for gram in (got, want)]


def test_scan_gram_is_the_per_entry_products():
    """The Gram the scan reads off the table has the value, denominator,
    vector and flag of omega(m_a* x m_b) computed entry by entry; some
    entries have lost their tails."""
    lossy = Counter()

    @settings(max_examples=60)
    @given(specs_and_functionals(), st.integers(0, 2))
    def check(case, degree):
        spec, w = case
        got, want = scanned_and_per_entry_grams(w, spec, degree)
        assert got == want
        lossy[any(v[3] for row in got for v in row)] += 1

    check()
    assert lossy[True] and lossy[False]


def lossy_twin(c):
    """c with its tail marked lost: equal to c, flagged."""
    return FormalSeries([c.coeff(r) for r in range(c.order)], c.order,
                        tail_lost=True)


def test_flag_only_twins_get_their_own_tables():
    """A spec or a pre-operator equal to another but for lost tails, with
    the same zero entries, is read off its own table, so each scan has the
    per-entry flags."""
    spec, w = weyl(1, 4), deform_delta(SIG, (1, 2), 4)
    op = w.pre_operator
    twins = [(StarProductSpec(SIG, [[e if e.is_zero() else lossy_twin(e)
                                     for e in row] for row in spec.pairing],
                              4), w),
             (spec, Functional(SIG, (1, 2), EquivOperatorSpec(
                 SIG, {e: lossy_twin(c) for e, c in op.generator.items()},
                 4)))]
    exact, _ = scanned_and_per_entry_grams(w, spec, 2)
    for twin_spec, twin_w in twins:
        assert twin_spec == spec and twin_w == w
        got, want = scanned_and_per_entry_grams(twin_w, twin_spec, 2)
        assert got == want != exact


def test_warm_cauchy_schwarz_multiplies_and_transports_nothing(monkeypatch):
    sig = PhaseSpaceSignature(2)
    w = deform_delta(sig, (1, 0, Fraction(1, 2), -1), 4)
    a, b = parse("q1*p2 + (1+l)*q2 - i", 2, 4), parse("p1^2 - l*q1*q2", 2, 4)
    spec = weyl(2, 4)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    want = cauchy_schwarz_check(w, spec, a, b)
    for name in ("star_multiply", "apply_equiv"):
        monkeypatch.setattr(functionals, name,
                            counted(name, getattr(functionals, name)))
    cold = deform_delta(sig, (0, 0, 0, 1), 4)
    cauchy_schwarz_check(cold, spec, a, b)
    assert calls["star_multiply"] and calls["apply_equiv"]
    calls.clear()
    assert cauchy_schwarz_check(w, spec, a, b) is want
    assert not calls


def test_equal_functionals_hash_equal_and_share_one_table(monkeypatch):
    sig = PhaseSpaceSignature(2)
    x = (1, GaussianRational(0, 1), Fraction(1, 2), 0)
    assert hash(delta(sig, x)) == hash(delta(sig, x))
    x = (1, -2, Fraction(1, 2), 0)
    w1, w2 = deform_delta(sig, x, 4), deform_delta(sig, x, 4)
    assert w1 is not w2 and w1 == w2 and hash(w1) == hash(w2)
    gen = op_s(2, 4).generator
    flipped = EquivOperatorSpec(sig, dict(reversed(gen.items())), 4)
    assert list(flipped.generator) != list(gen)
    assert flipped == op_s(2, 4) and hash(flipped) == hash(op_s(2, 4))
    monkeypatch.setattr(functionals, "_TABLES", {})
    a, b = parse("q1*p2 + (1+l)*q2 - i", 2, 4), parse("p1^2 - l*q1*q2", 2, 4)
    cauchy_schwarz_check(w1, weyl(2, 4), a, b)
    table, = functionals._TABLES.values()
    filled = len(table)
    cauchy_schwarz_check(w2, weyl(2, 4), a, b)
    assert filled and [len(t) for t in functionals._TABLES.values()] == [filled]


def test_table_store_stays_within_its_bound(monkeypatch):
    """With the bound at 8 series the tables of two functionals never hold
    more than 8, they are emptied at least once, a sum needing more than 8
    entries at once is still right, and a repeat of a sum whose entries the
    store holds multiplies nothing and empties nothing."""
    monkeypatch.setattr(functionals, "_BOUND", 8)
    monkeypatch.setattr(functionals, "_TABLES", {})
    calls = Counter()
    monkeypatch.setattr(functionals, "star_multiply",
                        lambda *args: calls.update([0]) or star_multiply(*args))
    spec = wick(1, 4)
    pool = [parse(t, 1, 4) for t in
            ("q1", "p1^2 + l", "q1*p1 - i*q1", "q1^3 + p1 + 1/2")]
    sizes, warm = [], 0
    for f in pool:
        for g in pool:
            for w in (deform_delta(SIG, (1, 2), 3), delta(SIG, (0, 1))):
                want = evaluate(w, star_multiply(spec, f, g))
                assert _omega(w, spec, f, g) == want
                held = sum(len(t) for t in functionals._TABLES.values())
                assert held <= 8
                sizes.append(held)
                table = functionals._TABLES.get(next(
                    (k for k in functionals._TABLES if k[0] == w), None), {})
                if all((a, b) in table for a in f.terms for b in g.terms):
                    calls.clear()
                    assert _omega(w, spec, f, g) == want and not calls
                    assert held == sum(
                        len(t) for t in functionals._TABLES.values())
                    warm += 1
    assert any(b < a for a, b in zip(sizes, sizes[1:])) and warm


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
