from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import fdq.star
from fdq.errors import PrecisionExhausted, SignatureMismatch
from fdq.exprio import observable_text, parse
from fdq.observables import (PhaseSpaceSignature, PolyObservable, involution,
                             monomials_up_to, poisson_bracket, to_holomorphic,
                             to_real)
from fdq.series import (DEFAULT_ORDER, FormalSeries, GaussianRational,
                        _convolve)
from fdq.star import (AxiomReport, EquivOperatorSpec, StarProductSpec,
                      apply_equiv, check_star_axioms, commutator,
                      identity_op, op_n, op_s, star_exponential_beta,
                      star_multiply, std, transported_product, weyl, wick)

K = 4


def obs(text, n=1, chart=None):
    return parse(text, n, K, chart)


def const(series, sig):
    return PolyObservable.constant(sig, series)


W = weyl(1, K)
WK = wick(1, K)
ST = std(1, K)
SIG = W.signature
IL = FormalSeries.lam(1, K).scalar_mul(GaussianRational(0, 1))


# -- star_multiply ------------------------------------------------------------------


def test_weyl_q_star_p():
    got = star_multiply(W, obs("q1"), obs("p1"))
    want = obs("q1*p1") + const(IL.scalar_mul(Fraction(1, 2)), SIG)
    assert got == want


def test_weyl_oscillator_square():
    h = obs("1/2*(p1^2 + q1^2)")
    got = star_multiply(W, h, h)
    correction = FormalSeries.lam(2, K).scalar_mul(Fraction(-1, 4))
    assert got == h * h + const(correction, SIG)


def test_wick_z_zbar():
    z, zb = obs("q1 + i*p1"), obs("q1 - i*p1")
    got = star_multiply(WK, z, zb)
    two_l = FormalSeries.lam(1, K).scalar_mul(2)
    assert got == z * zb + const(two_l, SIG)


def test_star_multiply_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        star_multiply(W, obs("q1", n=2), obs("q1", n=2))


def test_bilinearity():
    f, g, h = obs("q1^2"), obs("p1"), obs("q1*p1")
    lam = FormalSeries.lam(1, K)
    assert star_multiply(W, f + g.scale(lam), h) == \
        star_multiply(W, f, h) + star_multiply(W, g, h).scale(lam)


# -- commutator ------------------------------------------------------------------------


def test_canonical_commutation():
    got = commutator(W, obs("q1"), obs("p1"))
    assert got == const(IL, SIG)
    # all orders >= 2 vanish
    for r in range(2, K):
        assert got.lambda_coefficient(r).is_zero()


def test_commutator_of_self_vanishes():
    f = obs("q1^2*p1 + i*l*q1")
    assert commutator(W, f, f).is_zero()


def test_commutator_matches_poisson_bracket():
    got = commutator(W, obs("q1^2"), obs("p1"))
    want = poisson_bracket(obs("q1^2"), obs("p1")).scale(IL)
    assert got == want
    assert got == obs("q1").scale(IL.scalar_mul(2))


# -- apply_equiv -------------------------------------------------------------------------


def test_s_on_zzbar():
    s = op_s(1, K)
    zzb = obs("q1^2 + p1^2")  # z zbar in real coordinates
    assert apply_equiv(s, zzb) == zzb + const(FormalSeries.lam(1, K), SIG)


def test_n_on_qp():
    n = op_n(1, K)
    got = apply_equiv(n, obs("q1*p1"))
    want = obs("q1*p1") + const(IL.scalar_mul(Fraction(-1, 2)), SIG)
    assert got == want


def test_equiv_fixes_constants():
    for op in (op_s(1, K), op_n(1, K), identity_op(1, K)):
        assert apply_equiv(op, obs("1")) == obs("1")


def test_op_inverse_roundtrip():
    s = op_s(1, K)
    f = obs("q1^3*p1 + p1^2")
    assert apply_equiv(s.inverse(), apply_equiv(s, f)) == f


# -- transported products ----------------------------------------------------------------------


def test_s_transports_weyl_to_wick():
    s = op_s(1, K)
    for f in monomials_up_to(SIG, 3, K):
        for g in monomials_up_to(SIG, 3, K):
            assert transported_product(s, W, f, g) == star_multiply(WK, f, g)


def test_identity_transport_is_the_product():
    ident = identity_op(1, K)
    f, g = obs("q1^2"), obs("q1*p1")
    assert transported_product(ident, W, f, g) == star_multiply(W, f, g)


def test_n_transports_weyl_to_std():
    n = op_n(1, K)
    for f in monomials_up_to(SIG, 2, K):
        for g in monomials_up_to(SIG, 2, K):
            assert transported_product(n, W, f, g) == star_multiply(ST, f, g)


def test_transport_preserves_first_order_bracket():
    s = op_s(1, K)
    f, g = obs("q1^2*p1"), obs("q1*p1^2")
    t = transported_product(s, W, f, g) - transported_product(s, W, g, f)
    want = poisson_bracket(f, g).scale(IL)
    assert t.lambda_coefficient(1) == want.lambda_coefficient(1)


# -- star exponential -----------------------------------------------------------------------------


def test_position_exponential_is_commutative():
    coeffs = star_exponential_beta(W, obs("q1"), 3)
    fact = 1
    for k, c in enumerate(coeffs):
        if k:
            fact *= k
        assert c == (obs("q1") ** k).scale_scalar(Fraction((-1) ** k, fact))


def test_oscillator_second_coefficient():
    h = obs("1/2*(p1^2 + q1^2)")
    coeffs = star_exponential_beta(W, h, 2)
    assert coeffs[2] == star_multiply(W, h, h).scale_scalar(Fraction(1, 2))


def test_beta_order_zero():
    assert star_exponential_beta(W, obs("q1"), 0) == [obs("1")]


def test_defining_recursion():
    h = obs("q1*p1 + q1^2")
    es = star_exponential_beta(W, h, 4)
    for k in range(1, 5):
        assert es[k] == star_multiply(W, h, es[k - 1]).scale_scalar(
            Fraction(-1, k))


def test_non_hermitian_generator_warns():
    with pytest.warns(UserWarning):
        star_exponential_beta(W, obs("i*q1"), 1)


# -- axiom checker ---------------------------------------------------------------------------------


def test_weyl_axioms_pass():
    report = check_star_axioms(W, 3)
    assert report.all_passed()


def test_wick_axioms_pass():
    report = check_star_axioms(WK, 3)
    assert report.all_passed()


def test_std_axioms_status():
    report = check_star_axioms(ST, 3)
    ok_herm, witness = report.checks["hermitian"]
    assert not ok_herm and witness is not None
    for name in ("unit", "correspondence_c0", "correspondence_c1",
                 "associativity"):
        assert report.checks[name][0]


def test_corrupted_pairing_fails_with_witness():
    sig = SIG
    zero = FormalSeries.zero(K)
    half_i_l = IL.scalar_mul(Fraction(1, 2))
    pairing = [[zero, half_i_l], [zero, zero]]  # second Weyl term dropped
    bad = StarProductSpec(sig, pairing, K, name="bad")
    report = check_star_axioms(bad, 2)
    ok, witness = report.checks["correspondence_c1"]
    assert not ok
    assert "q1" in witness and "p1" in witness


def test_report_serializes():
    payload = check_star_axioms(W, 1).to_json()
    assert payload["all_passed"] is True
    assert set(payload["checks"]) == {"unit", "correspondence_c0",
                                      "correspondence_c1", "hermitian",
                                      "associativity"}


# -- degree bound (bidifferential order) ------------------------------------------------------------


def test_cr_vanishes_below_degree():
    # The r-th cochain differentiates each argument r times, so it kills
    # any pair in which either argument has total degree below r.
    for spec in (W, WK, ST):
        for r in range(1, K):
            for f in monomials_up_to(SIG, r - 1, K):
                for g in monomials_up_to(SIG, 3, K):
                    assert star_multiply(spec, f, g) \
                        .lambda_coefficient(r).is_zero()
                    assert star_multiply(spec, g, f) \
                        .lambda_coefficient(r).is_zero()


def test_associativity_all_orders():
    monos = monomials_up_to(SIG, 2, K)
    for spec in (W, WK, ST):
        for f in monos[:6]:
            for g in monos[:6]:
                fg = star_multiply(spec, f, g)
                for h in monos[:6]:
                    assert star_multiply(spec, fg, h) == \
                        star_multiply(spec, f, star_multiply(spec, g, h))


# -- differential tests against the per-operation exp(D) loops -----------------------
#
# The references below are the earlier codings: a tensor-contraction loop for
# star_multiply and a loop of PolyObservable derivatives, scales and sums for
# apply_equiv.  fdq.star now runs both through one exp(D) kernel; values,
# every coefficient's tail_lost and the observable's tail_lost must agree.


def _ref_star_multiply(spec, f, g):
    K = min(spec.order, f.order, g.order)
    if f.order != K:
        f = f.reduce_order(K)
    if g.order != K:
        g = g.reduce_order(K)
    pairing = [(a, b, e if e.order == K else e.reduce_order(K))
               for a, row in enumerate(spec.pairing)
               for b, e in enumerate(row) if not e.is_exact_zero()]

    tensor = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            tensor[(e1, e2)] = c1 * c2

    result = {}

    def absorb(tensor_terms, factorial_recip):
        for (e1, e2), c in tensor_terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = c.scalar_mul(factorial_recip)
            if e in result:
                result[e] = result[e] + c
            else:
                result[e] = c

    absorb(tensor, Fraction(1))
    fact = Fraction(1)
    k = 1
    while tensor and k < K:
        new = {}
        for (e1, e2), c in tensor.items():
            for a, b, entry in pairing:
                if e1[a] == 0 or e2[b] == 0:
                    continue
                d1 = list(e1)
                d1[a] -= 1
                d2 = list(e2)
                d2[b] -= 1
                key = (tuple(d1), tuple(d2))
                add = (entry * c).scalar_mul(e1[a] * e2[b])
                if key in new:
                    new[key] = new[key] + add
                else:
                    new[key] = add
        tensor = {key: c for key, c in new.items()
                  if not c.is_zero() or c.tail_lost}
        fact = fact / k
        absorb(tensor, fact)
        k += 1
    return PolyObservable(spec.signature, result, K,
                          f.tail_lost or g.tail_lost)


def _ref_apply_equiv(op, f):
    K = min(op.order, f.order)
    if f.order != K:
        f = f.reduce_order(K)
    gen = {e: (c if c.order == K else c.reduce_order(K))
           for e, c in op.generator.items()}

    result = f
    current = f
    fact = Fraction(1)
    k = 1
    while current.terms and k < K:
        new = PolyObservable.zero(op.signature, K)
        for exp, c in gen.items():
            term = current
            for idx, times in enumerate(exp):
                if times:
                    term = term.derivative(idx, times)
            if term.terms or term.tail_lost:
                new = new + term.scale(c)
        current = new
        fact = fact / k
        result = result + current.scale_scalar(fact)
        k += 1
    return result


def _ref_check_star_axioms(spec, sample_degree=3):
    star = _ref_star_multiply
    sig = spec.signature
    K = spec.order
    monos = monomials_up_to(sig, sample_degree, K)
    one = PolyObservable.one(sig, K)

    checks = {}

    witness = None
    for m in monos:
        if star(spec, one, m) != m or star(spec, m, one) != m:
            witness = observable_text(m)
            break
    checks["unit"] = (witness is None, witness)

    witness = None
    for f in monos:
        for g in monos:
            prod = star(spec, f, g)
            if prod.lambda_coefficient(0) != (f * g).lambda_coefficient(0):
                witness = f"({observable_text(f)}, {observable_text(g)})"
                break
        if witness:
            break
    checks["correspondence_c0"] = (witness is None, witness)

    def bracket(f, g):
        # The holomorphic bracket is the real one carried through z = q + ip.
        if sig.chart == "real":
            return poisson_bracket(f, g)
        return to_holomorphic(poisson_bracket(to_real(f), to_real(g)))

    witness = None
    if sig.chart in ("real", "holo"):
        i_one = GaussianRational(0, 1)
        for f in monos:
            for g in monos:
                c1 = star(spec, f, g).lambda_coefficient(1)
                c1r = star(spec, g, f).lambda_coefficient(1)
                expected = bracket(f, g).lambda_coefficient(0) \
                    .scale_scalar(i_one)
                if c1 - c1r != expected:
                    witness = f"({observable_text(f)}, {observable_text(g)})"
                    break
            if witness:
                break
    checks["correspondence_c1"] = (witness is None, witness)

    witness = None
    for f in monos:
        for g in monos:
            lhs = involution(star(spec, f, g))
            rhs = star(spec, involution(g), involution(f))
            if lhs != rhs:
                witness = f"({observable_text(f)}, {observable_text(g)})"
                break
        if witness:
            break
    checks["hermitian"] = (witness is None, witness)

    witness = None
    for f in monos:
        for g in monos:
            fg = star(spec, f, g)
            for h in monos:
                if star(spec, fg, h) != star(spec, f, star(spec, g, h)):
                    witness = (f"({observable_text(f)}, {observable_text(g)}, "
                               f"{observable_text(h)})")
                    break
            if witness:
                break
        if witness:
            break
    checks["associativity"] = (witness is None, witness)

    return AxiomReport(spec.name, sample_degree, checks)


def _state(f):
    """Everything the comparison covers: values, each coefficient's flag and
    the observable's flag."""
    return (f.signature, f.order, f.tail_lost,
            {e: (c.coeffs, c.tail_lost) for e, c in f.terms.items()})


# Few distinct scalars, zero most often, so that sums cancel and products
# truncate to lossy zeros.
_SCALARS = st.sampled_from([GaussianRational(0)] * 3 + [
    GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
    GaussianRational(Fraction(1, 2)), GaussianRational(2, -1)])


@st.composite
def _series(draw, K, o_l=False):
    coeffs = [draw(_SCALARS) for _ in range(K)]
    if o_l:
        coeffs[0] = GaussianRational(0)
    return FormalSeries(coeffs, K, draw(st.booleans()))


@st.composite
def _observables(draw, sig, K):
    exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * sig.width),
                         max_size=4, unique=True))
    return PolyObservable(sig, {e: draw(_series(K)) for e in exps}, K,
                          draw(st.booleans()))


@st.composite
def _star_specs(draw, n, K):
    kind = draw(st.sampled_from(["weyl", "wick", "holo", "std", "custom"]))
    if kind == "weyl":
        return weyl(n, K)
    if kind == "wick":
        return wick(n, K)
    if kind == "holo":
        return wick(n, K, chart="holo")
    if kind == "std":
        return std(n, K)
    sig = PhaseSpaceSignature(n, draw(st.sampled_from(["real", "holo"])))
    w = sig.width
    return StarProductSpec(
        sig, [[draw(_series(K, o_l=True)) for _ in range(w)] for _ in range(w)],
        K)


@st.composite
def _equiv_ops(draw, n, K):
    kind = draw(st.sampled_from(["S", "N", "custom"]))
    if kind == "S":
        op = op_s(n, K)
    elif kind == "N":
        op = op_n(n, K)
    else:
        sig = PhaseSpaceSignature(n, "real")
        exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * sig.width),
                             max_size=4, unique=True))
        op = EquivOperatorSpec(
            sig, {e: draw(_series(K, o_l=True)) for e in exps}, K)
    return op.inverse() if draw(st.booleans()) else op


def _operand(draw, sig, K):
    """An operand at the spec's order or one above it (reduced on entry)."""
    return draw(_observables(sig, K + draw(st.integers(0, 1))))


@settings(max_examples=300)
@given(st.data())
def test_star_multiply_matches_reference(data):
    n = data.draw(st.sampled_from([1, 2]))
    K = data.draw(st.integers(1, 6))
    spec = data.draw(_star_specs(n, K))
    f = _operand(data.draw, spec.signature, K)
    g = _operand(data.draw, spec.signature, K)
    assert _state(star_multiply(spec, f, g)) == \
        _state(_ref_star_multiply(spec, f, g))


@settings(max_examples=300)
@given(st.data())
def test_apply_equiv_matches_reference(data):
    n = data.draw(st.sampled_from([1, 2]))
    K = data.draw(st.integers(1, 6))
    op = data.draw(_equiv_ops(n, K))
    f = _operand(data.draw, op.signature, K)
    assert _state(apply_equiv(op, f)) == _state(_ref_apply_equiv(op, f))


def test_kernel_step_five_matches_reference():
    # At K = 6 the l^5 coefficient of these comes from D^5/5!, the last step
    # of the kernel, which the strategies above rarely reach with a nonzero.
    f, g = parse("q1^5 + p1", 1, 6), parse("p1^5 - 2*q1*p1^4", 1, 6)
    for spec in (weyl(1, 6), wick(1, 6), std(1, 6)):
        assert _state(star_multiply(spec, f, g)) == \
            _state(_ref_star_multiply(spec, f, g))
    h = parse("q1^5*p1^5 + q1^10", 1, 6)
    for op in (op_n(1, 6), op_s(1, 6)):
        assert _state(apply_equiv(op, h)) == _state(_ref_apply_equiv(op, h))


@st.composite
def _one_term_specs(draw, n, K):
    """A custom pairing whose entries are 0 or s l, which the monomial
    product table takes; nodes of exp(D) may cancel (1 * 1 + i * i = 0)."""
    sig = PhaseSpaceSignature(n, draw(st.sampled_from(["real", "holo"])))
    l = FormalSeries.lam(1, K)
    return StarProductSpec(
        sig, [[l.scalar_mul(draw(_SCALARS)) for _ in range(sig.width)]
              for _ in range(sig.width)], K)


@settings(max_examples=300)
@given(st.data())
def test_star_multiply_matches_reference_on_table_hits(data):
    # One spec object serves every product: the repeated f * g reads the
    # entries f * g walked, and the product at K - 1 fills a second table.
    n = data.draw(st.sampled_from([1, 2]))
    K = data.draw(st.integers(1, 6))
    spec = data.draw(st.one_of(_star_specs(n, K), _one_term_specs(n, K)))
    f = _operand(data.draw, spec.signature, K)
    g = _operand(data.draw, spec.signature, K)
    pairs = [(f, g), (g, f), (f, g)]
    if K > 1:
        pairs.append((f.reduce_order(K - 1), g.reduce_order(K - 1)))
    for a, b in pairs:
        assert _state(star_multiply(spec, a, b)) == \
            _state(_ref_star_multiply(spec, a, b))
    # Every built-in pairing is one exact term s l per entry from K = 2 on.
    if spec.name != "custom":
        assert (spec._table[K] is not None) == (K > 1)


def test_repeated_products_walk_no_new_monomial_pair(monkeypatch):
    walks = []
    walk = fdq.star._monomial_walk
    monkeypatch.setattr(fdq.star, "_monomial_walk",
                        lambda key, *args: walks.append(key) or walk(key, *args))
    fdq.star._builtin_spec.cache_clear()  # a fresh spec, its table empty
    spec = wick(2, K)
    assert spec._table == {}
    f = obs("q1^2*p2 + (1 + l)*p1 - 2*q2*p2", n=2)
    g = obs("q1*p1^2 + (i*l)*q2 + 3", n=2)
    first = star_multiply(spec, f, g)
    assert sorted(walks) == sorted(a + b for a in f.terms for b in g.terms)
    star_multiply(spec, g, f)
    walks.clear()
    assert _state(star_multiply(spec, f, g)) == _state(first)
    commutator(spec, f, g)
    assert walks == []


def test_builtin_specs_are_reused_within_a_process():
    assert weyl(1, 4) is weyl(1, 4)
    assert wick(2, None) is wick(2, DEFAULT_ORDER)
    specs = [weyl(1, 4), wick(1, 4), std(1, 4), weyl(2, 4), weyl(1, 3),
             wick(1, 4, chart="holo")]
    assert len({id(s) for s in specs}) == len(specs)
    assert fdq.star.builtin_spec("wick", 1, 4) is wick(1, 4)


def test_a_repeated_star_call_walks_no_monomial_pair(monkeypatch):
    import io

    from fdq.cli import run_command

    walks = []
    walk = fdq.star._monomial_walk
    monkeypatch.setattr(fdq.star, "_monomial_walk",
                        lambda key, *args: walks.append(key) or walk(key, *args))

    def star_call():
        out = io.StringIO()
        assert run_command(["star", "--n", "2", "--K", "5", "q1^2*p2 + p1",
                            "p1*q2^2 + q1"], out=out, err=io.StringIO()) == 0
        return out.getvalue()

    first = star_call()
    walks.clear()
    assert star_call() == first
    assert walks == []


def test_merged_pairs_whose_top_terms_cancel_take_the_kernel():
    # At K = 3 the node q1 (x) p1 of exp(D) holds -i/2 (4 + 4l) l from
    # q1 p1 (x) q1 p1 and 2i (2 + l) l from q1^2 (x) p1^2; their l^2 terms
    # cancel, and so do those at p1 (x) q1.  The next contraction thus keeps
    # below l^3 and the constant term -l^2 is exact, though per term pair
    # the top of 4 + 4l is shifted to l^3.  The table refuses the product.
    K = 3
    spec = weyl(1, K)
    f = parse("q1*p1 + q1^2 + p1^2", 1, K)
    g = parse("(4 + 4*l)*q1*p1 + (2 + l)*p1^2 + (2 + l)*q1^2", 1, K)
    assert fdq.star._table_product(spec, f, g, K) is None
    got = star_multiply(spec, f, g)
    assert got.terms[(0, 0)] == FormalSeries.lam(2, K).scalar_mul(-1)
    assert not any(c.tail_lost for c in got.terms.values())
    assert _state(got) == _state(_ref_star_multiply(spec, f, g))


def test_cancelled_table_entry_still_flags_its_shift():
    # q1 p1 * q1 p1 has no l^1 term on weyl: the two contractions cancel.
    # Shifted by l, the top of c = 1 + l still lands on l^2 = l^K, so the
    # cancelled coefficient is a zero whose tail is lost.
    K = 2
    f, g = parse("q1*p1", 1, K), parse("(1 + l)*q1*p1", 1, K)
    got = star_multiply(weyl(1, K), f, g)
    assert list(got.terms) == [(2, 2)] and got.tail_lost
    assert _state(got) == _state(_ref_star_multiply(weyl(1, K), f, g))


def test_multi_term_pairing_counterexample_keeps_its_flags():
    # A pairing with entries of two terms or of l^2 has no table, and the
    # kernel flags the q1 p1^2 coefficient, which a bilinear sum of
    # monomial products would leave exact.
    K = 3
    spec = StarProductSpec(SIG, [
        [FormalSeries([0, Fraction(1, 2)], K), FormalSeries([0, 0, -1], K)],
        [FormalSeries([0, 1, Fraction(1, 2)], K),
         FormalSeries([0, 0, GaussianRational(0, 1)], K)]], K)
    f = parse("(1/2 + 2*l + i*l^2)*q1^2*p1^2 + 1/2 + l^2", 1, K)
    g = parse("q1*p1^2", 1, K)
    got = star_multiply(spec, f, g)
    assert spec._table == {K: None}
    assert got.terms[(1, 2)] == FormalSeries([Fraction(1, 2), 0, 1], K)
    assert {e for e, c in got.terms.items() if c.tail_lost} == \
        {(1, 2), (1, 4), (2, 3), (3, 2)}
    assert got.tail_lost
    assert _state(got) == _state(_ref_star_multiply(spec, f, g))


def _wave(K, generator, terms, tail_lost=False):
    sig = PhaseSpaceSignature(1, "wave")
    op = EquivOperatorSpec(sig, {(e,): c for e, c in generator.items()}, K)
    f = PolyObservable(sig, {(e,): c for e, c in terms.items()}, K, tail_lost)
    return op, f


def test_apply_equiv_lossy_generator_flags_the_observable():
    # d_x meets a term, so the lost tail of its coefficient reaches the
    # observable even though every coefficient of the image is exact.
    K = 3
    lossy_l = FormalSeries((0, 1), K, tail_lost=True)
    op, f = _wave(K, {1: lossy_l}, {0: FormalSeries.one(K)})
    assert _state(apply_equiv(op, f)) == _state(_ref_apply_equiv(op, f))
    op, f = _wave(K, {1: lossy_l}, {1: FormalSeries.one(K)})
    got = apply_equiv(op, f)
    assert got.tail_lost and _state(got) == _state(_ref_apply_equiv(op, f))


def test_lossy_zero_flags_the_observable_in_apply_equiv_only():
    # l * (l x) truncates to a lost zero at K = 2.  exp(l d_x) drops it and
    # flags the observable; the star product keeps it and flags the
    # constant coefficient it lands on.
    K = 2
    l = FormalSeries.lam(1, K)
    op, f = _wave(K, {1: l}, {0: FormalSeries.one(K), 1: l})
    got = apply_equiv(op, f)
    assert got.tail_lost and not got.terms[(0,)].tail_lost
    assert _state(got) == _state(_ref_apply_equiv(op, f))

    spec = weyl(1, K)
    f, g = obs("1 + l*q1").reduce_order(K), obs("1 + p1").reduce_order(K)
    got = star_multiply(spec, f, g)
    assert not got.tail_lost and got.terms[(0, 0)].tail_lost
    assert _state(got) == _state(_ref_star_multiply(spec, f, g))


def test_apply_equiv_cancelled_lossy_sums_flag_the_observable():
    # l x^0 (lost tail) + exp(l d_x) of x = 0: the cancelled coefficient
    # leaves only its flag, on the observable.
    K = 3
    lossy_l = FormalSeries((0, 1), K, tail_lost=True)
    op, f = _wave(K, {1: FormalSeries.lam(1, K)},
                  {0: -lossy_l, 1: FormalSeries.one(K)})
    got = apply_equiv(op, f)
    assert got.tail_lost and (0,) not in got.terms
    assert _state(got) == _state(_ref_apply_equiv(op, f))


def test_apply_equiv_sums_generator_by_generator():
    # At k = 1, D = l d_q - l d_p + l d_q^2 sends l (lost tail), -l and 2l
    # to the constant term, in generator order.  The first two cancel and
    # are dropped, flag and all, before 2l arrives, so the constant term
    # keeps an exact tail; summed term by term it would not.
    K = 3
    l = FormalSeries.lam(1, K)
    lossy_one = FormalSeries((1,), K, tail_lost=True)
    op = EquivOperatorSpec(SIG, {(1, 0): l, (0, 1): -l, (2, 0): l}, K)
    f = PolyObservable(SIG, {(2, 0): FormalSeries.one(K), (1, 0): lossy_one,
                             (0, 1): FormalSeries.one(K)}, K)
    got = apply_equiv(op, f)
    assert got.tail_lost and not got.terms[(0, 0)].tail_lost
    assert _state(got) == _state(_ref_apply_equiv(op, f))


_CORRUPTED = StarProductSpec(
    SIG, [[FormalSeries.zero(K), IL.scalar_mul(Fraction(1, 2))],
          [FormalSeries.zero(K), FormalSeries.zero(K)]], K, name="bad")


def _holo_flat(order):
    """l (d_z (x) d_z + d_zb (x) d_zb): associative and Hermitian, but its
    l^1 commutator vanishes, so C_1 is not i{f, g}."""
    l, zero = FormalSeries.lam(1, order), FormalSeries.zero(order)
    return StarProductSpec(PhaseSpaceSignature(1, "holo"),
                           [[l, zero], [zero, l]], order, name="holo-flat")


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("spec", [W, WK, ST, wick(1, K, chart="holo"),
                                  _CORRUPTED, _holo_flat(K)],
                         ids=["weyl", "wick", "std", "holo-wick", "corrupted",
                              "holo-flat"])
def test_axiom_report_matches_reference(spec, degree):
    assert check_star_axioms(spec, degree).to_json() == \
        _ref_check_star_axioms(spec, degree).to_json()


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_holomorphic_c1_is_checked(order):
    assert check_star_axioms(wick(1, order, chart="holo"), 2).all_passed()
    report = check_star_axioms(_holo_flat(order), 2)
    assert report.checks["correspondence_c1"] == (False, "(z1, zb1)")
    assert [name for name, (ok, _) in report.checks.items() if not ok] == \
        ["correspondence_c1"]


def test_holomorphic_c1_at_k1_exhausts_precision():
    for spec in (wick(1, 1, chart="holo"), _holo_flat(1)):
        with pytest.raises(PrecisionExhausted):
            check_star_axioms(spec, 2)


@pytest.mark.parametrize("chart", ["fock", "wave"])
@pytest.mark.parametrize("order", [1, K])
def test_axioms_reject_a_chart_without_a_bracket(chart, order, monkeypatch):
    # C_1 = i{f, g} needs the Poisson bracket, which fock and wave lack; the
    # battery refuses before it computes any product.
    calls = []
    monkeypatch.setattr(fdq.star, "star_multiply",
                        lambda *args: calls.append(args))
    sig = PhaseSpaceSignature(1, chart)
    l = FormalSeries.lam(1, order)
    spec = StarProductSpec(sig, [[l]], order)
    with pytest.raises(SignatureMismatch, match=f"chart '{chart}'"):
        check_star_axioms(spec, 2)
    assert calls == []


@pytest.mark.parametrize("spec", [W, ST, wick(1, K, chart="holo")],
                         ids=["weyl", "std", "holo-wick"])
def test_axiom_battery_reads_one_product_table(spec, monkeypatch):
    calls, products = [], []
    entries = fdq.star._monomial_product

    def counting(s, a, b):
        calls.append((a, b))
        return entries(s, a, b)

    monkeypatch.setattr(fdq.star, "_monomial_product", counting)
    monkeypatch.setattr(fdq.star, "star_multiply",
                        lambda *args: products.append(args))
    check_star_axioms(spec, 2)
    monkeypatch.undo()
    # Each monomial product once: the N^2 of the sample monomials, then
    # m_e * m_k and m_i * m_e for every e of higher degree in their support.
    # Every one is a row of the spec's table, so nothing is multiplied.
    monos = monomials_up_to(spec.signature, 2, K)
    support = {e for f in monos for g in monos
               for e in star_multiply(spec, f, g).terms}
    extra = support - {e for m in monos for e in m.terms}
    N = len(monos)
    assert len(set(calls)) == len(calls) == N * N + 2 * N * len(extra)
    assert spec is not W or len(calls) == 144
    assert products == []


def _perturbed(a, b, delta):
    """star_multiply plus f[a] g[b] delta: a bilinear product that differs
    from the star product on the monomial pair (x^a, x^b) only."""
    def product(spec, f, g):
        out = star_multiply(spec, f, g)
        if a in f.terms and b in g.terms:
            out = out + delta.scale(f.terms[a] * g.terms[b])
        return out
    return product


def _perturbed_entries(a, b, e, k):
    """The battery's monomial products with l^k x^e added to m_a * m_b: the
    entries of the product ``_perturbed`` gives with delta = l^k x^e."""
    entries = fdq.star._monomial_product

    def product(spec, x, y):
        d, p = entries(spec, x, y)
        if (x, y) == (a, b):
            re, im = p.get((e, k), (0, 0))
            p = {**p, (e, k): (re + d, im)}
        return d, p
    return product


@pytest.mark.parametrize("pair", [((3, 0), (0, 1)), ((0, 1), (3, 0)),
                                  ((2, 2), (1, 0))],
                         ids=["q3-p", "p-q3", "q2p2-q"])
@pytest.mark.parametrize("spec", [W, WK, ST], ids=["weyl", "wick", "std"])
def test_associativity_reads_the_products_above_the_degree(spec, pair,
                                                           monkeypatch):
    # One product of a degree-3 or -4 monomial is wrong, so every product of
    # two sample monomials is right and only associativity can see it.  Its
    # first witness is the one a plain loop over triples finds with the
    # same product on observables.
    monkeypatch.setattr(fdq.star, "_monomial_product",
                        _perturbed_entries(*pair, (1, 0), 2))
    report = check_star_axioms(spec, 2)
    monkeypatch.undo()
    delta = PolyObservable.monomial(SIG, (1, 0), K, FormalSeries.lam(2, K))
    product = _perturbed(*pair, delta)
    monos = monomials_up_to(SIG, 2, K)
    witness = next(
        "(" + ", ".join(observable_text(m) for m in triple) + ")"
        for triple in iproduct(monos, repeat=3)
        if product(spec, product(spec, *triple[:2]), triple[2])
        != product(spec, triple[0], product(spec, *triple[1:])))
    assert report.checks["associativity"] == (False, witness)
    assert {name: check for name, check in report.checks.items()
            if name != "associativity"} == \
        {name: check for name, check in check_star_axioms(spec, 2)
         .checks.items() if name != "associativity"}


# The battery as it ran on PolyObservables: every monomial product from
# star_multiply, and the checks on observables and their coefficient vectors.
def observable_check_star_axioms(spec, sample_degree=3):
    """Exhaustive verification on all monomials up to sample_degree.

    Bilinearity makes monomial verification a complete proof at that degree:
    unit law, C_0(f,g) = fg, antisymmetric C_1 = i{f,g}, the Hermitian
    property, and associativity on all monomial triples.  Each check reports
    its first failing tuple in graded-lex order.  C_1 is read from the l^1
    coefficients, so K = 1 raises PrecisionExhausted, and is compared with
    the Poisson bracket, so a spec on the fock or wave chart, which has
    none, raises SignatureMismatch; both before any product is computed.

    Every monomial product is computed once, into a table: the N^2 products
    of the sample monomials, which the first four checks read, and m_e * m_k
    and m_i * m_e for each exponent e in their support above the degree.
    Values mod l^K are bilinear and associativity compares values only, so
    (m_i m_j) m_k is sum_e T_ij[e] (m_e * m_k) and m_i (m_j m_k) is
    sum_e T_jk[e] (m_i * m_e): the table's coefficients are put over one
    denominator D and both sides are compared as integer vectors over D^2.
    """
    sig, K = spec.signature, spec.order
    if sig.chart not in ("real", "holo"):
        raise SignatureMismatch("correspondence_c1 needs the Poisson bracket, "
                                f"which chart {sig.chart!r} does not have")
    if K < 2:
        raise PrecisionExhausted("correspondence_c1 needs K >= 2: the l^1 "
                                 "coefficient is not stored at K = 1")
    monos = monomials_up_to(sig, sample_degree, K)
    table = [[star_multiply(spec, f, g) for g in monos] for f in monos]
    index = {e: i for i, m in enumerate(monos) for e in m.terms}
    # monos[0] is 1, and conj(monos[i]) is again a monomial: monos[bar[i]].
    bar = [index[e] for m in monos for e in involution(m).terms]
    i_one = GaussianRational(0, 1)

    exps = list(index)
    products = {(a, b): table[i][j] for i, a in enumerate(exps)
                for j, b in enumerate(exps)}
    for e in {e for row in table for p in row for e in p.terms} - index.keys():
        m = PolyObservable.monomial(sig, e, K)
        for a, mono in zip(exps, monos):
            products[e, a] = star_multiply(spec, m, mono)
            products[a, e] = star_multiply(spec, mono, m)
    D = lcm(*[c._d for p in products.values() for c in p.terms.values()])
    vec = {key: [(e, [x * (D // c._d) for x in c._v])
                 for e, c in p.terms.items()] for key, p in products.items()}

    def expand(outer, inner):
        """sum_e outer[e] * vec[inner(e)] as {exp: nonzero vector over D^2}."""
        acc = {}
        for e, v in outer:
            for d, u in vec[inner(e)]:
                a = acc.get(d)
                if a is None:
                    a = acc[d] = [0] * (2 * K)
                _convolve(v, u, a)
        return {d: a for d, a in acc.items() if any(a)}

    def first_failure(fails, arity=2):
        for idx in iproduct(range(len(monos)), repeat=arity):
            if fails(*idx):
                text = ", ".join(observable_text(monos[i]) for i in idx)
                return (False, text if arity == 1 else f"({text})")
        return (True, None)

    return AxiomReport(spec.name, sample_degree, {
        "unit": first_failure(
            lambda j: table[0][j] != monos[j] or table[j][0] != monos[j], 1),
        "correspondence_c0": first_failure(
            lambda i, j: table[i][j].lambda_coefficient(0)
            != (monos[i] * monos[j]).lambda_coefficient(0)),
        "correspondence_c1": first_failure(
            lambda i, j: table[i][j].lambda_coefficient(1)
            - table[j][i].lambda_coefficient(1)
            != poisson_bracket(monos[i], monos[j]).lambda_coefficient(0)
            .scale_scalar(i_one)),
        "hermitian": first_failure(
            lambda i, j: involution(table[i][j]) != table[bar[j]][bar[i]]),
        "associativity": first_failure(
            lambda i, j, k:
            expand(vec[exps[i], exps[j]], lambda e: (e, exps[k]))
            != expand(vec[exps[j], exps[k]], lambda e: (exps[i], e)), 3),
    })


def _custom_entry(K, c1, c2, lossy):
    """c1 l + c2 l^2 at order K; l^2 at K = 2 is dropped with a lost tail."""
    return FormalSeries([0, c1, c2], K, tail_lost=lossy)


_GAUSS = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def axiom_cases(draw):
    """(spec, degree): a built-in, or a custom pairing on the real or holo
    chart with entries at l, at l^2, of both and lossy, or the real pairing
    s l d_q(x)d_q + t l d_p(x)d_p + u l d_q(x)d_p + v l d_p(x)d_q with
    st + uv = 0, whose walk on q p (x) q p cancels at its constant node."""
    family = draw(st.sampled_from(["builtin", "holo-wick", "custom",
                                   "cancelling"]))
    K = draw(st.integers(2, 6 if family in ("builtin", "holo-wick") else 4))
    if family == "builtin":
        n = draw(st.integers(1, 2))
        kind = draw(st.sampled_from(["weyl", "wick", "std"]))
        return (fdq.star.builtin_spec(kind, n, K),
                draw(st.integers(1, 3 if n == 1 else 2)))
    if family == "holo-wick":
        return wick(1, K, chart="holo"), draw(st.integers(1, 3))
    if family == "cancelling":
        s, t, u = (draw(_GAUSS.filter(bool)) for _ in range(3))
        v = -(s * t) * u.inverse()
        pairing = [[FormalSeries.lam(1, K).scalar_mul(c) for c in row]
                   for row in ((s, u), (v, t))]
        return StarProductSpec(SIG, pairing, K, "cancelling"), 2
    chart = draw(st.sampled_from(["real", "holo"]))
    pairing = [[_custom_entry(K, draw(_GAUSS), draw(_GAUSS), draw(st.booleans()))
                if draw(st.booleans()) else FormalSeries.zero(K)
                for _ in range(2)] for _ in range(2)]
    return (StarProductSpec(PhaseSpaceSignature(1, chart), pairing, K),
            draw(st.integers(1, 2)))


def test_axiom_battery_matches_the_observable_battery():
    """The battery on integer entries writes the report of the battery on
    observables, over specs that read the table's rows, specs without a
    table, rows that are None and specs that fail C_1 or Hermitian."""
    seen = Counter()

    @settings(max_examples=120)
    @given(axiom_cases())
    def check(case):
        spec, degree = case
        got = check_star_axioms(spec, degree).to_json()
        # The rows the battery read, before star_multiply reads more.
        table = fdq.star._product_table(spec, spec.order)
        rows = set() if table is None else set(table[3].values())
        assert got == observable_check_star_axioms(spec, degree).to_json()
        seen["no table"] += table is None
        seen["table rows"] += bool(rows - {None})
        seen["None row"] += None in rows
        for name in ("correspondence_c1", "hermitian"):
            seen[name] += not got["checks"][name]["passed"]

    check()
    assert all(seen[k] for k in ("no table", "table rows", "None row",
                                 "correspondence_c1", "hermitian")), seen


def _as_fractions(d, entries):
    return {key: (Fraction(re, d), Fraction(im, d))
            for key, (re, im) in entries.items()}


@pytest.mark.parametrize("spec", [
    W, WK, ST, wick(2, 3, chart="holo"), _CORRUPTED,
    StarProductSpec(SIG, [[FormalSeries.zero(K), FormalSeries(
        [0, GaussianRational(0, Fraction(1, 2)), Fraction(1, 3)], K)],
        [FormalSeries.zero(K), FormalSeries.zero(K)]], K)],
    ids=["weyl", "wick", "std", "holo-wick-n2", "corrupted", "two-terms"])
def test_monomial_product_entries_are_the_star_product(spec):
    # Table row or star_multiply, the entries are the product's nonzero
    # coefficients; a row's entries that sum to 0, as at l^1 of
    # q1 p1 * q1 p1 under weyl, are dropped.
    exps = [e for m in monomials_up_to(spec.signature, 2, K) for e in m.terms]
    for a, b in iproduct(exps, repeat=2):
        got = _as_fractions(*fdq.star._monomial_product(spec, a, b))
        product = star_multiply(spec, *(PolyObservable.monomial(
            spec.signature, e, K) for e in (a, b)))
        assert got == {(e, k): (x.re, x.im) for e, c in product.terms.items()
                       for k, x in enumerate(c.coeffs) if x}
    table = fdq.star._product_table(W, K)
    qp = (1, 1)
    assert any(not (re or im) for _, _, re, im in
               fdq.star._row(table, qp + qp, K))


@pytest.mark.parametrize("degree", [-1, -5])
def test_axioms_refuse_a_negative_degree(degree, monkeypatch):
    # Zero monomials would pass every check vacuously.
    def fail(*args):
        raise AssertionError("a product was computed")

    for name in ("star_multiply", "_monomial_product", "_monomial_walk"):
        monkeypatch.setattr(fdq.star, name, fail)
    with pytest.raises(ValueError, match="sample_degree must be >= 0"):
        check_star_axioms(weyl(1, 4), degree)


@pytest.mark.parametrize("spec, error", [
    (StarProductSpec(PhaseSpaceSignature(1, "fock"),
                     [[FormalSeries.lam(1, K)]], K), SignatureMismatch),
    (StarProductSpec(PhaseSpaceSignature(1, "fock"),
                     [[FormalSeries.lam(1, 1)]], 1), SignatureMismatch),
    (weyl(1, 1), PrecisionExhausted),
    (_holo_flat(1), PrecisionExhausted)],
    ids=["fock", "fock-K1", "weyl-K1", "holo-K1"])
def test_axioms_refuse_before_any_product(spec, error, monkeypatch):
    # A chart without a bracket first, then K = 1, then a negative degree:
    # each before any product is read or computed.
    def fail(*args):
        raise AssertionError("a product was computed")

    for name in ("star_multiply", "_monomial_product", "_monomial_walk"):
        monkeypatch.setattr(fdq.star, name, fail)
    for degree in (2, -1):
        with pytest.raises(error):
            check_star_axioms(spec, degree)


def reference_pairing(kind, n, K, chart):
    """The built-in pairing written out per degree of freedom r."""
    l = FormalSeries.lam(1, K)
    i_half = l.scalar_mul(GaussianRational(0, Fraction(1, 2)))
    L = [[FormalSeries.zero(K)] * (2 * n) for _ in range(2 * n)]
    for q in range(n):
        p = n + q
        if kind == "wick" and chart == "holo":
            L[q][p] = l.scalar_mul(2)
        elif kind == "std":
            L[p][q] = l.scalar_mul(GaussianRational(0, -1))
        else:
            L[q][p], L[p][q] = i_half, -i_half
            if kind == "wick":
                L[q][q] = L[p][p] = l.scalar_mul(Fraction(1, 2))
    return L


@pytest.mark.parametrize("K", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind, chart", [
    ("weyl", None), ("std", None), ("wick", "real"), ("wick", "holo"),
    ("wick", "fock"), ("wick", None)])
def test_builtin_pairings_match_their_formulas(kind, chart, n, K):
    if chart is None:
        spec = fdq.star.builtin_spec(kind, n, K)
    else:
        spec = wick(n, K, chart=chart)
    want = reference_pairing(kind, n, K, chart)
    assert spec.name == kind and spec.order == K
    assert spec.signature == PhaseSpaceSignature(
        n, "holo" if chart == "holo" else "real")
    assert [list(row) for row in spec.pairing] == want
    assert [[e.tail_lost for e in row] for row in spec.pairing] == \
        [[e.tail_lost for e in row] for row in want]
    assert spec == StarProductSpec(spec.signature, want, K, name=kind)
    assert spec._contractions == StarProductSpec(
        spec.signature, want, K)._contractions


def test_builtin_spec_rejects_unknown_kinds():
    for kind in ("custom", "wick-holo", "Weyl"):
        with pytest.raises(ValueError, match="unknown built-in star product"):
            fdq.star.builtin_spec(kind, 1, 4)
