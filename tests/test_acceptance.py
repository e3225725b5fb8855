"""Acceptance battery: one test per criterion, exact equalities only.

Each test prints a single pass line on success (run with ``pytest -s`` to see
them); a failure surfaces as an ordinary pytest failure.  Wall-clock budgets
are asserted per criterion.
"""

import hashlib
import io
import time
from fractions import Fraction

from fdq.cli import run_command
from fdq.exprio import observable_text, parse
from fdq.functionals import (deform_delta, delta, evaluate, positivity_scan,
                             wick_value_oracle)
from fdq.matrices import MatrixStarAlgebra, SeriesMatrix
from fdq.modules import (GramVerdict, MoritaClassData, MoritaVerdict,
                         PreHilbertModule, fedosov_project, gram_psd_check,
                         morita_class_check, rieffel_tensor)
from fdq.observables import (PhaseSpaceSignature, PolyObservable, involution,
                             monomials_up_to, to_holomorphic)
from fdq.reps import (CandidateRep, MatrixFunctional, classical_limit_rep,
                      fock_inner, gns_build, gns_uniqueness_check,
                      schroedinger_rep, wickrep)
from fdq.series import FormalSeries, GaussianRational, Sign
from fdq.star import (StarProductSpec, check_star_axioms, commutator, op_n,
                      op_s, star_multiply, std, transported_product, weyl,
                      wick)

K = 6


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, \
                f"runtime {self.elapsed:.1f}s exceeds {self.seconds}s budget"
        return False


def _report(number, text):
    print(f"criterion {number:2d}: PASS  {text}")


def test_criterion_01_oscillator_identity():
    with _Budget(1):
        h = parse("1/2*(p1^2 + q1^2)", 1, K)
        w = weyl(1, K)
        prod = star_multiply(w, h, h)
        correction = FormalSeries.lam(2, K).scalar_mul(Fraction(-1, 4))
        expected = h * h + PolyObservable.constant(h.signature, correction)
        assert prod == expected
        value = evaluate(delta(h.signature), prod)
        assert value == correction
        assert value.sign() is Sign.NEGATIVE
    _report(1, "H * H = H^2 - l^2/4 and delta_0 of it is -l^2/4 < 0")


def test_criterion_02_canonical_commutation():
    with _Budget(1):
        w = weyl(1, K)
        got = commutator(w, parse("q1", 1, K), parse("p1", 1, K))
        il = FormalSeries.lam(1, K).scalar_mul(GaussianRational(0, 1))
        assert got == PolyObservable.constant(w.signature, il)
        for r in range(2, K):
            assert got.lambda_coefficient(r).is_zero()
    _report(2, "commutator(weyl, q, p) = i l exactly, higher orders vanish")


def test_criterion_03_wick_positivity():
    with _Budget(30):
        for n in (1, 2):
            spec = wick(n, K)
            d0 = delta(spec.signature)
            report = positivity_scan(d0, spec, 3)
            assert report.positive_on_samples()
            for _, value, verdict in report.rows:
                assert verdict in (Sign.POSITIVE, Sign.ZERO_UP_TO_K)
            for f in monomials_up_to(spec.signature, 3, K):
                got = evaluate(d0, star_multiply(spec, involution(f), f))
                assert got == wick_value_oracle(to_holomorphic(f), K)
    _report(3, "delta_0 positive for the normal-ordered product; values "
               "match the derivative-sum formula term by term (n = 1, 2)")


def test_criterion_04_equivalence_transport():
    with _Budget(60):
        w, wk, st = weyl(1, K), wick(1, K), std(1, K)
        s_op, n_op = op_s(1, K), op_n(1, K)
        monos = monomials_up_to(w.signature, 3, K)
        for f in monos:
            for g in monos:
                assert transported_product(s_op, w, f, g) == \
                    star_multiply(wk, f, g)
                assert transported_product(n_op, w, f, g) == \
                    star_multiply(st, f, g)
    _report(4, "transport along S maps weyl to wick, along N to std, on all "
               "monomial pairs to degree 3")


def test_criterion_05_star_axiom_suite():
    with _Budget(60):
        for builder in (weyl, wick):
            report = check_star_axioms(builder(1, 4), 3)
            assert report.all_passed(), report.checks
        report_std = check_star_axioms(std(1, 4), 3)
        for name in ("unit", "correspondence_c0", "correspondence_c1",
                     "associativity"):
            assert report_std.checks[name][0]
        # Standard ordering genuinely violates the conjugation axiom
        # (p * q = qp - il); the checker must report that with a witness.
        ok, witness = report_std.checks["hermitian"]
        assert not ok and witness is not None
        # A deliberately corrupted pairing is refuted with a concrete witness.
        zero = FormalSeries.zero(4)
        half_i_l = FormalSeries.lam(1, 4).scalar_mul(
            GaussianRational(0, Fraction(1, 2)))
        bad = StarProductSpec(PhaseSpaceSignature(1, "real"),
                              [[zero, half_i_l], [zero, zero]], 4, name="bad")
        bad_report = check_star_axioms(bad, 3)
        ok_c1, witness = bad_report.checks["correspondence_c1"]
        assert not ok_c1 and "q1" in witness and "p1" in witness
    _report(5, "axiom battery: weyl/wick pass all five at K = 4; std's "
               "conjugation failure and a corrupted pairing are refuted "
               "with witnesses")


def test_criterion_06_deformed_state():
    with _Budget(10):
        sig = PhaseSpaceSignature(1, "real")
        w = weyl(1, K)
        dd = deform_delta(sig, order=K)
        report = positivity_scan(dd, w, 3)
        assert report.positive_on_samples()
        h = parse("1/2*(p1^2 + q1^2)", 1, K)
        value = evaluate(dd, star_multiply(w, involution(h), h))
        assert value == FormalSeries.lam(2, K).scalar_mul(Fraction(1, 4))
    _report(6, "delta_0 o exp(l Delta) positive on degree-3 samples; "
               "oscillator square evaluates to +l^2/4")


def test_criterion_07_bargmann_fock():
    with _Budget(30):
        hsig = PhaseSpaceSignature(1, "holo")
        fsig = PhaseSpaceSignature(1, "fock")
        spec = wick(1, K, chart="holo")
        z, zb = parse("z1", 1, K, "holo"), parse("zb1", 1, K, "holo")
        two_l = FormalSeries.lam(1, K).scalar_mul(2)
        assert wickrep(z).terms == {
            (1,): PolyObservable.constant(fsig, two_l)}
        assert wickrep(zb).terms == {
            (0,): PolyObservable.variable(fsig, 0, K)}
        monos = monomials_up_to(hsig, 3, K)
        vectors = monomials_up_to(fsig, 3, K)
        for f in monos:
            for g in monos:
                assert wickrep(star_multiply(spec, f, g)) == \
                    wickrep(f).compose(wickrep(g))
        for f in monos:
            op, op_star = wickrep(f), wickrep(involution(f))
            for phi in vectors:
                for psi in vectors:
                    assert fock_inner(phi, op.apply(psi)) == \
                        fock_inner(op_star.apply(phi), psi)
    _report(7, "normal-ordered operators: multiplicative, adjoint law for "
               "the Fock inner product, creation/annihilation forms")


def test_criterion_08_schroedinger():
    with _Budget(30):
        w = weyl(1, K)
        wsig = PhaseSpaceSignature(1, "wave")
        q, p = parse("q1", 1, K), parse("p1", 1, K)
        minus_il = FormalSeries.lam(1, K).scalar_mul(GaussianRational(0, -1))
        assert schroedinger_rep("weyl", q).terms == {
            (0,): PolyObservable.variable(wsig, 0, K)}
        assert schroedinger_rep("weyl", p).terms == {
            (1,): PolyObservable.constant(wsig, minus_il)}
        monos = monomials_up_to(w.signature, 3, K)
        for f in monos:
            for g in monos:
                assert schroedinger_rep("weyl", star_multiply(w, f, g)) == \
                    schroedinger_rep("weyl", f).compose(
                        schroedinger_rep("weyl", g))
        for f in monos:
            assert schroedinger_rep("weyl", f).formal_adjoint() == \
                schroedinger_rep("weyl", involution(f))
    _report(8, "wave-function operators: q acts by multiplication, p by "
               "-il d/dq; homomorphism and adjoint laws to degree 3")


def test_criterion_09_gns_matrix():
    with _Budget(5):
        alg = MatrixStarAlgebra(2, K)
        omega = MatrixFunctional(
            SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], K))
        res = gns_build(alg, omega)
        assert res.dimension == 2
        assert res.gram == SeriesMatrix.identity(2, K)
        cand = CandidateRep(pi=lambda a: a, gram=SeriesMatrix.identity(2, K),
                            cyclic=[FormalSeries.one(K),
                                    FormalSeries.zero(K)])
        assert gns_uniqueness_check(res, cand)
    _report(9, "GNS of the corner functional on M2: 2-dimensional, identity "
               "Gram, unitarily equivalent to the defining representation")


def test_criterion_10_gns_classical_limit():
    with _Budget(5):
        alg = MatrixStarAlgebra(2, K)
        lam = FormalSeries.lam(1, K)
        weights = SeriesMatrix([[FormalSeries.one(K), FormalSeries.zero(K)],
                                [FormalSeries.zero(K), lam]], K)
        res = gns_build(alg, MatrixFunctional(weights))
        limit = classical_limit_rep(res.gram, res.pi)
        assert limit.dimension == 2
        alg0 = MatrixStarAlgebra(2, 1)
        res0 = gns_build(alg0, MatrixFunctional(
            SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], 1)))
        cyc0 = limit.reduce_vector(
            [FormalSeries.from_scalar(c.classical_limit(), 1)
             for c in res.cyclic])

        def limit_pi(a0):
            for g, mat0 in zip(res.generators, limit.matrices0):
                if g.classical_limit() == a0:
                    return mat0
            raise AssertionError("unexpected element")

        cand = CandidateRep(pi=limit_pi, gram=limit.gram0, cyclic=cyc0)
        assert gns_uniqueness_check(res0, cand)
    _report(10, "classical limit of the deformed GNS is unitarily "
                "equivalent to the GNS of the classical functional")


def test_criterion_11_fedosov():
    import random
    with _Budget(60):
        lam = FormalSeries.lam(1, K)
        e12 = SeriesMatrix.unit(2, 0, 1, K)
        alg = MatrixStarAlgebra(2, K, deform=e12)
        h = Fraction(1, 2)
        p0 = SeriesMatrix.from_scalar_rows([[h, h], [h, h]], K)
        p = fedosov_project(p0, alg)
        two = FormalSeries.from_scalar(GaussianRational(2), K)
        factor = two * (two + lam).invert()
        assert p == p0.scale(factor)
        assert alg.product(p, p) == p

        rng = random.Random(11)
        from fdq.matrices import series_matrix_inverse
        done = 0
        while done < 50:
            m = 2 if done % 2 == 0 else 3
            diag = [rng.randint(0, 1) for _ in range(m)]
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(m)]
                    for _ in range(m)]
            smat = SeriesMatrix.from_scalar_rows(rows, K)
            try:
                sinv = series_matrix_inverse(smat)
            except Exception:
                continue
            d0 = SeriesMatrix.from_scalar_rows(
                [[diag[i] if i == j else 0 for j in range(m)]
                 for i in range(m)], K)
            p0r = smat @ d0 @ sinv
            coeffs = lambda: FormalSeries(
                [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                 for _ in range(K)], K)
            e = SeriesMatrix([[coeffs() for _ in range(m)]
                              for _ in range(m)], K)
            alg_r = MatrixStarAlgebra(m, K, deform=e)
            pr = fedosov_project(p0r, alg_r)
            assert alg_r.product(pr, pr) == pr
            assert pr.classical_limit() == p0r.classical_limit()
            done += 1

        eh = SeriesMatrix.from_scalar_rows([[0, 1], [1, 0]], K)
        algh = MatrixStarAlgebra(2, K, deform=eh)
        ph = fedosov_project(p0, algh)
        assert ph.is_hermitian()
        assert algh.product(ph, ph) == ph
    _report(11, "deformed projection: closed form (2/(2+l)) P0 at K = 6; "
                "50 random classical idempotents deform to star-idempotents "
                "with the right classical limit; Hermitian data preserved")


def test_criterion_12_rieffel():
    with _Budget(30):
        scalars = MatrixStarAlgebra(1, K)
        lam = FormalSeries.lam(1, K)
        one = FormalSeries.one(K)

        def smat(x):
            return SeriesMatrix([[x]], K)

        unit_bim = PreHilbertModule(scalars, 1, [[scalars.unit()]],
                                    left_algebra=scalars,
                                    left_action=lambda b: [[b]])
        gf = [[smat(one + lam), smat(lam)], [smat(lam), smat(one)]]
        f_mod = PreHilbertModule(scalars, 2, gf)
        ind = rieffel_tensor(f_mod, unit_bim)
        assert ind.rank == 2 and ind.gram == f_mod.gram

        samples = [
            [smat(one), smat(FormalSeries.zero(K))],
            [smat(lam), smat(one)],
            [smat(one + lam), smat(lam)],
        ]
        for x in samples:
            for y in samples:
                assert gram_psd_check(ind.pair_gram(x, y)) is not \
                    GramVerdict.NOT_PSD
        # 3x3 sampled sub-Grams via a rank-3 induced module
        g3 = [[smat(one), smat(lam), smat(FormalSeries.zero(K))],
              [smat(lam), smat(one + lam), smat(lam)],
              [smat(FormalSeries.zero(K)), smat(lam), smat(one)]]
        mod3 = PreHilbertModule(scalars, 3, g3)
        ind3 = rieffel_tensor(mod3, unit_bim)
        assert gram_psd_check(ind3.flatten_gram()) is not GramVerdict.NOT_PSD
    _report(12, "unit-bimodule induction is the identity on Grams; induced "
                "Grams pass the positivity check on sampled sub-Grams")


def test_criterion_13_morita():
    import random
    with _Budget(1):
        def cls(text):
            from fdq.exprio import parse_series
            return MoritaClassData(1, [parse_series(text, K)])

        assert morita_class_check(cls("0"), cls("3")) is \
            MoritaVerdict.EQUIVALENT
        assert morita_class_check(cls("0"), cls("1/2")) is \
            MoritaVerdict.NOT_EQUIVALENT
        assert morita_class_check(cls("0"), cls("l")) is \
            MoritaVerdict.NOT_EQUIVALENT

        rng = random.Random(13)
        triples = 0
        while triples < 20:
            base = FormalSeries(
                [GaussianRational(Fraction(rng.randint(-6, 6),
                                           rng.randint(1, 4)))
                 for _ in range(K)], K)
            b = base + FormalSeries.from_scalar(
                GaussianRational(rng.randint(-3, 3)), K)
            c = base + FormalSeries.from_scalar(
                GaussianRational(Fraction(rng.randint(-3, 3),
                                          rng.choice((1, 2)))), K)
            ca, cb, cc = (MoritaClassData(1, [x]) for x in (base, b, c))
            vab = morita_class_check(ca, cb)
            vbc = morita_class_check(cb, cc)
            vac = morita_class_check(ca, cc)
            triples += 1
            assert morita_class_check(ca, ca) is MoritaVerdict.EQUIVALENT
            assert vab is morita_class_check(cb, ca)
            if vab is MoritaVerdict.EQUIVALENT and \
                    vbc is MoritaVerdict.EQUIVALENT:
                assert vac is MoritaVerdict.EQUIVALENT
    _report(13, "class difference 3 equivalent, 1/2 and l not; the decision "
                "is an equivalence-relation kernel on 20 sampled triples")


def test_criterion_14_roundtrip_and_determinism():
    import random
    with _Budget(120):
        rng = random.Random(14)
        count = 0
        for case in range(1000):
            n = 1 + case % 2
            chart = ("real", "holo", "fock")[case % 3]
            sig = PhaseSpaceSignature(n, chart)
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exp = tuple(rng.randint(0, 3) for _ in range(sig.width))
                coeffs = [GaussianRational(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                    for _ in range(K)]
                terms[exp] = FormalSeries(coeffs, K)
            f = PolyObservable(sig, terms, K)
            text = observable_text(f)
            assert parse(text, n, K, chart) == f
            count += 1
        assert count == 1000

        def run_suite_all():
            out, err = io.StringIO(), io.StringIO()
            code = run_command(["suite", "all", "--seed", "42", "--K", "4"],
                               out=out, err=err)
            return code, out.getvalue()

        code1, text1 = run_suite_all()
        code2, text2 = run_suite_all()
        assert code1 == code2 == 0
        assert text1 == text2
        # Pinned output: a faster kernel may not change a byte of it.
        assert hashlib.sha256(text1.encode()).hexdigest() == (
            "2a598ffe01020215bac4bf251ef6dc30db8b9ce307a944471b36c4b7ad8b6184")
    _report(14, "parse o print identity on 1000 generated values; "
                "'fdq suite all' is byte-identical across two seeded runs")
