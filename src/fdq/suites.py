"""Named property suites: the batch verification layer behind ``fdq suite``.

Each suite runs a deterministic list of cases (seeded where sampling is
involved) and returns a SuiteReport; ``all`` chains every suite.  Reports
print identically for identical config and seed; wall-clock time goes to
stderr only.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .errors import NotUnit, UnknownSuite
from .exprio import deserialize, observable_text, parse, serialize
from .functionals import (cauchy_schwarz_check, deform_delta, delta, evaluate,
                          positivity_scan, wick_value_oracle)
from .matrices import MatrixStarAlgebra, SeriesMatrix, series_matrix_inverse
from .modules import (GramVerdict, MoritaClassData, MoritaVerdict,
                      PreHilbertModule, classical_limit_module, fedosov_project,
                      fullness_check, gram_psd_check, idempotent_equivalence_verify,
                      morita_class_check, rieffel_tensor)
from .observables import (PhaseSpaceSignature, PolyObservable, eval_at_point,
                          involution, monomials_up_to, poisson_bracket,
                          to_holomorphic, to_real)
from .reps import (CandidateRep, MatrixFunctional, classical_limit_rep,
                   commutant, fock_inner, gns_build, gns_uniqueness_check,
                   schroedinger_rep, wickrep)
from .series import FormalSeries, GaussianRational, Sign
from .star import (StarProductSpec, check_star_axioms, op_n, op_s,
                   star_exponential_beta, star_multiply, std,
                   transported_product, weyl, wick)


class SuiteReport:
    """Outcome of one named suite: case counts plus failure witnesses."""

    def __init__(self, name, cases, failures, elapsed):
        self.name = name
        self.cases = cases
        self.failures = failures        # list of witness strings
        self.elapsed = elapsed

    @property
    def passed(self):
        return self.cases - len(self.failures)

    @property
    def ok(self):
        return not self.failures

    def text(self):
        lines = [f"suite {self.name}: {self.passed}/{self.cases} passed"]
        for w in self.failures:
            lines.append(f"  FAIL {w}")
        return "\n".join(lines)

    def to_json(self):
        return {
            "schema_version": 1,
            "type": "suite_report",
            "suite": self.name,
            "cases": self.cases,
            "passed": self.passed,
            "failed": len(self.failures),
            "failures": list(self.failures),
        }


class _Runner:
    def __init__(self, name):
        self.name = name
        self.cases = 0
        self.failures = []

    def check(self, label, ok):
        self.cases += 1
        if not ok:
            self.failures.append(label)

    def report(self, elapsed):
        return SuiteReport(self.name, self.cases, self.failures, elapsed)


# -- random generators (seeded) -----------------------------------------------------


def _rand_rational(rng, bound=6):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def _rand_gaussian(rng, bound=6):
    return GaussianRational(_rand_rational(rng, bound),
                            _rand_rational(rng, bound))


def _rand_series(rng, order, bound=6, real=False):
    coeffs = []
    for _ in range(order):
        if real:
            coeffs.append(GaussianRational(_rand_rational(rng, bound)))
        else:
            coeffs.append(_rand_gaussian(rng, bound))
    return FormalSeries(coeffs, order)


def _rand_observable(rng, signature, order, degree=3, terms=3):
    width = signature.width
    out = PolyObservable.zero(signature, order)
    for _ in range(terms):
        exp = [0] * width
        for _ in range(rng.randint(0, degree)):
            exp[rng.randrange(width)] += 1
        coeff = _rand_series(rng, order, 4)
        out = out + PolyObservable.monomial(signature, tuple(exp), order,
                                            coeff)
    return out


# -- individual suites -----------------------------------------------------------------


def _suite_series_ring(config, rng):
    r = _Runner("series-ring")
    K = config.K
    for case in range(40):
        a = _rand_series(rng, K)
        b = _rand_series(rng, K)
        c = _rand_series(rng, K)
        r.check(f"assoc #{case}", (a * b) * c == a * (b * c))
        r.check(f"distrib #{case}", a * (b + c) == a * b + a * c)
        r.check(f"commut #{case}", a * b == b * a)
    for case in range(40):
        a = _rand_series(rng, K, real=True)
        b = _rand_series(rng, K, real=True)
        sa, sb = a.sign(), b.sign()
        if Sign.ZERO_UP_TO_K in (sa, sb):
            prod_ok = (a * b).sign() is Sign.ZERO_UP_TO_K
        else:
            want = Sign.POSITIVE if sa == sb else Sign.NEGATIVE
            prod_ok = (a * b).sign() is want
        r.check(f"sign-mul #{case}", prod_ok)
        if sa == sb and sa is not Sign.ZERO_UP_TO_K:
            r.check(f"sign-add #{case}", (a + b).sign() is sa)
    for case in range(40):
        z = _rand_series(rng, K)
        r.check(f"conj-square #{case}",
                (z * z.conjugate()).sign() in (Sign.POSITIVE,
                                               Sign.ZERO_UP_TO_K))
    for case in range(100):
        u = _rand_series(rng, K)
        a = FormalSeries((GaussianRational(1),) + u.coeffs[1:], K)
        root = a.sqrt_binomial(Fraction(1, 2))
        r.check(f"sqrt-roundtrip #{case}", root * root == a)
        inv_root = a.sqrt_binomial(Fraction(-1, 2))
        r.check(f"inv-sqrt #{case}", (inv_root * inv_root) * a ==
                FormalSeries.one(K))
    return r


def _suite_observables(config, rng):
    r = _Runner("observables")
    K = config.K
    sig = PhaseSpaceSignature(config.n, "real")
    for case in range(25):
        f = _rand_observable(rng, sig, K)
        g = _rand_observable(rng, sig, K)
        h = _rand_observable(rng, sig, K)
        r.check(f"leibniz #{case}",
                poisson_bracket(f * g, h) ==
                f * poisson_bracket(g, h) + poisson_bracket(f, h) * g)
        jac = (poisson_bracket(f, poisson_bracket(g, h))
               + poisson_bracket(g, poisson_bracket(h, f))
               + poisson_bracket(h, poisson_bracket(f, g)))
        r.check(f"jacobi #{case}", jac.is_zero())
        r.check(f"involution-antiauto #{case}",
                involution(f * g) == involution(f) * involution(g))
        r.check(f"involution-involutive #{case}",
                involution(involution(f)) == f)
        r.check(f"convert-roundtrip #{case}", to_real(to_holomorphic(f)) == f)
        r.check(f"convert-involution #{case}",
                to_holomorphic(involution(f)) == involution(to_holomorphic(f)))
    return r


def _corrupted_weyl(n, order):
    """Weyl pairing with the antisymmetrization dropped: only +il/2 dq (x) dp."""
    base = weyl(n, order)
    sig = base.signature
    w = sig.width
    zero = FormalSeries.zero(order)
    half_i_l = FormalSeries.lam(1, order).scalar_mul(
        GaussianRational(0, Fraction(1, 2)))
    pairing = [[zero] * w for _ in range(w)]
    for k in range(n):
        pairing[k][n + k] = half_i_l
    return StarProductSpec(sig, pairing, order, name="corrupted")


def _suite_star_axioms(config, rng):
    r = _Runner("star-axioms")
    K = max(4, config.K if config.K else 4)
    for builder in (weyl, wick, std):
        spec = builder(config.n, K)
        rep = check_star_axioms(spec, 3)
        for name, (ok, witness) in rep.checks.items():
            if spec.name == "std" and name == "hermitian":
                # Standard ordering is not compatible with conjugation:
                # p * q = qp - il while conj(q * p) = qp.  The checker must
                # report that failure with a concrete witness.
                r.check("std/hermitian correctly refuted with witness",
                        (not ok) and witness is not None)
                continue
            r.check(f"{spec.name}/{name}" + (f" [{witness}]" if witness
                                             else ""), ok)
    bad = check_star_axioms(_corrupted_weyl(config.n, K), 3)
    ok_c1, witness = bad.checks["correspondence_c1"]
    r.check("corrupted pairing refuted with witness",
            (not ok_c1) and witness is not None)
    return r


def _suite_equivalence_transport(config, rng):
    r = _Runner("equivalence-transport")
    K = config.K
    n = config.n
    w = weyl(n, K)
    wk = wick(n, K)
    st = std(n, K)
    s_op = op_s(n, K)
    n_op = op_n(n, K)
    monos = monomials_up_to(w.signature, 3, K)
    for f in monos:
        for g in monos:
            lhs = transported_product(s_op, w, f, g)
            r.check(f"S:weyl->wick ({observable_text(f)},{observable_text(g)})",
                    lhs == star_multiply(wk, f, g))
            lhs2 = transported_product(n_op, w, f, g)
            r.check(f"N:weyl->std ({observable_text(f)},{observable_text(g)})",
                    lhs2 == star_multiply(st, f, g))
    return r


def _suite_wick_positivity(config, rng):
    r = _Runner("wick-positivity")
    K = config.K
    for n in (1, 2) if config.n == 1 else (config.n,):
        spec = wick(n, K)
        d0 = delta(spec.signature)
        report = positivity_scan(d0, spec, 3)
        r.check(f"n={n}: no negative verdict",
                report.positive_on_samples())
        # Term-by-term agreement with the explicit derivative-sum formula.
        monos = monomials_up_to(spec.signature, 3, K)
        for f in monos:
            value = evaluate(d0, star_multiply(spec, involution(f), f))
            oracle = wick_value_oracle(to_holomorphic(f), K)
            r.check(f"n={n}: oracle match {observable_text(f)}",
                    value == oracle)
    return r


def _suite_deformed_state(config, rng):
    r = _Runner("deformed-state")
    K = config.K
    sig = PhaseSpaceSignature(1, "real")
    w = weyl(1, K)
    dd = deform_delta(sig, order=K)
    report = positivity_scan(dd, w, 3)
    r.check("deformed delta positive on degree-3 samples",
            report.positive_on_samples())
    h = parse("1/2*(p1^2 + q1^2)", 1, K)
    value = evaluate(dd, star_multiply(w, involution(h), h))
    quarter = FormalSeries.lam(2, K).scalar_mul(Fraction(1, 4))
    r.check("oscillator square evaluates to +l^2/4", value == quarter)
    r.check("classical limit is the delta functional",
            evaluate(dd, h).classical_limit() ==
            eval_at_point(h, (0, 0)).classical_limit())
    return r


def _suite_bargmann_fock(config, rng):
    r = _Runner("bargmann-fock")
    K = config.K
    hsig = PhaseSpaceSignature(1, "holo")
    wk = wick(1, K, chart="holo")
    monos = monomials_up_to(hsig, 3, K)
    focks = monomials_up_to(PhaseSpaceSignature(1, "fock"), 3, K)
    z = parse("z1", 1, K, "holo")
    zb = parse("zb1", 1, K, "holo")
    two_l = FormalSeries.lam(1, K).scalar_mul(2)
    r.check("rep(z) = 2l d/dyb", wickrep(z).terms == {
        (1,): PolyObservable.constant(PhaseSpaceSignature(1, "fock"), two_l)})
    r.check("rep(zb) = yb", wickrep(zb).terms == {
        (0,): PolyObservable.variable(PhaseSpaceSignature(1, "fock"), 0, K)})
    for f in monos:
        for g in monos:
            r.check(f"homomorphism ({observable_text(f)},{observable_text(g)})",
                    wickrep(star_multiply(wk, f, g)) ==
                    wickrep(f).compose(wickrep(g)))
    for f in monos:
        op = wickrep(f)
        op_star = wickrep(involution(f))
        for phi in focks[:6]:
            for psi in focks[:6]:
                r.check(f"adjoint law {observable_text(f)}"
                        f" <{observable_text(phi)},{observable_text(psi)}>",
                        fock_inner(phi, op.apply(psi)) ==
                        fock_inner(op_star.apply(phi), psi))
    return r


def _suite_schroedinger(config, rng):
    r = _Runner("schroedinger")
    K = config.K
    sig = PhaseSpaceSignature(1, "real")
    w = weyl(1, K)
    st = std(1, K)
    monos = monomials_up_to(sig, 3, K)
    waves = monomials_up_to(PhaseSpaceSignature(1, "wave"), 3, K)
    q = parse("q1", 1, K)
    p = parse("p1", 1, K)
    wsig = PhaseSpaceSignature(1, "wave")
    minus_il = FormalSeries.lam(1, K).scalar_mul(GaussianRational(0, -1))
    r.check("rho_weyl(q) is multiplication by q",
            schroedinger_rep("weyl", q).terms == {
                (0,): PolyObservable.variable(wsig, 0, K)})
    r.check("rho_weyl(p) = -il d/dq",
            schroedinger_rep("weyl", p).terms == {
                (1,): PolyObservable.constant(wsig, minus_il)})
    for kind, spec in (("weyl", w), ("std", st)):
        for f in monos:
            for g in monos:
                r.check(f"{kind} homomorphism ({observable_text(f)},"
                        f"{observable_text(g)})",
                        schroedinger_rep(kind, star_multiply(spec, f, g)) ==
                        schroedinger_rep(kind, f).compose(
                            schroedinger_rep(kind, g)))
    for f in monos:
        r.check(f"weyl adjoint law {observable_text(f)}",
                schroedinger_rep("weyl", f).formal_adjoint() ==
                schroedinger_rep("weyl", involution(f)))
    # Operators act on wave functions as a representation:
    # rho(f * f) psi = rho(f) (rho(f) psi).
    for f in monos[:6]:
        op = schroedinger_rep("weyl", f)
        square = schroedinger_rep("weyl", star_multiply(w, f, f))
        for psi in waves[:4]:
            r.check(f"acts on {observable_text(psi)}",
                    square.apply(psi) == op.apply(op.apply(psi)))
    return r


def _suite_gns_matrix(config, rng):
    r = _Runner("gns-matrix")
    K = config.K
    alg = MatrixStarAlgebra(2, K)
    # omega(A) = A11 recovers the defining representation.
    w11 = MatrixFunctional(SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], K))
    res = gns_build(alg, w11)
    r.check("omega=A11: 2-dimensional quotient", res.dimension == 2)
    r.check("omega=A11: identity Gram",
            res.gram == SeriesMatrix.identity(2, K))
    cand = CandidateRep(pi=lambda a: a, gram=SeriesMatrix.identity(2, K),
                        cyclic=[FormalSeries.one(K), FormalSeries.zero(K)])
    r.check("unitary equivalence with the defining representation",
            gns_uniqueness_check(res, cand))
    one_plus_l = FormalSeries.one(K) + FormalSeries.lam(1, K)
    cand_scaled = CandidateRep(pi=lambda a: a,
                               gram=SeriesMatrix.identity(2, K),
                               cyclic=[one_plus_l, FormalSeries.zero(K)])
    r.check("scaled cyclic vector fails the isometry",
            not gns_uniqueness_check(res, cand_scaled))
    # m=1, identity functional.
    sc = MatrixStarAlgebra(1, K)
    res1 = gns_build(sc, MatrixFunctional(SeriesMatrix.identity(1, K)))
    r.check("scalar GNS is 1-dimensional", res1.dimension == 1)
    r.check("scalar GNS is the identity representation",
            res1.pi[0] == SeriesMatrix.identity(1, K))
    # Vacuum expectation recovers omega on the basis.
    for t, b in enumerate(alg.basis()):
        r.check(f"vacuum expectation {alg.basis_labels()[t]}",
                res.vacuum_expectation(b) == w11(b))
    # Commutants: Schur for the defining representation, the opposite algebra
    # for the left regular one.
    basis = alg.basis()
    r.check("commutant of defining rep is scalars",
            len(commutant(basis)) == 1)
    left_reg = []
    for b in basis:
        cols = [alg.to_coords(b @ c) for c in basis]
        left_reg.append(SeriesMatrix.from_columns(cols, K))
    comm = commutant(left_reg)
    r.check("left regular commutant has dimension 4", len(comm) == 4)
    right_mults = []
    for b in basis:
        cols = [alg.to_coords(c @ b) for c in basis]
        right_mults.append(SeriesMatrix.from_columns(cols, K))
    for i, rm in enumerate(right_mults):
        ok = all(x @ rm == rm @ x for x in left_reg)
        r.check(f"right multiplication #{i} commutes", ok)
    return r


def _suite_gns_classical_limit(config, rng):
    r = _Runner("gns-classical-limit")
    K = config.K
    alg = MatrixStarAlgebra(2, K)
    lam = FormalSeries.lam(1, K)
    weights = SeriesMatrix([[FormalSeries.one(K), FormalSeries.zero(K)],
                            [FormalSeries.zero(K), lam]], K)
    res = gns_build(alg, MatrixFunctional(weights))
    r.check("faithful functional: 4-dimensional quotient", res.dimension == 4)
    limit = classical_limit_rep(res.gram, res.pi)
    r.check("classical limit is 2-dimensional", limit.dimension == 2)
    # Classical GNS of omega_0(A) = A11, built at order 1.
    alg0 = MatrixStarAlgebra(2, 1)
    w0 = MatrixFunctional(SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], 1))
    res0 = gns_build(alg0, w0)
    cyc0 = limit.reduce_vector(
        [FormalSeries.from_scalar(c.classical_limit(), 1)
         for c in res.cyclic])

    def limit_pi(a0):
        # The generators of res are the matrix units, so any unit of the
        # classical algebra picks out its induced operator.
        for g, mat0 in zip(res.generators, limit.matrices0):
            if g.classical_limit() == a0:
                return mat0
        raise ValueError("element outside the generator list")

    cand = CandidateRep(pi=limit_pi, gram=limit.gram0, cyclic=cyc0)
    r.check("classical limit unitarily equivalent to GNS of omega_0",
            gns_uniqueness_check(res0, cand))
    # Functoriality: cl(AB) = cl(A)cl(B) and cl(A*) = cl(A)* on adjointables.
    for case in range(10):
        a = SeriesMatrix([[_rand_series(rng, K) for _ in range(2)]
                          for _ in range(2)], K)
        b = SeriesMatrix([[_rand_series(rng, K) for _ in range(2)]
                          for _ in range(2)], K)
        lim = classical_limit_rep(SeriesMatrix.identity(2, K),
                                  [a, b, a @ b, a.adjoint()])
        la, lb, lab, lastar = lim.matrices0
        r.check(f"functor composition #{case}", la @ lb == lab)
        r.check(f"functor adjoint #{case}", la.adjoint() == lastar)
    return r


def _suite_fedosov(config, rng):
    r = _Runner("fedosov")
    K = config.K
    lam = FormalSeries.lam(1, K)
    e12 = SeriesMatrix.unit(2, 0, 1, K)
    alg = MatrixStarAlgebra(2, K, deform=e12)
    half = Fraction(1, 2)
    p0 = SeriesMatrix.from_scalar_rows([[half, half], [half, half]], K)
    p = fedosov_project(p0, alg)
    factor = FormalSeries.from_scalar(GaussianRational(2), K) * \
        (FormalSeries.from_scalar(GaussianRational(2), K) + lam).invert()
    r.check("closed form (2/(2+l)) P0", p == p0.scale(factor))
    r.check("closed form is star-idempotent", alg.product(p, p) == p)
    # Random classical idempotents in the deformed family over M2, M3.
    done = 0
    attempts = 0
    while done < 50 and attempts < 500:
        attempts += 1
        m = 2 if done % 2 == 0 else 3
        # Random idempotent: conjugate a diagonal 0/1 pattern.
        diag = [rng.randint(0, 1) for _ in range(m)]
        s = [[Fraction(rng.randint(-3, 3)) for _ in range(m)]
             for _ in range(m)]
        smat = SeriesMatrix.from_scalar_rows(s, K)
        try:
            sinv = series_matrix_inverse(smat)
        except NotUnit:
            continue
        d0 = SeriesMatrix.from_scalar_rows(
            [[diag[i] if i == j else 0 for j in range(m)] for i in range(m)],
            K)
        p0r = smat @ d0 @ sinv
        e = SeriesMatrix([[_rand_series(rng, K, 2) for _ in range(m)]
                          for _ in range(m)], K)
        alg_r = MatrixStarAlgebra(m, K, deform=e)
        pr = fedosov_project(p0r, alg_r)
        r.check(f"random idempotent #{done}: P*P = P",
                alg_r.product(pr, pr) == pr)
        r.check(f"random idempotent #{done}: classical limit is P0",
                pr.classical_limit() == p0r.classical_limit())
        done += 1
    # Hermitian preservation with a Hermitian deformation.
    eh = SeriesMatrix.from_scalar_rows([[0, 1], [1, 0]], K)
    algh = MatrixStarAlgebra(2, K, deform=eh)
    ph = fedosov_project(p0, algh)
    r.check("Hermitian P0 and product give Hermitian P", ph.is_hermitian())
    r.check("Hermitian projection is star-idempotent",
            algh.product(ph, ph) == ph)
    # Equivalence verification with honest witnesses via a -> a(1+lE).
    t_inv = SeriesMatrix.identity(2, K) - e12.scale(lam)
    e11 = SeriesMatrix.unit(2, 0, 0, K)
    pp = (e11 + e12) @ t_inv
    qq = e11 @ t_inv
    r.check("transported idempotents verified",
            idempotent_equivalence_verify(pp, qq, e11 @ t_inv,
                                          (e11 + e12) @ t_inv, alg))
    r.check("mismatched pair rejected",
            not idempotent_equivalence_verify(pp, pp, e11 @ t_inv,
                                              (e11 + e12) @ t_inv, alg))
    return r


def _suite_rieffel(config, rng):
    r = _Runner("rieffel")
    K = config.K
    scalars = MatrixStarAlgebra(1, K)
    lam = FormalSeries.lam(1, K)
    one = FormalSeries.one(K)
    zero = FormalSeries.zero(K)

    def smat(x):
        return SeriesMatrix([[x]], K)

    unit_bimodule = PreHilbertModule(scalars, 1, [[scalars.unit()]],
                                     left_algebra=scalars,
                                     left_action=lambda b: [[b]])
    gf = [[smat(one + lam), smat(lam)], [smat(lam), smat(one)]]
    f_mod = PreHilbertModule(scalars, 2, gf)
    ind = rieffel_tensor(f_mod, unit_bimodule)
    r.check("unit bimodule preserves rank", ind.rank == 2)
    r.check("unit bimodule preserves the Gram", ind.gram == f_mod.gram)

    m2 = MatrixStarAlgebra(2, K)
    f2 = PreHilbertModule(m2, 1, [[m2.unit()]], left_algebra=m2,
                          left_action=lambda c: [[c]])
    col = PreHilbertModule(
        scalars, 2, [[smat(one), smat(zero)], [smat(zero), smat(one)]],
        left_algebra=m2,
        left_action=lambda b: [[smat(b.rows[i][j]) for j in range(2)]
                               for i in range(2)])
    ind2 = rieffel_tensor(f2, col)
    r.check("column module induction has rank 2", ind2.rank == 2)
    ident = all(ind2.gram[i][j] == (smat(one) if i == j else smat(zero))
                for i in range(2) for j in range(2))
    r.check("column module induction has the identity Gram", ident)
    e12_act = ind2.left_action(SeriesMatrix.from_scalar_rows([[0, 1], [0, 0]],
                                                             K))
    r.check("induced action is the defining one",
            e12_act[0][1] == smat(one) and e12_act[0][0] == smat(zero))

    zero_gram = PreHilbertModule(
        scalars, 2, [[smat(zero)] * 2, [smat(zero)] * 2],
        left_algebra=scalars,
        left_action=lambda b: [[b, smat(zero)], [smat(zero), b]])
    f1 = PreHilbertModule(scalars, 1, [[smat(one)]], left_algebra=scalars,
                          left_action=lambda b: [[b]])
    r.check("zero Gram induces the zero module",
            rieffel_tensor(f1, zero_gram).rank == 0)

    # Induced Grams stay completely positive on sampled pairs/triples.
    for case in range(10):
        draws = [_rand_series(rng, K, 2) for _ in range(2)]
        diag = [one + (s * s.conjugate()) * FormalSeries.lam(1, K)
                for s in draws]
        gmod = PreHilbertModule(scalars, 2,
                                [[smat(diag[0]), smat(zero)],
                                 [smat(zero), smat(diag[1])]])
        induced = rieffel_tensor(gmod, unit_bimodule)
        r.check(f"induced Gram PSD #{case}",
                gram_psd_check(induced.flatten_gram()) is not
                GramVerdict.NOT_PSD)
    # Fullness of canonical modules.
    r.check("canonical module is full",
            fullness_check(PreHilbertModule.free(scalars, 2)))
    lam_mod = PreHilbertModule(scalars, 2,
                               [[smat(lam), smat(zero)],
                                [smat(zero), smat(lam)]])
    r.check("l-scaled module is not full", not fullness_check(lam_mod))
    r.check("classical limit of l-scaled module has rank 0",
            classical_limit_module(lam_mod).dimension == 0)
    return r


def _suite_morita(config, rng):
    r = _Runner("morita")
    K = config.K

    def cls(*texts):
        from .exprio import parse_series
        return MoritaClassData(len(texts), [parse_series(t, K) for t in texts])

    r.check("integer difference is equivalent",
            morita_class_check(cls("0"), cls("3")) is MoritaVerdict.EQUIVALENT)
    r.check("half-integer difference is not",
            morita_class_check(cls("0"), cls("1/2")) is
            MoritaVerdict.NOT_EQUIVALENT)
    r.check("l-dependent difference is not",
            morita_class_check(cls("0"), cls("l")) is
            MoritaVerdict.NOT_EQUIVALENT)
    # Equivalence-relation kernel on a 20-triple sample.
    pool = []
    for _ in range(12):
        base = _rand_series(rng, K, 3, real=True)
        pool.append(base)
    triples = 0
    for case in range(60):
        a = rng.choice(pool)
        shift_b = FormalSeries.from_scalar(
            GaussianRational(rng.randint(-3, 3)), K)
        shift_c = FormalSeries.from_scalar(
            GaussianRational(rng.randint(-3, 3)), K)
        b = a + shift_b
        c = a + shift_c
        ca, cb, cc = (MoritaClassData(1, [x]) for x in (a, b, c))
        vab = morita_class_check(ca, cb)
        vbc = morita_class_check(cb, cc)
        vac = morita_class_check(ca, cc)
        if MoritaVerdict.INDETERMINATE in (vab, vbc, vac):
            continue
        triples += 1
        r.check(f"reflexive #{case}",
                morita_class_check(ca, ca) is MoritaVerdict.EQUIVALENT)
        r.check(f"symmetric #{case}", vab is morita_class_check(cb, ca))
        if vab is MoritaVerdict.EQUIVALENT and vbc is MoritaVerdict.EQUIVALENT:
            r.check(f"transitive #{case}", vac is MoritaVerdict.EQUIVALENT)
        if triples >= 20:
            break
    return r


def _suite_roundtrip(config, rng):
    r = _Runner("roundtrip")
    K = config.K
    count = matched = 0
    for case in range(1000):
        kind = case % 3
        if kind == 0:
            sig = PhaseSpaceSignature(1 + case % 2, "real")
        elif kind == 1:
            sig = PhaseSpaceSignature(1 + case % 2, "holo")
        else:
            sig = PhaseSpaceSignature(1 + case % 2, "fock")
        f = _rand_observable(rng, sig, K, degree=4, terms=4)
        text = observable_text(f)
        if parse(text, sig.n, K, sig.chart) == f:
            matched += 1
        else:
            r.check(f"parse(print(.)) #{case}: {text}", False)
        count += 1
    r.check(f"parse/print identity on {count} generated values",
            matched == count)
    for case in range(50):
        s = _rand_series(rng, K)
        r.check(f"series json roundtrip #{case}",
                deserialize(serialize(s)) == s)
        sig = PhaseSpaceSignature(1 + case % 2, "real")
        f = _rand_observable(rng, sig, K)
        r.check(f"observable json roundtrip #{case}",
                deserialize(serialize(f)) == f)
    for builder in (weyl, wick, std):
        spec = builder(config.n, K)
        r.check(f"spec json roundtrip {spec.name}",
                deserialize(serialize(spec)) == spec)
    op = op_s(config.n, K)
    r.check("operator json roundtrip", deserialize(serialize(op)) == op)
    return r


def _suite_star_exponential(config, rng):
    r = _Runner("star-exponential")
    K = config.K
    w = weyl(1, K)
    q = parse("q1", 1, K)
    coeffs = star_exponential_beta(w, q, 4)
    fact = 1
    for k in range(5):
        if k:
            fact *= k
        expected = (q ** k).scale_scalar(Fraction((-1) ** k, fact))
        r.check(f"position generator e_{k} = (-q)^{k}/{k}!",
                coeffs[k] == expected)
    h = parse("1/2*(p1^2 + q1^2)", 1, K)
    coeffs_h = star_exponential_beta(w, h, 2)
    want = star_multiply(w, h, h).scale_scalar(Fraction(1, 2))
    r.check("oscillator e_2 = (H*H)/2", coeffs_h[2] == want)
    r.check("beta order 0 gives [1]",
            star_exponential_beta(w, h, 0) ==
            [PolyObservable.one(w.signature, K)])
    # Defining recursion holds for a random Hermitian observable.
    f = _rand_observable(rng, w.signature, K, degree=2, terms=2)
    f = f + involution(f)
    es = star_exponential_beta(w, f, 4)
    for k in range(1, 5):
        r.check(f"recursion at k={k}",
                es[k] == star_multiply(w, f, es[k - 1]).scale_scalar(
                    Fraction(-1, k)))
    return r


def _suite_cauchy_schwarz(config, rng):
    r = _Runner("cauchy-schwarz")
    K = config.K
    wk = wick(1, K)
    sig = wk.signature
    d0 = delta(sig)
    one = parse("1", 1, K)
    z = parse("q1 + i*p1", 1, K)
    zb = parse("q1 - i*p1", 1, K)
    r.check("CS(1, zb) positive",
            cauchy_schwarz_check(d0, wk, one, zb) is Sign.POSITIVE)
    r.check("CS(a, a) zero",
            cauchy_schwarz_check(d0, wk, zb, zb) is Sign.ZERO_UP_TO_K)
    r.check("CS(z, zb) zero",
            cauchy_schwarz_check(d0, wk, z, zb) is Sign.ZERO_UP_TO_K)
    monos = monomials_up_to(sig, 2, K)
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            verdict = cauchy_schwarz_check(d0, wk, a, b)
            r.check(f"CS sign #{i},{j}", verdict in (Sign.POSITIVE,
                                                     Sign.ZERO_UP_TO_K))
    return r


_SUITES = {
    "series-ring": _suite_series_ring,
    "observables": _suite_observables,
    "star-axioms": _suite_star_axioms,
    "equivalence-transport": _suite_equivalence_transport,
    "wick-positivity": _suite_wick_positivity,
    "deformed-state": _suite_deformed_state,
    "bargmann-fock": _suite_bargmann_fock,
    "schroedinger": _suite_schroedinger,
    "gns-matrix": _suite_gns_matrix,
    "gns-classical-limit": _suite_gns_classical_limit,
    "fedosov": _suite_fedosov,
    "rieffel": _suite_rieffel,
    "morita": _suite_morita,
    "star-exponential": _suite_star_exponential,
    "cauchy-schwarz": _suite_cauchy_schwarz,
    "roundtrip": _suite_roundtrip,
}


def suite_names():
    return list(_SUITES) + ["all"]


def property_suite(name, config):
    """Run one suite (or ``all``) and return the reports."""
    if name == "all":
        reports = []
        for key in _SUITES:
            reports.extend(property_suite(key, config))
        return reports
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: "
                           f"{', '.join(suite_names())}")
    rng = random.Random(config.seed)
    start = time.monotonic()
    runner = _SUITES[name](config, rng)
    return [runner.report(time.monotonic() - start)]
