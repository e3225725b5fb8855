"""The three benchmark workloads: seeded inputs, the calls into fdq, and the
checks that prove each output right.

A workload is an endless sequence of rounds; a round is a fixed sequence of
operation kinds, so every seed runs the same mix and only the operands
change.  Each
``Op`` pairs a zero-argument ``run`` (the timed calls into fdq) with a
``check`` that runs untimed, raises ``Mismatch`` on a wrong output and returns
the output's canonical text for the digest.

Calls into fdq go through module attributes (``star.star_multiply``), so the
tracer's wrappers see the benchmark's own calls as top-level spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import reference as R
from fdq import cli, exprio, functionals, matrices, modules, reps, star
from fdq.matrices import MatrixStarAlgebra, SeriesMatrix
from fdq.modules import GramVerdict
from fdq.observables import PhaseSpaceSignature, PolyObservable
from fdq.series import FormalSeries, GaussianRational, Sign


class Mismatch(Exception):
    """An output differs from its reference or known answer."""


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _expect(ok, what):
    if not ok:
        raise Mismatch(what)


def _dumps(payload):
    return json.dumps(payload, sort_keys=True)


# -- seeded values -------------------------------------------------------------------


def _rational(rng, bound=3):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _nonzero(rng, bound=3):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, bound),
                    rng.randint(1, bound))


def _gaussian(rng):
    return GaussianRational(_nonzero(rng),
                            _rational(rng) if rng.random() < 0.5 else 0)


def _series(rng, K):
    """c0 + c1 l with c0 != 0 and c1 present half the time."""
    return FormalSeries((_gaussian(rng),
                         _gaussian(rng) if rng.random() < 0.5 else 0), K)


def _exponent(rng, width, degree):
    exp = [0] * width
    for _ in range(degree):
        exp[rng.randrange(width)] += 1
    return tuple(exp)


def _poly(rng, sig, K, degrees):
    """One term per entry of ``degrees``; the shape is fixed so that every
    seed costs about the same, only exponents and coefficients vary."""
    terms = {}
    for d in degrees:
        exp = _exponent(rng, sig.width, d)
        c = _series(rng, K)
        terms[exp] = terms[exp] + c if exp in terms else c
    return PolyObservable(sig, terms, K)


def _point(rng, width):
    return tuple(GaussianRational(Fraction(rng.randint(-2, 2), 2))
                 for _ in range(width))


def _dominant(rng, rows, cols, bound=2, dense=False):
    """Gaussian-integer matrix whose leading rows x rows block is diagonally
    dominant, hence of full row rank.  With ``dense`` no entry is zero."""
    out = []
    for i in range(rows):
        row = [GaussianRational(rng.choice((-1, 1)) * rng.randint(1, bound)
                                if dense else rng.randint(-bound, bound),
                                rng.randint(-1, 1)) for _ in range(cols)]
        row[i] = GaussianRational(4 * bound * cols + rng.randint(1, 3))
        out.append(row)
    return out


def _series_matrix(const, K, rng=None, lpart=False):
    """const (+ l * small random integers when lpart) as a SeriesMatrix."""
    rows = []
    for row in const:
        rows.append([FormalSeries((c, GaussianRational(rng.randint(-1, 1))
                                   if lpart else 0), K) for c in row])
    return SeriesMatrix(rows, K)


# -- star-scan -----------------------------------------------------------------------

STAR_SPECS = [(kind, n, K) for K in (4, 6) for n in (1, 2)
              for kind in ("weyl", "wick", "std")]
_POOL = 16
_DEGREES = {1: (1, 2, 3), 2: (1, 2, 2)}


class _StarScan:
    """Products, transports, positivity and representation checks on a
    seeded operand pool per (n, K); no matrix elimination runs."""

    def __init__(self, seed):
        self.rng = random.Random(f"star-scan/{seed}")
        rng = self.rng
        self.specs = {key: star.builtin_spec(*key) for key in STAR_SPECS}
        self.holo = {}
        self.pool = {}
        self.holo_pool = {}
        self.points = {}
        for n in (1, 2):
            for K in (4, 6):
                sig = PhaseSpaceSignature(n, "real")
                hsig = PhaseSpaceSignature(n, "holo")
                self.holo[n, K] = star.wick(n, K, chart="holo")
                self.pool[n, K] = [_poly(rng, sig, K, _DEGREES[n])
                                   for _ in range(_POOL)]
                self.holo_pool[n, K] = [_poly(rng, hsig, K, (1, 2))
                                        for _ in range(_POOL // 2)]
                self.points[n, K] = _point(rng, 2 * n)
        self.ref_cache = {}

    # reference values, cached because operands repeat

    def ref_star(self, kind, f, g, chart="real"):
        key = (kind, chart, f, g)
        if key not in self.ref_cache:
            pairs = R.pairing(kind, f.signature.n, f.order, chart)
            self.ref_cache[key] = R.star(pairs, f, g)
        return self.ref_cache[key]

    def ref_omega(self, kind, deform, point, f):
        """omega(conj(f) * f) by reference, omega a (deformed) delta."""
        key = ("omega", kind, deform, point, f)
        if key not in self.ref_cache:
            n, K = f.signature.n, f.order
            gen = R.generator("S", n, K) if deform else []
            sq = self.ref_star(kind, R.conjugate(f), f)
            self.ref_cache[key] = R.evaluate(point, gen, sq)
        return self.ref_cache[key]

    def functional(self, n, point, K, deform):
        sig = PhaseSpaceSignature(n, "real")
        if deform:
            return functionals.deform_delta(sig, point, K)
        return functionals.delta(sig, point)

    def pick(self, n, K):
        pool = self.pool[n, K]
        return pool[self.rng.randrange(len(pool))], \
            pool[self.rng.randrange(len(pool))]

    # op constructors

    def op_star(self, kind, n, K):
        spec = self.specs[kind, n, K]
        f, g = self.pick(n, K)

        def check(out):
            _expect(out == self.ref_star(kind, f, g), "star != reference")
            return exprio.observable_text(out)

        return Op("star", lambda: star.star_multiply(spec, f, g), check)

    def op_commutator(self, kind, n, K):
        spec = self.specs[kind, n, K]
        f, g = self.pick(n, K)

        def check(out):
            want = self.ref_star(kind, f, g) - self.ref_star(kind, g, f)
            _expect(out == want, "commutator != reference")
            return exprio.observable_text(out)

        return Op("commutator", lambda: star.commutator(spec, f, g), check)

    def op_transported(self, name, n, K):
        """op(op^-1 f *weyl op^-1 g): S gives the wick, N the std product."""
        spec = self.specs["weyl", n, K]
        f, g = self.pick(n, K)
        target = {"S": "wick", "N": "std"}[name]

        def run():
            op = star.op_s(n, K) if name == "S" else star.op_n(n, K)
            return star.transported_product(op, spec, f, g)

        def check(out):
            _expect(out == self.ref_star(target, f, g),
                    f"{name}-transported weyl != {target}")
            return exprio.observable_text(out)

        return Op("transported", run, check)

    def op_equiv(self, name, n, K):
        f = self.pick(n, K)[0]

        def run():
            op = star.op_s(n, K) if name[0] == "S" else star.op_n(n, K)
            if name.endswith("^-1"):
                op = op.inverse()
            return star.apply_equiv(op, f)

        def check(out):
            _expect(out == R.apply_exp(R.generator(name, n, K), f),
                    f"apply_equiv {name} != reference")
            return exprio.observable_text(out)

        return Op("apply_equiv", run, check)

    def op_cauchy_schwarz(self, kind, n, K):
        deform = kind == "weyl"
        spec = self.specs[kind, n, K]
        point = self.points[n, K]
        w = self.functional(n, point, K, deform)
        a, b = self.pick(n, K)

        def check(out):
            gen = R.generator("S", n, K) if deform else []
            wa = self.ref_omega(kind, deform, point, a)
            wb = self.ref_omega(kind, deform, point, b)
            wab = R.evaluate(point, gen, self.ref_star(kind, R.conjugate(a), b))
            want = (wa * wb - wab * wab.conjugate()).sign()
            _expect(out is want, f"cauchy-schwarz {out} != {want}")
            _expect(want is not Sign.NEGATIVE, "positive functional refuted")
            return out.value

        return Op("cauchy_schwarz",
                  lambda: functionals.cauchy_schwarz_check(w, spec, a, b),
                  check)

    def op_scan(self, kind, deform, n, K, degree):
        """Known verdicts: the deformed delta is positive for weyl and the
        delta for wick, at any point; the plain delta at the origin is not
        positive for weyl (omega(H * H) < 0 for the oscillator H)."""
        spec = self.specs[kind, n, K]
        positive = deform or kind == "wick"
        point = self.points[n, K] if positive else (GaussianRational(0),) * (2 * n)
        w = self.functional(n, point, K, deform)

        def check(out):
            samples = R.scan_samples(n, degree, K)
            _expect(len(out.rows) == len(samples), "scan sample count")
            for (text, value, verdict), f in zip(out.rows, samples):
                want = self.ref_omega(kind, deform, point, f)
                _expect(value == want, f"scan value at {text}")
                _expect(verdict is R.square_sign(want), f"scan verdict at {text}")
            _expect(out.positive_on_samples() == positive, "scan verdict")
            return _dumps(out.to_json())

        return Op("positivity_scan",
                  lambda: functionals.positivity_scan(w, spec, degree), check)

    def op_axioms(self, kind, n, K, degree):
        """weyl and wick pass every axiom; std fails only hermitian, with a
        witness pair that the reference confirms."""
        spec = self.specs[kind, n, K]

        def check(out):
            for name, (ok, witness) in out.checks.items():
                if kind == "std" and name == "hermitian":
                    _expect(not ok and witness, "std hermitian must fail")
                    f, g = (R.monomial_from_text(t, n, K)
                            for t in witness.strip("()").split(", "))
                    lhs = R.conjugate(self.ref_star(kind, f, g))
                    rhs = self.ref_star(kind, R.conjugate(g), R.conjugate(f))
                    _expect(lhs != rhs, "std hermitian witness does not fail")
                else:
                    _expect(ok and witness is None, f"{kind} {name} failed")
            _expect(len(out.checks) == 5, "axiom battery incomplete")
            return _dumps(out.to_json())

        return Op("axioms", lambda: star.check_star_axioms(spec, degree),
                  check)

    def op_rep(self, kind, n, K):
        """rho(f * g) = rho(f) rho(g) for wickrep (holomorphic wick) and
        schroedinger_rep (std and weyl orderings)."""
        if kind == "wick":
            pool = self.holo_pool[n, K]
            spec, chart = self.holo[n, K], "holo"
            rep = reps.wickrep
        else:
            pool = self.pool[n, K]
            spec, chart = self.specs[kind, n, K], "real"

            def rep(x):
                return reps.schroedinger_rep(kind, x)
        f = pool[self.rng.randrange(len(pool))]
        g = pool[self.rng.randrange(len(pool))]

        def run():
            prod = star.star_multiply(spec, f, g)
            return prod, rep(prod), rep(f).compose(rep(g))

        def check(out):
            prod, lhs, rhs = out
            _expect(prod == self.ref_star(kind, f, g, chart),
                    "product != reference")
            _expect(lhs == rhs, f"{kind} representation is not multiplicative")
            return exprio.operator_text(lhs)

        return Op("rep_homomorphism", run, check)

    def round(self, r):
        """39 operations; which spec, K and operator a slot uses rotates
        with the round number r, identically for every seed.  The top
        latency decile holds the axiom battery, the scan and the heaviest
        Cauchy-Schwarz checks, so op_p90_ms falls inside that last group."""
        ops = [self.op_star(*key) for key in STAR_SPECS]
        for j in range(6):
            kind, n, K = STAR_SPECS[(6 * r + j) % len(STAR_SPECS)]
            ops.append(self.op_commutator(kind, n, K))
        K = (4, 6)[r % 2]
        K2 = (6, 4)[r % 2]
        ops += [self.op_transported("S", 1, K), self.op_transported("N", 2, K),
                self.op_transported("S", 2, K2), self.op_transported("N", 1, K2)]
        ops += [self.op_equiv(name, 1 + (r + j) % 2, (K, K2)[j % 2])
                for j, name in enumerate(("S", "N", "S^-1", "N^-1"))]
        for j in range(5):
            ops.append(self.op_cauchy_schwarz(("weyl", "wick")[(r + j) % 2],
                                              1 + j % 2, (K, K2)[j // 2 % 2]))
        if r % 2:
            ops.append(self.op_scan("wick", False, 2, K2, 1))
        else:
            ops.append(self.op_scan("weyl", r % 4 == 0, 1, K, 2))
        kind = ("weyl", "wick", "std")[r % 3]
        ops.append(self.op_axioms(kind, 1, (4, 6)[r // 3 % 2], 2))
        for j, kind in enumerate(("wick", "std", "weyl") * 2):
            ops.append(self.op_rep(kind, 1 + j // 3, (K, K2)[j % 2]))
        return ops


# -- matrix-gns ----------------------------------------------------------------------


class _MatrixGns:
    """GNS quotients, deformed projections, Gram positivity, elimination and
    Rieffel induction over matrix algebras; no star product runs."""

    def __init__(self, seed):
        self.rng = random.Random(f"matrix-gns/{seed}")

    def op_gns(self, m, K, deformed, v=1):
        """Diagonal weights, one zero (non-trivial radical) and for M3 one of
        valuation v; the quotient has dimension m * (#nonzero).  The slot
        fixes v, the seed the values and their order."""
        rng = self.rng
        weights = [FormalSeries((Fraction(rng.randint(1, 4), rng.randint(1, 3)),), K),
                   FormalSeries.zero(K)]
        if m == 3:
            weights.append(FormalSeries((0,) * v + (Fraction(rng.randint(1, 3)),), K))
        rng.shuffle(weights)
        zero = FormalSeries.zero(K)
        W = SeriesMatrix([[weights[i] if i == j else zero for j in range(m)]
                          for i in range(m)], K)
        E = SeriesMatrix.from_scalar_rows(
            [[rng.randint(1, 3) if i == j else 0 for j in range(m)]
             for i in range(m)], K) if deformed else None
        dim = m * sum(1 for w in weights if not w.is_zero())

        def run():
            algebra = MatrixStarAlgebra(m, K, deform=E)
            return reps.gns_build(algebra, reps.MatrixFunctional(W))

        def check(out):
            _expect(out.dimension == dim, f"GNS dimension {out.dimension} != {dim}")
            alg, gens = out.algebra, out.generators
            for s in range(len(gens)):
                for t in (s, (s + 1) % len(gens)):
                    _expect(out.pi[s] @ out.pi[t]
                            == out.represent(alg.product(gens[s], gens[t])),
                            "pi(a) pi(b) != pi(ab)")
            return _dumps(out.to_json())

        return Op("gns_build", run, check)

    def op_fedosov(self, m, K):
        """P0 = u v^T / (v^T u), or 1 minus that for M3; deformation matrix E
        with positive entries, so the star unit exists at every K."""
        rng = self.rng
        while True:
            u = [rng.randint(-2, 2) for _ in range(m)]
            v = [rng.randint(-2, 2) for _ in range(m)]
            vu = sum(a * b for a, b in zip(u, v))
            if vu:
                break
        p0 = [[Fraction(u[i] * v[j], vu) for j in range(m)] for i in range(m)]
        if m == 3:
            p0 = [[(1 if i == j else 0) - p0[i][j] for j in range(m)]
                  for i in range(m)]
        P0 = SeriesMatrix.from_scalar_rows(p0, K)
        E = SeriesMatrix.from_scalar_rows(
            [[rng.randint(1, 3) for _ in range(m)] for _ in range(m)], K)

        def run():
            return modules.fedosov_project(P0, MatrixStarAlgebra(m, K, deform=E))

        def check(out):
            algebra = MatrixStarAlgebra(m, K, deform=E)
            _expect(algebra.product(out, out) == out, "P * P != P")
            _expect(out.classical_limit() == P0.classical_limit(),
                    "classical limit of P != P0")
            return _dumps(out.to_json())

        return Op("fedosov_project", run, check)

    def op_gram(self, d, K, full):
        """H = A^H A with A = A0 + l A1 of d or d-1 rows: positive definite or
        semidefinite; NOT_PSD once a diagonal entry is made negative; and the
        kernel of a constant A0^H A0 whose rank is known."""
        rng = self.rng
        k = d if full else d - 1
        A = _series_matrix(_dominant(rng, k, d), K, rng, lpart=True)
        H = A.adjoint() @ A
        j = rng.randrange(d)
        neg = [list(r) for r in H.rows]
        neg[j][j] = FormalSeries.from_scalar(-1, K)
        Hneg = SeriesMatrix(neg, K)
        k0 = d - 2 if d == 5 else d - 1
        A0 = _series_matrix(_dominant(rng, k0, d), K)
        H0 = A0.adjoint() @ A0
        want = GramVerdict.POSITIVE_DEFINITE if full \
            else GramVerdict.POSITIVE_SEMIDEFINITE

        def run():
            return (modules.gram_psd_check(H), modules.gram_psd_check(Hneg),
                    matrices.nullspace(H0))

        def check(out):
            verdict, verdict_neg, kernel = out
            _expect(verdict is want, f"verdict {verdict} != {want}")
            _expect(verdict_neg is GramVerdict.NOT_PSD, "negative diagonal not refuted")
            _expect(len(kernel) == d - k0, "kernel dimension")
            for vec in kernel:
                _expect((H0 @ SeriesMatrix([[x] for x in vec], K)).is_zero(),
                        "M v != 0")
            return _dumps([verdict.value, verdict_neg.value,
                           [[exprio.series_to_json(x) for x in v] for v in kernel]])

        return Op("gram_psd_nullspace", run, check)

    def op_inverse(self, d, K):
        """M dense, so M^-1 has no zero entry: fdq.matrices.solve_in_ring
        raises PrecisionExhausted for a solution component that is zero up to
        l^K with a lost tail, even over a unit pivot, so a reducible M (an
        inverse with exact zeros) fails although it is invertible."""
        rng = self.rng
        M = _series_matrix(_dominant(rng, d, d, dense=True), K, rng, lpart=True)
        rhs = [_series(rng, K) for _ in range(d)]

        def run():
            return matrices.series_matrix_inverse(M), matrices.solve_in_ring(M, rhs)

        def check(out):
            inv, x = out
            _expect(M @ inv == SeriesMatrix.identity(d, K), "M M^-1 != 1")
            _expect(x is not None and M @ SeriesMatrix([[e] for e in x], K)
                    == SeriesMatrix([[e] for e in rhs], K), "M x != rhs")
            return _dumps([inv.to_json(), [exprio.series_to_json(e) for e in x]])

        return Op("inverse_solve", run, check)

    def _scalar_module(self, d, r, K, lpart):
        B = _series_matrix(_dominant(self.rng, r, d), K, self.rng, lpart)
        G = B.adjoint() @ B
        base = MatrixStarAlgebra(1, K)
        gram = [[SeriesMatrix([[G.rows[i][j]]], K) for j in range(d)]
                for i in range(d)]
        return modules.PreHilbertModule(base, d, gram)

    def op_rieffel(self, dF, rF, dE, rE, K, lpart):
        """Scalar modules with Gram B^H B of known rank: the induced module
        has rank rank(G_F) * rank(G_E) and a nondegenerate classical Gram."""
        F = self._scalar_module(dF, rF, K, lpart)
        E = self._scalar_module(dE, rE, K, lpart)
        zero = SeriesMatrix.zero(1, 1, K)
        E.left_algebra = F.base
        E.left_action = lambda s: [[s if r == q else zero for q in range(dE)]
                                   for r in range(dE)]

        def check(out):
            _expect(out.rank == rF * rE, f"induced rank {out.rank} != {rF * rE}")
            g0 = [[out.gram[i][j].rows[0][0].coeffs[0] for j in range(out.rank)]
                  for i in range(out.rank)]
            _expect(R.rank(g0) == out.rank, "induced Gram degenerate")
            return _dumps(out.to_json())

        return Op("rieffel_tensor", lambda: modules.rieffel_tensor(F, E), check)

    def op_classical_limit(self, d, r, K):
        rng = self.rng
        B = _series_matrix(_dominant(rng, r, d), K, rng, lpart=True)
        G = B.adjoint() @ B
        X = SeriesMatrix.from_scalar_rows(
            [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)], K)

        def run():
            return reps.classical_limit_rep(G, [SeriesMatrix.identity(d, K), X])

        def check(out):
            _expect(out.dimension == r, f"classical dimension {out.dimension} != {r}")
            g0 = G.classical_limit()
            kept = out.kept_indices
            _expect(out.gram0 == SeriesMatrix(
                [[g0.rows[s][t] for t in kept] for s in kept], 1), "gram0")
            _expect(out.matrices0[0] == SeriesMatrix.identity(r, 1),
                    "identity not preserved")
            return _dumps([kept, out.gram0.to_json(),
                           [m.to_json() for m in out.matrices0]])

        return Op("classical_limit_rep", run, check)

    def round(self, r):
        """22 operations at each of K = 4 and 6.  The two deformed M3 GNS
        builds are the slowest; the four plain M3 builds at K = 6 come next
        and hold op_p90_ms, so it does not sit between two unlike groups."""
        ops = []
        for K in (4, 6):
            ops += [
                self.op_gns(2, K, False), self.op_gns(2, K, True),
                self.op_gns(3, K, False), self.op_gns(3, K, False),
                self.op_gns(3, K, False), self.op_gns(3, K, False),
                self.op_gns(3, K, True, 2),
                self.op_fedosov(2, K), self.op_fedosov(2, K),
                self.op_fedosov(3, K), self.op_fedosov(3, K),
                self.op_gram(3, K, K == 4), self.op_gram(4, K, K == 6),
                self.op_gram(5, K, False),
                self.op_inverse(3, K), self.op_inverse(4, K),
                self.op_inverse(5, K),
                self.op_rieffel(2, 2, 2, 1, K, False),
                self.op_rieffel(2, 1, 3, 2, K, False),
                self.op_rieffel(2, 2, 2, 2, K, True),
                self.op_classical_limit(4, 2, K),
                self.op_classical_limit(5, 3, K),
            ]
        return ops


# -- cli-batch -----------------------------------------------------------------------

_P_ENTRY = ("1/2 + (-1/4)*l + 1/8*l^2 + (-1/16)*l^3 + 1/32*l^4 + "
            "(-1/64)*l^5")

# README examples with the outputs the seed tree prints.
_README = [
    (["star", "--product", "weyl", "--n", "1", "q1", "p1"],
     "q1*p1 + (1/2*i)*l\n"),
    (["functional", "--delta", "0", "--product", "weyl", "1/2*(p1^2+q1^2)",
      "--square"], "(-1/4)*l^2\n"),
    (["functional", "--delta", "0", "--deform", "--product", "weyl",
      "1/2*(p1^2+q1^2)", "--square"], "1/4*l^2\n"),
    (["commutator", "q1", "p1"], "(i)*l\n"),
    (["schroedinger", "--kind", "weyl", "q1*p1"],
     "((-i)*q1*l)*d/dq1 + (-1/2*i)*l\n"),
    (["fock", "--rep", "z1*zb1"], "(2*yb1*l)*d/dyb1\n"),
    (["gns", "--omega", '[["1","0"],["0","l"]]'],
     "dimension 4; basis E11 E12 E21 E22\ngram[0] = 1, 0, 0, 0\n"
     "gram[1] = 0, l, 0, 0\ngram[2] = 0, 0, 1, 0\ngram[3] = 0, 0, 0, l\n"),
    (["project", "--p0", '[["1/2","1/2"],["1/2","1/2"]]', "--deform",
      '[["0","1"],["0","0"]]'],
     "".join(f"P[{i}] = {_P_ENTRY}, {_P_ENTRY}\n" for i in range(2))),
    (["morita", "--m", "1", "--diff", "3"], "equivalent\n"),
]

_VARS = {"real": ("q", "p"), "holo": ("z", "zb"), "fock": ("yb",)}


def _term_text(c, lpow, exp, names):
    re_, im = c.re, c.im
    if im:
        sign = "+" if im > 0 else "-"
        coeff = f"({re_} {sign} {abs(im)}*i)" if re_ else f"({im}*i)"
    else:
        coeff = f"({re_})" if re_ < 0 else str(re_)
    factors = [coeff] + (["l" if lpow == 1 else f"l^{lpow}"] if lpow else [])
    factors += [names[k] if e == 1 else f"{names[k]}^{e}"
                for k, e in enumerate(exp) if e]
    return "*".join(factors)


def _random_text(rng, sig, K, degrees):
    """A random observable as free-form (non-canonical) text, and the value
    it denotes, built directly without the parser."""
    names = [f"{p}{k}" for p in _VARS[sig.chart] for k in range(1, sig.n + 1)]
    parts, terms = [], {}
    for d in degrees:
        exp = _exponent(rng, sig.width, d)
        lpow = rng.randint(0, min(2, K - 1))
        c = _gaussian(rng)
        parts.append(_term_text(c, lpow, exp, names))
        s = FormalSeries((0,) * lpow + (c,), K)
        terms[exp] = terms[exp] + s if exp in terms else s
    return " + ".join(parts), PolyObservable(sig, terms, K)


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run_command(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class _CliBatch:
    """In-process CLI calls with tiny inputs plus parse/print and JSON round
    trips: fixed per-call cost dominates."""

    def __init__(self, seed):
        self.rng = random.Random(f"cli-batch/{seed}")

    def op_cli(self, argv, want_code, want_out, want_err=""):
        def check(out):
            code, stdout, stderr = out
            _expect(code == want_code, f"{argv[0]}: exit {code} != {want_code}")
            _expect(stdout == want_out, f"{argv[0]}: stdout differs")
            if want_code == 2:
                # argparse prints a usage block that lists every subcommand;
                # only its first word and its last line are stable.
                _expect(stderr.startswith("usage: fdq")
                        and stderr.splitlines()[-1].startswith(want_err),
                        "usage error text")
            else:
                _expect(stderr == want_err, f"{argv[0]}: stderr differs")
            return f"{code}\n{stdout}{stderr}"

        return Op("cli", lambda: _invoke(argv), check)

    def op_product(self, command, kind, n, K, as_json):
        rng = self.rng
        sig = PhaseSpaceSignature(n, "real")
        ftext, f = _random_text(rng, sig, K, (1, 2))
        gtext, g = _random_text(rng, sig, K, (1, 2))
        pairs = R.pairing(kind, n, K)
        argv = [command, "--product", kind, "--n", str(n), "--K", str(K),
                ftext, gtext] + (["--json"] if as_json else [])

        def check(out):
            want = R.star(pairs, f, g)
            if command == "commutator":
                want = want - R.star(pairs, g, f)
            text = _dumps(exprio.serialize(want)) if as_json \
                else exprio.observable_text(want)
            _expect(out[0] == 0 and out[1] == text + "\n" and not out[2],
                    f"{command} {kind} output differs")
            return f"0\n{out[1]}"

        return Op("cli", lambda: _invoke(argv), check)

    def op_functional(self, kind, deform, n, K):
        sig = PhaseSpaceSignature(n, "real")
        ftext, f = _random_text(self.rng, sig, K, (1, 2))
        argv = ["functional", "--delta", "0", "--product", kind, "--n", str(n),
                "--K", str(K), ftext, "--square"] + (["--deform"] if deform else [])

        def check(out):
            sq = R.star(R.pairing(kind, n, K), R.conjugate(f), f)
            want = R.evaluate((GaussianRational(0),) * (2 * n),
                              R.generator("S", n, K) if deform else [], sq)
            _expect(out == (0, exprio.series_text(want) + "\n", ""),
                    "functional value differs")
            return f"0\n{out[1]}"

        return Op("cli", lambda: _invoke(argv), check)

    def malformed(self):
        """Bad syntax, mixed chart, out-of-range variable, unknown command;
        the messages are those of the seed tree."""
        rng = self.rng
        a = f"{rng.choice('qp')}{rng.randint(1, 2)}"
        j = rng.randint(3, 9)
        return [
            self.op_cli(["star", "--n", "2", f"{a}+*p1", "p1"], 3, "",
                        "error: ParseError: unexpected token '*' "
                        f"(line 1, column {len(a) + 2})\n"),
            self.op_cli(["star", "--n", "2", f"{a}*z1", "p1"], 3, "",
                        "error: MixedChart: variables from different charts "
                        f"in one expression (line 1, column {len(a) + 2})\n"),
            self.op_cli(["commutator", "--n", "2", f"q{j}", "p1"], 3, "",
                        f"error: UnknownVariable: variable 'q{j}' out of range "
                        "for n=2 (line 1, column 1)\n"),
            self.op_cli(["stra", "q1", "p1"], 2, "",
                        "fdq: error: argument command: invalid choice: 'stra'"),
        ]

    def op_roundtrip(self, chart, n, K):
        """parse(observable_text(x)) == x and deserialize(serialize(x)) == x
        for a degree-4 observable with l-dependent coefficients."""
        rng = self.rng
        sig = PhaseSpaceSignature(n, chart)
        terms = {}
        for d in (4, 3, 2, 1, 0):
            exp = _exponent(rng, sig.width, d)
            terms[exp] = FormalSeries(
                [_gaussian(rng) if rng.random() < 0.5 else 0
                 for _ in range(K - 1)] + [_gaussian(rng)], K)
        x = PolyObservable(sig, terms, K)

        def run():
            text = exprio.observable_text(x)
            back = exprio.parse(text, n, K, chart)
            payload = json.dumps(exprio.serialize(x))
            return text, back, payload, exprio.deserialize(json.loads(payload))

        def check(out):
            text, back, payload, restored = out
            _expect(back == x, f"parse(print(x)) != x on {chart}")
            _expect(restored == x, f"deserialize(serialize(x)) != x on {chart}")
            return f"{text}\n{payload}"

        return Op("roundtrip", run, check)

    def round(self, r):
        """30 operations; the round trips span the top latency decile below
        the two README matrix commands."""
        K = (4, 6)[r % 2]
        ops = [self.op_cli(argv, 0, out) for argv, out in _README]
        ops += [self.op_product("star", "weyl", 1, K, False),
                self.op_product("star", "wick", 2, K, True),
                self.op_product("star", "std", 1 + r % 2, K, r % 2 == 0),
                self.op_product("commutator", "weyl", 2, K, False),
                self.op_product("commutator", "std", 1, K, True),
                self.op_functional("weyl", True, 1, K),
                self.op_functional("wick", False, 1 + r % 2, K)]
        ops += self.malformed()
        ops += [self.op_roundtrip(chart, n, K)
                for chart in ("real", "holo", "fock") for n in (1, 2)]
        ops += [self.op_roundtrip(("real", "holo", "fock")[r % 3], 1 + r % 2, K)
                for _ in range(4)]
        return ops


WORKLOADS = {
    "star-scan": _StarScan,
    "matrix-gns": _MatrixGns,
    "cli-batch": _CliBatch,
}


def rounds(name, seed):
    """A workload's rounds in order, each a list of ops.  One seeded
    generator draws every operand, so round r of a seed is the same in every
    run however many rounds come before or after it."""
    gen = WORKLOADS[name](seed)
    r = 0
    while True:
        yield gen.round(r)
        r += 1
