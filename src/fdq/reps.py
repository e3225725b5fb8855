"""Representations: Bargmann-Fock and Schroedinger operators, a concrete GNS
builder for matrix algebras over truncated series, uniqueness and commutant
computations, and the classical-limit functor on pre-Hilbert data.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .diffops import DiffOperator
from .errors import (NotCyclic, PositivityRefuted, SchemaError,
                     ShapeMismatch, SignatureMismatch)
from .functionals import two_term_scan
from .matrices import (MatrixStarAlgebra, SeriesMatrix, nullspace,
                       radical_quotient, rank_certified, reduce_coords)
from .observables import PhaseSpaceSignature, PolyObservable
from .series import FormalSeries, GaussianRational, Sign
from .star import apply_equiv, op_n

# -- Bargmann-Fock ----------------------------------------------------------------


def _symbol_operator(f: PolyObservable, chart, deriv_half, u) -> DiffOperator:
    """The operator on ``chart`` of ``f``, whose exponents split into halves
    of n: with b the half ``deriv_half`` (0 first, 1 second) and a the other,
    c x^a y^b becomes c u^|b| l^|b| x^a d^b/dx^b."""
    n = f.signature.n
    sig = PhaseSpaceSignature(n, chart)
    K = f.order
    terms = {}
    u_powers = [GaussianRational(1)]
    for exp, c in f.terms.items():
        halves = exp[:n], exp[n:]
        b, a = halves[deriv_half], halves[1 - deriv_half]
        r = sum(b)
        if r:
            while len(u_powers) <= r:
                u_powers.append(u_powers[-1] * u)
            c = c.scalar_mul(u_powers[r]).shift(r)
        poly = PolyObservable.monomial(sig, a, K, c)
        terms[b] = terms[b] + poly if b in terms else poly
    return DiffOperator(sig, terms, K)


def wickrep(f: PolyObservable) -> DiffOperator:
    """Normal-ordered operator of a holomorphic observable on Fock vectors:
    the monomial z^a zb^b becomes (2l)^|a| yb^b d^a/dyb^a."""
    if f.signature.chart != "holo":
        raise SignatureMismatch("wickrep expects a holomorphic observable")
    return _symbol_operator(f, "fock", 0, 2)


def fock_inner(phi: PolyObservable, psi: PolyObservable) -> FormalSeries:
    """<yb^a, yb^b> = delta_ab (2l)^|a| a!, extended sesquilinearly."""
    if phi.signature != psi.signature:
        raise SignatureMismatch("Fock vectors live on one signature")
    if phi.signature.chart != "fock":
        raise SignatureMismatch("expected Fock vectors (yb variables)")
    if phi.order != psi.order:
        raise SignatureMismatch("Fock vectors share one truncation order")
    K = phi.order
    total = FormalSeries.zero(K)
    for exp, c in phi.terms.items():
        d = psi.terms.get(exp)
        if d is None:
            continue
        r = sum(exp)
        weight = Fraction(2 ** r)
        for e in exp:
            weight *= factorial(e)
        total = total + (c.conjugate() * d).scalar_mul(weight).shift(r)
    return total.lossy() if phi.tail_lost or psi.tail_lost else total


# -- Schroedinger -----------------------------------------------------------------


def _std_operator(f: PolyObservable) -> DiffOperator:
    """Standard-ordered symbol calculus: q^a p^b -> (-il)^|b| q^a d^b/dq^b."""
    return _symbol_operator(f, "wave", 1, GaussianRational(0, -1))


def schroedinger_rep(kind: str, f: PolyObservable) -> DiffOperator:
    """Wave-function operator of a real-chart observable.

    ``std`` evaluates the symbol with momenta ordered to the right;
    ``weyl`` applies the ordering operator N first, which yields the totally
    symmetrized rule.
    """
    if f.signature.chart != "real":
        raise SignatureMismatch("schroedinger_rep expects a real-chart "
                                "observable")
    if kind == "std":
        return _std_operator(f)
    if kind == "weyl":
        return _std_operator(apply_equiv(op_n(f.signature.n, f.order), f))
    raise ValueError(f"unknown ordering kind {kind!r}")


# -- matrix functionals and the GNS construction ------------------------------------


class MatrixFunctional:
    """omega(a) = sum_ij W_ij a_ij, a lambda-linear functional on M_m."""

    __slots__ = ("weights",)

    def __init__(self, weights: SeriesMatrix):
        self.weights = weights

    def __call__(self, a: SeriesMatrix) -> FormalSeries:
        total = FormalSeries.zero(a.order)
        for w_row, a_row in zip(self.weights.rows, a.rows):
            for w, x in zip(w_row, a_row):
                total = total + w * x
        return total

    def classical_limit(self):
        return MatrixFunctional(self.weights.classical_limit())

    def __eq__(self, other):
        if not isinstance(other, MatrixFunctional):
            return NotImplemented
        return self.weights == other.weights

    def __repr__(self):
        return f"<matrix functional {self.weights!r}>"


def _gram_and_witnesses(algebra: MatrixStarAlgebra, omega: MatrixFunctional):
    """The Gram G_st = omega(e_s* x e_t) on the matrix-unit basis, and the
    positivity-scan witnesses read off it (see ``matrix_positivity_scan``).
    For e_s = E_ij and e_t = E_kl, e_s* x e_t = C_ik E_jl with C = 1 + l E
    for the deformation E, so G is the Kronecker product C (x) W of C and
    the weights W of omega: G_st = C_ik W_jl."""
    labels = algebra.basis_labels()
    c, w = algebra.one_plus_l_deform().rows, omega.weights.rows
    g = [[c_ik * w_jl for c_ik in c_i for w_jl in w_j]
         for c_i in c for w_j in w]
    rows = two_term_scan(
        g, lambda t: labels[t],
        lambda s, t, u: f"{labels[s]}+({u.re}+{u.im}i){labels[t]}")
    witnesses = [(label, value) for label, value, verdict in rows
                 if verdict is Sign.NEGATIVE]
    return SeriesMatrix(g, algebra.order), witnesses


def matrix_positivity_scan(algebra: MatrixStarAlgebra,
                           omega: MatrixFunctional) -> list:
    """omega(b* x b) over matrix units and two-term unit combinations, for a
    ``MatrixFunctional`` omega.

    Returns the list of negative/imaginary witnesses (empty when the scan
    passes).  Each sample is read off the Gram G_st = omega(e_s* x e_t) by
    ``two_term_scan``, exactly: the product, plain or ab + l aEb, is
    bilinear.  The Gram is the Kronecker product (1 + l E) (x) W of the
    weights W of omega (see ``_gram_and_witnesses``).  A refuter, not a
    decision: ``gns_build`` decides positivity on W and runs this scan only
    to word its refusal.
    """
    return _gram_and_witnesses(algebra, omega)[1]


class GNSResult:
    """Quotient data of the GNS construction over a matrix star-algebra.

    * ``basis_indices``: positions (into the algebra basis) of the chosen
      quotient representatives,
    * ``gram``: their inner products omega(b_s* x b_t),
    * ``pi``: representation matrices of the requested generators,
    * ``cyclic``: coordinates of the class of the unit.

    ``generators`` None stands for the matrix units, which are then built
    on first read.
    """

    def __init__(self, algebra, omega, basis_indices, kernel, gram, generators,
                 pi, cyclic):
        self.algebra = algebra
        self.omega = omega
        self.basis_indices = basis_indices
        self.kernel = kernel
        self.gram = gram
        self._generators = generators
        self.pi = pi
        self.cyclic = cyclic

    @property
    def generators(self):
        if self._generators is None:
            self._generators = self.algebra.basis()
        return self._generators

    @property
    def dimension(self):
        return len(self.basis_indices)

    def basis_labels(self):
        labels = self.algebra.basis_labels()
        return [labels[t] for t in self.basis_indices]

    def reduce_coords(self, coords):
        """Quotient coordinates of an algebra element given by full basis
        coordinates, via the normalized kernel vectors."""
        return reduce_coords(coords, self.basis_indices, self.kernel)

    def represent(self, element: SeriesMatrix) -> SeriesMatrix:
        """pi(element) on the quotient basis."""
        alg = self.algebra
        cols = [self.reduce_coords(coords)
                for coords in alg.right_unit_coords(element,
                                                    self.basis_indices)]
        return SeriesMatrix.from_columns(cols, alg.order)

    def vacuum_expectation(self, element: SeriesMatrix) -> FormalSeries:
        """<psi_1, pi(element) psi_1> with the quotient Gram."""
        v = _mat_vec(self.represent(element), self.cyclic)
        return _inner(self.gram, self.cyclic, v)

    def __eq__(self, other):
        if not isinstance(other, GNSResult):
            return NotImplemented
        return (self.algebra == other.algebra and self.omega == other.omega
                and self.basis_indices == other.basis_indices
                and self.kernel == other.kernel and self.gram == other.gram
                and self.generators == other.generators
                and self.pi == other.pi and self.cyclic == other.cyclic)

    def to_json(self):
        from .exprio import series_to_json

        def mat(m):
            return [[series_to_json(e) for e in row] for row in m.rows]

        return {
            "schema_version": 1,
            "type": "gns_result",
            "m": self.algebra.m,
            "K": self.algebra.order,
            "deform": self.algebra.deform.to_json()
                      if self.algebra.deform is not None else None,
            "omega": mat(self.omega.weights),
            "basis_indices": list(self.basis_indices),
            "basis": self.basis_labels(),
            "kernel": [{"free": f, "vector": [series_to_json(c) for c in v]}
                       for f, v in self.kernel],
            "gram": mat(self.gram),
            "generators": [mat(g) for g in self.generators],
            "pi": [mat(p) for p in self.pi],
            "cyclic": [series_to_json(c) for c in self.cyclic],
        }


def _mat_vec(mat: SeriesMatrix, vec):
    """mat vec, the vector as one column."""
    return [e for e, in (mat @ SeriesMatrix.from_columns([vec],
                                                         mat.order)).rows]


def _inner(gram: SeriesMatrix, x, y):
    """<x, y> = (conj(x) G) y, conj(x) as one row and y as one column."""
    xrow = SeriesMatrix([[c.conjugate() for c in x]], gram.order)
    (total,), = (xrow @ gram @ SeriesMatrix.from_columns([y], gram.order)).rows
    return total


def gns_build(algebra: MatrixStarAlgebra,
              omega: MatrixFunctional) -> GNSResult:
    """GNS data of a positive ``MatrixFunctional`` omega on a (possibly
    deformed) matrix algebra over truncated series, from its weights W.

    The Gram on the matrix units is G = C (x) W = (C (x) 1)(1 (x) W), C =
    1 + l E.  For Hermitian C and W, C is positive-definite (its classical
    limit is 1), so one Hermitian ``radical_quotient`` of W decides omega >=
    0 and gives ker W; otherwise G can be Hermitian only through truncation,
    and G is decided.  The two-term scan only words a refusal.  The quotient
    C^m (x) (C^m / ker W) has the kept units {i m + l : l kept for W},
    kernel vectors e_i (x) v, the Gram C_ik W_jl, and pi(E_ij) = E_ij C on
    the first factor, kept (k, l) to (i, l) with entry C_jk.
    """
    from .modules import GramVerdict, gram_psd_check
    m, K, w = algebra.m, algebra.order, omega.weights
    if (w.nrows, w.ncols) != (m, m):
        raise ShapeMismatch(f"omega's weights must be {m} x {m}")
    c = algebra.one_plus_l_deform()
    if c.is_hermitian() and w.is_hermitian():
        quotient = radical_quotient(w, hermitian=True)
        refuted = quotient is None
    else:
        # Without a witness every sample is real, so G is Hermitian.
        g, witnesses = _gram_and_witnesses(algebra, omega)
        quotient, refuted = None, bool(witnesses) or \
            gram_psd_check(g) is GramVerdict.NOT_PSD
    if refuted:
        witnesses = matrix_positivity_scan(algebra, omega)
        if not witnesses:
            raise PositivityRefuted("omega is not positive semidefinite, "
                                    "though no two-term sample "
                                    "omega(b* x b) is negative")
        label, value = witnesses[0]
        from .exprio import series_text
        raise PositivityRefuted(
            f"omega({label}* x {label}) = {series_text(value)} is "
            + ("negative" if value.is_real() else "not real"))
    kept_w, kernel_w = quotient or radical_quotient(w)
    if not kept_w:
        raise ShapeMismatch("omega vanishes on every b* x b: the GNS "
                            "quotient is 0-dimensional")
    zero, r = FormalSeries.zero(K), len(kept_w)
    kept = [i * m + l for i in range(m) for l in kept_w]
    kernel = [(i * m + f, [v[l] if a == i else zero
                           for a in range(m) for l in range(m)])
              for i in range(m) for f, v in kernel_w]
    c, w = c.rows, w.rows
    gram = SeriesMatrix([[c[i][k] * w[j][l] for k in range(m) for l in kept_w]
                         for i in range(m) for j in kept_w], K)
    pi = [SeriesMatrix([[c[j][k] if a == i and p == q else zero
                         for k in range(m) for q in range(r)]
                        for a in range(m) for p in range(r)], K)
          for i in range(m) for j in range(m)]
    result = GNSResult(algebra, omega, kept, kernel, gram, None, pi, None)
    result.cyclic = result.reduce_coords(algebra.to_coords(algebra.unit()))
    return result


def gns_result_from_json(obj, pointer=""):
    from .exprio import series_from_json
    from .matrices import matrix_from_json

    def check(cond, message, where):
        if not cond:
            raise SchemaError(message, f"{pointer}/{where}")

    def need(key, kind=list):
        if key not in obj:
            raise SchemaError(f"gns_result needs {key}", pointer)
        value = obj[key]
        if kind is int:
            check(isinstance(value, int) and value >= 1,
                  f"{key} must be a positive integer", key)
        else:
            check(isinstance(value, list), f"{key} must be a list", key)
        return value

    def mat(rows, where, n):
        out = matrix_from_json({"rows": rows}, f"{pointer}/{where}")
        check((out.nrows, out.ncols) == (n, n), f"{where} must be {n} x {n}",
              where)
        return out

    m, K = need("m", int), need("K", int)
    deform = obj.get("deform")
    algebra = MatrixStarAlgebra(
        m, K, deform=matrix_from_json(deform, f"{pointer}/deform")
        if deform else None)
    omega = MatrixFunctional(mat(need("omega"), "omega", m))
    kernel = []
    for k, item in enumerate(need("kernel")):
        check(isinstance(item, dict) and isinstance(item.get("free"), int)
              and 0 <= item["free"] < m * m
              and isinstance(item.get("vector"), list)
              and len(item["vector"]) == m * m,
              "kernel item needs free in range(m^2) and a vector of m^2 "
              "entries", f"kernel/{k}")
        kernel.append((item["free"], [
            series_from_json(c, f"{pointer}/kernel/{k}/vector/{i}")
            for i, c in enumerate(item["vector"])]))
    indices = need("basis_indices")
    check(all(isinstance(t, int) and 0 <= t < m * m for t in indices),
          "basis_indices must lie in range(m^2)", "basis_indices")
    d = len(indices)
    gram = mat(need("gram"), "gram", d)
    generators = [mat(g, f"generators/{i}", m)
                  for i, g in enumerate(need("generators"))]
    pi = [mat(p, f"pi/{i}", d) for i, p in enumerate(need("pi"))]
    check(len(pi) == len(generators), "pi needs one matrix per generator",
          "pi")
    cyclic = need("cyclic")
    check(len(cyclic) == d, "cyclic needs one entry per basis index",
          "cyclic")
    return GNSResult(
        algebra, omega, list(indices), kernel, gram, generators, pi,
        [series_from_json(c, f"{pointer}/cyclic/{i}")
         for i, c in enumerate(cyclic)])


class CandidateRep:
    """A concrete cyclic *-representation offered for comparison with a GNS
    result: a representation map, the module Gram, and a cyclic vector."""

    def __init__(self, pi, gram: SeriesMatrix, cyclic):
        self.pi = pi            # callable: algebra element -> SeriesMatrix
        self.gram = gram
        self.cyclic = list(cyclic)


def gns_uniqueness_check(result: GNSResult, candidate: CandidateRep) -> bool:
    """Decide unitary equivalence with the canonical intertwiner
    U: psi_b -> pi(b) Omega.

    Checks, in order: cyclicity of Omega (error when it fails), isometry of U
    (Gram transport), intertwining with the generators, and recovery of omega
    as the vacuum expectation value.
    """
    algebra = result.algebra
    d = candidate.gram.nrows
    # Cyclicity: pi(b) Omega over the full algebra basis must span.
    basis = algebra.basis()
    vecs = [_mat_vec(candidate.pi(b), candidate.cyclic) for b in basis]
    span = SeriesMatrix.from_columns(vecs, algebra.order)
    if rank_certified(span) < d:
        raise NotCyclic("candidate vector does not generate the module")

    U = SeriesMatrix.from_columns([vecs[t] for t in result.basis_indices],
                                  algebra.order)
    if U.adjoint() @ candidate.gram @ U != result.gram:
        return False
    for g, pi_mat in zip(result.generators, result.pi):
        if candidate.pi(g) @ U != U @ pi_mat:
            return False
    for b, vec in zip(basis, vecs):
        if result.omega(b) != _inner(candidate.gram, candidate.cyclic, vec):
            return False
    return True


# -- commutant -----------------------------------------------------------------------


def commutant(rep_matrices):
    """Basis of {X : [pi(a_i), X] = 0} over the series ring, for d x d
    matrices of one order.

    The linear system is solved by valuation-pivoted elimination; the basis
    matrices are returned in a deterministic order.
    """
    if not rep_matrices:
        raise ValueError("need at least one representation matrix")
    d, K = rep_matrices[0].nrows, rep_matrices[0].order
    if any(a.nrows != d or a.ncols != d for a in rep_matrices):
        raise ShapeMismatch("representation matrices must share one square "
                            "shape")
    zero = FormalSeries.zero(K)
    rows = []
    for a in rep_matrices:
        for i in range(d):
            for j in range(d):
                # entry (i,j) of AX - XA as a linear form in X_kl
                row = [zero] * (d * d)
                for k in range(d):
                    row[k * d + j] = row[k * d + j] + a.rows[i][k]
                    row[i * d + k] = row[i * d + k] - a.rows[k][j]
                rows.append(row)
    system = SeriesMatrix(rows, K)
    return [SeriesMatrix([[vec[i * d + j] for j in range(d)]
                          for i in range(d)], K) for vec in nullspace(system)]


# -- classical limit -------------------------------------------------------------------


class ClassicalLimit:
    """Quotient of a pre-Hilbert module by the radical of the Gram at l = 0,
    with the induced operators."""

    def __init__(self, kept_indices, kernel, gram0, matrices0):
        self.kept_indices = kept_indices
        self.kernel = kernel
        self.gram0 = gram0
        self.matrices0 = matrices0

    @property
    def dimension(self):
        return len(self.kept_indices)

    def reduce_vector(self, vec0):
        """Classical coordinates of a vector given at l = 0."""
        return reduce_coords(vec0, self.kept_indices, self.kernel)


def classical_limit_rep(gram: SeriesMatrix, rep_matrices) -> ClassicalLimit:
    """Evaluate the Gram at l = 0, quotient by its radical, and induce the
    operators; functorial in compositions and adjoints."""
    g0 = gram.classical_limit()
    pivot_cols, kernel = radical_quotient(g0)
    if not pivot_cols:
        return ClassicalLimit([], kernel, None,
                              [None for _ in rep_matrices])
    gram0 = SeriesMatrix([[g0.rows[s][t] for t in pivot_cols]
                          for s in pivot_cols], 1)
    limit = ClassicalLimit(pivot_cols, kernel, gram0, [])
    for a in rep_matrices:
        a0 = a.classical_limit()
        limit.matrices0.append(SeriesMatrix.from_columns(
            [limit.reduce_vector([row[t] for row in a0.rows])
             for t in pivot_cols], 1))
    return limit
