"""Pre-Hilbert modules over truncated-series algebras: Gram positivity,
rank-one operators, Rieffel induction, deformed projections, fullness, and
the characteristic-class equivalence decision.

Block matrices over the base algebra share two helpers: ``_block_product``
adds x[i][k] * y[k][j] to an exact zero in order of k (one ``@`` of the
flattened blocks over a plain algebra), and ``_flatten`` puts entry (r, c)
of block (i, j) at row (i, r) and column (j, c).  Inner products
(x* G) y, rank-one operators u (v* G), ``AdjointableOp.apply`` and the induced
Gram of F (x)_B E, <x_i (x) phi_p, x_j (x) phi_q> = (G_E L(<x_i, x_j>_B))[p][q]
for the left action L of B on E, are block products.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import (AlgebraMismatch, DefectNotSmall, NotHermitian,
                     PositivityRefuted, PrecisionExhausted, RankMismatch,
                     ShapeMismatch)
from .matrices import (MatrixStarAlgebra, SeriesMatrix, _echelonize, _matrix,
                       radical_quotient, reduce_coords, solve_in_ring)
from .reps import ClassicalLimit, classical_limit_rep
from .series import FormalSeries, GaussianRational

# -- Gram positivity ----------------------------------------------------------------


class GramVerdict(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    POSITIVE_SEMIDEFINITE = "positive-semidefinite"
    NOT_PSD = "not-psd"


def gram_psd_check(h: SeriesMatrix) -> GramVerdict:
    """Positivity over the ordered series ring by one Hermitian (LDL*)
    elimination (``_echelonize``): NOT_PSD for a negative diagonal entry or
    a pivot off the diagonal, POSITIVE_SEMIDEFINITE (not refuted at this K)
    for a remaining block zero up to l^K.  Each Schur entry is exact mod
    l^K, so NOT_PSD and POSITIVE_DEFINITE hold whatever the entries' terms
    beyond l^K are."""
    if not h.is_hermitian():
        raise NotHermitian("Gram positivity needs a Hermitian matrix")
    divisors = {}
    pivots = _echelonize([list(r) for r in h.rows], h.ncols, divisors,
                         certify_rank=False, hermitian=True)
    if len(divisors) < len(pivots):
        return GramVerdict.NOT_PSD
    if len(pivots) < h.nrows:
        return GramVerdict.POSITIVE_SEMIDEFINITE
    return GramVerdict.POSITIVE_DEFINITE


# -- block matrices over the base algebra ---------------------------------------------


def _block_product(alg, x, cols):
    """x y over ``alg`` for y given by its columns: entry (i, j) adds
    x[i][k] * cols[j][k] to an exact zero in order of k.  Given by columns, a
    y without rows keeps its width: A e = 0 for A from a rank-0 module.  Over
    a plain algebra that is one ``@`` of the flattened x and y, whose entries
    have the values and flags of those sums, split into m x m blocks; the
    loop stays for a deformed algebra, an empty shape and blocks that raise."""
    m, K, n = alg.m, alg.order, len(cols[0]) if cols else 0
    if alg.deform is None and x and n and all(
            len(r) == n and all((b.nrows, b.ncols, b.order) == (m, m, K)
                                for b in r) for r in (*x, *cols)):
        rows = (_flatten(x, K) @ _flatten(list(zip(*cols)), K)).rows
        return [[_matrix([r[j * m:j * m + m] for r in rows[i * m:i * m + m]],
                         K) for j in range(len(cols))] for i in range(len(x))]
    zero = SeriesMatrix.zero(m, m, K)
    return [[sum((alg.product(xi[k], b) for k, b in enumerate(col)), zero)
             for col in cols] for xi in x]


def _flatten(blocks, K):
    """The scalar matrix of a block matrix: row (i, r) and column (j, c)
    hold entry (r, c) of block (i, j)."""
    return SeriesMatrix([[e for b in brow for e in b.rows[r]]
                         for brow in blocks for r in range(brow[0].nrows)], K)


# -- pre-Hilbert modules ---------------------------------------------------------------


class PreHilbertModule:
    """Free right module over a matrix star-algebra with algebra-valued Gram.

    ``gram[i][j]`` is an algebra element <e_i, e_j>; Hermitian as a block
    matrix.  An optional left action of another algebra is a callable sending
    an algebra element to the rank x rank block matrix of its action.
    """

    def __init__(self, base: MatrixStarAlgebra, rank, gram,
                 left_algebra=None, left_action=None):
        if rank < 0:
            raise RankMismatch("rank must be nonnegative")
        if len(gram) != rank or any(len(row) != rank for row in gram):
            raise ShapeMismatch("Gram must be rank x rank")
        if any((g.nrows, g.ncols) != (base.m, base.m) for row in gram
               for g in row):
            raise ShapeMismatch(f"Gram blocks must be {base.m} x {base.m}")
        if any(gram[i][j] != base.involution(gram[j][i])
               for i in range(rank) for j in range(rank)):
            raise NotHermitian("module Gram must be Hermitian")
        self.base = base
        self.rank = rank
        self.gram = [list(row) for row in gram]
        self.left_algebra = left_algebra
        self.left_action = left_action

    @classmethod
    def free(cls, base, rank, **kw):
        """The canonical module base^rank with <x, y> = sum x_i* y_i."""
        zero = SeriesMatrix.zero(base.m, base.m, base.order)
        gram = [[base.unit() if i == j else zero for j in range(rank)]
                for i in range(rank)]
        return cls(base, rank, gram, **kw)

    @property
    def order(self):
        return self.base.order

    def _bra(self, x):
        """x* G as one block row: <x, y> = (x* G) y."""
        alg = self.base
        return _block_product(alg, [list(map(alg.involution, x))],
                              list(zip(*self.gram)))[0]

    def inner(self, x, y):
        """<x, y> = (x* G) y, star products in the base."""
        if len(x) != self.rank or len(y) != self.rank:
            raise RankMismatch("coordinate length must equal the rank")
        return _block_product(self.base, [self._bra(x)], [y])[0][0]

    def basis_vector(self, i):
        alg = self.base
        zero = SeriesMatrix.zero(alg.m, alg.m, alg.order)
        return [alg.unit() if j == i else zero for j in range(self.rank)]

    def flatten_gram(self) -> SeriesMatrix:
        """The Gram as one scalar matrix of size rank*m."""
        if self.rank == 0:
            raise ShapeMismatch("rank-0 module has no Gram matrix")
        return _flatten(self.gram, self.order)

    def pair_gram(self, x, y) -> SeriesMatrix:
        """Flattened 2m x 2m Gram of the pair (x, y), for PSD sampling."""
        return _flatten([[self.inner(a, b) for b in (x, y)] for a in (x, y)],
                        self.order)

    def __repr__(self):
        return (f"<module rank {self.rank} over {self.base.name} "
                f"K={self.order}>")

    def to_json(self):
        return {
            "schema_version": 1,
            "type": "module",
            "base": self.base.to_json(),
            "rank": self.rank,
            "gram": [[e.to_json() for e in row] for row in self.gram],
        }


class AdjointableOp:
    """Operator between free modules given by a block matrix over the base
    algebra, together with its adjoint block matrix."""

    def __init__(self, entries, adjoint_entries, base):
        self.entries = [list(r) for r in entries]
        self.adjoint_entries = [list(r) for r in adjoint_entries]
        self.base = base

    def apply(self, vec):
        return [acc for acc, in _block_product(self.base, self.entries, [vec])]

    def adjoint(self):
        return AdjointableOp(self.adjoint_entries, self.entries, self.base)

    def adjoint_law_holds(self, source: PreHilbertModule,
                          target: PreHilbertModule) -> bool:
        """<e_i, A e_j>_target == <A* e_i, e_j>_source on all basis pairs."""
        return all(target.inner(phi, self.apply(psi))
                   == source.inner(self.adjoint().apply(phi), psi)
                   for phi in map(target.basis_vector, range(target.rank))
                   for psi in map(source.basis_vector, range(source.rank)))

    def __eq__(self, other):
        if not isinstance(other, AdjointableOp):
            return NotImplemented
        return self.entries == other.entries


def rank_one(psi, phi, module: PreHilbertModule) -> AdjointableOp:
    """Theta_{psi,phi}: chi -> psi . <phi, chi>; its adjoint is Theta_{phi,psi}."""
    if len(psi) != module.rank or len(phi) != module.rank:
        raise RankMismatch("coordinate length must equal the rank")
    alg = module.base

    def build(u, v):
        # Theta_{u,v}[i][l] = u_i (x) w_l, w_l = sum_k v_k* (x) G[k][l].
        return _block_product(alg, [[x] for x in u],
                              [[x] for x in module._bra(v)])

    return AdjointableOp(build(psi, phi), build(phi, psi), alg)


# -- Rieffel induction ------------------------------------------------------------------


def rieffel_tensor(F: PreHilbertModule, E: PreHilbertModule) -> PreHilbertModule:
    """Internal tensor product F (x)_B E with the degeneracy space removed.

    F is a module over B carrying an optional left action of C; E is a module
    over A carrying the left B-action.  The induced Gram on the product basis
    is <x_i (x) phi_p, x_j (x) phi_q> = <phi_p, <x_i, x_j>_B . phi_q>_E; the
    left C-action is transported through the B-coordinates.

    Both inner products must be positive: ``gram_psd_check`` decides each
    input's flattened Gram first, and NOT_PSD raises PositivityRefuted.
    Over a deformed B (a x b = a C b, C = 1 + l D) that decides the scalar
    matrix, which is positivity in M_rank(B) when D is Hermitian: the sums
    of X* x X = X* (1 (x) C) X are then the PSD matrices.
    """
    if E.left_algebra is None or E.left_action is None:
        raise AlgebraMismatch("E must carry a left action of F's base algebra")
    if E.left_algebra != F.base:
        raise AlgebraMismatch("base of F must equal the left algebra of E")
    A = E.base
    if A.deform is not None:
        raise AlgebraMismatch(
            "induction over deformed matrix bases is not supported")
    for name, module in (("F", F), ("E", E)):
        if module.rank and gram_psd_check(
                module.flatten_gram()) is GramVerdict.NOT_PSD:
            raise PositivityRefuted(
                f"the Gram of {name} is not positive semidefinite")
    dE, mA, K = E.rank, A.m, A.order

    def by_pairs(blocks):
        # Entry (i p, j q), pair (i, p) at index i dE + p, is entry (p, q)
        # of block (i, j): a dF x dF block matrix of dE x dE blocks.
        return [[e for b in brow for e in b[p]]
                for brow in blocks for p in range(dE)]

    # Block (i, j) is E.gram times the action of <x_i, x_j>_B on E.
    ghat = by_pairs([[_block_product(A, E.gram, list(zip(*E.left_action(g))))
                      for g in row] for row in F.gram])
    if not ghat:
        return PreHilbertModule(A, 0, [], left_algebra=F.left_algebra)

    # The degeneracy space at scalar level.  Over the unknowns (pair, E_ab)
    # its system has rows (pair, entry r c) of ghat E_ab: ghat[r][a] where
    # c = b, an exact zero elsewhere.  That is m_A copies of the flattened
    # ghat, so one elimination of it decides the space.
    kept, kernel = radical_quotient(_flatten(ghat, K))
    if mA > 1:
        # Matrix base: only block-supported degeneracy is presentable.
        kept = [t for t in range(len(ghat))
                if not all(row[t].is_exact_zero() for row in ghat)]
        if len(kernel) != (len(ghat) - len(kept)) * mA:
            raise PrecisionExhausted(
                "degeneracy space not presentable on the product basis at "
                "this truncation")
    induced = PreHilbertModule(A, len(kept),
                               [[ghat[s][t] for t in kept] for s in kept],
                               left_algebra=F.left_algebra)

    if F.left_algebra is not None and F.left_action is not None:
        f_act, e_act = F.left_action, E.left_action

        def induced_action(c_elem):
            # c . (x_j (x) phi_q) = sum_i x_i (x) (f_act(c)[i][j] . phi_q)
            big = by_pairs([[e_act(b) for b in row] for row in f_act(c_elem)])
            if mA > 1:
                return [[big[s][t] for t in kept] for s in kept]
            cols = [reduce_coords([row[t].rows[0][0] for row in big], kept,
                                  kernel) for t in kept]
            return [[SeriesMatrix([[col[s]]], K) for col in cols]
                    for s in range(len(kept))]

        induced.left_action = induced_action
    return induced


def classical_limit_module(module: PreHilbertModule) -> ClassicalLimit:
    """Quotient by the radical of the Gram at l = 0 (flattened to scalars);
    operator transport is shared with the representation engine."""
    if module.rank == 0:
        return ClassicalLimit([], [], None, [])
    return classical_limit_rep(module.flatten_gram(), [])


# -- deformed projections -----------------------------------------------------------------


def fedosov_project(p0: SeriesMatrix, algebra: MatrixStarAlgebra) -> SeriesMatrix:
    """Deform a classical idempotent into a star-idempotent:

        P = 1/2 + (P0 - 1/2) (x) (1 + 4(P0 (x) P0 - P0))^(-1/2)

    with the binomial star-series, which terminates because the idempotency
    defect is O(l).  Hermitian P0 and a Hermitian product give Hermitian P.
    """
    if p0.nrows != p0.ncols:
        raise ShapeMismatch("projection candidates are square")
    if p0.nrows != algebra.m:
        raise ShapeMismatch("P0 must be an element of the algebra")
    defect = algebra.product(p0, p0) - p0
    if not defect.classical_limit().is_zero():
        raise DefectNotSmall("P0 is not idempotent at lambda^0")
    K = algebra.order
    a = defect.scale_scalar(4)
    # (unit + a)^(-1/2) = sum binom(-1/2, k) a^(star k); a is O(l).  All
    # occurrences of 1 in the formula mean the star-unit of the algebra.
    root = algebra.unit()
    power = None
    coeff = Fraction(1)
    for k in range(1, K):
        coeff = coeff * (Fraction(-1, 2) - (k - 1)) / k
        power = a if power is None else algebra.product(power, a)
        if power.is_exact_zero():
            break
        root = root + power.scale_scalar(coeff)
    half = algebra.unit().scale_scalar(Fraction(1, 2))
    return half + algebra.product(p0 - half, root)


def idempotent_equivalence_verify(p, q, u, v, algebra) -> bool:
    """True iff p = u (x) v and q = v (x) u exactly up to K."""
    shapes = {(m.nrows, m.ncols) for m in (p, q, u, v)}
    if len(shapes) != 1:
        raise ShapeMismatch("equivalence data must share one shape")
    return p == algebra.product(u, v) and q == algebra.product(v, u)


def fullness_check(module: PreHilbertModule) -> bool:
    """Does the scalar span of {<e_i . a, e_j . b>} contain the unit?

    For matrix bases the algebra basis already exhausts the bilinear span;
    the membership is an exact linear system over the series ring.
    """
    if module.rank == 0:
        return False
    alg = module.base
    abasis = alg.basis()
    units = range(alg.dim)
    cols = []
    for row in module.gram:
        for g in row:
            if g.is_exact_zero():
                continue
            for a in abasis:
                left = alg.product(alg.involution(a), g)
                cols += alg.right_unit_coords(left, units)
    if not cols:
        return False
    system = SeriesMatrix.from_columns(cols, alg.order)
    target = alg.to_coords(alg.unit())
    return solve_in_ring(system, target) is not None


# -- characteristic classes ------------------------------------------------------------------


class MoritaClassData:
    """A symplectic equivalence class in 2-pi-i-normalized units: m series
    coordinates over an integral basis, plus the fixed pole part."""

    def __init__(self, m, coords, pole=None):
        if len(coords) != m:
            raise RankMismatch(f"expected {m} coordinates, got {len(coords)}")
        self.m = m
        self.coords = list(coords)
        if pole is None:
            pole = [GaussianRational(0)] * m
        if len(pole) != m:
            raise RankMismatch("pole part length mismatch")
        self.pole = [c if isinstance(c, GaussianRational) else
                     GaussianRational(c) for c in pole]

    def __repr__(self):
        from .exprio import series_text
        return f"<class [{', '.join(series_text(c) for c in self.coords)}]>"

    def to_json(self):
        from .exprio import gaussian_to_json, series_to_json
        return {
            "schema_version": 1,
            "type": "morita_class",
            "m": self.m,
            "pole": [gaussian_to_json(c) for c in self.pole],
            "class": [series_to_json(c) for c in self.coords],
        }


class MoritaVerdict(enum.Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    INDETERMINATE = "indeterminate"


def morita_class_check(c1: MoritaClassData, c2: MoritaClassData) -> MoritaVerdict:
    """Equivalence iff the pole parts agree and the class difference is an
    integer vector with no l-dependence.

    An l-tail that vanishes only up to the truncation order yields
    ``indeterminate``: integrality at l^0 cannot settle a hidden tail.
    """
    if c1.m != c2.m:
        raise RankMismatch("classes live in lattices of different rank")
    if c1.pole != c2.pole:
        return MoritaVerdict.NOT_EQUIVALENT
    K = min(min(c.order for c in c1.coords), min(c.order for c in c2.coords))
    indeterminate = False
    for a, b in zip(c1.coords, c2.coords):
        d = b.reduce_order(K) - a.reduce_order(K)
        c0 = d.classical_limit()
        if d != FormalSeries.from_scalar(c0, K) or not c0.is_integer():
            return MoritaVerdict.NOT_EQUIVALENT
        if d.tail_lost:
            indeterminate = True
    return MoritaVerdict.INDETERMINATE if indeterminate \
        else MoritaVerdict.EQUIVALENT


def hermitian_class_check(c: MoritaClassData) -> bool:
    """In the normalized convention an equivalence class corresponds to a
    Hermitian product iff all its coordinates are real."""
    return all(series.is_real() for series in c.coords)
