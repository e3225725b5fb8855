from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fdq.errors import (AlgebraMismatch, DefectNotSmall, FdqError,
                        NotHermitian, PositivityRefuted, PrecisionExhausted,
                        RankMismatch, ShapeMismatch)
from fdq.exprio import parse_series
from fdq.matrices import (MatrixStarAlgebra, SeriesMatrix, _Divisor,
                          nullspace, radical_quotient, rank_certified,
                          reduce_coords, solve_in_ring)
from fdq.modules import (AdjointableOp, GramVerdict, MoritaClassData,
                         MoritaVerdict, PreHilbertModule, _block_product,
                         classical_limit_module,
                         fedosov_project, fullness_check, gram_psd_check,
                         hermitian_class_check, idempotent_equivalence_verify,
                         morita_class_check, rank_one, rieffel_tensor)
from fdq.series import FormalSeries, GaussianRational, Sign

K = 6
LAM = FormalSeries.lam(1, K)
ONE = FormalSeries.one(K)
ZERO = FormalSeries.zero(K)
SCALARS = MatrixStarAlgebra(1, K)


def smat(x):
    return SeriesMatrix([[x]], K)


def scalar_module(gram_rows, **kw):
    gram = [[smat(x) for x in row] for row in gram_rows]
    return PreHilbertModule(SCALARS, len(gram_rows), gram, **kw)


# -- gram_psd_check -----------------------------------------------------------------


def test_psd_examples():
    assert gram_psd_check(SeriesMatrix([[ONE, ZERO], [ZERO, LAM]], K)) is \
        GramVerdict.POSITIVE_DEFINITE
    lam2 = FormalSeries.lam(2, K)
    assert gram_psd_check(SeriesMatrix([[lam2, LAM], [LAM, ONE]], K)) is \
        GramVerdict.POSITIVE_SEMIDEFINITE
    assert gram_psd_check(SeriesMatrix([[-LAM, ZERO], [ZERO, ONE]], K)) is \
        GramVerdict.NOT_PSD


def test_psd_requires_hermitian():
    with pytest.raises(NotHermitian):
        gram_psd_check(SeriesMatrix([[ONE, LAM], [ZERO, ONE]], K))


def test_psd_complex_offdiagonal():
    il = LAM.scalar_mul(GaussianRational(0, 1))
    h = SeriesMatrix([[ONE, il], [-il, ONE]], K)
    assert h.is_hermitian()
    assert gram_psd_check(h) is GramVerdict.POSITIVE_DEFINITE


def reference_determinant(mat, rows, cols):
    """Unmemoised cofactor expansion along the first row."""
    if len(rows) == 1:
        return mat.rows[rows[0]][cols[0]]
    total = FormalSeries.zero(mat.order)
    for k, c in enumerate(cols):
        term = mat.rows[rows[0]][c] * reference_determinant(
            mat, rows[1:], cols[:k] + cols[k + 1:])
        total = total + term if k % 2 == 0 else total - term
    return total


def reference_psd_check(h):
    """Every principal minor's sign, every minor expanded anew."""
    d = h.nrows
    pd = True
    for mask in range(1, 1 << d):
        idx = [i for i in range(d) if mask & (1 << i)]
        verdict = reference_determinant(h, idx, idx).sign()
        if verdict is Sign.NEGATIVE:
            return GramVerdict.NOT_PSD
        if idx == list(range(len(idx))) and verdict is not Sign.POSITIVE:
            pd = False
    return GramVerdict.POSITIVE_DEFINITE if pd \
        else GramVerdict.POSITIVE_SEMIDEFINITE


@st.composite
def hermitian_matrices(draw):
    """A^H A for a random A (d <= 5) with exact zeros and l-divisible
    entries; as it is, plus a Hermitian perturbation, or minus l^r at one
    diagonal entry, so all three verdicts occur."""
    k = draw(st.sampled_from([2, 3, 4]))
    d = draw(st.sampled_from([1, 2, 3, 4, 5, 5]))

    def entry():
        if draw(st.integers(0, 3)) == 0:
            return FormalSeries.zero(k)
        cs = [GaussianRational(draw(st.integers(-2, 2)),
                               draw(st.integers(-1, 1))) for _ in range(k)]
        return FormalSeries(cs, k).shift(draw(st.sampled_from([0, 0, 1])))

    a = SeriesMatrix([[entry() for _ in range(d)] for _ in range(d)], k)
    h = a.adjoint() @ a
    mode = draw(st.sampled_from(["psd", "perturb", "negative"]))
    lam_r = FormalSeries.lam(draw(st.integers(0, k - 1)), k)
    if mode == "perturb":
        p = SeriesMatrix([[entry() for _ in range(d)] for _ in range(d)], k)
        h = h + (p + p.adjoint()).scale(lam_r)
    elif mode == "negative":
        i = draw(st.integers(0, d - 1))
        h = h - SeriesMatrix.unit(d, i, i, k).scale(lam_r)
    return h


def lossy_zero_minor(h):
    """Is some principal minor of h zero up to l^K with a lost tail?"""
    d = h.nrows
    for mask in range(1, 1 << d):
        idx = [i for i in range(d) if mask & (1 << i)]
        minor = reference_determinant(h, idx, idx)
        if minor.is_zero() and minor.tail_lost:
            return True
    return False


@settings(max_examples=150)
@given(hermitian_matrices())
def test_psd_check_matches_unmemoised_minors(h):
    """The minors' verdict, except where a minor is a zero with a lost tail:
    there the elimination may decide what the minors leave semidefinite."""
    verdict, minors = gram_psd_check(h), reference_psd_check(h)
    if verdict is not minors:
        assert minors is GramVerdict.POSITIVE_SEMIDEFINITE
        assert lossy_zero_minor(h)


@st.composite
def exact_hermitian_matrices(draw):
    """(h, K) for a Hermitian h of polynomial entries of degree <= K, exact
    at order d*K + 1: A^H A for A of degree <= K // 2, as it is, plus a
    Hermitian perturbation, or minus l^r at one diagonal entry."""
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 6))
    big = d * k + 1

    def poly(degree):
        if draw(st.integers(0, 3)) == 0:
            return FormalSeries.zero(big)
        return FormalSeries([GaussianRational(draw(st.integers(-2, 2)),
                                              draw(st.integers(-1, 1)))
                             for _ in range(degree + 1)], big)

    a = SeriesMatrix([[poly(k // 2) for _ in range(d)] for _ in range(d)], big)
    h = a.adjoint() @ a
    r = draw(st.integers(0, k))
    lam_r = FormalSeries.lam(r, big)
    mode = draw(st.sampled_from(["psd", "perturb", "negative"]))
    if mode == "perturb":
        p = SeriesMatrix([[poly(k - r) for _ in range(d)] for _ in range(d)],
                         big)
        h = h + (p + p.adjoint()).scale(lam_r)
    elif mode == "negative":
        i = draw(st.integers(0, d - 1))
        h = h - SeriesMatrix.unit(d, i, i, big).scale(lam_r)
    assert not any(e.tail_lost for row in h.rows for e in row)
    return h, k


@settings(max_examples=100)
@given(exact_hermitian_matrices())
def test_psd_check_decisions_hold_beyond_the_truncation(case):
    """A NOT_PSD or POSITIVE_DEFINITE verdict at K is the exact entries'
    verdict, read from the minors at an order where each is decided."""
    h, k = case
    verdict = gram_psd_check(h.reduce_order(k))
    if verdict is not GramVerdict.POSITIVE_SEMIDEFINITE:
        assert verdict is reference_psd_check(h)


def k3_matrix(*rows):
    return SeriesMatrix([[parse_series(x, 3) if isinstance(x, str) else x
                          for x in row] for row in rows], 3)


LOST3 = FormalSeries.lam(3, 3)  # zero up to l^3, its tail lost


@pytest.mark.parametrize("h, verdict", [
    (k3_matrix(["l", "l"], ["l", "l - l^2"]), GramVerdict.NOT_PSD),
    (k3_matrix(["0", "l^2"], ["l^2", "0"]), GramVerdict.NOT_PSD),
    (k3_matrix(["l^2", "0"], ["0", "l^2"]), GramVerdict.POSITIVE_DEFINITE),
    # no quotient is taken of the lossy zero beside the pivot l^2
    (k3_matrix(["l^2", LOST3], [LOST3, "l^2"]),
     GramVerdict.POSITIVE_DEFINITE),
])
def test_psd_check_decides_where_a_minor_is_lost(h, verdict):
    """Each has a principal minor that is zero up to l^3 with a lost tail
    (-l^3, -l^4, l^4, l^4), which the minors read as semidefinite."""
    assert lossy_zero_minor(h)
    assert reference_psd_check(h) is GramVerdict.POSITIVE_SEMIDEFINITE
    assert gram_psd_check(h) is verdict


def count_convolutions(monkeypatch):
    """A counter of the series products the integer kernel convolves: each
    ``*`` of two nonzero series and each pair a sum of products or ``@``
    feeds it."""
    import fdq.series as series

    calls = []
    real = series._convolve

    def counting(a, b, acc):
        calls.append(None)
        return real(a, b, acc)

    monkeypatch.setattr(series, "_convolve", counting)
    return calls


def test_psd_check_makes_at_most_d_cubed_products(monkeypatch):
    """A row operation touches only the columns without a pivot, so rank
    and radical make no more products than the PSD check, and a right-hand
    side adds one per row operation and d (d + 1) / 2 to back-substitute.
    Every entry below is nonzero, so each product is one convolution."""
    calls = count_convolutions(monkeypatch)

    def count(f, *args):
        del calls[:]
        return f(*args), len(calls)

    d = 12
    h = SeriesMatrix([[ONE.scalar_mul(d + 1) if i == j else LAM
                       for j in range(d)] for i in range(d)], K)
    verdict, psd = count(gram_psd_check, h)
    assert verdict is GramVerdict.POSITIVE_DEFINITE
    assert 0 < psd <= d ** 3
    assert count(rank_certified, h) == (d, psd)
    assert count(radical_quotient, h)[1] == psd
    x, solve = count(solve_in_ring, h, [ONE] * d)
    assert x is not None
    assert solve == psd + d * (d - 1) // 2 + d * (d + 1) // 2


def reference_ldl_psd_check(h):
    """The Hermitian Schur-complement (LDL*) loop that decided positivity on
    its own: NOT_PSD on a negative diagonal entry, or an off-diagonal entry
    of valuation below every diagonal one (zero up to l^K counts as
    valuation K); the pivot is the first diagonal entry of least valuation,
    and an entry zero up to l^K is skipped, as its update vanishes."""
    if not h.is_hermitian():
        raise NotHermitian("Gram positivity needs a Hermitian matrix")
    K = h.order
    rows = [list(r) for r in h.rows]
    left = list(range(h.nrows))
    while left:
        diag = []
        for i in left:
            if rows[i][i].sign() is Sign.NEGATIVE:
                return GramVerdict.NOT_PSD
            v = rows[i][i].valuation()
            diag.append(K if v is None else v)
        least = min(diag)
        off = [rows[i][j].valuation() for i in left for j in left if i != j]
        if any(v is not None and v < least for v in off):
            return GramVerdict.NOT_PSD
        if least == K:
            return GramVerdict.POSITIVE_SEMIDEFINITE
        p = left.pop(diag.index(least))
        prow, divide = rows[p], _Divisor(rows[p][p])
        for i in left:
            row = rows[i]
            if row[p].is_zero():
                continue
            factor = divide(row[p])
            for j in left:
                if not prow[j].is_zero():
                    row[j] = row[j] - factor * prow[j]
    return GramVerdict.POSITIVE_DEFINITE


DIVIDEND_LOST = "dividend is zero only up to the truncation order"


def radical_outcome(h, **kw):
    """``radical_quotient(h, **kw)`` with every kernel entry's flag, or the
    message of its PrecisionExhausted."""
    try:
        out = radical_quotient(h, **kw)
    except PrecisionExhausted as exc:
        return str(exc)
    if out is None:
        return None
    kept, kernel = out
    return kept, [(f, v, [e.tail_lost for e in v]) for f, v in kernel]


# At K = 2, a = l^2 is zero with a lost tail.  Below the unit pivot the
# update of a's row is zero with a lost tail, so the rank is not determined;
# an update skipped without marking would leave an exact zero, and a
# kernel.  Below the pivot l the update cannot be divided out, yet it is
# zero mod l^2: W = [[l, a], [a, l]] is positive-definite, whatever a's tail.
LOST2 = FormalSeries.lam(2, 2)


@settings(max_examples=400, deadline=None)
@given(st.one_of(hermitian_matrices(), exact_hermitian_matrices().map(
    lambda case: case[0].reduce_order(case[1]))))
@example(k3_matrix(["l^2", LOST3], [LOST3, "l^2"]))
@example(SeriesMatrix([[FormalSeries.one(2), LOST2],
                       [LOST2, FormalSeries.zero(2)]], 2))
@example(SeriesMatrix([[FormalSeries.lam(1, 2), LOST2],
                       [LOST2, FormalSeries.lam(1, 2)]], 2))
def test_one_elimination_decides_positivity_and_the_radical(h):
    """``gram_psd_check`` gives the verdict of the LDL* loop.  Where it is
    not NOT_PSD, the Hermitian ``radical_quotient`` equals the plain one,
    flags included, and refuses where it refuses, except that a dividend
    zero only up to l^K no longer raises: such a refusal may become another
    PrecisionExhausted, or an answer for a positive-definite h."""
    verdict = gram_psd_check(h)
    assert verdict is reference_ldl_psd_check(h)
    got = radical_outcome(h, hermitian=True)
    if verdict is GramVerdict.NOT_PSD:
        assert got is None
        return
    ref = radical_outcome(h)
    if ref == DIVIDEND_LOST and got != ref:
        assert isinstance(got, str) or (
            verdict is GramVerdict.POSITIVE_DEFINITE
            and got == (list(range(h.nrows)), []))
        return
    assert got == ref


# -- modules and rank-one operators ---------------------------------------------------


def test_module_gram_must_be_hermitian():
    with pytest.raises(NotHermitian):
        scalar_module([[ONE, LAM], [ZERO, ONE]])


def test_module_gram_blocks_must_be_base_sized():
    m2 = MatrixStarAlgebra(2, K)
    with pytest.raises(ShapeMismatch, match="Gram blocks must be 2 x 2"):
        PreHilbertModule(m2, 1, [[smat(ONE)]])
    with pytest.raises(ShapeMismatch, match="Gram blocks must be 1 x 1"):
        PreHilbertModule(SCALARS, 1, [[m2.unit()]])


def test_module_inner_right_linearity():
    mod = scalar_module([[ONE, LAM], [LAM, ONE + LAM]])
    x = [smat(ONE), smat(LAM)]
    y = [smat(LAM), smat(ONE)]
    a = smat(ONE + LAM)
    ya = [SCALARS.product(v, a) for v in y]
    assert mod.inner(x, ya) == SCALARS.product(mod.inner(x, y), a)


def test_pair_gram_psd_sampling():
    mod = scalar_module([[ONE, ZERO], [ZERO, LAM]])
    x = [smat(ONE), smat(ZERO)]
    y = [smat(LAM), smat(ONE)]
    assert gram_psd_check(mod.pair_gram(x, y)) is not GramVerdict.NOT_PSD


def test_rank_one_projection():
    mod = PreHilbertModule.free(SCALARS, 2)
    e1 = mod.basis_vector(0)
    theta = rank_one(e1, e1, mod)
    assert theta.entries[0][0] == smat(ONE)
    assert theta.entries[1][1] == smat(ZERO)


def test_rank_one_adjoint_swap():
    mod = PreHilbertModule.free(SCALARS, 2)
    e1, e2 = mod.basis_vector(0), mod.basis_vector(1)
    theta = rank_one(e1, e2, mod)
    assert theta.adjoint().entries == rank_one(e2, e1, mod).entries
    assert theta.adjoint_law_holds(mod, mod)


def test_rank_one_composition_identity():
    mod = scalar_module([[ONE + LAM, LAM], [LAM, ONE]])
    psi = [smat(ONE), smat(LAM)]
    phi = [smat(LAM), smat(ONE + LAM)]
    th1 = rank_one(psi, phi, mod)
    th2 = rank_one(phi, psi, mod)
    # Theta_{psi,phi} Theta_{phi,psi} = Theta_{psi <phi,phi>, psi}
    composed = [[sum((SCALARS.product(th1.entries[i][k], th2.entries[k][j])
                      for k in range(2)),
                     SeriesMatrix.zero(1, 1, K)) for j in range(2)]
                for i in range(2)]
    gphi = mod.inner(phi, phi)
    scaled = [SCALARS.product(p, gphi) for p in psi]
    want = rank_one(scaled, psi, mod)
    assert composed == want.entries


def test_rank_one_rank_mismatch():
    mod = PreHilbertModule.free(SCALARS, 2)
    with pytest.raises(RankMismatch):
        rank_one([smat(ONE)], mod.basis_vector(0), mod)


def test_pair_cauchy_schwarz_instances():
    mod = scalar_module([[ONE, LAM], [LAM, ONE + LAM]])
    vectors = [
        [smat(ONE), smat(ZERO)],
        [smat(LAM), smat(ONE)],
        [smat(ONE + LAM), smat(LAM)],
    ]
    for x in vectors:
        for y in vectors:
            assert gram_psd_check(mod.pair_gram(x, y)) is not \
                GramVerdict.NOT_PSD


# -- Rieffel induction ------------------------------------------------------------------


def unit_bimodule():
    return PreHilbertModule(SCALARS, 1, [[SCALARS.unit()]],
                            left_algebra=SCALARS,
                            left_action=lambda b: [[b]])


def test_unit_bimodule_induction_is_identity():
    f = scalar_module([[ONE + LAM, LAM], [LAM, ONE]])
    ind = rieffel_tensor(f, unit_bimodule())
    assert ind.rank == 2
    assert ind.gram == f.gram


def test_column_module_induction():
    m2 = MatrixStarAlgebra(2, K)
    f2 = PreHilbertModule(m2, 1, [[m2.unit()]], left_algebra=m2,
                          left_action=lambda c: [[c]])
    col = PreHilbertModule(
        SCALARS, 2, [[smat(ONE), smat(ZERO)], [smat(ZERO), smat(ONE)]],
        left_algebra=m2,
        left_action=lambda b: [[smat(b.rows[i][j]) for j in range(2)]
                               for i in range(2)])
    ind = rieffel_tensor(f2, col)
    assert ind.rank == 2
    assert all(ind.gram[i][j] == (smat(ONE) if i == j else smat(ZERO))
               for i in range(2) for j in range(2))
    e21 = SeriesMatrix.from_scalar_rows([[0, 0], [1, 0]], K)
    act = ind.left_action(e21)
    assert act[1][0] == smat(ONE) and act[0][0] == smat(ZERO)


def test_zero_gram_induces_zero_module():
    e = scalar_module([[ZERO, ZERO], [ZERO, ZERO]],
                      left_algebra=SCALARS,
                      left_action=lambda b: [[b, smat(ZERO)],
                                             [smat(ZERO), b]])
    f = PreHilbertModule(SCALARS, 1, [[smat(ONE)]])
    assert rieffel_tensor(f, e).rank == 0


def test_partial_degeneracy_over_scalars():
    e = scalar_module([[ONE, ZERO], [ZERO, ZERO]],
                      left_algebra=SCALARS,
                      left_action=lambda b: [[b, smat(ZERO)],
                                             [smat(ZERO), b]])
    f = PreHilbertModule(SCALARS, 1, [[smat(ONE)]])
    ind = rieffel_tensor(f, e)
    assert ind.rank == 1
    assert ind.gram[0][0] == smat(ONE)


def test_rieffel_requires_matching_algebras():
    f = PreHilbertModule(MatrixStarAlgebra(2, K), 1,
                         [[MatrixStarAlgebra(2, K).unit()]])
    e = scalar_module([[ONE]], left_algebra=SCALARS,
                      left_action=lambda b: [[b]])
    with pytest.raises(AlgebraMismatch):
        rieffel_tensor(f, e)


def test_induction_associativity_gram_congruence():
    def with_action(rows):
        d = len(rows)
        return scalar_module(
            rows, left_algebra=SCALARS,
            left_action=lambda b, d=d: [
                [b if r == q else smat(ZERO) for q in range(d)]
                for r in range(d)])

    g = with_action([[ONE]])
    f = with_action([[ONE + LAM, LAM], [LAM, ONE]])
    e = with_action([[ONE, ZERO], [ZERO, ONE + LAM]])
    left = rieffel_tensor(rieffel_tensor(g, f), e)
    right = rieffel_tensor(g, rieffel_tensor(f, e))
    assert left.rank == right.rank
    assert left.gram == right.gram


M2 = MatrixStarAlgebra(2, K)


def scalar_on_m2(b):
    """A scalar b acting on M2 as b times the unit."""
    return M2.unit().scale(b.rows[0][0])


def test_m2_over_itself_induces_itself():
    f = PreHilbertModule(M2, 1, [[M2.unit()]], left_algebra=M2,
                         left_action=lambda c: [[c]])
    e = PreHilbertModule(M2, 1, [[M2.unit()]], left_algebra=M2,
                         left_action=lambda c: [[c]])
    ind = rieffel_tensor(f, e)
    assert ind.rank == 1
    assert ind.gram == [[M2.unit()]]
    x = SeriesMatrix.from_scalar_rows([[1, 2], [3, 4]], K)
    assert ind.left_action(x) == [[x]]


def test_block_degeneracy_over_m2_is_removed():
    zero = SeriesMatrix.zero(2, 2, K)
    e = PreHilbertModule(
        M2, 2, [[M2.unit(), zero], [zero, zero]], left_algebra=SCALARS,
        left_action=lambda b: [[scalar_on_m2(b), zero],
                               [zero, scalar_on_m2(b)]])
    f = scalar_module([[ONE + LAM]], left_algebra=SCALARS,
                      left_action=lambda b: [[b]])
    ind = rieffel_tensor(f, e)
    assert ind.rank == 1
    assert ind.gram == [[M2.unit().scale(ONE + LAM)]]
    assert ind.left_action(smat(ONE + LAM)) == [[M2.unit().scale(ONE + LAM)]]


def test_non_block_degeneracy_over_m2_raises():
    e11 = SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], K)
    e = PreHilbertModule(M2, 1, [[e11]], left_algebra=SCALARS,
                         left_action=lambda b: [[scalar_on_m2(b)]])
    with pytest.raises(PrecisionExhausted):
        rieffel_tensor(PreHilbertModule(SCALARS, 1, [[smat(ONE)]]), e)


def test_rieffel_refuses_an_input_gram_that_is_not_psd():
    def indefinite(**kw):
        return scalar_module([[-ONE, ZERO], [ZERO, ONE]], **kw)

    def action(s):
        return [[s if r == q else smat(ZERO) for q in range(2)]
                for r in range(2)]

    for f, e, name in (
            (indefinite(), unit_bimodule(), "F"),
            (scalar_module([[ONE]]),
             indefinite(left_algebra=SCALARS, left_action=action), "E")):
        with pytest.raises(PositivityRefuted, match=rf"^the Gram of {name} "
                           r"is not positive semidefinite$"):
            rieffel_tensor(f, e)


def test_induced_gram_psd():
    f = scalar_module([[ONE + LAM, LAM], [LAM, ONE]])
    ind = rieffel_tensor(f, unit_bimodule())
    assert gram_psd_check(ind.flatten_gram()) is not GramVerdict.NOT_PSD


def reference_block_rieffel(F, E):
    """Rank and Gram of ``rieffel_tensor(F, E)`` over an undeformed matrix
    base, with the degeneracy decided on the P m_A^2-square system over the
    unknowns (pair, E_ab): row (pair, r c) of ghat E_ab is ghat[r][a] where
    c = b and an exact zero elsewhere."""
    A = E.base
    dF, dE, mA, K = F.rank, E.rank, A.m, A.order
    pairs = [(i, p) for i in range(dF) for p in range(dE)]
    lact = [[E.left_action(F.gram[i][j]) for j in range(dF)]
            for i in range(dF)]
    ghat = {}
    for (i, p) in pairs:
        for (j, q) in pairs:
            acc = SeriesMatrix.zero(mA, mA, K)
            for r in range(dE):
                acc = acc + A.product(E.gram[p][r], lact[i][j][r][q])
            ghat[((i, p), (j, q))] = acc
    zero = FormalSeries.zero(K)
    rows = [[ghat[(ip, jq)].rows[r][a] if c == b else zero
             for jq in pairs for a in range(mA) for b in range(mA)]
            for ip in pairs for r in range(mA) for c in range(mA)]
    kern = nullspace(SeriesMatrix(rows, K))
    dead = [jq for jq in pairs
            if all(ghat[(ip, jq)].is_exact_zero() for ip in pairs)]
    if len(kern) != len(dead) * mA * mA:
        raise PrecisionExhausted(
            "degeneracy space not presentable on the product basis at "
            "this truncation")
    kept = [pair for pair in pairs if pair not in dead]
    return len(kept), [[ghat[(pi, pj)] for pj in kept] for pi in kept]


def block_entry(draw, k):
    """An exact zero, a lossy zero, or a nonzero series of order k with small
    Gaussian coefficients, possibly lossy and possibly l-divisible."""
    kind = draw(st.sampled_from(["exact-zero"] * 2 + ["lossy-zero", "lossy"]
                                + ["plain"] * 4))
    if kind == "exact-zero":
        return FormalSeries.zero(k)
    if kind == "lossy-zero":
        return FormalSeries((), k, tail_lost=True)
    cs = [GaussianRational(draw(st.integers(-2, 2)), draw(st.integers(-1, 1)))
          for _ in range(k)]
    cs[draw(st.integers(0, k - 1))] = GaussianRational(1)
    return FormalSeries(cs, k, tail_lost=kind == "lossy").shift(
        draw(st.sampled_from([0, 0, 1, 2])))


@st.composite
def matrix_base_inductions(draw):
    """(F, E) over M1 -> M_mA, mA in {2, 3}, K in 1..4: E has rank P <= 3
    and a Hermitian Gram, of random blocks or PSD, some pairs dead (an
    exact-zero row and column of blocks); F has rank 1 and a real Gram
    entry, mostly 1."""
    k = draw(st.sampled_from([1, 2, 3, 4]))
    mA = draw(st.sampled_from([2, 3]))
    P = draw(st.integers(1, 3))
    base, scalars = MatrixStarAlgebra(mA, k), MatrixStarAlgebra(1, k)
    dead = {p for p in range(P) if draw(st.integers(0, 3)) == 0}
    zero = SeriesMatrix.zero(mA, mA, k)
    gram = [[zero] * P for _ in range(P)]
    if draw(st.booleans()):
        # A PSD Gram Y* Y, Y zero in the columns of the dead pairs.
        y = SeriesMatrix([[FormalSeries.zero(k) if c // mA in dead
                           else block_entry(draw, k) for c in range(P * mA)]
                          for _ in range(P * mA)], k)
        g = (y.adjoint() @ y).rows
        gram = [[SeriesMatrix([row[q * mA:(q + 1) * mA]
                               for row in g[p * mA:(p + 1) * mA]], k)
                 for q in range(P)] for p in range(P)]
    else:
        for p in range(P):
            for q in range(p, P):
                if p in dead or q in dead:
                    continue
                block = SeriesMatrix([[block_entry(draw, k)
                                       for _ in range(mA)]
                                      for _ in range(mA)], k)
                if p == q:
                    block = block + block.adjoint()
                gram[p][q], gram[q][p] = block, block.adjoint()

    def action(b):
        return [[base.unit().scale(b.rows[0][0]) if r == q else zero
                 for q in range(P)] for r in range(P)]

    e = PreHilbertModule(base, P, gram, left_algebra=scalars,
                         left_action=action)
    c = FormalSeries.one(k)
    if draw(st.booleans()):
        c = block_entry(draw, k)
        c = c + c.conjugate()
    f = PreHilbertModule(scalars, 1, [[SeriesMatrix([[c]], k)]])
    return f, e


def non_psd_refusal(F, E):
    """The refusal ``rieffel_tensor(F, E)`` owes an input whose flattened
    Gram is not PSD, as (class, message), or None."""
    for name, module in (("F", F), ("E", E)):
        if module.rank and gram_psd_check(
                module.flatten_gram()) is GramVerdict.NOT_PSD:
            return (PositivityRefuted,
                    f"the Gram of {name} is not positive semidefinite")
    return None


def induction_outcome(f, *args):
    try:
        rank, gram = f(*args)
    except PrecisionExhausted as exc:
        return type(exc), str(exc)
    return rank, gram, [[[[e.tail_lost for e in r] for r in g.rows]
                         for g in row] for row in gram]


@settings(max_examples=200, deadline=None)
@given(matrix_base_inductions())
def test_matrix_base_rieffel_matches_block_system(case):
    """One elimination of the flattened Gram decides the degeneracy space
    as the P m_A^2-square block system does: the same rank and Gram, or the
    same error and message.  An input whose Gram is not PSD is refused
    first."""
    def flattened(f, e):
        ind = rieffel_tensor(f, e)
        return ind.rank, ind.gram

    refusal = non_psd_refusal(*case)
    if refusal is not None:
        with pytest.raises(PositivityRefuted) as exc:
            rieffel_tensor(*case)
        assert str(exc.value) == refusal[1]
        return
    assert induction_outcome(flattened, *case) == \
        induction_outcome(reference_block_rieffel, *case)


# -- block products against the hand-rolled loops ------------------------------------------
#
# The routines below are the block loops that ``rieffel_tensor``, rank-one
# operators, ``AdjointableOp.apply``, ``flatten_gram`` and ``pair_gram`` ran
# before they shared ``_block_product`` and ``_flatten``, kept verbatim as
# references.


def reference_flatten_gram(self):
    """The Gram as one scalar matrix of size rank*m."""
    if self.rank == 0:
        raise ShapeMismatch("rank-0 module has no Gram matrix")
    m = self.base.m
    K = self.order
    rows = []
    for i in range(self.rank):
        for r in range(m):
            row = []
            for j in range(self.rank):
                for c in range(m):
                    row.append(self.gram[i][j].rows[r][c])
            rows.append(row)
    return SeriesMatrix(rows, K)


def reference_pair_gram(self, x, y, inner=PreHilbertModule.inner):
    """Flattened 2m x 2m Gram of the pair (x, y), for PSD sampling."""
    gxx, gxy = inner(self, x, x), inner(self, x, y)
    gyx, gyy = inner(self, y, x), inner(self, y, y)
    m = self.base.m
    rows = []
    for r in range(m):
        rows.append(list(gxx.rows[r]) + list(gxy.rows[r]))
    for r in range(m):
        rows.append(list(gyx.rows[r]) + list(gyy.rows[r]))
    return SeriesMatrix(rows, self.order)


def reference_apply(self, vec):
    alg = self.base
    out = []
    for i in range(len(self.entries)):
        acc = SeriesMatrix.zero(alg.m, alg.m, alg.order)
        for j, v in enumerate(vec):
            acc = acc + alg.product(self.entries[i][j], v)
        out.append(acc)
    return out


def reference_rank_one(psi, phi, module):
    """Theta_{psi,phi}: chi -> psi . <phi, chi>; its adjoint is Theta_{phi,psi}."""
    if len(psi) != module.rank or len(phi) != module.rank:
        raise RankMismatch("coordinate length must equal the rank")
    alg = module.base

    def build(u, v):
        # Theta_{u,v}[i][l] = u_i (x) (sum_k v_k* (x) G[k][l])
        rows = []
        for i in range(module.rank):
            row = []
            for l in range(module.rank):
                acc = SeriesMatrix.zero(alg.m, alg.m, alg.order)
                for k in range(module.rank):
                    acc = acc + alg.product(alg.involution(v[k]),
                                            module.gram[k][l])
                row.append(alg.product(u[i], acc))
            rows.append(row)
        return rows

    return AdjointableOp(build(psi, phi), build(phi, psi), alg)


def reference_rieffel_tensor(F, E):
    """Internal tensor product F (x)_B E with the degeneracy space removed."""
    if E.left_algebra is None or E.left_action is None:
        raise AlgebraMismatch("E must carry a left action of F's base algebra")
    if E.left_algebra != F.base:
        raise AlgebraMismatch("base of F must equal the left algebra of E")
    A = E.base
    if A.deform is not None:
        raise AlgebraMismatch(
            "induction over deformed matrix bases is not supported")
    dF, dE, mA = F.rank, E.rank, A.m
    K = A.order
    pairs = [(i, p) for i in range(dF) for p in range(dE)]

    # L[i][j] = action of <x_i, x_j>_B on E as a dE x dE block matrix over A.
    lact = [[E.left_action(F.gram[i][j]) for j in range(dF)]
            for i in range(dF)]
    ghat = {}
    for (i, p) in pairs:
        for (j, q) in pairs:
            acc = SeriesMatrix.zero(mA, mA, K)
            for r in range(dE):
                acc = acc + A.product(E.gram[p][r], lact[i][j][r][q])
            ghat[((i, p), (j, q))] = acc

    if dF * dE == 0:
        return PreHilbertModule(A, 0, [], left_algebra=F.left_algebra)

    # The degeneracy space at scalar level.  Over the unknowns (pair, matrix
    # unit E_ab) its system has rows (pair, entry r c) of ghat E_ab, which is
    # column a of ghat moved to column b: ghat[r][a] where c = b and an exact
    # zero elsewhere.  That system is m_A copies of ``flat``, rows (pair, r)
    # and columns (pair, a), so one elimination of ``flat`` decides it; for a
    # scalar base ``flat`` is the pair-indexed Gram.
    flat = SeriesMatrix([[ghat[(ip, jq)].rows[r][a]
                          for jq in pairs for a in range(mA)]
                         for ip in pairs for r in range(mA)], K)
    pivot_cols, kernel = radical_quotient(flat)
    if mA == 1:
        kept_pairs = [pairs[t] for t in pivot_cols]
    else:
        # Matrix base: only block-supported degeneracy is presentable.
        dead = [jq for jq in pairs
                if all(ghat[(ip, jq)].is_exact_zero() for ip in pairs)]
        if len(kernel) != len(dead) * mA:
            raise PrecisionExhausted(
                "degeneracy space not presentable on the product basis at "
                "this truncation")
        kept_pairs = [pair for pair in pairs if pair not in dead]
    gram = [[ghat[(pi, pj)] for pj in kept_pairs] for pi in kept_pairs]

    induced = PreHilbertModule(A, len(kept_pairs), gram,
                               left_algebra=F.left_algebra)

    if F.left_algebra is not None and F.left_action is not None:
        f_act = F.left_action
        e_act = E.left_action

        def induced_action(c_elem):
            lf = f_act(c_elem)  # dF x dF over B
            big = {}
            for (j, q) in pairs:
                # c . (x_j (x) phi_q) = sum_i x_i (x) (lf[i][j] . phi_q)
                col = {}
                for i in range(dF):
                    le = e_act(lf[i][j])  # dE x dE over A
                    for p in range(dE):
                        entry = le[p][q]
                        key = (i, p)
                        col[key] = col[key] + entry if key in col else entry
                big[(j, q)] = col
            zero = SeriesMatrix.zero(mA, mA, K)
            out = [[zero for _ in kept_pairs] for _ in kept_pairs]
            for cidx, jq in enumerate(kept_pairs):
                col = big[jq]
                if mA == 1:
                    coords = [col.get(pair, zero).rows[0][0] for pair in pairs]
                    reduced = reduce_coords(coords, pivot_cols, kernel)
                    for ridx, val in enumerate(reduced):
                        out[ridx][cidx] = SeriesMatrix([[val]], K)
                else:
                    for ridx, pair in enumerate(kept_pairs):
                        out[ridx][cidx] = col.get(pair, zero)
            return out

        induced.left_action = induced_action
    return induced


def exact_form(value):
    """Every entry's value and ``tail_lost`` flag, down to the series."""
    if isinstance(value, FormalSeries):
        return value, value.tail_lost
    if isinstance(value, SeriesMatrix):
        return tuple(exact_form(e) for row in value.rows for e in row)
    if isinstance(value, PreHilbertModule):
        return value.rank, exact_form(value.gram)
    if isinstance(value, AdjointableOp):
        return exact_form(value.entries), exact_form(value.adjoint_entries)
    return tuple(exact_form(v) for v in value)


def outcome(f, *args):
    try:
        return exact_form(f(*args))
    except FdqError as exc:
        return type(exc), str(exc)


def diagonal_action(alg, d, scale):
    """b acting on a rank-d module over ``alg`` as scale(b) on the diagonal."""
    zero = SeriesMatrix.zero(alg.m, alg.m, alg.order)
    return lambda b: [[scale(b) if r == q else zero for q in range(d)]
                      for r in range(d)]


def hermitian_blocks(draw, alg, d):
    """A Hermitian d x d block Gram over ``alg``: v v* for a block column v
    of constants, whose radical the elimination decides exactly, or random
    ``block_entry`` blocks with the unit added to some diagonal ones."""
    k, m = alg.order, alg.m

    def block(entry):
        return SeriesMatrix([[entry() for _ in range(m)] for _ in range(m)],
                            k)

    if draw(st.booleans()):
        v = [block(lambda: FormalSeries.from_scalar(GaussianRational(
            draw(st.integers(-2, 2)), draw(st.integers(-1, 1))), k))
            for _ in range(d)]
        return [[alg.product(a, alg.involution(b)) for b in v] for a in v]
    gram = [[None] * d for _ in range(d)]
    for p in range(d):
        for q in range(p, d):
            b = block(lambda: block_entry(draw, k))
            if p == q:
                b = b + b.adjoint()
                if draw(st.booleans()):
                    b = b + alg.unit()
            gram[p][q], gram[q][p] = b, b.adjoint()
    return gram


@st.composite
def block_cases(draw):
    """(F, E, c, x, y, psi, phi): F over B with a left action of the scalars
    C (c times a random matrix), E over A with a left action of B, c in C,
    and vectors of F.  Three shapes: A = B = M1; A = M2 over B = M1; A = M1
    under B = M2 acting on a rank-2 column module.  Ranks 0-2, K 1-4,
    entries exact, lossy zeros or lossy."""
    k = draw(st.sampled_from([1, 2, 3, 4]))
    shape = draw(st.sampled_from(["scalar", "m2-base", "m2-left"]))
    scalars, m2 = MatrixStarAlgebra(1, k), MatrixStarAlgebra(2, k)
    B = m2 if shape == "m2-left" else scalars
    ranks = st.sampled_from([0, 1, 1, 2, 2, 2])
    dF = draw(ranks)

    def entry_or_one_plus():
        return block_entry(draw, k) + FormalSeries.from_scalar(
            GaussianRational(draw(st.integers(0, 1))), k)

    t = [[entry_or_one_plus() for _ in range(dF)] for _ in range(dF)]
    F = PreHilbertModule(
        B, dF, hermitian_blocks(draw, B, dF), left_algebra=scalars,
        left_action=lambda c: [[B.unit().scale(c.rows[0][0] * e)
                                for e in row] for row in t])
    if shape == "m2-left":
        s = block_entry(draw, k)
        diag = [[s + s.conjugate() if r == q else FormalSeries.zero(k)
                 for q in range(2)] for r in range(2)]
        E = PreHilbertModule(
            scalars, 2,
            [[SeriesMatrix([[e]], k) for e in row] for row in diag],
            left_algebra=m2,
            left_action=lambda b: [[SeriesMatrix([[e]], k) for e in row]
                                   for row in b.rows])
    else:
        A = m2 if shape == "m2-base" else scalars
        dE = draw(ranks)
        E = PreHilbertModule(
            A, dE, hermitian_blocks(draw, A, dE), left_algebra=scalars,
            left_action=diagonal_action(
                A, dE, lambda b: A.unit().scale(b.rows[0][0])))

    def vector():
        return [SeriesMatrix([[block_entry(draw, k) for _ in range(B.m)]
                              for _ in range(B.m)], k) for _ in range(dF)]

    c = SeriesMatrix([[entry_or_one_plus()]], k)
    return F, E, c, vector(), vector(), vector(), vector()


def induction_with_action(rieffel, F, E, c):
    ind = rieffel(F, E)
    return ind, ind.left_action(c) if ind.left_action is not None else ()


@settings(max_examples=300, deadline=None)
@given(block_cases())
def test_block_products_match_the_hand_rolled_loops(case):
    """Every value, tail_lost flag and error of the block-product routines
    is the reference's, once an induction from a Gram that is not PSD is
    refused."""
    F, E, c, x, y, psi, phi = case
    assert outcome(induction_with_action, rieffel_tensor, F, E, c) == (
        non_psd_refusal(F, E) or
        outcome(induction_with_action, reference_rieffel_tensor, F, E, c))
    assert outcome(F.flatten_gram) == outcome(reference_flatten_gram, F)
    assert outcome(F.pair_gram, x, y) == outcome(reference_pair_gram, F, x, y)
    theta = rank_one(psi, phi, F)
    assert exact_form(theta) == outcome(reference_rank_one, psi, phi, F)
    assert outcome(theta.apply, x) == outcome(reference_apply, theta, x)
    adjoint = theta.adjoint()
    assert outcome(adjoint.apply, y) == outcome(reference_apply, adjoint, y)


def reference_block_product(alg, x, cols):
    """``_block_product`` as the per-block loop: entry (i, j) adds
    x[i][k] * cols[j][k] to an exact zero, one algebra product and sum at a
    time."""
    zero = SeriesMatrix.zero(alg.m, alg.m, alg.order)
    return [[sum((alg.product(xi[k], b) for k, b in enumerate(col)), zero)
             for col in cols] for xi in x]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_product_matches_the_per_block_loop(data):
    """M1 or M2, plain or deformed by a lossy E, K 1-6, inner rank 0-3,
    zero to three block rows and columns; now and then a block of the wrong
    shape or order, or a ragged column, whose error must be the loop's."""
    draw = data.draw
    k, m, rank = draw(st.integers(1, 6)), draw(st.integers(1, 2)), \
        draw(st.integers(0, 3))

    def block(size=m, order=k):
        return SeriesMatrix([[block_entry(draw, order) for _ in range(size)]
                             for _ in range(size)], order)

    alg = MatrixStarAlgebra(m, k, deform=block() if draw(st.booleans())
                            else None)
    x = [[block() for _ in range(rank)] for _ in range(draw(st.integers(0, 3)))]
    cols = [[block() for _ in range(rank)]
            for _ in range(draw(st.integers(0, 3)))]
    flaw = draw(st.sampled_from([None] * 6 + ["shape", "order", "ragged"]))
    target = x if draw(st.booleans()) else cols
    if flaw and any(target) and rank:
        row = draw(st.sampled_from([r for r in target if r]))
        if flaw == "ragged":
            row.pop()
        else:
            row[draw(st.integers(0, rank - 1))] = block(
                *((3 - m, k) if flaw == "shape" else (m, k + 1)))

    def result(f):
        try:
            return exact_form(f(alg, x, cols))
        except (FdqError, IndexError) as exc:  # a ragged column indexes out
            return type(exc), str(exc)

    assert result(_block_product) == result(reference_block_product)


def test_operator_from_a_rank_zero_module_sends_its_vector_to_zero():
    op = AdjointableOp([[], []], [], SCALARS)
    assert op.apply([]) == reference_apply(op, []) == [smat(ZERO)] * 2


@pytest.mark.parametrize("r", [1, 2, 3])
def test_rank_one_makes_two_r_squared_products_per_operator(monkeypatch, r):
    """w = v* G once, then u_i w_l: 2 r^2 algebra products for each of
    Theta_{psi,phi} and its adjoint, not r^2 (r + 1).  Over M1 with no zero
    entry each algebra product is one convolution."""
    mod = scalar_module([[ONE + LAM if i == j else LAM for j in range(r)]
                         for i in range(r)])
    psi = [smat(ONE + LAM.scalar_mul(k)) for k in range(r)]
    phi = [smat(LAM - ONE.scalar_mul(k)) for k in range(r)]
    want = reference_rank_one(psi, phi, mod)
    calls = count_convolutions(monkeypatch)
    theta = rank_one(psi, phi, mod)
    products = len(calls)
    assert exact_form(theta) == exact_form(want)
    assert products == 2 * (2 * r * r)


# The inner product before it became (x* G) y: one product chain per (i, j),
# kept verbatim as a reference.  Summing over i first can only drop flags.


def reference_inner(self, x, y):
    """<x, y> = sum_ij x_i* (x) G_ij (x) y_j, star products in the base."""
    if len(x) != self.rank or len(y) != self.rank:
        raise RankMismatch("coordinate length must equal the rank")
    alg = self.base
    total = SeriesMatrix.zero(alg.m, alg.m, alg.order)
    for i in range(self.rank):
        xi = alg.involution(x[i])
        for j in range(self.rank):
            total = total + alg.product(alg.product(xi, self.gram[i][j]),
                                        y[j])
    return total


@st.composite
def inner_cases(draw):
    """(module, x, y) over M1 or M2, plain or deformed by E = b + b* for a
    matrix b of ``block_entry`` series (a Hermitian E keeps the Gram
    Hermitian), rank 0-3, K 1-4."""
    k, m = draw(st.sampled_from([1, 2, 3, 4])), draw(st.sampled_from([1, 2]))

    def block():
        return SeriesMatrix([[block_entry(draw, k) for _ in range(m)]
                             for _ in range(m)], k)

    deform = None
    if draw(st.booleans()):
        b = block()
        deform = b + b.adjoint()
    alg = MatrixStarAlgebra(m, k, deform=deform)
    rank = draw(st.integers(0, 3))
    module = PreHilbertModule(alg, rank, hermitian_blocks(draw, alg, rank))
    return module, [block() for _ in range(rank)], \
        [block() for _ in range(rank)]


def assert_same_values_no_new_flags(got, want):
    """Equal values; an entry of ``got`` is lossy only where ``want``'s is."""
    assert got == want
    for g, w in zip(exact_form(got), exact_form(want)):
        assert w[1] or not g[1]


@settings(max_examples=300, deadline=None)
@given(inner_cases())
def test_inner_and_pair_gram_match_the_product_chains(case):
    module, x, y = case
    for a, b in ((x, y), (y, x), (x, x)):
        assert_same_values_no_new_flags(module.inner(a, b),
                                        reference_inner(module, a, b))
    assert_same_values_no_new_flags(
        module.pair_gram(x, y),
        reference_pair_gram(module, x, y, inner=reference_inner))


def test_inner_flags_nothing_where_x_star_g_cancels():
    """At K = 2, x* G = 1 l - 1 l is an exact zero, so <x, y> is exact; the
    product chains flag each (x_i* G_ij) y_j = l^2."""
    k = 2
    lam = SeriesMatrix([[FormalSeries.lam(1, k)]], k)
    one = SeriesMatrix.identity(1, k)
    module = PreHilbertModule(MatrixStarAlgebra(1, k), 2, [[lam, lam]] * 2)
    x, y = [one, -one], [lam, lam]
    got, want = module.inner(x, y), reference_inner(module, x, y)
    assert got == want and got.is_exact_zero()
    assert want.rows[0][0].tail_lost


# -- classical limit of modules ------------------------------------------------------------


def test_classical_limit_module_examples():
    assert classical_limit_module(
        scalar_module([[ONE, ZERO], [ZERO, LAM]])).dimension == 1
    assert classical_limit_module(
        PreHilbertModule.free(SCALARS, 3)).dimension == 3
    assert classical_limit_module(
        scalar_module([[LAM, ZERO], [ZERO, LAM]])).dimension == 0


# -- Fedosov projection ----------------------------------------------------------------------


def test_fedosov_closed_form():
    e12 = SeriesMatrix.unit(2, 0, 1, K)
    alg = MatrixStarAlgebra(2, K, deform=e12)
    h = Fraction(1, 2)
    p0 = SeriesMatrix.from_scalar_rows([[h, h], [h, h]], K)
    # independent scalar route: P0 * P0 = (1 + l/2) P0 forces the factor
    # x = 1/(1 + l/2) = 2/(2 + l)
    assert alg.product(p0, p0) == p0.scale(ONE + LAM.scalar_mul(h))
    x = (ONE + LAM.scalar_mul(h)).invert()
    p = fedosov_project(p0, alg)
    assert p == p0.scale(x)
    assert alg.product(p, p) == p
    assert p.classical_limit() == p0.classical_limit()


def test_fedosov_reproduces_star_idempotents():
    alg = MatrixStarAlgebra(2, K)
    p0 = SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], K)
    assert fedosov_project(p0, alg) == p0
    assert fedosov_project(SeriesMatrix.zero(2, 2, K), alg).is_zero()
    ident = SeriesMatrix.identity(2, K)
    assert fedosov_project(ident, alg) == ident


def test_fedosov_rejects_non_idempotent():
    alg = MatrixStarAlgebra(2, K)
    with pytest.raises(DefectNotSmall):
        fedosov_project(SeriesMatrix.from_scalar_rows([[2, 0], [0, 0]], K),
                        alg)


def test_fedosov_hermitian_preservation():
    eh = SeriesMatrix.from_scalar_rows([[0, 1], [1, 0]], K)
    alg = MatrixStarAlgebra(2, K, deform=eh)
    h = Fraction(1, 2)
    p0 = SeriesMatrix.from_scalar_rows([[h, h], [h, h]], K)
    p = fedosov_project(p0, alg)
    assert p.is_hermitian()
    assert alg.product(p, p) == p


def test_fedosov_m3():
    e = SeriesMatrix.unit(3, 0, 2, K)
    alg = MatrixStarAlgebra(3, K, deform=e)
    p0 = SeriesMatrix.from_scalar_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]], K)
    p = fedosov_project(p0, alg)
    assert alg.product(p, p) == p
    assert p.classical_limit() == p0.classical_limit()


# -- idempotent equivalence ---------------------------------------------------------------------


def test_equivalence_trivial():
    alg = MatrixStarAlgebra(2, K)
    p = SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], K)
    assert idempotent_equivalence_verify(p, p, p, p, alg)


def test_equivalence_transported_witnesses():
    e12 = SeriesMatrix.unit(2, 0, 1, K)
    alg = MatrixStarAlgebra(2, K, deform=e12)
    t_inv = SeriesMatrix.identity(2, K) - e12.scale(LAM)
    e11 = SeriesMatrix.unit(2, 0, 0, K)
    p = (e11 + e12) @ t_inv
    q = e11 @ t_inv
    u = e11 @ t_inv
    v = (e11 + e12) @ t_inv
    assert alg.product(p, p) == p and alg.product(q, q) == q
    assert idempotent_equivalence_verify(p, q, u, v, alg)


def test_equivalence_rejects_mismatch():
    alg = MatrixStarAlgebra(2, K)
    p = SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], K)
    q = SeriesMatrix.identity(2, K)
    assert not idempotent_equivalence_verify(p, q, p, p, alg)


def test_equivalence_shape_mismatch():
    alg = MatrixStarAlgebra(2, K)
    p = SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], K)
    u = SeriesMatrix.from_scalar_rows([[1, 0]], K)
    with pytest.raises(ShapeMismatch):
        idempotent_equivalence_verify(p, p, u, u, alg)


def test_deformed_equivalent_iff_classical_equivalent():
    # The deformed family is isomorphic to the plain one via a -> a(1+lE),
    # so deformed idempotents are equivalent exactly when their classical
    # limits are.
    e12 = SeriesMatrix.unit(2, 0, 1, K)
    alg = MatrixStarAlgebra(2, K, deform=e12)
    t_inv = SeriesMatrix.identity(2, K) - e12.scale(LAM)
    e11 = SeriesMatrix.unit(2, 0, 0, K)
    e22 = SeriesMatrix.unit(2, 1, 1, K)
    p = e11 @ t_inv
    q = e22 @ t_inv
    # classical witnesses E12, E21 transport to deformed witnesses
    u = SeriesMatrix.unit(2, 0, 1, K) @ t_inv
    v = SeriesMatrix.unit(2, 1, 0, K) @ t_inv
    assert idempotent_equivalence_verify(p, q, u, v, alg)


# -- fullness ------------------------------------------------------------------------------------


def test_canonical_module_is_full():
    assert fullness_check(PreHilbertModule.free(SCALARS, 3))
    m2 = MatrixStarAlgebra(2, K)
    assert fullness_check(PreHilbertModule.free(m2, 2))


def test_lambda_module_not_full():
    mod = scalar_module([[LAM, ZERO], [ZERO, LAM]])
    assert not fullness_check(mod)
    assert classical_limit_module(mod).dimension == 0


def test_rank_zero_not_full():
    assert not fullness_check(PreHilbertModule(SCALARS, 0, []))


# -- Morita classes --------------------------------------------------------------------------------


def cls(*texts, m=None, pole=None):
    coords = [parse_series(t, K) for t in texts]
    return MoritaClassData(m or len(coords), coords, pole)


def test_morita_examples():
    assert morita_class_check(cls("0"), cls("3")) is MoritaVerdict.EQUIVALENT
    assert morita_class_check(cls("0"), cls("1/2")) is \
        MoritaVerdict.NOT_EQUIVALENT
    assert morita_class_check(cls("0"), cls("l")) is \
        MoritaVerdict.NOT_EQUIVALENT


def test_morita_pole_parts_must_agree():
    a = cls("0", pole=[GaussianRational(1)])
    b = cls("3", pole=[GaussianRational(2)])
    assert morita_class_check(a, b) is MoritaVerdict.NOT_EQUIVALENT
    c = cls("3", pole=[GaussianRational(1)])
    assert morita_class_check(a, c) is MoritaVerdict.EQUIVALENT


def test_morita_rank_mismatch():
    with pytest.raises(RankMismatch):
        morita_class_check(cls("0"), cls("0", "1"))


def test_morita_indeterminate_on_lost_tail():
    lossy = FormalSeries.lam(K - 1, K) * FormalSeries.lam(1, K)
    a = MoritaClassData(1, [FormalSeries.from_scalar(GaussianRational(1), K)])
    b = MoritaClassData(1, [FormalSeries.from_scalar(GaussianRational(4), K)
                            + lossy])
    assert morita_class_check(a, b) is MoritaVerdict.INDETERMINATE


def test_morita_complex_class_not_equivalent():
    a = cls("0")
    b = cls("i")
    assert morita_class_check(a, b) is MoritaVerdict.NOT_EQUIVALENT


def test_morita_relation_kernel():
    a, b, c = cls("1/3"), cls("1/3 + 2"), cls("1/3 + 5")
    assert morita_class_check(a, a) is MoritaVerdict.EQUIVALENT
    assert morita_class_check(a, b) is morita_class_check(b, a)
    assert morita_class_check(a, b) is MoritaVerdict.EQUIVALENT
    assert morita_class_check(b, c) is MoritaVerdict.EQUIVALENT
    assert morita_class_check(a, c) is MoritaVerdict.EQUIVALENT


def test_hermitian_class_examples():
    assert hermitian_class_check(cls("3"))
    assert not hermitian_class_check(cls("i"))
    assert hermitian_class_check(cls("0"))
    assert hermitian_class_check(cls("1/2 + 3*l"))
