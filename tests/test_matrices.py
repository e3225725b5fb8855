import json
import operator
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fdq.reps as reps
from fdq.errors import (FdqError, NotUnit, PositivityRefuted,
                        PrecisionExhausted, ShapeMismatch, TruncationMismatch)
from fdq.exprio import series_text
from fdq.functionals import two_term_scan
from fdq.matrices import (MatrixStarAlgebra, SeriesMatrix,
                          matrix_from_json, nullspace,
                          one_plus_adjoint_times_self_invertible,
                          radical_quotient, rank_certified, reduce_coords,
                          series_matrix_inverse, solve_in_ring)
from fdq.modules import (GramVerdict, PreHilbertModule, fedosov_project,
                         fullness_check, gram_psd_check, rieffel_tensor)
from fdq.reps import GNSResult, MatrixFunctional, gns_build
from fdq.series import FormalSeries, GaussianRational, Sign, _sum_of_products

K = 4
LAM = FormalSeries.lam(1, K)
ONE = FormalSeries.one(K)
ZERO = FormalSeries.zero(K)


def lossy_zero():
    return FormalSeries.lam(K - 1, K) * FormalSeries.lam(1, K)


# -- matrix basics -------------------------------------------------------------------


def test_matmul_and_adjoint():
    a = SeriesMatrix.from_scalar_rows([[1, 2], [3, 4]], K)
    b = SeriesMatrix.from_scalar_rows([[0, 1], [1, 0]], K)
    assert a @ b == SeriesMatrix.from_scalar_rows([[2, 1], [4, 3]], K)
    c = SeriesMatrix([[ONE, LAM.scalar_mul(GaussianRational(0, 1))],
                      [ZERO, ONE]], K)
    adj = c.adjoint()
    assert adj.rows[1][0] == LAM.scalar_mul(GaussianRational(0, -1))


def test_shape_checks():
    a = SeriesMatrix.from_scalar_rows([[1, 2]], K)
    with pytest.raises(ShapeMismatch):
        a @ a
    with pytest.raises(TruncationMismatch):
        SeriesMatrix.from_scalar_rows([[1]], K) + \
            SeriesMatrix.from_scalar_rows([[1]], K + 1)


def test_hermitian_detection():
    h = SeriesMatrix([[ONE, LAM], [LAM, ONE]], K)
    assert h.is_hermitian()
    n = SeriesMatrix([[ONE, LAM], [ZERO, ONE]], K)
    assert not n.is_hermitian()


def test_json_roundtrip():
    a = SeriesMatrix([[ONE, LAM], [ZERO, ONE + LAM]], K)
    assert matrix_from_json(a.to_json()) == a


# -- elimination ----------------------------------------------------------------------


def test_nullspace_of_invertible_is_empty():
    a = SeriesMatrix([[ONE, ZERO], [ZERO, LAM]], K)
    assert nullspace(a) == []


def test_nullspace_certified_zero_rows():
    a = SeriesMatrix([[ONE, ONE], [ONE, ONE]], K)
    basis = nullspace(a)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[1] == ONE and vec[0] == -ONE


def test_nullspace_with_lambda_entries_stays_in_ring():
    a = SeriesMatrix([[LAM, LAM * LAM]], K)
    (vec,) = nullspace(a)
    # l x0 + l^2 x1 = 0 with x1 = 1 gives x0 = -l, all in the ring.
    assert vec[1] == ONE and vec[0] == -LAM


def test_nullspace_pivoting_avoids_denominators():
    # Valuation pivoting picks the unit entry of [[1, 0, 1], [0, l, 1]] as
    # the second pivot, so the kernel vector never needs a denominator.
    a = SeriesMatrix([[ONE, ZERO, ONE], [ZERO, LAM, ONE]], K)
    (vec,) = nullspace(a)
    for i in range(2):
        acc = ZERO
        for j in range(3):
            acc = acc + a.rows[i][j] * vec[j]
        assert acc.is_zero()
    assert vec == [LAM, ONE, -LAM]


@st.composite
def low_rank_matrices(draw):
    """rows x cols products A B of random A (rows x r), B (r x cols), with
    exact zeros and l-divisible entries, so kernels are common."""
    k = draw(st.sampled_from([2, 3, 4]))
    nrows, ncols, r = (draw(st.integers(1, 4)) for _ in range(3))

    def entry():
        if draw(st.booleans()):
            return FormalSeries.zero(k)
        cs = [GaussianRational(draw(st.integers(-2, 2)),
                               draw(st.integers(-1, 1))) for _ in range(k)]
        return FormalSeries(cs, k)

    a = SeriesMatrix([[entry() for _ in range(r)] for _ in range(nrows)], k)
    b = SeriesMatrix([[entry() for _ in range(ncols)] for _ in range(r)], k)
    return a @ b


@given(low_rank_matrices())
def test_radical_quotient_partition_and_kernel(mat):
    try:
        kept, kernel = radical_quotient(mat)
    except PrecisionExhausted:
        assume(False)
    free = [f for f, _ in kernel]
    assert kept == sorted(kept) and free == sorted(free)
    assert sorted(kept + free) == list(range(mat.ncols))
    for f, vec in kernel:
        for g in free:
            assert vec[g] == (FormalSeries.one(mat.order) if g == f
                              else FormalSeries.zero(mat.order))
        col = SeriesMatrix([[c] for c in vec], mat.order)
        assert (mat @ col).is_zero()
    assert nullspace(mat) == [vec for _, vec in kernel]


def test_divide_lossy_zero_dividend():
    from fdq.matrices import _Divisor
    with pytest.raises(PrecisionExhausted):
        _Divisor(LAM)(lossy_zero())


def test_elimination_raises_on_uncertified_zero():
    a = SeriesMatrix([[lossy_zero()]], K)
    with pytest.raises(PrecisionExhausted):
        rank_certified(a)


def test_exact_zero_matrix_has_full_kernel():
    a = SeriesMatrix([[ZERO, ZERO], [ZERO, ZERO]], K)
    assert len(nullspace(a)) == 2


def test_solve_in_ring_basic():
    a = SeriesMatrix([[ONE, ONE], [ZERO, LAM]], K)
    x = solve_in_ring(a, [ONE, LAM * LAM])
    assert x is not None
    got = [sum((a.rows[i][j] * x[j] for j in range(2)), ZERO)
           for i in range(2)]
    assert got == [ONE, LAM * LAM]


def test_solve_in_ring_respects_valuations():
    # l x = 1 has no solution over the ring.
    a = SeriesMatrix([[LAM]], K)
    assert solve_in_ring(a, [ONE]) is None
    # but l x = l^2 does
    assert solve_in_ring(a, [LAM * LAM]) is not None


def test_solve_prefers_unit_columns():
    # [l 1] x = 1 is solvable via the second column.
    a = SeriesMatrix([[LAM, ONE]], K)
    x = solve_in_ring(a, [ONE])
    assert x is not None and x[1] == ONE


def test_solve_inconsistent():
    a = SeriesMatrix([[ONE], [ONE]], K)
    assert solve_in_ring(a, [ONE, ONE + LAM]) is None


def test_solve_undecidable_consistency():
    a = SeriesMatrix([[ONE], [ZERO]], K)
    with pytest.raises(PrecisionExhausted):
        solve_in_ring(a, [ONE, lossy_zero()])


def test_matrix_inverse():
    a = SeriesMatrix([[ONE, LAM], [ZERO, ONE]], K)
    inv = series_matrix_inverse(a)
    assert a @ inv == SeriesMatrix.identity(2, K)
    assert inv @ a == SeriesMatrix.identity(2, K)


def test_matrix_inverse_with_lossy_zero_over_unit_pivot():
    # Back-substitution meets a component that is zero only up to l^4 over a
    # unit pivot; the quotient is still determined mod l^4, so the inverse
    # exists and has that entry zero.
    def s(*c):
        return FormalSeries([GaussianRational(x) for x in c], K)

    m = SeriesMatrix([[s(4, -1, -2, 2), s(-1, 2, -1, 2), s(1, 2, 2, -2)],
                      [ZERO, s(4, -2, -1, 2), s(0, 2, -1, 1)],
                      [ZERO, s(0, 2, 1, -2), s(4, 2, 1)]], K)
    inv = series_matrix_inverse(m)
    assert m @ inv == SeriesMatrix.identity(3, K)
    assert inv @ m == SeriesMatrix.identity(3, K)


def test_solve_lossy_zero_over_non_unit_pivot_raises():
    a = SeriesMatrix([[LAM]], K)
    with pytest.raises(PrecisionExhausted,
                       match="solution component undecidable at this "
                             "truncation"):
        solve_in_ring(a, [lossy_zero()])


def test_matrix_inverse_requires_unit_leading_term():
    with pytest.raises(NotUnit):
        series_matrix_inverse(SeriesMatrix([[LAM]], K))


# -- matrix star-algebras ----------------------------------------------------------------


def test_plain_algebra_unit_and_product():
    alg = MatrixStarAlgebra(2, K)
    a = SeriesMatrix.from_scalar_rows([[1, 2], [3, 4]], K)
    assert alg.product(alg.unit(), a) == a
    assert alg.involution(a) == a.adjoint()


def test_deformed_product_is_associative():
    e = SeriesMatrix([[LAM, ONE], [ZERO, ONE + LAM]], K)
    alg = MatrixStarAlgebra(2, K, deform=e)
    a = SeriesMatrix.from_scalar_rows([[1, 2], [3, 4]], K)
    b = SeriesMatrix.from_scalar_rows([[0, 1], [1, 1]], K)
    c = SeriesMatrix([[ONE, LAM], [LAM, ZERO]], K)
    assert alg.product(alg.product(a, b), c) == \
        alg.product(a, alg.product(b, c))


def test_deformed_unit_two_sided():
    e = SeriesMatrix.from_scalar_rows([[0, 1], [0, 0]], K)
    alg = MatrixStarAlgebra(2, K, deform=e)
    u = alg.unit()
    for m in (SeriesMatrix.from_scalar_rows([[1, 2], [3, 4]], K),
              SeriesMatrix.unit(2, 1, 0, K)):
        assert alg.product(u, m) == m
        assert alg.product(m, u) == m


def test_hermitian_product_detection():
    assert MatrixStarAlgebra(2, K).hermitian_product()
    e_sym = SeriesMatrix.from_scalar_rows([[0, 1], [1, 0]], K)
    assert MatrixStarAlgebra(2, K, deform=e_sym).hermitian_product()
    e_nsym = SeriesMatrix.from_scalar_rows([[0, 1], [0, 0]], K)
    assert not MatrixStarAlgebra(2, K, deform=e_nsym).hermitian_product()


def test_deformed_hermitian_axiom():
    e = SeriesMatrix.from_scalar_rows([[0, 1], [1, 0]], K)
    alg = MatrixStarAlgebra(2, K, deform=e)
    a = SeriesMatrix([[ONE, LAM.scalar_mul(GaussianRational(0, 1))],
                      [ZERO, ONE]], K)
    b = SeriesMatrix.from_scalar_rows([[1, 1], [0, 2]], K)
    assert alg.involution(alg.product(a, b)) == \
        alg.product(alg.involution(b), alg.involution(a))


def test_coords_roundtrip():
    alg = MatrixStarAlgebra(2, K)
    a = SeriesMatrix([[ONE, LAM], [LAM * LAM, ZERO]], K)
    assert alg.from_coords(alg.to_coords(a)) == a


# -- the invertibility condition -----------------------------------------------------------


def test_one_plus_adjoint_self_invertible():
    for rows in ([[1, 2], [3, 4]], [[0, 0], [0, 0]], [[1, 1], [1, 1]]):
        a = SeriesMatrix.from_scalar_rows(rows, K)
        assert one_plus_adjoint_times_self_invertible(a)
    with_lam = SeriesMatrix([[LAM, ONE + LAM], [ONE, LAM * LAM]], K)
    assert one_plus_adjoint_times_self_invertible(with_lam)


# -- fast paths against slow references ----------------------------------------------


def entry_kinds(draw, k):
    """A series of order k: an exact zero, a zero with a lost tail, a nonzero
    with a lost tail, or a plain nonzero."""
    kind = draw(st.sampled_from(["exact-zero", "lossy-zero", "lossy",
                                 "plain"]))
    if kind == "exact-zero":
        return FormalSeries.zero(k)
    if kind == "lossy-zero":
        return FormalSeries((), k, tail_lost=True)
    cs = [GaussianRational(draw(st.integers(-2, 2)), draw(st.integers(-1, 1)))
          for _ in range(k)]
    cs[draw(st.integers(0, k - 1))] = GaussianRational(1)
    return FormalSeries(cs, k, tail_lost=kind == "lossy")


@st.composite
def matmul_pairs(draw):
    k = draw(st.sampled_from([1, 2, 3, 4]))
    n, m, p = (draw(st.integers(1, 3)) for _ in range(3))
    a = SeriesMatrix([[entry_kinds(draw, k) for _ in range(m)]
                      for _ in range(n)], k)
    b = SeriesMatrix([[entry_kinds(draw, k) for _ in range(p)]
                      for _ in range(m)], k)
    return a, b


def reference_matmul(a, b):
    """Triple loop: entry (i, j) is 0 + sum of a_ik * b_kj over the k whose
    a_ik is not an exact zero.  Skipping those is a shortcut now that an
    exact zero annihilates every product; under the earlier product rule
    this loop is the earlier ``@``, which let a b_kj flag reach the entry
    only through an a_ik that is not an exact zero."""
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = FormalSeries.zero(a.order)
            for k in range(a.ncols):
                if not a.rows[i][k].is_exact_zero():
                    acc = acc + a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        out.append(row)
    return SeriesMatrix(out, a.order)


@settings(max_examples=150)
@given(matmul_pairs())
def test_matmul_matches_triple_loop(pair):
    a, b = pair
    got, want = a @ b, reference_matmul(a, b)
    assert got == want
    assert [[e.tail_lost for e in r] for r in got.rows] == \
        [[e.tail_lost for e in r] for r in want.rows]


def flags(mat):
    return [[e.tail_lost for e in r] for r in mat.rows]


UNIT_CASES = [(m, k, kind) for m in (1, 2, 3) for k in (1, 2, 3, 4)
              for kind in ("none", "exact", "lossy")]


def unit_algebra(draw, m, k, kind):
    """M_m at order k, plain, or deformed by a D with exact entries (exact
    zeros and plain nonzeros) or with lossy ones too."""
    if kind == "none":
        return MatrixStarAlgebra(m, k)

    def entry():
        e = entry_kinds(draw, k)
        return e if kind == "lossy" else FormalSeries(e.coeffs, k)

    return MatrixStarAlgebra(m, k, deform=SeriesMatrix(
        [[entry() for _ in range(m)] for _ in range(m)], k))


@pytest.mark.parametrize("m, k, kind", UNIT_CASES)
@settings(max_examples=6)
@given(st.data())
def test_right_unit_coords_match_products(m, k, kind, data):
    alg = unit_algebra(data.draw, m, k, kind)
    a = SeriesMatrix([[entry_kinds(data.draw, k) for _ in range(m)]
                      for _ in range(m)], k)
    got = alg.right_unit_coords(a, range(alg.dim))
    want = [alg.to_coords(alg.product(a, b)) for b in alg.basis()]
    assert got == want
    assert [[e.tail_lost for e in c] for c in got] == \
        [[e.tail_lost for e in c] for c in want]


SWAP_1 = MatrixStarAlgebra(2, 1, deform=SeriesMatrix.from_scalar_rows(
    [[0, 1], [1, 0]], 1))


def test_right_unit_coords_at_k1_are_lossy():
    # At K = 1, l is a lossy zero.  The deformation term l (a D)[r][k] of
    # a x E_kl at (r, l) has lost its tail exactly where (a D)[r][k] is not
    # an exact zero; every other coordinate is an exact zero.
    a = SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], 1)
    ad = a @ SWAP_1.deform
    flagged = 0
    for t, coords in enumerate(SWAP_1.right_unit_coords(a, range(4))):
        k, l = divmod(t, 2)
        assert [e.tail_lost for e in coords] == [
            c == l and not ad.rows[r][k].is_exact_zero()
            for r in range(2) for c in range(2)]
        flagged += sum(e.tail_lost for e in coords)
    assert flagged == 2  # (a D)[0][1] = 1, in a x E21 and a x E22
    assert not any(e.tail_lost for coords in MatrixStarAlgebra(2, 1)
                   .right_unit_coords(a, range(4)) for e in coords)


def reference_inverse(m):
    """One ``solve_in_ring`` per column of the identity, in order."""
    n = m.nrows
    cols = []
    for j in range(n):
        x = solve_in_ring(m, [FormalSeries.one(m.order) if i == j
                              else FormalSeries.zero(m.order)
                              for i in range(n)])
        if x is None:
            raise NotUnit("matrix is not invertible over the series ring")
        cols.append(x)
    return SeriesMatrix([[cols[j][i] for j in range(n)] for i in range(n)],
                        m.order)


@st.composite
def square_matrices(draw):
    """Square matrices with exact zeros, lossy zeros, lossy nonzeros and
    l-divisible entries, so singular and undecidable cases are common."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 4))

    def entry(diagonal):
        e = entry_kinds(draw, k).shift(draw(st.sampled_from([0, 0, 1, 2])))
        if diagonal and draw(st.booleans()):
            e = e + FormalSeries.one(k)
        return e

    return SeriesMatrix([[entry(i == j) for j in range(n)] for i in range(n)],
                        k)


def outcome(f, m):
    try:
        inv = f(m)
    except (NotUnit, PrecisionExhausted) as exc:
        return type(exc), str(exc)
    return inv.rows, [[e.tail_lost for e in r] for r in inv.rows]


@settings(max_examples=300)
@given(square_matrices())
@example(SeriesMatrix([[ONE, LAM], [ZERO, ONE]], K))
@example(SeriesMatrix([[LAM, ZERO], [ZERO, ONE]], K))  # singular at l^0
@example(SeriesMatrix([[LAM, ZERO], [lossy_zero(), LAM]], K))  # elimination
@example(SeriesMatrix([[ONE, LAM], [LAM, FormalSeries((1, 0, 0, 1), K, True)]],
                      K))
def test_inverse_matches_per_column_solves(m):
    assert outcome(series_matrix_inverse, m) == outcome(reference_inverse, m)


def test_inverse_eliminates_once(monkeypatch):
    import fdq.matrices as matrices

    calls = []
    real = matrices._echelonize

    def counting(*args, **kw):
        calls.append(args[1])
        return real(*args, **kw)

    monkeypatch.setattr(matrices, "_echelonize", counting)
    m = SeriesMatrix([[ONE + LAM if i == j else LAM.shift(i) for j in range(4)]
                      for i in range(4)], K)
    inv = series_matrix_inverse(m)
    assert calls == [4]
    assert m @ inv == SeriesMatrix.identity(4, K)


def test_gns_eliminates_w_once(monkeypatch):
    """With Hermitian C and W, one elimination of W decides omega >= 0 and
    gives its radical.  (The star-unit C^-1 of a deformed algebra is an
    elimination of C, taken once per algebra.)"""
    import fdq.matrices as matrices
    import fdq.modules as modules

    calls = []
    real, real_psd = matrices._echelonize, modules.gram_psd_check

    def counting(rows, *args, **kw):
        calls.append([list(r) for r in rows])
        return real(rows, *args, **kw)

    def counting_psd(h):
        calls.append("gram_psd_check")
        return real_psd(h)

    w = SeriesMatrix.from_scalar_rows([[1, 1], [1, 1]], K)
    for deform in (None, SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], K)):
        alg = MatrixStarAlgebra(2, K, deform=deform)
        alg.unit()
        monkeypatch.setattr(matrices, "_echelonize", counting)
        monkeypatch.setattr(modules, "gram_psd_check", counting_psd)
        del calls[:]
        res = gns_build(alg, MatrixFunctional(w))
        monkeypatch.undo()
        assert res.basis_labels() == ["E11", "E21"]
        assert calls == [[list(r) for r in w.rows]]


def dense(nrows, ncols, shift=0):
    """Entries (i + j + 1) l off the diagonal and 2 + l on it, times
    l^shift: every entry is nonzero, every pivot has valuation ``shift``."""
    return SeriesMatrix(
        [[(ONE + ONE + LAM if i == j
           else LAM.scalar_mul(GaussianRational(i + j + 1))).shift(shift)
          for j in range(ncols)] for i in range(nrows)], K)


def count_inverts(monkeypatch):
    calls = []
    real = FormalSeries.invert

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FormalSeries, "invert", counting)
    return calls


def test_each_pivot_is_inverted_once(monkeypatch):
    calls = count_inverts(monkeypatch)
    m = dense(4, 4)
    inv = series_matrix_inverse(m)
    # Three pivots clear rows below them; back-substitution reuses their
    # inverses and inverts the last pivot for the first time.
    assert len(calls) == 4
    assert m @ inv == SeriesMatrix.identity(4, K)
    del calls[:]
    assert rank_certified(m) == 4
    assert len(calls) == 3   # the last pivot has no row left to clear
    del calls[:]
    assert rank_certified(dense(5, 4)) == 4
    assert len(calls) == 4
    del calls[:]
    assert rank_certified(dense(4, 4, shift=1)) == 4
    assert len(calls) == 3   # the shifted pivot l^-1 p is inverted once too
    del calls[:]
    assert len(radical_quotient(dense(3, 5))[1]) == 2
    assert len(calls) == 3


@settings(max_examples=300)
@given(square_matrices())
def test_shared_pivot_inverses_match_fresh_ones(m):
    """Reusing each pivot's inverse gives the values, flags and errors that
    inverting the pivot again for every division gives."""
    import fdq.matrices as matrices

    class Fresh(matrices._Divisor):
        __slots__ = ()

        def __call__(self, a):
            self.inverse = None
            return super().__call__(a)

    def run():
        got = []
        for f in (series_matrix_inverse, radical_quotient):
            try:
                res = f(m)
            except (NotUnit, PrecisionExhausted) as exc:
                got.append((type(exc), str(exc)))
                continue
            vecs = (res.rows if f is series_matrix_inverse
                    else [vec for _, vec in res[1]])
            got.append((vecs, [[e.tail_lost for e in v] for v in vecs]))
        return got

    shared = run()
    real = matrices._Divisor
    matrices._Divisor = Fresh
    try:
        fresh = run()
    finally:
        matrices._Divisor = real
    assert shared == fresh


# -- exact zeros stay exact under row operations ------------------------------------


def reference_echelonize(rows, ncols, divisors, certify_rank=True,
                         hermitian=False):
    """The elimination with the earlier update rule x - factor * y on every
    entry of the pivot row: when the pivot is not a constant, the factor has
    lost its tail, and an exact-zero y gives a lossy zero."""
    import fdq.matrices as matrices

    assert not hermitian
    pivots = []
    used_rows, used_cols = set(), set()
    while True:
        best = None
        for i, row in enumerate(rows):
            for j in range(ncols):
                if i in used_rows or j in used_cols:
                    continue
                v = row[j].valuation()
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            if certify_rank and any(
                    not row[j].is_exact_zero()
                    for i, row in enumerate(rows) if i not in used_rows
                    for j in range(ncols) if j not in used_cols):
                raise PrecisionExhausted(
                    "pivot valuation reaches the truncation order; rank not "
                    "determined at this truncation")
            return pivots
        _, pi, pj = best
        divide = divisors[pi, pj] = matrices._Divisor(rows[pi][pj])
        for i, row in enumerate(rows):
            if i in used_rows or i == pi or row[pj].is_exact_zero():
                continue
            factor = divide(row[pj])
            rows[i] = [x - factor * y for x, y in zip(row, rows[pi])]
        used_rows.add(pi)
        used_cols.add(pj)
        pivots.append((pi, pj))


def with_reference_rule(f, *args):
    """``f(*args)`` with the earlier update rule, or (error class, message)."""
    import fdq.matrices as matrices

    real = matrices._echelonize
    matrices._echelonize = reference_echelonize
    try:
        return f(*args)
    except PrecisionExhausted as exc:
        return type(exc), str(exc)
    finally:
        matrices._echelonize = real


def test_exact_zero_column_is_certified():
    # 1 + l is not a constant, so the factor l / (1 + l) has lost its tail;
    # times the exact zeros of column 2 it gave lossy zeros.
    m = SeriesMatrix([[ONE + LAM, ZERO], [LAM, ZERO]], K)
    assert rank_certified(m) == 1
    kept, kernel = radical_quotient(m)
    assert kept == [0] and kernel == [(1, [ZERO, ONE])]
    assert not any(e.tail_lost for e in kernel[0][1])
    lost = (PrecisionExhausted, "pivot valuation reaches the truncation "
            "order; rank not determined at this truncation")
    # The earlier row rule raises only under the earlier product rule: now
    # the factor times an exact zero is an exact zero in either row rule.
    assert with_reference_rule(rank_certified, m) == 1
    assert with_reference_rule(radical_quotient, m) == (kept, kernel)
    with earlier_product_rule():
        assert with_reference_rule(rank_certified, m) == lost
        assert with_reference_rule(radical_quotient, m) == lost


@st.composite
def elimination_inputs(draw):
    """A matrix of order 1-4, up to 4 x 4, with exact zeros, lossy zeros,
    lossy nonzeros and l-divisible entries, and a right-hand side."""
    k = draw(st.sampled_from([1, 2, 3, 4]))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def entry(diagonal=False):
        e = entry_kinds(draw, k).shift(draw(st.sampled_from([0, 0, 1, 2])))
        if diagonal and draw(st.booleans()):
            e = e + FormalSeries.one(k)
        return e

    mat = SeriesMatrix([[entry(i == j) for j in range(ncols)]
                        for i in range(nrows)], k)
    return mat, [entry() for _ in range(nrows)]


def values_and_flags(vectors):
    return ([list(v) for v in vectors],
            [[e.tail_lost for e in v] for v in vectors])


def assert_exact_at_earlier_pivot_columns(rows, pivots):
    """Each pivot row holds exact zeros at the earlier pivots' columns."""
    for k, (pi, _) in enumerate(pivots):
        assert all(rows[pi][pj].is_exact_zero() for _, pj in pivots[:k])


def test_a_row_operation_cancels_its_pivot_column_to_an_exact_zero():
    """On A^H A, A = A0 + l A1 dense: the factor over a pivot that is not a
    constant has lost its tail, so x - factor * y at the pivot column was a
    lossy zero; the row operation sets it to an exact zero."""
    import fdq.matrices as matrices

    for d in (3, 4, 5):
        a = SeriesMatrix([[FormalSeries([(i * d + j) % 5 - 2 + (i == j) * 6,
                                         (i + 2 * j) % 3 - 1], K)
                           for j in range(d)] for i in range(d)], K)
        h = a.adjoint() @ a
        for hermitian in (False, True):
            rows = [list(r) for r in h.rows]
            pivots = matrices._echelonize(rows, d, {}, hermitian=hermitian)
            assert len(pivots) == d
            assert_exact_at_earlier_pivot_columns(rows, pivots)


def assert_flags_within(new, ref):
    """Each tail lost in ``new`` is lost in ``ref`` too."""
    for v, w in zip(new, ref):
        assert all(w_lost for v_lost, w_lost in zip(v, w) if v_lost)


@settings(max_examples=400, deadline=None)
@given(elimination_inputs())
@example((SeriesMatrix([[ONE + LAM, ZERO], [LAM, ZERO]], K), [ZERO, ZERO]))
def test_elimination_matches_the_earlier_rule_where_it_answered(case):
    """Where the earlier update rule gives an answer, skipping the exact
    zeros of the pivot row gives the same pivots and values, with no tail
    lost that the earlier rule kept; where it raised, only
    PrecisionExhausted may still be raised."""
    import fdq.matrices as matrices

    mat, rhs = case
    for certify in (True, False):
        got, ref = ([list(r) for r in mat.rows] for _ in range(2))
        try:
            ref_pivots = reference_echelonize(ref, mat.ncols, {}, certify)
        except PrecisionExhausted:
            ref_pivots = None
        try:
            pivots = matrices._echelonize(got, mat.ncols, {}, certify)
        except PrecisionExhausted:
            assert ref_pivots is None
            continue
        assert_exact_at_earlier_pivot_columns(got, pivots)
        if ref_pivots is not None:
            assert pivots == ref_pivots
            assert got == ref
            assert_flags_within(*(values_and_flags(rows)[1]
                                  for rows in (got, ref)))
    for f, args in ((rank_certified, (mat,)), (radical_quotient, (mat,)),
                    (solve_in_ring, (mat, rhs))):
        ref = with_reference_rule(f, *args)
        try:
            res = f(*args)
        except PrecisionExhausted:
            assert isinstance(ref, tuple) and ref[0] is PrecisionExhausted
            continue
        if isinstance(ref, tuple) and ref[:1] == (PrecisionExhausted,):
            continue
        assert res == ref
        if f is radical_quotient:
            assert_flags_within(
                *(values_and_flags(v for _, v in out[1])[1]
                  for out in (res, ref)))
        elif f is solve_in_ring and res is not None:
            assert_flags_within(*(values_and_flags([out])[1]
                                  for out in (res, ref)))


# -- an exact zero annihilates every product ------------------------------------------

REAL_SCALED_PRODUCT = FormalSeries.scaled_product


def earlier_scaled_product(a, b, num=1, den=1):
    """The earlier series product: a zero factor gave a zero that kept
    either operand's lost tail, so 0 * x was lossy for a lossy x."""
    if isinstance(b, FormalSeries) and (a.is_zero() or b.is_zero()):
        a._check(b)
        return FormalSeries((), a.order, a.tail_lost or b.tail_lost)
    return REAL_SCALED_PRODUCT(a, b, num, den)


def unit_loop_gram_and_witnesses(algebra, omega):
    """``reps._gram_and_witnesses`` as one full product per pair of units,
    omega skipping its exact-zero weights as it did."""
    def omega_of(a):
        total = FormalSeries.zero(algebra.order)
        for w_row, a_row in zip(omega.weights.rows, a.rows):
            for w, x in zip(w_row, a_row):
                if not w.is_exact_zero():
                    total = total + w * x
        return total

    basis, labels = algebra.basis(), algebra.basis_labels()
    g = [[omega_of(algebra.product(algebra.involution(bs), bt))
          for bt in basis] for bs in basis]
    rows = two_term_scan(
        g, lambda t: labels[t],
        lambda s, t, u: f"{labels[s]}+({u.re}+{u.im}i){labels[t]}")
    return SeriesMatrix(g, algebra.order), [
        (label, value) for label, value, verdict in rows
        if verdict is Sign.NEGATIVE]


def unit_loop_coords(algebra, a, units):
    """``right_unit_coords`` as one full product a x e_t per unit."""
    basis = algebra.basis()
    return [algebra.to_coords(algebra.product(a, basis[t])) for t in units]


@contextmanager
def earlier_product_rule():
    """Products as they were before an exact zero annihilated them: the
    earlier series product, ``@`` as the triple loop over it, sums of
    products as the loops over it (``step_by_step``), and the GNS Gram and
    a x e_t as full products, which the earlier closed forms matched in
    value and flag."""
    saved = (FormalSeries.scaled_product, SeriesMatrix.__matmul__,
             reps._gram_and_witnesses, MatrixStarAlgebra.right_unit_coords)
    FormalSeries.scaled_product = FormalSeries.__mul__ = \
        earlier_scaled_product
    SeriesMatrix.__matmul__ = reference_matmul
    reps._gram_and_witnesses = unit_loop_gram_and_witnesses
    MatrixStarAlgebra.right_unit_coords = unit_loop_coords
    try:
        with step_by_step():
            yield
    finally:
        FormalSeries.scaled_product = FormalSeries.__mul__ = saved[0]
        SeriesMatrix.__matmul__ = saved[1]
        reps._gram_and_witnesses = saved[2]
        MatrixStarAlgebra.right_unit_coords = saved[3]


# -- sums of products in one pass against the step-by-step loops ---------------------
#
# The loops that the integer accumulate kernel (``_sum_of_products``) and the
# one-pass deformed product replaced, kept as references.


def reference_sum_of_products(start, pairs, negate=False):
    """start - factor * y (the row update) or start +- sum of row[c] x[c]
    (``_residual``), one series product, negation and sum at a time,
    skipping a pair with an exact-zero factor as those loops did."""
    for a, b in pairs:
        if not (a.is_exact_zero() or b.is_exact_zero()):
            start = start - a * b if negate else start + a * b
    return start


def reference_reduce_coords(coords, kept, kernel):
    """out[s] - cf * vec[t] for each (f, vec) whose cf is not an exact
    zero, one product and difference at a time."""
    out = [coords[t] for t in kept]
    for f, vec in kernel:
        cf = coords[f]
        if cf.is_exact_zero():
            continue
        for s, t in enumerate(kept):
            out[s] = out[s] - cf * vec[t]
    return out


def reference_product(self, a, b):
    """a b + (a E b) l as three ``@``, a scale by l and a sum."""
    plain = a @ b
    if self.deform is None:
        return plain
    corr = (a @ self.deform @ b).scale(FormalSeries.lam(1, self.order))
    return plain + corr


def reference_one_plus_l_deform(self):
    ident = SeriesMatrix.identity(self.m, self.order)
    if self.deform is None:
        return ident
    return ident + self.deform.scale(FormalSeries.lam(1, self.order))


@contextmanager
def step_by_step():
    """The matrix layer with its sums of products taken one term at a
    time: the row update, the residuals, ``reduce_coords`` and the deformed
    product as the loops above."""
    import fdq.matrices as matrices
    import fdq.modules as modules

    saved = (matrices._sum_of_products, matrices.reduce_coords,
             MatrixStarAlgebra.product, MatrixStarAlgebra.one_plus_l_deform)
    matrices._sum_of_products = reference_sum_of_products
    matrices.reduce_coords = reps.reduce_coords = modules.reduce_coords = \
        reference_reduce_coords
    MatrixStarAlgebra.product = reference_product
    MatrixStarAlgebra.one_plus_l_deform = reference_one_plus_l_deform
    try:
        yield
    finally:
        matrices._sum_of_products = saved[0]
        matrices.reduce_coords = reps.reduce_coords = \
            modules.reduce_coords = saved[1]
        MatrixStarAlgebra.product = saved[2]
        MatrixStarAlgebra.one_plus_l_deform = saved[3]


def split(result):
    """(values, flags) of a result: its structure with every series in
    place, and the series' flags in order."""
    flags = []

    def walk(x):
        if isinstance(x, FormalSeries):
            flags.append(x.tail_lost)
            return x
        if isinstance(x, SeriesMatrix):
            return walk(x.rows)
        if isinstance(x, GNSResult):
            return walk((x.basis_indices, x.kernel, x.gram, x.pi, x.cyclic))
        if isinstance(x, PreHilbertModule):
            return walk((x.rank, x.gram))
        if isinstance(x, (list, tuple)):
            return [walk(y) for y in x]
        return x

    return walk(result), flags


def run(f, build):
    """``f`` on freshly built arguments (an algebra caches its unit), as
    ("value", values, flags) or ("error", class, message)."""
    try:
        return ("value", *split(f(*build())))
    except FdqError as exc:
        return "error", type(exc), str(exc)


def hermitian_blocks(draw, algebra, rank):
    """A Hermitian rank x rank Gram of algebra elements."""
    m, k = algebra.m, algebra.order

    def block():
        return SeriesMatrix([[entry_kinds(draw, k) for _ in range(m)]
                             for _ in range(m)], k)

    gram = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        x = block()
        gram[i][i] = x + x.adjoint()
        for j in range(i + 1, rank):
            gram[i][j] = block()
            gram[j][i] = gram[i][j].adjoint()
    return gram


def psd_blocks(draw, algebra, rank):
    """A rank x rank Gram Y* Y of algebra elements, PSD when flattened."""
    m, k = algebra.m, algebra.order
    n = rank * m
    y = SeriesMatrix([[entry_kinds(draw, k) for _ in range(n)]
                      for _ in range(n)], k)
    g = (y.adjoint() @ y).rows
    return [[SeriesMatrix([row[j * m:(j + 1) * m]
                           for row in g[i * m:(i + 1) * m]], k)
             for j in range(rank)] for i in range(rank)]


@st.composite
def differential_cases(draw, names=("matmul", "gns", "radical", "solve",
                                    "inverse", "fedosov", "rieffel",
                                    "fullness")):
    """(function, builder of its arguments) over exact zeros, lossy zeros
    and lossy entries, K 1-4, plain and deformed algebras."""
    name = draw(st.sampled_from(names))
    if name == "matmul":
        a, b = draw(matmul_pairs())
        return operator.matmul, lambda: (a, b)
    if name in ("radical", "solve"):
        mat, rhs = draw(elimination_inputs())
        if name == "radical":
            return radical_quotient, lambda: (mat,)
        return solve_in_ring, lambda: (mat, rhs)
    if name == "inverse":
        mat = draw(square_matrices())
        return series_matrix_inverse, lambda: (mat,)
    k = draw(st.sampled_from([1, 2, 3, 4]))
    m = draw(st.integers(1, 3 if name in ("gns", "fedosov") else 2))
    kind = draw(st.sampled_from(["none", "exact", "lossy"]))
    alg = unit_algebra(draw, m, k, kind)

    def algebra():
        return MatrixStarAlgebra(m, k, deform=alg.deform)

    if name == "gns":
        # A Hermitian D and Hermitian weights with a diagonal of zeros,
        # lossy zeros and positive leading terms, so that the scan often
        # passes.
        def real():
            e = entry_kinds(draw, k)
            return e + e.conjugate()

        w = [[FormalSeries.zero(k)] * m for _ in range(m)]
        for i in range(m):
            w[i][i] = draw(st.sampled_from([
                FormalSeries.zero(k), FormalSeries((), k, True),
                FormalSeries.one(k), FormalSeries.one(k) + real().shift(1),
                real().shift(1)]))
            for j in range(i + 1, m):
                if draw(st.booleans()):
                    w[i][j] = entry_kinds(draw, k).shift(1)
                    w[j][i] = w[i][j].conjugate()
        omega = MatrixFunctional(SeriesMatrix(w, k))
        deform = None if alg.deform is None else \
            alg.deform + alg.deform.adjoint()
        return gns_build, lambda: (MatrixStarAlgebra(m, k, deform=deform),
                                   omega)
    if name == "fedosov":
        p0 = SeriesMatrix(
            [[entry_kinds(draw, k).shift(1)
              + (FormalSeries.one(k) if i == j and draw(st.booleans())
                 else FormalSeries.zero(k)) for j in range(m)]
             for i in range(m)], k)
        return fedosov_project, lambda: (p0, algebra())
    if name == "fullness":
        rank = draw(st.integers(1, 2))
        gram = hermitian_blocks(draw, alg, rank)
        return fullness_check, lambda: (
            PreHilbertModule(algebra(), rank, gram),)
    # rieffel: F over the scalars, E over plain M_m with the scalars
    # acting as multiples of the unit.  Grams that are not PSD are refused
    # before induction, so half of the draws are PSD.
    r_f, r_e = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    blocks = psd_blocks if draw(st.booleans()) else hermitian_blocks
    f_gram = blocks(draw, MatrixStarAlgebra(1, k), r_f)
    e_gram = blocks(draw, MatrixStarAlgebra(m, k), r_e)

    def build():
        scalars, base = MatrixStarAlgebra(1, k), MatrixStarAlgebra(m, k)
        zero = SeriesMatrix.zero(m, m, k)

        def act(b):
            return [[base.unit().scale(b.rows[0][0]) if p == q else zero
                     for q in range(r_e)] for p in range(r_e)]

        return (PreHilbertModule(scalars, r_f, f_gram),
                PreHilbertModule(base, r_e, e_gram, left_algebra=scalars,
                                 left_action=act))

    return rieffel_tensor, build


@settings(max_examples=400, deadline=None)
@given(differential_cases())
def test_exact_zero_rule_only_drops_flags(case):
    """Against the earlier product rule: values are equal, every flag set
    now was set before, and an outcome differs only where the earlier rule
    raised PrecisionExhausted (an answer now, or a decided NotUnit)."""
    f, build = case
    new = run(f, build)
    with earlier_product_rule():
        old = run(f, build)
    if old[:2] == ("error", PrecisionExhausted):
        return
    if new[0] == "error":
        assert new == old
    else:
        assert old[0] == "value"
        assert new[1] == old[1]
        assert all(was for now, was in zip(new[2], old[2]) if now)


def test_exact_zero_rule_decides_a_deformed_gns_at_k1():
    # At K = 1, l is a lossy zero.  The earlier rule flagged every entry of
    # C = 1 + l D and of the Gram; now only the C_ii of a nonzero D_ii are.
    alg = MatrixStarAlgebra(2, 1, deform=SeriesMatrix.identity(2, 1))
    omega = MatrixFunctional(SeriesMatrix.from_scalar_rows(
        [[1, 0], [0, 0]], 1))

    def build():
        return MatrixStarAlgebra(2, 1, deform=alg.deform), omega

    res = gns_build(*build())
    assert res.basis_labels() == ["E11", "E21"]
    assert res.gram == SeriesMatrix.identity(2, 1)
    assert [[e.tail_lost for e in r] for r in res.gram.rows] == \
        [[True, False], [False, True]]
    with earlier_product_rule():
        assert run(reference_gns_build, build) == (
            "error", PrecisionExhausted, "pivot valuation reaches the "
            "truncation order; rank not determined at this truncation")


def reference_gns_build(algebra, omega):
    """``gns_build`` on the full m^2 x m^2 Gram C (x) W, as it was before it
    worked on the weights: the two-term scan refutes, one
    ``radical_quotient`` of the Gram gives the quotient, and pi comes from
    ``represent``."""
    m = algebra.m
    if (omega.weights.nrows, omega.weights.ncols) != (m, m):
        raise ShapeMismatch(f"omega's weights must be {m} x {m}")
    gram_full, witnesses = reps._gram_and_witnesses(algebra, omega)
    if witnesses:
        label, value = witnesses[0]
        raise PositivityRefuted(
            f"omega({label}* x {label}) = {series_text(value)} is negative")
    pivot_cols, kernel = radical_quotient(gram_full)
    if not pivot_cols:
        raise ShapeMismatch("omega vanishes on every b* x b: the GNS "
                            "quotient is 0-dimensional")
    gram = SeriesMatrix([[gram_full.rows[s][t] for t in pivot_cols]
                         for s in pivot_cols], algebra.order)
    result = GNSResult(algebra, omega, pivot_cols, kernel, gram,
                       algebra.basis(), [], None)
    result.pi = [result.represent(g) for g in result.generators]
    result.cyclic = result.reduce_coords(algebra.to_coords(algebra.unit()))
    return result


def gns_outcome(f, build):
    """``run`` with the ``to_json()`` text of an answer in place of its
    values: ("value", json, flags) or ("error", class, message)."""
    out = run(f, build)
    if out[0] == "error":
        return out
    return "value", json.dumps(f(*build()).to_json(), sort_keys=True), out[2]


@settings(max_examples=1000, deadline=None)
@given(differential_cases(names=("gns",)))
def test_gns_on_the_weights_matches_the_full_gram(case):
    """The same answer, byte for byte and flag for flag, and the same error,
    as the m^2 Gram path.  A PrecisionExhausted of the full Gram may become
    an answer, or a PrecisionExhausted worded by the elimination of W; a
    new refusal needs weights W that are not PSD (the scan samples too few
    b to see it)."""
    _, build = case
    new = gns_outcome(gns_build, build)
    ref = gns_outcome(reference_gns_build, build)
    if ref[:2] == ("error", PrecisionExhausted) and (
            new[0] == "value" or new[1] is PrecisionExhausted):
        return
    if new[:2] == ("error", PositivityRefuted) and new != ref:
        assert gram_psd_check(build()[1].weights) is GramVerdict.NOT_PSD
        return
    assert new == ref


def test_gns_on_the_weights_answers_where_the_full_gram_lost_a_tail():
    # Dividing by C_11 = 1 + l loses a tail in the m^2 elimination; the
    # radical of W = [[1, 1], [1, 1]] is exact.
    def build():
        return (MatrixStarAlgebra(2, 3, deform=SeriesMatrix.from_scalar_rows(
            [[1, 0], [0, 0]], 3)),
            MatrixFunctional(SeriesMatrix.from_scalar_rows(
                [[1, 1], [1, 1]], 3)))

    assert run(reference_gns_build, build)[:2] == ("error",
                                                   PrecisionExhausted)
    res = gns_build(*build())
    assert res.basis_labels() == ["E11", "E21"]
    one, zero = FormalSeries.one(3), FormalSeries.zero(3)
    assert res.gram == SeriesMatrix(
        [[one + FormalSeries.lam(1, 3), zero], [zero, one]], 3)


def test_gns_answers_where_a_lossy_weight_sits_below_a_pivot_of_positive_valuation():
    # At K = 2, l^2 is zero with a lost tail.  Eliminating it below the
    # pivot l cannot divide it out, but its update is zero mod l^2, so W =
    # l (1 + O(l)) is positive-definite: the quotient keeps every unit.
    lost = FormalSeries.lam(2, 2)
    lam = FormalSeries.lam(1, 2)
    w = SeriesMatrix([[lam, lost], [lost, lam]], 2)
    with pytest.raises(PrecisionExhausted, match="^dividend is zero only"):
        radical_quotient(w)
    res = gns_build(MatrixStarAlgebra(2, 2), MatrixFunctional(w))
    assert res.basis_labels() == ["E11", "E12", "E21", "E22"]
    assert res.kernel == []


def test_gns_decides_a_gram_hermitian_only_through_truncation():
    # C = 1 + i l and W = 1 - i l are not Hermitian, but C W = 1 + l^2 is
    # Hermitian at K = 2: the Gram itself decides, as the full-Gram path
    # did, and the quotient still comes from W.
    def build():
        return (MatrixStarAlgebra(2, 2, deform=SeriesMatrix.from_scalar_rows(
            [[GaussianRational(0, 1), 0], [0, GaussianRational(0, 1)]], 2)),
            MatrixFunctional(SeriesMatrix(
                [[FormalSeries([1, GaussianRational(0, -1)], 2),
                  FormalSeries.zero(2)],
                 [FormalSeries.zero(2), FormalSeries.zero(2)]], 2)))

    assert not build()[0].one_plus_l_deform().is_hermitian()
    assert gns_outcome(gns_build, build) == \
        gns_outcome(reference_gns_build, build)
    assert gns_build(*build()).basis_labels() == ["E11", "E21"]


@st.composite
def polynomial_matrices(draw, k, nrows, ncols):
    """Untruncated polynomials of degree < k with small integer
    coefficients, exact zeros among them."""
    def entry():
        if draw(st.booleans()):
            return FormalSeries.zero(k)
        return FormalSeries(draw(st.lists(st.integers(-2, 2), min_size=k,
                                          max_size=k)), k)

    return SeriesMatrix([[entry() for _ in range(ncols)]
                         for _ in range(nrows)], k)


def lift(mat, k):
    """The same polynomial entries at order k."""
    return SeriesMatrix([[FormalSeries(e.coeffs, k) for e in r]
                         for r in mat.rows], k)


def assert_unflagged_entries_are_exact(low, high):
    """Each entry of ``low`` that has not lost its tail agrees with ``high``,
    computed at a higher order, and ``high`` has no term beyond it."""
    k = low.order
    for r_low, r_high in zip(low.rows, high.rows):
        for e, h in zip(r_low, r_high):
            assert h.coeffs[:k] == e.coeffs
            if not e.tail_lost:
                assert not any(h.coeffs[k:]), (e, h)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_unflagged_products_are_exact_beyond_k(data):
    """On polynomial inputs, an ``@`` or Gram entry with no lost tail at K
    has no nonzero term in [K, 3K): the exact-zero rule drops only flags
    that mark nothing."""
    k = data.draw(st.sampled_from([1, 2, 3, 4]))
    n, m, p = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(polynomial_matrices(k, n, m))
    b = data.draw(polynomial_matrices(k, m, p))
    assert_unflagged_entries_are_exact(a @ b, lift(a, 3 * k) @ lift(b, 3 * k))
    m = data.draw(st.integers(1, 3))
    d = data.draw(st.one_of(st.none(), polynomial_matrices(k, m, m)))
    w = data.draw(polynomial_matrices(k, m, m))

    def gram(order):
        alg = MatrixStarAlgebra(m, order,
                                deform=None if d is None else lift(d, order))
        return reps._gram_and_witnesses(
            alg, MatrixFunctional(lift(w, order)))[0]

    assert_unflagged_entries_are_exact(gram(k), gram(3 * k))


def test_the_exactness_check_sees_dropped_and_kept_flags():
    # At K = 1 the Gram of D = 1, W = E11 has C_ii = 1 + l flagged, and
    # exact zeros wherever W has one, which the earlier rule flagged.
    def gram(order):
        alg = MatrixStarAlgebra(2, order,
                                deform=SeriesMatrix.identity(2, order))
        return reps._gram_and_witnesses(alg, MatrixFunctional(
            SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], order)))[0]

    low, high = gram(1), gram(3)
    assert_unflagged_entries_are_exact(low, high)
    assert low.rows[0][0].tail_lost and any(high.rows[0][0].coeffs[1:])
    with earlier_product_rule():
        before = gram(1)
    dropped = [(s, t) for s in range(4) for t in range(4)
               if before.rows[s][t].tail_lost
               and not low.rows[s][t].tail_lost]
    assert len(dropped) == 14  # all but the two entries C_ii W_11


def rational_entry(draw, k):
    """``entry_kinds`` over a denominator 1-6, shifted by l^0-2."""
    e = entry_kinds(draw, k).scalar_mul(Fraction(1, draw(st.integers(1, 6))))
    return e.shift(draw(st.sampled_from([0, 0, 1, 2])))


def state(x):
    """Value, flag and order of a series, down to its integers."""
    return x.order, x._d, x._v, x.tail_lost


@settings(max_examples=400)
@given(st.data())
def test_sum_of_products_matches_the_step_by_step_sum(data):
    """start +- sum of a * b is start +- a_1 * b_1 +- ... taken in order
    with ``*``, ``-`` and ``+``: the same integers and flag, and ``start``
    itself when every pair has an exact-zero factor."""
    k = data.draw(st.integers(1, 6))
    start = rational_entry(data.draw, k)
    pairs = [(rational_entry(data.draw, k), rational_entry(data.draw, k))
             for _ in range(data.draw(st.integers(0, 4)))]
    negate = data.draw(st.booleans())
    want = start
    for a, b in pairs:
        want = want - a * b if negate else want + a * b
    got = _sum_of_products(start, iter(pairs), negate)
    assert state(got) == state(want)
    if all(a.is_exact_zero() or b.is_exact_zero() for a, b in pairs):
        assert got is start


def test_sum_of_products_flags_by_the_product_rules():
    lossy_zero = FormalSeries((), K, tail_lost=True)
    top = FormalSeries.lam(K - 1, K)
    # An exact-zero factor adds nothing, even against a lossy factor.
    assert _sum_of_products(ONE, [(ZERO, lossy_zero)]) is ONE
    # A lossy-zero factor flags; so does a term dropped at l^K.
    assert _sum_of_products(ONE, [(lossy_zero, ONE)]).tail_lost
    got = _sum_of_products(ONE, [(top, LAM)], negate=True)
    assert got == ONE and got.tail_lost
    # The start's own flag is kept.
    assert _sum_of_products(ONE.lossy(), [(LAM, LAM)]).tail_lost


def matrix_of(draw, k, nrows, ncols):
    return SeriesMatrix([[rational_entry(draw, k) for _ in range(ncols)]
                         for _ in range(nrows)], k)


@st.composite
def step_cases(draw):
    """(function, builder of its arguments) for each routine whose sums of
    products now run in one pass: K 1-6, exact zeros, lossy zeros, lossy
    entries and denominators."""
    name = draw(st.sampled_from(["radical", "hermitian", "solve", "inverse",
                                 "psd", "reduce", "product", "unit"]))
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    if name in ("radical", "solve"):
        mat = matrix_of(draw, k, n, draw(st.integers(1, 4)))
        if name == "radical":
            return radical_quotient, lambda: (mat,)
        rhs = [rational_entry(draw, k) for _ in range(n)]
        return solve_in_ring, lambda: (mat, rhs)
    if name == "inverse":
        mat = matrix_of(draw, k, n, n) + SeriesMatrix.identity(n, k)
        return series_matrix_inverse, lambda: (mat,)
    if name in ("hermitian", "psd"):
        y = matrix_of(draw, k, n, n)
        h = y.adjoint() @ y if draw(st.booleans()) else y + y.adjoint()
        if name == "psd":
            return gram_psd_check, lambda: (h,)
        return (lambda h: radical_quotient(h, hermitian=True)), lambda: (h,)
    if name == "reduce":
        mat = matrix_of(draw, k, draw(st.integers(1, 4)), n)
        coords = [rational_entry(draw, k) for _ in range(n)]

        def reduce(mat, coords):
            try:
                kept, kernel = radical_quotient(mat)
            except PrecisionExhausted:
                return None
            return reduce_coords(coords, kept, kernel)

        return reduce, lambda: (mat, coords)
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["none", "exact", "lossy"]))
    deform = unit_algebra(draw, m, k, kind).deform
    if name == "unit":
        return (lambda alg: alg.one_plus_l_deform()), lambda: (
            MatrixStarAlgebra(m, k, deform=deform),)
    a, b = matrix_of(draw, k, m, m), matrix_of(draw, k, m, m)
    return (lambda alg, a, b: alg.product(a, b)), lambda: (
        MatrixStarAlgebra(m, k, deform=deform), a, b)


@settings(max_examples=600, deadline=None)
@given(step_cases())
def test_one_pass_sums_match_the_step_by_step_loops(case):
    """Every value, flag, error class and message of the elimination, the
    residuals, ``reduce_coords`` and the deformed product is the one the
    loops over ``*``, ``-`` and ``+`` give."""
    f, build = case
    new = run(f, build)
    with step_by_step():
        old = run(f, build)
    assert new == old


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_deformed_product_matches_three_products_at_every_order(k):
    """A dense deformed product with lossy entries against a b + (a E b) l,
    entry by entry; at K = 1 the l-term is a zero whose tail is lost."""
    m = 3
    e = SeriesMatrix([[FormalSeries([i - j, 1, i * j], k, i == j)
                       for j in range(m)] for i in range(m)], k)
    a = SeriesMatrix([[FormalSeries([Fraction(i + 1, j + 2), 0, 1], k)
                       for j in range(m)] for i in range(m)], k)
    b = SeriesMatrix([[FormalSeries([1, Fraction(j, 3)], k, i == 0)
                       if i != j else FormalSeries.zero(k)
                       for j in range(m)] for i in range(m)], k)
    alg = MatrixStarAlgebra(m, k, deform=e)
    got, want = alg.product(a, b), reference_product(alg, a, b)
    assert [[state(x) for x in r] for r in got.rows] == \
        [[state(x) for x in r] for r in want.rows]
    # Exact constants and E = c l^(K-1): only the shift of (a E b)_ij can
    # flag an entry, and it does where (a E b)_ij is not zero.
    c = SeriesMatrix.from_scalar_rows([[1, 0, 2], [0, 0, 0], [3, 0, 1]], k)
    top = FormalSeries.lam(k - 1, k)
    alg = MatrixStarAlgebra(m, k, deform=SeriesMatrix(
        [[top.scalar_mul(i + j) for j in range(m)] for i in range(m)], k))
    got, want = alg.product(c, c), reference_product(alg, c, c)
    assert [[state(x) for x in r] for r in got.rows] == \
        [[state(x) for x in r] for r in want.rows]
    assert flags(got) == [[True, False, True], [False] * 3, [True, False, True]]
