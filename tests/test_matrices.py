import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fdq.errors import (NotUnit, PrecisionExhausted, ShapeMismatch,
                        TruncationMismatch)
from fdq.matrices import (MatrixStarAlgebra, SeriesMatrix,
                          matrix_from_json, nullspace,
                          one_plus_adjoint_times_self_invertible,
                          radical_quotient, rank_certified,
                          series_matrix_inverse, solve_in_ring)
from fdq.series import FormalSeries, GaussianRational

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
    a_ik is not an exact zero (``@`` has always skipped those terms, so
    their b_kj flags do not reach the entry)."""
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
@settings(max_examples=4)
@given(st.data())
def test_adjoint_unit_product_matches_product(m, k, kind, data):
    alg = unit_algebra(data.draw, m, k, kind)
    basis = alg.basis()
    for s, bs in enumerate(basis):
        for t, bt in enumerate(basis):
            got = alg.adjoint_unit_product(s, t)
            want = alg.product(alg.involution(bs), bt)
            assert got == want
            assert flags(got) == flags(want)


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
    # At K = 1 the deformation term l a D E_t is a lossy zero in every
    # entry, so every coordinate of a x E_t has lost its tail.
    a = SeriesMatrix.from_scalar_rows([[1, 0], [0, 0]], 1)
    for coords in SWAP_1.right_unit_coords(a, range(4)):
        assert all(e.tail_lost for e in coords)
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


def reference_echelonize(rows, ncols, divisors, certify_rank=True):
    """The elimination with the earlier update rule x - factor * y on every
    entry of the pivot row: when the pivot is not a constant, the factor has
    lost its tail, and an exact-zero y gives a lossy zero."""
    import fdq.matrices as matrices

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
