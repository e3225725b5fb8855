"""Matrices over the truncated series ring and valuation-pivoted elimination.

Rank decisions over C[[l]]/l^K must be precision-honest: a stored-zero entry
counts as zero only when no computation lost a nonzero tail (``is_exact_zero``).
One elimination pass (``_echelonize``) serves rank, kernel and solve, and
with its Hermitian rules the positivity of a Gram matrix: a single scan per
pivot picks the entry of least valuation and notes lossy zeros, and when no
pivot is left a lossy zero raises PrecisionExhausted instead of a guess.  A
row operation touches only columns without a pivot and cancels its own to
an exact zero.  An exact zero annihilates every product, so an exact zero
stays one, and a rank known exactly is decided.

Every sum of products s +- sum a_k b_k runs on one integer kernel: the
factors are rescaled once, convolved into one Gaussian-integer accumulator
and reduced once, with the value and flag of the sum taken term by term (a
pair with an exact-zero factor adds nothing).  ``@`` sums over the inner
index, a row update is one fused subtract, back-substitution and
``reduce_coords`` take one sum per component, and the deformed product
a b + l (a E) b shifts its second accumulator by one power of l.

Products with matrix units have closed forms in ``MatrixStarAlgebra``, since
an exact zero annihilates every product.  For E_s = E_ij, E_t = E_kl and the
deformation D, E_s* x E_t = C_ik E_jl with C = 1 + l D, so the GNS Gram of
omega(a) = sum W_jl a_jl is the Kronecker product G = C (x) W.  And a x E_kl
is column k of a x 1 placed at column l, with exact zeros elsewhere.  Both
give every entry the value and flag of the full product.
"""

from __future__ import annotations

from math import lcm

from .errors import (NotUnit, PrecisionExhausted, ShapeMismatch,
                     TruncationMismatch)
from .series import (FormalSeries, GaussianRational, Sign, _dot, _new,
                     _order, _over_lcm, _reduced, _sum_of_products)


class SeriesMatrix:
    """Immutable rectangular matrix of FormalSeries sharing one order."""

    __slots__ = ("rows", "nrows", "ncols", "order")

    def __init__(self, rows, order=None):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ShapeMismatch("matrix needs at least one row and column")
        ncols = len(rows[0])
        K = order
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatch("ragged rows")
            for e in r:
                if K is None:
                    K = e.order
                elif e.order != K:
                    raise TruncationMismatch("entries share one order")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self.order = K

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, nrows, ncols, order=None):
        K = _order(order)
        z = FormalSeries.zero(K)
        return cls([[z] * ncols for _ in range(nrows)], K)

    @classmethod
    def identity(cls, n, order=None):
        K = _order(order)
        z, one = FormalSeries.zero(K), FormalSeries.one(K)
        return cls([[one if i == j else z for j in range(n)]
                    for i in range(n)], K)

    @classmethod
    def from_scalar_rows(cls, rows, order=None):
        """Build from ints/Fractions/GaussianRationals."""
        K = _order(order)
        return cls([[FormalSeries.from_scalar(
            v if isinstance(v, GaussianRational) else GaussianRational(v), K)
            for v in row] for row in rows], K)

    @classmethod
    def from_columns(cls, cols, order=None):
        """The matrix whose j-th column is the sequence ``cols[j]``."""
        return cls(zip(*cols), order)

    @classmethod
    def unit(cls, n, i, j, order=None):
        """Matrix unit E_ij (1-based would be confusing; i, j are 0-based)."""
        K = _order(order)
        z, one = FormalSeries.zero(K), FormalSeries.one(K)
        return cls([[one if (r, c) == (i, j) else z for c in range(n)]
                    for r in range(n)], K)

    # -- basics ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        from .exprio import series_text
        body = "; ".join(", ".join(series_text(e) for e in r)
                         for r in self.rows)
        return f"<matrix {self.nrows}x{self.ncols} [{body}]>"

    def _check(self, other, product=False):
        if self.order != other.order:
            raise TruncationMismatch("matrix orders differ")
        if product:
            if self.ncols != other.nrows:
                raise ShapeMismatch(
                    f"cannot multiply {self.nrows}x{self.ncols} by "
                    f"{other.nrows}x{other.ncols}")
        elif (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("matrix shapes differ")

    def __add__(self, other):
        self._check(other)
        return _matrix([[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows)], self.order)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _matrix([[-a for a in r] for r in self.rows], self.order)

    def _sums(self, other):
        """The entries of self @ other before their reduction, (D_row D_col,
        accumulator, flag): rows and columns rescaled once to the lcm of their
        denominators, one ``_dot`` over the inner index."""
        self._check(other, product=True)
        n = 2 * self.order
        rows, cols = ([(_over_lcm(v), [e.tail_lost for e in v]) for v in vs]
                      for vs in (self.rows, zip(*other.rows)))
        return [[(da * db, acc, _dot(zip(av, af, bv, bf), acc))
                 for (db, bv), bf in cols for acc in [[0] * n]]
                for (da, av), af in rows]

    def __matmul__(self, other):
        K = self.order
        return _matrix([[_reduced(K, lost, d, acc) for d, acc, lost in row]
                        for row in self._sums(other)], K)

    def scale(self, series):
        return _matrix([[a * series for a in r] for r in self.rows],
                       self.order)

    def scale_scalar(self, c):
        return _matrix([[a.scalar_mul(c) for a in r] for r in self.rows],
                       self.order)

    def adjoint(self):
        """Conjugate transpose."""
        return _matrix([[e.conjugate() for e in col]
                        for col in zip(*self.rows)], self.order)

    def is_hermitian(self):
        return self.nrows == self.ncols and self == self.adjoint()

    def is_zero(self):
        return all(e.is_zero() for r in self.rows for e in r)

    def is_exact_zero(self):
        return all(e.is_exact_zero() for r in self.rows for e in r)

    def classical_limit(self):
        """Matrix of lambda^0 coefficients (as order-1 series)."""
        return SeriesMatrix(
            [[FormalSeries.from_scalar(e.classical_limit(), 1) for e in r]
             for r in self.rows], 1)

    def reduce_order(self, order):
        return SeriesMatrix([[e.reduce_order(order) for e in r]
                             for r in self.rows], order)

    def to_json(self):
        from .exprio import series_to_json
        return {
            "schema_version": 1,
            "type": "matrix",
            "rows": [[series_to_json(e) for e in r] for r in self.rows],
        }


def _matrix(rows, K):
    """A matrix operation's result: rows of order-K series of one length,
    without the constructor's checks."""
    m = _new(SeriesMatrix)
    m.rows = tuple(map(tuple, rows))
    m.nrows, m.ncols, m.order = len(m.rows), len(m.rows[0]), K
    return m


def matrix_from_json(obj, pointer=""):
    from .exprio import SchemaError, series_from_json
    rows = obj.get("rows") if isinstance(obj, dict) else None
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise SchemaError("expected matrix object with rows", pointer)
    order = None
    entries = []
    for i, row in enumerate(rows):
        out = []
        for j, e in enumerate(row):
            s = series_from_json(e, f"{pointer}/rows/{i}/{j}", order)
            order = s.order
            out.append(s)
        entries.append(out)
    return SeriesMatrix(entries, order)


# -- valuation-pivoted elimination ------------------------------------------------


class _Divisor:
    """Division by one pivot b: ``div(a)`` is a / b for val(a) >= val(b),
    flagged when the pivot valuation shifts reliable coefficients out of
    range.  The inverse of b (of b / l^val(b) when val(b) > 0) and its flag
    depend on b alone, so it is computed at the first division and reused."""

    __slots__ = ("pivot", "valuation", "inverse")

    def __init__(self, b: FormalSeries):
        v = b.valuation()
        if v is None:
            raise ZeroDivisionError("division by a zero-up-to-K series")
        self.pivot, self.valuation, self.inverse = b, v, None

    def __call__(self, a: FormalSeries) -> FormalSeries:
        vb = self.valuation
        if vb:
            va = a.valuation()
            if va is None:
                if not a.is_exact_zero():
                    raise PrecisionExhausted(
                        "dividend is zero only up to the truncation order")
                return a
            if va < vb:
                raise ValueError("dividend valuation below divisor valuation")
            a = a.shift(-vb)
        if self.inverse is None:
            self.inverse = self.pivot.shift(-vb).invert()
        return a * self.inverse


def _echelonize(rows, ncols, divisors, certify_rank=True, hermitian=False):
    """In-place row echelon with global min-valuation pivots.  Returns the
    pivots as (row, col) in chronological (nondecreasing valuation) order;
    each pivot row has exact zeros in all earlier pivot columns.

    Rows may be longer than ncols (augmented systems); pivots are only chosen
    among the first ncols columns.  One scan of the remaining block per pivot
    finds its first entry of least valuation and notes any entry that is zero
    only up to l^K.  With certify_rank, such an entry left when no pivot
    remains raises PrecisionExhausted instead of being declared zero.  A row
    operation updates the live columns (without a pivot, or augmented) where
    the pivot row is not an exact zero and sets the cancelled entry to an
    exact zero.  ``divisors`` receives the ``_Divisor`` of each pivot, keyed
    by (row, col): a pivot row never changes after it is chosen, so
    back-substitution reuses the pivot inverses taken here.

    With ``hermitian`` this is the LDL* elimination of a Hermitian matrix.
    A PSD one has |h_ij|^2 <= h_ii h_jj, so its first entry of least
    valuation is diagonal: a pivot off the diagonal or not positive (a
    negative diagonal entry is taken first) refutes positivity and ends the
    pass, returned last and without a divisor.  A dividend zero up to l^K
    marks the entries its update would touch lossy instead of raising: the
    pivot has the least valuation in its row, so the update is zero mod l^K.
    """
    pivots, used_rows = [], set()
    free = list(range(ncols))  # the columns without a pivot
    extra = range(ncols, len(rows[0]))
    zero = FormalSeries.zero(rows[0][0].order)
    while True:
        best, lossy = None, False
        for i, row in enumerate(rows):
            if i in used_rows:
                continue
            for j in free:
                v = row[j].valuation()
                if v is None:
                    lossy = lossy or row[j].tail_lost
                elif best is None or v < best[0]:
                    best = (v, i, j)
        if hermitian:  # a negative diagonal entry refutes at once
            best = next(((0, i, i) for i in free
                         if rows[i][i].sign() is Sign.NEGATIVE), best)
        if best is None:
            if certify_rank and lossy:
                raise PrecisionExhausted(
                    "pivot valuation reaches the truncation order; rank not "
                    "determined at this truncation")
            return pivots
        _, pi, pj = best
        pivots.append((pi, pj))
        prow = rows[pi]
        if hermitian and (pi != pj or prow[pj].sign() is not Sign.POSITIVE):
            return pivots
        used_rows.add(pi)
        free.remove(pj)
        divide = divisors[pi, pj] = _Divisor(prow[pj])
        cols = [j for j in (*free, *extra) if not prow[j].is_exact_zero()]
        for i, row in enumerate(rows):
            e = row[pj]
            if i in used_rows or e.is_exact_zero():
                continue  # a shortcut: the factor is an exact zero
            if hermitian and e.is_zero():
                for j in cols:
                    row[j] = row[j].lossy()
            else:
                factor = divide(e)
                for j in cols:
                    row[j] = _sum_of_products(row[j], [(factor, prow[j])],
                                              negate=True)
            row[pj] = zero


def radical_quotient(mat: SeriesMatrix, hermitian=False):
    """``(kept, kernel)`` of ``mat`` from a single elimination: the sorted
    pivot columns, and one ``(free_col, vec)`` pair per free column (in
    ascending order) with ``mat @ vec = 0``, vec 1 at free_col and 0 at the
    other free columns.  For a Gram matrix, ``kept`` indexes representatives
    of the quotient by its radical (see ``reduce_coords``).  With
    ``hermitian``, None when the elimination refutes that mat is PSD.

    Pivot rows have zeros at earlier pivot columns, so back-substitution in
    reverse pivot order only consumes known components.  Min-valuation
    pivoting keeps the quotients in the ring: every entry of a pivot row at a
    column still available when the pivot was chosen has valuation at least
    the pivot's, and solved components have valuation >= 0 inductively.
    """
    rows = [list(r) for r in mat.rows]
    divisors = {}
    pivots = _echelonize(rows, mat.ncols, divisors, hermitian=hermitian)
    if len(divisors) < len(pivots):
        return None
    K, ncols = mat.order, mat.ncols
    zero = FormalSeries.zero(K)
    kept = sorted(pj for _, pj in pivots)
    kernel = []
    for f in range(ncols):
        if f in kept:
            continue
        vec = [zero] * ncols
        vec[f] = FormalSeries.one(K)
        for pi, pj in reversed(pivots):
            # vec[pj] = -(row . vec) / row[pj]; vec[pj] is still exact zero.
            s = _sum_of_products(zero, zip(rows[pi], vec), negate=True)
            if not s.is_exact_zero():
                vec[pj] = divisors[pi, pj](s)
        kernel.append((f, vec))
    return kept, kernel


def reduce_coords(coords, kept, kernel):
    """Coordinates on ``kept`` of the class of ``coords`` modulo the kernel
    of ``radical_quotient``: subtracting coords[f] vec for each (f, vec)
    clears every free coordinate without a division."""
    return [_sum_of_products(coords[t], [(coords[f], vec[t])
                                         for f, vec in kernel], negate=True)
            for t in kept]


def nullspace(mat: SeriesMatrix):
    """Basis of the kernel over the series ring, one vector per free column,
    normalized to 1 at that column: the kernel of ``radical_quotient``."""
    return [v for _, v in radical_quotient(mat)[1]]


def _back_substitute(rows, pivots, divisors, ncols, col):
    """The solution for the right-hand side in column ``col`` of the
    echelonized augmented ``rows``: a consistency check on the rows without
    a pivot, then back-substitution in reverse pivot order with free
    variables set to zero, dividing by the pivots' ``divisors``.  None when
    no in-ring solution exists."""
    used_rows = {pi for pi, _ in pivots}
    for i, row in enumerate(rows):
        if i in used_rows:
            continue
        r = row[col]
        if r.is_zero():
            if not r.is_exact_zero():
                raise PrecisionExhausted(
                    "consistency of the system undecidable at this truncation")
            continue
        return None
    x = [FormalSeries.zero(rows[0][col].order)] * ncols
    for pi, pj in reversed(pivots):
        row = rows[pi]
        # row[col] - row . x over the first ncols; x[pj] is still exact zero.
        s = _sum_of_products(row[col], zip(row, x), negate=True)
        if s.is_exact_zero():
            continue
        divide = divisors[pi, pj]
        sv = s.valuation()
        if sv is None and divide.valuation > 0:
            # s is zero only up to l^K; over a unit pivot s/piv is still
            # determined mod l^K (zero with a lost tail), here it is not.
            raise PrecisionExhausted(
                "solution component undecidable at this truncation")
        if sv is not None and sv < divide.valuation:
            return None  # field solution exists but leaves the ring
        x[pj] = divide(s)
    return x


def _solve_columns(mat: SeriesMatrix, rhs_cols):
    """Particular solutions of mat @ x = rhs, one per rhs in ``rhs_cols``,
    from a single elimination of [mat | rhs_1 ... rhs_r]; None as soon as one
    of them has no in-ring solution.

    Pivots are chosen among the columns of ``mat`` only and row operations
    act column by column, so the elimination and every solution are what a
    separate elimination of [mat | rhs] gives.  Elimination raises only from
    divisions in pivot columns, and the right-hand sides are settled in
    order, so the first error is the one a loop over the columns would meet.
    """
    if any(len(rhs) != mat.nrows for rhs in rhs_cols):
        raise ShapeMismatch("rhs length does not match row count")
    ncols = mat.ncols
    rows = [list(r) + [rhs[i] for rhs in rhs_cols]
            for i, r in enumerate(mat.rows)]
    divisors = {}
    pivots = _echelonize(rows, ncols, divisors, certify_rank=False)
    solutions = []
    for c in range(len(rhs_cols)):
        x = _back_substitute(rows, pivots, divisors, ncols, ncols + c)
        if x is None:
            return None
        solutions.append(x)
    return solutions


def solve_in_ring(mat: SeriesMatrix, rhs):
    """A particular solution x of mat @ x = rhs with in-ring entries, or None.

    Free variables are set to zero; valuation-minimal pivoting makes this
    decision correct over the series ring.  Raises PrecisionExhausted when
    the answer cannot be certified at this truncation.  The one-column case
    of ``_solve_columns``.
    """
    solutions = _solve_columns(mat, [rhs])
    return None if solutions is None else solutions[0]


def rank_certified(mat: SeriesMatrix) -> int:
    return len(_echelonize([list(r) for r in mat.rows], mat.ncols, {}))


def series_matrix_inverse(m: SeriesMatrix) -> SeriesMatrix:
    """Inverse over the series ring; exists iff the lambda^0 matrix is
    invertible over Q(i).  One elimination of [m | 1] solves for every
    column of the inverse (``_solve_columns``)."""
    if m.nrows != m.ncols:
        raise ShapeMismatch("only square matrices invert")
    n = m.nrows
    # The identity is symmetric: its rows are its columns.
    cols = _solve_columns(m, SeriesMatrix.identity(n, m.order).rows)
    if cols is None:
        raise NotUnit("matrix is not invertible over the series ring")
    return SeriesMatrix.from_columns(cols, m.order)


# -- matrix star-algebras -----------------------------------------------------------


class MatrixStarAlgebra:
    """M_m over the truncated series ring, plain or deformed.

    The deformed family multiplies as a * b = ab + l a E b with a fixed
    matrix E; it is associative for every E (verified in the test-suite) and
    Hermitian exactly when E is.
    """

    def __init__(self, m, order=None, deform=None):
        self.m = m
        self.order = _order(order)
        if deform is not None:
            if deform.nrows != m or deform.ncols != m:
                raise ShapeMismatch("deformation matrix must be m x m")
            if deform.order > self.order:
                deform = deform.reduce_order(self.order)
            if deform.order != self.order:
                raise TruncationMismatch("deformation matrix order mismatch")
        self.deform = deform
        self.name = f"M{m}" if deform is None else f"M{m}+lE"
        self._unit = None

    @property
    def dim(self):
        return self.m * self.m

    def one_plus_l_deform(self):
        """C = 1 + l E, the identity for the plain product: for the units
        E_ij and E_kl, E_ij* x E_kl = C_ik E_jl."""
        ident = SeriesMatrix.identity(self.m, self.order)
        if self.deform is None:
            return ident
        return ident + _matrix([[e.shift(1) for e in r]
                                for r in self.deform.rows], self.order)

    def unit(self):
        """The star-unit: the identity for the plain product, C^-1 for the
        deformed family (u * a = u (1 + l E) a)."""
        if self._unit is None:
            c = self.one_plus_l_deform()
            self._unit = c if self.deform is None else series_matrix_inverse(c)
        return self._unit

    def basis(self):
        """Matrix units in row-major order."""
        return [SeriesMatrix.unit(self.m, i, j, self.order)
                for i in range(self.m) for j in range(self.m)]

    def basis_labels(self):
        return [f"E{i + 1}{j + 1}" for i in range(self.m)
                for j in range(self.m)]

    def product(self, a, b):
        """a b, or a b + l (a E) b reduced once per entry: the sum of (a E) b
        is shifted by one power of l, flagged where its l^(K-1) term is
        nonzero, as a * l is (at K = 1 wherever it is not an exact zero)."""
        if self.deform is None:
            return a @ b
        plain, K = a._sums(b), self.order  # the errors of a @ b come first

        def entry(p, q):
            (d, acc, lost), (e, corr, corr_lost) = p, q
            m = lcm(d, e)
            u, w = m // d, m // e
            return _reduced(K, lost or corr_lost or any(corr[-2:]), m,
                            [x * u + y * w for x, y in zip(acc, [0, 0] + corr)])

        return _matrix([list(map(entry, *rows)) for rows in zip(
            plain, (a @ self.deform)._sums(b))], K)

    def right_unit_coords(self, a, units):
        """Row-major coordinates of a x e_t for each basis index t in
        ``units``: for e_t = E_kl, column k of a x 1 (a itself for the plain
        product) placed at column l, with exact zeros elsewhere."""
        m, zero = self.m, FormalSeries.zero(self.order)
        rows = a.rows if self.deform is None else self.product(
            a, SeriesMatrix.identity(m, self.order)).rows
        out = []
        for t in units:
            k, l = divmod(t, m)
            out.append([row[k] if c == l else zero
                        for row in rows for c in range(m)])
        return out

    def involution(self, a):
        return a.adjoint()

    def hermitian_product(self):
        return self.deform is None or self.deform.is_hermitian()

    def to_coords(self, a):
        """Row-major coordinates over the matrix-unit basis."""
        return [a.rows[i][j] for i in range(self.m) for j in range(self.m)]

    def from_coords(self, coords):
        m = self.m
        return SeriesMatrix([[coords[i * m + j] for j in range(m)]
                             for i in range(m)], self.order)

    def __eq__(self, other):
        if not isinstance(other, MatrixStarAlgebra):
            return NotImplemented
        return (self.m == other.m and self.order == other.order
                and self.deform == other.deform)

    def __repr__(self):
        return f"<algebra {self.name} K={self.order}>"

    def to_json(self):
        return {
            "schema_version": 1,
            "type": "matrix_algebra",
            "m": self.m,
            "K": self.order,
            "deform": self.deform.to_json() if self.deform is not None
                      else None,
        }


def one_plus_adjoint_times_self_invertible(a: SeriesMatrix) -> bool:
    """Condition check: 1 + A*A is invertible over the series ring.

    Holds for every A over this base: the leading term 1 + A_0*A_0 is a
    positive-definite complex matrix.
    """
    m = SeriesMatrix.identity(a.ncols, a.order) + (a.adjoint() @ a)
    try:
        series_matrix_inverse(m)
        return True
    except NotUnit:
        return False
