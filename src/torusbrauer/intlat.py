"""Exact linear algebra over Z and Z/n.

Everything downstream (group cohomology, spectral sequence pages, the
Brauer-group oracle) reduces to Smith normal forms, integer kernels and
subquotients ker/im of pairs of integer matrices.  Entries are plain Python
ints, so nothing ever overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import gcd

from .errors import CompositionNonzeroError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]
    rows: int
    cols: int

    @staticmethod
    def from_rows(rows, ncols=None) -> "IntMatrix":
        rows = tuple(map(tuple, rows))
        r = len(rows)
        if r:
            c = len(rows[0])
            if any(len(row) != c for row in rows):
                raise ValueError("ragged rows")
        else:
            c = 0 if ncols is None else ncols
        return IntMatrix(rows, r, c)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * cols for _ in range(rows)), rows, cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n, n
        )

    @staticmethod
    def diagonal(diag) -> "IntMatrix":
        diag = list(diag)
        n = len(diag)
        return IntMatrix(
            tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)),
            n,
            n,
        )

    @staticmethod
    def from_columns(cols, nrows=None) -> "IntMatrix":
        cols = [tuple(c) for c in cols]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return IntMatrix.from_rows(
            [[c[i] for c in cols] for i in range(nrows)], ncols=len(cols)
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(
            [self.column(j) for j in range(self.cols)], ncols=self.rows
        )

    def mul(self, other: "IntMatrix", modulus: int | None = None) -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        # row by row over the nonzero entries: the bar and cochain matrices
        # are sparse
        nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for arow in self.entries:
            acc = [0] * other.cols
            for a, brow in zip(arow, nonzero):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            out.append(tuple(x % modulus for x in acc) if modulus else tuple(acc))
        return IntMatrix(tuple(out), self.rows, other.cols)

    def apply(self, vec, modulus: int | None = None):
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.entries:
            s = sum(a * b for a, b in zip(row, vec) if a and b)
            out.append(s % modulus if modulus else s)
        return tuple(out)

    def add(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix.from_rows(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            ncols=self.cols,
        )

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[c * a for a in row] for row in self.entries], ncols=self.cols
        )

    def neg(self) -> "IntMatrix":
        return self.scale(-1)

    def mod(self, n: int) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[a % n for a in row] for row in self.entries], ncols=self.cols
        )

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return IntMatrix.from_rows(
            [r1 + r2 for r1, r2 in zip(self.entries, other.entries)],
            ncols=self.cols + other.cols,
        )

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.entries)

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self.entries[i][j]
                    row.extend(
                        a * b if a else 0 for b in other.entries[k]
                    )
                out.append(row)
        return IntMatrix.from_rows(out, ncols=self.cols * other.cols)


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V invertible and D diagonal.

    Over Z, U and V are unimodular and d1 | d2 | ... >= 0.  Over Z/n (a
    modulus n given to `smith`) the equation holds mod n, every entry of D,
    U, V and their inverses lies in [0, n), each d_i divides n or is 0, and
    the invariant factors gcd(d_i, n) form a divisibility chain (0 reads as
    n).  u_inv and v_inv are carried along because cokernel generators and
    class lifts need them.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    def diagonal(self):
        return tuple(
            self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols))
        )


def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _axpy(x, y, c, mod):
    """y + c*x entrywise, reduced mod `mod` when it is set."""
    if mod:
        return [(b + c * a) % mod for a, b in zip(x, y)]
    return [b + c * a for a, b in zip(x, y)]


def _col_axpy(rows, src, dst, c, mod):
    """Column dst += c * column src of a dense matrix, in place."""
    for row in rows:
        a = row[src]
        if a:
            b = row[dst] + c * a
            row[dst] = b % mod if mod else b


class _Elimination:
    """A matrix under elementary operations, with the transforms that keep
    U*A*V equal to it (mod `mod` when set, every entry then kept in
    [0, mod)).  Without row transforms U and U^-1 are not accumulated.

    The matrix is held as sparse rows {column: nonzero entry}, so row
    operations and the pivot search cost what the nonzeros cost; the four
    transforms are dense lists.  Column operations are made at step t only,
    with column t as source after it has been cleared below the pivot, and
    rows above t hold only their diagonal: such an operation changes row t of
    the matrix and nothing else.
    """

    def __init__(self, A: IntMatrix, mod: int | None, row_transforms: bool):
        self.mod = mod
        rows = ([a % mod for a in row] for row in A.entries) if mod else A.entries
        self.M = [{j: a for j, a in enumerate(row) if a} for row in rows]
        self.U = _eye(A.rows) if row_transforms else None
        self.Uinv = _eye(A.rows) if row_transforms else None
        self.V = _eye(A.cols)
        self.Vinv = _eye(A.cols)

    def swap_rows(self, i, j):
        for m in (self.M, self.U) if self.U is not None else (self.M,):
            m[i], m[j] = m[j], m[i]
        for row in self.Uinv or ():
            row[i], row[j] = row[j], row[i]

    def swap_cols(self, t, j):
        """Swap columns t and j > t at step t."""
        for row in self.M[t:]:
            if t in row:
                if j in row:
                    row[t], row[j] = row[j], row[t]
                else:
                    row[j] = row.pop(t)
            elif j in row:
                row[t] = row.pop(j)
        for row in self.V:
            row[t], row[j] = row[j], row[t]
        self.Vinv[t], self.Vinv[j] = self.Vinv[j], self.Vinv[t]

    def add_row(self, src, dst, c):
        """row dst += c * row src"""
        if c == 0:
            return
        mod = self.mod
        row = self.M[dst]
        for j, a in self.M[src].items():
            b = row.get(j, 0) + c * a
            if mod:
                b %= mod
            if b:
                row[j] = b
            else:
                row.pop(j, None)
        if self.U is not None:
            self.U[dst] = _axpy(self.U[src], self.U[dst], c, mod)
            _col_axpy(self.Uinv, dst, src, -c, mod)

    def add_col(self, t, j, c):
        """col j += c * col t at step t: of the matrix only row t changes"""
        if c == 0:
            return
        mod = self.mod
        row = self.M[t]
        b = row.get(j, 0) + c * row[t]
        if mod:
            b %= mod
        if b:
            row[j] = b
        else:
            row.pop(j, None)
        _col_axpy(self.V, t, j, c, mod)
        self.Vinv[t] = _axpy(self.Vinv[j], self.Vinv[t], -c, mod)

    def scale_row(self, i, c, c_inv):
        """row i *= c, a unit with inverse c_inv"""
        mod = self.mod
        self.M[i] = {j: (c * a) % mod if mod else c * a for j, a in self.M[i].items()}
        if self.U is not None:
            self.U[i] = [(c * a) % mod if mod else c * a for a in self.U[i]]
        for row in self.Uinv or ():
            row[i] = (c_inv * row[i]) % mod if mod else c_inv * row[i]

    def normalize_pivot(self, t):
        """Over Z/n, scale row t by a unit so that the pivot a becomes
        gcd(a, n): a unit pivot becomes 1 and clears its row and column in
        one pass."""
        mod, a = self.mod, self.M[t][t]
        g = gcd(a, mod)
        if a == g:
            return
        step = mod // g
        c = pow(a // g, -1, step)  # a * c = g mod n; lift c to a unit mod n
        while gcd(c, mod) != 1:
            c += step
        self.scale_row(t, c, pow(c, -1, mod))


def _smith_reduce(A: IntMatrix, modulus: int | None, row_transforms: bool) -> _Elimination:
    """A reduced to Smith normal form, over Z or over Z/modulus,
    deterministic for fixed input.

    Pivot choice: over Z the smallest nonzero absolute value, over Z/n the
    least gcd(a, n); ties go to the earlier row, then the earlier column.
    Euclidean steps clear the pivot's row and column.  At step t the rows
    from t on hold entries only in columns from t on, so the search reads
    each such row's nonzeros and nothing else.
    """
    m, n = A.rows, A.cols
    e = _Elimination(A, modulus, row_transforms)
    M = e.M
    weight = partial(gcd, modulus) if modulus else abs

    t = 0
    while t < min(m, n):
        # locate pivot; every weight is >= 1, so 0 means none found yet and
        # a weight of 1 cannot be beaten
        best = pi = pj = 0
        for i in range(t, m):
            for j, a in M[i].items():
                w = weight(a)
                if not best or w < best or (w == best and i == pi and j < pj):
                    best, pi, pj = w, i, j
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            e.swap_rows(t, pi)
        if pj != t:
            e.swap_cols(t, pj)
        while True:
            if modulus:
                e.normalize_pivot(t)
            # clear column t below the pivot (each step changes only row i)
            restart = False
            for i in [i for i in range(t + 1, m) if t in M[i]]:
                e.add_row(t, i, -(M[i][t] // M[t][t]))
                if t in M[i]:
                    e.swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            # clear row t right of the pivot (each step changes only entry j)
            for j in sorted(M[t]):
                if j > t:
                    e.add_col(t, j, -(M[t][j] // M[t][t]))
                    if j in M[t]:
                        e.swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            break
        # pivot must divide the remaining block; if not, fold the bad row in
        piv = M[t][t]
        bad = None
        for i in range(t + 1, m if abs(piv) != 1 else t + 1):
            if any(a % piv for a in M[i].values()):
                bad = i
                break
        if bad is not None:
            e.add_row(bad, t, 1)
            continue
        t += 1

    if not modulus:
        for i in range(min(m, n)):
            if M[i].get(i, 0) < 0:
                e.scale_row(i, -1, -1)
    return e


def smith(A: IntMatrix, modulus: int | None = None) -> SmithDecomposition:
    """Smith normal form of A with transforms, over Z or over Z/modulus."""
    e = _smith_reduce(A, modulus, row_transforms=True)

    def wrap(rows, ncols):
        return IntMatrix(tuple(map(tuple, rows)), len(rows), ncols)

    m, n = A.rows, A.cols
    D = [[0] * n for _ in range(m)]
    for i, row in enumerate(e.M):
        for j, a in row.items():
            D[i][j] = a
    return SmithDecomposition(
        wrap(e.U, m), wrap(D, n), wrap(e.V, n), wrap(e.Uinv, m), wrap(e.Vinv, n)
    )


def solve(A: IntMatrix, b, modulus: int | None = None, snf: SmithDecomposition | None = None):
    """One solution x of A x = b over Z (or Z/modulus), or None.  A given
    snf must be smith(A, modulus)."""
    if snf is None:
        snf = smith(A, modulus)
    ub = snf.U.apply(b, modulus)
    d = snf.diagonal()
    y = [0] * A.cols
    for i in range(A.rows):
        di = d[i] if i < len(d) else 0
        r = ub[i]
        if modulus is None:
            if di == 0:
                if r != 0:
                    return None
            else:
                if r % di:
                    return None
                if i < A.cols:
                    y[i] = r // di
        else:
            g = gcd(di, modulus)  # di = 0 reads as the modulus
            if r % g:
                return None
            if i < A.cols:
                # solve di * y = r mod modulus
                y[i] = (r // g) * pow(di // g, -1, modulus // g) % (modulus // g)
    return snf.V.apply(y, modulus)


def kernel_basis(A: IntMatrix, modulus: int | None = None, snf: SmithDecomposition | None = None):
    """Kernel of A: a lattice basis over Z, a generating set over Z/n.

    Over Z/n the generators are the columns of V scaled by n/gcd(d_i, n);
    together they generate {x : A x = 0 mod n} as a subgroup of (Z/n)^cols.
    A given snf must be smith(A, modulus); without one, the elimination
    skips U and U^-1, which the kernel does not read.
    """
    if snf is None:
        e = _smith_reduce(A, modulus, row_transforms=False)
        d, V = [e.M[i].get(i, 0) for i in range(min(A.rows, A.cols))], e.V
    else:
        d, V = snf.diagonal(), snf.V.entries
    out = []
    for j in range(A.cols):
        dj = d[j] if j < len(d) else 0
        col = tuple(row[j] for row in V)
        if modulus is None:
            if dj == 0:
                out.append(col)
        else:
            scale = modulus // gcd(dj, modulus)
            if scale != modulus:  # otherwise the scaled generator is 0 mod n
                out.append(tuple(scale * a % modulus for a in col))
    return out


@dataclass(frozen=True)
class FinAbGroup:
    """Invariant-factor presentation Z^free_rank + Z/t1 + Z/t2 + ...

    generators are coordinate vectors in whatever ambient presentation the
    group was computed from (torsion generators first, then free ones).
    """

    free_rank: int
    torsion: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        for t in self.torsion:
            if t < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    def order(self) -> int | None:
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def same_structure(self, other: "FinAbGroup") -> bool:
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.describe()


def invariant_factors(cyclic_orders) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups Z/m (m >= 1)."""
    primary: dict[int, list[int]] = {}
    for m in cyclic_orders:
        if m < 1:
            raise ValueError("cyclic order must be >= 1")
        mm = m
        p = 2
        while p * p <= mm:
            if mm % p == 0:
                e = 0
                while mm % p == 0:
                    mm //= p
                    e += 1
                primary.setdefault(p, []).append(p**e)
            p += 1
        if mm > 1:
            primary.setdefault(mm, []).append(mm)
    for p in primary:
        primary[p].sort(reverse=True)
    k = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(k):
        f = 1
        for p, powers in primary.items():
            if i < len(powers):
                f *= powers[i]
        factors.append(f)
    factors = [f for f in factors if f >= 2]
    factors.reverse()
    return tuple(factors)


class Subquotient:
    """ker(d_out)/im(d_in) with class-of-cycle and representative-of-class maps.

    Ambient coordinates are Z^a (a = d_out.cols = d_in.rows), reduced mod n
    when a modulus is given; then every elimination runs over Z/n, with its
    entries kept in [0, n).
    """

    def __init__(self, d_out: IntMatrix, d_in: IntMatrix, modulus: int | None = None):
        if d_out.cols != d_in.rows:
            raise ValueError("chain dimensions do not match")
        comp = d_out.mul(d_in, modulus=modulus)
        if not comp.is_zero():
            raise CompositionNonzeroError("d_out * d_in != 0")
        if modulus is not None and modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = modulus
        self.ambient = d_out.cols

        kgens = kernel_basis(d_out, modulus=modulus)
        K = IntMatrix.from_columns(kgens, nrows=self.ambient)
        self.K = K
        k = K.cols

        # relations: the x in Z^k (or (Z/n)^k) with K x in im(d_in)
        blocks = K.hstack(d_in)
        self._solve_snf = smith(blocks, modulus)
        self._blocks = blocks
        rel_cols = [vec[:k] for vec in kernel_basis(blocks, modulus, snf=self._solve_snf)]
        R = IntMatrix.from_columns(rel_cols, nrows=k)
        s = smith(R, modulus)
        self._U = s.U
        self._Uinv = s.u_inv
        d = s.diagonal()
        d = [d[i] if i < len(d) else 0 for i in range(k)]
        if modulus is not None:
            d = [gcd(x, modulus) for x in d]  # 0 reads as the modulus
        self._diag = tuple(d)
        self._kept = tuple(i for i in range(k) if self._diag[i] != 1)

        torsion = tuple(self._diag[i] for i in self._kept if self._diag[i] >= 2)
        free_rank = sum(1 for i in self._kept if self._diag[i] == 0)
        gens = tuple(self.lift(self._unit_coords(j)) for j in range(len(self._kept)))
        self.group = FinAbGroup(free_rank, torsion, gens)

    def _unit_coords(self, j):
        return tuple(1 if i == j else 0 for i in range(len(self._kept)))

    def lift(self, coords):
        """Ambient representative of the class with the given coordinates."""
        if len(coords) != len(self._kept):
            raise ValueError("coordinate length mismatch")
        y = [0] * self.K.cols
        for c, i in zip(coords, self._kept):
            y[i] = c
        return self.K.apply(self._Uinv.apply(y), self.modulus)

    def project(self, vec):
        """Coordinates of the class of a cycle; raises if vec is not a cycle."""
        if len(vec) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        z = solve(self._blocks, vec, self.modulus, snf=self._solve_snf)
        if z is None:
            raise ValueError("vector is not a cycle")
        y = self._U.apply(z[: self.K.cols], self.modulus)
        out = []
        for i in self._kept:
            d = self._diag[i]
            out.append(y[i] % d if d else y[i])
        return tuple(out)

    def coords_mod(self, coords):
        """Normalize raw coordinates into canonical range."""
        out = []
        for c, i in zip(coords, self._kept):
            d = self._diag[i]
            out.append(c % d if d else c)
        return tuple(out)


def cokernel(A: IntMatrix) -> FinAbGroup:
    """Structure and generators of Z^rows / column-span(A)."""
    return Subquotient(IntMatrix.zero(0, A.rows), A).group
