"""Exact linear algebra over Z and Z/n.

Everything downstream (group cohomology, spectral sequence pages, the
Brauer-group oracle) reduces to Smith normal forms, integer kernels and
subquotients ker/im of pairs of integer matrices.  Entries are plain Python
ints, so nothing ever overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        rows = tuple(tuple(int(x) for x in row) for row in rows)
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
        ot = other.transpose().entries
        out = []
        for arow in self.entries:
            orow = []
            for bcol in ot:
                s = sum(a * b for a, b in zip(arow, bcol) if a and b)
                orow.append(s % modulus if modulus else s)
            out.append(orow)
        return IntMatrix.from_rows(out, ncols=other.cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

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
    """U*A*V = D with U, V unimodular and d1 | d2 | ... >= 0 on the diagonal.

    u_inv and v_inv are carried along because cokernel generators and class
    lifts need them constantly.
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


def _swap_rows(m, u, uinv, i, j):
    m[i], m[j] = m[j], m[i]
    u[i], u[j] = u[j], u[i]
    for row in uinv:
        row[i], row[j] = row[j], row[i]


def _swap_cols(m, v, vinv, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]
    vinv[i], vinv[j] = vinv[j], vinv[i]


def _add_row(m, u, uinv, src, dst, c):
    # row dst += c * row src
    if c == 0:
        return
    m[dst] = [a + c * b for a, b in zip(m[dst], m[src])]
    u[dst] = [a + c * b for a, b in zip(u[dst], u[src])]
    for row in uinv:
        row[src] -= c * row[dst]


def _add_col(m, v, vinv, src, dst, c):
    # col dst += c * col src
    if c == 0:
        return
    for row in m:
        row[dst] += c * row[src]
    for row in v:
        row[dst] += c * row[src]
    vinv[src] = [a - c * b for a, b in zip(vinv[src], vinv[dst])]


def _negate_row(m, u, uinv, i):
    m[i] = [-a for a in m[i]]
    u[i] = [-a for a in u[i]]
    for row in uinv:
        row[i] = -row[i]


def smith(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms, deterministic for fixed input.

    Pivot choice: smallest nonzero absolute value, ties broken by position.
    """
    m, n = A.rows, A.cols
    M = [list(row) for row in A.entries]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    t = 0
    while t < min(m, n):
        # locate pivot
        best = None
        for i in range(t, m):
            row = M[i]
            for j in range(t, n):
                a = row[j]
                if a:
                    if best is None or abs(a) < best[0]:
                        best = (abs(a), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            _swap_rows(M, U, Uinv, t, pi)
        if pj != t:
            _swap_cols(M, V, Vinv, t, pj)
        while True:
            # clear column t below the pivot
            restart = False
            for i in range(t + 1, m):
                a = M[i][t]
                if a:
                    q = a // M[t][t]
                    _add_row(M, U, Uinv, t, i, -q)
                    if M[i][t]:
                        _swap_rows(M, U, Uinv, t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                a = M[t][j]
                if a:
                    q = a // M[t][t]
                    _add_col(M, V, Vinv, t, j, -q)
                    if M[t][j]:
                        _swap_cols(M, V, Vinv, t, j)
                        restart = True
                        break
            if restart:
                continue
            break
        # pivot must divide the remaining block; if not, fold the bad row in
        piv = M[t][t]
        bad = None
        for i in range(t + 1, m):
            row = M[i]
            for j in range(t + 1, n):
                if row[j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            _add_row(M, U, Uinv, bad, t, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if M[i][i] < 0:
            _negate_row(M, U, Uinv, i)

    return SmithDecomposition(
        IntMatrix.from_rows(U, ncols=m),
        IntMatrix.from_rows(M, ncols=n),
        IntMatrix.from_rows(V, ncols=n),
        IntMatrix.from_rows(Uinv, ncols=m),
        IntMatrix.from_rows(Vinv, ncols=n),
    )


def solve(A: IntMatrix, b, modulus: int | None = None, snf: SmithDecomposition | None = None):
    """One solution x of A x = b over Z (or Z/modulus), or None."""
    if snf is None:
        snf = smith(A)
    ub = snf.U.apply(b)
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
            r %= modulus
            if di == 0:
                if r:
                    return None
            else:
                g = gcd(di, modulus)
                if r % g:
                    return None
                # solve di * y = r mod modulus
                dd, rr, mm = di // g, r // g, modulus // g
                if i < A.cols:
                    y[i] = (rr * pow(dd, -1, mm)) % mm
    x = snf.V.apply(y)
    if modulus is not None:
        x = tuple(a % modulus for a in x)
    return tuple(x)


def kernel_basis(A: IntMatrix, modulus: int | None = None, snf: SmithDecomposition | None = None):
    """Kernel of A: a lattice basis over Z, a generating set over Z/n.

    Over Z/n the generators are the columns of V scaled by n/gcd(d_i, n);
    together they generate {x : A x = 0 mod n} as a subgroup of (Z/n)^cols.
    """
    if snf is None:
        snf = smith(A)
    d = snf.diagonal()
    out = []
    for j in range(A.cols):
        dj = d[j] if j < len(d) else 0
        col = snf.V.column(j)
        if modulus is None:
            if dj == 0:
                out.append(col)
        else:
            scale = modulus // gcd(dj, modulus)
            if scale != modulus or dj == 0:
                vec = tuple((scale * a) % modulus for a in col)
            else:
                continue  # scaled generator is 0 mod n; n*Z^a relations are implicit
            out.append(vec)
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
    when a modulus is given.
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

        # relation lattice: x in Z^k with K x in im(d_in) (+ n Z^ambient)
        blocks = K.hstack(d_in)
        if modulus is not None:
            blocks = blocks.hstack(IntMatrix.identity(self.ambient).scale(modulus))
        self._solve_snf = smith(blocks)
        self._blocks = blocks
        rel_cols = []
        for vec in kernel_basis(blocks):
            rel_cols.append(vec[:k])
        R = IntMatrix.from_columns(rel_cols, nrows=k)
        s = smith(R)
        self._U = s.U
        self._Uinv = s.u_inv
        d = s.diagonal()
        self._diag = tuple(d[i] if i < len(d) else 0 for i in range(k))
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
        x = self._Uinv.apply(y)
        v = self.K.apply(x)
        if self.modulus is not None:
            v = tuple(a % self.modulus for a in v)
        return v

    def project(self, vec):
        """Coordinates of the class of a cycle; raises if vec is not a cycle."""
        if len(vec) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        z = solve(self._blocks, vec, snf=self._solve_snf)
        if z is None:
            raise ValueError("vector is not a cycle")
        x = z[: self.K.cols]
        y = self._U.apply(x)
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
