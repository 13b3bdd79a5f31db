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
    """Immutable integer matrix, stored as sparse rows {column: nonzero
    entry}.

    Module actions are monomial or nearly so, and a bar matrix has
    |G|^(p+1) * rank rows with about (p + 2) * rank nonzeros each, so every
    product, application and elimination runs over the nonzeros.  Rows hold
    no zero entries and are never changed once the matrix is built (an
    elimination works on its own copy), so a matrix compares and hashes by
    value however it was built.
    """

    nonzeros: tuple[dict, ...]
    rows: int
    cols: int
    # computed on first use: lattices and modules hash their matrices on
    # every memo lookup
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            rows = tuple(frozenset(row.items()) for row in self.nonzeros)
            object.__setattr__(self, "_hash", hash((self.rows, self.cols, rows)))
        return self._hash

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows."""
        return tuple(tuple(row.get(j, 0) for j in range(self.cols)) for row in self.nonzeros)

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
        return IntMatrix(tuple({j: a for j, a in enumerate(row) if a} for row in rows), r, c)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple({} for _ in range(rows)), rows, cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple({i: 1} for i in range(n)), n, n)

    @staticmethod
    def from_columns(cols, nrows=None) -> "IntMatrix":
        return IntMatrix.from_rows(cols, ncols=nrows).transpose()

    def column(self, j):
        return tuple(row.get(j, 0) for row in self.nonzeros)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(_columns_to_rows(self.nonzeros, self.cols)), self.cols, self.rows)

    def mul(self, other: "IntMatrix", modulus: int | None = None) -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.nonzeros:
            acc: dict = {}
            for i, a in row.items():
                _axpy(other.nonzeros[i], acc, a, modulus)
            out.append(acc)
        return IntMatrix(tuple(out), self.rows, other.cols)

    def apply(self, vec, modulus: int | None = None):
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        out = [sum([a * vec[j] for j, a in row.items()]) for row in self.nonzeros]
        return tuple([x % modulus for x in out] if modulus else out)

    def add(self, other: "IntMatrix") -> "IntMatrix":
        out = []
        for r1, r2 in zip(self.nonzeros, other.nonzeros):
            acc = dict(r1)
            _axpy(r2, acc, 1, None)
            out.append(acc)
        return IntMatrix(tuple(out), self.rows, self.cols)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(
            tuple({j: b for j, a in row.items() if (b := c * a)} for row in self.nonzeros),
            self.rows,
            self.cols,
        )

    def mod(self, n: int) -> "IntMatrix":
        return IntMatrix(tuple(_reduced(row, n) for row in self.nonzeros), self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        w = other.cols
        return IntMatrix(
            tuple(
                {j * w + l: a * b for j, a in arow.items() for l, b in brow.items()}
                for arow in self.nonzeros
                for brow in other.nonzeros
            ),
            self.rows * other.rows,
            self.cols * w,
        )


def _det(m: list[list[int]]) -> int:
    """Exact determinant of the square matrix m (a list of lists, changed
    in place) by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
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


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V invertible and D diagonal.

    Over Z, U and V are unimodular and d1 | d2 | ... >= 0.  Over Z/n (a
    modulus n given to `smith`) the equation holds mod n, every entry of D,
    U, V and their inverses lies in [0, n), each d_i divides n or is 0, and
    the invariant factors gcd(d_i, n) form a divisibility chain (0 reads as
    n).  u_inv and v_inv complete the decomposition, A = u_inv D v_inv;
    cokernel and Subquotient.lift do not read them, but the transforms of
    their own eliminations.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    def diagonal(self):
        return tuple(self.D.nonzeros[i].get(i, 0) for i in range(min(self.D.rows, self.D.cols)))


def _reduced(row: dict, mod):
    """A copy of row, reduced to [0, mod) when mod is set, zeros dropped."""
    if mod:
        return {j: b for j, a in row.items() if (b := a % mod)}
    return dict(row)


def _axpy(src: dict, dst: dict, c, mod):
    """dst += c * src in place, over the nonzeros of src, reduced mod `mod`
    when it is set."""
    get = dst.get
    for j, a in src.items():
        b = (get(j, 0) + c * a) % mod if mod else get(j, 0) + c * a
        if b:
            dst[j] = b
        else:
            dst.pop(j, None)


def _add_entry(row: dict, j, c, mod):
    """row[j] += c in place, reduced mod `mod` when it is set; a zero is
    dropped."""
    b = row.get(j, 0) + c
    if mod:
        b %= mod
    if b:
        row[j] = b
    else:
        row.pop(j, None)


def _scaled(row: dict, c, mod):
    """row * c for a unit c: no entry becomes zero."""
    return {j: (c * a) % mod if mod else c * a for j, a in row.items()}


def _dot(row: dict, vec, mod):
    s = sum(a * vec[j] for j, a in row.items())
    return s % mod if mod else s


def _combine(cols, coeffs, n, mod):
    """The sum of coeffs[j] * cols[j], for columns {row: entry} of height n,
    as a tuple reduced mod `mod` when it is set."""
    acc = [0] * n
    for c, col in zip(coeffs, cols):
        if c:
            for i, a in col.items():
                acc[i] += c * a
    return tuple(x % mod for x in acc) if mod else tuple(acc)


def _columns_to_rows(cols, nrows):
    """Rows {column: entry} of the matrix with the given columns
    {row: entry}; entries in rows from nrows on are dropped."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, a in col.items():
            if i < nrows:
                rows[i][j] = a
    return rows


class _Elimination:
    """A matrix under elementary operations, with the transforms that keep
    U*A*V equal to it (mod `mod` when set, every entry then kept in
    [0, mod)).

    The matrix and its transforms are held as sparse rows {index: nonzero
    entry}: the matrix, U and V^-1 by rows, U^-1 and V by columns, so that
    every operation is a row operation on each of them and costs what the
    nonzeros of its source cost.  Only the transforms named in `keep` are
    accumulated.  Column operations are made at step t only, with column t
    as source after it has been cleared below the pivot, and rows above t
    hold only their diagonal: such an operation changes row t of the matrix
    and nothing else.
    """

    def __init__(self, A: IntMatrix, mod: int | None, keep):
        self.mod = mod
        self.M = [_reduced(row, mod) for row in A.nonzeros]  # owned, changed in place
        self.cols = A.cols

        def eye(n, name):
            return [{i: 1} for i in range(n)] if name in keep else None

        self.U, self.U_inv_cols = eye(A.rows, "U"), eye(A.rows, "U_inv")
        self.V_cols, self.V_inv = eye(A.cols, "V"), eye(A.cols, "V_inv")
        self._diag = None  # the finished diagonal, read by solve

    def diagonal(self):
        return [self.M[i].get(i, 0) for i in range(min(len(self.M), self.cols))]

    def swap_rows(self, i, j):
        for m in (self.M, self.U, self.U_inv_cols):
            if m is not None:
                m[i], m[j] = m[j], m[i]

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
        for m in (self.V_cols, self.V_inv):
            if m is not None:
                m[t], m[j] = m[j], m[t]

    def add_row(self, src, dst, c):
        """row dst += c * row src"""
        if c == 0:
            return
        mod = self.mod
        _axpy(self.M[src], self.M[dst], c, mod)
        if self.U is not None:
            _axpy(self.U[src], self.U[dst], c, mod)
        if self.U_inv_cols is not None:
            _axpy(self.U_inv_cols[dst], self.U_inv_cols[src], -c, mod)

    def add_col(self, t, j, c):
        """col j += c * col t at step t: of the matrix only row t changes"""
        if c == 0:
            return
        mod = self.mod
        _add_entry(self.M[t], j, c * self.M[t][t], mod)
        if self.V_cols is not None:
            _axpy(self.V_cols[t], self.V_cols[j], c, mod)
        if self.V_inv is not None:
            _axpy(self.V_inv[j], self.V_inv[t], -c, mod)

    def scale_row(self, i, c, c_inv):
        """row i *= c, a unit with inverse c_inv"""
        mod = self.mod
        self.M[i] = _scaled(self.M[i], c, mod)
        if self.U is not None:
            self.U[i] = _scaled(self.U[i], c, mod)
        if self.U_inv_cols is not None:
            self.U_inv_cols[i] = _scaled(self.U_inv_cols[i], c_inv, mod)

    def solve(self, b):
        """One x with A x = b (mod `mod` when set) for the matrix A reduced
        here, or None: U b, then the diagonal, then V y.  Needs U and V
        kept, and the reduction finished: the diagonal is read once."""
        mod, V_cols = self.mod, self.V_cols
        if self._diag is None:
            self._diag = self.diagonal()
        ub = [_dot(row, b, mod) for row in self.U]
        y = _diagonal_solve(self._diag, ub, len(V_cols), mod)
        return None if y is None else _combine(V_cols, y, len(V_cols), mod)

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


def _smith_reduce(A: IntMatrix, modulus: int | None, keep) -> _Elimination:
    """A reduced to Smith normal form, over Z or over Z/modulus,
    deterministic for fixed input.  The elimination reduces a copy of the
    rows of A mod modulus and leaves A as it is.

    Pivot choice: over Z the smallest nonzero absolute value, over Z/n the
    least gcd(a, n); ties go to the earlier row, then the earlier column.
    Euclidean steps clear the pivot's row and column.  At step t the rows
    from t on hold entries only in columns from t on, so the search reads
    each such row's nonzeros and nothing else.
    """
    m, n = A.rows, A.cols
    e = _Elimination(A, modulus, keep)
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
    """Smith normal form of A with all four transforms, over Z or over
    Z/modulus."""
    e = _smith_reduce(A, modulus, {"U", "U_inv", "V", "V_inv"})
    m, n = A.rows, A.cols
    return SmithDecomposition(
        IntMatrix(tuple(e.U), m, m),
        IntMatrix(tuple(e.M), m, n),
        IntMatrix(tuple(e.V_cols), n, n).transpose(),
        IntMatrix(tuple(e.U_inv_cols), m, m).transpose(),
        IntMatrix(tuple(e.V_inv), n, n),
    )


def _diagonal_solve(d, ub, ncols: int, modulus: int | None):
    """One y with D y = ub, for D the len(ub) x ncols matrix with diagonal
    d, or None."""
    y = [0] * ncols
    for i, r in enumerate(ub):
        di = d[i] if i < len(d) else 0
        if modulus is None:
            if di == 0:
                if r != 0:
                    return None
            else:
                if r % di:
                    return None
                if i < ncols:
                    y[i] = r // di
        else:
            g = gcd(di, modulus)  # di = 0 reads as the modulus
            if r % g:
                return None
            if i < ncols:
                # solve di * y = r mod modulus
                y[i] = (r // g) * pow(di // g, -1, modulus // g) % (modulus // g)
    return y


def solve(A: IntMatrix, b, modulus: int | None = None):
    """One solution x of A x = b over Z (or Z/modulus), or None.  The
    elimination accumulates U and V alone."""
    if len(b) != A.rows:
        raise ValueError("dimension mismatch")
    return _smith_reduce(A, modulus, {"U", "V"}).solve(b)


def _kernel_columns(d, V_cols, modulus: int | None):
    """Kernel generators as columns {row: entry}, from the diagonal d and
    the columns of V of an elimination of A: over Z the columns with
    d_j = 0, over Z/n each column scaled by n/gcd(d_j, n) unless that makes
    it 0 mod n."""
    out = []
    for j, col in enumerate(V_cols):
        dj = d[j] if j < len(d) else 0
        if modulus is None:
            if dj == 0:
                out.append(col)
        else:
            scale = modulus // gcd(dj, modulus)
            if scale != modulus:
                out.append({i: b for i, a in col.items() if (b := scale * a % modulus)})
    return out


def kernel_basis(A: IntMatrix, modulus: int | None = None):
    """Kernel of A: a lattice basis over Z, a generating set over Z/n.

    Over Z/n the generators are the columns of V scaled by n/gcd(d_i, n);
    together they generate {x : A x = 0 mod n} as a subgroup of (Z/n)^cols.
    The elimination accumulates V alone.
    """
    e = _smith_reduce(A, modulus, {"V"})
    return [
        tuple(col.get(i, 0) for i in range(A.cols))
        for col in _kernel_columns(e.diagonal(), e.V_cols, modulus)
    ]


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
    entries kept in [0, n).  Each elimination accumulates only the
    transforms read here: V for the kernel K of d_out, U and V of [K | d_in]
    to solve for the class of a cycle, U and U^-1 of the relations to read
    and lift coordinates.
    """

    def __init__(self, d_out: IntMatrix, d_in: IntMatrix, modulus: int | None = None):
        if d_out.cols != d_in.rows:
            raise ValueError("chain dimensions do not match")
        if not d_out.mul(d_in, modulus).is_zero():
            raise CompositionNonzeroError("d_out * d_in != 0")
        if modulus is not None and modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = modulus
        self.ambient = a = d_out.cols

        ker = _smith_reduce(d_out, modulus, {"V"})
        self._K = K = _kernel_columns(ker.diagonal(), ker.V_cols, modulus)
        k = len(K)

        # relations: the x in Z^k (or (Z/n)^k) with K x in im(d_in)
        blocks = _columns_to_rows(K, a)
        for row, extra in zip(blocks, d_in.nonzeros):
            for j, x in extra.items():
                row[k + j] = x
        self._solver = _smith_reduce(
            IntMatrix(tuple(blocks), a, k + d_in.cols), modulus, {"U", "V"}
        )
        rel = _kernel_columns(self._solver.diagonal(), self._solver.V_cols, modulus)
        s = _smith_reduce(IntMatrix(tuple(_columns_to_rows(rel, k)), k, len(rel)),
                          modulus, {"U", "U_inv"})
        self._U, self._U_inv_cols = s.U, s.U_inv_cols
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
        y = [0] * len(self._K)
        for c, i in zip(coords, self._kept):
            y[i] = c
        x = _combine(self._U_inv_cols, y, len(y), None)
        return _combine(self._K, x, self.ambient, self.modulus)

    def project(self, vec):
        """Coordinates of the class of a cycle; raises if vec is not a cycle."""
        if len(vec) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        mod = self.modulus
        z = self._solver.solve(vec)
        if z is None:
            raise ValueError("vector is not a cycle")
        y = [_dot(row, z, mod) for row in self._U]  # rows of U read z[:k] alone
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
