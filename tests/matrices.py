"""Matrix builders and readers for the tests; `scripts/involution_sweep.py`
imports `involution_types` and `random_unimodular` from here too."""

from torusbrauer.intlat import IntMatrix, _det


def diagonal(diag) -> IntMatrix:
    diag = list(diag)
    n = len(diag)
    return IntMatrix.from_rows([[d if i == j else 0 for j in range(n)] for i, d in enumerate(diag)], ncols=n)


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError("row mismatch")
    return IntMatrix.from_rows([r1 + r2 for r1, r2 in zip(a.entries, b.entries)], ncols=a.cols + b.cols)


def entry(m: IntMatrix, i: int, j: int) -> int:
    return m.nonzeros[i].get(j, 0)


def det(m: IntMatrix) -> int:
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    return _det([list(row) for row in m.entries])


def random_unimodular(n, rng, steps=10):
    """A product of `steps` random elementary operations row_i += ±row_j."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-1, 1])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMatrix.from_rows(m)


def ladder(k, n, transpose=False):
    """P = [[1,k],[1,k+1]] (or its transpose) on coordinates 0 and n-1 of the
    n x n identity; the identity when n = 1, where conjugation is trivial."""
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        p[0][0], p[0][n - 1], p[n - 1][0], p[n - 1][n - 1] = (
            (1, 1, k, k + 1) if transpose else (1, k, 1, k + 1)
        )
    return IntMatrix.from_rows(p)


def involution_types(max_rank):
    """Every involution type (a, b, c) of rank a + b + 2c in 1..max_rank,
    sorted."""
    out = []
    for c in range(max_rank // 2 + 1):
        for a in range(max_rank - 2 * c + 1):
            for b in range(max_rank - 2 * c - a + 1):
                if 1 <= a + b + 2 * c <= max_rank:
                    out.append((a, b, c))
    return sorted(out)
