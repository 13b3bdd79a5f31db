"""Matrix builders and readers that only the tests use."""

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
