"""Integer matrix routines: exact determinants and Smith normal form.

Everything works on plain Python ints (arbitrary precision), on small dense
matrices given as lists of lists.
"""

from __future__ import annotations

from fractions import Fraction


def int_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
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


def leading_principal_minors(rows: list[list[int]]) -> list[int]:
    """Determinants of the top-left k-by-k blocks, k = 1..n."""
    return [int_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(rows: list[list[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalise an integer matrix by unimodular row/column operations.

    Returns ``(diag, U, V)`` with ``U @ A @ V`` diagonal, ``diag[i] >= 0``,
    and ``diag[i] | diag[i+1]``.  U and V are unimodular.
    """
    a = [row[:] for row in rows]
    m, n = len(a), len(a[0]) if a else 0
    u, v = _identity(m), _identity(n)
    t = 0
    while t < min(m, n):
        # move a nonzero entry of smallest magnitude into the pivot slot
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
        # clear row and column t; restart whenever a remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(n):
                        a[i][j] -= q * a[t][j]
                    for j in range(m):
                        u[i][j] -= q * u[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(m):
                        a[i][j] -= q * a[i][t]
                        v[i][j] -= q * v[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    for jj in range(n):
                        a[t][jj] += a[i][jj]
                    for jj in range(m):
                        u[t][jj] += u[i][jj]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1
    diag = [a[k][k] for k in range(min(m, n))]
    return diag, u, v


def unimodular_inverse(rows: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix."""
    out = []
    for row in fraction_inverse(rows):
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append([int(x) for x in row])
    return out


def fraction_inverse(rows: list[list[int | Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular matrix of ints or Fractions."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for k in range(n):
        p = next((i for i in range(k, n) if aug[i][k]), None)
        if p is None:
            raise ValueError("matrix is singular")
        aug[k], aug[p] = aug[p], aug[k]
        pivot = aug[k][k]
        aug[k] = [x / pivot for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [[aug[i][n + j] for j in range(n)] for i in range(n)]
