"""Small exact linear algebra utilities.

Everything here works over the rationals (``fractions.Fraction``, with
plain ints passing through untouched); matrices in the Lie-algebra
realizations are sparse dicts ``{(row, col): value}`` since root vectors
have at most two nonzero entries.  Sizes never exceed a few
dozen, so the point is exactness and determinism, not asymptotics.

``Fraction`` is imported only by the two functions that build rationals,
``sp_exp_nilpotent`` and ``solve_affine``, so importing this module (and
the CLI) does not load ``fractions``.
"""

from __future__ import annotations

Sparse = dict[tuple[int, int], "Fraction | int"]


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------


def sp_add(a: Sparse, b: Sparse) -> Sparse:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + v
        if w:
            out[k] = w
        elif k in out:
            del out[k]
    return out


def sp_scale(a: Sparse, c) -> Sparse:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def sp_mul(a: Sparse, b: Sparse) -> Sparse:
    rows: dict[int, list[tuple[int, Fraction | int]]] = {}
    for (r, c), v in b.items():
        rows.setdefault(r, []).append((c, v))
    out: Sparse = {}
    for (r, c), v in a.items():
        for c2, v2 in rows.get(c, ()):
            k = (r, c2)
            w = out.get(k, 0) + v * v2
            if w:
                out[k] = w
            elif k in out:
                del out[k]
    return out


def sp_commutator(a: Sparse, b: Sparse) -> Sparse:
    return sp_add(sp_mul(a, b), sp_scale(sp_mul(b, a), -1))


def sp_identity(n: int) -> Sparse:
    return {(i, i): 1 for i in range(n)}


def sp_exp_nilpotent(x: Sparse, size: int) -> Sparse:
    """exp of a nilpotent matrix; the series must terminate within `size`
    steps, which is checked."""
    from fractions import Fraction

    out = sp_identity(size)
    term: Sparse = sp_identity(size)
    for k in range(1, size + 1):
        term = sp_scale(sp_mul(term, x), Fraction(1, k))
        if not term:
            return out
        out = sp_add(out, term)
    raise ValueError("matrix is not nilpotent")


# ---------------------------------------------------------------------------
# dense exact solving
# ---------------------------------------------------------------------------


def solve_affine(matrix: list[list[Fraction | int]],
                 rhs: list[Fraction | int],
                 ) -> tuple[list[Fraction], int] | None:
    """Solve ``A x = rhs`` exactly.

    Returns ``(x, kernel_dim)`` where x is the particular solution with all
    free variables set to zero, or None when the system is inconsistent.
    Pivoting is deterministic (first nonzero entry in column order), so the
    returned solution is a pure function of the input.
    """
    from fractions import Fraction

    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(rhs[r])]
         for r, row in enumerate(matrix)]
    pivots: list[tuple[int, int]] = []
    prow = 0
    for col in range(n):
        pr = next((r for r in range(prow, m) if a[r][col] != 0), None)
        if pr is None:
            continue
        a[prow], a[pr] = a[pr], a[prow]
        inv = 1 / a[prow][col]
        a[prow] = [x * inv for x in a[prow]]
        for r in range(m):
            if r != prow and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[prow])]
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    for r in range(prow, m):
        if a[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for prow_, col in pivots:
        x[col] = a[prow_][n]
    return x, n - len(pivots)
