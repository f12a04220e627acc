"""Brute-force verification over small prime fields, in type A only.

A complete flag in F_q^n sits in exactly one Bruhat cell, indexed by a
permutation; the cell is an affine space whose points have a unique
column-echelon normal form.  Columns carry pivots at the rows given by the
permutation, entries below a pivot and to the right of a pivot (in its
row) vanish, and the remaining free entries — one per inversion — take
arbitrary field values, so the cell has exactly ``q^{inv(w)}`` points.  A
flag is held as the list of its normal-form columns and nothing else.

A flag satisfies the Hessenberg condition when the single-Jordan-block
nilpotent N maps each ``V_i`` into ``V_{h(i)}``.  N is never built as a
matrix: ``N·v`` is v shifted up one row.  The normal-form columns are
already an echelon basis, so the coordinates of ``N·v_k`` in that basis come
from one back-substitution mod q with no inverse, and the condition reads
off which coordinates vanish.

A cell is counted without visiting all of its flags.  The columns are
assigned left to right.  The condition is ``N·v_i ∈ V_{h(i)}`` for every
i, and since a Hessenberg function has ``h(i) ≥ i`` it depends on columns
1..h(i) only.  It is tested as soon as column h(i) is set.  Later columns
cannot change its answer, so a failure rules out the whole subtree.
A condition due at column j with i < j reads ``N·v_i ∈ V_{j−1} + F·v_j``
with v_i already fixed.  Clearing the pivot rows of v_1..v_{j−1} from
``N·v_i`` leaves a residual r; if r = 0 every v_j passes, and otherwise
only ``v_j = r / r[pivot_j]`` can, since a normal-form column is 1 at its
pivot and 0 at the earlier pivot rows.  So column j is solved for, not
searched: the walk tries every value of its free entries only when no due
condition pins it (no condition due, every residual 0, or only the
self-condition i = j of ``h(i) = i``).  Every tried column still goes
through the containment test, and ``hessenberg_check`` re-checks the
columns of every flag that survives by its own full pivot sweep, apart
from the walk's incremental residuals; a disagreement raises
ConsistencyError.  The flags of a cut subtree are never listed and a
pinned column is never guessed, so the work grows with the passing partial
flags (q^dim whole flags in a cell), not with all q^inv flags of the cell.

Counting the passing flags per cell gives an independent check of the
paving: a nonempty cell of predicted dimension d must contain exactly
``q^d`` points and an empty cell none, and the total must be the Betti
evaluation at q.  The complex-geometry statement is used as a counting
oracle over finite fields; the cells are cut out by the same equations, so
any combinatorial slip shows up as a count mismatch.
"""

from __future__ import annotations

import itertools
import math

from .errors import ConsistencyError, expect
from .hessenberg import _checked_function, from_function
from .paving import compute_paving, poincare_polynomial
from .rootcore import WeylElement, _Record

_ALLOWED_PRIMES = (2, 3, 5)
_MAX_N = 5
# Most flags count_points enumerates, [n]_q! in all.  Every n <= 4 and n = 5
# at q = 3 (251,680 flags) fit; n = 5 at q = 5 has 22,661,496 flags.  The
# worst case, the full space at n = 5 and q = 3 (``count-points --n 5 --q 3
# --hess-fn 5,5,5,5,5``), takes 9.2-11.0 s as a fresh process on a shared
# 2-vCPU Xeon, at 16 MB peak; the largest n = 4 case, the full space at
# q = 5 (29,016 flags), takes 0.8-0.9 s.
_FLAG_BUDGET = 300_000


def free_positions(perm: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The free (row, column) positions of the cell's normal form: above the
    pivot of the column, in rows not already used by earlier pivots."""
    earlier: set[int] = set()
    out = []
    for j, p in enumerate(perm, start=1):
        for r in range(1, p):
            if r not in earlier:
                out.append((r, j))
        earlier.add(p)
    return tuple(out)


def hessenberg_check(q: int, perm: tuple[int, ...], cols: list[list[int]],
                     h: tuple[int, ...]) -> bool:
    """Whether the flag with normal-form columns ``cols`` (pivot pattern
    ``perm``, 1-based: column j has its pivot in row perm[j-1]) satisfies
    N·V_i ⊆ V_{h(i)} for all i, N the Jordan block.  ``h`` need not be
    nondecreasing: N·V_i ⊆ V_{h(k)} for every k ≥ i, so condition i reads
    V_{max h(1..i)}, which is V_{h(i)} for a Hessenberg function.

    N·v is v shifted up one row.  The normal-form column v_j has a 1 in row
    perm[j] and zeros below it.  Clearing a vector's entries at the pivot
    rows, lowest pivot first, by subtracting multiples of the pivot's column
    therefore yields its coordinates in the basis v_1..v_n, and N·v_k lies
    in V_m iff its coordinates past m vanish.

    Raises ValueError, before any work, for a q outside the primes
    ``count_points`` admits (Z/q is the field F_q only for q prime), a
    ``perm`` that is not a permutation of 1..n, ``cols`` that are not n
    columns of n entries, an ``h`` of another length or with a value that
    is not an int in 1..n, an entry that is not an int in 0..q−1, and a
    column that is not in the normal form of ``perm``: 1 at its pivot and 0
    off its ``free_positions``.  A float or a bool is refused, not
    converted.
    """
    expect(q, int, "q")
    if q not in _ALLOWED_PRIMES:
        raise ValueError(f"q must be one of {_ALLOWED_PRIMES}, got {q}")
    expect(perm, (tuple, list))
    expect(cols, (tuple, list))
    expect(h, (tuple, list))
    n = len(perm)
    if (any(type(p) is not int for p in perm)
            or sorted(perm) != list(range(1, n + 1))):
        raise ValueError(f"perm {perm!r} is not a permutation of 1..{n}")
    for col in cols:
        expect(col, (tuple, list))
    if len(cols) != n or any(len(col) != n for col in cols):
        raise ValueError(f"cols must be {n} columns of {n} entries")
    if len(h) != n:
        raise ValueError(f"h must have {n} values, got {len(h)}")
    for i, v in enumerate(h, start=1):
        if type(v) is not int or not 1 <= v <= n:
            raise ValueError(f"h({i}) = {v!r} is not an integer in 1..{n}")
    for j, col in enumerate(cols, start=1):
        for x in col:
            if type(x) is not int or not 0 <= x < q:
                raise ValueError(f"column {j} entry {x!r} is not an integer "
                                 f"in 0..{q - 1}")
    for j, (p, col) in enumerate(zip(perm, cols)):
        # 1 at the pivot, 0 below it and in the rows of earlier pivots
        if col[p - 1] != 1 or any(col[p:]) or any(
                col[r - 1] for r in perm[:j]):
            raise ValueError(
                f"column {j + 1} is not in the normal form of perm {perm!r}")
    sweep = sorted(range(n), key=lambda j: -perm[j])
    reach = 0              # least m with N·V_i ⊆ V_m
    top = 0                # max(h(1..i)), h(i) for a Hessenberg function
    for i in range(n):
        vec = [*cols[i][1:], 0]
        for j in sweep:
            f = vec[perm[j] - 1]
            if f:
                vec = [(x - f * y) % q for x, y in zip(vec, cols[j])]
                reach = max(reach, j + 1)
        top = max(top, h[i])
        if reach > top:
            return False
    return True


def _column(n: int, pivot: int, rows: list[int],
            values: tuple[int, ...]) -> list[int]:
    """The normal-form column with a 1 at row ``pivot`` and ``values`` at
    its free ``rows``; the column walk calls it once per column it tries."""
    col = [0] * n
    col[pivot] = 1
    for r, v in zip(rows, values):
        col[r] = v
    return col


def _solve_column(q: int, r: list[int], pivot: int,
                  rows: list[int]) -> tuple[int, ...] | None:
    """The free-entry values of the one normal-form column v with r ∈ F·v,
    or None when there is none.

    r is nonzero and already zero at the pivot rows of the earlier columns.
    A column has 1 at ``pivot`` and is zero outside ``rows`` and ``pivot``,
    so v = r / r[pivot], which needs r[pivot] ≠ 0 and r zero off those rows.
    """
    c = r[pivot]
    if not c or any(x for k, x in enumerate(r)
                    if k != pivot and k not in rows):
        return None
    inv = pow(c, q - 2, q)
    return tuple(r[k] * inv % q for k in rows)


def _count_cell(n: int, q: int, perm: tuple[int, ...],
                h: tuple[int, ...]) -> int:
    """The number of flags of one Bruhat cell with N·V_i ⊆ V_{h(i)} for all
    i, N the Jordan block, found by assigning the normal-form columns left
    to right.  N·v_i is v_i shifted up one row.

    ``h`` is a Hessenberg function (nondecreasing, h(i) ≥ i), so condition
    i, N·v_i ∈ V_{h(i)}, reads columns 1..h(i) only and is tested as soon
    as column h(i) is set; a failure cuts the whole subtree.  When a
    condition due at column j has i < j and a nonzero residual modulo
    V_{j−1}, it pins v_j, and ``_solve_column`` proposes that one column;
    otherwise every value of the free entries is tried.  Either way each
    tried column is tested against every due condition, so the walk reaches
    the same partial flags as trying every value would.  Each flag that
    survives is confirmed by ``hessenberg_check``, and a disagreement
    raises ConsistencyError.
    """
    positions = free_positions(perm)
    free_rows = [[r - 1 for r, c in positions if c == j]
                 for j in range(1, n + 1)]
    pivot = [p - 1 for p in perm]
    due = [[i for i, m in enumerate(h) if m == j] for j in range(1, n + 1)]
    # lowest pivot first: the order that clears pivot rows
    sweep = sorted(range(n), key=lambda j: -pivot[j])
    cols: list[list[int]] = [[] for _ in range(n)]
    count = 0

    def residual(i: int, m: int) -> list[int]:
        """N·v_i with the pivot rows of v_1..v_m cleared: zero exactly when
        N·v_i lies in V_m."""
        vec = cols[i][1:] + [0]
        for j in sweep:
            f = vec[pivot[j]]
            if f and j < m:
                vec = [(x - f * y) % q for x, y in zip(vec, cols[j])]
        return vec

    def walk(j: int) -> None:
        nonlocal count
        if j == n:
            if not hessenberg_check(q, perm, cols, h):
                free = tuple(((r, c), cols[c - 1][r - 1])
                             for r, c in positions)
                raise ConsistencyError(
                    f"flag {free} of cell {perm} passes the column "
                    f"test but not hessenberg_check (n={n}, q={q}, h={h})")
            count += 1
            return
        tries = itertools.product(range(q), repeat=len(free_rows[j]))
        for i in due[j]:
            if i < j and any(r := residual(i, j)):
                values = _solve_column(q, r, pivot[j], free_rows[j])
                tries = () if values is None else (values,)
                break
        for values in tries:
            cols[j] = _column(n, pivot[j], free_rows[j], values)
            if not any(any(residual(i, j + 1)) for i in due[j]):
                walk(j + 1)

    walk(0)
    return count


def weyl_to_permutation(w: WeylElement) -> tuple[int, ...]:
    """The permutation s_{i1}···s_{ik} of 1..n for a type-A Weyl element
    with word i1..ik, which matches its root action: entries i and i+1 of
    the identity swapped once per letter, left to right."""
    rs = w.rs
    if rs.lie_type != "A":
        raise ValueError("permutations encode type-A Weyl elements only")
    perm = list(range(1, rs.rank + 2))
    for i in w.word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


class CellCount(_Record):
    __slots__ = ("perm", "count", "predicted")
    perm: tuple[int, ...]
    count: int
    predicted: int


class CountReport(_Record):
    __slots__ = ("n", "q", "h", "cells", "total", "betti_eval")
    n: int
    q: int
    h: tuple[int, ...]
    cells: tuple[CellCount, ...]
    total: int
    betti_eval: int

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "h": list(self.h),
            "cells": [
                {"perm": "".join(str(p) for p in c.perm),
                 "count": c.count, "predicted": c.predicted}
                for c in self.cells
            ],
            "total": self.total,
            "betti_eval": self.betti_eval,
        }


def count_points(n: int, q: int, h) -> CountReport:
    """Count Hessenberg flags over F_q per Bruhat cell and compare with the
    paving prediction; a mismatch raises ConsistencyError.

    For every permutation cell the count must be ``q^dim`` when the paving
    (``compute_paving``) declares the cell nonempty of dimension dim, and 0
    when empty; the total must equal the Betti evaluation at q.  Raises
    ValueError, before any work, when q or n is not an int (a float or a
    bool is refused, not converted), when n is outside 2.._MAX_N or the
    flag variety has more than _FLAG_BUDGET points over F_q, and then when
    h is not a Hessenberg function of ints.
    """
    expect(q, int, "q")
    if q not in _ALLOWED_PRIMES:
        raise ValueError(f"q must be one of {_ALLOWED_PRIMES}, got {q}")
    expect(n, int, "n")
    if not 2 <= n <= _MAX_N:
        raise ValueError(f"n must be between 2 and {_MAX_N}, got {n}")
    flags = math.prod((q ** k - 1) // (q - 1) for k in range(1, n + 1))
    if flags > _FLAG_BUDGET:
        raise ValueError(
            f"the flag variety for n={n}, q={q} has {flags} points, over "
            f"the budget of {_FLAG_BUDGET}")
    hs = _checked_function(n, h)
    space = from_function(n, hs)

    cells = []
    total = 0
    for cell in compute_paving(space):
        perm = weyl_to_permutation(cell.w)
        predicted = q ** cell.dim if cell.nonempty else 0
        count = _count_cell(n, q, perm, hs)
        if count != predicted:
            raise ConsistencyError(
                f"cell {perm}: counted {count} flags, paving predicts "
                f"{predicted} (n={n}, q={q}, h={hs})")
        cells.append(CellCount(perm, count, predicted))
        total += count

    betti_eval = poincare_polynomial(space).evaluate(q)
    if total != betti_eval:
        raise ConsistencyError(
            f"total {total} differs from the Betti evaluation {betti_eval} "
            f"(n={n}, q={q}, h={hs})")
    return CountReport(n, q, hs, tuple(cells), total, betti_eval)
