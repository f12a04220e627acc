"""Finite-field flag counting against the paving predictions."""

import itertools
import re

import pytest

from hessenpave import fforacle
from hessenpave.errors import ConsistencyError
from hessenpave.fforacle import (
    count_points,
    free_positions,
    hessenberg_check,
    weyl_to_permutation,
)
from hessenpave.hessenberg import from_function
from hessenpave.paving import BettiTable
from hessenpave.rootcore import RootSystem, apply, enumerate_weyl


def ref_cell_flags(n, q, perm):
    """Every flag of one Bruhat cell, q^(number of inversions) of them, as
    its normal-form columns: column j is 1 in row perm[j-1], takes each
    value at its free positions and is 0 elsewhere."""
    assert sorted(perm) == list(range(1, n + 1)), perm
    positions = free_positions(perm)
    for values in itertools.product(range(q), repeat=len(positions)):
        cols = [[0] * n for _ in range(n)]
        for j, p in enumerate(perm):
            cols[j][p - 1] = 1
        for (r, c), v in zip(positions, values):
            cols[c - 1][r - 1] = v
        yield cols


def test_flag_enumeration_counts():
    # identity: a single flag; simple transposition: q flags; w0: q^3
    assert len(list(ref_cell_flags(3, 2, (1, 2, 3)))) == 1
    assert len(list(ref_cell_flags(3, 2, (2, 1, 3)))) == 2
    assert len(list(ref_cell_flags(3, 2, (3, 2, 1)))) == 8
    total = sum(len(list(ref_cell_flags(3, 2, p)))
                for p in itertools.permutations((1, 2, 3)))
    assert total == 21


def test_flags_are_distinct_points():
    seen = set()
    for p in itertools.permutations((1, 2, 3)):
        for cols in ref_cell_flags(3, 3, p):
            flag = tuple(map(tuple, cols))
            assert flag not in seen
            seen.add(flag)
    assert len(seen) == sum(3 ** k for k in (0, 1, 1, 2, 2, 3))


def test_free_positions_match_inversions():
    rs = RootSystem("A", 3)
    for w in enumerate_weyl(rs):
        perm = weyl_to_permutation(w)
        assert len(free_positions(perm)) == w.length


def ref_weyl_to_permutation(w):
    """The permutation of 1..n as the word walk: each a is sent through the
    letters of the word, last letter first."""
    n = w.rs.rank + 1
    out = []
    for a in range(1, n + 1):
        b = a
        for i in reversed(w.word):
            if b == i:
                b = i + 1
            elif b == i + 1:
                b = i
        out.append(b)
    return tuple(out)


def test_weyl_to_permutation_equals_the_word_walk():
    """One swap per letter gives the word walk's permutation on all 5,912
    elements of A1-A6."""
    seen = 0
    for rank in range(1, 7):
        for w in enumerate_weyl(RootSystem("A", rank)):
            assert weyl_to_permutation(w) == ref_weyl_to_permutation(w), \
                w.word
            seen += 1
    assert seen == 5912


def test_weyl_to_permutation_action():
    """The permutation must reproduce the Weyl element's root action."""
    for rank in (2, 3):
        rs = RootSystem("A", rank)
        n = rank + 1
        for w in enumerate_weyl(rs):
            sigma = weyl_to_permutation(w)
            for a, b in itertools.combinations(range(1, n + 1), 2):
                coeffs = tuple(1 if a <= k <= b - 1 else 0
                               for k in range(1, n))
                img = apply(w, rs.root(coeffs))
                ia, ib = sigma[a - 1], sigma[b - 1]
                lo, hi, sign = (ia, ib, 1) if ia < ib else (ib, ia, -1)
                expect = tuple(sign if lo <= k <= hi - 1 else 0
                               for k in range(1, n))
                assert img.coeffs == expect


def test_hessenberg_check_trivial_cases():
    for perm in itertools.permutations((1, 2, 3)):
        for cols in ref_cell_flags(3, 2, perm):
            assert hessenberg_check(2, perm, cols, (3, 3, 3))
    standard = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for h in [(1, 2, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3)]:
        assert hessenberg_check(2, (1, 2, 3), standard, h)


def test_hessenberg_check_invariant_plane():
    """For h = (2,2,3) the passing flags are exactly those whose plane is
    the unique N-invariant one: span(e1, e2)."""
    passing = []
    for perm in itertools.permutations((1, 2, 3)):
        for cols in ref_cell_flags(3, 2, perm):
            if hessenberg_check(2, perm, cols, (2, 2, 3)):
                passing.append(cols)
    assert len(passing) == 3
    for cols in passing:
        for j in (0, 1):
            assert cols[j][2] == 0          # inside span(e1, e2)


def test_count_points_frozen_examples():
    assert count_points(3, 2, (2, 3, 3)).total == 9
    report = count_points(3, 2, (2, 2, 3))
    assert report.total == 3
    by_perm = {c.perm: c.count for c in report.cells}
    assert by_perm[(1, 2, 3)] == 1 and by_perm[(2, 1, 3)] == 2
    assert sum(by_perm.values()) == 3
    assert count_points(3, 2, (3, 3, 3)).total == 21
    assert count_points(3, 2, (1, 2, 3)).total == 1


def test_full_flag_variety_totals():
    """q-factorial totals for the unconstrained flag variety of GL_4."""
    assert count_points(4, 2, (4, 4, 4, 4)).total == 315
    assert count_points(4, 3, (4, 4, 4, 4)).total == 2080


def test_count_points_record_shape():
    record = count_points(3, 2, (2, 3, 3)).to_record()
    assert record["n"] == 3 and record["q"] == 2
    assert record["total"] == record["betti_eval"] == 9
    assert all(set(c) == {"perm", "count", "predicted"}
               for c in record["cells"])


@pytest.mark.parametrize("n", [3, 4])
def test_two_prime_consistency(n):
    """Exponents recovered at q=2 and q=3 agree, so counts are genuine
    powers of q."""
    import math
    from hessenpave.hessenberg import enumerate_hessenberg, to_function
    rs = RootSystem("A", n - 1)
    for space in enumerate_hessenberg(rs):
        h = to_function(space)
        r2 = count_points(n, 2, h)
        r3 = count_points(n, 3, h)
        for c2, c3 in zip(r2.cells, r3.cells):
            assert c2.perm == c3.perm
            e2 = None if c2.count == 0 else round(math.log(c2.count, 2))
            e3 = None if c3.count == 0 else round(math.log(c3.count, 3))
            assert e2 == e3
            if e2 is not None:
                assert c2.count == 2 ** e2 and c3.count == 3 ** e3


def hessenberg_functions(n):
    """Every h that from_function admits: nondecreasing, i <= h(i) <= n."""
    return [h for h in itertools.product(range(1, n + 1), repeat=n)
            if all(h[i] <= h[i + 1] for i in range(n - 1))
            and all(v >= i for i, v in enumerate(h, start=1))]


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3),
                                 (3, 5), (4, 2), (4, 3), (5, 2)])
def test_pruned_cell_count_equals_brute_force(n, q):
    """Column-by-column counting, with pinned columns solved for, gives the
    same count as testing every flag of the cell: on every cell under every
    Hessenberg function for n <= 4, the ones with h(i) = i included, and
    under the certify function and the two extremes for n = 5."""
    hs = (hessenberg_functions(n) if n <= 4
          else [(2, 3, 4, 5, 5), (1, 2, 3, 4, 5), (5, 5, 5, 5, 5)])
    for h in hs:
        for perm in itertools.permutations(range(1, n + 1)):
            brute = sum(1 for cols in ref_cell_flags(n, q, perm)
                        if hessenberg_check(q, perm, cols, h))
            assert fforacle._count_cell(n, q, perm, h) == brute, \
                (h, perm)


def test_count_points_tries_only_pinned_columns(monkeypatch):
    """Work count: a column that a due condition pins is solved for, so the
    walk tries 1,740 columns for n = 4 over F_5, where trying every value
    of each column's free entries took 11,940."""
    tried = []
    column = fforacle._column

    def counted(*args):
        tried.append(args)
        return column(*args)

    monkeypatch.setattr(fforacle, "_column", counted)
    assert count_points(4, 5, (2, 3, 4, 4)).total == 216
    assert len(tried) == 1740


def test_count_points_catches_a_solver_that_proposes_too_few(monkeypatch):
    """A column solver that never proposes a column undercounts some cell,
    and the comparison with the paving refuses it."""
    monkeypatch.setattr(fforacle, "_solve_column", lambda *_: None)
    with pytest.raises(ConsistencyError,
                       match=r"^cell \(.*\): counted \d+ flags, paving "
                             r"predicts \d+ \(n=4, q=3, h=\(2, 3, 4, 4\)\)$"):
        count_points(4, 3, (2, 3, 4, 4))


def test_count_points_checks_each_passing_flag_once(monkeypatch):
    """Work count: hessenberg_check confirms exactly the passing flags
    (216 of the 29,016 flags of n = 4 over F_5)."""
    checked = []

    def counted(q, perm, cols, h):
        checked.append(tuple(map(tuple, cols)))
        return hessenberg_check(q, perm, cols, h)

    monkeypatch.setattr(fforacle, "hessenberg_check", counted)
    report = count_points(4, 5, (2, 3, 4, 4))
    assert len(checked) == report.total == 216
    assert len(set(checked)) == len(checked)


def test_count_points_rejects_a_flag_the_check_refuses(monkeypatch):
    """A flag that survives the pruned walk but fails the per-flag check
    is a consistency failure, not a count."""
    monkeypatch.setattr(fforacle, "hessenberg_check", lambda *_: False)
    with pytest.raises(ConsistencyError, match="passes the column test"):
        count_points(3, 2, (2, 3, 3))
    # the message lists the refused flag's free entries ((r, c), v)
    monkeypatch.setattr(fforacle, "hessenberg_check",
                        lambda q, perm, cols, h: perm == (1, 2, 3))
    with pytest.raises(ConsistencyError, match=re.escape(
            "flag (((1, 1), 0),) of cell (2, 1, 3) passes the column test "
            "but not hessenberg_check (n=3, q=2, h=(2, 3, 3))")):
        count_points(3, 2, (2, 3, 3))


def test_count_points_total_check_names_the_case(monkeypatch):
    """A total that differs from the Betti evaluation is a consistency
    failure naming n, q and h."""
    monkeypatch.setattr(fforacle, "poincare_polynomial",
                        lambda space: BettiTable((1, 1)))
    with pytest.raises(ConsistencyError, match=re.escape(
            "total 9 differs from the Betti evaluation 3 "
            "(n=3, q=2, h=(2, 3, 3))")):
        count_points(3, 2, (2, 3, 3))


@pytest.mark.parametrize("h, bad", [
    ((2.9, 3.5, 3), "h(1) = 2.9"),
    ((2, 3.0, 3), "h(2) = 3.0"),
    ("233", "h(1) = '2'"),
    ((True, 2, 3), "h(1) = True"),
    ((2, 3, False), "h(3) = False"),
])
def test_count_points_refuses_non_integer_values(h, bad):
    """A float, a string or a bool in h is refused, not truncated or read
    as digits, by count_points and by from_function alike."""
    message = "^" + re.escape(f"{bad} is not an integer") + "$"
    with pytest.raises(ValueError, match=message):
        count_points(3, 2, h)
    with pytest.raises(ValueError, match=message):
        from_function(3, h)
    # the refusals of q, n and the flag budget come first
    with pytest.raises(ValueError, match="q must be one of"):
        count_points(3, 4, h)
    with pytest.raises(ValueError, match="n must be between 2 and 5"):
        count_points(6, 2, h)
    with pytest.raises(ValueError, match="over the budget"):
        count_points(5, 5, h)


class RefEchelonBasis:
    """Incremental reduced echelon basis of a subspace of F_q^n."""

    def __init__(self, q):
        self.q = q
        self.rows = []
        self.pivots = []

    def _reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [(x - f * y) % self.q for x, y in zip(v, row)]
        return tuple(v)

    def add(self, vec):
        v = self._reduce(vec)
        if any(v):
            p = next(k for k, x in enumerate(v) if x)
            inv = pow(v[p], self.q - 2, self.q)
            self.rows.append(tuple(x * inv % self.q for x in v))
            self.pivots.append(p)

    def contains(self, vec):
        return not any(self._reduce(vec))


def ref_jordan(n):
    """The regular nilpotent single Jordan block: ones on the
    superdiagonal."""
    return [[1 if c == r + 1 else 0 for c in range(n)] for r in range(n)]


def ref_hessenberg_check(q, cols, h):
    """N·V_i ⊆ V_{h(i)} for all i, with N·v a product by the explicit
    Jordan matrix and membership tested against a fresh echelon basis per
    flag, as the check stood before it read coordinates off the normal
    form."""
    n = len(cols)
    nil = ref_jordan(n)
    images = [tuple(sum(a * b for a, b in zip(row, col)) % q for row in nil)
              for col in cols]
    basis = RefEchelonBasis(q)
    filled = 0
    for i in range(1, n + 1):
        target = h[i - 1]
        while filled < target:
            basis.add(cols[filled])
            filled += 1
        if not all(basis.contains(images[k]) for k in range(i)):
            return False
    return True


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 5),
                                 (4, 2), (4, 3)])
def test_hessenberg_check_equals_echelon_reference(n, q):
    """Every flag under every h: each h in {1..n}^n for n <= 3, each
    Hessenberg function for n = 4."""
    hs = (list(itertools.product(range(1, n + 1), repeat=n)) if n <= 3
          else hessenberg_functions(n))
    for perm in itertools.permutations(range(1, n + 1)):
        for cols in ref_cell_flags(n, q, perm):
            for h in hs:
                assert (hessenberg_check(q, perm, cols, h)
                        == ref_hessenberg_check(q, cols, h)), (cols, h)


@pytest.mark.parametrize("n, q, message", [
    (3, 2.0, "q must be an integer, got 2.0"),
    (3, True, "q must be an integer, got True"),
    (3, "2", "q must be an integer, got '2'"),
    (3.0, 2, "n must be an integer, got 3.0"),
    (True, 2, "n must be an integer, got True"),
    (3.0, 2.0, "q must be an integer, got 2.0"),
])
def test_count_points_refuses_non_integer_sizes(n, q, message):
    """A q or an n that is not an int is refused by name, q first, not
    compared with ints and then failing inside the arithmetic."""
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        count_points(n, q, (2, 3, 3))


def test_count_points_refuses_large_flag_varieties_before_work(monkeypatch):
    """[5]_5! = 22,661,496 flags is over the budget, and n = 6 is past the
    largest n the oracle takes; the refusal comes before the space is built
    or any flag is enumerated, and n is checked before the budget."""
    def forbidden(*_, **__):
        raise AssertionError("count_points started work")

    monkeypatch.setattr(fforacle, "from_function", forbidden)
    monkeypatch.setattr(fforacle, "_count_cell", forbidden)
    with pytest.raises(ValueError, match=r"^the flag variety for n=5, q=5 "
                       r"has 22661496 points, over the budget of 300000$"):
        count_points(5, 5, (2, 3, 4, 5, 5))
    with pytest.raises(ValueError, match=r"q must be one of \(2, 3, 5\)"):
        count_points(3, 1, (2, 3, 3))
    for n in (-3, 0, 1, 6, 10 ** 9):
        with pytest.raises(ValueError,
                           match=rf"^n must be between 2 and 5, got {n}$"):
            count_points(n, 2, (2,))
