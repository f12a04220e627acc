"""Explicit matrix realizations of the classical Lie algebras, the
row-projected adjoint operators, computational verification of the
supporting structural lemmata, and constructive witnesses for nonempty
paving cells.

Realizations
------------
Type A_n lives in the full matrix algebra of size n+1, with the root
vector of ``ε_i − ε_j`` the (i, j) matrix unit.  Types B, C, D preserve an
antidiagonal symmetric (B: odd size, D: even size) or antidiagonal-block
alternating (C) bilinear form, chosen precisely so that the Borel consists
of upper-triangular matrices: every positive root vector is strictly upper
triangular and has at most two nonzero entries.  Structure constants
``[E_α, E_β] = m_{α,β} E_{α+β}`` are extracted from matrix brackets on
construction and every defining relation is re-verified exhaustively — a
realization that fails its own bracket table refuses to build.

All arithmetic is exact (ints and ``fractions.Fraction``); the adjoint
exponential ``Ad(exp X) = Σ ad(X)^k / k!`` terminates because ad(X) is
nilpotent, so no truncation or tolerance appears anywhere.

Row operators
-------------
For a nilpotent element ``N = Σ n_α E_α`` the operator ``psi_matrix``
restricts ad(N) to a row of the positive roots and projects back onto it;
in the height-ordered basis it is strictly upper triangular with nonzero
superdiagonal for regular N (types A/B/C), the fact driving the dimension
count of the paving.  ``theta_row`` is the row projection of the adjoint
exponential; on a single row it is affine except for the one quadratic
coordinate in type C, which lands on the long root of the row.

``verify_lemmata`` turns the structural facts into executable checks
(abelian/Heisenberg rows, the near-linearity case formulas, invariance of
the row operator under higher-row conjugation, the type-D coefficient
formulas, the first-nonzero-entry containment, and the type-D 3×3 block
with determinant ``2·n_{α_i}n_{α_{n-1}}n_{α_n}``).

``find_witness`` solves, stage by stage and exactly over the rationals,
for a unipotent group element conjugating a regular nilpotent into the
translated Hessenberg space, confirming each nonempty cell with an actual
point and matching the per-stage solution-space dimensions against the
combinatorial row profile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import ConsistencyError
from .hessenberg import (
    HessenbergSpace,
    enumerate_hessenberg,
    smallest_containing,
)
from .linalg import (
    Sparse,
    gf2_solve,
    solve_affine,
    sp_add,
    sp_commutator,
    sp_equal,
    sp_exp_nilpotent,
    sp_is_strictly_upper,
    sp_mul,
    sp_scale,
)
from .paving import cell_nonempty, row_dimension_profile
from .rootcore import (
    Root,
    RootSystem,
    WeylElement,
    _row_key,
    check_weyl_budget,
    enumerate_weyl,
    format_root,
    row_order,
    rows,
    strictly_dominates,
    type_d_stage_sets,
)

DEFAULT_SEED = 2026

Coeffs = dict[Root, Fraction | int]


@dataclass(frozen=True)
class StructureConstantTable:
    """The constants m_{α,β} with [E_α, E_β] = m_{α,β} E_{α+β}.

    Entries exist exactly for the pairs whose sum is a root; the stored
    integers are nonzero and antisymmetric in the arguments.
    """

    entries: dict[tuple[Root, Root], int]

    def m(self, a: Root, b: Root) -> int:
        return self.entries.get((a, b), 0)


@dataclass
class NilpotentElement:
    """An element of the nilradical, as a finitely supported coefficient map
    on the positive roots."""

    coeffs: Coeffs

    def support(self) -> set[Root]:
        return {r for r, v in self.coeffs.items() if v}

    def coefficient(self, root: Root) -> Fraction | int:
        return self.coeffs.get(root, 0)

    def is_regular(self, rs: RootSystem) -> bool:
        """Regular iff every simple-root coefficient is nonzero."""
        return all(self.coeffs.get(a, 0) != 0 for a in rs.simple_roots)


def sum_of_simple_vectors(rs: RootSystem) -> NilpotentElement:
    """The standard regular nilpotent: coefficient 1 on every simple root."""
    return NilpotentElement({a: 1 for a in rs.simple_roots})


class ChevalleyRealization:
    """A validated matrix realization of a classical Lie algebra.

    Attributes: ``rs``, ``dim_rep`` (n+1 / 2n+1 / 2n / 2n for A/B/C/D),
    ``root_vectors`` mapping every root (both signs) to a sparse matrix,
    ``cartan_basis`` (the n diagonal brackets [E_{α_i}, E_{−α_i}]), and
    ``constants``.
    """

    def __init__(self, rs: RootSystem, root_vectors: dict[Root, Sparse]):
        self.rs = rs
        self.dim_rep = _dim_rep(rs)
        self.root_vectors = root_vectors
        self._validate_supports()
        self.constants = self._extract_constants()
        self.cartan_basis = tuple(
            sp_commutator(root_vectors[a], root_vectors[-a])
            for a in rs.simple_roots
        )
        self._validate_weights()
        self._build_fast_tables()

    # -- construction checks ---------------------------------------------

    def _validate_supports(self) -> None:
        rs = self.rs
        if set(self.root_vectors) != set(rs.all_roots):
            raise ConsistencyError("realization must carry every root")
        owner: dict[tuple[int, int], Root] = {}
        for root, mat in self.root_vectors.items():
            if not mat:
                raise ConsistencyError(f"zero root vector at {root}")
            for pos in mat:
                if pos[0] == pos[1]:
                    raise ConsistencyError("root vector with diagonal entry")
                if pos in owner:
                    raise ConsistencyError(
                        f"matrix position {pos} shared by {owner[pos]} and {root}")
                owner[pos] = root
            if root.is_positive and not sp_is_strictly_upper(mat):
                raise ConsistencyError(
                    f"positive root vector {root} is not strictly upper triangular")
        # anchor: deterministic representative entry of each root vector
        self._anchor = {
            root: min(mat) for root, mat in self.root_vectors.items()
        }

    def _extract_constants(self) -> StructureConstantTable:
        rs = self.rs
        entries: dict[tuple[Root, Root], int] = {}
        for a in rs.all_roots:
            ea = self.root_vectors[a]
            for b in rs.all_roots:
                s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
                br = sp_commutator(ea, self.root_vectors[b])
                if rs.is_root(s):
                    target = self.root_vectors[Root(s)]
                    pos, val = next(iter(target.items()))
                    coeff = Fraction(br.get(pos, 0), 1) / val
                    if coeff == 0 or coeff.denominator != 1:
                        raise ConsistencyError(
                            f"bad structure constant for {a} + {b}")
                    if not sp_equal(br, sp_scale(target, coeff)):
                        raise ConsistencyError(
                            f"[E_{a}, E_{b}] is not a multiple of E_{Root(s)}")
                    entries[(a, b)] = int(coeff)
                elif any(s):
                    if br:
                        raise ConsistencyError(
                            f"[E_{a}, E_{b}] nonzero but {a} + {b} is not a root")
                else:
                    if any(r != c for (r, c) in br):
                        raise ConsistencyError(
                            f"[E_{a}, E_{-a}] is not diagonal")
        for (a, b), m in entries.items():
            if entries.get((b, a)) != -m:
                raise ConsistencyError("structure constants not antisymmetric")
        return StructureConstantTable(entries)

    def _validate_weights(self) -> None:
        rs = self.rs
        eig = []
        for h in self.cartan_basis:
            row = []
            for a in rs.simple_roots:
                ea = self.root_vectors[a]
                br = sp_commutator(h, ea)
                pos, val = next(iter(ea.items()))
                row.append(Fraction(br.get(pos, 0)) / val)
            eig.append(row)
        for root in rs.all_roots:
            er = self.root_vectors[root]
            for i, h in enumerate(self.cartan_basis):
                lam = sum(c * eig[i][j] for j, c in enumerate(root.coeffs))
                if not sp_equal(sp_commutator(h, er), sp_scale(er, lam)):
                    raise ConsistencyError(
                        f"E_{root} is not a weight vector for the Cartan")

    def _build_fast_tables(self) -> None:
        # m_{α,β} by positive-root index; 0 where α + β is not a root
        pos = self.rs.positive_roots
        m = self.constants.m
        self._m_pos = [[m(a, b) for b in pos] for a in pos]

    def _rescaled(self, sign: dict[Root, int]) -> ChevalleyRealization:
        """This realization with each E_α replaced by sign[α]·E_α, where
        sign is ±1 and equal on α and −α.

        Nothing is validated again: a constant m(a, b) becomes
        sign[a]·sign[b]·sign[a+b]·m(a, b), while the Cartan basis
        [E_α, E_−α] and the anchors (matrix positions) do not change.
        """
        rs = self.rs
        out = object.__new__(ChevalleyRealization)
        out.rs = rs
        out.dim_rep = self.dim_rep
        out.root_vectors = {
            root: sp_scale(mat, -1) if sign[root] == -1 else dict(mat)
            for root, mat in self.root_vectors.items()
        }
        out._anchor = self._anchor
        out.constants = StructureConstantTable({
            (a, b): sign[a] * sign[b] * sign[rs.root_add(a, b)] * m
            for (a, b), m in self.constants.entries.items()
        })
        out.cartan_basis = self.cartan_basis
        out._build_fast_tables()
        return out

    # -- conversions -------------------------------------------------------

    def matrix_of(self, element: NilpotentElement) -> Sparse:
        """The matrix Σ n_α E_α of a coefficient map."""
        out: Sparse = {}
        for root, v in element.coeffs.items():
            if v:
                out = sp_add(out, sp_scale(self.root_vectors[root], v))
        return out

    def expand(self, mat: Sparse) -> tuple[tuple[Fraction, ...], Coeffs]:
        """Expand a matrix over the root-vector basis plus the Cartan.

        Returns (cartan coefficients, root coefficient map); raises
        ValueError when the matrix is not in the span.
        """
        coeffs: Coeffs = {}
        residual = dict(mat)
        for root in self.rs.all_roots:
            anchor = self._anchor[root]
            if anchor in residual:
                c = Fraction(residual[anchor]) / self.root_vectors[root][anchor]
                if c:
                    coeffs[root] = c
                    residual = sp_add(
                        residual, sp_scale(self.root_vectors[root], -c))
        if any(r != c for (r, c) in residual):
            raise ValueError("matrix is not expressible in the root-vector "
                             "basis plus the Cartan")
        n = self.rs.rank
        size = self.dim_rep
        cols = [[Fraction(h.get((k, k), 0)) for h in self.cartan_basis]
                for k in range(size)]
        rhs = [Fraction(residual.get((k, k), 0)) for k in range(size)]
        solved = solve_affine(cols, rhs)
        if solved is None:
            raise ValueError("diagonal part is outside the Cartan span")
        cartan = tuple(solved[0][:n])
        return cartan, coeffs

    def __repr__(self) -> str:
        return (f"ChevalleyRealization({self.rs.lie_type}{self.rs.rank}, "
                f"dim_rep={self.dim_rep})")


def _dim_rep(rs: RootSystem) -> int:
    n = rs.rank
    return {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[rs.lie_type]


# ---------------------------------------------------------------------------
# construction per type
# ---------------------------------------------------------------------------


def _classify_epsilon(vec: tuple[int, ...]) -> tuple[str, int, int]:
    """Recognize an ε-vector as (kind, a, b) with 1-based indices."""
    plus = [k + 1 for k, v in enumerate(vec) if v > 0]
    minus = [k + 1 for k, v in enumerate(vec) if v < 0]
    values = sorted(v for v in vec if v)
    if values == [-1, 1]:
        return "diff", plus[0], minus[0]          # ε_a − ε_b
    if values == [1, 1]:
        return "sum", plus[0], plus[1]            # ε_a + ε_b, a < b
    if values == [-1, -1]:
        return "negsum", minus[0], minus[1]       # −ε_a − ε_b, a < b
    if values == [1]:
        return "short", plus[0], 0                # ε_a
    if values == [-1]:
        return "negshort", minus[0], 0
    if values == [2]:
        return "long", plus[0], 0                 # 2ε_a
    if values == [-2]:
        return "neglong", minus[0], 0
    raise ConsistencyError(f"unrecognized ε-vector {vec}")


def _root_matrix(rs: RootSystem, root: Root) -> Sparse:
    """The defining-representation matrix of a root vector (0-based)."""
    n = rs.rank
    t = rs.lie_type
    kind, a, b = _classify_epsilon(rs.epsilon_vector(root))
    if t == "A":
        if kind == "diff":
            return {(a - 1, b - 1): 1}
        raise ConsistencyError("type A roots must be ε-differences")
    if t == "B":
        size = 2 * n + 1

        def mir(k: int) -> int:  # 1-based mirror index, 0-based output
            return size - k

        if kind == "diff":
            return {(a - 1, b - 1): 1, (mir(b), mir(a)): -1}
        if kind == "sum":
            return {(a - 1, mir(b)): 1, (b - 1, mir(a)): -1}
        if kind == "negsum":
            return {(mir(b), a - 1): 1, (mir(a), b - 1): -1}
        if kind == "short":
            return {(a - 1, n): 1, (n, mir(a)): -1}
        if kind == "negshort":
            return {(n, a - 1): 1, (mir(a), n): -1}
    if t in ("C", "D"):
        size = 2 * n

        def mir(k: int) -> int:
            return size - k

        sign = 1 if t == "C" else -1
        if kind == "diff":
            return {(a - 1, b - 1): 1, (mir(b), mir(a)): -1}
        if kind == "sum":
            return {(a - 1, mir(b)): 1, (b - 1, mir(a)): sign}
        if kind == "negsum":
            return {(mir(b), a - 1): 1, (mir(a), b - 1): sign}
        if kind == "long":
            return {(a - 1, mir(a)): 1}
        if kind == "neglong":
            return {(mir(a), a - 1): 1}
    raise ConsistencyError(f"root {root} has no matrix in type {t}")


def build_chevalley(rs: RootSystem) -> ChevalleyRealization:
    """Build and fully validate the matrix realization for a root system."""
    vectors = {root: _root_matrix(rs, root) for root in rs.all_roots}
    return ChevalleyRealization(rs, vectors)


def normalize_type_D(real: ChevalleyRealization) -> ChevalleyRealization:
    """Rescale a type-D realization so the six families of structure
    constants used by the paired-stage analysis all equal +1, for every row
    index simultaneously.

    The rescaling is by signs: with all relevant constants ±1, the
    requirement is a linear system over GF(2) on sign exponents, solved
    exactly.  The validated realization is rescaled, not rebuilt, and
    every normalization pair is checked to reach +1 afterwards.
    Normalizing an already-normalized realization is the identity.  Raises
    ConsistencyError when no consistent rescaling exists.
    """
    rs = real.rs
    if rs.lie_type != "D":
        raise ValueError("normalization applies to type D only")
    n = rs.rank

    targets = _d_normalization_pairs(rs)
    pos_index = {r: k for k, r in enumerate(rs.positive_roots)}
    rows_gf2 = []
    rhs = []
    for a, b in targets:
        m = real.constants.m(a, b)
        if m == 0:
            raise ConsistencyError("normalization pair does not sum to a root")
        if abs(m) != 1:
            raise ConsistencyError(
                f"cannot sign-normalize |m| = {abs(m)} at ({a}, {b})")
        ia, ib = pos_index[a], pos_index[b]
        row = [0] * rs.num_positive
        for k in (ia, ib, rs._pos_sum[ia][ib]):
            row[k] ^= 1
        rows_gf2.append(row)
        rhs.append(0 if m == 1 else 1)
    solution = gf2_solve(rows_gf2, rhs)
    if solution is None:
        raise ConsistencyError("no consistent rescaling of root vectors exists")

    sign = {}
    for root in rs.all_roots:
        base = root if root.is_positive else -root
        sign[root] = -1 if solution[pos_index[base]] else 1
    normalized = real._rescaled(sign)
    for a, b in targets:
        if normalized.constants.m(a, b) != 1:
            raise ConsistencyError("normalization failed to reach +1")
    return normalized


def _chain_root(rs: RootSystem, lo: int, hi: int,
                fork: bool = False) -> Optional[Root]:
    """The root α_lo + ... + α_hi, plus α_n when ``fork``; None when that
    sum (or an empty chain) is not a root."""
    n = rs.rank
    v = [1 if lo <= k <= hi else 0 for k in range(1, n + 1)]
    if fork:
        v[n - 1] += 1
    t = tuple(v)
    return Root(t) if rs.is_root(t) else None


def _d_normalization_pairs(rs: RootSystem) -> list[tuple[Root, Root]]:
    """The six constant families (per valid row index) pinned to +1."""
    n = rs.rank
    alpha = rs.simple_roots
    pairs = []
    for i in range(1, n - 1):
        chain_in2 = _chain_root(rs, i, n - 2)              # ε_i − ε_{n-1}
        chain_i1_n1 = _chain_root(rs, i + 1, n - 1)        # ε_{i+1} − ε_n
        forked_i1 = _chain_root(rs, i + 1, n - 2, True)    # ε_{i+1} + ε_n
        candidates = [
            (chain_in2, alpha[n - 2]),
            (chain_in2, alpha[n - 1]),
            (alpha[i - 1], chain_i1_n1),
            (alpha[i - 1], forked_i1),
            (chain_i1_n1, alpha[n - 1]),
            (forked_i1, alpha[n - 2]),
        ]
        for a, b in candidates:
            if (a is not None and b is not None
                    and rs._pos_sum[rs.root_index(a)][rs.root_index(b)]
                    is not None):
                pairs.append((a, b))
    return pairs


# ---------------------------------------------------------------------------
# coefficient-space adjoint calculus
# ---------------------------------------------------------------------------


def _to_index_coeffs(real: ChevalleyRealization, coeffs: Mapping[Root, Fraction | int]
                     ) -> dict[int, Fraction | int]:
    rs = real.rs
    out: dict[int, Fraction | int] = {}
    for root, v in coeffs.items():
        if v:
            idx = rs.root_index(root)
            if idx >= rs.num_positive:
                raise ValueError(f"{format_root(root)} is not a positive root")
            out[idx] = v
    return out


def _from_index_coeffs(real: ChevalleyRealization, coeffs: dict[int, Fraction | int]
                       ) -> Coeffs:
    pos = real.rs.positive_roots
    return {pos[i]: v for i, v in sorted(coeffs.items()) if v}


def _ibracket(real: ChevalleyRealization, a: dict[int, Fraction | int],
              b: dict[int, Fraction | int]) -> dict[int, Fraction | int]:
    """[A, B] for coefficient maps supported on the positive roots."""
    m = real._m_pos
    sums = real.rs._pos_sum
    out: dict[int, Fraction | int] = {}
    for i, x in a.items():
        mi = m[i]
        si = sums[i]
        for j, y in b.items():
            k = si[j]
            if k is not None:
                w = out.get(k, 0) + mi[j] * x * y
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
    return out


def _iad_exp(real: ChevalleyRealization, x: dict[int, Fraction | int],
             n: dict[int, Fraction | int]) -> dict[int, Fraction | int]:
    """Ad(exp X)(N) = Σ ad(X)^k(N)/k! in coefficient space; exact."""
    out = dict(n)
    term = n
    for k in range(1, 4 * real.rs.num_positive + 2):
        term = _ibracket(real, x, term)
        if not term:
            return out
        if k > 1:
            term = {i: Fraction(v, k) if not isinstance(v, Fraction) else v / k
                    for i, v in term.items()}
        for i, v in term.items():
            w = out.get(i, 0) + v
            if w:
                out[i] = w
            elif i in out:
                del out[i]
    raise ConsistencyError("adjoint exponential series failed to terminate")


def bracket(real: ChevalleyRealization, a: Sparse, b: Sparse) -> Sparse:
    """Matrix commutator in the realization."""
    return sp_commutator(a, b)


def ad_exp(real: ChevalleyRealization, x: NilpotentElement,
           n: NilpotentElement) -> NilpotentElement:
    """Ad(exp X)(N) for X, N in the nilradical, exactly, re-expanded in the
    root-vector basis."""
    xi = _to_index_coeffs(real, x.coeffs)
    ni = _to_index_coeffs(real, n.coeffs)
    return NilpotentElement(_from_index_coeffs(real, _iad_exp(real, xi, ni)))


def _row_indices(rs: RootSystem, i: int) -> frozenset[int]:
    return frozenset(rs.root_index(r) for r in rows(rs).rows[i - 1])


def _project(rs: RootSystem, coeffs: dict[int, Fraction | int],
             indices: frozenset[int]) -> dict[int, Fraction | int]:
    return {k: v for k, v in coeffs.items() if k in indices and v}


# ---------------------------------------------------------------------------
# psi and theta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowMatrix:
    """A square matrix indexed by the roots of one row, in the fixed order
    (height descending, type-D ties resolved by coefficient order)."""

    roots: tuple[Root, ...]
    entries: tuple[tuple[Fraction | int, ...], ...]


def _ad_block(real: ChevalleyRealization, coeffs: Coeffs,
              targets: Sequence[Root], sources: Sequence[Root]
              ) -> list[list[Fraction | int]]:
    """The block of ad(N) on positive roots from ``sources`` to
    ``targets``: entry (α, β) is ``m_{α−β,β} n_{α−β}`` when α − β is a
    positive root and 0 otherwise."""
    rs = real.rs
    pos = rs.positive_roots
    m = real.constants.m
    cols = [(rs.root_index(beta), beta) for beta in sources]
    mat = []
    for alpha in targets:
        diff = rs._pos_diff[rs.root_index(alpha)]
        mat.append([0 if (d := diff[b]) is None
                    else m(pos[d], beta) * coeffs.get(pos[d], 0)
                    for b, beta in cols])
    return mat


def _psi_entries(real: ChevalleyRealization, coeffs: Coeffs, i: int
                 ) -> tuple[tuple[Root, ...], list[list[Fraction | int]]]:
    order = row_order(real.rs, i)
    return order, _ad_block(real, coeffs, order, order)


def psi_matrix(real: ChevalleyRealization, n: NilpotentElement, i: int,
               cross_check: bool = True) -> RowMatrix:
    """The restriction-and-projection of ad(N) to row i, as a matrix.

    Entry (α, β) is ``m_{α−β,β} n_{α−β}`` when α−β is a positive root and 0
    otherwise.  With ``cross_check`` the same matrix is recomputed from
    genuine matrix brackets ρ_i[N, E_β] and the two must agree.
    """
    rs = real.rs
    if not 1 <= i <= rs.rank:
        raise ValueError(f"row index {i} out of range")
    order, mat = _psi_entries(real, n.coeffs, i)

    if cross_check:
        nmat = real.matrix_of(n)
        for col, beta in enumerate(order):
            br = sp_commutator(nmat, real.root_vectors[beta])
            _, expanded = real.expand(br)
            for row, alpha in enumerate(order):
                if expanded.get(alpha, 0) != mat[row][col]:
                    raise ConsistencyError(
                        "row operator disagrees with matrix brackets at "
                        f"({format_root(alpha)}, {format_root(beta)})")
    return RowMatrix(order, tuple(tuple(line) for line in mat))


def theta_row(real: ChevalleyRealization, n: NilpotentElement,
              x: NilpotentElement, i: int) -> Coeffs:
    """ρ_i Ad(exp X)(N) for X supported on a single row."""
    rs = real.rs
    supp = x.support()
    if supp:
        hosting = {j for j in range(1, rs.rank + 1)
                   if supp & rows(rs).rows[j - 1]}
        if len(hosting) != 1:
            raise ValueError("X must be supported on a single row")
    xi = _to_index_coeffs(real, x.coeffs)
    ni = _to_index_coeffs(real, n.coeffs)
    out = _project(rs, _iad_exp(real, xi, ni), _row_indices(rs, i))
    return _from_index_coeffs(real, out)


# ---------------------------------------------------------------------------
# lemma verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str                      # "pass" | "fail"
    counterexample: Optional[dict]


@dataclass(frozen=True)
class LemmataReport:
    checks: tuple[CheckResult, ...]
    seed: int
    trials: int

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_record(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "status": c.status,
                 "counterexample": c.counterexample}
                for c in self.checks
            ],
            "seed": self.seed,
            "trials": self.trials,
        }


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"hessenpave:{seed}:{tag}")


def _random_nilpotent(rs: RootSystem, rng: random.Random,
                      regular: bool) -> NilpotentElement:
    coeffs: Coeffs = {}
    simples = set(rs.simple_roots)
    for root in rs.positive_roots:
        if regular and root in simples:
            v = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        else:
            v = rng.randint(-5, 5)
        if v:
            coeffs[root] = v
    return NilpotentElement(coeffs)


def _random_row_element(rs: RootSystem, rng: random.Random, j: int) -> Coeffs:
    return {r: v for r in row_order(rs, j) if (v := rng.randint(-5, 5))}


def _check_row_structure(real: ChevalleyRealization, trials: int,
                         seed: int) -> Optional[dict]:
    rs = real.rs
    dec = rows(rs)
    for i, row in enumerate(dec.rows, start=1):
        heisenberg = rs.lie_type == "C" and i < rs.rank
        gamma = dec.type_C_long_roots[i - 1] if heisenberg else None
        gidx = rs.root_index(gamma) if heisenberg else None
        for a in row:
            for b in row:
                s = rs._pos_sum[rs.root_index(a)][rs.root_index(b)]
                if not heisenberg and s is not None:
                    return {"row": i, "alpha": format_root(a),
                            "beta": format_root(b),
                            "reason": "abelian row with a root sum"}
                if heisenberg and s not in (None, gidx):
                    return {"row": i, "alpha": format_root(a),
                            "beta": format_root(b),
                            "reason": "Heisenberg bracket escapes the long root"}
        if heisenberg:
            if not any(rs._pos_sum[rs.root_index(a)][rs.root_index(b)] == gidx
                       for a in row for b in row):
                return {"row": i, "reason": "derived algebra is zero"}
            for a in row:
                if a != gamma:
                    d = rs._pos_diff[gidx][rs.root_index(a)]
                    if d is None or rs.positive_roots[d] not in row:
                        return {"row": i, "alpha": format_root(a),
                                "reason": "no Heisenberg partner"}
            non_central = [r for r in row if r != gamma]
            for t in range(min(trials, 25)):
                rng = _rng(seed, f"heis:{i}:{t}")
                x = {r: rng.randint(-5, 5) for r in non_central}
                if not any(x.values()):
                    x[non_central[0]] = 1
                xi = _to_index_coeffs(real, x)
                hit = False
                for b in row:
                    img = _ibracket(real, xi,
                                    {rs.root_index(b): 1})
                    if img.get(gidx, 0):
                        hit = True
                        break
                if not hit:
                    return {"row": i, "trial": t,
                            "reason": "ad X misses the long root"}
    return None


def _check_factorization_count(real: ChevalleyRealization) -> Optional[dict]:
    rs = real.rs
    dec = rows(rs)
    total = sum(len(r) for r in dec.rows)
    if total != rs.num_positive:
        return {"sum_of_rows": total, "positive_roots": rs.num_positive}
    return None


def _check_near_linearity(real: ChevalleyRealization, trials: int,
                          seed: int) -> Optional[dict]:
    rs = real.rs
    n = rs.rank
    dec = rows(rs)
    gamma_idx = {}
    if rs.lie_type == "C":
        for i in range(1, n):
            gamma_idx[i] = rs.root_index(dec.type_C_long_roots[i - 1])
    row_idx = [frozenset(rs.root_index(r) for r in dec.rows[i])
               for i in range(n)]
    for t in range(trials):
        rng = _rng(seed, f"nl:{t}")
        nn = _random_nilpotent(rs, rng, regular=False)
        ni = _to_index_coeffs(real, nn.coeffs)
        for j in range(1, n + 1):
            if not dec.rows[j - 1]:
                continue
            x = _random_row_element(rs, rng, j)
            xi = _to_index_coeffs(real, x)
            b1 = _ibracket(real, xi, ni)
            b2 = _ibracket(real, xi, b1)
            b3 = _ibracket(real, xi, b2)
            if b3:
                return {"trial": t, "row": j,
                        "reason": "cube of the adjoint action is nonzero"}
            lhs = _iad_exp(real, xi, ni)
            for i in range(1, n + 1):
                li = _project(rs, lhs, row_idx[i - 1])
                base = _project(rs, ni, row_idx[i - 1])
                lin = _project(rs, b1, row_idx[i - 1])
                quad = _project(rs, b2, row_idx[i - 1])
                if i > j:
                    expect = base
                elif i < j or rs.lie_type == "C":
                    expect = dict(base)
                    for k, v in lin.items():
                        expect[k] = expect.get(k, 0) + v
                    for k, v in quad.items():
                        expect[k] = expect.get(k, 0) + Fraction(v, 2)
                    expect = {k: v for k, v in expect.items() if v}
                    if i == j and rs.lie_type == "C":
                        allowed = {gamma_idx[i]} if i in gamma_idx else set()
                        if set(quad) - allowed:
                            return {"trial": t, "row": j,
                                    "reason": "quadratic part escapes the "
                                              "long root"}
                else:
                    expect = dict(base)
                    for k, v in lin.items():
                        expect[k] = expect.get(k, 0) + v
                    expect = {k: v for k, v in expect.items() if v}
                if {k: v for k, v in li.items() if v} != expect:
                    return {"trial": t, "source_row": j, "target_row": i,
                            "reason": "case formula mismatch"}
    return None


def _check_psi_invariance(real: ChevalleyRealization, trials: int,
                          seed: int) -> Optional[dict]:
    rs = real.rs
    n = rs.rank
    dec = rows(rs)
    for t in range(trials):
        rng = _rng(seed, f"psi:{t}")
        nn = _random_nilpotent(rs, rng, regular=False)
        for i in range(2, n + 1):
            if not dec.rows[i - 1]:
                continue
            for j in range(1, i):
                if not dec.rows[i - j - 1]:
                    continue
                x = _random_row_element(rs, rng, i - j)
                moved = ad_exp(real, NilpotentElement(x), nn)
                _, before = _psi_entries(real, nn.coeffs, i)
                _, after = _psi_entries(real, moved.coeffs, i)
                if before != after:
                    return {"trial": t, "row": i, "conjugating_row": i - j,
                            "reason": "row operator changed under "
                                      "lower-row conjugation"}
    return None


def _check_type_d_coefficients(real: ChevalleyRealization, trials: int,
                               seed: int) -> Optional[dict]:
    rs = real.rs
    if rs.lie_type != "D":
        return None
    n = rs.rank
    dec = rows(rs)
    pos = rs.positive_roots
    diff = rs._pos_diff
    for t in range(trials):
        rng = _rng(seed, f"dcoef:{t}")
        nn = _random_nilpotent(rs, rng, regular=False)
        ni = _to_index_coeffs(real, nn.coeffs)
        for i in range(1, n):
            if not dec.rows[i]:
                continue
            x = _random_row_element(rs, rng, i + 1)
            xi = _to_index_coeffs(real, x)
            total = _iad_exp(real, xi, ni)
            double = Root(tuple(2 * c for c in rs.simple_roots[i].coeffs))
            conjugating = [rs.root_index(r) for r in dec.rows[i]]
            for alpha in dec.rows[i - 1]:
                if all(a >= d for a, d in zip(alpha.coeffs, double.coeffs)):
                    continue          # hypothesis excludes α ≥ 2α_{i+1}
                line = diff[rs.root_index(alpha)]
                # the affine conclusion needs α − β1 − β2 to never be a
                # positive root; away from the fork row that is the same
                # condition, but the fork pair sums low in the dominance
                # order and must be excluded directly.  The row is abelian,
                # so when α − β1 − β2 is a root, so is α − β1 or α − β2.
                if any(line[b1] is not None and diff[line[b1]][b2] is not None
                       for b1 in conjugating for b2 in conjugating):
                    continue
                expect = nn.coeffs.get(alpha, 0)
                for b, beta in enumerate(pos):
                    d = line[b]
                    if d is not None and pos[d] in dec.rows[i]:
                        expect += (real.constants.m(pos[d], beta)
                                   * x.get(pos[d], 0)
                                   * nn.coeffs.get(beta, 0))
                got = total.get(rs.root_index(alpha), 0)
                if got != expect:
                    return {"trial": t, "row": i, "alpha": format_root(alpha),
                            "reason": "first coefficient formula mismatch"}
                trimmed = {r: v for r, v in x.items()
                           if not strictly_dominates(alpha, r)}
                kept = _iad_exp(real, _to_index_coeffs(real, trimmed), ni)
                if kept.get(rs.root_index(alpha), 0) != nn.coeffs.get(alpha, 0):
                    return {"trial": t, "row": i, "alpha": format_root(alpha),
                            "reason": "coefficient moved despite zero "
                                      "lower coordinates"}
    return None


def _check_containment(real: ChevalleyRealization, trials: int,
                       seed: int) -> Optional[dict]:
    """Containment of first entries.

    For N the sum of simple vectors and up to three seeded regular
    samples, every Hessenberg space and every w with a nonempty cell, each
    row root α outside wΦ_H (w⁻¹α ∉ Φ_H) must have a nonzero line in the row
    operator of N, with its first nonzero entry at a β for which α − β is
    simple, and every positive α − α_j must lie in the inversion set Φ_w.

    The conditions split into two bitmasks over ``rs.all_roots`` indices:

    * the (w, space) part, built once per w: ``bad(w)``, the w⁻¹-image of
      the row roots α with some positive α − α_j outside Φ_w;
    * the N-only part, built once per sample: ``F(N)``, the row roots
      whose line is zero or whose first nonzero entry is not at a height-1
      difference.

    A triple (N, space, w) fails iff its cell is nonempty and
    ``(bad(w) | w⁻¹F(N)) & ~hm`` is nonzero.  Let ``risky(w)`` be that mask
    for the union of ``F(N)`` over the samples.  The cell of w is nonempty
    in exactly the spaces whose ``hm`` contains ``w.sm``.  Negative parts
    of Hessenberg spaces are order ideals, closed under intersection, so
    among these spaces there is a smallest, ``smallest_containing(rs,
    w.sm)``, and every other one contains it.  Hence some space fails for w
    iff the smallest one does, and a passing run tests one mask per w and
    no (space, w) pair.  That smallest space is also checked to be one of
    the enumerated spaces.  Only for the suspect w, those whose smallest
    space fails, are the (space, w) cells tested; the samples are then
    scanned in order, and the first failing triple (N, then space, then w)
    is rerun root by root to name the row, the root and the reason.
    """
    rs = real.rs
    dec = rows(rs)
    samples = [sum_of_simple_vectors(rs)]
    for t in range(min(trials, 3)):
        samples.append(_random_nilpotent(rs, _rng(seed, f"cont:{t}"),
                                         regular=True))
    row_ids = [i for i in range(1, rs.rank + 1) if dec.rows[i - 1]]
    psi = [{i: _psi_entries(real, nn.coeffs, i) for i in row_ids}
           for nn in samples]
    faults = [_first_entry_faults(rs, psi_rows) for psi_rows in psi]
    any_fault = tuple(set().union(*faults))
    drops = _positive_simple_drops(
        rs, [alpha for i in row_ids for alpha in row_order(rs, i)])

    elements = enumerate_weyl(rs)
    spaces = enumerate_hessenberg(rs)
    known = {space.hm for space in spaces}
    bad = []
    risky = []        # bad(w) | w⁻¹F(N) for the union of F(N) over samples
    suspect_w = []
    for k, w in enumerate(elements):
        inv = w.inverse_root_permutation()
        outside_phi_w = ~sum(1 << p for p in w.inversion_indices())
        b = sum(1 << inv[a] for a, dm in drops if dm & outside_phi_w)
        bad.append(b)
        risky.append(b | sum(1 << inv[a] for a in any_fault))
        least = smallest_containing(rs, w.sm)
        if least not in known:
            raise ConsistencyError(
                f"{rs.lie_type}{rs.rank} word {list(w.word)}: the smallest "
                "space with a nonempty cell is not an enumerated space")
        if risky[k] & ~least:
            suspect_w.append(k)
    if not suspect_w:
        return None

    suspects = [(space, k) for space in spaces for k in suspect_w
                if risky[k] & ~space.hm and cell_nonempty(elements[k], space)]
    for psi_rows, fault in zip(psi, faults):
        for space, k in suspects:
            w = elements[k]
            inv = w.inverse_root_permutation()
            if (bad[k] | sum(1 << inv[a] for a in fault)) & ~space.hm:
                ce = _containment_counterexample(rs, psi_rows, space, w)
                if ce is None:
                    raise ConsistencyError(
                        f"containment masks flag {rs.lie_type}{rs.rank} "
                        f"word {list(w.word)} but no root fails")
                return ce
    raise ConsistencyError("a containment suspect fails for no sample")


def _first_entry_faults(rs: RootSystem, psi_rows: dict[int, tuple]
                        ) -> tuple[int, ...]:
    """Indices of the row roots whose row-operator line is zero or has its
    first nonzero entry at a β with α − β not simple."""
    out = []
    for order, mat in psi_rows.values():
        for alpha, line in zip(order, mat):
            first = next((c for c, v in enumerate(line) if v), None)
            if first is None or alpha.height - order[first].height != 1:
                out.append(rs.root_index(alpha))
    return tuple(out)


def _positive_simple_drops(rs: RootSystem, roots: list[Root]
                           ) -> tuple[tuple[int, int], ...]:
    """For each root α: its index and the mask of the positive roots
    α − α_j."""
    out = []
    for alpha in roots:
        k = rs.root_index(alpha)
        line = rs._pos_diff[k]
        out.append((k, sum(1 << d for a in rs._simple_index
                           if (d := line[a]) is not None)))
    return tuple(out)


def _containment_counterexample(rs: RootSystem, psi_rows: dict[int, tuple],
                                space: HessenbergSpace,
                                w: WeylElement) -> Optional[dict]:
    """The containment conditions of one nonempty cell for one N, root by
    root: the first failing row root as a counterexample, or None."""
    inv_perm = w.inverse_root_permutation()
    inversions = w.inversion_indices()
    for i, (order, mat) in psi_rows.items():
        for line, alpha in zip(mat, order):
            k = rs.root_index(alpha)
            if space.hm >> inv_perm[k] & 1:
                continue          # α ∈ wΦ_H: no claim
            first = next((c for c, v in enumerate(line) if v), None)
            if first is None:
                return {"hessenberg": sorted(
                            format_root(r) for r in space.negative_part),
                        "word": list(w.word), "row": i,
                        "alpha": format_root(alpha),
                        "reason": "zero row for an excluded root"}
            if alpha.height - order[first].height != 1:
                return {"word": list(w.word), "row": i,
                        "alpha": format_root(alpha),
                        "reason": "first entry not at a simple difference"}
            for j, a in enumerate(rs._simple_index, start=1):
                d = rs._pos_diff[k][a]
                if d is not None and d not in inversions:
                    return {"word": list(w.word), "row": i,
                            "alpha": format_root(alpha), "simple": j,
                            "reason": "simple-difference root escapes "
                                      "the inversion set"}
    return None


def _check_type_d_block(real: ChevalleyRealization, trials: int,
                        seed: int) -> Optional[dict]:
    rs = real.rs
    if rs.lie_type != "D":
        return None
    n = rs.rank
    for t in range(trials):
        rng = _rng(seed, f"dblock:{t}")
        nn = _random_nilpotent(rs, rng, regular=True)
        cf = nn.coeffs
        # the 3x3 middle block exists for stages pairing two full rows,
        # i.e. i <= n-3; the last pairing degenerates (its top row root
        # Σ_{j=i+1}^n α_j stops being a root)
        for i in range(1, n - 2):
            row_targets = [_chain_root(rs, i + 1, n),
                           _chain_root(rs, i, n - 1),
                           _chain_root(rs, i, n - 2, fork=True)]
            col_roots = [_chain_root(rs, i + 1, n - 1),
                         _chain_root(rs, i + 1, n - 2, fork=True),
                         _chain_root(rs, i, n - 2)]
            # entry (r, c) is m_{c,r−c} n_{r−c}: the block of −ad(N)
            block = [[-v for v in line]
                     for line in _ad_block(real, cf, row_targets, col_roots)]
            na = cf.get(rs.simple_roots[i - 1], 0)
            nb = cf.get(rs.simple_roots[n - 2], 0)
            nc = cf.get(rs.simple_roots[n - 1], 0)
            expected = [[nc, nb, 0], [-na, 0, nb], [0, -na, nc]]
            if block != expected:
                return {"trial": t, "stage": i, "block": [
                            [str(x) for x in line] for line in block],
                        "reason": "block deviates from the normalized form"}
            det = (block[0][0] * (block[1][1] * block[2][2]
                                  - block[1][2] * block[2][1])
                   - block[0][1] * (block[1][0] * block[2][2]
                                    - block[1][2] * block[2][0])
                   + block[0][2] * (block[1][0] * block[2][1]
                                    - block[1][1] * block[2][0]))
            if det != 2 * na * nb * nc or det == 0:
                return {"trial": t, "stage": i, "det": str(det),
                        "reason": "determinant differs from 2·n_i·n_{n-1}·n_n"}
    return None


def verify_lemmata(real: ChevalleyRealization, trial_count: int = 200,
                   seed: int = DEFAULT_SEED) -> LemmataReport:
    """Run the structural checks (row structure, factorization count,
    near-linearity, row-operator invariance, type-D coefficient formulas,
    containment of first entries, type-D block) with seeded random trials.

    The containment check covers every (N sample, space, w) triple, but a
    passing run tests one mask per Weyl element, against the smallest space
    in which its cell is nonempty (see ``_check_containment``).

    Type-D realizations are normalized first (idempotent), since the block
    check is stated for the normalized constants.  A trial count below 1
    is refused: a report of zero trials would pass without checking, and so
    is a Weyl group over the enumeration budget, before any check runs.
    """
    if trial_count < 1:
        raise ValueError(f"trial count must be at least 1, got {trial_count}")
    check_weyl_budget(real.rs.lie_type, real.rs.rank)
    if real.rs.lie_type == "D":
        real = normalize_type_D(real)
    named = (
        ("row_structure", lambda: _check_row_structure(real, trial_count, seed)),
        ("factorization_count", lambda: _check_factorization_count(real)),
        ("near_linearity", lambda: _check_near_linearity(real, trial_count, seed)),
        ("psi_invariance", lambda: _check_psi_invariance(real, trial_count, seed)),
        ("type_d_coefficients",
         lambda: _check_type_d_coefficients(real, trial_count, seed)),
        ("containment_first_entry",
         lambda: _check_containment(real, trial_count, seed)),
        ("type_d_block", lambda: _check_type_d_block(real, trial_count, seed)),
    )
    results = []
    for name, run in named:
        ce = run()
        results.append(CheckResult(name, "pass" if ce is None else "fail", ce))
    return LemmataReport(tuple(results), seed, trial_count)


# ---------------------------------------------------------------------------
# constructive witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessResult:
    """Stage-by-stage solution of the unipotent conjugation problem.

    ``stage_solutions[k]`` is the coefficient map solved at stage k (rows
    ascending; in type D stage k pairs the plain part of row k with the
    fork parts of row k+1, and k starts at 0).  ``stage_kernel_dims``
    records the dimension of each stage's affine solution space; these
    match the row dimension profile of the cell.
    """

    stage_solutions: tuple[Coeffs, ...]
    stage_kernel_dims: tuple[int, ...]
    verified: bool


def _split_type_d_stage(rs: RootSystem, k: int, coeffs: Coeffs
                        ) -> tuple[Coeffs, Coeffs]:
    """A type-D stage-k solution as (X on the plain part of row k, Y on the
    fork parts of row k+1)."""
    plain = rows(rs).type_D_parts[k - 1][0] if k >= 1 else frozenset()
    return ({r: v for r, v in coeffs.items() if r in plain},
            {r: v for r, v in coeffs.items() if r not in plain})


def _stage_solution_to_coeffs(vars_: list[Root], x: list[Fraction]) -> Coeffs:
    return {r: v for r, v in zip(vars_, x) if v}


def find_witness(real: ChevalleyRealization, w: WeylElement,
                 space: HessenbergSpace,
                 n: Optional[NilpotentElement] = None) -> WitnessResult:
    """Solve for a unipotent element u with Ad(u)(N) inside Ad(w)(H).

    Works stage by stage from the deepest row outward; each stage is an
    exact affine solve over the rationals (plus the one quadratic long-root
    coordinate in type C, adjusted last along its own line), with free
    parameters pinned to zero.  The result is verified by direct matrix
    computation, and the stage kernel dimensions are checked against the
    row dimension profile.  Raises ValueError for an empty cell or a
    non-regular N, ConsistencyError if any stage is infeasible or the final
    membership check fails (both would contradict the paving).
    """
    rs = real.rs
    if w.rs != rs or space.rs != rs:
        raise ValueError("Weyl element, space, and realization must share "
                         "one root system")
    if n is None:
        n = sum_of_simple_vectors(rs)
    if not n.is_regular(rs):
        raise ValueError("witness search requires a regular nilpotent")
    if not cell_nonempty(w, space):
        raise ValueError("cell is empty; no witness exists")

    inv = w.inverse_root_permutation()
    # positive roots outside wΦ_H, i.e. with w⁻¹p outside Φ_H
    in_whc = {p for p in range(rs.num_positive)
              if not space.hm >> inv[p] & 1}
    inversions = w.inversion_indices()

    current = _to_index_coeffs(real, n.coeffs)
    dec = rows(rs)

    stage_vars: list[list[Root]] = []
    stage_cons: list[list[Root]] = []
    if rs.lie_type != "D":
        for i in range(1, rs.rank + 1):
            order = row_order(rs, i)
            stage_vars.append([r for r in order
                               if rs.root_index(r) in inversions])
            stage_cons.append([r for r in order
                               if rs.root_index(r) in in_whc])
    else:
        for dom, cod in type_d_stage_sets(rs):
            ordered_dom = sorted(dom, key=_row_key)
            ordered_cod = sorted(cod, key=_row_key)
            stage_vars.append([r for r in ordered_dom
                               if rs.root_index(r) in inversions])
            stage_cons.append([r for r in ordered_cod
                               if rs.root_index(r) in in_whc])

    solutions: list[Coeffs] = [dict() for _ in stage_vars]
    kernels: list[int] = [0] * len(stage_vars)

    for k in range(len(stage_vars) - 1, -1, -1):
        vars_ = stage_vars[k]
        cons = stage_cons[k]
        gamma = None
        if rs.lie_type == "C" and k + 1 < rs.rank:
            gamma = dec.type_C_long_roots[k]
        quad = gamma is not None and gamma in cons

        if quad:
            d = rs._pos_diff[rs.root_index(gamma)][rs._simple_index[k]]
            pivot = None if d is None else rs.positive_roots[d]
            if pivot not in vars_:
                raise ConsistencyError(
                    "long-root constraint without its adjusting coordinate")
            solve_vars = [v for v in vars_ if v != pivot]
            solve_cons = [c for c in cons if c != gamma]
        else:
            solve_vars, solve_cons = vars_, cons

        if not solve_cons:
            x: list[Fraction] = [Fraction(0)] * len(solve_vars)
            kernel = len(solve_vars)
        else:
            # coeff_α(Ad exp X (M)) = 0 for each constraint α; the linear
            # part in X is −ad(M) from the variables to the constraints
            block = _ad_block(real, _from_index_coeffs(real, current),
                              solve_cons, solve_vars)
            solved = solve_affine(
                [[-v for v in line] for line in block],
                [-current.get(rs.root_index(alpha), 0)
                 for alpha in solve_cons])
            if solved is None:
                raise ConsistencyError(
                    f"stage {k} infeasible for word {list(w.word)}")
            x, kernel = solved
        coeffs = _stage_solution_to_coeffs(solve_vars, list(x))

        if quad:
            gidx = rs.root_index(gamma)
            base = _to_index_coeffs(real, coeffs)

            def gamma_coeff(tval: Fraction) -> Fraction:
                trial = dict(base)
                if tval:
                    trial[rs.root_index(pivot)] = tval
                return _iad_exp(real, trial, current).get(gidx, 0)

            c0 = gamma_coeff(Fraction(0))
            c1 = gamma_coeff(Fraction(1))
            c2 = gamma_coeff(Fraction(2))
            if c2 - 2 * c1 + c0 != 0:
                raise ConsistencyError("long-root coordinate is not affine "
                                       "along its adjusting line")
            slope = c1 - c0
            if slope == 0:
                raise ConsistencyError("degenerate long-root adjustment")
            tval = Fraction(-c0) / Fraction(slope)
            if tval:
                coeffs[pivot] = tval

        solutions[k] = coeffs
        kernels[k] = kernel

        if rs.lie_type != "D":
            current = _iad_exp(real, _to_index_coeffs(real, coeffs), current)
        else:
            # Y conjugates first
            x_part, y_part = _split_type_d_stage(rs, k, coeffs)
            current = _iad_exp(real, _to_index_coeffs(real, y_part), current)
            current = _iad_exp(real, _to_index_coeffs(real, x_part), current)

        for alpha in cons:
            if current.get(rs.root_index(alpha), 0) != 0:
                raise ConsistencyError(
                    f"stage {k} left its constraints unsatisfied")

    profile = row_dimension_profile(w, space)
    if tuple(kernels) != profile:
        raise ConsistencyError(
            f"stage kernel dimensions {tuple(kernels)} differ from the row "
            f"profile {profile}")

    _verify_witness_matrix(real, w, space, n, solutions, current)
    return WitnessResult(tuple(solutions), tuple(kernels), True)


def _verify_witness_matrix(real: ChevalleyRealization, w: WeylElement,
                           space: HessenbergSpace, n: NilpotentElement,
                           solutions: list[Coeffs],
                           final: dict[int, Fraction | int]) -> None:
    """Direct matrix check: conjugate N by the solved unipotent element and
    confirm both the coefficient-space computation and the membership."""
    rs = real.rs
    size = real.dim_rep

    factor_maps: list[Coeffs] = []
    if rs.lie_type != "D":
        factor_maps = list(solutions)
    else:
        for k, sol in enumerate(solutions):
            factor_maps.extend(_split_type_d_stage(rs, k, sol))

    u = {(i, i): Fraction(1) for i in range(size)}
    u_inv = {(i, i): Fraction(1) for i in range(size)}
    for fm in factor_maps:
        xmat = real.matrix_of(NilpotentElement(fm))
        u = sp_mul(u, sp_exp_nilpotent(xmat, size))
        u_inv = sp_mul(sp_exp_nilpotent(sp_scale(xmat, -1), size), u_inv)

    conj = sp_mul(sp_mul(u, real.matrix_of(n)), u_inv)
    cartan, expanded = real.expand(conj)
    if any(cartan):
        raise ConsistencyError("conjugated nilpotent acquired a Cartan part")
    final_map = _from_index_coeffs(real, final)
    if {r: Fraction(v) for r, v in expanded.items()} != \
            {r: Fraction(v) for r, v in final_map.items()}:
        raise ConsistencyError("matrix conjugation disagrees with the "
                               "coefficient-space computation")

    inv = w.inverse_root_permutation()
    for root in expanded:
        if expanded[root] and not space.hm >> inv[rs.root_index(root)] & 1:
            raise ConsistencyError(
                f"witness lands outside the translated Hessenberg space "
                f"at {format_root(root)}")
