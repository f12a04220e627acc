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
triangular and has at most two nonzero entries.  The root vectors are a
Chevalley basis in every type: |m_{α,β}| = p + 1, for β − pα the bottom
of the α-string through β, which construction checks of every constant;
type B reaches it by doubling the entries of its middle row, so its form
has 1 in the middle and 2 elsewhere on the antidiagonal.

The realization is integer: root-vector entries, structure constants
``[E_α, E_β] = m_{α,β} E_{α+β}`` and Cartan eigenvalues are all ints.  The
constants are stored once, as the integer table ``real.constants`` over
``rs.all_roots`` indices (positives first), which the calculus, the
witness's type-C long-root slope and three lemma checks read: row
structure, containment (through the first-entry rule) and the type-D
block.  Construction brackets once each unordered root pair that can be
nonzero, writes both m_{α,β} and m_{β,α} = −m_{α,β} from that bracket (so
the table is antisymmetric by construction), and
re-verifies every defining relation and the Chevalley magnitude; a
realization that fails its own bracket table refuses to build, naming its
system.  The Cartan weights are read off the diagonal of each
[E_{α_i}, E_{−α_i}], which the constant scan has already found diagonal,
with no matrix product, and each must be the coroot of α_i: its
eigenvalues on the simple root vectors are a column of the Cartan matrix.
So the basis is checked for both the Chevalley magnitudes and the
coroots.  Type D is built in the root-vector signs for
which the constants of the paired stages are +1 (see ``_root_vectors``);
the type-D block check fails on other signs.
The adjoint exponential ``Ad(exp X) = Σ ad(X)^k / k!`` terminates because
ad(X) is nilpotent; ``_iad_exp`` divides each power by k as it forms it.
The lemma checks build no exponential and draw nothing: they read
constants and root tables, all integer, so ``verify-lemmata`` never loads
``fractions``.  Rationals (``fractions.Fraction``) enter only in the
witness: its exponential ``_iad_exp``, its solves (``find_witness``,
``linalg.solve_affine``) and the matrix exponentials that check it
(``linalg.sp_exp_nilpotent``, called by ``_verify_witness_matrix``); no
truncation or tolerance appears anywhere.  ``Fraction`` is imported inside
those functions, so that importing the module, which every CLI call does,
does not load it.

Row operators
-------------
For a nilpotent element ``N = Σ n_α E_α`` the row operator of row i is
``_ad_block`` on the stage table's row i: ad(N) restricted to the row and
projected back onto it, entry (α, β) being ``m_{α−β,β} n_{α−β}``.  In the
row's basis order it is strictly upper triangular with nonzero
superdiagonal for regular N (types A/B/C), the fact driving the dimension
count of the paving.

``verify_lemmata`` turns the structural facts into executable checks
(abelian/Heisenberg rows, the near-linearity case formulas, invariance of
the row operator under higher-row conjugation, the type-D coefficient
formulas, the first-nonzero-entry containment, and the normalized form of
the type-D 3×3 block, from which its determinant
``2·n_{α_i}n_{α_{n-1}}n_{α_n}`` follows), and no check samples.  The row
structure and the type-D block read their constants off the table: each
Heisenberg pairing constant, and the six constants pinned to +1 that are
all the block's nonzero entries read.  Near-linearity and the invariance
each claim that some power ad(X)^k(N) misses some roots; they decide it
on the root tables alone (``_powers``), for every X, N and table of
constants at once.  The type-D coefficient lemma claims the same kind of
thing, but it is a theorem of the root tables: every root that a power
k ≥ 2 reaches lies outside its hypothesis, so it is not evaluated (see
``_check_type_d_coefficients``).  Containment decides the first-entry
rule for every regular N at once on the constants and the difference
table (``_first_entry_faults``), then takes one AND per Weyl element; its
other clause, that each positive α − α_j lies in the inversion set, is a
theorem of b-stability and is not evaluated (see ``_check_containment``).

``find_witness`` solves, stage by stage and exactly over the rationals,
for a unipotent group element conjugating a regular nilpotent into the
translated Hessenberg space, confirming each nonempty cell with an actual
point and matching the per-stage solution-space dimensions against the
combinatorial row profile; each solved stage conjugates by one
exponential.  A type-C long-root coordinate is not linear in a stage's
variables, but it is affine along its pivot, with a slope read off one
constant, so it is set in closed form after one more exponential (see
``find_witness``).  Its stages and type-C long roots, like the rows of
the lemma checks, come from ``rootcore.stage_table``, which alone knows
the type-D pairing.

Every coefficient map is keyed by root index: ``root_vectors`` and
``matrix_of`` by ``rs.all_roots`` index (positives first), N, the calculus
(``_ibracket``, ``_iad_exp``, ``_ad_block``), the lemma checks and the
witness stages by positive-root index.  Roots appear only
in text: counterexamples, error messages and the CLI's witness output.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from operator import mul

from .errors import ConsistencyError, expect
from .hessenberg import (
    HessenbergSpace,
    _negative_texts,
    enumerate_hessenberg,
    format_negative_part,
    smallest_containing,
)
from .linalg import (
    Sparse,
    solve_affine,
    sp_commutator,
    sp_exp_nilpotent,
    sp_identity,
    sp_mul,
    sp_scale,
)
from .paving import _outside_mask, cell_nonempty, row_dimension_profile
from .rootcore import (
    Root,
    RootSystem,
    WeylElement,
    _Record,
    _span_root,
    check_budget,
    enumerate_weyl,
    format_word,
    stage_table,
)


class ChevalleyRealization:
    """A validated matrix realization of a classical Lie algebra.

    Attributes: ``rs``, ``dim_rep`` (n+1 / 2n+1 / 2n / 2n for A/B/C/D),
    ``root_vectors``, the sparse matrix with nonzero integer entries of
    every root, by ``rs.all_roots`` index (positives first, then their
    negatives in the same order), ``cartan_basis`` (the n diagonal brackets
    [E_{α_i}, E_{−α_i}]), and ``constants``, the structure constants
    m_{α,β} with [E_α, E_β] = m_{α,β} E_{α+β}: ``constants[a][b]`` is the
    int m for the roots of ``rs.all_roots`` indices a and b, 0 where α + β
    is not a root, and nonzero entries are antisymmetric in the arguments,
    with the magnitudes of a Chevalley basis (see ``_extract_constants``).
    A construction error names the system.
    """

    def __init__(self, rs: RootSystem, root_vectors: Sequence[Sparse]):
        expect(rs, RootSystem)
        expect(root_vectors, (tuple, list))
        self.rs = rs
        self.dim_rep = _dim_rep(rs)
        self.root_vectors = root_vectors
        try:
            self._validate_supports()
            self.constants = self._extract_constants()
            npos = rs.num_positive
            self.cartan_basis = tuple(
                sp_commutator(root_vectors[s], root_vectors[s + npos])
                for s in rs._simple_index
            )
            self._validate_weights()
        except ConsistencyError as exc:
            raise ConsistencyError(f"{rs.lie_type}{rs.rank}: {exc}") from None

    # -- construction checks ---------------------------------------------

    def _validate_supports(self) -> None:
        rs = self.rs
        if len(self.root_vectors) != len(rs.all_roots):
            raise ConsistencyError("realization must carry every root, by "
                                   "rs.all_roots index")
        owner: dict[tuple[int, int], Root] = {}
        for root, mat in zip(rs.all_roots, self.root_vectors):
            if not mat:
                raise ConsistencyError(f"zero root vector at {root}")
            for pos, v in mat.items():
                if pos[0] == pos[1]:
                    raise ConsistencyError("root vector with diagonal entry")
                if type(v) is not int or not v:
                    raise ConsistencyError(
                        f"entry {v!r} of E_{root} is not a nonzero integer")
                if pos in owner:
                    raise ConsistencyError(
                        f"matrix position {pos} shared by {owner[pos]} and {root}")
                owner[pos] = root
            if root.is_positive and any(r >= c for r, c in mat):
                raise ConsistencyError(
                    f"positive root vector {root} is not strictly upper triangular")

    def _extract_constants(self) -> tuple[tuple[int, ...], ...]:
        """Read each m_{α,β} off [E_α, E_β] in integers, forming the
        commutator only where α + β is a root or zero or the supports chain
        (a column of one matrix meets a row of the other): every other pair
        brackets to zero exactly.  Each unordered pair is bracketed once:
        [E_β, E_α] is exactly −[E_α, E_β], so every check holds for (β, α)
        when it holds for (α, β), and m_{β,α} = −m_{α,β} is written with
        m_{α,β}.  Each constant written must have the magnitude of a
        Chevalley basis, |m_{α,β}| = p + 1 for β − pα the bottom of the
        α-string through β, walked on ``rs._keys``; p is symmetric in α and
        β when α + β is a root, so one check serves both orders."""
        rs = self.rs
        roots = rs.all_roots
        keys = rs._keys
        vectors = self.root_vectors
        # a + b by its key, the sum of the keys of a and b; key 0 is a + b = 0
        by_key = {k: s for s, k in enumerate(keys)}
        rows_in = [sum({1 << r for r, _ in mat}) for mat in vectors]
        cols_in = [sum({1 << c for _, c in mat}) for mat in vectors]
        table = [[0] * len(roots) for _ in roots]
        for a, (ra, ka, ea) in enumerate(zip(roots, keys, vectors)):
            for b in range(a, len(roots)):
                rb, kb = roots[b], keys[b]
                s = by_key.get(ka + kb)
                if s is None and ka + kb and not (cols_in[a] & rows_in[b]
                                                  or cols_in[b] & rows_in[a]):
                    continue
                br = sp_commutator(ea, vectors[b])
                if s is not None:
                    target = vectors[s]
                    pos, val = next(iter(target.items()))
                    num = br.get(pos, 0)
                    if not num or num % val:
                        raise ConsistencyError(
                            f"bad structure constant for {ra} + {rb}")
                    m = num // val
                    if br != sp_scale(target, m):
                        raise ConsistencyError(f"[E_{ra}, E_{rb}] is not a "
                                               f"multiple of E_{roots[s]}")
                    length = 1      # p + 1: rb, rb − ra, …, rb − p·ra
                    while kb - length * ka in by_key:
                        length += 1
                    if abs(m) != length:
                        raise ConsistencyError(
                            f"|m| = {abs(m)} for {ra} + {rb}, not {length}, "
                            f"the length of the {ra}-string down from {rb}")
                    table[a][b], table[b][a] = m, -m
                elif ka + kb:
                    if br:
                        raise ConsistencyError(f"[E_{ra}, E_{rb}] nonzero but "
                                               f"{ra} + {rb} is not a root")
                elif any(r != c for (r, c) in br):
                    raise ConsistencyError(f"[E_{ra}, E_{rb}] is not diagonal")
        return tuple(map(tuple, table))

    def _validate_weights(self) -> None:
        """Each root vector is a weight vector of the weight its root
        gives, and each h_i = [E_{α_i}, E_{−α_i}] of ``cartan_basis`` is
        the coroot of α_i: its eigenvalues α_j(h_i) on the E_{α_j} are
        column i of ``rs.cartan_matrix``, from which the roots were
        generated.  Every h is diagonal, which ``_extract_constants``
        checks of each [E_α, E_−α] before this runs, so [h, E] scales entry
        (r, c) of E by h_rr − h_cc: E has weight λ for h iff each of its
        entries carries λ.  The eigenvalue on each E_{α_j} is read at its
        first entry, and a negative root's weight is its positive root's,
        negated."""
        rs = self.rs
        for i, h in enumerate(self.cartan_basis):
            d = {r: v for (r, _), v in h.items()}
            eig = []              # the eigenvalue on each E_{α_j}
            for s in rs._simple_index:
                r, c = next(iter(self.root_vectors[s]))
                eig.append(d.get(r, 0) - d.get(c, 0))
            weights = [sum(map(mul, root.coeffs, eig))
                       for root in rs.positive_roots]
            weights += [-lam for lam in weights]
            for root, er, lam in zip(rs.all_roots, self.root_vectors, weights):
                if any(d.get(r, 0) - d.get(c, 0) != lam for r, c in er):
                    raise ConsistencyError(
                        f"E_{root} is not a weight vector for the Cartan")
            if eig != [row[i] for row in rs.cartan_matrix]:
                a = rs._simple_index[i]
                raise ConsistencyError(
                    f"[E_{rs._texts[a]}, E_{rs._texts[a + rs.num_positive]}] "
                    f"is not the coroot: eigenvalues {eig}")

    # -- conversions -------------------------------------------------------

    def matrix_of(self, coeffs: Mapping[int, Fraction | int]) -> Sparse:
        """The matrix Σ n_α E_α of a coefficient map keyed by
        ``rs.all_roots`` index.  Root vectors hold pairwise distinct
        positions (``_validate_supports``), so no two terms share an entry
        and each is placed directly.  Raises ValueError, showing the value,
        for a map that ``find_witness`` would refuse as its N, over these
        indices."""
        _validate_coefficients(coeffs, len(self.rs.all_roots), "root")
        return {pos: v * x for k, v in coeffs.items() if v
                for pos, x in self.root_vectors[k].items()}

    def __repr__(self) -> str:
        return (f"ChevalleyRealization({self.rs.lie_type}{self.rs.rank}, "
                f"dim_rep={self.dim_rep})")


def _dim_rep(rs: RootSystem) -> int:
    n = rs.rank
    return {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[rs.lie_type]


# ---------------------------------------------------------------------------
# construction per type
# ---------------------------------------------------------------------------


def _root_vectors(rs: RootSystem) -> tuple[Sparse, ...]:
    """The defining-representation matrix of every root vector (0-based),
    by ``rs.all_roots`` index.

    Basis vector k has weight ε_{k+1} (in types B, C, D for k < n, with
    weight −ε_{k+1} on its mirror size−1−k and 0 on the middle one of B).
    E_α lives where wt(r) − wt(c) = α.  It holds s = ±1 at the first such
    position (r, c) by row, and in types B, C, D also its mirror
    (size−1−c, size−1−r), unless that is (r, c) (a long root of C), with the
    sign that preserves the form: −s in B and D, −σ(r)σ(c)s in C, σ being +1
    on the first n basis vectors and −1 after.  In type B each entry in the
    middle row (row n) is then doubled, so that B preserves the
    antidiagonal form with 1 in the middle and 2 elsewhere, and the basis
    is a Chevalley basis:
    every short + short = long bracket has |m| = 2, as the root-string rule
    |m_{α,β}| = p + 1 that ``_extract_constants`` checks asks.  With ±1
    entries only, those brackets have |m| = 1.

    s is +1 except in type D, where it is −1 on ±β for β = ε_1 − ε_2 when
    n ≥ 4 and for β = ε_j − ε_{n−1}, ε_j − ε_n and ε_j + ε_n with
    2 ≤ j ≤ n−2 (α_j + … + α_{n−2}, alone or plus α_{n−1} or α_n).  With
    these signs the constants the paired stages read are +1: for every row
    i, with c_i = α_i + … + α_{n−2} and wherever the sum is a root,
    m(c_i, α_{n−1}), m(c_i, α_n), m(α_i, c_{i+1} + α_{n−1}),
    m(α_i, c_{i+1} + α_n), m(c_{i+1} + α_{n−1}, α_n) and
    m(c_{i+1} + α_n, α_{n−1}).  So each 3×3 block has the normalized form
    that ``_check_type_d_block`` tests, and its determinant
    2·n_{α_i}n_{α_{n−1}}n_{α_n} follows from that form; a realization with
    other signs fails that check.
    """
    n, t = rs.rank, rs.lie_type
    size = _dim_rep(rs)
    # ε-vectors as additive keys, ε_{k+1} as 8**k: a weight minus a root has
    # entries in −3..3, which base 8 keeps apart
    wt = [8 ** k for k in range(size if t == "A" else n)]
    if t != "A":
        wt += [0] * (t == "B") + [-w for w in reversed(wt)]
    index = {w: k for k, w in enumerate(wt)}
    simple = [sum(e * 8 ** k for k, e in enumerate(v)) for v in rs._eps_simple]
    flip = set()                # keys of the type-D roots ±β negated
    if t == "D":
        flip = {wt[0] - wt[1]} if n >= 4 else set()
        for e in wt[1:n - 2]:
            flip |= {e - wt[n - 2], e - wt[n - 1], e + wt[n - 1]}
        flip |= {-k for k in flip}
    vectors = []
    for root in rs.all_roots:
        key = sum(c * e for c, e in zip(root.coeffs, simple))
        r, c = next((r, index[w - key]) for r, w in enumerate(wt)
                    if w - key in index)
        s = -1 if key in flip else 1
        mat = {(r, c): s}
        mirror = (size - 1 - c, size - 1 - r)
        if t != "A" and mirror != (r, c):
            mat[mirror] = -s if t != "C" or (r < n) == (c < n) else s
        vectors.append({(i, j): 2 * v if t == "B" and i == n else v
                        for (i, j), v in mat.items()})
    return tuple(vectors)


def build_chevalley(rs: RootSystem) -> ChevalleyRealization:
    """Build and fully validate the matrix realization for a root system."""
    expect(rs, RootSystem)
    return ChevalleyRealization(rs, _root_vectors(rs))


# ---------------------------------------------------------------------------
# coefficient-space adjoint calculus
# ---------------------------------------------------------------------------


def _ibracket(real: ChevalleyRealization, a: dict[int, Fraction | int],
              b: dict[int, Fraction | int]) -> dict[int, Fraction | int]:
    """[A, B] for coefficient maps supported on the positive roots.  For
    each root i of A it visits only the roots j with i + j a positive root,
    and it reads the constants off ``real.constants`` on each call."""
    m = real.constants
    pairs = real.rs._sum_pairs
    out: dict[int, Fraction | int] = {}
    for i, x in a.items():
        mi = m[i]
        for j, k in pairs[i]:
            y = b.get(j)
            if y:
                w = out.get(k, 0) + mi[j] * x * y
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
    return out


def _iad_exp(real: ChevalleyRealization, x: dict[int, Fraction | int],
             n: dict[int, Fraction | int]) -> dict[int, Fraction | int]:
    """Ad(exp X)(N) = Σ ad(X)^k(N)/k! in coefficient space; exact.  Each
    term ad(X)^k(N)/k! is the bracket of X with the one before, divided by
    k as it is formed; ad(X) is nilpotent, so the series ends."""
    from fractions import Fraction

    out = dict(n)
    term = n
    for k in range(1, 4 * real.rs.num_positive + 2):
        term = _ibracket(real, x, term)
        if not term:
            return out
        if k > 1:
            term = {i: Fraction(v, k) for i, v in term.items()}
        for i, v in term.items():
            w = out.get(i, 0) + v
            if w:
                out[i] = w
            elif i in out:
                del out[i]
    raise ConsistencyError(f"{real.rs.lie_type}{real.rs.rank}: adjoint "
                           "exponential series failed to terminate")


def _ad_block(real: ChevalleyRealization, coeffs: dict[int, Fraction | int],
              targets: Sequence[int], sources: Sequence[int]
              ) -> list[list[Fraction | int]]:
    """The block of ad(N) on positive roots from ``sources`` to
    ``targets`` (positive-root indices, N index-keyed): entry (α, β) is
    ``m_{α−β,β} n_{α−β}`` when α − β is a positive root and 0 otherwise."""
    diff = real.rs._pos_diff
    m = real.constants
    return [[0 if (d := line[b]) is None
             else m[d][b] * coeffs.get(d, 0)
             for b in sources]
            for line in (diff[a] for a in targets)]


# ---------------------------------------------------------------------------
# lemma verification
# ---------------------------------------------------------------------------


class CheckResult(_Record):
    __slots__ = ("name", "counterexample")
    name: str
    counterexample: dict | None      # None exactly when the check passes

    @property
    def status(self) -> str:
        return "pass" if self.counterexample is None else "fail"


class LemmataReport(_Record):
    __slots__ = ("checks",)
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.counterexample is None for c in self.checks)

    def to_record(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "status": c.status,
                 "counterexample": c.counterexample}
                for c in self.checks
            ],
        }


def _check_row_structure(real: ChevalleyRealization) -> dict | None:
    """Each row is abelian (no two of its roots sum to a root) or, with a
    type-C long root γ, Heisenberg on γ: every sum of two row roots is γ,
    some sum is, and each other row root a has its partner γ − a in the row
    with m_{a,γ−a} ≠ 0.  [E_a, E_b] reaches γ only for b the partner of a,
    so this is exactly ad X reaching γ for every nonzero X off γ."""
    rs = real.rs
    table = stage_table(rs)
    texts = rs._texts
    for i, row in enumerate(table.rows, start=1):
        gidx = table.long_roots[i - 1]
        heisenberg = gidx is not None
        # sums[a][b] is the index of a + b, for a in the row
        sums = {a: dict(rs._sum_pairs[a]) for a in row}
        for a in row:
            for b in row:
                s = sums[a].get(b)
                if not heisenberg and s is not None:
                    return {"row": i, "alpha": texts[a], "beta": texts[b],
                            "reason": "abelian row with a root sum"}
                if heisenberg and s not in (None, gidx):
                    return {"row": i, "alpha": texts[a], "beta": texts[b],
                            "reason": "Heisenberg bracket escapes the long root"}
        if heisenberg:
            if not any(sums[a].get(b) == gidx for a in row for b in row):
                return {"row": i, "reason": "derived algebra is zero"}
            for a in row:
                if a == gidx:
                    continue
                partner = rs._pos_diff[gidx][a]
                if partner not in row:
                    return {"row": i, "alpha": texts[a],
                            "reason": "no Heisenberg partner"}
                if not real.constants[a][partner]:
                    return {"row": i, "alpha": texts[a],
                            "reason": "ad X misses the long root"}
    return None


def _check_factorization_count(real: ChevalleyRealization) -> dict | None:
    """The rows of the stage table, and its stages on the variable side and
    on the constraint side, each partition the positive roots: each index
    exactly once.  Each stage's ``(vars, cons)`` masks must also be the bit
    sums of its index lists.  The witness stages read the lists, and the
    row profiles the masks."""
    rs = real.rs
    npos, texts = rs.num_positive, rs._texts
    table = stage_table(rs)
    for side, parts in zip(("rows", "variables", "constraints"),
                           (table.rows, *zip(*table.stages))):
        seen = [k for part in parts for k in part]
        if sorted(seen) == list(range(npos)):
            continue
        roots = {"missing": [texts[k] for k in range(npos) if k not in seen],
                 "repeated": [texts[k] for k in sorted(set(seen))
                              if seen.count(k) > 1]}
        if side == "rows":
            return {"sum_of_rows": len(seen), "positive_roots": npos, **roots}
        return {"stage_side": side, **roots}
    for stage, (parts, masks) in enumerate(zip(table.stages, table.masks)):
        for side, part, mask in zip(("variables", "constraints"), parts, masks):
            if mask != sum(1 << k for k in part):
                return {"stage": stage, "stage_side": side,
                        "reason": "mask differs from the stage's index list"}
    return None


def _powers(rs: RootSystem, row: Sequence[int]) -> list[int]:
    """The reach masks of ad(X)^k(N) for k = 1, 2, … while they are
    nonzero, for X on ``row`` and N on every positive root.  ``_ibracket``
    adds into root c only from a pair (a, b) of ``rs._sum_pairs`` with X at
    a and the argument at b, so the support of ad(X)^k(N) lies in mask k
    for every X on the row, every N and every table of constants.  Each
    step adds a positive root, so the list ends below the highest root."""
    pairs = [rs._sum_pairs[a] for a in row]
    out = []
    reach = (1 << rs.num_positive) - 1
    while reach := sum({1 << c for line in pairs for b, c in line
                        if reach >> b & 1}):
        out.append(reach)
    return out


def _check_near_linearity(real: ChevalleyRealization) -> dict | None:
    """For X on row j, with b_k = ad(X)^k(N): b3 = 0, so Ad(exp X)(N) − N
    is b1 + b2/2.  It must vanish on every row i > j, and on row j it must
    be b1 (b2 vanishes there) in types A, B, D; in type C, b2 on row j lies
    on the row's long root.  Rows i < j carry no claim.  Each claim is that
    a power misses some roots, so it is decided on the reach masks of
    ``_powers``, for every X, N and table of constants at once: there is no
    third mask, the second misses row j (but for type C's long root), and
    the first two miss every row after j.  The stage table's rows partition
    the positive roots (``factorization_count`` checks that)."""
    rs = real.rs
    table = stage_table(rs)
    masks = [sum(1 << k for k in row) for row in table.rows]
    type_c = rs.lie_type == "C"
    for j, row in enumerate(table.rows, start=1):
        powers = _powers(rs, row)
        if len(powers) > 2:
            return {"row": j, "reason": "cube of the adjoint action is nonzero"}
        b1, b2 = (*powers, 0, 0)[:2]
        quad = b2 & masks[j - 1]
        if type_c:
            gamma = table.long_roots[j - 1]
            if quad & ~(0 if gamma is None else 1 << gamma):
                return {"row": j,
                        "reason": "quadratic part escapes the long root"}
        elif quad:
            return {"source_row": j, "target_row": j,
                    "reason": "case formula mismatch"}
        for i in range(j + 1, len(masks) + 1):
            if (b1 | b2) & masks[i - 1]:
                return {"source_row": j, "target_row": i,
                        "reason": "case formula mismatch"}
    return None


def _check_psi_invariance(real: ChevalleyRealization) -> dict | None:
    """The row operator of row i, whose entry (α, β) is m_{d,β}·n_d for
    d = α − β a positive root (see ``_ad_block``), must not change when N
    is conjugated by X on a lower row: Ad(exp X)(N) − N, the sum of the
    powers ad(X)^k(N)/k! for k ≥ 1, must vanish at each such d.  It is
    decided on the reach masks of ``_powers``, for every X, N and table of
    constants at once: no power of a lower row reaches any d = α − β with
    α and β in row i, whether or not m_{d,β} is 0."""
    rs = real.rs
    rows = stage_table(rs).rows
    diff = rs._pos_diff
    powers = [_powers(rs, row) for row in rows]
    for i in range(2, len(rows) + 1):
        reads = sum({1 << d for a in rows[i - 1] for b in rows[i - 1]
                     if (d := diff[a][b]) is not None})
        for j in range(i - 1, 0, -1):
            if any(p & reads for p in powers[j - 1]):
                return {"row": i, "conjugating_row": j,
                        "reason": "row operator changed under "
                                  "lower-row conjugation"}
    return None


def _check_type_d_coefficients(real: ChevalleyRealization) -> dict | None:
    """The type-D coefficient lemma, which is a theorem of the root tables
    and is not evaluated: the check always passes, on every stage table
    and every realization, and it keeps its name and its place in the
    report.

    Conjugating N by X on row i+1 moves the coefficient of N at a row-i
    root α, where α is not ≥ 2α_{i+1} and no two roots β1, β2 of row i+1
    leave α − β1 − β2 a positive root, by the first-order term [X, N]_α
    alone: no power ad(X)^k(N) with k ≥ 2 reaches α.  Proof: ``_ibracket``
    adds into a root only from a pair of ``rs._sum_pairs`` with X at the
    first root (see ``_powers``), so a root that the power k ≥ 2 reaches is
    x_k + y with x_k in row i+1 and y reached by the power k − 1, and
    y = x_{k−1} + z with x_{k−1} in row i+1 and z a positive root.  So
    α − x_k − x_{k−1} = z is a positive root, and the pair (x_k, x_{k−1})
    puts α outside the hypothesis.  ``_sum_pairs`` and ``_pos_diff`` come
    from one table, so this holds for every partition of the positive
    roots into rows, whatever the constants.

    The second claim, that α's coefficient stays put when the coordinates
    of X at the roots strictly below α are 0: every term that reaches α
    comes from a pair (β, γ) of ``_sum_pairs`` with β + γ = α and X at β,
    so β lies strictly below α, and with those coordinates 0 no term
    reaches α.

    ``tests/test_liealg.py::ref_type_d_coefficient_reach`` keeps the
    evaluation this replaced and finds no root on the built tables of
    D3-D12, on random partitions of the positive roots, or on any table
    the tests inject."""
    return None


def _check_containment(real: ChevalleyRealization) -> dict | None:
    """Containment of first entries.

    For every regular N, every Hessenberg space and every w with a
    nonempty cell, each row root α outside wΦ_H (w⁻¹α ∉ Φ_H) must have a
    nonzero line in the row operator of N, with its first nonzero entry at
    a β for which α − β is simple, and every positive α − α_j must lie in
    the inversion set Φ_w.

    The second clause is a theorem, by b-stability, so it is not
    evaluated.  Take α with w⁻¹α ∉ Φ_H and α − α_j a positive root outside
    Φ_w, so that w⁻¹(α − α_j) is positive.  The cell is nonempty, so
    w⁻¹α_j ∈ Φ_H, and Φ_H is closed under adding a positive root:
    w⁻¹α = w⁻¹α_j + w⁻¹(α − α_j) lies in Φ_H, which contradicts the
    choice of α.  Nor is a simple root ever outside wΦ_H, since
    w⁻¹α_j ∈ Φ_H is the nonemptiness condition itself.  It reads no
    structure constant, so no realization can break it;
    ``tests/test_liealg.py::test_containment_theorem_on_every_smallest_space``
    checks it over every w of the 20 systems of rank ≤ 6.

    So a root α outside wΦ_H fails iff it is in ``_first_entry_faults``
    (decided for every regular N at once), and w fails in a space iff the
    space's ``_outside_mask`` meets the faulted roots: one AND.  The cell
    of w is nonempty in exactly the spaces whose ``hm`` contains ``w.sm``.
    Negative parts of Hessenberg spaces are order ideals, closed under
    intersection, so among these spaces there is a smallest,
    ``smallest_containing(rs, w.sm)``, and every other one contains it and
    leaves fewer roots outside wΦ_H.  Hence some space fails for w iff the
    smallest one does, and the AND is taken once per w, in that space,
    which is checked to be an enumerated space holding ``w.sm``.  Spaces
    come by the size of their negative part, so a w that fails in a space
    fails in one enumerated no later: the first failing (space, w) pair is
    the first w, in enumeration order, of the earliest smallest space in
    which some w fails.  The walk keeps it, skipping each w whose smallest
    space comes no earlier, and its first failing root in row order names
    the row, the root and the reason; a zero-line counterexample also
    names the space, by its negative part.
    """
    rs = real.rs
    fault = _first_entry_faults(real)
    faulted = sum(1 << k for k in fault)
    order = [(i, k) for i, row in enumerate(stage_table(rs).rows, start=1)
             for k in row]
    spaces = enumerate_hessenberg(rs)
    position = {space.hm: k for k, space in enumerate(spaces)}
    first = None      # (position of the space, w, row, root) failing first
    for w in enumerate_weyl(rs):
        least = smallest_containing(rs, w.sm)
        if least not in position or w.sm & least != w.sm:
            raise ConsistencyError(
                f"{rs.lie_type}{rs.rank} word {list(w.word)}: the smallest "
                "space with a nonempty cell is not an enumerated space "
                "holding it")
        if first is not None and position[least] >= first[0]:
            continue
        failed = _outside_mask(w, least) & faulted
        if failed:
            first = (position[least], w,
                     *next((i, k) for i, k in order if failed >> k & 1))
    if first is None:
        return None
    at, w, row, k = first
    head = ({"hessenberg": sorted(_negative_texts(spaces[at]))}
            if fault[k].startswith("zero row") else {})
    return {**head, "word": list(w.word), "row": row, "alpha": rs._texts[k],
            "reason": fault[k]}


def _first_entry_faults(real: ChevalleyRealization) -> dict[int, str]:
    """The first-entry rule for every regular N at once, written only here:
    the row roots α whose line in the row operator of some regular N is
    zero or has its first nonzero entry at a β with α − β not simple, each
    mapped by index to the reason its counterexample gives.

    Entry (α, β) of the row operator (``_ad_block`` on α's row) is
    m_{d,β}·n_d for d = α − β a positive root.  Its reach, the d with
    m_{d,β} ≠ 0 in the row's basis order, holds every entry that can be
    nonzero.  With no simple d in it, the line of the sum of the simple
    vectors is zero; with one, no regular N has a zero line, and some
    regular N (n_d ≠ 0 at the first d) starts off a simple difference
    exactly when the first d is not simple."""
    rs = real.rs
    diff = rs._pos_diff
    m = real.constants
    simple = frozenset(rs._simple_index)
    out = {}
    for row in stage_table(rs).rows:
        for k in row:
            reach = [d for b in row
                     if (d := diff[k][b]) is not None and m[d][b]]
            if simple.isdisjoint(reach):
                out[k] = "zero row for an excluded root"
            elif reach[0] not in simple:
                out[k] = "first entry not at a simple difference"
    return out


def _check_type_d_block(real: ChevalleyRealization) -> dict | None:
    """In type D, each structure constant that ``_root_vectors`` pins to
    +1 is +1.  Then for every N the 3×3 middle block of −ad(N) on each
    stage i ≤ n−3 (rows c_{i+1} + α_{n−1} + α_n, c_i + α_{n−1}, c_i + α_n;
    columns c_{i+1} + α_{n−1}, c_{i+1} + α_n, c_i, with c_i = α_i + … +
    α_{n−2}) has the normalized form [[n_{α_n}, n_{α_{n−1}}, 0],
    [−n_{α_i}, 0, n_{α_{n−1}}], [0, −n_{α_i}, n_{α_n}]], whose determinant
    is 2·n_{α_i}n_{α_{n−1}}n_{α_n}.  So no N is sampled: entry (r, c) is
    −m_{d,c}·n_d with d = r − c, which is α_n, α_{n−1} or α_i at the six
    nonzero places and not a root at the three zero ones, so the block
    reads exactly the six pinned constants, each in the opposite order,
    and ``real.constants`` is antisymmetric (``_extract_constants``)."""
    rs = real.rs
    if rs.lie_type != "D":
        return None
    n = rs.rank
    simple = rs._simple_index
    m = real.constants
    # the pinned constants, on every row i <= n-2 and wherever the sum is a
    # root: the 3x3 blocks (i <= n-3) read them, and the last pairing and
    # D3's m(α_1, α_2) have no block
    fork_a, fork_b = simple[n - 2], simple[n - 1]
    texts = rs._texts
    for i in range(1, n - 1):
        chain = _span_root(rs, (i, n - 2))               # c_i
        next_a = _span_root(rs, (i + 1, n - 1))          # c_{i+1} + α_{n-1}
        next_b = _span_root(rs, (i + 1, n - 2), (n, n))  # c_{i+1} + α_n
        alpha_i = simple[i - 1]
        for a, b in ((chain, fork_a), (chain, fork_b), (alpha_i, next_a),
                     (alpha_i, next_b), (next_a, fork_b), (next_b, fork_a)):
            if m[a][b] != 1 and b in dict(rs._sum_pairs[a]):
                return {"row": i, "alpha": texts[a], "beta": texts[b],
                        "constant": str(m[a][b]),
                        "reason": "pinned structure constant is not +1"}
    return None


def verify_lemmata(real: ChevalleyRealization) -> LemmataReport:
    """Run the structural checks (row structure, factorization count,
    near-linearity, row-operator invariance, type-D coefficient formulas,
    containment of first entries, type-D block).  No check samples: each
    reads the stage table, the root tables and the constants, and decides
    its claim for every N at once.  The type-D coefficient formulas are a
    theorem of the root tables, proved in ``_check_type_d_coefficients``,
    so that check reads nothing and always passes.

    The containment check covers every regular N, space and w, but it
    takes one AND per Weyl element, of the roots outside wΦ_H in the
    smallest space in which its cell is nonempty and the first-entry
    faults.  Its inversion-set clause follows from b-stability, so it
    reads no inversion set (see ``_check_containment``).

    The realization is checked as given.  The type-D block check is stated
    for the signs ``build_chevalley`` gives (see ``_root_vectors``), so a
    type-D realization with other signs fails ``type_d_block``.  A Weyl
    group over the enumeration budget is refused before any check runs.
    """
    expect(real, ChevalleyRealization)
    check_budget("weyl", real.rs.lie_type, real.rs.rank)
    named = (
        ("row_structure", _check_row_structure),
        ("factorization_count", _check_factorization_count),
        ("near_linearity", _check_near_linearity),
        ("psi_invariance", _check_psi_invariance),
        ("type_d_coefficients", _check_type_d_coefficients),
        ("containment_first_entry", _check_containment),
        ("type_d_block", _check_type_d_block),
    )
    return LemmataReport(tuple(CheckResult(name, run(real))
                               for name, run in named))


# ---------------------------------------------------------------------------
# constructive witnesses
# ---------------------------------------------------------------------------


class WitnessResult(_Record):
    """Stage-by-stage solution of the unipotent conjugation problem.

    ``stage_solutions[k]`` is the coefficient map X_k solved at stage k,
    keyed by positive-root index (rows ascending; in type D stage k pairs
    the plain part of row k with the fork parts of row k+1, and k starts at
    0); the unipotent element is ``exp(X_0) exp(X_1) ...``.
    ``stage_kernel_dims`` records the dimension of each stage's affine
    solution space; these match the row dimension profile of the cell.
    """

    __slots__ = ("stage_solutions", "stage_kernel_dims", "verified")
    stage_solutions: tuple[dict[int, Fraction], ...]
    stage_kernel_dims: tuple[int, ...]
    verified: bool


def _witness_context(space: HessenbergSpace, w: WeylElement,
                     stage: int | None = None) -> str:
    """The system, space and word of a witness failure, and its stage when
    one stage is at fault, in the terms of the ``witness`` command that
    reproduces it."""
    rs = space.rs
    at = "" if stage is None else f", stage {stage}"
    return (f"system {rs.lie_type}{rs.rank}, space "
            f"neg={format_negative_part(space)}, word '{format_word(w)}'{at}")


def find_witness(real: ChevalleyRealization, w: WeylElement,
                 space: HessenbergSpace,
                 n: Mapping[int, int | Fraction] | None = None
                 ) -> WitnessResult:
    """Solve for a unipotent element u with Ad(u)(N) inside Ad(w)(H).

    N is a map from positive-root index to an int or Fraction coefficient,
    by default 1 on every simple root; the stage solutions are keyed the
    same way.

    Works stage by stage from the deepest row outward; each stage is an
    exact affine solve over the rationals, with free parameters pinned to
    zero, and its solution X moves the current element M to Ad(exp X)(M),
    one exponential per stage.

    In type C a stage's constraints may hold its row's long root γ, the
    derived algebra of the row's Heisenberg algebra, whose coordinate is
    not affine in the stage's variables.  The stage then solves without γ
    and without its pivot p = γ − α_k, giving X₀, and sets the pivot in
    closed form: along X₀ + tE_p the coordinate of γ in Ad(exp X)(M) is
    c₀ + t·m_{p,α_k}·M_{α_k}, with c₀ its value at t = 0, so one more
    exponential gives t.  A term ad(X)^j(M)/j! brackets j roots of X onto
    one root of M.  With p twice among them it has height at least
    2·ht(p) + 1 > ht(γ); with p and a root of X₀, reaching γ would write
    the simple root α_k = γ − p as a sum of two or more positive roots.  So
    only ad(tE_p)(M) moves the coordinate with t.  This holds for every γ
    with γ − α_k positive, for X₀ and M on any positive roots and for any
    table of constants.  The slope is nonzero for a built realization and a
    regular N, since |m_{p,α_k}| ≥ 1 and no stage adds into a simple root;
    a zero slope or a stage table without the pivot is a ConsistencyError.

    A type-D stage solves on the plain part of row k and the fork parts of
    row k+1 at once, and needs no order between the two: a term that
    depends on splitting X into factors comes from bracketing those parts,
    which lands in the fork parts of row k, and no term of degree 2 or
    more in X reaches a constraint of stage k.  So each stage is the same
    affine system whatever the order, with the same kernel dimension and
    feasibility; only the point reached could differ.

    The result is verified by direct matrix computation, and the stage
    kernel dimensions are checked against the row dimension profile.
    Raises ValueError for a realization, Weyl element or space of the
    wrong type (before any attribute is read) or from different root
    systems, for an empty cell, for an N that is not a Mapping or has a
    key that is not a positive-root index or a coefficient that is not an
    int or Fraction, and for a non-regular N (a zero simple-root
    coefficient);
    ConsistencyError if any stage is infeasible or the final membership
    check fails (both would contradict the paving).
    """
    from fractions import Fraction

    expect(real, ChevalleyRealization)
    expect(w, WeylElement)
    expect(space, HessenbergSpace)
    rs = real.rs
    if w.rs != rs or space.rs != rs:
        raise ValueError("Weyl element, space, and realization must share "
                         "one root system")
    n = dict.fromkeys(rs._simple_index, 1) if n is None else n
    _validate_coefficients(n, rs.num_positive, "positive-root")
    if not all(n.get(a) for a in rs._simple_index):
        raise ValueError("witness search requires a regular nilpotent")
    if not cell_nonempty(w, space):
        raise ValueError("cell is empty; no witness exists")

    phi_w, outside = w.inversion_mask(), _outside_mask(w, space.hm)
    table = stage_table(rs)
    stages = table.stages
    current = {k: v for k, v in n.items() if v}
    solutions: list[dict[int, Fraction]] = [{} for _ in stages]
    kernels: list[int] = [0] * len(stages)

    for k in range(len(stages) - 1, -1, -1):
        stage_vars, stage_cons = stages[k]
        vars_ = [p for p in stage_vars if phi_w >> p & 1]
        cons = [p for p in stage_cons if outside >> p & 1]   # not in wΦ_H
        gamma = table.long_roots[k]
        quad = gamma in cons

        if quad:
            alpha = rs._simple_index[k]
            pivot = rs._pos_diff[gamma][alpha]
            if pivot not in vars_:
                raise ConsistencyError(
                    "long-root constraint without its adjusting coordinate "
                    f"({_witness_context(space, w, k)})")
            solve_vars = [v for v in vars_ if v != pivot]
            solve_cons = [c for c in cons if c != gamma]
        else:
            solve_vars, solve_cons = vars_, cons

        if not solve_cons:
            coeffs, kernel = {}, len(solve_vars)
        else:
            # coeff_α(Ad exp X (M)) = 0 for each constraint α; the linear
            # part of Ad(exp X)(M) is M − ad(M)X, so ad(M)·x = M there
            solved = solve_affine(
                _ad_block(real, current, solve_cons, solve_vars),
                [current.get(alpha, 0) for alpha in solve_cons])
            if solved is None:
                raise ConsistencyError(
                    f"stage infeasible ({_witness_context(space, w, k)})")
            x, kernel = solved
            coeffs = {p: v for p, v in zip(solve_vars, x) if v}

        if quad:
            # γ's coordinate is c0 + t·m_{p,α}·M_α along X + tE_p (docstring)
            slope = real.constants[pivot][alpha] * current.get(alpha, 0)
            if slope == 0:
                raise ConsistencyError(
                    "degenerate long-root adjustment "
                    f"({_witness_context(space, w, k)})")
            c0 = _iad_exp(real, coeffs, current).get(gamma, 0)
            tval = Fraction(-c0) / slope
            if tval:
                coeffs[pivot] = tval

        solutions[k] = coeffs
        kernels[k] = kernel
        current = _iad_exp(real, coeffs, current)

        for alpha in cons:
            if current.get(alpha, 0) != 0:
                raise ConsistencyError(
                    "stage left its constraints unsatisfied "
                    f"({_witness_context(space, w, k)})")

    profile = row_dimension_profile(w, space)
    if tuple(kernels) != profile:
        k = next((k for k, (a, b) in enumerate(zip(kernels, profile))
                  if a != b), min(len(kernels), len(profile)))
        raise ConsistencyError(
            f"stage kernel dimensions {tuple(kernels)} differ from the row "
            f"profile {profile} ({_witness_context(space, w, k)})")

    _verify_witness_matrix(real, w, space, n, solutions, current)
    return WitnessResult(tuple(solutions), tuple(kernels), True)


def _validate_coefficients(n: Mapping, size: int, keys: str) -> None:
    """Refuse with ValueError, showing the value, an N that is not a
    Mapping from the ``keys`` indices 0..size−1 to ints and Fractions:
    ``find_witness`` reads N over the positive roots, ``matrix_of`` over
    ``rs.all_roots``."""
    from fractions import Fraction

    if not isinstance(n, Mapping):
        raise ValueError(f"N must be a mapping from {keys} index to "
                         f"coefficient, got {n!r}")
    for k, v in n.items():
        if type(k) is not int or not 0 <= k < size:
            raise ValueError(f"N must be keyed by {keys} indices "
                             f"0..{size - 1}, got {k!r}")
        if type(v) not in (int, Fraction):
            raise ValueError(f"coefficient {v!r} of N at {k} is not an int "
                             "or a Fraction")


def _verify_witness_matrix(real: ChevalleyRealization, w: WeylElement,
                           space: HessenbergSpace,
                           n: Mapping[int, Fraction | int],
                           solutions: list[dict[int, Fraction]],
                           final: dict[int, Fraction | int]) -> None:
    """Direct matrix check: u·N·u⁻¹ must equal the matrix F of the
    coefficient-space result, each nonzero root of which must lie in wΦ_H.
    u is unipotent, so invertible, and u·N = F·u is compared instead.  Root
    vectors are nonzero, off the diagonal and on pairwise distinct
    positions (``_validate_supports``), so ``matrix_of`` is injective with
    a zero diagonal: equal matrices mean equal coefficients."""
    size = real.dim_rep
    u = sp_identity(size)
    for sol in filter(None, solutions):
        u = sp_mul(u, sp_exp_nilpotent(real.matrix_of(sol), size))
    if sp_mul(u, real.matrix_of(n)) != sp_mul(real.matrix_of(final), u):
        raise ConsistencyError(
            "matrix conjugation disagrees with the coefficient-space "
            f"computation ({_witness_context(space, w)})")

    outside = _outside_mask(w, space.hm)
    for k, v in sorted(final.items()):
        if v and outside >> k & 1:
            raise ConsistencyError(
                f"witness lands outside the translated Hessenberg space "
                f"at {real.rs._texts[k]} "
                f"({_witness_context(space, w)})")
