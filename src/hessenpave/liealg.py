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
triangular and has at most two nonzero entries.

The realization is integer: root-vector entries, structure constants
``[E_α, E_β] = m_{α,β} E_{α+β}`` and Cartan eigenvalues are all ints.  The
constants are stored once, as the integer table ``real.constants`` over
``rs.all_roots`` indices (positives first), which the calculus and the
lemma checks read.  Construction brackets only the root pairs that can be
nonzero and re-verifies every defining relation; a realization that fails
its own bracket table refuses to build, naming its system.  Type D is
built in the root-vector signs for which the constants of the paired stages
are +1 (see ``_root_vectors``); the type-D block check fails on other signs.
The adjoint exponential ``Ad(exp X) = Σ ad(X)^k / k!`` terminates because
ad(X) is nilpotent; ``_iad_series`` adds up K!·Ad(exp X)(N) with integer
weights, K the last nonzero power, and the lemma checks compare those
integers, so they run in integers throughout and ``verify-lemmata`` never
loads ``fractions``.  Rationals (``fractions.Fraction``) enter only in
the witness: its exponential ``_iad_exp`` (the series divided by K!), its
solves (``find_witness``, ``linalg.solve_affine``) and the matrix
exponentials that check it (``linalg.sp_exp_nilpotent``, called by
``_verify_witness_matrix``); no truncation or tolerance appears anywhere.
``Fraction`` is imported inside those functions and ``random`` inside
``_rng``, which seeds every lemma trial, so that importing the module,
which every CLI call does, loads neither.

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
``2·n_{α_i}n_{α_{n-1}}n_{α_n}`` follows).

``find_witness`` solves, stage by stage and exactly over the rationals,
for a unipotent group element conjugating a regular nilpotent into the
translated Hessenberg space, confirming each nonempty cell with an actual
point and matching the per-stage solution-space dimensions against the
combinatorial row profile; each solved stage conjugates by one
exponential.  Its stages and type-C long roots, like the rows of the lemma
checks, come from ``rootcore.stage_table``, which alone knows the type-D
pairing.

Every coefficient map is keyed by root index: ``root_vectors`` and
``matrix_of`` by ``rs.all_roots`` index (positives first), N, the calculus
(``_ibracket``, ``_iad_series``, ``_iad_exp``, ``_ad_block``), the lemma
checks and the witness stages by positive-root index.  Roots appear only
in text: counterexamples, error messages and the CLI's witness output.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .errors import ConsistencyError
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
    sp_add,
    sp_commutator,
    sp_equal,
    sp_exp_nilpotent,
    sp_identity,
    sp_is_strictly_upper,
    sp_mul,
    sp_scale,
)
from .paving import cell_nonempty, row_dimension_profile
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

DEFAULT_SEED = 2026


class ChevalleyRealization:
    """A validated matrix realization of a classical Lie algebra.

    Attributes: ``rs``, ``dim_rep`` (n+1 / 2n+1 / 2n / 2n for A/B/C/D),
    ``root_vectors``, the sparse matrix with nonzero integer entries of
    every root, by ``rs.all_roots`` index (positives first, then their
    negatives in the same order), ``cartan_basis`` (the n diagonal brackets
    [E_{α_i}, E_{−α_i}]), and ``constants``, the structure constants
    m_{α,β} with [E_α, E_β] = m_{α,β} E_{α+β}: ``constants[a][b]`` is the
    int m for the roots of ``rs.all_roots`` indices a and b, 0 where α + β
    is not a root, and nonzero entries are antisymmetric in the arguments.
    A construction error names the system.
    """

    def __init__(self, rs: RootSystem, root_vectors: Sequence[Sparse]):
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
        if (not isinstance(self.root_vectors, Sequence)
                or len(self.root_vectors) != len(rs.all_roots)):
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
            if root.is_positive and not sp_is_strictly_upper(mat):
                raise ConsistencyError(
                    f"positive root vector {root} is not strictly upper triangular")

    def _extract_constants(self) -> tuple[tuple[int, ...], ...]:
        """Read each m_{α,β} off [E_α, E_β] in integers, forming the
        commutator only where α + β is a root or zero or the supports chain
        (a column of one matrix meets a row of the other): every other pair
        brackets to zero exactly."""
        rs = self.rs
        roots = rs.all_roots
        keys = rs._keys
        vectors = self.root_vectors
        # a + b by its key, the sum of the keys of a and b; key 0 is a + b = 0
        by_key = {k: s for s, k in enumerate(keys)}
        rows_in = [sum({1 << r for r, _ in mat}) for mat in vectors]
        cols_in = [sum({1 << c for _, c in mat}) for mat in vectors]
        table = [[0] * len(roots) for _ in roots]
        sums = []
        for a, (ra, ka, ea) in enumerate(zip(roots, keys, vectors)):
            for b, (rb, kb) in enumerate(zip(roots, keys)):
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
                    if not sp_equal(br, sp_scale(target, num // val)):
                        raise ConsistencyError(f"[E_{ra}, E_{rb}] is not a "
                                               f"multiple of E_{roots[s]}")
                    table[a][b] = num // val
                    sums.append((a, b))
                elif ka + kb:
                    if br:
                        raise ConsistencyError(f"[E_{ra}, E_{rb}] nonzero but "
                                               f"{ra} + {rb} is not a root")
                elif any(r != c for (r, c) in br):
                    raise ConsistencyError(f"[E_{ra}, E_{rb}] is not diagonal")
        for a, b in sums:
            if table[b][a] != -table[a][b]:
                raise ConsistencyError("structure constants not antisymmetric")
        return tuple(map(tuple, table))

    def _validate_weights(self) -> None:
        rs = self.rs
        for h in self.cartan_basis:
            eig = []              # the integer eigenvalue on each E_{α_j}
            for a, s in zip(rs.simple_roots, rs._simple_index):
                ea = self.root_vectors[s]
                pos, val = next(iter(ea.items()))
                num = sp_commutator(h, ea).get(pos, 0)
                if num % val:
                    raise ConsistencyError(f"Cartan eigenvalue {num}/{val} "
                                           f"on E_{a} is not an integer")
                eig.append(num // val)
            for root, er in zip(rs.all_roots, self.root_vectors):
                lam = sum(c * e for c, e in zip(root.coeffs, eig))
                if not sp_equal(sp_commutator(h, er), sp_scale(er, lam)):
                    raise ConsistencyError(
                        f"E_{root} is not a weight vector for the Cartan")

    # -- conversions -------------------------------------------------------

    def matrix_of(self, coeffs: Mapping[int, Fraction | int]) -> Sparse:
        """The matrix Σ n_α E_α of a coefficient map keyed by
        ``rs.all_roots`` index."""
        out: Sparse = {}
        for k, v in coeffs.items():
            if v:
                out = sp_add(out, sp_scale(self.root_vectors[k], v))
        return out

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
    on the first n basis vectors and −1 after.

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
        vectors.append(mat)
    return tuple(vectors)


def build_chevalley(rs: RootSystem) -> ChevalleyRealization:
    """Build and fully validate the matrix realization for a root system."""
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


def _iad_series(real: ChevalleyRealization, x: dict[int, Fraction | int],
                n: dict[int, Fraction | int]
                ) -> tuple[int, dict[int, Fraction | int]]:
    """``(K!, K!·Ad(exp X)(N))``, K the highest power with ad(X)^K(N)
    nonzero: the powers ad(X)^k(N) added up Horner-wise, as
    k!·Σ_{i≤k} ad(X)^i(N)/i! = k·((k−1)!·Σ_{i<k} …) + ad(X)^k(N).  Integer
    X and N give integers, which the lemma checks compare as they are;
    ad(X) is nilpotent, so the series ends."""
    out = dict(n)
    term = n
    scale = 1
    for k in range(1, 4 * real.rs.num_positive + 2):
        term = _ibracket(real, x, term)
        if not term:
            return scale, out
        if k > 1:
            scale *= k
            out = {i: k * v for i, v in out.items()}
        for i, v in term.items():
            w = out.get(i, 0) + v
            if w:
                out[i] = w
            elif i in out:
                del out[i]
    raise ConsistencyError("adjoint exponential series failed to terminate")


def _iad_exp(real: ChevalleyRealization, x: dict[int, Fraction | int],
             n: dict[int, Fraction | int]) -> dict[int, Fraction | int]:
    """Ad(exp X)(N) = Σ ad(X)^k(N)/k! in coefficient space; exact."""
    scale, out = _iad_series(real, x, n)
    if scale == 1:
        return out
    from fractions import Fraction

    return {i: Fraction(v, scale) for i, v in out.items()}


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
    __slots__ = ("name", "status", "counterexample")
    name: str
    status: str                      # "pass" | "fail"
    counterexample: dict | None


class LemmataReport(_Record):
    __slots__ = ("checks", "seed", "trials")
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
    import random

    return random.Random(f"hessenpave:{seed}:{tag}")


def _random_coeffs(rs: RootSystem, rng: random.Random,
                   regular: bool) -> dict[int, int]:
    """Seeded coefficients on the positive roots, index-keyed, drawn in
    index order; with ``regular`` every simple root's is nonzero."""
    simples = set(rs._simple_index) if regular else ()
    out = {}
    for k in range(rs.num_positive):
        if k in simples:
            v = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        else:
            v = rng.randint(-5, 5)
        if v:
            out[k] = v
    return out


def _random_row_element(rs: RootSystem, rng: random.Random, j: int
                        ) -> dict[int, int]:
    """Seeded coefficients on row j, index-keyed, drawn in row basis order."""
    return {k: v for k in stage_table(rs).rows[j - 1]
            if (v := rng.randint(-5, 5))}


def _check_row_structure(real: ChevalleyRealization, trials: int,
                         seed: int) -> dict | None:
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
                if a != gidx and rs._pos_diff[gidx][a] not in row:
                    return {"row": i, "alpha": texts[a],
                            "reason": "no Heisenberg partner"}
            non_central = [a for a in row if a != gidx]
            for t in range(min(trials, 25)):
                rng = _rng(seed, f"heis:{i}:{t}")
                x = {a: v for a in non_central if (v := rng.randint(-5, 5))}
                if not x:
                    x[non_central[0]] = 1
                if not any(_ibracket(real, x, {b: 1}).get(gidx, 0)
                           for b in row):
                    return {"row": i, "trial": t,
                            "reason": "ad X misses the long root"}
    return None


def _check_factorization_count(real: ChevalleyRealization) -> dict | None:
    """The rows of the stage table, and its stages on the variable side and
    on the constraint side, each partition the positive roots: each index
    exactly once.  The witness stages and the row profiles read them."""
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
    return None


def _check_near_linearity(real: ChevalleyRealization, trials: int,
                          seed: int) -> dict | None:
    """For X on row j, with b_k = ad(X)^k(N): b3 = 0, so Ad(exp X)(N) − N
    is b1 + b2/2, read off the brackets themselves.  It must vanish on
    every row i > j (2b1 + b2 does), and on row j it must be b1 (b2
    vanishes there) in types A, B, D; in type C, b2 on row j lies on the
    row's long root.  Rows i < j carry no claim.  The stage table's rows
    partition the positive roots (``factorization_count`` checks that)."""
    rs = real.rs
    table = stage_table(rs)
    row_of = {k: i for i, row in enumerate(table.rows, start=1) for k in row}
    type_c = rs.lie_type == "C"
    for t in range(trials):
        rng = _rng(seed, f"nl:{t}")
        ni = _random_coeffs(rs, rng, regular=False)
        for j, row in enumerate(table.rows, start=1):
            if not row:
                continue
            xi = _random_row_element(rs, rng, j)
            b1 = _ibracket(real, xi, ni)
            b2 = _ibracket(real, xi, b1)
            if _ibracket(real, xi, b2):
                return {"trial": t, "row": j,
                        "reason": "cube of the adjoint action is nonzero"}
            quad = {k for k in b2 if row_of.get(k) == j}
            if type_c:
                if quad - {table.long_roots[j - 1]}:
                    return {"trial": t, "row": j,
                            "reason": "quadratic part escapes the long root"}
            elif quad:
                return {"trial": t, "source_row": j, "target_row": j,
                        "reason": "case formula mismatch"}
            moved = [i for k in b1.keys() | b2.keys()
                     if (i := row_of.get(k, 0)) > j
                     and 2 * b1.get(k, 0) + b2.get(k, 0)]
            if moved:
                return {"trial": t, "source_row": j, "target_row": min(moved),
                        "reason": "case formula mismatch"}
    return None


def _check_psi_invariance(real: ChevalleyRealization, trials: int,
                          seed: int) -> dict | None:
    """The row operator of row i, whose entry (α, β) is m_{d,β}·n_d for
    d = α − β a positive root (see ``_ad_block``), must not change when N
    is conjugated by X on a lower row.  With M = K!·Ad(exp X)(N) from
    ``_iad_series``, the entries agree after scaling by K! exactly when
    every m_{d,β}·(M_d − K!·n_d) vanishes, which is what is tested."""
    rs = real.rs
    table = stage_table(rs).rows
    diff = rs._pos_diff
    m = real.constants
    # the (d, m_{d,β}) of each row's entries with d = α − β a positive root
    entries = [[(d, m[d][b]) for a in row for b in row
                if (d := diff[a][b]) is not None] for row in table]
    for t in range(trials):
        rng = _rng(seed, f"psi:{t}")
        ni = _random_coeffs(rs, rng, regular=False)
        for i in range(2, rs.rank + 1):
            if not table[i - 1]:
                continue
            for j in range(1, i):
                if not table[i - j - 1]:
                    continue
                scale, moved = _iad_series(
                    real, _random_row_element(rs, rng, i - j), ni)
                if any(c * (moved.get(d, 0) - scale * ni.get(d, 0))
                       for d, c in entries[i - 1]):
                    return {"trial": t, "row": i, "conjugating_row": i - j,
                            "reason": "row operator changed under "
                                      "lower-row conjugation"}
    return None


def _check_type_d_coefficients(real: ChevalleyRealization, trials: int,
                               seed: int) -> dict | None:
    rs = real.rs
    if rs.lie_type != "D":
        return None
    table = stage_table(rs).rows
    pos = rs.positive_roots
    diff = rs._pos_diff
    m = real.constants
    for t in range(trials):
        rng = _rng(seed, f"dcoef:{t}")
        ni = _random_coeffs(rs, rng, regular=False)
        for i in range(1, rs.rank):
            conjugating = table[i]
            if not conjugating:
                continue
            xi = _random_row_element(rs, rng, i + 1)
            scale, total = _iad_series(real, xi, ni)    # K! times Ad(exp X)N
            double = tuple(2 * c for c in rs.simple_roots[i].coeffs)
            for a in table[i - 1]:
                alpha = pos[a]
                if all(c >= d for c, d in zip(alpha.coeffs, double)):
                    continue          # hypothesis excludes α ≥ 2α_{i+1}
                line = diff[a]
                # the affine conclusion needs α − β1 − β2 to never be a
                # positive root; away from the fork row that is the same
                # condition, but the fork pair sums low in the dominance
                # order and must be excluded directly.  The row is abelian,
                # so when α − β1 − β2 is a root, so is α − β1 or α − β2.
                if any(line[b1] is not None and diff[line[b1]][b2] is not None
                       for b1 in conjugating for b2 in conjugating):
                    continue
                expect = ni.get(a, 0)
                for b, d in enumerate(line):
                    if d is not None and d in conjugating:
                        expect += m[d][b] * xi.get(d, 0) * ni.get(b, 0)
                if total.get(a, 0) != scale * expect:
                    return {"trial": t, "row": i, "alpha": rs._texts[a],
                            "reason": "first coefficient formula mismatch"}
                # the coordinates of X at roots strictly below α set to 0
                lower = rs._below[a] ^ 1 << a
                trimmed = {r: v for r, v in xi.items() if not lower >> r & 1}
                trimmed_scale, moved = _iad_series(real, trimmed, ni)
                if moved.get(a, 0) != trimmed_scale * ni.get(a, 0):
                    return {"trial": t, "row": i, "alpha": rs._texts[a],
                            "reason": "coefficient moved despite zero "
                                      "lower coordinates"}
    return None


def _check_containment(real: ChevalleyRealization, trials: int,
                       seed: int) -> dict | None:
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
    no (space, w) pair.  Every space holds Φ⁺, so only the bits of
    ``risky(w)`` in ``w.im`` (the negative w⁻¹-images of positive roots)
    can leave it: the mask is built, in one pass over the positive roots,
    only for the w with ``w.im`` outside their smallest space.  That
    smallest space is also checked to be one of the enumerated spaces.
    Only for the suspect w, those whose smallest space fails, are the
    (space, w) cells tested; the samples are then scanned in order, and the
    first failing triple (N, then space, then w) is rerun root by root to
    name the row, the root and the reason.
    """
    rs = real.rs
    table = stage_table(rs).rows
    samples = [dict.fromkeys(rs._simple_index, 1)]
    for t in range(min(trials, 3)):
        samples.append(_random_coeffs(rs, _rng(seed, f"cont:{t}"),
                                      regular=True))
    rows = [(i, row) for i, row in enumerate(table, start=1) if row]
    psi = [{i: _ad_block(real, nn, row, row) for i, row in rows}
           for nn in samples]
    faults = [_first_entry_faults(rs, psi_rows) for psi_rows in psi]
    any_fault = tuple(set().union(*faults))
    covers = rs._covers

    # a root some sample flags carries a bit above the positive roots in its
    # cover mask, which every ~Φ_w has, so one pass over the roots gives risky
    flagged = tuple(dm | (a in any_fault) << rs.num_positive
                    for a, dm in enumerate(covers))

    elements = enumerate_weyl(rs)
    spaces = enumerate_hessenberg(rs)
    known = {space.hm for space in spaces}
    risky = {}        # bad(w) | w⁻¹F(N), F(N) over all samples, by suspect w
    for k, w in enumerate(elements):
        least = smallest_containing(rs, w.sm)
        if least not in known:
            raise ConsistencyError(
                f"{rs.lie_type}{rs.rank} word {list(w.word)}: the smallest "
                "space with a nonempty cell is not an enumerated space")
        if w.im & ~least:         # else no risky bit can leave least
            # inv lists the positive roots first, as flagged does
            outside_phi_w = ~w.inversion_mask()
            mask = sum([1 << x for x, dm in
                        zip(w.inverse_root_permutation(), flagged)
                        if dm & outside_phi_w])
            if mask & ~least:
                risky[k] = mask
    if not risky:
        return None
    suspect_w = list(risky)

    suspects = [(space, k) for space in spaces for k in suspect_w
                if risky[k] & ~space.hm and cell_nonempty(elements[k], space)]
    bad = {}
    for k in suspect_w:
        inv = elements[k].inverse_root_permutation()
        outside_phi_w = ~elements[k].inversion_mask()
        bad[k] = sum(1 << inv[a] for a, dm in enumerate(covers)
                     if dm & outside_phi_w)
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
    raise ConsistencyError(f"{rs.lie_type}{rs.rank}: a containment suspect "
                           "fails for no sample")


def _first_entry_faults(rs: RootSystem, psi_rows: dict[int, list]
                        ) -> frozenset[int]:
    """Indices of the row roots whose row-operator line is zero or has its
    first nonzero entry at a β with α − β not simple."""
    table = stage_table(rs).rows
    simple = frozenset(rs._simple_index)
    out = []
    for i, mat in psi_rows.items():
        row = table[i - 1]
        for k, line in zip(row, mat):
            first = next((c for c, v in enumerate(line) if v), None)
            if first is None or rs._pos_diff[k][row[first]] not in simple:
                out.append(k)
    return frozenset(out)


def _containment_counterexample(rs: RootSystem, psi_rows: dict[int, list],
                                space: HessenbergSpace,
                                w: WeylElement) -> dict | None:
    """The containment conditions of one nonempty cell for one N, root by
    root: the first failing row root as a counterexample, or None."""
    inv_perm = w.inverse_root_permutation()
    phi_w = w.inversion_mask()
    table = stage_table(rs).rows
    simple = rs._simple_index
    for i, mat in psi_rows.items():
        row = table[i - 1]
        for k, line in zip(row, mat):
            if space.hm >> inv_perm[k] & 1:
                continue          # α ∈ wΦ_H: no claim
            alpha = rs._texts[k]
            first = next((c for c, v in enumerate(line) if v), None)
            if first is None:
                return {"hessenberg": sorted(_negative_texts(space)),
                        "word": list(w.word), "row": i, "alpha": alpha,
                        "reason": "zero row for an excluded root"}
            if rs._pos_diff[k][row[first]] not in simple:
                return {"word": list(w.word), "row": i, "alpha": alpha,
                        "reason": "first entry not at a simple difference"}
            for j, a in enumerate(simple, start=1):
                d = rs._pos_diff[k][a]
                if d is not None and not phi_w >> d & 1:
                    return {"word": list(w.word), "row": i,
                            "alpha": alpha, "simple": j,
                            "reason": "simple-difference root escapes "
                                      "the inversion set"}
    return None


def _check_type_d_block(real: ChevalleyRealization, trials: int,
                        seed: int) -> dict | None:
    rs = real.rs
    if rs.lie_type != "D":
        return None
    n = rs.rank
    simple = rs._simple_index
    m = real.constants
    # the 3x3 middle block exists for stages pairing two full rows, i.e.
    # i <= n-3; the last pairing degenerates (its top row root
    # Σ_{j=i+1}^n α_j stops being a root).  Its roots depend on i alone.
    blocks = [(i, [_span_root(rs, (i + 1, n)),
                   _span_root(rs, (i, n - 1)),
                   _span_root(rs, (i, n - 2), (n, n))],
               [_span_root(rs, (i + 1, n - 1)),
                _span_root(rs, (i + 1, n - 2), (n, n)),
                _span_root(rs, (i, n - 2))])
              for i in range(1, n - 2)]
    for t in range(trials):
        rng = _rng(seed, f"dblock:{t}")
        cf = _random_coeffs(rs, rng, regular=True)
        for i, row_targets, col_roots in blocks:
            # entry (r, c) is m_{c,r−c} n_{r−c}: the block of −ad(N)
            block = [[-v for v in line]
                     for line in _ad_block(real, cf, row_targets, col_roots)]
            na = cf.get(simple[i - 1], 0)
            nb = cf.get(simple[n - 2], 0)
            nc = cf.get(simple[n - 1], 0)
            # the determinant 2·na·nb·nc of this form is nonzero, since the
            # sample is regular
            if block != [[nc, nb, 0], [-na, 0, nb], [0, -na, nc]]:
                return {"trial": t, "stage": i, "block": [
                            [str(x) for x in line] for line in block],
                        "reason": "block deviates from the normalized form"}
    # the constants _root_vectors pins to +1, on every row i <= n-2 and
    # wherever the sum is a root: the blocks above read them for i <= n-3,
    # and the last pairing and D3's m(α_1, α_2) only here
    fork_a, fork_b = simple[n - 2], simple[n - 1]
    texts = rs._texts
    sums = {(a, b) for a, line in enumerate(rs._sum_pairs) for b, _ in line}
    for i in range(1, n - 1):
        chain = _span_root(rs, (i, n - 2))               # c_i
        next_a = _span_root(rs, (i + 1, n - 1))          # c_{i+1} + α_{n-1}
        next_b = _span_root(rs, (i + 1, n - 2), (n, n))  # c_{i+1} + α_n
        alpha_i = simple[i - 1]
        for a, b in ((chain, fork_a), (chain, fork_b), (alpha_i, next_a),
                     (alpha_i, next_b), (next_a, fork_b), (next_b, fork_a)):
            if (a, b) in sums and m[a][b] != 1:
                return {"row": i, "alpha": texts[a], "beta": texts[b],
                        "constant": str(m[a][b]),
                        "reason": "pinned structure constant is not +1"}
    return None


# Most trials verify_lemmata runs: a trial of the trial-driven checks costs
# 0.8-2.0 ms on C6, A7, B6 and D6 (in-process, 2-vCPU Xeon; containment
# draws at most three samples whatever the count), so no admitted run
# takes half a minute.
_TRIAL_BUDGET = 10_000


def check_trial_count(trial_count: int) -> None:
    """Refuse a trial count that is not an int (a float or a bool is
    refused, not converted), below 1 (zero trials would pass unchecked) or
    over _TRIAL_BUDGET, with ValueError; it needs no realization."""
    if type(trial_count) is not int:
        raise ValueError(
            f"trial count must be an integer, got {trial_count!r}")
    if trial_count < 1:
        raise ValueError(f"trial count must be at least 1, got {trial_count}")
    if trial_count > _TRIAL_BUDGET:
        raise ValueError(f"trial count {trial_count} is over the budget of "
                         f"{_TRIAL_BUDGET}")


def verify_lemmata(real: ChevalleyRealization, trial_count: int = 200,
                   seed: int = DEFAULT_SEED) -> LemmataReport:
    """Run the structural checks (row structure, factorization count,
    near-linearity, row-operator invariance, type-D coefficient formulas,
    containment of first entries, type-D block) with seeded random trials.

    The containment check covers every (N sample, space, w) triple, but a
    passing run tests one mask per Weyl element, against the smallest space
    in which its cell is nonempty (see ``_check_containment``).

    The realization is checked as given.  The type-D block check is stated
    for the signs ``build_chevalley`` gives (see ``_root_vectors``), so a
    type-D realization with other signs fails ``type_d_block``.  A trial
    count outside ``check_trial_count``, a seed that is not an int (a bool
    is refused, not converted) and a Weyl group over the enumeration budget
    are refused before any check runs.
    """
    check_trial_count(trial_count)
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    check_budget("weyl", real.rs.lie_type, real.rs.rank)
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
    exact affine solve over the rationals (plus the one quadratic long-root
    coordinate in type C, adjusted last along its own line), with free
    parameters pinned to zero, and its solution X moves the current element
    M to Ad(exp X)(M), one exponential per stage.

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

    for arg, kind in ((real, ChevalleyRealization), (w, WeylElement),
                      (space, HessenbergSpace)):
        if type(arg) is not kind:
            raise ValueError(f"{arg!r} is not a {kind.__name__}")
    rs = real.rs
    if w.rs != rs or space.rs != rs:
        raise ValueError("Weyl element, space, and realization must share "
                         "one root system")
    if n is None:
        n = dict.fromkeys(rs._simple_index, 1)
    elif not isinstance(n, Mapping):
        raise ValueError(f"N must be a mapping from positive-root index to "
                         f"coefficient, got {n!r}")
    for k, v in n.items():
        if type(k) is not int or not 0 <= k < rs.num_positive:
            raise ValueError(f"N must be keyed by positive-root indices "
                             f"0..{rs.num_positive - 1}, got {k!r}")
        if type(v) not in (int, Fraction):
            raise ValueError(f"coefficient {v!r} of N at {k} is not an int "
                             "or a Fraction")
    if not all(n.get(a) for a in rs._simple_index):
        raise ValueError("witness search requires a regular nilpotent")
    if not cell_nonempty(w, space):
        raise ValueError("cell is empty; no witness exists")

    inv = w.inverse_root_permutation()
    phi_w = w.inversion_mask()
    table = stage_table(rs)
    stages = table.stages
    current = {k: v for k, v in n.items() if v}
    solutions: list[dict[int, Fraction]] = [{} for _ in stages]
    kernels: list[int] = [0] * len(stages)

    for k in range(len(stages) - 1, -1, -1):
        stage_vars, stage_cons = stages[k]
        vars_ = [p for p in stage_vars if phi_w >> p & 1]
        # the stage's roots outside wΦ_H, i.e. with w⁻¹p outside Φ_H
        cons = [p for p in stage_cons if not space.hm >> inv[p] & 1]
        gamma = table.long_roots[k]
        quad = gamma in cons

        if quad:
            pivot = rs._pos_diff[gamma][rs._simple_index[k]]
            if pivot not in vars_:
                raise ConsistencyError(
                    "long-root constraint without its adjusting coordinate "
                    f"({_witness_context(space, w, k)})")
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
            block = _ad_block(real, current, solve_cons, solve_vars)
            solved = solve_affine(
                [[-v for v in line] for line in block],
                [-current.get(alpha, 0) for alpha in solve_cons])
            if solved is None:
                raise ConsistencyError(
                    f"stage infeasible ({_witness_context(space, w, k)})")
            x, kernel = solved
        coeffs = {p: v for p, v in zip(solve_vars, x) if v}

        if quad:
            def gamma_coeff(tval: Fraction) -> Fraction:
                trial = dict(coeffs)
                if tval:
                    trial[pivot] = tval
                return _iad_exp(real, trial, current).get(gamma, 0)

            c0 = gamma_coeff(Fraction(0))
            c1 = gamma_coeff(Fraction(1))
            c2 = gamma_coeff(Fraction(2))
            if c2 - 2 * c1 + c0 != 0:
                raise ConsistencyError(
                    "long-root coordinate is not affine along its adjusting "
                    f"line ({_witness_context(space, w, k)})")
            slope = c1 - c0
            if slope == 0:
                raise ConsistencyError(
                    "degenerate long-root adjustment "
                    f"({_witness_context(space, w, k)})")
            tval = Fraction(-c0) / Fraction(slope)
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


def _verify_witness_matrix(real: ChevalleyRealization, w: WeylElement,
                           space: HessenbergSpace,
                           n: Mapping[int, Fraction | int],
                           solutions: list[dict[int, Fraction]],
                           final: dict[int, Fraction | int]) -> None:
    """Direct matrix check: u·N·u⁻¹ must equal the matrix of the
    coefficient-space result, each nonzero root of which must lie in wΦ_H.
    Root vectors are nonzero, off the diagonal and on pairwise distinct
    positions (``_validate_supports``), so ``matrix_of`` is injective with a
    zero diagonal: equal matrices mean equal coefficients."""
    size = real.dim_rep
    u = u_inv = sp_identity(size)
    for sol in filter(None, solutions):
        xmat = real.matrix_of(sol)
        u = sp_mul(u, sp_exp_nilpotent(xmat, size))
        u_inv = sp_mul(sp_exp_nilpotent(sp_scale(xmat, -1), size), u_inv)

    conj = sp_mul(sp_mul(u, real.matrix_of(n)), u_inv)
    if not sp_equal(conj, real.matrix_of(final)):
        raise ConsistencyError(
            "matrix conjugation disagrees with the coefficient-space "
            f"computation ({_witness_context(space, w)})")

    inv = w.inverse_root_permutation()
    for k, v in sorted(final.items()):
        if v and not space.hm >> inv[k] & 1:
            raise ConsistencyError(
                f"witness lands outside the translated Hessenberg space "
                f"at {real.rs._texts[k]} "
                f"({_witness_context(space, w)})")
