"""Matrix realizations, row operators, lemma checks, witnesses."""

import functools
import json
import random
import re
import sys
import types
from fractions import Fraction

import pytest

from hessenpave import liealg, linalg, rootcore
from hessenpave.cli import main
from hessenpave.errors import ConsistencyError
from hessenpave.hessenberg import (
    borel_space,
    enumerate_hessenberg,
    full_space,
    parse_hessenberg,
    smallest_containing,
)
from hessenpave.liealg import build_chevalley, find_witness, verify_lemmata
from hessenpave.linalg import (
    solve_affine,
    sp_add,
    sp_commutator,
    sp_exp_nilpotent,
    sp_mul,
    sp_scale,
)
from hessenpave.paving import (
    _outside_mask,
    cell_nonempty,
    row_dimension_profile,
)
from hessenpave.rootcore import (
    Root,
    RootSystem,
    StageTable,
    WeylElement,
    enumerate_weyl,
    format_root,
    parse_root,
    parse_word,
    stage_table,
)
from test_rootcore import ref_inversion_indices, ref_pos_sum, ref_root_add

REALIZABLE = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
              ("B", 2), ("B", 3), ("B", 4),
              ("C", 2), ("C", 3), ("C", 4),
              ("D", 3), ("D", 4)]


def sp_is_diagonal(a):
    return all(r == c for (r, c) in a)


def constant(real, a, b):
    """The structure constant m_{a,b} of two roots."""
    rs = real.rs
    return real.constants[rs.root_index(a)][rs.root_index(b)]


def ref_rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"hessenpave:{seed}:{tag}")


def ref_random_coeffs(rs: RootSystem, rng: random.Random,
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


def _row_roots(rs, i):
    """Row i (1-based) of the stage table as Roots, in row basis order."""
    return tuple(rs.positive_roots[k] for k in stage_table(rs).rows[i - 1])


@pytest.fixture(scope="module")
def real_a2():
    return build_chevalley(RootSystem("A", 2))


@pytest.fixture(scope="module")
def real_c2():
    return build_chevalley(RootSystem("C", 2))


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lie_type,rank", REALIZABLE)
def test_realizations_build_and_selfcheck(lie_type, rank):
    """Construction exhaustively validates every bracket relation, weight,
    and triangularity; building is the test."""
    rs = RootSystem(lie_type, rank)
    real = build_chevalley(rs)
    expected_size = {"A": rank + 1, "B": 2 * rank + 1,
                     "C": 2 * rank, "D": 2 * rank}[lie_type]
    assert real.dim_rep == expected_size
    table = real.constants
    for a, line in zip(rs.all_roots, table):
        for b, m in zip(rs.all_roots, line):
            s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            assert (m != 0) == (s in rs._index)
            assert constant(real, b, a) == -m


def test_a1_single_matrix_unit():
    real = build_chevalley(RootSystem("A", 1))
    vec = real.root_vectors[real.rs.root_index(real.rs.simple_roots[0])]
    assert vec == {(0, 1): 1}


def test_a2_structure_constants(real_a2):
    rs = real_a2.rs
    a1, a2 = rs.simple_roots
    m = constant(real_a2, a1, a2)
    assert m in (1, -1)
    assert constant(real_a2, a2, a1) == -m


def test_c2_has_long_root_vector(real_c2):
    rs = real_c2.rs
    gamma = parse_root(rs, "2,1")
    assert real_c2.dim_rep == 4
    assert real_c2.root_vectors[rs.root_index(gamma)]


def test_bracket_opposite_roots_is_diagonal(real_a2):
    rs = real_a2.rs
    vectors = real_a2.root_vectors
    for a in rs.positive_roots:
        h = sp_commutator(vectors[rs.root_index(a)],
                          vectors[rs.root_index(-a)])
        assert h and sp_is_diagonal(h)


def ref_extract_constants(real):
    """The structure constants as they were read before the integer table:
    a rational commutator for every one of the |Φ|² root pairs, in
    ``rs.all_roots`` order, with the same checks and messages, and the
    Chevalley magnitude |m_{α,β}| = p + 1 with the α-string through β
    walked by coefficient arithmetic."""
    rs = real.rs
    roots = rs.all_roots
    vectors = dict(zip(roots, real.root_vectors))
    table = [[0] * len(roots) for _ in roots]
    found = []
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            br = sp_commutator(vectors[a], vectors[b])
            ab = ref_root_add(rs, a, b)
            if ab is not None:
                target = vectors[ab]
                pos, val = next(iter(target.items()))
                coeff = Fraction(br.get(pos, 0), 1) / val
                if coeff == 0 or coeff.denominator != 1:
                    raise ConsistencyError(
                        f"bad structure constant for {a} + {b}")
                if br != sp_scale(target, coeff):
                    raise ConsistencyError(
                        f"[E_{a}, E_{b}] is not a multiple of E_{ab}")
                table[i][j] = int(coeff)
                found.append((i, j))
                length = 1           # p + 1: the roots b, b − a, …, b − p·a
                while tuple(y - length * x for x, y in zip(a.coeffs, b.coeffs)
                            ) in rs._index:
                    length += 1
                if abs(coeff) != length:
                    raise ConsistencyError(
                        f"|m| = {abs(coeff)} for {a} + {b}, not {length}, "
                        f"the length of the {a}-string down from {b}")
            elif a != -b:
                if br:
                    raise ConsistencyError(
                        f"[E_{a}, E_{b}] nonzero but {a} + {b} is not a root")
            elif any(r != c for (r, c) in br):
                raise ConsistencyError(f"[E_{a}, E_{b}] is not diagonal")
    for i, j in found:
        if table[j][i] != -table[i][j]:
            raise ConsistencyError("structure constants not antisymmetric")
    return tuple(map(tuple, table))


def ref_validate_weights(real):
    """The weight check as it stood before it read the Cartan diagonal: the
    commutator of every Cartan basis element with every root vector; then
    each h_i's eigenvalues on the simple root vectors must be column i of
    the Cartan matrix (h_i is the coroot of α_i)."""
    rs = real.rs
    for i, h in enumerate(real.cartan_basis):
        eig = []
        for a, s in zip(rs.simple_roots, rs._simple_index):
            ea = real.root_vectors[s]
            pos, val = next(iter(ea.items()))
            num = sp_commutator(h, ea).get(pos, 0)
            if num % val:
                raise ConsistencyError(f"Cartan eigenvalue {num}/{val} "
                                       f"on E_{a} is not an integer")
            eig.append(num // val)
        for root, er in zip(rs.all_roots, real.root_vectors):
            lam = sum(c * e for c, e in zip(root.coeffs, eig))
            if sp_commutator(h, er) != sp_scale(er, lam):
                raise ConsistencyError(
                    f"E_{root} is not a weight vector for the Cartan")
        if eig != [row[i] for row in rs.cartan_matrix]:
            a = rs.simple_roots[i]
            raise ConsistencyError(f"[E_{a}, E_{-a}] is not the coroot: "
                                   f"eigenvalues {eig}")


class RefRealization(liealg.ChevalleyRealization):
    _extract_constants = ref_extract_constants
    _validate_weights = ref_validate_weights


def _constants_or_error(cls, rs, vectors):
    try:
        return cls(rs, vectors).constants
    except ConsistencyError as exc:
        return str(exc)


def _corrupted(rs, vectors, rng, kind):
    """The root vectors with one seeded corruption of one root vector: an
    entry with its sign flipped, an extra entry (at a position no root
    vector holds on the root's side of the diagonal when there is one), or
    the vector scaled by 2."""
    root = rng.choice(rs.all_roots)
    k = rs.root_index(root)
    mat = dict(vectors[k])
    if kind == "flip":
        pos = rng.choice(sorted(mat))
        mat[pos] = -mat[pos]
    elif kind == "extra":
        size = liealg._dim_rep(rs)
        held = {pos for m in vectors for pos in m}
        free = [(r, c) for r in range(size) for c in range(size)
                if r != c and (r, c) not in mat]
        pos = rng.choice([(r, c) for r, c in free if (r, c) not in held
                          and (r < c) == root.is_positive] or free)
        mat[pos] = rng.choice([-1, 1])
    else:
        mat = {pos: 2 * v for pos, v in mat.items()}
    return vectors[:k] + (mat,) + vectors[k + 1:]


REFERENCE_SYSTEMS = [(t, r) for t in "ABCD" for r in range(1, 7)
                     if r >= {"A": 1, "B": 2, "C": 2, "D": 3}[t]] + [("A", 12)]


@pytest.mark.parametrize("lie_type,rank", REFERENCE_SYSTEMS)
def test_constants_equal_the_full_rational_scan(lie_type, rank):
    """The integer table, bracketing only pairs that can be nonzero, equals
    the rational scan of every pair, and the realization passes the
    commutator weight check too; under seeded corruptions of one root
    vector both builds raise the same first error, which names the
    system."""
    rs = RootSystem(lie_type, rank)
    vectors = liealg._root_vectors(rs)
    table = liealg.ChevalleyRealization(rs, vectors).constants
    assert table == RefRealization(rs, vectors).constants
    rng = random.Random(f"corrupt:{lie_type}{rank}")
    errors = []
    for kind in ("flip", "extra", "scale") * 2:
        bad = _corrupted(rs, vectors, rng, kind)
        got = _constants_or_error(liealg.ChevalleyRealization, rs, bad)
        assert got == _constants_or_error(RefRealization, rs, bad), kind
        if isinstance(got, str):
            assert got.startswith(f"{lie_type}{rank}: "), got
            errors.append(got)
    assert errors


def test_root_sum_pair_without_chaining_supports_is_refused():
    """α_1 at (0, 1) and α_2 at (0, 2): no column of one meets a row of the
    other, so [E_α1, E_α2] = 0 though α_1 + α_2 is a root."""
    rs = RootSystem("A", 2)
    a1, a2, a12 = rs.positive_roots
    vectors = {a1: {(0, 1): 1}, a2: {(0, 2): 1}, a12: {(1, 2): 1}}
    vectors.update({-r: {(c, r_): v for (r_, c), v in m.items()}
                    for r, m in list(vectors.items())})
    message = f"A2: bad structure constant for {a1} + {a2}"
    for cls in (liealg.ChevalleyRealization, RefRealization):
        with pytest.raises(ConsistencyError) as exc:
            cls(rs, tuple(vectors[r] for r in rs.all_roots))
        assert str(exc.value) == message


def test_constants_bracket_only_pairs_that_can_be_nonzero(monkeypatch):
    """On A12, 3,588 of the 24,336 ordered root pairs have a + b a root or
    zero, or chaining supports; only those are bracketed, each unordered
    pair once (no type-A root vector chains with itself, so no root is
    bracketed with itself)."""
    rs = RootSystem("A", 12)
    real = build_chevalley(rs)
    calls = []

    def counting(a, b):
        calls.append(1)
        return sp_commutator(a, b)

    monkeypatch.setattr(liealg, "sp_commutator", counting)
    assert real._extract_constants() == real.constants
    assert len(rs.all_roots) ** 2 == 24_336
    assert len(calls) == 1_794


@pytest.mark.parametrize("lie_type,rank,products", [("D", 5, 610),
                                                     ("A", 5, 280)])
def test_build_brackets_only_for_constants_and_cartan(monkeypatch, lie_type,
                                                      rank, products):
    """Work count: a whole build forms matrix products only in the
    commutators of ``_extract_constants`` and of the Cartan basis (D5 made
    1,660 and A5 900 when the weight check bracketed every root vector, and
    1,210 and 550 when each root pair was bracketed in both orders); the
    weight check forms none."""
    calls = []

    def counting(a, b):
        calls.append(1)
        return sp_mul(a, b)

    monkeypatch.setattr(linalg, "sp_mul", counting)
    real = build_chevalley(RootSystem(lie_type, rank))
    assert len(calls) == products
    monkeypatch.setattr(linalg, "sp_mul", None)
    real._validate_weights()


def _weights_error(check, real):
    try:
        check(real)
    except ConsistencyError as exc:
        return str(exc)
    return None


def _unvalidated(rs, vectors):
    """A realization object over ``vectors`` built without ``__init__``,
    its Cartan basis bracketed as construction brackets it."""
    real = object.__new__(liealg.ChevalleyRealization)
    real.rs, real.root_vectors = rs, vectors
    npos = rs.num_positive
    real.cartan_basis = tuple(sp_commutator(vectors[s], vectors[s + npos])
                              for s in rs._simple_index)
    return real


@pytest.mark.parametrize("lie_type,rank", [("B", 3), ("D", 4)])
def test_weights_equal_the_commutator_check_with_an_entry_moved(lie_type,
                                                                rank):
    """Each entry of each root vector in turn moved to each position that no
    root vector holds (off the diagonal; of a weight 2ε_k, not a root).
    Where every Cartan element stays diagonal, the precondition of the
    diagonal reading, both checks raise the same message; the others have
    a non-diagonal [E_α, E_−α], which construction refuses first."""
    rs = RootSystem(lie_type, rank)
    vectors = liealg._root_vectors(rs)
    size = liealg._dim_rep(rs)
    held = {pos for mat in vectors for pos in mat}
    free = [(r, c) for r in range(size) for c in range(size)
            if r != c and (r, c) not in held]
    assert free
    errors = set()
    for k, mat in enumerate(vectors):
        for pos in mat:
            for to in free:
                moved = {p: v for p, v in mat.items() if p != pos}
                moved[to] = mat[pos]
                bad = vectors[:k] + (moved,) + vectors[k + 1:]
                real = _unvalidated(rs, bad)
                if not all(r == c for h in real.cartan_basis for r, c in h):
                    with pytest.raises(ConsistencyError):
                        liealg.ChevalleyRealization(rs, bad)
                    continue
                got = _weights_error(
                    liealg.ChevalleyRealization._validate_weights, real)
                assert got == _weights_error(ref_validate_weights, real)
                errors.add(got)
    assert None not in errors
    assert all(e.endswith(" is not a weight vector for the Cartan")
               for e in errors)


def test_realization_entries_must_be_nonzero_integers():
    rs = RootSystem("B", 2)
    vectors = liealg._root_vectors(rs)
    for value in (Fraction(1, 2), 0):
        bad = ({pos: value for pos in vectors[0]},) + vectors[1:]
        with pytest.raises(ConsistencyError,
                           match=r"^B2: entry .* is not a nonzero integer$"):
            liealg.ChevalleyRealization(rs, bad)


@pytest.mark.parametrize("shape,error,message", [
    pytest.param("root-keyed", ValueError, r"is not a tuple or list$",
                 id="root-keyed"),
    pytest.param("short", ConsistencyError, r"^B2: realization must carry "
                 r"every root, by rs\.all_roots index$", id="short")])
def test_realization_takes_vectors_by_root_index(shape, error, message):
    """The root vectors are a sequence over ``rs.all_roots``: a map keyed by
    root is a caller's mistake, refused as a wrong type, and a sequence one
    short is refused by name."""
    rs = RootSystem("B", 2)
    vectors = liealg._root_vectors(rs)
    bad = (dict(zip(rs.all_roots, vectors)) if shape == "root-keyed"
           else vectors[:-1])
    with pytest.raises(error, match=message):
        liealg.ChevalleyRealization(rs, bad)


def ref_root_vectors_unnormalized(rs):
    """The root vectors as ``liealg._root_vectors`` built them before the
    type-B normalization: every entry ±1, so that type B preserves the
    antidiagonal form with 1 in the middle, and each short + short = long
    bracket of B has |m| = 1 where the root-string rule gives 2.  A, C and
    D are unchanged."""
    n, t = rs.rank, rs.lie_type
    size = liealg._dim_rep(rs)
    wt = [8 ** k for k in range(size if t == "A" else n)]
    if t != "A":
        wt += [0] * (t == "B") + [-w for w in reversed(wt)]
    index = {w: k for k, w in enumerate(wt)}
    simple = [sum(e * 8 ** k for k, e in enumerate(v)) for v in rs._eps_simple]
    flip = set()
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


def ref_string_length(rs, a, b):
    """p + 1 for the roots b, b − a, …, b − p·a of the a-string through b,
    by coefficient arithmetic."""
    length = 1
    while tuple(y - length * x
                for x, y in zip(a.coeffs, b.coeffs)) in rs._index:
        length += 1
    return length


# every system of rank <= 8, and A12 and D12
_CHEVALLEY_SYSTEMS = ([("A", r) for r in range(1, 9)]
                      + [(t, r) for t in "BC" for r in range(2, 9)]
                      + [("D", r) for r in range(3, 9)]
                      + [("A", 12), ("D", 12)])


@pytest.mark.parametrize("lie_type,rank", _CHEVALLEY_SYSTEMS)
def test_realization_is_a_chevalley_basis(lie_type, rank):
    """Every nonzero constant has |m_{α,β}| = p + 1, for β − pα the bottom
    of the α-string through β (Chevalley; Carter, *Simple Groups of Lie
    Type*, §4.2).  The type-B root vectors carry 2 in the middle row; A, C
    and D keep the unnormalized vectors, and so exactly their constants."""
    rs = RootSystem(lie_type, rank)
    real = build_chevalley(rs)
    roots = rs.all_roots
    for a, line in zip(roots, real.constants):
        for b, m in zip(roots, line):
            assert not m or abs(m) == ref_string_length(rs, a, b), (a, b, m)
    old = ref_root_vectors_unnormalized(rs)
    if lie_type == "B":
        assert real.root_vectors == tuple(
            {(r, c): 2 * v if r == rank else v for (r, c), v in mat.items()}
            for mat in old)
    else:
        assert real.root_vectors == old
        assert (liealg.ChevalleyRealization(rs, old).constants
                == real.constants)


@pytest.mark.parametrize("rank", range(2, 9))
def test_unnormalized_type_b_vectors_are_refused(rank):
    """The type-B vectors without the doubled middle row fail the
    root-string magnitude check at construction, in both builds, with the
    same first error naming the system and the pair."""
    rs = RootSystem("B", rank)
    old = ref_root_vectors_unnormalized(rs)
    got = _constants_or_error(liealg.ChevalleyRealization, rs, old)
    assert got == _constants_or_error(RefRealization, rs, old)
    assert re.fullmatch(rf"B{rank}: \|m\| = 1 for \S+ \+ \S+, not 2, the "
                        r"length of the \S+-string down from \S+", got), got


@pytest.mark.parametrize("lie_type,rank", [("A", 1), ("A", 3), ("B", 3),
                                           ("C", 3), ("D", 4)])
def test_negated_negative_root_vectors_are_refused(lie_type, rank):
    """Negating every negative root vector keeps each constant's magnitude
    and each root vector a weight vector, but makes each [E_{α_i},
    E_{−α_i}] minus the coroot of α_i: both builds refuse it at α_1, with
    the eigenvalues of minus column 1 of the Cartan matrix."""
    rs = RootSystem(lie_type, rank)
    vectors = liealg._root_vectors(rs)
    npos = rs.num_positive
    bad = vectors[:npos] + tuple({pos: -v for pos, v in mat.items()}
                                 for mat in vectors[npos:])
    got = _constants_or_error(liealg.ChevalleyRealization, rs, bad)
    assert got == _constants_or_error(RefRealization, rs, bad)
    a = rs.simple_roots[0]
    eig = [-row[0] for row in rs.cartan_matrix]
    assert got == (f"{lie_type}{rank}: [E_{a}, E_{-a}] is not the coroot: "
                   f"eigenvalues {eig}")


@pytest.mark.parametrize("lie_type,rank", [("A", 3), ("B", 3), ("C", 4),
                                           ("D", 5)])
def test_scaled_simple_root_vector_fails_the_magnitude_check(lie_type, rank):
    """A seeded simple root vector scaled by 2 or 3 brackets with its
    neighbour on the diagram to a constant of the wrong magnitude before
    any bracket targets it: both builds refuse it, naming the pair."""
    rs = RootSystem(lie_type, rank)
    rng = random.Random(f"magnitude:{lie_type}{rank}")
    k = rng.choice(rs._simple_index)
    factor = rng.choice((2, 3, -2))
    vectors = liealg._root_vectors(rs)
    bad = vectors[:k] + ({pos: factor * v
                          for pos, v in vectors[k].items()},) + vectors[k + 1:]
    got = _constants_or_error(liealg.ChevalleyRealization, rs, bad)
    assert got == _constants_or_error(RefRealization, rs, bad)
    assert re.fullmatch(rf"{lie_type}{rank}: \|m\| = \d+ for \S+ \+ \S+, "
                        r"not \d+, the length of the \S+-string down from "
                        r"\S+", got), got
    assert rs._texts[k] in got


# ---------------------------------------------------------------------------
# Root-keyed references: the adjoint exponential and the row operators
# ---------------------------------------------------------------------------

# ``ad_exp``, ``psi_matrix``, ``theta_row`` and ``RowMatrix`` as the library
# kept them when its public edge keyed coefficients by ``Root``.  Here a
# coefficient map is a dict from positive roots to values; the two
# converters adapt it to the index-keyed realization and calculus.


def ref_to_index_coeffs(real, coeffs):
    rs = real.rs
    out = {}
    for root, v in coeffs.items():
        if v:
            idx = rs.root_index(root)
            if idx >= rs.num_positive:
                raise ValueError(f"{format_root(root)} is not a positive root")
            out[idx] = v
    return out


def ref_from_index_coeffs(real, coeffs):
    pos = real.rs.positive_roots
    return {pos[i]: v for i, v in sorted(coeffs.items()) if v}


def ref_project(coeffs, indices):
    return {k: v for k, v in coeffs.items() if k in indices and v}


def ref_sum_of_simple_vectors(rs):
    """The standard regular nilpotent: coefficient 1 on every simple root."""
    return {a: 1 for a in rs.simple_roots}


def ref_ad_exp(real, x, n):
    """Ad(exp X)(N) for X, N in the nilradical, exactly, re-expanded in the
    root-vector basis."""
    xi = ref_to_index_coeffs(real, x)
    ni = ref_to_index_coeffs(real, n)
    return ref_from_index_coeffs(real, liealg._iad_exp(real, xi, ni))


def ref_expand(real, mat):
    """A matrix over the root-vector basis plus the Cartan, as the
    realization once expanded it: sweep each root vector's anchor (its
    least matrix position) off the matrix in ``rs.all_roots`` order, then
    solve the diagonal left over in the Cartan basis.  Returns (Cartan
    coefficients, root coefficient map by ``rs.all_roots`` index); raises
    ValueError when the matrix is not in the span."""
    coeffs = {}
    residual = dict(mat)
    for k, vec in enumerate(real.root_vectors):
        anchor = min(vec)
        if anchor in residual:
            c = Fraction(residual[anchor]) / vec[anchor]
            if c:
                coeffs[k] = c
                residual = sp_add(residual, sp_scale(vec, -c))
    if any(r != c for (r, c) in residual):
        raise ValueError("matrix is not expressible in the root-vector "
                         "basis plus the Cartan")
    size = real.dim_rep
    cartan = _ref_cartan_coefficients(
        tuple(tuple(h.get((k, k), 0) for h in real.cartan_basis)
              for k in range(size)),
        tuple(residual.get((k, k), 0) for k in range(size)))
    if cartan is None:
        raise ValueError("diagonal part is outside the Cartan span")
    return cartan, coeffs


@functools.cache
def _ref_cartan_coefficients(cols, rhs):
    """The coefficients of a diagonal over the Cartan basis, by the exact
    solve (a pure function of its input, so kept per input), or None."""
    solved = solve_affine([[Fraction(x) for x in line] for line in cols],
                          [Fraction(x) for x in rhs])
    return None if solved is None else tuple(solved[0][:len(cols[0])])


class ref_RowMatrix(rootcore._Record):
    """A square matrix indexed by the roots of one row, in the fixed order
    (height descending, type-D ties resolved by coefficient order)."""

    __slots__ = ("roots", "entries")


def ref_psi_matrix(real, n, i):
    """The restriction-and-projection of ad(N) to row i, as a matrix.

    Entry (α, β) is ``m_{α−β,β} n_{α−β}`` when α−β is a positive root and 0
    otherwise.  The same matrix is recomputed from genuine matrix brackets
    ρ_i[N, E_β], and the two must agree.
    """
    rs = real.rs
    if not 1 <= i <= rs.rank:
        raise ValueError(f"row index {i} out of range")
    row = stage_table(rs).rows[i - 1]
    ni = ref_to_index_coeffs(real, n)
    order, mat = _row_roots(rs, i), liealg._ad_block(real, ni, row, row)

    nmat = real.matrix_of(ni)
    for col, beta in enumerate(order):
        br = sp_commutator(nmat, real.root_vectors[rs.root_index(beta)])
        _, expanded = ref_expand(real, br)
        for r, alpha in enumerate(order):
            if expanded.get(rs.root_index(alpha), 0) != mat[r][col]:
                raise ConsistencyError(
                    "row operator disagrees with matrix brackets at "
                    f"({format_root(alpha)}, {format_root(beta)})")
    return ref_RowMatrix(order, tuple(tuple(line) for line in mat))


def ref_theta_row(real, n, x, i):
    """ρ_i Ad(exp X)(N) for X supported on a single row."""
    rs = real.rs
    if not 1 <= i <= rs.rank:
        raise ValueError(f"row index {i} out of range")
    table = stage_table(rs).rows
    xi = ref_to_index_coeffs(real, x)
    if xi and sum(not xi.keys().isdisjoint(row) for row in table) != 1:
        raise ValueError("X must be supported on a single row")
    ni = ref_to_index_coeffs(real, n)
    out = ref_project(liealg._iad_exp(real, xi, ni), frozenset(table[i - 1]))
    return ref_from_index_coeffs(real, out)


def _reference_samples(rs):
    """N as the sum of the simple vectors and three seeded regular samples,
    index-keyed."""
    rng = random.Random(f"reference-n:{rs.lie_type}{rs.rank}")
    return [dict.fromkeys(rs._simple_index, 1)] + [
        ref_random_coeffs(rs, rng, regular=True) for _ in range(3)]


@pytest.mark.parametrize("lie_type,rank", REALIZABLE + [("A", 5), ("D", 5)])
def test_reference_psi_matrix_equals_ad_block(lie_type, rank):
    """The reference row operator, which cross-checks itself against
    genuine matrix brackets, equals the block of ad(N) that the containment
    check reads, on every row and for every sample N."""
    real = build_chevalley(RootSystem(lie_type, rank))
    rs = real.rs
    rows = stage_table(rs).rows
    for nn in _reference_samples(rs):
        roots = ref_from_index_coeffs(real, nn)
        for i, row in enumerate(rows, start=1):
            pm = ref_psi_matrix(real, roots, i)
            assert pm.roots == _row_roots(rs, i)
            assert pm.entries == tuple(
                map(tuple, liealg._ad_block(real, nn, row, row)))


def ref_random_row_element(rs, rng, j):
    """Seeded coefficients on row j, index-keyed, drawn in row basis order."""
    return {k: v for k in stage_table(rs).rows[j - 1]
            if (v := rng.randint(-5, 5))}


@pytest.mark.parametrize("lie_type,rank", REALIZABLE + [("A", 5), ("D", 5)])
def test_reference_theta_row_equals_row_projection(lie_type, rank):
    """For seeded X on one row, the reference θ on every row equals the
    row projection of the index-keyed ``_iad_exp``."""
    real = build_chevalley(RootSystem(lie_type, rank))
    rs = real.rs
    rows = stage_table(rs).rows
    rng = random.Random(f"reference-x:{lie_type}{rank}")
    for nn in _reference_samples(rs):
        roots = ref_from_index_coeffs(real, nn)
        for j, source in enumerate(rows, start=1):
            if not source:
                continue
            x = ref_random_row_element(rs, rng, j)
            moved = liealg._iad_exp(real, x, nn)
            for i, row in enumerate(rows, start=1):
                got = ref_theta_row(real, roots, ref_from_index_coeffs(real, x),
                                    i)
                assert {rs.root_index(r): v for r, v in got.items()} == {
                    k: v for k in row if (v := moved.get(k))}


# ---------------------------------------------------------------------------
# adjoint exponential
# ---------------------------------------------------------------------------


def test_ad_exp_examples(real_a2):
    rs = real_a2.rs
    a1, a2 = rs.simple_roots
    n = {a1: 1}
    assert ref_ad_exp(real_a2, {}, n) == n
    moved = ref_ad_exp(real_a2, {a2: 1}, n)
    m = constant(real_a2, a2, a1)
    theta = parse_root(rs, "1,1")
    assert moved == {a1: 1, theta: m}


def test_ad_exp_rejects_negative_support(real_a2):
    rs = real_a2.rs
    neg = parse_root(rs, "-1,0")
    with pytest.raises(ValueError):
        ref_ad_exp(real_a2, {neg: 1}, ref_sum_of_simple_vectors(rs))


@pytest.mark.parametrize("lie_type,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_regularity_preserved_under_conjugation(lie_type, rank):
    import random
    rs = RootSystem(lie_type, rank)
    real = build_chevalley(rs)
    n = ref_sum_of_simple_vectors(rs)
    rng = random.Random("regularity")
    for _ in range(25):
        x = {r: v for r in rs.positive_roots if (v := rng.randint(-3, 3))}
        moved = ref_ad_exp(real, x, n)
        assert all(moved.get(a, 0) != 0 for a in rs.simple_roots)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_a2_frozen(real_a2):
    rs = real_a2.rs
    n = ref_sum_of_simple_vectors(rs)
    pm = ref_psi_matrix(real_a2, n, 1)
    assert [str(r) for r in pm.roots] == ["1,1", "1,0"]
    a1, a2 = rs.simple_roots
    expected = constant(real_a2, a2, a1)
    assert pm.entries == ((0, expected), (0, 0))
    assert expected != 0


def test_psi_zero_superdiagonal_for_non_regular(real_a2):
    rs = real_a2.rs
    theta = parse_root(rs, "1,1")
    pm = ref_psi_matrix(real_a2, {theta: 7}, 1)
    assert all(pm.entries[k][k + 1] == 0 for k in range(len(pm.roots) - 1))


@pytest.mark.parametrize("lie_type,rank", [("A", 3), ("B", 3), ("C", 3)])
def test_psi_strictly_upper_with_nonzero_superdiagonal(lie_type, rank):
    import random
    rs = RootSystem(lie_type, rank)
    real = build_chevalley(rs)
    rng = random.Random(f"psi:{lie_type}{rank}")
    samples = [ref_sum_of_simple_vectors(rs)]
    for _ in range(5):
        coeffs = {}
        for r in rs.positive_roots:
            v = rng.randint(-4, 4)
            if r in rs.simple_roots:
                v = v or 1
            if v:
                coeffs[r] = v
        samples.append(coeffs)
    for n in samples:
        for i in range(1, rank + 1):
            pm = ref_psi_matrix(real, n, i)
            size = len(pm.roots)
            for r in range(size):
                for c in range(r + 1):
                    assert pm.entries[r][c] == 0
            for k in range(size - 1):
                assert pm.entries[k][k + 1] != 0


def test_c2_heisenberg_row_psi(real_c2):
    rs = real_c2.rs
    pm = ref_psi_matrix(real_c2, ref_sum_of_simple_vectors(rs), 1)
    assert len(pm.roots) == 3
    assert pm.entries[0][1] != 0 and pm.entries[1][2] != 0


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_row_basic(real_a2):
    rs = real_a2.rs
    n = ref_sum_of_simple_vectors(rs)
    a1, a2 = rs.simple_roots
    assert ref_theta_row(real_a2, n, {}, 1) == {a1: 1}
    # conjugating by a deeper row leaves shallower projections intact only
    # upward: row 2 is unchanged by row-1 elements
    x = {a1: 3}
    assert ref_theta_row(real_a2, n, x, 2) == {a2: 1}
    with pytest.raises(ValueError):
        ref_theta_row(real_a2, n, {a1: 1, a2: 1}, 1)


@pytest.mark.parametrize("i", [0, -1, 3])
def test_theta_row_refuses_rows_out_of_range(real_a2, i):
    """Row indices run 1..rank, as for ``ref_psi_matrix``: 0 and −1 would
    otherwise project onto another row and rank + 1 fail with a bare
    IndexError."""
    n = ref_sum_of_simple_vectors(real_a2.rs)
    with pytest.raises(ValueError, match=rf"^row index {i} out of range$"):
        ref_theta_row(real_a2, n, {}, i)


def _theta_as_polynomial(real, n, i, j):
    """Fit a degree-2 polynomial to the row-i projection of Ad(exp X)(N)
    for X on row j, from values on a sparse quadratic grid."""
    rs = real.rs
    basis = _row_roots(rs, j)
    targets = _row_roots(rs, i)

    def value(point):
        x = {r: v for r, v in zip(basis, point) if v}
        got = ref_theta_row(real, n, x, i)
        return tuple(Fraction(got.get(t, 0)) for t in targets)

    k = len(basis)
    zero = value((0,) * k)

    def unit(idx, scale):
        p = [0] * k
        p[idx] = scale
        return tuple(p)

    lin = []
    quad_diag = []
    for a in range(k):
        f1 = value(unit(a, 1))
        f2 = value(unit(a, 2))
        # f(t e_a) = zero + t*lin + t^2*quad
        quad = tuple((x2 - 2 * x1 + z) / 2
                     for x2, x1, z in zip(f2, f1, zero))
        linear = tuple(x1 - z - q for x1, z, q in zip(f1, zero, quad))
        lin.append(linear)
        quad_diag.append(quad)
    cross = {}
    for a in range(k):
        for b in range(a + 1, k):
            p = [0] * k
            p[a] = p[b] = 1
            fab = value(tuple(p))
            cross[(a, b)] = tuple(
                fab_c - z - la - lb - qa - qb
                for fab_c, z, la, lb, qa, qb in zip(
                    fab, zero, lin[a], lin[b], quad_diag[a], quad_diag[b]))

    def evaluate(point):
        out = list(zero)
        for a in range(k):
            t = point[a]
            for c in range(len(out)):
                out[c] += t * lin[a][c] + t * t * quad_diag[a][c]
        for (a, b), coefs in cross.items():
            for c in range(len(out)):
                out[c] += point[a] * point[b] * coefs[c]
        return tuple(out)

    return targets, value, evaluate


@pytest.mark.parametrize("lie_type,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_theta_is_degree_two_polynomial(lie_type, rank):
    """Independent oracle: interpolate on a quadratic grid, then check the
    fitted polynomial reproduces the exact adjoint exponential at points far
    outside the grid; any cubic term would break the match."""
    import random
    rs = RootSystem(lie_type, rank)
    real = build_chevalley(rs)
    rng = random.Random(f"theta:{lie_type}{rank}")
    n = {r: rng.randint(-3, 3) or 2 for r in rs.positive_roots}
    table = stage_table(rs).rows
    for j in range(1, rank + 1):
        if not table[j - 1]:
            continue
        for i in range(1, rank + 1):
            if not table[i - 1]:
                continue
            _, value, evaluate = _theta_as_polynomial(real, n, i, j)
            k = len(_row_roots(rs, j))
            for _ in range(4):
                point = tuple(rng.randint(-6, 6) for _ in range(k))
                assert value(point) == evaluate(point)


# ---------------------------------------------------------------------------
# type D signs
# ---------------------------------------------------------------------------


def ref_gf2_solve(rows, rhs):
    """Solve a linear system over GF(2); free variables are set to zero.

    Rows are 0/1 coefficient lists.  Returns a 0/1 solution vector or None
    when inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(row) + [b & 1] for row, b in zip(rows, rhs)]
    pivots = []
    prow = 0
    for col in range(n):
        pr = next((r for r in range(prow, m) if a[r][col] & 1), None)
        if pr is None:
            continue
        a[prow], a[pr] = a[pr], a[prow]
        for r in range(m):
            if r != prow and a[r][col] & 1:
                a[r] = [(x ^ y) for x, y in zip(a[r], a[prow])]
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    for r in range(prow, m):
        if a[r][n]:
            return None
    x = [0] * n
    for prow_, col in pivots:
        x[col] = a[prow_][n]
    return x


def ref_d_normalization_pairs(rs):
    """The six constant families (per valid row index) pinned to +1."""
    def chain(rs, *spans):
        k = rootcore._span_root(rs, *spans)
        return None if k is None else rs.positive_roots[k]

    n = rs.rank
    alpha = rs.simple_roots
    pairs = []
    for i in range(1, n - 1):
        chain_in2 = chain(rs, (i, n - 2))                   # ε_i − ε_{n-1}
        chain_i1_n1 = chain(rs, (i + 1, n - 1))             # ε_{i+1} − ε_n
        forked_i1 = chain(rs, (i + 1, n - 2), (n, n))       # ε_{i+1} + ε_n
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
                    and ref_root_add(rs, a, b) is not None):
                pairs.append((a, b))
    return pairs


def ref_normalize_type_D(real):
    """Rescale a type-D realization by signs so the six families of
    structure constants of ``ref_d_normalization_pairs`` all equal +1, for
    every row index at once: with all those constants ±1 this is a linear
    system over GF(2) on sign exponents.  The rescaled root vectors are
    built and validated as a new realization."""
    rs = real.rs
    assert rs.lie_type == "D"
    targets = ref_d_normalization_pairs(rs)
    rows_gf2, rhs = [], []
    for a, b in targets:
        ia, ib = rs.root_index(a), rs.root_index(b)
        m = real.constants[ia][ib]
        assert abs(m) == 1, (a, b, m)
        row = [0] * rs.num_positive
        for k in (ia, ib, rs.root_index(ref_root_add(rs, a, b))):
            row[k] ^= 1
        rows_gf2.append(row)
        rhs.append(0 if m == 1 else 1)
    solution = ref_gf2_solve(rows_gf2, rhs)
    assert solution is not None
    # all_roots lists the negative roots in the order of the positive ones
    normalized = liealg.ChevalleyRealization(rs, tuple(
        sp_scale(mat, -1 if flip else 1)
        for mat, flip in zip(real.root_vectors, solution * 2)))
    for a, b in targets:
        assert constant(normalized, a, b) == 1, (a, b)
    return normalized


def ref_old_signs(real):
    """The realization with every root vector's first entry by row (its
    anchor) +1: the signs the type-D build used before it applied the sign
    rule."""
    return liealg.ChevalleyRealization(real.rs, tuple(
        sp_scale(mat, mat[min(mat)]) for mat in real.root_vectors))


def test_normalize_type_d_pinned_constants():
    """Two constants the normalization pins are +1 as built."""
    rs = RootSystem("D", 4)
    real = build_chevalley(rs)
    chain12 = parse_root(rs, "1,1,0,0")      # α_1 + α_2
    alpha3 = rs.simple_roots[2]
    assert constant(real, chain12, alpha3) == 1
    chain23 = parse_root(rs, "0,1,1,0")      # α_2 + α_3
    alpha4 = rs.simple_roots[3]
    assert constant(real, chain23, alpha4) == 1


@pytest.mark.parametrize("rank", range(3, 13))
def test_type_d_build_is_normalized(rank):
    """The built type-D realization is a fixed point of the reference
    normalizer, and normalizing the old signs gives it back; from D4 on
    those signs differ.  D3 is the trap: its one pinned pair is
    (α_1, α_2), so flipping α_1 there would break it."""
    rs = RootSystem("D", rank)
    real = build_chevalley(rs)
    old = ref_old_signs(real)
    assert ref_normalize_type_D(real).root_vectors == real.root_vectors
    assert ref_normalize_type_D(old).root_vectors == real.root_vectors
    assert (old.root_vectors == real.root_vectors) == (rank == 3)


def test_normalize_type_d_idempotent():
    rs = RootSystem("D", 4)
    once = ref_normalize_type_D(ref_old_signs(build_chevalley(rs)))
    twice = ref_normalize_type_D(once)
    assert all(a == b for a, b in zip(once.root_vectors, twice.root_vectors,
                                      strict=True))


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_normalize_type_d_equals_validated_rebuild(rank):
    """The rescaled realization equals a full, validated construction from
    the same sign-rescaled root vectors."""
    rs = RootSystem("D", rank)
    real = ref_old_signs(build_chevalley(rs))
    norm = ref_normalize_type_D(real)
    vectors = []
    for mat, normed in zip(real.root_vectors, norm.root_vectors):
        anchor = min(mat)
        sign = normed[anchor] // mat[anchor]
        assert sign in (1, -1)
        vectors.append({pos: sign * v for pos, v in mat.items()})
    ref = liealg.ChevalleyRealization(rs, tuple(vectors))
    assert norm.root_vectors == ref.root_vectors
    assert norm.constants == ref.constants
    assert norm.cartan_basis == ref.cartan_basis


def test_type_d_verify_lemmata_builds_one_realization(capsys, monkeypatch):
    """Work count: a type-D ``verify-lemmata`` checks the realization it
    builds, with no second, re-signed one."""
    built = []
    original = liealg.ChevalleyRealization.__init__

    def counted(self, rs, vectors):
        built.append(rs)
        original(self, rs, vectors)

    monkeypatch.setattr(liealg.ChevalleyRealization, "__init__", counted)
    assert main(["verify-lemmata", "--type", "D", "--rank", "5",
                 "--trials", "2"]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_type_d_sign_rule_without_alpha_1_flip_exits_2(capsys, monkeypatch):
    """The block check guards the sign rule: with the flip of E_{±α_1}
    undone, ``verify-lemmata`` D5 still prints its report, fails
    ``type_d_block`` and exits 2."""
    original = liealg._root_vectors

    def without_alpha_1_flip(rs):
        vectors = list(original(rs))
        for root in (rs.simple_roots[0], -rs.simple_roots[0]):
            k = rs.root_index(root)
            vectors[k] = sp_scale(vectors[k], -1)
        return tuple(vectors)

    monkeypatch.setattr(liealg, "_root_vectors", without_alpha_1_flip)
    code = main(["verify-lemmata", "--type", "D", "--rank", "5",
                 "--trials", "2"])
    out = capsys.readouterr().out
    assert code == 2
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert status.pop("type_d_block") == "fail"
    assert set(status.values()) == {"pass"}


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_type_d_block_fails_on_other_signs(rank):
    """``verify_lemmata`` checks the realization it is given: on the old
    signs the type-D block check fails, and every other check passes."""
    real = ref_old_signs(build_chevalley(RootSystem("D", rank)))
    report = verify_lemmata(real)
    assert not report.passed
    assert [c.name for c in report.checks if c.status == "fail"] == [
        "type_d_block"]


def test_type_d_block_pins_d3(capsys, monkeypatch):
    """D3 has no 3×3 block, only its pinned constants: with E_{±α_1}
    negated there too, m(α_1, α_2) is −1, so ``verify-lemmata`` D3 fails
    ``type_d_block``, naming the row and the two roots, and exits 2."""
    original = liealg._root_vectors

    def alpha_1_flipped(rs):
        vectors = list(original(rs))
        for root in (rs.simple_roots[0], -rs.simple_roots[0]):
            k = rs.root_index(root)
            vectors[k] = sp_scale(vectors[k], -1)
        return tuple(vectors)

    monkeypatch.setattr(liealg, "_root_vectors", alpha_1_flipped)
    code = main(["verify-lemmata", "--type", "D", "--rank", "3",
                 "--trials", "2"])
    report = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in report["checks"]}
    assert code == 2
    assert checks.pop("type_d_block")["counterexample"] == {
        "row": 1, "alpha": "1,0,0", "beta": "0,1,0", "constant": "-1",
        "reason": "pinned structure constant is not +1"}
    assert {c["status"] for c in checks.values()} == {"pass"}


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_type_d_block_checks_every_pinned_constant(rank):
    """Each constant ``ref_d_normalization_pairs`` lists (4 on D3, 10 on
    D4, 16 on D5, counted with repeats) is checked: set to −1 alone, it
    fails the block check, which names it."""
    pairs = ref_d_normalization_pairs(RootSystem("D", rank))
    assert len(pairs) == {3: 4, 4: 10, 5: 16}[rank]
    named = 0
    for a, b in pairs:
        real = build_chevalley(RootSystem("D", rank))
        set_constant(real, a, b, -1)
        ce = liealg._check_type_d_block(real)
        assert ce is not None, (a, b)
        if "constant" in ce:
            assert (ce["alpha"], ce["beta"]) == (format_root(a),
                                                 format_root(b))
            named += 1
    assert named == len(pairs)


def ref_check_type_d_block(real, trials, seed):
    """The type-D block check as it stood with seeded regular N: the 3×3
    middle block of −ad(N) on each stage pairing two full rows compared
    with its normalized form per trial, then the pinned constants.
    Module-level helpers are looked up on ``liealg``."""
    rs = real.rs
    if rs.lie_type != "D":
        return None
    n = rs.rank
    simple = rs._simple_index
    span = rootcore._span_root
    blocks = [(i, [span(rs, (i + 1, n)), span(rs, (i, n - 1)),
                   span(rs, (i, n - 2), (n, n))],
               [span(rs, (i + 1, n - 1)), span(rs, (i + 1, n - 2), (n, n)),
                span(rs, (i, n - 2))])
              for i in range(1, n - 2)]
    for t in range(trials):
        cf = ref_random_coeffs(rs, ref_rng(seed, f"dblock:{t}"),
                                   regular=True)
        for i, row_targets, col_roots in blocks:
            block = [[-v for v in line] for line in
                     liealg._ad_block(real, cf, row_targets, col_roots)]
            na = cf.get(simple[i - 1], 0)
            nb = cf.get(simple[n - 2], 0)
            nc = cf.get(simple[n - 1], 0)
            if block != [[nc, nb, 0], [-na, 0, nb], [0, -na, nc]]:
                return {"trial": t, "stage": i, "block": [
                            [str(x) for x in line] for line in block],
                        "reason": "block deviates from the normalized form"}
    for a, b in ref_d_normalization_pairs(rs):
        if constant(real, a, b) != 1:
            return {"alpha": format_root(a), "beta": format_root(b),
                    "reason": "pinned structure constant is not +1"}
    return None


@pytest.mark.parametrize("rank", range(3, 9))
def test_type_d_block_fails_exactly_when_the_sampled_blocks_do(rank):
    """Under seeded antisymmetric corruptions of the constants, one to
    three at a time and half of them on pinned constants, the check that
    reads the pinned constants fails exactly when the reference, which
    also compares the block of seeded regular N, fails: the block reads
    nothing else."""
    rs = RootSystem("D", rank)
    real = build_chevalley(rs)
    built = real.constants
    pinned = [(rs.root_index(a), rs.root_index(b))
              for a, b in ref_d_normalization_pairs(rs)]
    sums = [(a, b) for a, line in enumerate(rs._sum_pairs) for b, _ in line]
    rng = random.Random(f"dblock-corrupt:{rank}")
    verdicts = set()
    for _ in range(40):
        table = [list(line) for line in built]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(pinned if rng.random() < 0.5 else sums)
            v = rng.choice([-2, -1, 0, 1, 2])
            table[a][b], table[b][a] = v, -v
        real.constants = tuple(map(tuple, table))
        fails = liealg._check_type_d_block(real) is not None
        assert fails == (ref_check_type_d_block(real, 2, rank) is not None)
        verdicts.add(fails)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# verify_lemmata
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lie_type,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_verify_lemmata_small_systems(lie_type, rank):
    real = build_chevalley(RootSystem(lie_type, rank))
    report = verify_lemmata(real)
    assert report.passed, [c for c in report.checks if c.status == "fail"]
    assert [c.name for c in report.checks] == [
        "row_structure", "factorization_count", "near_linearity",
        "psi_invariance", "type_d_coefficients", "containment_first_entry",
        "type_d_block"]
    # the library report holds the verdicts alone; the CLI adds the echoed
    # seed and trial count
    assert report.to_record() == {"checks": [
        {"name": c.name, "status": "pass", "counterexample": None}
        for c in report.checks]}


def test_c3_row_structure():
    """Rows 1 and 2 of C3 are Heisenberg with their long roots; row 3 is
    abelian."""
    rs = RootSystem("C", 3)
    table = stage_table(rs)
    for i in range(1, 4):
        row = _row_roots(rs, i)
        sums = {ref_root_add(rs, a, b) for a in row for b in row} - {None}
        if i < 3:
            assert sums == {rs.positive_roots[table.long_roots[i - 1]]}
        else:
            assert sums == set()


def set_constant(real, a, b, value):
    """Replace the one stored m_{a,b} of a realization by ``value``."""
    rs = real.rs
    table = [list(line) for line in real.constants]
    table[rs.root_index(a)][rs.root_index(b)] = value
    real.constants = tuple(map(tuple, table))


def _root_moved_to_row(real, text, row):
    """Move the root ``text`` into row ``row`` of the stage table, keeping
    each row in row basis order (descending index)."""
    rs = real.rs
    table = stage_table(rs)
    k = rs.root_index(parse_root(rs, text))
    rows = tuple(tuple(sorted(set(r) - {k} | ({k} if i == row else set()),
                              reverse=True))
                 for i, r in enumerate(table.rows, start=1))
    rs._stages_cache = StageTable(rows, table.stages, table.long_roots,
                                  table.masks)


def _long_root_named(real, row, text):
    """Name the root ``text`` as the long root of row ``row``."""
    rs = real.rs
    table = stage_table(rs)
    long_roots = list(table.long_roots)
    long_roots[row - 1] = rs.root_index(parse_root(rs, text))
    rs._stages_cache = StageTable(table.rows, table.stages,
                                  tuple(long_roots), table.masks)


def _zero_c3_pairing(real):
    """Set m(α1+α2, α1+α2+α3) of C3 to 0, leaving m(α1+α2+α3, α1+α2)."""
    rs = real.rs
    set_constant(real, parse_root(rs, "1,1,0"), parse_root(rs, "1,1,1"), 0)


# One seeded fault per reason of the row-structure check, with the system
# it is seeded in and the rest of the counterexample it must give.
_ROW_STRUCTURE_FAULTS = {
    "abelian row with a root sum": (
        ("A", 3), lambda real: _root_moved_to_row(real, "0,1,0", 1),
        {"row": 1, "alpha": "1,0,0", "beta": "0,1,0"}),
    "Heisenberg bracket escapes the long root": (
        ("C", 3), lambda real: _long_root_named(real, 1, "1,2,1"),
        {"row": 1, "alpha": "1,2,1", "beta": "1,0,0"}),
    "derived algebra is zero": (
        ("C", 3), lambda real: _long_root_named(real, 3, "0,0,1"),
        {"row": 3}),
    "no Heisenberg partner": (
        ("C", 3), lambda real: _root_moved_to_row(real, "1,2,1", 2),
        {"row": 1, "alpha": "1,0,0"}),
    "ad X misses the long root": (
        ("C", 3), _zero_c3_pairing, {"row": 1, "alpha": "1,1,0"}),
}


@pytest.mark.parametrize("reason", sorted(_ROW_STRUCTURE_FAULTS))
def test_row_structure_names_each_fault(reason):
    """Each reason the row-structure check gives, under one seeded fault
    of the stage table or the constants, with its exact counterexample;
    the realization as built passes."""
    (lie_type, rank), fault, where = _ROW_STRUCTURE_FAULTS[reason]
    real = build_chevalley(RootSystem(lie_type, rank))
    assert liealg._check_row_structure(real) is None
    fault(real)
    ce = liealg._check_row_structure(real)
    assert list(ce.items()) == [*where.items(), ("reason", reason)]


def test_verify_lemmata_detects_degenerate_heisenberg_pairing():
    """A zero pairing constant onto a type-C long root leaves an X on the
    row whose bracket misses the long root: row_structure reads every
    pairing constant, so it fails."""
    real = build_chevalley(RootSystem("C", 3))
    _zero_c3_pairing(real)
    check = verify_lemmata(real).checks[0]
    assert (check.name, check.status) == ("row_structure", "fail")
    assert check.counterexample == {
        "row": 1, "alpha": "1,1,0", "reason": "ad X misses the long root"}


def test_psi_cross_check_detects_corrupted_table(real_c2):
    """The formula route of the row operator is checked against genuine
    matrix brackets; corrupting the stored constants must trip it."""
    rs = real_c2.rs
    real = build_chevalley(rs)
    a1, a2 = rs.simple_roots
    set_constant(real, a2, a1, 7)
    with pytest.raises(ConsistencyError):
        ref_psi_matrix(real, ref_sum_of_simple_vectors(rs), 1)


def test_verify_lemmata_detects_zeroed_constant():
    """Zeroing the structure constant behind a superdiagonal entry of the
    row operator breaks the first-nonzero-entry structure."""
    rs = RootSystem("B", 3)
    real = build_chevalley(rs)
    highest = parse_root(rs, "1,2,2")
    second = parse_root(rs, "1,1,2")
    a2 = rs.simple_roots[1]
    assert constant(real, a2, second)
    set_constant(real, a2, second, 0)
    report = verify_lemmata(real)
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert "containment_first_entry" in failed, (failed, highest)
    ce = next(c.counterexample for c in report.checks
              if c.name == "containment_first_entry")
    assert ce == ref_check_containment(real, 5, 3)


def ref_first_entry_faults(real, nn):
    """Per row root α of the sample N: None, or why its line in the row
    operator fails, with α − β found by coefficient arithmetic."""
    rs = real.rs
    coeffs = [r.coeffs for r in rs.all_roots]
    faults = {}
    for row in stage_table(rs).rows:
        for k, line in zip(row, liealg._ad_block(real, nn, row, row)):
            first = next((c for c, v in enumerate(line) if v), None)
            if first is None:
                faults[k] = "zero row for an excluded root"
            elif sum(coeffs[k]) - sum(coeffs[row[first]]) != 1:
                faults[k] = "first entry not at a simple difference"
            else:
                faults[k] = None
    return faults


def ref_check_containment(real, trials, seed):
    """The containment check root by root for every (N sample, space, w)
    triple, as it stood before the bitmask split, keyed by root index with
    α − β found by coefficient arithmetic.  Module-level helpers are looked
    up on ``liealg`` so that a monkeypatch reaches both paths."""
    rs = real.rs
    table = stage_table(rs).rows
    rows = [(i, row) for i, row in enumerate(table, start=1) if row]
    samples = [dict.fromkeys(rs._simple_index, 1)]
    for t in range(min(trials, 3)):
        samples.append(ref_random_coeffs(
            rs, ref_rng(seed, f"cont:{t}"), regular=True))
    coeffs = [r.coeffs for r in rs.all_roots]

    def positive_difference(a, b):
        """The index of the root α − β when it is a positive root."""
        d = tuple(x - y for x, y in zip(coeffs[a], coeffs[b]))
        return rs._index[d] if d in rs._index and min(d) >= 0 else None

    # per row root α: the simple roots α_j (1-based j) with α − α_j a
    # positive root, and the index of that root
    simple_diffs = {
        k: [(j, d) for j, a in enumerate(rs._simple_index, start=1)
            if (d := positive_difference(k, a)) is not None]
        for _, row in rows for k in row}
    elements = [(w, w.inverse_root_permutation(), ref_inversion_indices(w))
                for w in enumerate_weyl(rs)]
    spaces = enumerate_hessenberg(rs)
    for nn in samples:
        faults = ref_first_entry_faults(real, nn)
        for space in spaces:
            members = (frozenset(range(rs.num_positive))
                       | {rs.root_index(b) for b in space.negative_part})
            for w, inv_perm, inversions in elements:
                if not liealg.cell_nonempty(w, space):
                    continue
                for i, row in rows:
                    for k in row:
                        if inv_perm[k] in members:
                            continue
                        ce = {"word": list(w.word), "row": i,
                              "alpha": rs._texts[k]}
                        if faults[k] == "zero row for an excluded root":
                            return {"hessenberg": sorted(
                                        format_root(r) for r in
                                        space.negative_part),
                                    **ce, "reason": faults[k]}
                        if faults[k] is not None:
                            return {**ce, "reason": faults[k]}
                        for j, d in simple_diffs[k]:
                            if d not in inversions:
                                return {**ce, "simple": j,
                                        "reason": "simple-difference root "
                                                  "escapes the inversion set"}
    return None


def _realization(lie_type, rank):
    return build_chevalley(RootSystem(lie_type, rank))


def ref_psi_entries(real, coeffs, i):
    """The row operator of row i from coefficient-vector arithmetic, as it
    stood before the positive-root difference table."""
    rs = real.rs
    order = _row_roots(rs, i)
    mat = []
    for alpha in order:
        line = []
        for beta in order:
            d = tuple(x - y for x, y in zip(alpha.coeffs, beta.coeffs))
            if d in rs._index and all(c >= 0 for c in d):
                diff = Root(d)
                line.append(constant(real, diff, beta) * coeffs.get(diff, 0))
            else:
                line.append(0)
        mat.append(line)
    return order, mat


def ref_linear_stage_matrix(real, current, cons, vars_):
    """The linear system of one witness stage from coefficient-vector
    arithmetic, as it stood before the positive-root difference table:
    entry (α, γ) is m_{γ,α−γ} times the coefficient of α − γ in M."""
    rs = real.rs
    a = []
    b = []
    for alpha in cons:
        line = []
        for gamma in vars_:
            d = tuple(x - y for x, y in zip(alpha.coeffs, gamma.coeffs))
            if d in rs._index and all(c >= 0 for c in d):
                diff = Root(d)
                line.append(constant(real, gamma, diff)
                            * current.get(rs.root_index(diff), 0))
            else:
                line.append(0)
        a.append(line)
        b.append(-current.get(rs.root_index(alpha), 0))
    return a, b


@pytest.mark.parametrize("lie_type,rank",
                         REALIZABLE + [("A", 5), ("D", 5)])
def test_ad_block_equals_coefficient_arithmetic(lie_type, rank):
    """For seeded random nilpotents, the row operators read from the
    positive-root table equal the reference, and the witness stage matrix
    (rows: constraint roots, columns: variable roots) is the same block of
    ad(N) negated."""
    real = _realization(lie_type, rank)
    rs = real.rs
    table = stage_table(rs)
    stages = [([rs.positive_roots[k] for k in cons],
               [rs.positive_roots[k] for k in vars_])
              for vars_, cons in table.stages]
    for t in range(3):
        current = ref_random_coeffs(rs, ref_rng(7, f"adblock:{t}"),
                                        regular=t > 0)
        roots = ref_from_index_coeffs(real, current)
        for i, row in enumerate(table.rows, start=1):
            if row:
                assert ((_row_roots(rs, i),
                         liealg._ad_block(real, current, row, row))
                        == ref_psi_entries(real, roots, i))
        for cons, vars_ in stages:
            ref_a, _ = ref_linear_stage_matrix(real, current, cons, vars_)
            block = liealg._ad_block(real, current,
                                     [rs.root_index(r) for r in cons],
                                     [rs.root_index(r) for r in vars_])
            assert [[-v for v in line] for line in block] == ref_a


@pytest.mark.parametrize("seed", [3, 2027])
@pytest.mark.parametrize("lie_type,rank,trials",
                         [(t, r, 3) for t, r in REALIZABLE]
                         + [("A", 5, 1), ("D", 5, 1)])
def test_containment_equals_reference(lie_type, rank, trials, seed):
    real = _realization(lie_type, rank)
    got = liealg._check_containment(real)
    assert got == ref_check_containment(real, trials, seed)


def _zero_simple_constants(real, j):
    """Set every constant m(α_j, ·) of a realization to 0, and m(·, α_j)
    with it, so that the table stays antisymmetric.  Entry (α, β) of a row
    operator is m_{α−β,β}·n_{α−β}, so every N then reads as if its
    coefficient at α_j were 0, which no regular N is."""
    a = real.rs._simple_index[j - 1]
    table = [[0 if a in (b, c) else m for c, m in enumerate(line)]
             for b, line in enumerate(real.constants)]
    real.constants = tuple(map(tuple, table))


@pytest.mark.parametrize("sampler", ["sum_of_simple_vectors",
                                     "_random_nilpotent"])
@pytest.mark.parametrize("lie_type,rank,zeroed",
                         [("A", 3, 2), ("B", 3, 3), ("C", 3, 1), ("D", 4, 4)])
def test_containment_zero_simple_coefficient_matches_reference(
        monkeypatch, lie_type, rank, zeroed, sampler):
    """With every constant m(α_j, ·) zero, containment fails with a zero
    row: both paths name the same first counterexample, and the failing
    run, like a passing one, never calls the cell kernel (each w is tested
    once, in its smallest space, by one AND).  The named root fails for
    the N the parameter names too (the sum of the simple vectors, or a
    seeded regular one): its line is zero or starts off a simple
    difference."""
    real = _realization(lie_type, rank)
    rs = real.rs
    _zero_simple_constants(real, zeroed)
    monkeypatch.setattr(liealg, "cell_nonempty",
                        lambda *_: pytest.fail("the cell kernel ran"))
    got = liealg._check_containment(real)
    monkeypatch.undo()          # the reference tests each cell
    assert got is not None
    assert got["reason"] == "zero row for an excluded root"
    assert got == ref_check_containment(real, 3, 5)
    nn = (dict.fromkeys(rs._simple_index, 1)
          if sampler == "sum_of_simple_vectors"
          else ref_random_coeffs(rs, ref_rng(5, "cont:0"), regular=True))
    alpha = rs.root_index(parse_root(rs, got["alpha"]))
    assert ref_first_entry_faults(real, nn)[alpha] is not None


@pytest.mark.parametrize("lie_type,rank", [("A", 3), ("B", 3), ("C", 3),
                                           ("D", 4)])
def test_containment_reads_no_inversion_set(monkeypatch, lie_type, rank):
    """The inversion-set clause is a theorem of b-stability
    (``test_containment_theorem_on_every_smallest_space``), so the check
    reads no inversion set and no lower cover: with
    ``WeylElement.inversion_mask`` refused and ``rs._covers`` deleted once
    the spaces are enumerated, it passes on the built realization, and
    with every constant m(α_2, ·) zero it names the reference's zero-row
    counterexample."""
    real = _realization(lie_type, rank)
    rs = real.rs
    enumerate_hessenberg(rs)    # growing the ideals reads the lower covers
    monkeypatch.setattr(WeylElement, "inversion_mask",
                        lambda w: pytest.fail("an inversion set was built"))
    monkeypatch.delattr(rs, "_covers")
    assert liealg._check_containment(real) is None
    _zero_simple_constants(real, 2)
    got = liealg._check_containment(real)
    monkeypatch.undo()          # the reference reads every inversion set
    assert got is not None
    assert got["reason"] == "zero row for an excluded root"
    assert got == ref_check_containment(real, 3, 5)


def _sampled_fault_union(real, samples):
    """The union of the reference fault maps of ``samples``, each root with
    the reason of the first sample that flags it."""
    union = {}
    for nn in samples:
        for k, reason in ref_first_entry_faults(real, nn).items():
            if reason is not None:
                union.setdefault(k, reason)
    return union


@pytest.mark.parametrize("lie_type,rank", REALIZABLE)
def test_first_entry_faults_match_reference(lie_type, rank):
    """The fault map names each failing row root with the reference's
    reason, over the four samples of a check with three trials: the sum
    of the simple vectors, whose reason a root keeps, then three seeded
    regular ones."""
    real = _realization(lie_type, rank)
    rs = real.rs
    samples = [dict.fromkeys(rs._simple_index, 1)] + [
        ref_random_coeffs(rs, ref_rng(5, f"cont:{t}"), regular=True)
        for t in range(3)]
    assert liealg._first_entry_faults(real) == _sampled_fault_union(
        real, samples)


# every system of rank <= 8 and the four classical systems of rank 12
_FAULT_MAP_SYSTEMS = ([("A", r) for r in range(1, 9)]
                      + [(t, r) for t in "BC" for r in range(2, 9)]
                      + [("D", r) for r in range(3, 9)]
                      + [(t, 12) for t in "ABCD"])


@pytest.mark.parametrize("lie_type,rank", _FAULT_MAP_SYSTEMS)
def test_first_entry_faults_equal_the_sampled_union(lie_type, rank):
    """The fault map, decided for every regular N at once, is the union of
    the reference maps of the sum of the simple vectors and nine seeded
    regular samples, reasons included."""
    real = _realization(lie_type, rank)
    rs = real.rs
    samples = [dict.fromkeys(rs._simple_index, 1)] + [
        ref_random_coeffs(rs, ref_rng(1, f"cont:{t}"), regular=True)
        for t in range(9)]
    assert liealg._first_entry_faults(real) == _sampled_fault_union(
        real, samples)


# failing runs of the sweep below, of 40 corrupted realizations each: 106
# of the 320 fail
_SWEEP_FAILURES = {"A3": 19, "A4": 19, "B3": 16, "B4": 15, "C3": 9, "C4": 10,
                   "D4": 12, "D5": 6}


@pytest.mark.parametrize("lie_type,rank", [
    ("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4),
    ("D", 5)])
def test_containment_equals_sampled_reference_on_corrupted_constants(
        lie_type, rank):
    """Forty seeded corruptions per system, each of two constants m_{a,b}
    with a + b a positive root, set antisymmetrically to 0, −1 or 2: the
    exact check gives the verdict of the sampled reference at three
    trials, and the same counterexample where it fails.  The reference
    reads the realization only through the fault maps of its four samples,
    so corruptions with the same maps share one reference run."""
    real = _realization(lie_type, rank)
    rs = real.rs
    sums = [(a, b) for a, line in enumerate(rs._sum_pairs) for b, _ in line]
    built = real.constants
    samples = [dict.fromkeys(rs._simple_index, 1)] + [
        ref_random_coeffs(rs, ref_rng(2027, f"cont:{t}"), regular=True)
        for t in range(3)]
    want = {}                   # the sampled fault maps -> reference result
    rng = random.Random(f"containment-corrupt:{lie_type}{rank}")
    failures = 0
    for _ in range(40):
        table = [list(line) for line in built]
        for a, b in rng.sample(sums, 2):
            value = rng.choice((0, -1, 2))
            table[a][b], table[b][a] = value, -value
        real.constants = tuple(map(tuple, table))
        maps = repr([ref_first_entry_faults(real, nn) for nn in samples])
        if maps not in want:
            want[maps] = ref_check_containment(real, 3, 2027)
        got = liealg._check_containment(real)
        assert got == want[maps]
        if got is not None:
            assert got["reason"] == "zero row for an excluded root"
            failures += 1
    assert failures == _SWEEP_FAILURES[f"{lie_type}{rank}"]


@pytest.mark.parametrize("lie_type,rank", [("A", 3), ("B", 3), ("C", 3),
                                           ("D", 4)])
def test_containment_mask_without_failing_cell_raises(monkeypatch, lie_type,
                                                      rank):
    """With every smallest space reported as the Borel, the cell of s_1,
    the first w with a negative root in ``w.sm``, is empty in the space
    reported: the check refuses to pass or to name a cell, and names the
    system and the word."""
    real = _realization(lie_type, rank)
    borel = borel_space(real.rs).hm
    monkeypatch.setattr(liealg, "smallest_containing", lambda rs, mask: borel)
    with pytest.raises(ConsistencyError, match=fr"^{lie_type}{rank} word "
                       r"\[1\]: the smallest space with a nonempty cell is "
                       "not an enumerated space holding it$"):
        liealg._check_containment(real)


# the 20 systems of rank <= 6
_RANK_6 = ([("A", r) for r in range(1, 7)] + [(t, r) for t in "BC"
           for r in range(2, 7)] + [("D", r) for r in range(3, 7)])


@pytest.mark.parametrize("lie_type,rank", _RANK_6)
def test_containment_theorem_on_every_smallest_space(lie_type, rank):
    """The statement ``_check_containment`` proves by b-stability, over
    every w in its smallest space: no root outside wΦ_H has a positive
    α − α_j outside Φ_w, and the roots outside wΦ_H, over all w, are
    exactly the non-simple positive roots."""
    rs = RootSystem(lie_type, rank)
    excluded = 0
    for w in enumerate_weyl(rs):
        outside = _outside_mask(w, smallest_containing(rs, w.sm))
        escaped = ~w.inversion_mask()
        assert not [k for k in range(rs.num_positive)
                    if outside >> k & 1 and rs._covers[k] & escaped], w
        excluded |= outside
    simple = sum(1 << k for k in rs._simple_index)
    assert excluded == (1 << rs.num_positive) - 1 & ~simple


@pytest.mark.parametrize("reason", ["zero row for an excluded root",
                                    "first entry not at a simple difference"])
def test_containment_counterexample_key_order(reason):
    """verify-lemmata prints a counterexample as JSON in its key order,
    which dict equality does not compare."""
    lie_type, rank = ("C", 3) if reason.startswith("first") else ("A", 3)
    real = _realization(lie_type, rank)
    rs = real.rs
    if reason.startswith("zero"):
        _zero_simple_constants(real, 2)
    else:
        # row 1 out of row basis order: some root's line starts at a
        # difference that is not simple
        table = stage_table(rs)
        rows = (table.rows[0][::-1],) + table.rows[1:]
        rs._stages_cache = StageTable(rows, table.stages, table.long_roots,
                                      table.masks)
    got = liealg._check_containment(real)
    want = ref_check_containment(real, 3, 5)
    assert got["reason"] == reason
    assert got == want and list(got) == list(want)
    if reason.startswith("first"):
        assert list(got) == ["word", "row", "alpha", "reason"]


# ---------------------------------------------------------------------------
# the integer lemma kernels against the rational ones they replaced
# ---------------------------------------------------------------------------

# The bracket, the Fraction-based adjoint exponential and the three lemma
# checks built on them, as they stood before the checks compared scaled
# integers; module-level helpers are looked up on ``liealg``.

def ref_ibracket(real, a, b):
    """[A, B] for coefficient maps supported on the positive roots."""
    m = real.constants
    out = {}
    for i, x in a.items():
        mi = m[i]
        for j, y in b.items():
            k = ref_pos_sum(real.rs, i, j)
            if k is not None:
                w = out.get(k, 0) + mi[j] * x * y
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
    return out


def ref_iad_exp(real, x, n):
    """Ad(exp X)(N) = Σ ad(X)^k(N)/k! in coefficient space; exact."""
    out = dict(n)
    term = n
    for k in range(1, 4 * real.rs.num_positive + 2):
        term = ref_ibracket(real, x, term)
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
    raise ConsistencyError("adjoint exponential series failed to terminate")


def test_unending_adjoint_series_names_the_system(monkeypatch, real_a2):
    """An adjoint series that never reaches zero (a bracket that is never
    nilpotent) is refused after its bound, naming the system."""
    monkeypatch.setattr(liealg, "_ibracket", lambda real, x, n: {0: 1})
    with pytest.raises(ConsistencyError, match="^A2: adjoint exponential "
                       "series failed to terminate$"):
        liealg._iad_exp(real_a2, {0: 1}, {0: 1})


def ref_check_near_linearity(real, trials, seed):
    rs = real.rs
    n = rs.rank
    table = liealg.stage_table(rs)
    row_idx = [frozenset(row) for row in table.rows]
    for t in range(trials):
        rng = ref_rng(seed, f"nl:{t}")
        ni = ref_random_coeffs(rs, rng, regular=False)
        for j in range(1, n + 1):
            if not row_idx[j - 1]:
                continue
            xi = ref_random_row_element(rs, rng, j)
            b1 = ref_ibracket(real, xi, ni)
            b2 = ref_ibracket(real, xi, b1)
            b3 = ref_ibracket(real, xi, b2)
            if b3:
                return {"trial": t, "row": j,
                        "reason": "cube of the adjoint action is nonzero"}
            lhs = ref_iad_exp(real, xi, ni)
            for i in range(1, n + 1):
                li = ref_project(lhs, row_idx[i - 1])
                base = ref_project(ni, row_idx[i - 1])
                lin = ref_project(b1, row_idx[i - 1])
                quad = ref_project(b2, row_idx[i - 1])
                if i > j:
                    expect = base
                elif i < j or rs.lie_type == "C":
                    expect = dict(base)
                    for k, v in lin.items():
                        expect[k] = expect.get(k, 0) + v
                    for k, v in quad.items():
                        expect[k] = expect.get(k, 0) + Fraction(v, 2)
                    expect = {k: v for k, v in expect.items() if v}
                    if (i == j and rs.lie_type == "C"
                            and set(quad) - {table.long_roots[i - 1]}):
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


def ref_check_psi_invariance(real, trials, seed):
    rs = real.rs
    table = liealg.stage_table(rs).rows
    for t in range(trials):
        rng = ref_rng(seed, f"psi:{t}")
        ni = ref_random_coeffs(rs, rng, regular=False)
        for i in range(2, rs.rank + 1):
            order = table[i - 1]
            if not order:
                continue
            before = liealg._ad_block(real, ni, order, order)
            for j in range(1, i):
                if not table[i - j - 1]:
                    continue
                moved = ref_iad_exp(
                    real, ref_random_row_element(rs, rng, i - j), ni)
                if liealg._ad_block(real, moved, order, order) != before:
                    return {"trial": t, "row": i, "conjugating_row": i - j,
                            "reason": "row operator changed under "
                                      "lower-row conjugation"}
    return None


def ref_check_type_d_coefficients(real, trials, seed):
    rs = real.rs
    if rs.lie_type != "D":
        return None
    table = liealg.stage_table(rs).rows
    pos = rs.positive_roots
    diff = rs._pos_diff
    m = real.constants
    for t in range(trials):
        rng = ref_rng(seed, f"dcoef:{t}")
        ni = ref_random_coeffs(rs, rng, regular=False)
        for i in range(1, rs.rank):
            conjugating = table[i]
            if not conjugating:
                continue
            xi = ref_random_row_element(rs, rng, i + 1)
            total = ref_iad_exp(real, xi, ni)
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
                if total.get(a, 0) != expect:
                    return {"trial": t, "row": i, "alpha": format_root(alpha),
                            "reason": "first coefficient formula mismatch"}
                trimmed = {r: v for r, v in xi.items()
                           if pos[r] == alpha
                           or not rootcore.dominates(alpha, pos[r])}
                if ref_iad_exp(real, trimmed, ni).get(a, 0) != ni.get(a, 0):
                    return {"trial": t, "row": i, "alpha": format_root(alpha),
                            "reason": "coefficient moved despite zero "
                                      "lower coordinates"}
    return None


KERNEL_SYSTEMS = REALIZABLE + [("A", 5), ("D", 5)]

_KERNEL_CHECKS = (
    ("_check_near_linearity", ref_check_near_linearity),
    ("_check_psi_invariance", ref_check_psi_invariance),
    ("_check_type_d_coefficients", ref_check_type_d_coefficients))


def _without_trial(ce):
    """A reference counterexample without its ``"trial"`` key, which the
    root-table checks, drawing no trials, do not report."""
    return None if ce is None else {k: v for k, v in ce.items()
                                    if k != "trial"}


def _random_index_coeffs(rs, rng, density):
    """Seeded nonzero coefficients on a random subset of the positive roots,
    index-keyed."""
    return {k: rng.choice([-3, -2, -1, 1, 2, 3])
            for k in range(rs.num_positive) if rng.random() < density}


def _assert_kernels_equal_reference(real, rng, trials, seed):
    rs = real.rs
    for _ in range(5):
        x = _random_index_coeffs(rs, rng, 0.4)
        n = _random_index_coeffs(rs, rng, 0.8)
        assert liealg._ibracket(real, x, n) == ref_ibracket(real, x, n)
        assert liealg._iad_exp(real, x, n) == ref_iad_exp(real, x, n)
        halves = {k: Fraction(v, 2) for k, v in x.items()}
        assert (liealg._iad_exp(real, halves, n)
                == ref_iad_exp(real, halves, n))
    for name, ref in _KERNEL_CHECKS:
        assert (getattr(liealg, name)(real)
                == _without_trial(ref(real, trials, seed))), name


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lie_type,rank", KERNEL_SYSTEMS)
def test_lemma_kernels_equal_reference(lie_type, rank, seed):
    real = _realization(lie_type, rank)
    _assert_kernels_equal_reference(
        real, random.Random(f"kernels:{seed}"), 3, seed)


@pytest.mark.parametrize("lie_type,rank", [s for s in KERNEL_SYSTEMS
                                           if s != ("A", 1)])
def test_lemma_kernels_equal_reference_on_corrupted_constants(lie_type,
                                                              rank):
    """Twelve seeded single-constant corruptions per system (A1 has no root
    sums to corrupt), each set to 0, negated or doubled: the kernels and the
    checks still return what the references return.  One constant does not
    change which sums are roots, so the checks pass here; the moved-root
    test below compares failing results."""
    real = _realization(lie_type, rank)
    rs = real.rs
    pos = rs.positive_roots
    sums = [(a, b) for a in range(rs.num_positive)
            for b in range(rs.num_positive)
            if ref_pos_sum(rs, a, b) is not None]
    built = real.constants
    rng = random.Random(f"corrupt:{lie_type}{rank}")
    for k in range(12):
        a, b = rng.choice(sums)
        m = built[a][b]
        set_constant(real, pos[a], pos[b], (0, -m, 2 * m)[k % 3])
        _assert_kernels_equal_reference(real, rng, 2, k)
        real.constants = built


@pytest.mark.parametrize("source_row", [1, 2])
@pytest.mark.parametrize("lie_type,rank", [("B", 3), ("C", 3), ("D", 4)])
def test_lemma_kernels_equal_reference_with_a_root_moved_a_row(
        lie_type, rank, source_row):
    """The first root of a row that is not its long root, moved to the next
    row of the stage table: from row 1 that fails near-linearity.  Each
    check fails whenever its reference fails at 1 trial for any seed
    0..9, and its counterexample is the reference's (without the trial)
    at one of those seeds."""
    real = _realization(lie_type, rank)
    rs = real.rs
    table = stage_table(rs)
    rows = [list(row) for row in table.rows]
    root = next(k for k in rows[source_row - 1]
                if k not in table.long_roots)
    rows[source_row - 1].remove(root)
    rows[source_row].append(root)
    rs._stages_cache = StageTable(tuple(map(tuple, rows)), table.stages,
                                  table.long_roots, table.masks)
    if source_row == 1:
        assert liealg._check_near_linearity(real) is not None
    for name, ref in _KERNEL_CHECKS:
        got = getattr(liealg, name)(real)
        wants = [_without_trial(ref(real, 1, seed)) for seed in range(10)]
        if any(wants):
            assert got is not None, name
        assert got in wants, name


ROOT_TABLE_SYSTEMS = ([(t, n) for t, low in (("A", 1), ("B", 2), ("C", 2),
                                              ("D", 3))
                       for n in range(low, 9)]
                      + [(t, 12) for t in "ABCD"])


@pytest.mark.parametrize("lie_type,rank", ROOT_TABLE_SYSTEMS)
def test_root_table_checks_pass_on_every_system(lie_type, rank):
    """Near-linearity, invariance and the type-D coefficients hold on the
    root tables of every system of rank at most 8, and of rank 12."""
    real = _realization(lie_type, rank)
    for name, _ in _KERNEL_CHECKS:
        assert getattr(liealg, name)(real) is None, name


def test_near_linearity_fails_with_an_a3_root_moved_down_a_row():
    """With 1,1,0 moved from row 1 to row 2 of A3, the bracket with X on
    row 1 reaches 1,1,0 in row 2, and the reach masks see it."""
    real = _realization("A", 3)
    _root_moved_to_row(real, "1,1,0", 2)
    checks = {c.name: c.counterexample for c in verify_lemmata(real).checks}
    assert checks["near_linearity"] == {
        "source_row": 1, "target_row": 2, "reason": "case formula mismatch"}


def test_near_linearity_fails_in_type_c_without_a_long_root():
    """With row 1 of C3 naming no long root, the square of the adjoint
    action on row 1 has nowhere to land in the row."""
    real = _realization("C", 3)
    rs = real.rs
    table = stage_table(rs)
    rs._stages_cache = StageTable(table.rows, table.stages,
                                  (None, *table.long_roots[1:]), table.masks)
    assert liealg._check_near_linearity(real) == {
        "row": 1, "reason": "quadratic part escapes the long root"}


def test_exp_refuses_a_matrix_that_is_not_nilpotent():
    """The swap matrix squares to the identity, so its exponential series
    never terminates and is refused."""
    with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
        sp_exp_nilpotent({(0, 1): 1, (1, 0): 1}, 2)


def test_root_table_checks_draw_and_bracket_nothing(monkeypatch):
    """The three root-table checks run with the bracket and the adjoint
    exponential refused, and on a faulted table ``verify_lemmata`` reports
    the counterexamples they return."""
    def refused(*_):
        raise AssertionError("a root-table check bracketed")

    faulted = {}                # the failing check -> its faulted realization
    for failing, (lie_type, rank, text, row) in {
            "near_linearity": ("A", 3, "1,1,0", 2),
            "psi_invariance": ("B", 3, "1,2,2", 2)}.items():
        faulted[failing] = _realization(lie_type, rank)
        _root_moved_to_row(faulted[failing], text, row)
    sound = _realization("D", 5)
    names = [name for name, _ in _KERNEL_CHECKS]
    for name in ("_ibracket", "_iad_exp"):
        monkeypatch.setattr(liealg, name, refused)
    assert [getattr(liealg, name)(sound) for name in names] == [None] * 3
    for failing, real in faulted.items():
        assert getattr(liealg, f"_check_{failing}")(real) is not None
        for name in names:
            getattr(liealg, name)(real)
    monkeypatch.undo()
    for failing, real in faulted.items():
        run = {f"_check_{c.name}": c.counterexample
               for c in verify_lemmata(real).checks
               if f"_check_{c.name}" in names}
        assert run == {name: getattr(liealg, name)(real) for name in names}
        assert run[f"_check_{failing}"] is not None


def _adjacent_row_moves(real):
    """Each root that is not a long root, moved one row up or down the
    stage table: (root text, target row) pairs."""
    rs = real.rs
    table = stage_table(rs)
    return [(rs._texts[k], target)
            for r in range(1, len(table.rows))
            for source, target in ((r, r + 1), (r + 1, r))
            for k in table.rows[source - 1] if k not in table.long_roots]


# α_1 moved into row 2: the reach masks meet a third power there, but its
# terms cancel, so no seeded trial of the references sees it
_CANCELLING_CUBES = {("B", 3, "1,0,0"), ("B", 4, "1,0,0,0"),
                     ("D", 4, "1,0,0,0"), ("D", 5, "1,0,0,0,0")}


def test_root_table_checks_fail_wherever_the_references_do():
    """Sweep every one-root move between adjacent rows of A3, A4, B3, B4,
    C3, C4, D4 and D5 (137 faults): each root-table check fails on every
    fault on which its reference fails at 3 trials and seed 0, since a
    nonzero coefficient has a nonempty support.  Where a check fails and
    its reference passes, the reference still passes at 50 trials only
    on the four faults whose cube cancels."""
    faults = 0
    stricter = set()
    for lie_type, rank in (("A", 3), ("A", 4), ("B", 3), ("B", 4),
                           ("C", 3), ("C", 4), ("D", 4), ("D", 5)):
        real = _realization(lie_type, rank)
        rs = real.rs
        table = stage_table(rs)
        for text, row in _adjacent_row_moves(real):
            faults += 1
            _root_moved_to_row(real, text, row)
            for name, ref in _KERNEL_CHECKS:
                got = getattr(liealg, name)(real)
                if ref(real, 3, 0) is not None:
                    assert got is not None, (lie_type, rank, text, row, name)
                elif got is not None and ref(real, 50, 0) is None:
                    stricter.add((lie_type, rank, text))
            rs._stages_cache = table
    assert faults == 137
    assert stricter == _CANCELLING_CUBES


def ref_type_d_coefficient_reach(rs, rows, pair_clause=True):
    """The evaluation ``liealg._check_type_d_coefficients`` made before its
    docstring proved it, on the stage-table rows ``rows`` of ``rs``: the
    (row i, root index) pairs of the row-i roots α that some power
    ad(X)^k(N), k >= 2, of an X on row i+1 reaches, that have coefficient
    < 2 at α_{i+1} and (with ``pair_clause``) that no two roots of row i+1
    leave α − β1 − β2 a positive root.  The check reported the first pair
    as its counterexample.  The proof uses no type, so this runs on any
    system and on any list of rows."""
    diff = rs._pos_diff
    out = []
    for i, conjugating in enumerate(rows[1:], start=1):
        higher = liealg._powers(rs, conjugating)[1:]   # ad(X)^k(N), k >= 2
        for a in rows[i - 1]:
            if (any(p >> a & 1 for p in higher)
                    and rs.positive_roots[a].coeffs[i] < 2
                    and (not pair_clause or all(
                        diff[a][b1] is None or diff[diff[a][b1]][b2] is None
                        for b1 in conjugating for b2 in conjugating))):
                out.append((i, a))
    return out


def test_type_d_coefficient_proof_on_every_built_table():
    """On the built tables of D3-D12 the old evaluation of the type-D
    coefficient lemma finds no root, as its proof says.  Its first two
    clauses alone keep exactly one row root per system (α_{n-2} + α_{n-1}
    + α_n in row n-2), so the pair clause is what excludes it."""
    for rank in range(3, 13):
        rs = RootSystem("D", rank)
        rows = stage_table(rs).rows
        assert ref_type_d_coefficient_reach(rs, rows) == [], rank
        (row, k), = ref_type_d_coefficient_reach(rs, rows, pair_clause=False)
        assert row == rank - 2, rank
        assert rs._texts[k] == ",".join("0" * (rank - 3) + "111"), rank


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_type_d_coefficient_proof_on_random_partitions(rank):
    """100 seeded random partitions of the positive roots of D_rank into
    rank rows: the old evaluation finds no root on any of them, though on
    most the first two clauses keep some root."""
    rs = RootSystem("D", rank)
    rng = random.Random(f"partition:D{rank}")
    decided = 0
    for _ in range(100):
        rows = [[] for _ in range(rank)]
        for k in range(rs.num_positive):
            rows[rng.randrange(rank)].append(k)
        assert ref_type_d_coefficient_reach(rs, rows) == [], rows
        decided += bool(ref_type_d_coefficient_reach(rs, rows,
                                                     pair_clause=False))
    assert decided >= 50


def test_type_d_coefficient_proof_on_every_moved_root_table():
    """Every move of one positive root to another row of A3, A4, B3, B4,
    C3, C4, D4 and D5 (290 tables, a superset of the tables the moved-root
    tests inject, long roots included): the old evaluation finds no root
    on any of them, though on 130 the first two clauses keep some root."""
    tables = decided = 0
    for lie_type, rank in (("A", 3), ("A", 4), ("B", 3), ("B", 4),
                           ("C", 3), ("C", 4), ("D", 4), ("D", 5)):
        rs = RootSystem(lie_type, rank)
        rows = stage_table(rs).rows
        for source, row in enumerate(rows):
            for k in row:
                for target in set(range(rank)) - {source}:
                    moved = [tuple(j for j in r if j != k)
                             + ((k,) if t == target else ())
                             for t, r in enumerate(rows)]
                    tables += 1
                    assert ref_type_d_coefficient_reach(rs, moved) == [], (
                        lie_type, rank, rs._texts[k], target + 1)
                    decided += bool(ref_type_d_coefficient_reach(
                        rs, moved, pair_clause=False))
    assert (tables, decided) == (290, 130)


def test_set_constant_reaches_the_bracket():
    """The bracket reads the constants at call time, so a replaced table
    reaches it."""
    rs = RootSystem("B", 3)
    real = build_chevalley(rs)
    a, b = rs.simple_roots[:2]
    ia, ib, isum = (rs.root_index(r)
                    for r in (a, b, ref_root_add(rs, a, b)))
    assert liealg._ibracket(real, {ia: 1}, {ib: 1}) == {
        isum: constant(real, a, b)}
    set_constant(real, a, b, 7)
    assert liealg._ibracket(real, {ia: 1}, {ib: 1}) == {isum: 7}
    assert liealg._ibracket(real, {ia: 2}, {ib: 3}) == {isum: 42}


@pytest.mark.parametrize("lie_type,rank", [("B", 4), ("D", 5)])
def test_lemma_checks_sort_rows_once(monkeypatch, lie_type, rank):
    """Work count: a whole lemma run on a fresh system builds the rows,
    and so their basis order, once, not once per row and trial."""
    calls = []
    original = rootcore._closed_form_index_rows

    def counted(rs):
        calls.append(rs)
        return original(rs)

    monkeypatch.setattr(rootcore, "_closed_form_index_rows", counted)
    rs = RootSystem(lie_type, rank)
    assert verify_lemmata(build_chevalley(rs)).passed
    assert len(calls) == 1


def test_verify_lemmata_refuses_group_over_budget_before_checks(monkeypatch):
    """A realization whose Weyl group is over the enumeration budget is
    refused before any check runs: D7 builds in milliseconds, and its
    322,560 Weyl elements are over the budget."""
    real = build_chevalley(RootSystem("D", 7))
    monkeypatch.setattr(liealg, "_check_row_structure",
                        lambda *_: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match="over the budget of 50000"):
        verify_lemmata(real)


@pytest.mark.parametrize("lie_type,rank", [("C", 3), ("D", 5)])
def test_containment_leaves_inversion_sets_unbuilt(monkeypatch, lie_type,
                                                   rank):
    """Work count: a passing containment check reads each Weyl element's
    inverse permutation and masks, and never builds a permutation: it
    builds no element through the checked constructor, the one place
    outside the tests where a permutation of the roots is inverted."""
    def refused(w, rs, perm):
        raise AssertionError("WeylElement constructor called")

    real = _realization(lie_type, rank)
    monkeypatch.setattr(WeylElement, "__init__", refused)
    assert liealg._check_containment(real) is None


def test_containment_tests_each_cell_at_most_once(monkeypatch):
    """Work count, not time: a passing containment check computes one
    smallest space per w and runs the cell kernel on no (space, w)
    pair."""
    calls = []
    closures = []

    def counted(w, space):
        calls.append(1)
        return cell_nonempty(w, space)

    def counted_closure(rs, mask):
        closures.append(mask)
        return smallest_containing(rs, mask)

    monkeypatch.setattr(liealg, "cell_nonempty", counted)
    monkeypatch.setattr(liealg, "smallest_containing", counted_closure)
    rs = RootSystem("C", 3)
    report = verify_lemmata(build_chevalley(rs))
    assert report.passed
    assert calls == []
    assert sorted(closures) == sorted(w.sm for w in enumerate_weyl(rs))


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_witness_identity_and_errors(real_a2):
    rs = real_a2.rs
    wit = find_witness(real_a2, parse_word(rs, ""), borel_space(rs))
    assert wit.verified and wit.stage_kernel_dims == (0, 0)
    assert all(not s for s in wit.stage_solutions)
    with pytest.raises(ValueError, match="empty"):
        find_witness(real_a2, parse_word(rs, "1"), borel_space(rs))
    with pytest.raises(ValueError, match="regular"):
        find_witness(real_a2, parse_word(rs, ""), borel_space(rs),
                     {rs.root_index(parse_root(rs, "1,1")): 1})


@pytest.mark.parametrize("slot,kind", [(0, "ChevalleyRealization"),
                                       (1, "WeylElement"),
                                       (2, "HessenbergSpace")])
def test_witness_refuses_wrong_typed_argument_by_name(real_a2, slot, kind):
    """The int 5 in the realization, Weyl-element or space slot is a
    ValueError naming it, raised before any attribute is read; it once ended
    in a bare AttributeError."""
    rs = real_a2.rs
    args = [real_a2, parse_word(rs, ""), borel_space(rs)]
    args[slot] = 5
    with pytest.raises(ValueError, match=f"^5 is not a {kind}$"):
        find_witness(*args)


def test_witness_refuses_arguments_from_two_root_systems(real_a2):
    b2 = RootSystem("B", 2)
    with pytest.raises(ValueError, match="must share one root system"):
        find_witness(real_a2, parse_word(b2, ""), borel_space(real_a2.rs))
    with pytest.raises(ValueError, match="must share one root system"):
        find_witness(real_a2, parse_word(real_a2.rs, ""), borel_space(b2))


# N maps for A2, built from its simple-root indices s1, s2 and the number of
# positive roots p, each refused by find_witness with the message matched
_MALFORMED_N = {
    # True first, so that the int key 1 does not absorb it
    "bool key": (lambda s1, s2, p: {True: 1, s1: 1, s2: 1},
                 "N must be keyed by positive-root indices 0..2, got True"),
    "negative-root key": (lambda s1, s2, p: {s1: 1, s2: 1, p: 1},
                          "N must be keyed by positive-root indices 0..2, got 3"),
    "negative key": (lambda s1, s2, p: {s1: 1, s2: 1, -1: 1},
                     "N must be keyed by positive-root indices 0..2, got -1"),
    "root key": (lambda s1, s2, p: {s1: 1, s2: 1, Root((1, 1)): 1},
                 "N must be keyed by positive-root indices 0..2, got Root"),
    "float value": (lambda s1, s2, p: {s1: 1.0, s2: 1},
                    "coefficient 1.0 of N at "),
    "str value": (lambda s1, s2, p: {s1: 1, s2: "1"},
                  "coefficient '1' of N at "),
    "bool value": (lambda s1, s2, p: {s1: True, s2: 1},
                   "coefficient True of N at "),
    "list": (lambda s1, s2, p: [1, 1],
             "N must be a mapping from positive-root index to coefficient, "
             "got [1, 1]"),
    "pairs": (lambda s1, s2, p: [(s1, 1), (s2, 1)],
              "N must be a mapping from positive-root index to coefficient, "
              "got [("),
    "zero simple coefficient": (lambda s1, s2, p: {s1: 1, s2: 0},
                                "witness search requires a regular nilpotent"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_N))
def test_witness_refuses_malformed_nilpotent_before_solving(
        monkeypatch, real_a2, case):
    """An N that is not a Mapping (a list, even of pairs, once ended in a
    bare AttributeError), a key that is not a positive-root index (a bool
    is not an int), a coefficient that is not exactly an int or a
    Fraction, and a zero simple-root coefficient are refused with
    ValueError before any cell test or solve."""
    rs = real_a2.rs
    build, message = _MALFORMED_N[case]
    n = build(*rs._simple_index, rs.num_positive)
    assert rs.num_positive == 3

    def refused(*args):
        raise AssertionError("find_witness went past its input check")

    for name in ("cell_nonempty", "solve_affine", "_iad_exp"):
        monkeypatch.setattr(liealg, name, refused)
    with pytest.raises(ValueError) as exc:
        find_witness(real_a2, parse_word(rs, ""), borel_space(rs), n)
    assert str(exc.value).startswith(message)


def test_witness_refuses_floating_point_nilpotent_on_every_b3_cell():
    """Exact arithmetic throughout: an N with float coefficients is refused
    on every nonempty B3 cell, where it once verified most cells and ended
    in a bare TypeError on the others."""
    rs = RootSystem("B", 3)
    real = build_chevalley(rs)
    n = {k: 0.5 * (1 + k % 3) for k in range(rs.num_positive)}
    cells = 0
    for space in enumerate_hessenberg(rs):
        for w in enumerate_weyl(rs):
            if cell_nonempty(w, space):
                cells += 1
                with pytest.raises(ValueError, match="is not an int or a "
                                   "Fraction$"):
                    find_witness(real, w, space, n)
    assert cells == 273


def test_witness_a2_peterson(real_a2):
    rs = real_a2.rs
    pet = parse_hessenberg(rs, "h=2,3,3")
    w0 = parse_word(rs, "1 2 1")
    wit = find_witness(real_a2, w0, pet)
    assert wit.verified
    assert wit.stage_kernel_dims == (1, 1)
    assert wit.stage_kernel_dims == row_dimension_profile(w0, pet)


def test_witness_c2_full_space(real_c2):
    rs = real_c2.rs
    w0 = enumerate_weyl(rs)[-1]
    wit = find_witness(real_c2, w0, full_space(rs))
    assert wit.stage_kernel_dims == (3, 1)


@pytest.mark.parametrize("lie_type,rank",
                         [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_witness_exhaustive_small(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    real = build_chevalley(rs)
    for space in enumerate_hessenberg(rs):
        for w in enumerate_weyl(rs):
            if cell_nonempty(w, space):
                wit = find_witness(real, w, space)
                assert wit.verified
                assert wit.stage_kernel_dims == row_dimension_profile(w, space)


@pytest.mark.parametrize("lie_type,rank,sample",
                         [("B", 4, 25), ("C", 4, 25), ("D", 5, 15)])
def test_witness_sampled_high_rank(lie_type, rank, sample):
    """Beyond the exhaustive envelope: random cells at rank 4/5, where C has
    three Heisenberg rows and D has nontrivial fork parts in every stage."""
    import random
    rs = RootSystem(lie_type, rank)
    real = build_chevalley(rs)
    spaces = enumerate_hessenberg(rs)
    elems = enumerate_weyl(rs)
    rng = random.Random(f"sample:{lie_type}{rank}")
    pairs = [(s, w) for s in spaces for w in elems]
    rng.shuffle(pairs)
    checked = 0
    for space, w in pairs:
        if not cell_nonempty(w, space):
            continue
        wit = find_witness(real, w, space)
        assert wit.verified
        assert wit.stage_kernel_dims == row_dimension_profile(w, space)
        checked += 1
        if checked >= sample:
            break
    assert checked == sample


@pytest.mark.parametrize("lie_type,rank,sample", [
    pytest.param("B", 3, None, id="B-3-all"),
    pytest.param("C", 3, None, id="C-3-all"),
    pytest.param("D", 4, None, id="D-4-all"),
    ("D", 5, 100)])
def test_witness_random_regular_nilpotent(lie_type, rank, sample):
    """Seeded random regular N on every nonempty cell, or a sample of them:
    every witness is verified, and the stage solutions are not all zero,
    as they are for the sum of simple vectors, so a type-D stage that
    conjugates by one exponential is exercised.  Type D runs on the
    realization as built and on the old signs, so both sign choices are
    covered."""
    rs = RootSystem(lie_type, rank)
    real = build_chevalley(rs)
    rng = random.Random(f"witness-n:{lie_type}{rank}")
    pairs = [(space, w) for space in enumerate_hessenberg(rs)
             for w in enumerate_weyl(rs) if cell_nonempty(w, space)]
    if sample is not None:
        pairs = rng.sample(pairs, sample)
    ns = [ref_random_coeffs(rs, rng, regular=True) for _ in pairs]
    for realization in ([real, ref_old_signs(real)] if lie_type == "D"
                        else [real]):
        moved = 0
        for (space, w), n in zip(pairs, ns):
            wit = find_witness(realization, w, space, n)
            assert wit.verified
            assert wit.stage_kernel_dims == row_dimension_profile(w, space)
            moved += any(wit.stage_solutions)
        assert moved


def ref_unipotent(real, solutions):
    """u = exp(X_0) exp(X_1) ... of the stage solutions and its inverse, as
    matrices."""
    size = real.dim_rep
    u = u_inv = {(i, i): 1 for i in range(size)}
    for sol in filter(None, solutions):
        xmat = real.matrix_of(sol)
        u = sp_mul(u, sp_exp_nilpotent(xmat, size))
        u_inv = sp_mul(sp_exp_nilpotent(sp_scale(xmat, -1), size), u_inv)
    return u, u_inv


def ref_verify_witness_matrix(real, w, space, n, solutions, final):
    """The matrix check of a witness as it stood before it compared two
    matrices: the conjugate u·N·u⁻¹ is expanded with ``ref_expand``, must
    have no Cartan part and the coefficients of ``final`` (compared as
    rationals), and every nonzero one must lie in wΦ_H.  Raises
    ConsistencyError with the old messages, without the cell."""
    u, u_inv = ref_unipotent(real, solutions)
    conj = sp_mul(sp_mul(u, real.matrix_of(n)), u_inv)
    try:
        cartan, expanded = ref_expand(real, conj)
    except ValueError as exc:
        raise ConsistencyError("conjugated nilpotent is outside the Lie "
                               f"algebra: {exc}") from None
    if any(cartan):
        raise ConsistencyError("conjugated nilpotent acquired a Cartan part")
    if ({k: Fraction(v) for k, v in expanded.items()}
            != {k: Fraction(v) for k, v in final.items() if v}):
        raise ConsistencyError("matrix conjugation disagrees with the "
                               "coefficient-space computation")
    inv = w.inverse_root_permutation()
    for k, v in expanded.items():
        if v and not space.hm >> inv[k] & 1:
            raise ConsistencyError("witness lands outside the translated "
                                   "Hessenberg space")


def test_matrix_check_exponentiates_each_stage_once(monkeypatch):
    """Work count: the witness's matrix check takes one matrix exponential
    per nonempty stage solution, exp(X_k), and none of −X_k: it compares
    u·N with F·u and forms no u⁻¹.  Seeded random regular N on the
    nonempty cells of C3 move at least one stage."""
    rs = RootSystem("C", 3)
    real = build_chevalley(rs)
    rng = random.Random("exp-count:C3")
    exponentials = []
    exp = liealg.sp_exp_nilpotent
    monkeypatch.setattr(liealg, "sp_exp_nilpotent",
                        lambda x, size: exponentials.append(x) or exp(x, size))
    moved = 0
    for space, w in ((space, w) for space in enumerate_hessenberg(rs)
                     for w in enumerate_weyl(rs) if cell_nonempty(w, space)):
        exponentials.clear()
        wit = find_witness(real, w, space,
                           ref_random_coeffs(rs, rng, regular=True))
        assert len(exponentials) == sum(map(bool, wit.stage_solutions))
        moved += bool(exponentials)
    assert moved


def test_witness_forms_one_series_per_stage_and_one_per_long_root(
        monkeypatch):
    """Work count: find_witness forms one adjoint series per stage,
    Ad(exp X_k)(M), and one more per stage whose constraints hold its
    type-C long root, the value c₀ that sets the pivot in closed form.
    Seeded random regular N on every nonempty C3 cell, some of which hold
    a long-root constraint."""
    rs = RootSystem("C", 3)
    real = build_chevalley(rs)
    table = stage_table(rs)
    rng = random.Random("series-count:C3")
    series = []
    iad_exp = liealg._iad_exp
    monkeypatch.setattr(liealg, "_iad_exp",
                        lambda *args: series.append(args) or iad_exp(*args))
    long_stages = 0
    for space, w in ((space, w) for space in enumerate_hessenberg(rs)
                     for w in enumerate_weyl(rs) if cell_nonempty(w, space)):
        series.clear()
        outside = _outside_mask(w, space.hm)
        extra = sum(g is not None and g in cons and outside >> g & 1
                    for g, (_, cons) in zip(table.long_roots, table.stages))
        find_witness(real, w, space, ref_random_coeffs(rs, rng, regular=True))
        assert len(series) == len(table.stages) + extra
        long_stages += extra
    assert long_stages


def ref_long_root_line(real, x0, m, gamma, pivot):
    """The coordinate of γ in Ad(exp(X₀ + tE_p))(M) at t = 0, 1 and 2: the
    three probes find_witness once took to fit the long-root line."""
    def coeff(t):
        x = dict(x0)
        if t:
            x[pivot] = Fraction(t)
        return liealg._iad_exp(real, x, m).get(gamma, 0)
    return tuple(coeff(t) for t in range(3))


def _assert_long_root_line(real, k, x0, m):
    """The proof in find_witness's docstring, run on one stage: along the
    pivot of row k's long root the coordinate has second difference 0 and
    first difference m_{p,α_k}·M_{α_k}."""
    _, gamma, pivot, alpha = next(
        line for line in _long_root_lines(real.rs) if line[0] == k)
    assert pivot not in x0
    c0, c1, c2 = ref_long_root_line(real, x0, m, gamma, pivot)
    assert c2 - 2 * c1 + c0 == 0
    assert c1 - c0 == real.constants[pivot][alpha] * m.get(alpha, 0)


def _random_fractions(rng, keys):
    """Seeded Fraction coefficients on about half of ``keys``."""
    out = {}
    for k in keys:
        if rng.random() < 0.5:
            v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if v:
                out[k] = v
    return out


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_long_root_line_on_random_elements(rank):
    """The long-root coordinate is affine along the pivot with slope
    m_{p,α_k}·M_{α_k}, for seeded X₀ on every positive root but the pivot
    and M on every positive root, with Fraction values and non-simple
    support, on the built realization and on seeded antisymmetric random
    constant tables (the proof reads no property of the constants)."""
    rs = RootSystem("C", rank)
    real = build_chevalley(rs)
    rng = random.Random(f"long-root-line:C{rank}")
    size = len(rs.all_roots)
    simple = set(rs._simple_index)
    lines = _long_root_lines(rs)
    assert [k for k, *_ in lines] == list(range(rank - 1))
    stages, nonsimple, fractional = 0, 0, 0
    for trial in range(80):
        if trial % 2:
            m = [[0] * size for _ in range(size)]
            for a in range(size):
                for b in range(a + 1, size):
                    m[a][b] = rng.randint(-3, 3)
                    m[b][a] = -m[a][b]
            realization = types.SimpleNamespace(rs=rs, constants=m)
        else:
            realization = real
        for k, _, pivot, _ in lines:
            x0 = _random_fractions(
                rng, [a for a in range(rs.num_positive) if a != pivot])
            n = _random_fractions(rng, range(rs.num_positive))
            _assert_long_root_line(realization, k, x0, n)
            stages += 1
            nonsimple += bool(set(n) - simple and set(x0) - simple)
            fractional += any(v.denominator > 1 for v in n.values())
    assert stages == 80 * (rank - 1)
    assert nonsimple > stages // 4 and fractional > stages // 4


@pytest.mark.parametrize("rank,sample", [(2, None), (3, None), (4, 400)])
def test_long_root_line_on_every_witness_stage(monkeypatch, rank, sample):
    """The same proof on the stages find_witness forms itself: seeded random
    regular N on every nonempty cell of C2 and C3 and on 400 of C4.  Each
    long-root stage's first series is X₀ on M, with the pivot left out
    (copied, since the stage then sets the pivot in the same map)."""
    rs = RootSystem("C", rank)
    real = build_chevalley(rs)
    table = stage_table(rs)
    rng = random.Random(f"long-root-stages:C{rank}")
    pairs = [(space, w) for space in enumerate_hessenberg(rs)
             for w in enumerate_weyl(rs) if cell_nonempty(w, space)]
    if sample is not None:
        pairs = rng.sample(pairs, sample)
    series = []
    iad_exp = liealg._iad_exp
    monkeypatch.setattr(liealg, "_iad_exp",
                        lambda real, x, n: series.append((dict(x), n))
                        or iad_exp(real, x, n))
    runs = []
    for space, w in pairs:
        find_witness(real, w, space, ref_random_coeffs(rs, rng, regular=True))
        runs.append((_outside_mask(w, space.hm), series[:]))
        series.clear()
    monkeypatch.undo()
    stages = 0
    for outside, calls in runs:
        calls = iter(calls)
        for k in range(len(table.stages) - 1, -1, -1):
            gamma = table.long_roots[k]
            if gamma is not None and outside >> gamma & 1:
                _assert_long_root_line(real, k, *next(calls))
                stages += 1
            next(calls)
        assert next(calls, None) is None
    assert stages


class _MovedN:
    """A realization whose ``matrix_of`` adds ``extra`` to the matrix of one
    coefficient map, N (found by identity), and answers everything else
    from ``real``."""

    def __init__(self, real, n, extra):
        self.real, self.n, self.extra = real, n, extra

    def __getattr__(self, name):
        return getattr(self.real, name)

    def matrix_of(self, coeffs):
        mat = self.real.matrix_of(coeffs)
        return sp_add(mat, self.extra) if coeffs is self.n else mat


def _conjugate_perturbations(real, k):
    """Matrices to add to a witness's conjugate: a trace-zero diagonal
    entry, the root vector of ``rs.all_roots`` index k (one coefficient
    changed by 1) and, in types B and D, a 1 at the first off-diagonal
    position outside every root vector's support (in types A and C every
    off-diagonal position lies in one)."""
    size = real.dim_rep
    owned = {pos for mat in real.root_vectors for pos in mat}
    free = [(r, c) for r in range(size) for c in range(size)
            if r != c and (r, c) not in owned]
    assert bool(free) == (real.rs.lie_type in "BD")
    return [{(0, 0): 1, (1, 1): -1}, real.root_vectors[k],
            *({pos: 1} for pos in free[:1])]


def _rejects(check, *args):
    try:
        check(*args)
    except ConsistencyError:
        return True
    return False


@pytest.mark.parametrize("lie_type,rank,random_n", [
    *[(t, r, False) for t, r in REALIZABLE + [("A", 5)]],
    *[(t, r, True) for t, r in REALIZABLE if r <= 3 or (t, r) == ("D", 4)]])
def test_matrix_check_equals_expansion_reference(monkeypatch, lie_type, rank,
                                                 random_n):
    """The witness's matrix check compares the conjugate of N with the
    matrix of the coefficient-space result; the reference expands the
    conjugate over the root vectors and the Cartan.  Both accept every
    witness that find_witness reaches, with the CLI's N (the sum of the
    simple vectors) on every nonempty cell of rank ≤ 4 and A5, and with
    seeded random regular N on rank ≤ 3 and D4.  On a spread of those
    cells both reject the conjugate after each perturbation P of
    ``_conjugate_perturbations``: the matrix of N is moved by u⁻¹·P·u, so
    the conjugate moves by exactly P."""
    rs = RootSystem(lie_type, rank)
    real = build_chevalley(rs)
    rng = random.Random(f"matrix-check:{lie_type}{rank}")
    calls = []
    monkeypatch.setattr(liealg, "_verify_witness_matrix",
                        lambda *args: calls.append(args))
    cells = [(w, space) for space in enumerate_hessenberg(rs)
             for w in enumerate_weyl(rs) if cell_nonempty(w, space)]
    for w, space in cells:
        find_witness(real, w, space, ref_random_coeffs(
            rs, rng, regular=True) if random_n else None)
    monkeypatch.undo()
    assert len(calls) == len(cells)
    for _, *args in calls:
        liealg._verify_witness_matrix(real, *args)
        ref_verify_witness_matrix(real, *args)
    # the CLI's N needs no stage to move it; a random one does from rank 3
    moved = any(any(solutions) for *_, solutions, _ in calls)
    if random_n:
        assert moved or rank < 3
    else:
        assert not moved
    # perturbed on about 250 cells spread over the enumeration, each with
    # the root vector of another index
    for k, (_, w, space, n, solutions, final) in enumerate(
            calls[::max(1, len(calls) // 250)]):
        args = (w, space, n, solutions, final)
        u, u_inv = ref_unipotent(real, solutions)
        for extra in _conjugate_perturbations(real, k % len(rs.all_roots)):
            perturbed = _MovedN(real, n, sp_mul(sp_mul(u_inv, extra), u))
            assert _rejects(liealg._verify_witness_matrix, perturbed, *args)
            assert _rejects(ref_verify_witness_matrix, perturbed, *args)


def _from(caller, original, fake):
    """``original`` with ``fake(original, *args)`` answering the calls made
    from the function named ``caller``; every other caller gets the real
    function."""
    def patched(*args):
        if sys._getframe(1).f_code.co_name == caller:
            return fake(original, *args)
        return original(*args)
    return patched


def _stage_solve(fake):
    """solve_affine with ``fake`` answering the stage solves of find_witness;
    every other caller gets the real solve."""
    return "solve_affine", _from("find_witness", liealg.solve_affine, fake)


def _bump_second_entry(profile):
    return lambda w, s: tuple(d + (k == 1) for k, d in enumerate(profile(w, s)))


def _without_long_root_pivots(rs):
    """The stage table with the adjusting coordinate of each type-C long
    root dropped from the stage variables."""
    table = stage_table(rs)
    pivots = {pivot for _, _, pivot, _ in _long_root_lines(rs)}
    return StageTable(table.rows, tuple(
        (tuple(p for p in vars_ if p not in pivots), cons)
        for vars_, cons in table.stages), table.long_roots, table.masks)


def _long_root_lines(rs):
    """(k, γ, p, α_k) for each type-C row k: its long root γ, the pivot
    p = γ − α_k and the simple root α_k, as positive-root indices."""
    out = []
    for k, gamma in enumerate(stage_table(rs).long_roots):
        if gamma is not None:
            alpha = rs._simple_index[k]
            pivot = rs._pos_diff[gamma][alpha]
            assert pivot is not None
            out.append((k, gamma, pivot, alpha))
    return out


def _without_long_root_slopes(rs):
    """build_chevalley with m_{p,α_k} = m_{α_k,p} = 0 for the pivot p of
    every type-C long root γ = p + α_k, so every long-root slope is 0."""
    real = build_chevalley(rs)
    m = [list(line) for line in real.constants]
    for _, _, pivot, alpha in _long_root_lines(rs):
        assert m[pivot][alpha] and m[alpha][pivot]
        m[pivot][alpha] = m[alpha][pivot] = 0
    real.constants = tuple(map(tuple, m))
    return real


def _plus_every_root(rs, coeffs):
    """A coefficient map with 1 added on every positive root."""
    out = dict(coeffs)
    for k in range(rs.num_positive):
        out[k] = out.get(k, 0) + 1
    return out


def _n_moved_by(extra):
    """_verify_witness_matrix handed a realization whose matrix of N has
    ``extra(real, n)`` added (see ``_MovedN``)."""
    verify = liealg._verify_witness_matrix
    return lambda real, w, space, n, *rest: verify(
        _MovedN(real, n, extra(real, n)), w, space, n, *rest)


def _plus_every_root_in_both(verify):
    """_verify_witness_matrix handed N plus 1 on every positive root as both
    N and the coefficient-space result, with no stage solution: the two
    computations agree, so the membership test is reached."""
    def patched(real, w, space, n, solutions, final):
        plus = _plus_every_root(real.rs, n)
        return verify(real, w, space, plus, [{}] * len(solutions), plus)
    return patched


# One fault injected into find_witness per failure it must report, with the
# system where the failure first shows: no solution, a solution of all ones
# that misses the constraints, a row profile one larger in stage 1, a
# type-C long root with no adjusting coordinate, or with a zero slope along
# its line (a realization with m_{p,α_k} = 0, which the witness command
# rebuilt from the message builds too; a built realization's never is), a
# matrix of N with a trace-zero diagonal entry (so the conjugate has a
# Cartan part), with an entry at 2ε_1 (not a root of B3, so outside the Lie
# algebra) or doubled, and both computations one larger on every positive
# root.  The matrix check compares the conjugate with the matrix of the
# coefficient-space result, so the three faults in the matrix of N fail
# with its disagreement message.  The test builds its realization after
# the patches.
_WITNESS_FAULTS = {
    "stage infeasible": ("A", 3, lambda: [(liealg, *_stage_solve(
        lambda solve, m, rhs: None))]),
    "stage left its constraints unsatisfied": ("A", 3, lambda: [(
        liealg, *_stage_solve(
            lambda solve, m, rhs: ([Fraction(1)] * len(m[0]),
                                   solve(m, rhs)[1])))]),
    "stage kernel dimensions": ("A", 3, lambda: [(
        liealg, "row_dimension_profile",
        _bump_second_entry(liealg.row_dimension_profile))]),
    "long-root constraint without its adjusting coordinate": ("C", 3, lambda: [
        (liealg, "stage_table", _without_long_root_pivots)]),
    "degenerate long-root adjustment": ("C", 3, lambda: [
        (liealg, "build_chevalley", _without_long_root_slopes)]),
    "conjugated nilpotent acquired a Cartan part": ("A", 3, lambda: [
        (liealg, "_verify_witness_matrix", _n_moved_by(
            lambda real, n: {(0, 0): 1, (1, 1): -1}))]),
    "conjugated nilpotent is outside the Lie algebra": ("B", 3, lambda: [
        (liealg, "_verify_witness_matrix", _n_moved_by(
            lambda real, n: {(0, real.dim_rep - 1): 1}))]),
    "matrix conjugation disagrees": ("A", 3, lambda: [
        (liealg, "_verify_witness_matrix", _n_moved_by(
            lambda real, n: real.matrix_of(n)))]),
    "witness lands outside the translated Hessenberg space": ("A", 3, lambda: [
        (liealg, "_verify_witness_matrix",
         _plus_every_root_in_both(liealg._verify_witness_matrix))]),
}


@pytest.mark.parametrize("fault", list(_WITNESS_FAULTS))
def test_witness_failure_names_its_cell(capsys, monkeypatch, fault):
    """Each find_witness consistency failure names the system, the space,
    the word and, when one stage is at fault, the stage; the witness
    command built from those names fails again with exit 2."""
    lie_type, rank, patches = _WITNESS_FAULTS[fault]
    reason = ("matrix conjugation disagrees" if fault.startswith("conjugated")
              else fault)
    rs = RootSystem(lie_type, rank)
    for target, name, value in patches():
        monkeypatch.setattr(target, name, value)
    real = liealg.build_chevalley(rs)
    message = None
    for space in enumerate_hessenberg(rs):
        for w in enumerate_weyl(rs):
            if message is None and cell_nonempty(w, space):
                try:
                    find_witness(real, w, space)
                except ConsistencyError as exc:
                    message = str(exc)
    assert message is not None and message.startswith(reason), message
    found = re.search(r"\(system ([ABCD])(\d+), space neg=(\S*), "
                      r"word '([\d ]*)'(, stage (\d+))?\)$", message)
    assert found, message
    lie_type, rank, neg, word, _, stage = found.groups()
    if fault == "stage kernel dimensions":
        assert stage == "1"
    assert (stage is None) == fault.startswith(("conjugated", "matrix",
                                                "witness"))
    code = main(["witness", "--type", lie_type, "--rank", rank,
                 f"--hess-neg={neg}", "--word", word])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"hessenpave: consistency failure: {message}\n"


def test_witness_nondefault_regular_nilpotent(real_c2):
    """Any regular nilpotent works, not only the all-ones one."""
    rs = real_c2.rs
    a1, a2, gamma = (rs.root_index(r) for r in (
        *rs.simple_roots, parse_root(rs, "2,1")))
    n = {a1: Fraction(3, 2), a2: -2, gamma: 5}
    for space in enumerate_hessenberg(rs):
        for w in enumerate_weyl(rs):
            if cell_nonempty(w, space):
                wit = find_witness(real_c2, w, space, n)
                assert wit.verified
