"""Matrix realizations, row operators, lemma checks, witnesses."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from hessenpave import liealg
from hessenpave.errors import ConsistencyError
from hessenpave.hessenberg import (
    borel_space,
    enumerate_hessenberg,
    full_space,
    parse_hessenberg,
    smallest_containing,
)
from hessenpave.liealg import (
    NilpotentElement,
    ad_exp,
    bracket,
    build_chevalley,
    find_witness,
    normalize_type_D,
    psi_matrix,
    sum_of_simple_vectors,
    theta_row,
    verify_lemmata,
)
from hessenpave.paving import cell_nonempty, row_dimension_profile
from hessenpave.rootcore import (
    Root,
    WeylElement,
    build_root_system,
    enumerate_weyl,
    format_root,
    identity_element,
    parse_root,
    parse_word,
    row_order,
    rows,
    type_d_stage_sets,
)

REALIZABLE = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
              ("B", 2), ("B", 3), ("B", 4),
              ("C", 2), ("C", 3), ("C", 4),
              ("D", 3), ("D", 4)]


def sp_is_diagonal(a):
    return all(r == c for (r, c) in a)


@pytest.fixture(scope="module")
def real_a2():
    return build_chevalley(build_root_system("A", 2))


@pytest.fixture(scope="module")
def real_c2():
    return build_chevalley(build_root_system("C", 2))


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lie_type,rank", REALIZABLE)
def test_realizations_build_and_selfcheck(lie_type, rank):
    """Construction exhaustively validates every bracket relation, weight,
    and triangularity; building is the test."""
    rs = build_root_system(lie_type, rank)
    real = build_chevalley(rs)
    expected_size = {"A": rank + 1, "B": 2 * rank + 1,
                     "C": 2 * rank, "D": 2 * rank}[lie_type]
    assert real.dim_rep == expected_size
    for (a, b), m in real.constants.entries.items():
        assert m != 0
        assert real.constants.m(b, a) == -m
        s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        assert rs.is_root(s)


def test_a1_single_matrix_unit():
    real = build_chevalley(build_root_system("A", 1))
    vec = real.root_vectors[real.rs.simple_roots[0]]
    assert vec == {(0, 1): 1}


def test_a2_structure_constants(real_a2):
    rs = real_a2.rs
    a1, a2 = rs.simple_roots
    m = real_a2.constants.m(a1, a2)
    assert m in (1, -1)
    assert real_a2.constants.m(a2, a1) == -m


def test_c2_has_long_root_vector(real_c2):
    rs = real_c2.rs
    gamma = parse_root(rs, "2,1")
    assert real_c2.dim_rep == 4
    assert gamma in real_c2.root_vectors


def test_bracket_opposite_roots_is_diagonal(real_a2):
    rs = real_a2.rs
    for a in rs.positive_roots:
        h = bracket(real_a2, real_a2.root_vectors[a], real_a2.root_vectors[-a])
        assert h and sp_is_diagonal(h)


def test_expand_rejects_foreign_matrix(real_a2):
    with pytest.raises(ValueError):
        real_a2.expand({(1, 0): 1, (0, 1): 1, (2, 2): 1, (0, 0): 5})


# ---------------------------------------------------------------------------
# adjoint exponential
# ---------------------------------------------------------------------------


def test_ad_exp_examples(real_a2):
    rs = real_a2.rs
    a1, a2 = rs.simple_roots
    n = NilpotentElement({a1: 1})
    assert ad_exp(real_a2, NilpotentElement({}), n).coeffs == n.coeffs
    moved = ad_exp(real_a2, NilpotentElement({a2: 1}), n)
    m = real_a2.constants.m(a2, a1)
    theta = parse_root(rs, "1,1")
    assert moved.coeffs == {a1: 1, theta: m}


def test_ad_exp_rejects_negative_support(real_a2):
    rs = real_a2.rs
    neg = parse_root(rs, "-1,0")
    with pytest.raises(ValueError):
        ad_exp(real_a2, NilpotentElement({neg: 1}),
               sum_of_simple_vectors(rs))


@pytest.mark.parametrize("lie_type,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_regularity_preserved_under_conjugation(lie_type, rank):
    import random
    rs = build_root_system(lie_type, rank)
    real = build_chevalley(rs)
    n = sum_of_simple_vectors(rs)
    rng = random.Random("regularity")
    for _ in range(25):
        x = NilpotentElement({
            r: v for r in rs.positive_roots if (v := rng.randint(-3, 3))})
        moved = ad_exp(real, x, n)
        assert moved.is_regular(rs)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_a2_frozen(real_a2):
    rs = real_a2.rs
    n = sum_of_simple_vectors(rs)
    pm = psi_matrix(real_a2, n, 1)
    assert [str(r) for r in pm.roots] == ["1,1", "1,0"]
    a1, a2 = rs.simple_roots
    expected = real_a2.constants.m(a2, a1)
    assert pm.entries == ((0, expected), (0, 0))
    assert expected != 0


def test_psi_zero_superdiagonal_for_non_regular(real_a2):
    rs = real_a2.rs
    theta = parse_root(rs, "1,1")
    pm = psi_matrix(real_a2, NilpotentElement({theta: 7}), 1)
    assert all(pm.entries[k][k + 1] == 0 for k in range(len(pm.roots) - 1))


@pytest.mark.parametrize("lie_type,rank", [("A", 3), ("B", 3), ("C", 3)])
def test_psi_strictly_upper_with_nonzero_superdiagonal(lie_type, rank):
    import random
    rs = build_root_system(lie_type, rank)
    real = build_chevalley(rs)
    rng = random.Random(f"psi:{lie_type}{rank}")
    samples = [sum_of_simple_vectors(rs)]
    for _ in range(5):
        coeffs = {}
        for r in rs.positive_roots:
            v = rng.randint(-4, 4)
            if r in rs.simple_roots:
                v = v or 1
            if v:
                coeffs[r] = v
        samples.append(NilpotentElement(coeffs))
    for n in samples:
        for i in range(1, rank + 1):
            pm = psi_matrix(real, n, i)
            size = len(pm.roots)
            for r in range(size):
                for c in range(r + 1):
                    assert pm.entries[r][c] == 0
            for k in range(size - 1):
                assert pm.entries[k][k + 1] != 0


def test_c2_heisenberg_row_psi(real_c2):
    rs = real_c2.rs
    pm = psi_matrix(real_c2, sum_of_simple_vectors(rs), 1)
    assert len(pm.roots) == 3
    assert pm.entries[0][1] != 0 and pm.entries[1][2] != 0


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_row_basic(real_a2):
    rs = real_a2.rs
    n = sum_of_simple_vectors(rs)
    a1, a2 = rs.simple_roots
    assert theta_row(real_a2, n, NilpotentElement({}), 1) == {a1: 1}
    # conjugating by a deeper row leaves shallower projections intact only
    # upward: row 2 is unchanged by row-1 elements
    x = NilpotentElement({a1: 3})
    assert theta_row(real_a2, n, x, 2) == {a2: 1}
    with pytest.raises(ValueError):
        theta_row(real_a2, n, NilpotentElement({a1: 1, a2: 1}), 1)


def _theta_as_polynomial(real, n, i, j):
    """Fit a degree-2 polynomial to the row-i projection of Ad(exp X)(N)
    for X on row j, from values on a sparse quadratic grid."""
    rs = real.rs
    basis = row_order(rs, j)
    targets = row_order(rs, i)

    def value(point):
        x = NilpotentElement(
            {r: v for r, v in zip(basis, point) if v})
        got = theta_row(real, n, x, i)
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
    rs = build_root_system(lie_type, rank)
    real = build_chevalley(rs)
    rng = random.Random(f"theta:{lie_type}{rank}")
    coeffs = {r: rng.randint(-3, 3) or 2 for r in rs.positive_roots}
    n = NilpotentElement(coeffs)
    dec = rows(rs)
    for j in range(1, rank + 1):
        if not dec.rows[j - 1]:
            continue
        for i in range(1, rank + 1):
            if not dec.rows[i - 1]:
                continue
            _, value, evaluate = _theta_as_polynomial(real, n, i, j)
            k = len(row_order(rs, j))
            for _ in range(4):
                point = tuple(rng.randint(-6, 6) for _ in range(k))
                assert value(point) == evaluate(point)


# ---------------------------------------------------------------------------
# type D normalization
# ---------------------------------------------------------------------------


def test_normalize_type_d_pinned_constants():
    rs = build_root_system("D", 4)
    norm = normalize_type_D(build_chevalley(rs))
    chain12 = parse_root(rs, "1,1,0,0")      # α_1 + α_2
    alpha3 = rs.simple_roots[2]
    assert norm.constants.m(chain12, alpha3) == 1
    chain23 = parse_root(rs, "0,1,1,0")      # α_2 + α_3
    alpha4 = rs.simple_roots[3]
    assert norm.constants.m(chain23, alpha4) == 1


def test_normalize_type_d_idempotent():
    rs = build_root_system("D", 4)
    once = normalize_type_D(build_chevalley(rs))
    twice = normalize_type_D(once)
    assert all(once.root_vectors[r] == twice.root_vectors[r]
               for r in rs.all_roots)


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_normalize_type_d_equals_validated_rebuild(rank):
    """The rescaled realization equals a full, validated construction from
    the same sign-rescaled root vectors."""
    rs = build_root_system("D", rank)
    real = build_chevalley(rs)
    norm = normalize_type_D(real)
    vectors = {}
    for root, mat in real.root_vectors.items():
        anchor = min(mat)
        sign = norm.root_vectors[root][anchor] // mat[anchor]
        assert sign in (1, -1)
        vectors[root] = {pos: sign * v for pos, v in mat.items()}
    ref = liealg.ChevalleyRealization(rs, vectors)
    assert norm.root_vectors == ref.root_vectors
    assert norm.constants.entries == ref.constants.entries
    assert norm.cartan_basis == ref.cartan_basis
    assert norm._m_pos == ref._m_pos
    assert norm._anchor == ref._anchor


def test_normalize_rejects_other_types(real_a2):
    with pytest.raises(ValueError):
        normalize_type_D(real_a2)


# ---------------------------------------------------------------------------
# verify_lemmata
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lie_type,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
def test_verify_lemmata_small_systems(lie_type, rank):
    real = build_chevalley(build_root_system(lie_type, rank))
    report = verify_lemmata(real, trial_count=25, seed=11)
    assert report.passed, [c for c in report.checks if c.status == "fail"]
    assert [c.name for c in report.checks] == [
        "row_structure", "factorization_count", "near_linearity",
        "psi_invariance", "type_d_coefficients", "containment_first_entry",
        "type_d_block"]
    record = report.to_record()
    assert record["seed"] == 11 and record["trials"] == 25


def test_c3_row_structure():
    """Rows 1 and 2 of C3 are Heisenberg with their long roots; row 3 is
    abelian."""
    rs = build_root_system("C", 3)
    dec = rows(rs)
    for i, row in enumerate(dec.rows, start=1):
        sums = {rs.root_add(a, b) for a in row for b in row} - {None}
        if i < 3:
            assert sums == {dec.type_C_long_roots[i - 1]}
        else:
            assert sums == set()


def test_psi_cross_check_detects_corrupted_table(real_c2):
    """The formula route of the row operator is checked against genuine
    matrix brackets; corrupting the stored constants must trip it."""
    rs = real_c2.rs
    real = build_chevalley(rs)
    a1, a2 = rs.simple_roots
    real.constants.entries[(a2, a1)] = 7
    with pytest.raises(ConsistencyError):
        psi_matrix(real, sum_of_simple_vectors(rs), 1)


def test_verify_lemmata_detects_zeroed_constant():
    """Zeroing the structure constant behind a superdiagonal entry of the
    row operator breaks the first-nonzero-entry structure."""
    rs = build_root_system("B", 3)
    real = build_chevalley(rs)
    highest = parse_root(rs, "1,2,2")
    second = parse_root(rs, "1,1,2")
    a2 = rs.simple_roots[1]
    assert real.constants.entries.get((a2, second))
    real.constants.entries[(a2, second)] = 0
    report = verify_lemmata(real, trial_count=5, seed=3)
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert "containment_first_entry" in failed, (failed, highest)
    ce = next(c.counterexample for c in report.checks
              if c.name == "containment_first_entry")
    assert ce == ref_check_containment(real, 5, 3)


def ref_check_containment(real, trials, seed):
    """The containment check root by root for every (N sample, space, w)
    triple, as it stood before the bitmask split.  Module-level helpers are
    looked up on ``liealg`` so that a monkeypatch reaches both paths."""
    rs = real.rs
    n = rs.rank
    dec = rows(rs)
    samples = [liealg.sum_of_simple_vectors(rs)]
    for t in range(min(trials, 3)):
        samples.append(liealg._random_nilpotent(
            rs, liealg._rng(seed, f"cont:{t}"), regular=True))
    spaces = enumerate_hessenberg(rs)
    elements = enumerate_weyl(rs)
    for nn in samples:
        psi_rows = {
            i: liealg._psi_entries(real, nn.coeffs, i)
            for i in range(1, n + 1) if dec.rows[i - 1]
        }
        for space in spaces:
            members = (frozenset(range(rs.num_positive))
                       | {rs.root_index(b) for b in space.negative_part})
            for w in elements:
                if not liealg.cell_nonempty(w, space):
                    continue
                inv_perm = w.inverse_root_permutation()
                inversions = w.inversion_indices()
                for i, (order, mat) in psi_rows.items():
                    index_of = {r: k for k, r in enumerate(order)}
                    for alpha in order:
                        aidx = rs.root_index(alpha)
                        if inv_perm[aidx] in members:
                            continue
                        line = mat[index_of[alpha]]
                        first = next((c for c, v in enumerate(line) if v),
                                     None)
                        if first is None:
                            return {"hessenberg": sorted(
                                        format_root(r) for r in
                                        space.negative_part),
                                    "word": list(w.word), "row": i,
                                    "alpha": format_root(alpha),
                                    "reason": "zero row for an excluded root"}
                        beta = order[first]
                        d = Root(tuple(a - b for a, b in
                                       zip(alpha.coeffs, beta.coeffs)))
                        if d.height != 1:
                            return {"word": list(w.word), "row": i,
                                    "alpha": format_root(alpha),
                                    "reason": "first entry not at a simple "
                                              "difference"}
                        for j, simple in enumerate(rs.simple_roots, start=1):
                            diff = tuple(a - b for a, b in
                                         zip(alpha.coeffs, simple.coeffs))
                            if rs.is_root(diff) and all(c >= 0 for c in diff):
                                if rs.root_index(Root(diff)) not in inversions:
                                    return {"word": list(w.word), "row": i,
                                            "alpha": format_root(alpha),
                                            "simple": j,
                                            "reason": "simple-difference root "
                                                      "escapes the inversion set"}
    return None


def _realization(lie_type, rank):
    real = build_chevalley(build_root_system(lie_type, rank))
    return normalize_type_D(real) if lie_type == "D" else real


def ref_psi_entries(real, coeffs, i):
    """The row operator of row i from coefficient-vector arithmetic, as it
    stood before the positive-root difference table."""
    rs = real.rs
    order = row_order(rs, i)
    mat = []
    for alpha in order:
        line = []
        for beta in order:
            d = tuple(x - y for x, y in zip(alpha.coeffs, beta.coeffs))
            if rs.is_root(d) and all(c >= 0 for c in d):
                diff = Root(d)
                line.append(real.constants.m(diff, beta) * coeffs.get(diff, 0))
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
            if rs.is_root(d) and all(c >= 0 for c in d):
                diff = Root(d)
                line.append(real.constants.m(gamma, diff)
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
    if lie_type == "D":
        stages = [(sorted(cod, key=liealg._row_key),
                   sorted(dom, key=liealg._row_key))
                  for dom, cod in type_d_stage_sets(rs)]
    else:
        stages = [(row_order(rs, i), row_order(rs, i))
                  for i in range(1, rank + 1)]
    for t in range(3):
        nn = liealg._random_nilpotent(rs, liealg._rng(7, f"adblock:{t}"),
                                      regular=t > 0)
        for i in range(1, rank + 1):
            if rows(rs).rows[i - 1]:
                assert (liealg._psi_entries(real, nn.coeffs, i)
                        == ref_psi_entries(real, nn.coeffs, i))
        current = liealg._to_index_coeffs(real, nn.coeffs)
        for cons, vars_ in stages:
            ref_a, _ = ref_linear_stage_matrix(real, current, cons, vars_)
            block = liealg._ad_block(real, nn.coeffs, cons, vars_)
            assert [[-v for v in line] for line in block] == ref_a


@pytest.mark.parametrize("seed", [3, 2027])
@pytest.mark.parametrize("lie_type,rank,trials",
                         [(t, r, 3) for t, r in REALIZABLE]
                         + [("A", 5, 1), ("D", 5, 1)])
def test_containment_equals_reference(lie_type, rank, trials, seed):
    real = _realization(lie_type, rank)
    got = liealg._check_containment(real, trials, seed)
    assert got == ref_check_containment(real, trials, seed)


@pytest.mark.parametrize("sampler", ["sum_of_simple_vectors",
                                     "_random_nilpotent"])
@pytest.mark.parametrize("lie_type,rank,zeroed",
                         [("A", 3, 2), ("B", 3, 3), ("C", 3, 1), ("D", 4, 4)])
def test_containment_zero_simple_coefficient_matches_reference(
        monkeypatch, lie_type, rank, zeroed, sampler):
    """An N sample with one zero simple coefficient (the first sample, or
    every later one) fails containment; both paths name the same first
    counterexample."""
    def degenerate(rs, *_, **__):
        return NilpotentElement({a: int(k != zeroed) for k, a in
                                 enumerate(rs.simple_roots, start=1)})

    monkeypatch.setattr(liealg, sampler, degenerate)
    real = _realization(lie_type, rank)
    got = liealg._check_containment(real, 3, 5)
    assert got is not None
    assert got == ref_check_containment(real, 3, 5)


@pytest.mark.parametrize("lie_type,rank", [("A", 3), ("B", 3), ("C", 3),
                                           ("D", 4)])
def test_containment_short_inversion_set_matches_reference(
        monkeypatch, lie_type, rank):
    """Reporting each inversion set one root short breaks the (w, space)
    part of the check; both paths must name the same first
    counterexample."""
    full = WeylElement.inversion_indices
    monkeypatch.setattr(WeylElement, "inversion_indices",
                        lambda w: frozenset(sorted(full(w))[1:]))
    real = _realization(lie_type, rank)
    got = liealg._check_containment(real, 3, 5)
    assert got is not None
    assert got["reason"] == "simple-difference root escapes the inversion set"
    assert got == ref_check_containment(real, 3, 5)


def test_verify_lemmata_refuses_group_over_budget_before_checks():
    """A realization whose Weyl group is over the enumeration budget is
    refused before any check runs (a stand-in, since building D20 takes
    seconds)."""
    fake = SimpleNamespace(rs=SimpleNamespace(lie_type="D", rank=20))
    with pytest.raises(ValueError, match="over the budget of 50000"):
        verify_lemmata(fake, 1)


def test_containment_tests_each_cell_at_most_once(monkeypatch):
    """Work count, not time: a passing containment check computes one
    smallest space per w and runs the cell kernel on no (space, w) pair,
    however many N samples it draws."""
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
    rs = build_root_system("C", 3)
    report = verify_lemmata(build_chevalley(rs), trial_count=3, seed=1)
    assert report.passed
    assert calls == []
    assert sorted(closures) == sorted(w.sm for w in enumerate_weyl(rs))


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_witness_identity_and_errors(real_a2):
    rs = real_a2.rs
    wit = find_witness(real_a2, identity_element(rs), borel_space(rs))
    assert wit.verified and wit.stage_kernel_dims == (0, 0)
    assert all(not s for s in wit.stage_solutions)
    with pytest.raises(ValueError, match="empty"):
        find_witness(real_a2, parse_word(rs, "1"), borel_space(rs))
    with pytest.raises(ValueError, match="regular"):
        find_witness(real_a2, identity_element(rs), borel_space(rs),
                     NilpotentElement({parse_root(rs, "1,1"): 1}))


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
    rs = build_root_system(lie_type, rank)
    real = build_chevalley(rs)
    if lie_type == "D":
        real = normalize_type_D(real)
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
    rs = build_root_system(lie_type, rank)
    real = build_chevalley(rs)
    if lie_type == "D":
        real = normalize_type_D(real)
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


def test_witness_nondefault_regular_nilpotent(real_c2):
    """Any regular nilpotent works, not only the all-ones one."""
    rs = real_c2.rs
    n = NilpotentElement({rs.simple_roots[0]: Fraction(3, 2),
                          rs.simple_roots[1]: -2,
                          parse_root(rs, "2,1"): 5})
    for space in enumerate_hessenberg(rs):
        for w in enumerate_weyl(rs):
            if cell_nonempty(w, space):
                wit = find_witness(real_c2, w, space, n)
                assert wit.verified
