"""Classical root systems, their Weyl groups, and the row decomposition of
the positive roots.

A root is stored as its integer coefficient vector over the simple roots
``α_1 .. α_n``.  The simple roots are labelled so that the doubled edge of
the B/C Dynkin diagram sits at the high-index end (``α_n`` is the short root
of B_n and the long root of C_n) and the fork of D_n is ``{α_{n-1}, α_n}``.
In these coordinates the sign of a root and the dominance order ``β ≤ α``
(``α − β`` a nonnegative combination of simple roots) are componentwise
integer tests, which keeps every predicate in the package exact.

Positive roots are enumerated by height and then lexicographically on the
coefficient vector; every structure derived from a root system (Weyl group
enumeration, row decompositions, Hessenberg spaces, pavings) inherits its
determinism from this order.

Whether ``α − β`` or ``α + β`` is a positive root is asked all over the
package (Hessenberg closure, lower covers, the row operators, the witness
stages, the lemma checks), so each root system answers it from one table
built on construction: ``rs._pos_diff[a][b]`` is the index of
``positive_roots[a] − positive_roots[b]`` when that is a positive root and
None otherwise.  Sums read the same table, since ``a + b = c`` iff
``_pos_diff[c][b] == a``; ``rs._pos_sum[a][b]`` is that inverse view.  The
lower covers of a positive root (its differences with the simple roots)
are the entries ``_pos_diff[k][s]`` for ``s`` in ``rs._simple_index``.

The *rows* ``Φ_1, ..., Φ_n`` partition the positive roots: row ``i``
consists of the positive roots whose expansion in the orthonormal ε-basis
begins with ``ε_i``.  Each row spans an abelian subalgebra of the nilradical
except in type C, where rows ``i < n`` are Heisenberg with one-dimensional
derived algebra spanned by the long root ``2ε_i``.  Row membership is
computed both from closed-form generators and from the dominance order, and
the two computations are cross-checked on construction.  The one convention
worth spelling out: in type D the dominance-order computation would place
the second fork root ``α_n`` in a row of its own, while the closed forms
(and everything downstream: the row partition into 0/1/2 parts, the paired
solve stages) place it in row ``n−1`` together with ``α_{n-1}``.  The fork
rows are merged accordingly before cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable, Optional

from .errors import ConsistencyError

LIE_TYPES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Root:
    """A root, stored as its coefficient vector over the simple roots."""

    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return any(self.coeffs) and all(c >= 0 for c in self.coeffs)

    @property
    def is_negative(self) -> bool:
        return any(self.coeffs) and all(c <= 0 for c in self.coeffs)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs))

    def __str__(self) -> str:
        return format_root(self)


def format_root(root: Root) -> str:
    """Text form of a root: comma-separated signed integers, e.g. ``1,1,0``."""
    return ",".join(str(c) for c in root.coeffs)


def dominates(alpha: Root, beta: Root) -> bool:
    """Componentwise test for ``beta ≤ alpha`` in the dominance order."""
    return all(a >= b for a, b in zip(alpha.coeffs, beta.coeffs))


def strictly_dominates(alpha: Root, beta: Root) -> bool:
    return alpha != beta and dominates(alpha, beta)


def _positive_coeff_vectors(lie_type: str, rank: int) -> list[tuple[int, ...]]:
    """Closed-form coefficient vectors of the positive roots, per type."""
    n = rank
    roots: list[tuple[int, ...]] = []

    def ones(lo: int, hi: int) -> list[int]:
        # 1 on positions lo..hi (1-based, inclusive), 0 elsewhere
        return [1 if lo <= k <= hi else 0 for k in range(1, n + 1)]

    if lie_type == "A":
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                roots.append(tuple(ones(i, j)))
    elif lie_type == "B":
        # ε_i − ε_j, ε_i, ε_i + ε_j with α_n = ε_n the short simple root
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                roots.append(tuple(ones(i, j - 1)))          # ε_i − ε_j
            roots.append(tuple(ones(i, n)))                  # ε_i
            for j in range(i + 1, n + 1):
                v = ones(i, n)
                for k in range(j, n + 1):
                    v[k - 1] += 1
                roots.append(tuple(v))                       # ε_i + ε_j
    elif lie_type == "C":
        # ε_i − ε_j, ε_i + ε_j, 2ε_i with α_n = 2ε_n the long simple root
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                roots.append(tuple(ones(i, j - 1)))          # ε_i − ε_j
            for j in range(i + 1, n + 1):
                v = ones(i, j - 1)
                for k in range(j, n):
                    v[k - 1] += 2
                v[n - 1] += 1
                roots.append(tuple(v))                       # ε_i + ε_j
            v = [0] * n
            for k in range(i, n):
                v[k - 1] = 2
            v[n - 1] = 1
            roots.append(tuple(v))                           # 2ε_i
    elif lie_type == "D":
        # ε_i ± ε_j with α_{n-1} = ε_{n-1} − ε_n, α_n = ε_{n-1} + ε_n
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                roots.append(tuple(ones(i, j - 1)))          # ε_i − ε_j
            for j in range(i + 1, n + 1):
                if j == n:
                    v = ones(i, n - 2)
                    v[n - 1] = 1
                else:
                    v = ones(i, j - 1)
                    for k in range(j, n - 1):
                        v[k - 1] += 2
                    v[n - 2] += 1
                    v[n - 1] += 1
                roots.append(tuple(v))                       # ε_i + ε_j
    else:
        raise ValueError(f"unknown Lie type {lie_type!r}")
    return roots


def _epsilon_of_simple(lie_type: str, rank: int) -> list[tuple[int, ...]]:
    """ε-space vectors of the simple roots (ambient dim n+1 for A, n else)."""
    n = rank
    dim = n + 1 if lie_type == "A" else n
    vecs = []
    for i in range(1, n + 1):
        v = [0] * dim
        if lie_type == "A" or i < n:
            v[i - 1], v[i] = 1, -1
        elif lie_type == "B":
            v[n - 1] = 1
        elif lie_type == "C":
            v[n - 1] = 2
        else:  # D
            v[n - 2], v[n - 1] = 1, 1
        vecs.append(tuple(v))
    return vecs


class RootSystem:
    """An irreducible classical root system with a fixed simple-root order.

    Construction enumerates the positive roots from the closed forms above,
    orders them by (height, coefficient vector), and cross-checks the count
    against the type formula.  Instances are immutable; two systems of the
    same type and rank compare equal.
    """

    def __init__(self, lie_type: str, rank: int):
        if lie_type not in LIE_TYPES:
            raise ValueError(f"lie_type must be one of {LIE_TYPES}, got {lie_type!r}")
        if rank < _MIN_RANK[lie_type]:
            raise ValueError(
                f"type {lie_type} needs rank >= {_MIN_RANK[lie_type]}, got {rank}"
            )
        self.lie_type = lie_type
        self.rank = rank

        vectors = sorted(set(_positive_coeff_vectors(lie_type, rank)),
                         key=lambda v: (sum(v), v))
        expected = {
            "A": rank * (rank + 1) // 2,
            "B": rank * rank,
            "C": rank * rank,
            "D": rank * (rank - 1),
        }[lie_type]
        if len(vectors) != expected:
            raise ConsistencyError(
                f"{lie_type}{rank}: built {len(vectors)} positive roots, "
                f"expected {expected}"
            )

        self.positive_roots: tuple[Root, ...] = tuple(Root(v) for v in vectors)
        self.negative_roots: tuple[Root, ...] = tuple(-r for r in self.positive_roots)
        self.all_roots: tuple[Root, ...] = self.positive_roots + self.negative_roots
        self.num_positive = len(self.positive_roots)
        self._index = {r.coeffs: k for k, r in enumerate(self.all_roots)}

        simple_vecs = []
        for i in range(1, rank + 1):
            v = [0] * rank
            v[i - 1] = 1
            simple_vecs.append(tuple(v))
        self.simple_roots: tuple[Root, ...] = tuple(Root(v) for v in simple_vecs)
        for s in self.simple_roots:
            if s.coeffs not in self._index:
                raise ConsistencyError(f"simple root {s} missing from root list")

        self._eps_simple = _epsilon_of_simple(lie_type, rank)
        self.epsilon_dim = len(self._eps_simple[0])
        self.cartan_matrix: IntMatrix = self._build_cartan()

        self._simple_index = tuple(self._index[s.coeffs]
                                   for s in self.simple_roots)
        self._reflections = tuple(self._reflection_perm(i) for i in range(rank))
        # each root as one integer, additive in the coefficients: a sum or
        # difference of two roots has coefficients in [-4, 4], which base 9
        # keeps apart
        self._keys = tuple(sum(c * 9 ** j for j, c in enumerate(r.coeffs))
                           for r in self.all_roots)
        npos = self.num_positive
        pos_key = {self._keys[k]: k for k in range(npos)}
        self._pos_diff = tuple(
            tuple(pos_key.get(ka - kb) for kb in self._keys[:npos])
            for ka in self._keys[:npos])
        sums = [[None] * npos for _ in range(npos)]
        for c, line in enumerate(self._pos_diff):
            for b, a in enumerate(line):
                if a is not None:
                    sums[a][b] = c
        self._pos_sum = tuple(map(tuple, sums))
        # (β, γ, α_j) as all_roots indices with β = γ + α_j, one for each
        # non-simple positive root β (the height order puts the simple roots
        # first); the linearity check of WeylElement inducts on height
        # along these
        splits = []
        for k in range(rank, npos):
            a = next((a for a in self._simple_index
                      if self._pos_diff[k][a] is not None), None)
            if a is None:
                raise ConsistencyError(f"{self.positive_roots[k]} is not a "
                                       "root plus a simple root")
            splits.append((k, self._pos_diff[k][a], a))
        self._splits = tuple(splits)

        self._rows_cache: Optional[RowDecomposition] = None
        self._weyl_cache: Optional[tuple["WeylElement", ...]] = None

    # -- basic root arithmetic -------------------------------------------

    def root(self, coeffs: Iterable[int]) -> Root:
        """Validate a coefficient vector and wrap it as a Root."""
        t = tuple(int(c) for c in coeffs)
        if t not in self._index:
            raise ValueError(f"{','.join(map(str, t))} is not a root of "
                             f"{self.lie_type}{self.rank}")
        return Root(t)

    def is_root(self, coeffs: tuple[int, ...]) -> bool:
        return coeffs in self._index

    def root_index(self, root: Root) -> int:
        """Index into all_roots (positives first, then their negatives)."""
        try:
            return self._index[root.coeffs]
        except KeyError:
            raise ValueError(f"{root} is not a root of {self.lie_type}{self.rank}")

    def root_add(self, a: Root, b: Root) -> Optional[Root]:
        """Return a + b when it is a root, else None."""
        s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        return Root(s) if s in self._index else None

    def epsilon_vector(self, root: Root) -> tuple[int, ...]:
        """Expansion of a root in the ε-basis of the defining reflection rep."""
        v = [0] * self.epsilon_dim
        for c, ev in zip(root.coeffs, self._eps_simple):
            if c:
                for k, e in enumerate(ev):
                    v[k] += c * e
        return tuple(v)

    def _build_cartan(self) -> IntMatrix:
        def dot(u, v):
            return sum(a * b for a, b in zip(u, v))

        eps = self._eps_simple
        out = []
        for j in range(self.rank):
            row = []
            for i in range(self.rank):
                num = 2 * dot(eps[j], eps[i])
                den = dot(eps[i], eps[i])
                if num % den:
                    raise ConsistencyError("non-integral Cartan pairing")
                row.append(num // den)
            out.append(tuple(row))
        # entry [j][i] is the pairing of α_j against the coroot of α_i
        return tuple(out)

    def _reflection_perm(self, i: int) -> tuple[int, ...]:
        """The simple reflection s_{i+1} as a permutation of all_roots
        indices: s(β) = β − ⟨β, α^∨⟩α, which only changes coordinate i."""
        pairing = [row[i] for row in self.cartan_matrix]
        perm = []
        for r in self.all_roots:
            img = list(r.coeffs)
            img[i] -= sum(c * p for c, p in zip(r.coeffs, pairing))
            k = self._index.get(tuple(img))
            if k is None:
                raise ConsistencyError(f"s_{i + 1}({r}) is not a root")
            perm.append(k)
        return tuple(perm)

    # -- equality / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, RootSystem)
                and self.lie_type == other.lie_type and self.rank == other.rank)

    def __hash__(self) -> int:
        return hash((self.lie_type, self.rank))

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type!r}, {self.rank})"


def build_root_system(lie_type: str, rank: int) -> RootSystem:
    """Build the classical root system of the given type and rank."""
    return RootSystem(lie_type, rank)


def dominance_leq(rs: RootSystem, beta: Root, alpha: Root) -> bool:
    """True iff ``beta ≤ alpha``: equal, or α − β a nonzero nonnegative
    integer combination of simple roots."""
    rs.root_index(beta)
    rs.root_index(alpha)
    return dominates(alpha, beta)


def parse_root(rs: RootSystem, text: str) -> Root:
    """Parse the comma-separated signed-integer encoding of a root."""
    try:
        coeffs = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed root text {text!r}")
    return rs.root(coeffs)


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------


class WeylElement:
    """A Weyl group element, stored as the permutation it induces on the
    indices of ``rs.all_roots``, together with a canonical reduced word.

    The roots span, so the permutation determines the element.  The word
    comes from greedy descent (repeatedly strip the smallest ``s_i`` with
    ``w⁻¹α_i < 0``), so equal permutations always carry identical words;
    it stops early at a permutation whose word ``_words`` already holds.
    The cell masks ``sm`` and ``im`` and the text form ``word_text`` are
    built on first use, so enumerating W pays nothing for them.
    Construction checks that the permutation is a bijection, that it is
    linear on simple-root coordinates, that greedy descent reaches the
    identity (a diagram automorphism has no descent), and that the word
    length matches the inversion count.
    """

    __slots__ = ("rs", "word", "_root_perm", "_inv_root_perm", "_inversions",
                 "_sm", "_im", "_word_text")

    def __init__(self, rs: RootSystem, perm: Iterable[int],
                 _words: Optional[dict] = None):
        perm = tuple(perm)
        _check_root_permutation(rs, perm)
        inv = [0] * len(perm)
        for src, dst in enumerate(perm):
            inv[dst] = src
        self.rs = rs
        self._root_perm = perm
        self._inv_root_perm = tuple(inv)
        npos = rs.num_positive
        self._inversions = frozenset(p for p in range(npos) if inv[p] >= npos)
        self.word = _canonical_word(rs, perm, self._inv_root_perm, _words)
        if len(self.word) != len(self._inversions):
            raise ConsistencyError("reduced word length != inversion count")

    @property
    def length(self) -> int:
        return len(self.word)

    def root_permutation(self) -> tuple[int, ...]:
        """Action on all_roots indices (positives first, then negatives)."""
        return self._root_perm

    def inverse_root_permutation(self) -> tuple[int, ...]:
        return self._inv_root_perm

    def inversion_indices(self) -> frozenset[int]:
        """Indices (into positive_roots) of the inversion set."""
        return self._inversions

    @property
    def sm(self) -> int:
        """Bitmask over all_roots indices of w⁻¹(simple roots)."""
        try:
            return self._sm
        except AttributeError:
            inv = self._inv_root_perm
            self._sm = sum(1 << inv[a] for a in self.rs._simple_index)
            return self._sm

    @property
    def im(self) -> int:
        """Bitmask over all_roots indices of w⁻¹(Φ_w), Φ_w the inversion set."""
        try:
            return self._im
        except AttributeError:
            inv = self._inv_root_perm
            self._im = sum(1 << inv[p] for p in self._inversions)
            return self._im

    @property
    def word_text(self) -> str:
        """The reduced word as space-separated reflection indices."""
        try:
            return self._word_text
        except AttributeError:
            self._word_text = " ".join(str(i) for i in self.word)
            return self._word_text

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeylElement)
                and self.rs == other.rs and self._root_perm == other._root_perm)

    def __hash__(self) -> int:
        return hash((self.rs.lie_type, self.rs.rank, self._root_perm))

    def __repr__(self) -> str:
        return f"WeylElement({self.rs.lie_type}{self.rs.rank}, word={self.word})"


def _check_root_permutation(rs: RootSystem, perm: tuple[int, ...]) -> None:
    """Reject a map that is not a bijection of the roots or not linear on
    simple-root coordinates.

    Linearity is checked by induction on height: the map must commute with
    negation and send each split ``β = γ + α_j`` of a non-simple positive
    root to a sum of images.
    """
    size = len(rs.all_roots)
    if sorted(perm) != list(range(size)):
        raise ValueError(f"not a permutation of the {size} roots of "
                         f"{rs.lie_type}{rs.rank}")
    npos = rs.num_positive
    key = rs._keys
    linear = (all(perm[k + npos] == (perm[k] + npos) % size
                  for k in range(npos))
              and all(key[perm[g]] + key[perm[a]] == key[perm[b]]
                      for b, g, a in rs._splits))
    if not linear:
        raise ValueError("root permutation is not linear on simple-root "
                         "coordinates")


def _canonical_word(rs: RootSystem, perm: tuple[int, ...],
                    inv: tuple[int, ...],
                    words: Optional[dict]) -> tuple[int, ...]:
    """Greedy descent on permutations: w = s_i·(s_i·w) with i the smallest
    left descent, until a permutation with a known word (at the latest the
    identity) is reached."""
    if words is None:
        words = {tuple(range(len(perm))): ()}
    npos = rs.num_positive
    prefix = []
    while perm not in words:
        i = next((i for i, a in enumerate(rs._simple_index) if inv[a] >= npos),
                 None)
        if i is None:
            raise ValueError("root permutation is not induced by a Weyl "
                             "group element")
        prefix.append(i + 1)
        s = rs._reflections[i]
        perm = tuple(s[k] for k in perm)      # s_i·w
        inv = tuple(inv[k] for k in s)        # (s_i·w)⁻¹ = w⁻¹·s_i
    return tuple(prefix) + words[perm]


def identity_element(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, range(len(rs.all_roots)))


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The simple reflection s_i, 1-based."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"reflection index {i} out of range 1..{rs.rank}")
    return WeylElement(rs, rs._reflections[i - 1])


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """The product w1·w2 (apply w2 first when acting on roots)."""
    if w1.rs != w2.rs:
        raise ValueError("cannot compose elements of different root systems")
    p1 = w1._root_perm
    return WeylElement(w1.rs, (p1[k] for k in w2._root_perm))


def inverse(w: WeylElement) -> WeylElement:
    return WeylElement(w.rs, w._inv_root_perm)


def apply(w: WeylElement, root: Root) -> Root:
    """The image w(root); always a valid root."""
    idx = w.rs.root_index(root)
    return w.rs.all_roots[w._root_perm[idx]]


def inversion_set(w: WeylElement) -> frozenset[Root]:
    """The positive roots sent negative by w⁻¹."""
    return frozenset(w.rs.positive_roots[p] for p in w._inversions)


def format_word(w: WeylElement) -> str:
    """Text form of a Weyl element: space-separated reflection indices,
    built once per element."""
    return w.word_text


def parse_word(rs: RootSystem, text: str) -> WeylElement:
    """Parse a space-separated word of reflection indices ('' = identity)."""
    try:
        letters = [int(p) for p in text.split()]
    except ValueError:
        raise ValueError(f"malformed Weyl word {text.strip()!r}")
    perm = tuple(range(len(rs.all_roots)))
    for i in letters:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"reflection index {i} out of range 1..{rs.rank}")
        perm = tuple(perm[k] for k in rs._reflections[i - 1])   # perm·s_i
    return WeylElement(rs, perm)


_WEYL_ORDER = {"A": lambda n: factorial(n + 1),
               "B": lambda n: 2 ** n * factorial(n),
               "C": lambda n: 2 ** n * factorial(n),
               "D": lambda n: 2 ** (n - 1) * factorial(n)}

# Largest group enumerate_weyl builds: every rank <= 6 and A7 fit.  B6
# (46,080 elements) takes about 3 s and 150 MB on a 2-vCPU Xeon; the next
# groups up (D7, A8, B7 and C7: 322,560 to 645,120 elements) are 6 to 13
# times the budget.
_WEYL_BUDGET = 50_000


def check_weyl_budget(lie_type: str, rank: int) -> int | None:
    """Return the order of the Weyl group of the given type and rank, and
    raise ValueError when it has more than _WEYL_BUDGET elements.

    It needs no RootSystem, so callers can refuse before building one
    (construction grows with the rank).  A type or rank that RootSystem
    refuses passes here (returning None), so that RootSystem names the
    problem.
    """
    if lie_type not in _MIN_RANK or rank < _MIN_RANK[lie_type]:
        return None
    order = _WEYL_ORDER[lie_type](rank)
    if order > _WEYL_BUDGET:
        raise ValueError(
            f"the Weyl group of {lie_type}{rank} has {order} "
            f"elements, over the budget of {_WEYL_BUDGET}")
    return order


def enumerate_weyl(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, by length and then lexicographic reduced word.

    Raises ValueError, before any work, when the group has more than
    _WEYL_BUDGET elements.  The result is cached on the root system.
    """
    if rs._weyl_cache is not None:
        return rs._weyl_cache
    expected = check_weyl_budget(rs.lie_type, rs.rank)
    npos = rs.num_positive
    layer = [identity_element(rs)]
    out = list(layer)
    while layer:
        words = {w._root_perm: w.word for w in layer}
        found = set()
        for w in layer:
            perm = w._root_perm
            for a, s in zip(rs._simple_index, rs._reflections):
                # right multiplication by s_i lengthens iff w(α_i) > 0
                if perm[a] < npos:
                    found.add(tuple(perm[k] for k in s))
        # each new element is one step longer than the layer, so stripping
        # its smallest left descent lands in ``words``
        layer = sorted((WeylElement(rs, p, words) for p in found),
                       key=lambda w: w.word)
        out.extend(layer)
    if len(out) != expected:
        raise ConsistencyError(
            f"Weyl enumeration found {len(out)} elements, expected {expected}")
    rs._weyl_cache = tuple(out)
    return rs._weyl_cache


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowDecomposition:
    """The partition of the positive roots into rows.

    ``rows[i-1]`` is row ``i``.  For type C, ``type_C_long_roots[i-1]`` is
    the long root ``2ε_i`` spanning the derived algebra of the Heisenberg
    row (None for row n and for other types).  For type D,
    ``type_D_parts[i-1]`` splits row ``i`` into the three parts counting how
    many of the fork roots ``{α_{n-1}, α_n}`` appear as summands.
    """

    rows: tuple[frozenset[Root], ...]
    type_C_long_roots: Optional[tuple[Optional[Root], ...]] = None
    type_D_parts: Optional[tuple[tuple[frozenset[Root], frozenset[Root],
                                       frozenset[Root]], ...]] = None


def _closed_form_rows(rs: RootSystem) -> list[set[Root]]:
    n = rs.rank
    t = rs.lie_type

    def span(lo: int, hi: int) -> list[int]:
        return [1 if lo <= k <= hi else 0 for k in range(1, n + 1)]

    def mk(v: list[int]) -> Root:
        return rs.root(v)

    out: list[set[Root]] = []
    for i in range(1, n + 1):
        row: set[Root] = set()
        if t == "A":
            for k in range(i, n + 1):
                row.add(mk(span(i, k)))
        elif t == "B":
            for k in range(i, n + 1):
                row.add(mk(span(i, k)))
            for k in range(i + 1, n + 1):
                v = span(i, n)
                for j in range(k, n + 1):
                    v[j - 1] += 1
                row.add(mk(v))
        elif t == "C":
            for k in range(i, n + 1):
                row.add(mk(span(i, k)))
            for k in range(i, n):
                v = span(i, n)
                for j in range(k, n):
                    v[j - 1] += 1
                row.add(mk(v))
        elif t == "D":
            for k in range(i, n):
                row.add(mk(span(i, k)))
            for k in range(i + 1, n + 1):
                v = span(i, n - 2)
                v[n - 1] += 1
                for j in range(k, n):
                    v[j - 1] += 1
                row.add(mk(v))
        out.append(row)
    return out


def _dominance_rows(rs: RootSystem) -> list[set[Root]]:
    """Rows from the dominance order: root α lands in the first row i with
    α ≥ α_i.  In type D the two fork rows are merged into row n−1 (see the
    module docstring)."""
    n = rs.rank
    out: list[set[Root]] = [set() for _ in range(n)]
    for alpha in rs.positive_roots:
        i = next(k for k in range(1, n + 1)
                 if dominates(alpha, rs.simple_roots[k - 1]))
        out[i - 1].add(alpha)
    if rs.lie_type == "D":
        out[n - 2] |= out[n - 1]
        out[n - 1] = set()
    return out


def rows(rs: RootSystem) -> RowDecomposition:
    """The row decomposition, computed two ways and cross-checked."""
    if rs._rows_cache is not None:
        return rs._rows_cache
    n = rs.rank
    closed = _closed_form_rows(rs)
    definitional = _dominance_rows(rs)
    if closed != definitional:
        raise ConsistencyError(
            f"row decompositions disagree for {rs.lie_type}{rs.rank}")
    if set().union(*closed) != set(rs.positive_roots):
        raise ConsistencyError("rows do not cover the positive roots")
    if sum(len(r) for r in closed) != rs.num_positive:
        raise ConsistencyError("rows overlap")

    long_roots = None
    d_parts = None
    if rs.lie_type == "C":
        lst: list[Optional[Root]] = []
        for i in range(1, n + 1):
            if i < n:
                v = [0] * n
                for k in range(i, n):
                    v[k - 1] = 2
                v[n - 1] = 1
                gamma = rs.root(v)
                if gamma not in closed[i - 1]:
                    raise ConsistencyError(f"long root of row {i} not in the row")
                lst.append(gamma)
            else:
                lst.append(None)
        long_roots = tuple(lst)
    if rs.lie_type == "D":
        parts = []
        for i in range(1, n + 1):
            p0, p1, p2 = set(), set(), set()
            for alpha in closed[i - 1]:
                fork = (alpha.coeffs[n - 2] >= 1) + (alpha.coeffs[n - 1] >= 1)
                (p0, p1, p2)[fork].add(alpha)
            if len(p1) not in (0, 2):
                raise ConsistencyError("middle part of a D row must have 0 or 2 roots")
            parts.append((frozenset(p0), frozenset(p1), frozenset(p2)))
        d_parts = tuple(parts)

    dec = RowDecomposition(
        rows=tuple(frozenset(r) for r in closed),
        type_C_long_roots=long_roots,
        type_D_parts=d_parts,
    )
    rs._rows_cache = dec
    return dec


def _row_key(r: Root) -> tuple:
    """Sort key of the row basis order: height descending, then the
    coefficient vector descending."""
    return (-r.height, tuple(-c for c in r.coeffs))


def row_order(rs: RootSystem, i: int) -> tuple[Root, ...]:
    """Basis order of row i: height descending, ties (type D only) broken
    with the ``α_{n-1}``-bearing root first."""
    return tuple(sorted(rows(rs).rows[i - 1], key=_row_key))


def type_d_stage_sets(rs: RootSystem) -> tuple[tuple[frozenset[Root], frozenset[Root]], ...]:
    """Per-stage (variable roots, constraint roots) for the paired type-D
    solve.  Stage i (0-based, i = 0..n−1) solves for coordinates on
    ``Φ_i^0 ∪ Φ_{i+1}^1 ∪ Φ_{i+1}^2`` against constraints on
    ``Φ_i^0 ∪ Φ_i^1 ∪ Φ_{i+1}^2``; out-of-range rows contribute nothing.
    The stages partition the positive roots on both sides, which is what
    makes the per-stage dimensions sum to the cell dimension."""
    if rs.lie_type != "D":
        raise ValueError("stage sets are a type-D notion")
    dec = rows(rs)
    n = rs.rank
    empty = frozenset()

    def part(i: int, k: int) -> frozenset[Root]:
        if 1 <= i <= n:
            return dec.type_D_parts[i - 1][k]
        return empty

    out = []
    for i in range(0, n):
        dom = part(i, 0) | part(i + 1, 1) | part(i + 1, 2)
        cod = part(i, 0) | part(i, 1) | part(i + 1, 2)
        out.append((frozenset(dom), frozenset(cod)))
    return tuple(out)
