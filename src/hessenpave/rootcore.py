"""Classical root systems, their Weyl groups, and the row decomposition of
the positive roots.

A root is stored as its integer coefficient vector over the simple roots
``α_1 .. α_n``.  The simple roots are labelled so that the doubled edge of
the B/C Dynkin diagram sits at the high-index end (``α_n`` is the short root
of B_n and the long root of C_n) and the fork of D_n is ``{α_{n-1}, α_n}``.
In these coordinates the sign of a root and the dominance order ``β ≤ α``
(``α − β`` a nonnegative combination of simple roots) are componentwise
integer tests, which keeps every predicate in the package exact.

The roots are the orbit of the simple roots under the reflections of the
Cartan matrix, ordered by height and then by coefficient vector; every
structure derived from a root system (Weyl group enumeration, rows,
Hessenberg spaces, pavings) inherits its determinism from this order.

Whether ``α − β`` or ``α + β`` is a positive root is asked all over the
package (the root-poset tables below, the row operators, the witness
stages, the lemma checks), so each root system answers it from one table
built on construction: ``rs._pos_diff[a][b]`` is the index of
``positive_roots[a] − positive_roots[b]`` when that is a positive root and
None otherwise.  Sums are the same facts read backwards, since ``a + b = c``
iff ``_pos_diff[c][b] == a``; ``rs._sum_pairs`` below lists them by a.

The root-poset tables are built from it on construction too, and no other
module derives them; each is a bitmask over positive-root indices:

* ``rs._covers[p]``: the lower covers of root p, its positive differences
  with the simple roots (Hessenberg closure and enumeration, the
  containment check);
* ``rs._below[p]``: every root at or below root p in the dominance order
  (the smallest Hessenberg space holding a set of roots);
* ``rs._heights[h-1]``: the roots of height h (the Betti product);
* ``rs._sum_pairs[i]``, not a mask: the pairs ``(j, k)`` with
  ``pos[i] + pos[j] = pos[k]`` (the bracket of the row operators).

``_span_root`` finds a root from runs of simple-root coefficients; the
closed-form rows and the type-D checks of :mod:`hessenpave.liealg` name
their roots with it.

The *rows* ``Φ_1, ..., Φ_n`` partition the positive roots: row ``i``
consists of the positive roots whose expansion in the orthonormal ε-basis
begins with ``ε_i``.  Each row spans an abelian subalgebra of the nilradical
except in type C, where rows ``i < n`` are Heisenberg with one-dimensional
derived algebra spanned by the long root ``2ε_i``.  Row membership is
computed both from closed forms (the only per-type list of positive roots,
so the independent check on the orbit) and from the dominance order, and
the two are cross-checked when the stage table is built.  The
one convention worth spelling out: in type D the dominance-order computation
would place the second fork root ``α_n`` in a row of its own, while the
closed forms (and everything downstream: the row partition into 0/1/2 parts,
the paired solve stages) place it in row ``n−1`` together with ``α_{n-1}``.
The fork rows are merged accordingly before cross-checking.

``stage_table`` is the one definition of the rows and the solve stages,
built once per root system from positive-root indices: each row and each
stage's variables and constraints, in row basis order, and the index of
each row's type-C long root.  Everything downstream (the row profiles of
:mod:`hessenpave.paving`, the witness stages and lemma checks of
:mod:`hessenpave.liealg`) reads it, and the type-D split into stages is
decided there and nowhere else.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress
from math import comb, factorial
from operator import itemgetter, mul

from .errors import ConsistencyError

LIE_TYPES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

# Closed forms by type: the positive roots, the Weyl group order and the
# number of ad-nilpotent ideals, so of Hessenberg spaces.
_POSITIVE_COUNT = {"A": lambda n: n * (n + 1) // 2,
                   "B": lambda n: n * n,
                   "C": lambda n: n * n,
                   "D": lambda n: n * (n - 1)}
_WEYL_ORDER = {"A": lambda n: factorial(n + 1),
               "B": lambda n: 2 ** n * factorial(n),
               "C": lambda n: 2 ** n * factorial(n),
               "D": lambda n: 2 ** (n - 1) * factorial(n)}
_SPACE_COUNT = {"A": lambda n: comb(2 * n + 2, n + 1) // (n + 2),
                "B": lambda n: comb(2 * n, n),
                "C": lambda n: comb(2 * n, n),
                "D": lambda n: comb(2 * n, n) - comb(2 * n - 2, n - 1)}

IntMatrix = tuple[tuple[int, ...], ...]


class _Record:
    """Base of the package's immutable value records.

    A subclass lists its fields, in order, as ``__slots__``.  Instances are
    built positionally or by keyword, equal exactly the instances of their
    own class with equal fields, hash as the tuple of their field values,
    print as ``Name(field=value, ...)``, refuse assignment, and copy and
    pickle by value.  ``PavingCell``, built once per (w, space) pair, is the
    one record with its own ``__init__``, which stores each field with
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in values or name not in names:
                raise TypeError(f"{type(self).__name__}() got an unexpected "
                                f"or repeated field {name!r}")
            values[name] = value
        if len(args) > len(names) or len(values) < len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is refused
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot "
                             f"set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot "
                             f"delete {name!r}")


class Root(_Record):
    """A root, stored as its coefficient vector over the simple roots."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return any(self.coeffs) and all(c >= 0 for c in self.coeffs)

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


def _root_orbit(cartan: IntMatrix, limit: int
                ) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The orbit of the simple roots (listed first) under the reflections
    ``s_i(β) = β − ⟨β, α_i^∨⟩α_i`` of a Cartan matrix whose entry [j][i] is
    ``⟨α_j, α_i^∨⟩``, as coefficient vectors, and ``images[i][m]``, the
    orbit index of ``s_{i+1}`` of vector m.  Raises ConsistencyError once
    the orbit outgrows ``limit``, so a wrong matrix cannot loop forever."""
    n = len(cartan)
    # s_i changes coordinate i only, by the pairing with column i
    columns = list(zip(*cartan))
    orbit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    index = {v: m for m, v in enumerate(orbit)}
    images: list[list[int]] = [[] for _ in range(n)]
    for m, beta in enumerate(orbit):        # the orbit grows as it is walked
        for i, (column, line) in enumerate(zip(columns, images)):
            pairing = sum(map(mul, beta, column))
            if not pairing:
                line.append(m)
                continue
            img = beta[:i] + (beta[i] - pairing,) + beta[i + 1:]
            k = index.get(img)
            if k is None:
                if len(orbit) == limit:
                    raise ConsistencyError(
                        "the reflection orbit of the simple roots has more "
                        f"than {limit} vectors")
                k = index[img] = len(orbit)
                orbit.append(img)
            line.append(k)
    return orbit, images


def _check_system(lie_type: str, rank: int) -> None:
    """Refuse a type that is not one of LIE_TYPES, or a rank that is not an
    int (a float or a bool is refused, not converted) or is below the
    type's smallest rank, with ValueError."""
    if lie_type not in LIE_TYPES:
        raise ValueError(f"lie_type must be one of {LIE_TYPES}, got {lie_type!r}")
    if type(rank) is not int:
        raise ValueError(f"rank must be an integer, got {rank!r}")
    if rank < _MIN_RANK[lie_type]:
        raise ValueError(
            f"type {lie_type} needs rank >= {_MIN_RANK[lie_type]}, got {rank}"
        )


class RootSystem:
    """An irreducible classical root system with a fixed simple-root order.

    Construction generates the roots from the Cartan matrix (``_root_orbit``),
    orders the positive ones by (height, coefficient vector), and checks the
    orbit against the type formula's count.  Instances are immutable; two
    systems of the same type and rank compare equal.
    """

    def __init__(self, lie_type: str, rank: int):
        _check_system(lie_type, rank)
        self.lie_type = lie_type
        self.rank = rank

        name = f"{lie_type}{rank}"
        self._eps_simple = _epsilon_of_simple(lie_type, rank)
        self.cartan_matrix: IntMatrix = self._build_cartan()

        expected = _POSITIVE_COUNT[lie_type](rank)
        try:
            orbit, images = _root_orbit(self.cartan_matrix, 2 * expected)
        except ConsistencyError as exc:
            raise ConsistencyError(f"{name}: {exc}") from None
        vectors = sorted((v for v in orbit if min(v) >= 0),
                         key=lambda v: (sum(v), v))
        self.positive_roots: tuple[Root, ...] = tuple(Root(v) for v in vectors)
        self.negative_roots: tuple[Root, ...] = tuple(-r for r in self.positive_roots)
        self.all_roots: tuple[Root, ...] = self.positive_roots + self.negative_roots
        self.num_positive = len(self.positive_roots)
        self._index = {r.coeffs: k for k, r in enumerate(self.all_roots)}
        if len(vectors) != expected or self._index.keys() != set(orbit):
            raise ConsistencyError(
                f"{name}: the reflection orbit has {len(orbit)} roots, "
                f"{len(vectors)} of them positive; expected {expected} "
                "positive roots and their negatives")
        self._texts = tuple(format_root(r) for r in self.all_roots)

        self.simple_roots: tuple[Root, ...] = tuple(map(Root, orbit[:rank]))
        self._simple_index = tuple(self._index[v] for v in orbit[:rank])
        # the orbit's images, re-indexed from orbit order to all_roots order
        where = [self._index[v] for v in orbit]
        order = sorted(range(len(orbit)), key=where.__getitem__)
        self._reflections = tuple(tuple(where[line[m]] for m in order)
                                  for line in images)
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
        # the pairs (b, c) with a + b = c, by a; the index order is additive
        # (height, then coefficients), so ascending c is ascending b
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(npos)]
        for c, line in enumerate(self._pos_diff):
            for b, a in enumerate(line):
                if a is not None:
                    pairs[a].append((b, c))
        self._sum_pairs = tuple(map(tuple, pairs))
        # bit p of a positive-root mask, by index
        self._pos_bits = tuple(1 << p for p in range(npos))
        # (β, γ, α_j) as all_roots indices with β = γ + α_j, for the first
        # simple α_j that leaves a positive root γ, one for each non-simple
        # positive root β (the height order puts the simple roots first);
        # the linearity check of WeylElement inducts on height along these.
        # Beside them, the root-poset tables, masks over positive-root
        # indices (see the module docstring): a lower cover has smaller
        # height, so a smaller index, and its down-set is built first
        splits, covers, below = [], [], []
        heights = [0] * self.positive_roots[-1].height
        for p, line in enumerate(self._pos_diff):
            drops = [(d, a) for a in self._simple_index
                     if (d := line[a]) is not None]
            if p >= rank:
                if not drops:
                    raise ConsistencyError(f"{name}: {self.positive_roots[p]} "
                                           "is not a root plus a simple root")
                splits.append((p, *drops[0]))
            down = 1 << p
            for d, _ in drops:
                down |= below[d]
            covers.append(sum(1 << d for d, _ in drops))
            below.append(down)
            heights[self.positive_roots[p].height - 1] |= 1 << p
        self._splits = tuple(splits)
        self._covers = tuple(covers)
        self._below = tuple(below)
        self._heights = tuple(heights)

        # the tables that are budgeted or validated, and the type-A column
        # masks, built on first use by the modules that own them and kept
        # here, so that they live and die with this instance
        self._stages_cache: StageTable | None = None
        self._weyl_cache: tuple["WeylElement", ...] | None = None
        self._spaces_cache: tuple["HessenbergSpace", ...] | None = None
        self._columns_cache: tuple[tuple[int, ...], ...] | None = None

    # -- basic root arithmetic -------------------------------------------

    def root(self, coeffs: Iterable[int]) -> Root:
        """Validate a vector of int coefficients (no other type is converted)
        and wrap it as a Root."""
        try:
            t = tuple(coeffs)
        except TypeError:
            raise ValueError(f"root coefficients {coeffs!r} are not a "
                             "sequence of integers") from None
        for c in t:
            if type(c) is not int:
                raise ValueError(f"root coefficient {c!r} is not an integer")
        if t not in self._index:
            raise ValueError(f"{','.join(map(str, t))} is not a root of "
                             f"{self.lie_type}{self.rank}")
        return Root(t)

    def root_index(self, root: Root) -> int:
        """Index into all_roots (positives first, then their negatives)."""
        if not isinstance(root, Root):
            raise ValueError(f"{root!r} is not a Root")
        try:
            return self._index[root.coeffs]
        except KeyError:
            raise ValueError(f"{root} is not a root of {self.lie_type}{self.rank}")

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

    # -- equality / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, RootSystem)
                and self.lie_type == other.lie_type and self.rank == other.rank)

    def __hash__(self) -> int:
        return hash((self.lie_type, self.rank))

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type!r}, {self.rank})"


def dominance_leq(rs: RootSystem, beta: Root, alpha: Root) -> bool:
    """True iff ``beta ≤ alpha``: equal, or α − β a nonzero nonnegative
    integer combination of simple roots."""
    rs.root_index(beta)
    rs.root_index(alpha)
    return dominates(alpha, beta)


def parse_root(rs: RootSystem, text: str) -> Root:
    """Parse the comma-separated signed-integer encoding of a root."""
    if not isinstance(text, str):
        raise ValueError(f"malformed root text {text!r}")
    try:
        coeffs = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed root text {text!r}")
    return rs.root(coeffs)


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------


class WeylElement:
    """A Weyl group element w, stored as the permutation w⁻¹ induces on the
    indices of ``rs.all_roots``, together with a canonical reduced word.

    The roots span, so the permutation determines the element.  The word
    comes from greedy descent (repeatedly strip the smallest ``s_i`` with
    ``w⁻¹α_i < 0``), so equal permutations always carry identical words.
    The public constructor is for outside input: it checks that the
    permutation is a bijection, that it is linear on simple-root
    coordinates, that greedy descent reaches the identity (a diagram
    automorphism has no descent), and that the word length matches the
    inversion count.  ``enumerate_weyl`` builds its elements through
    ``_trusted_element`` instead, from fields it derives from a parent
    element and a validated simple reflection.  Either way the element
    holds its word, its inverse permutation and the cell masks ``sm`` (w⁻¹
    of the simple roots) and ``im`` (w⁻¹ of the inversion set Φ_w) over
    ``rs.all_roots`` indices, and no other action: w acts through its word
    (``apply``), and Φ_w as a mask (``inversion_mask``) is rebuilt per call.
    """

    __slots__ = ("rs", "word", "_inv_root_perm", "sm", "im", "_word_text")

    def __init__(self, rs: RootSystem, perm: Iterable[int]):
        perm = tuple(perm)
        _check_root_permutation(rs, perm)
        inv = [0] * len(perm)
        for src, dst in enumerate(perm):
            inv[dst] = src
        inv = tuple(inv)
        npos = rs.num_positive
        self.rs = rs
        self._inv_root_perm = inv
        self.sm = sum(1 << inv[a] for a in rs._simple_index)
        self.im = sum(1 << x for x in inv[:npos] if x >= npos)
        self.word = _canonical_word(rs, inv)
        if len(self.word) != self.im.bit_count():
            raise ConsistencyError("reduced word length != inversion count")

    @property
    def length(self) -> int:
        return len(self.word)

    def inverse_root_permutation(self) -> tuple[int, ...]:
        return self._inv_root_perm

    def inversion_mask(self) -> int:
        """Bitmask over positive-root indices of the inversion set: the
        positive roots p with w⁻¹p negative."""
        rs = self.rs
        return sum(compress(rs._pos_bits,
                            map(rs.num_positive.__le__, self._inv_root_perm)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeylElement) and self.rs == other.rs
                and self._inv_root_perm == other._inv_root_perm)

    def __hash__(self) -> int:
        return hash((self.rs.lie_type, self.rs.rank, self._inv_root_perm))

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


def _canonical_word(rs: RootSystem, inv: tuple[int, ...]) -> tuple[int, ...]:
    """Greedy descent on w⁻¹: w = s_i·(s_i·w) with i the smallest left
    descent, until the identity is reached."""
    identity = tuple(range(len(inv)))
    npos = rs.num_positive
    word = []
    while inv != identity:
        i = next((i for i, a in enumerate(rs._simple_index) if inv[a] >= npos),
                 None)
        if i is None:
            raise ValueError("root permutation is not induced by a Weyl "
                             "group element")
        word.append(i + 1)
        inv = tuple(inv[k] for k in rs._reflections[i])  # (s_i·w)⁻¹ = w⁻¹·s_i
    return tuple(word)


def _trusted_element(rs: RootSystem, word: tuple[int, ...],
                     inv: tuple[int, ...], sm: int, im: int) -> WeylElement:
    """A WeylElement from fields the caller has derived itself, with no
    checks; only ``enumerate_weyl`` calls it."""
    w = object.__new__(WeylElement)
    w.rs = rs
    w.word = word
    w._inv_root_perm = inv
    w.sm = sm
    w.im = im
    return w


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The simple reflection s_i, 1-based."""
    if type(i) is not int:
        raise ValueError(f"reflection index must be an integer, got {i!r}")
    if not 1 <= i <= rs.rank:
        raise ValueError(f"reflection index {i} out of range 1..{rs.rank}")
    return WeylElement(rs, rs._reflections[i - 1])


def apply(w: WeylElement, root: Root) -> Root:
    """The image w(root), by the word's reflections; always a valid root."""
    k = w.rs.root_index(root)
    for i in reversed(w.word):
        k = w.rs._reflections[i - 1][k]
    return w.rs.all_roots[k]


def inversion_set(w: WeylElement) -> frozenset[Root]:
    """The positive roots sent negative by w⁻¹."""
    mask = w.inversion_mask()
    return frozenset(r for p, r in enumerate(w.rs.positive_roots)
                     if mask >> p & 1)


def format_word(w: WeylElement) -> str:
    """Text form of a Weyl element: space-separated reflection indices,
    built once per element."""
    try:
        return w._word_text
    except AttributeError:
        w._word_text = " ".join(str(i) for i in w.word)
        return w._word_text


def parse_word(rs: RootSystem, text: str) -> WeylElement:
    """Parse a space-separated word of reflection indices ('' = identity)."""
    if not isinstance(text, str):
        raise ValueError(f"malformed Weyl word {text!r}")
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


# Counts in refusal messages are exact up to this size and named "more than
# 10^18" past it, so a budget check never builds a number of thousands of
# digits: 2001! has 5,700, which Python refuses to print, and the order at
# rank 10^8 would take minutes to compute.
_SHOWN_COUNT_LIMIT = 10 ** 18


def _bounded_count(count, low: int, rank: int) -> int | None:
    """``count(rank)``, or None when it is over _SHOWN_COUNT_LIMIT.

    ``count`` must not decrease with the rank, as every budgeted count
    does, so a count over the limit at a smaller rank settles it.  The
    ranks tried double from the smallest rank ``low``, so each is at most
    twice one whose count was within the limit: no count computed has more
    than a few dozen digits, and a rank of 10^8 takes 28 steps, where a
    walk rank by rank would take 10^8 (2n² roots stay within the limit up
    to n ≈ 7·10^8).
    """
    r = low
    while True:
        value = count(r)
        if value > _SHOWN_COUNT_LIMIT:
            return None
        if r == rank:
            return value
        r = min(2 * r, rank)


# Every per-system budget, by kind: the count of that kind for a type and
# rank, its limit, and the refusal, which names the system and the count.
# ``check_budget`` is the only reader.
_BUDGETS = {
    # Largest group enumerate_weyl builds: every rank <= 6 and A7 fit.  B6
    # (46,080 elements) takes about 0.3 s, in a process of 60 MB peak, on a
    # 2-vCPU Xeon; the next groups up (D7, A8, B7 and C7: 322,560 to
    # 645,120 elements) are 6 to 13 times the budget.
    "weyl": (lambda t, n: _WEYL_ORDER[t](n), 50_000,
             "the Weyl group of {} has {} elements"),
    # Most roots of a system the witness command builds a realization for:
    # A19 (380 roots) and B14 and C14 (392) take 0.25-0.5 s as a fresh
    # process on a 2-vCPU Xeon (five runs each).  The realization brackets
    # only the root pairs whose supports can meet, about 10 % of the |Φ|²
    # pairs, but still looks every pair up once (building A19 takes 0.2 s
    # in-process, A30 0.9 s).
    "roots": (lambda t, n: 2 * _POSITIVE_COUNT[t](n), 400, "{} has {} roots"),
    # Most spaces enumerate_hessenberg builds: ``enumerate-hess`` on A10
    # (58,786 spaces) takes about 2.4 s and 290 MB peak as a fresh process
    # on a 2-vCPU Xeon (0.2 s of it enumerating); the next counts up (D10
    # 136,136, B10 and C10 184,756, A11 208,012) would hold every space and
    # its output in memory.
    "spaces": (lambda t, n: _SPACE_COUNT[t](n), 60_000,
               "{} has {} Hessenberg spaces"),
    # Most cells (|W| times the number of spaces) that sweep computes: every
    # rank <= 5 system and A6 (2,162,160 cells) fit; D6 (15.5 M cells), B6
    # and C6 (42.6 M) and A7 (57.7 M) pass the Weyl budget but would run
    # for hours.
    "cells": (lambda t, n: _WEYL_ORDER[t](n) * _SPACE_COUNT[t](n), 2_500_000,
              "a sweep of {} has {} cells"),
}


def check_budget(kind: str, lie_type: str, rank: int) -> int:
    """Return the count of one kind of work (a key of _BUDGETS: "weyl",
    "roots", "spaces" or "cells") for the given type and rank, and raise
    ValueError when it is over that kind's budget.

    It needs no RootSystem, so callers can refuse before building one
    (construction grows with the rank).  A type or rank that RootSystem
    refuses is refused here first, with RootSystem's message.  A count over
    10^18 is named as such, not computed.
    """
    _check_system(lie_type, rank)
    count, limit, text = _BUDGETS[kind]
    value = _bounded_count(lambda n: count(lie_type, n), _MIN_RANK[lie_type],
                           rank)
    if value is None or value > limit:
        shown = "more than 10^18" if value is None else value
        raise ValueError(text.format(f"{lie_type}{rank}", shown)
                         + f", over the budget of {limit}")
    return value


def enumerate_weyl(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, by length and then lexicographic reduced word.

    One pass builds each element once, already in output order.  The
    canonical word of v is ``(j,) + word(s_j·v)`` with j the smallest left
    descent of v, so layer ℓ+1 is, for j = 1..rank and then w in layer ℓ in
    order, every v = s_j·w for which j is not a left descent of w (v is one
    longer) and no k < j is a left descent of v; both tests read w⁻¹ at
    roots fixed per j.  Each element is built from four fields, all from
    w: the word, ``v⁻¹ = w⁻¹∘s_j``, ``sm`` (the images ``v⁻¹(α_k) =
    w⁻¹(s_j α_k)``) and ``im`` (``v⁻¹(Φ_v) = w⁻¹(Φ_w) ∪ {w⁻¹(−α_j)}``).
    The inversion set Φ_v is derived from v⁻¹ by the callers that need it,
    and v itself acts through its word.  The simple reflections are
    checked once to be linear bijections of the roots, so their products
    need no check; the group order and the single longest element, of
    length |Φ⁺|, are checked at the end.

    Raises ValueError, before any work, when the group is over the "weyl"
    budget of ``check_budget``.  The result is cached on the root system.
    """
    if rs._weyl_cache is not None:
        return rs._weyl_cache
    expected = check_budget("weyl", rs.lie_type, rs.rank)
    for s in rs._reflections:
        _check_root_permutation(rs, s)
    npos = rs.num_positive
    simple = rs._simple_index
    ident = tuple(range(len(rs.all_roots)))
    layer = [_trusted_element(rs, (), ident, sum(1 << a for a in simple), 0)]
    out = list(layer)
    # per generator j: the index of −α_j; the roots α_j and s_j(α_k) for
    # k < j, at which w⁻¹ must be positive (a left descent of w makes v
    # shorter, and v⁻¹(α_k) = w⁻¹(s_j α_k) < 0 gives v a smaller first
    # letter); w⁻¹ ↦ w⁻¹∘s_j, an itemgetter returning a tuple, since every
    # system has at least two roots; and the roots s_j(α_k) for every k,
    # whose w⁻¹-images are v⁻¹(α_k)
    gens = [(j, a + npos, (a, *[s[b] for b in simple[:j - 1]]),
             itemgetter(*s), tuple(s[b] for b in simple))
            for j, (a, s) in enumerate(zip(simple, rs._reflections), 1)]
    while True:
        nxt = []
        for j, neg, tests, v_inv_of, sm_roots in gens:
            for w in layer:
                inv = w._inv_root_perm
                for c in tests:
                    if inv[c] >= npos:
                        break
                else:
                    sm = 0
                    for c in sm_roots:
                        sm |= 1 << inv[c]
                    nxt.append(_trusted_element(rs, (j,) + w.word,
                                                v_inv_of(inv), sm,
                                                w.im | 1 << inv[neg]))
        if not nxt:
            break
        layer = nxt
        out.extend(layer)
        if len(out) > expected:
            break       # only a wrong generator gets here; stop, then report
    if len(out) != expected:
        raise ConsistencyError(
            f"{rs.lie_type}{rs.rank}: Weyl enumeration found {len(out)} "
            f"elements, expected {expected}")
    if len(layer) != 1 or len(layer[0].word) != npos:
        raise ConsistencyError(
            f"{rs.lie_type}{rs.rank}: Weyl enumeration ended with "
            f"{len(layer)} elements of length "
            f"{len(layer[0].word)}, expected one of length {npos}")
    rs._weyl_cache = tuple(out)
    return rs._weyl_cache


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------


def _span_root(rs: RootSystem, *spans: tuple[int, int]) -> int | None:
    """The index of the root with 1 added on positions lo..hi (1-based,
    inclusive) of each span ``(lo, hi)`` of simple roots, e.g. ``(i, n),
    (k, n)`` for ``ε_i + ε_k`` in type B; an empty span (lo > hi) adds
    nothing.  None when that vector is not a root."""
    return rs._index.get(tuple(sum(lo <= k <= hi for lo, hi in spans)
                               for k in range(1, rs.rank + 1)))


def _closed_form_index_rows(rs: RootSystem
                            ) -> tuple[list[list[int]], list[int | None]]:
    """Rows from their closed forms, as positive-root indices, and the
    index of the long root ``2ε_i`` of each type-C row i < n (None
    elsewhere).  Row i holds ``ε_i − ε_j`` (j > i) and, by type, ``ε_i``
    (B), ``ε_i + ε_j`` (j > i; B, C, D) and ``2ε_i`` (C); in type D row
    n−1 holds ``ε_{n-1} + ε_n = α_n`` too, and row n is empty."""
    n = rs.rank
    t = rs.lie_type

    def root(*spans: tuple[int, int]) -> int:
        k = _span_root(rs, *spans)
        if k is None:
            v = [sum(lo <= j <= hi for lo, hi in spans)
                 for j in range(1, n + 1)]
            raise ConsistencyError(f"{t}{n}: closed-form root "
                                   f"{','.join(map(str, v))} was not generated")
        return k

    rows: list[list[int]] = []
    long_roots: list[int | None] = [None] * n
    for i in range(1, n + 1):
        if t == "D":
            row = [root((i, k)) for k in range(i, n)]
            row += [root((i, n - 2), (n, n), (k, n - 1))
                    for k in range(i + 1, n + 1)]
        else:
            row = [root((i, k)) for k in range(i, n + 1)]
        if t == "B":
            row += [root((i, n), (k, n)) for k in range(i + 1, n + 1)]
        elif t == "C":
            row += [root((i, n), (k, n - 1)) for k in range(i, n)]
            if i < n:
                long_roots[i - 1] = root((i, n), (i, n - 1))
        rows.append(row)
    return rows, long_roots


def _dominance_index_rows(rs: RootSystem) -> list[list[int]]:
    """Rows from the dominance order, as ascending positive-root indices:
    root α lands in the first row i with α ≥ α_i, the row of its first
    nonzero simple coefficient.  In type D the two fork rows are merged
    into row n−1 (see the module docstring)."""
    last = rs.rank - 2 if rs.lie_type == "D" else rs.rank - 1
    out: list[list[int]] = [[] for _ in range(rs.rank)]
    for k, alpha in enumerate(rs.positive_roots):
        first = next(i for i, c in enumerate(alpha.coeffs) if c)
        out[min(first, last)].append(k)
    return out


def _fork_parts(rs: RootSystem, row: list[int]
                ) -> tuple[list[int], list[int], list[int]]:
    """A type-D row split into three parts by how many of the fork roots
    ``α_{n-1}``, ``α_n`` appear as summands of each root."""
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for k in row:
        coeffs = rs.positive_roots[k].coeffs
        parts[(coeffs[-2] > 0) + (coeffs[-1] > 0)].append(k)
    return parts


def _row_key(r: Root) -> tuple:
    """Sort key of the row basis order: height descending, then the
    coefficient vector descending."""
    return (-r.height, tuple(-c for c in r.coeffs))


class StageTable(_Record):
    """Rows and solve stages as positive-root indices in row basis order.

    ``rows[i-1]`` is row i.  ``stages[k]`` is ``(vars, cons)`` for stage k
    (0-based): the roots the stage solves for and the roots it constrains.
    In types A, B, C stage k is row k+1 on both sides; in type D it pairs
    the plain part of row k with the fork-bearing parts of row k+1 (see
    ``stage_table``).  ``long_roots[i-1]`` is the index of the long root
    ``2ε_i`` of row i in type C (i < n) and None elsewhere.  ``masks[k]``
    is stage k's ``(vars, cons)`` as bitmasks over positive-root indices,
    which the row profiles of :mod:`hessenpave.paving` read.
    """

    __slots__ = ("rows", "stages", "long_roots", "masks")
    rows: tuple[tuple[int, ...], ...]
    stages: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    long_roots: tuple[int | None, ...]
    masks: tuple[tuple[int, int], ...]


def stage_table(rs: RootSystem) -> StageTable:
    """The stage table, cached on the root system.

    The closed-form rows must partition the positive roots and equal the
    dominance-order rows, and each type-C long root must lie in its row;
    a failure raises ConsistencyError naming the system.  Every index list
    follows one sort of the positive roots by ``_row_key``.
    """
    if rs._stages_cache is not None:
        return rs._stages_cache
    name = f"{rs.lie_type}{rs.rank}"
    rows, long_roots = _closed_form_index_rows(rs)
    members = [k for row in rows for k in row]
    if set(members) != set(range(rs.num_positive)):
        raise ConsistencyError(f"{name}: rows do not cover the positive roots")
    if len(members) != rs.num_positive:
        raise ConsistencyError(f"{name}: rows overlap")
    if [sorted(row) for row in rows] != _dominance_index_rows(rs):
        raise ConsistencyError(f"{name}: row decompositions disagree")
    for i, (row, gamma) in enumerate(zip(rows, long_roots), start=1):
        if gamma is not None and gamma not in row:
            raise ConsistencyError(
                f"{name}: long root of row {i} not in the row")
    pos = rs.positive_roots
    basis = sorted(range(rs.num_positive), key=lambda k: _row_key(pos[k]))

    def ordered(*parts: list[int]) -> tuple[int, ...]:
        chosen = set().union(*parts)
        return tuple(k for k in basis if k in chosen)

    row_idx = tuple(ordered(row) for row in rows)
    if rs.lie_type == "D":
        # parts[i] splits row i (row 0 is empty); stage i solves for
        # Φ_i^0 ∪ Φ_{i+1}^1 ∪ Φ_{i+1}^2 against Φ_i^0 ∪ Φ_i^1 ∪ Φ_{i+1}^2,
        # so the stages partition the positive roots on both sides
        parts = [([], [], [])] + [_fork_parts(rs, row) for row in rows]
        if any(len(p[1]) not in (0, 2) for p in parts):
            raise ConsistencyError(
                f"{name}: middle part of a D row must have 0 or 2 roots")
        stages = tuple((ordered(a[0], b[1], b[2]), ordered(a[0], a[1], b[2]))
                       for a, b in zip(parts, parts[1:]))
    else:
        stages = tuple((row, row) for row in row_idx)
    masks = tuple((sum(1 << k for k in vars_), sum(1 << k for k in cons))
                  for vars_, cons in stages)
    rs._stages_cache = StageTable(row_idx, stages, tuple(long_roots), masks)
    return rs._stages_cache
