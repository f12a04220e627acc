"""Exceptions shared across the package, and its one wrong-type refusal.

Validation problems (bad user input, out-of-range ranks, malformed text
encodings) raise plain ``ValueError``.  ``ConsistencyError`` is reserved for
failures of internal cross-checks: two independent computations of the same
quantity disagreeing, a constructive solve contradicting a combinatorial
prediction, and the like.  A ``ConsistencyError`` always signals a bug, never
bad input.

Every public function refuses an argument of the wrong type through
``expect``, so a caller's mistake is a ``ValueError`` naming the value,
never a bare ``TypeError`` or ``AttributeError`` from deep inside.  The
kind is tested exactly: a bool is not an int and a float is not converted.
"""


class ConsistencyError(RuntimeError):
    """Two routes to the same mathematical fact disagreed."""


def expect(value, kind, what: str | None = None) -> None:
    """Refuse ``value`` with ValueError unless its type is ``kind``, or one
    of the types in ``kind`` when that is a tuple.

    An int slot names itself (``what``): "rank must be an integer, got
    2.0".  Any other slot names the kind: "5 is not a WeylElement".
    """
    if type(value) is kind or type(kind) is tuple and type(value) in kind:
        return
    if kind is int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    names = kind if type(kind) is tuple else (kind,)
    raise ValueError(f"{value!r} is not a "
                     f"{' or '.join(k.__name__ for k in names)}")
