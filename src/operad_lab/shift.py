"""The shift operad on strictly increasing integer sequences.

Basis of arity n: strictly increasing n-tuples of positive integers.  Arity 0
is the empty tuple, the operadic unit is (1,), and the distinguished product
is (1, 2).  Composition splices a translated copy of the inner sequence into
one slot of the outer one and pushes the tail up.
"""

from itertools import combinations
from math import comb
from operator import lt

from .elements import Operad, OperadError

DEFAULT_MAX_ENTRY = 8


def is_increasing(key):
    """Strictly increasing and positive: an increasing tuple is positive
    exactly when its first entry is."""
    return all(map(lt, key, key[1:])) and (not key or key[0] >= 1)


def compose_shift(x, i, y):
    """Splice y (translated to start at x[i-1]) into slot i of x."""
    if not 1 <= i <= len(x):
        raise OperadError(f"slot {i} out of range for arity {len(x)}")
    return _splice(x, i, y)


def _splice(x, i, y):
    """``compose_shift`` on a slot known to be in range; the result is still
    checked to be increasing."""
    if y:
        offset = x[i - 1] - 1
        tail_offset = y[-1] - 1
        out = (*x[: i - 1], *[a + offset for a in y], *[a + tail_offset for a in x[i:]])
    else:
        out = (*x[: i - 1], *[a - 1 for a in x[i:]])
    if not is_increasing(out):
        raise OperadError(f"non-increasing result {out!r} from {x!r} o_{i} {y!r}")
    return out


def gamma_shift(x, blocks):
    """Total composition in closed form: block i is translated by
    x[i-1] - i + sum of the last entries of the earlier blocks."""
    n = len(x)
    if len(blocks) != n:
        raise OperadError(f"gamma needs {n} blocks, got {len(blocks)}")
    out = []
    acc = 0
    for i in range(1, n + 1):
        block = blocks[i - 1]
        offset = x[i - 1] - i + acc
        out.extend(a + offset for a in block)
        acc += block[-1] if block else 0
    key = tuple(out)
    if not is_increasing(key):
        raise OperadError(f"non-increasing result {key!r} from gamma of {x!r}")
    return key


class ShiftOperad(Operad):
    """Operad instance on strictly increasing positive integer tuples.

    ``max_entry`` only bounds basis enumeration and random sampling; the
    operations themselves are unbounded.
    """

    label = "shift"

    def __init__(self, field, max_entry=DEFAULT_MAX_ENTRY):
        if not isinstance(max_entry, int) or isinstance(max_entry, bool):
            raise OperadError(f"max_entry must be an int, got {max_entry!r}")
        if max_entry < 2:
            raise OperadError("max_entry must be at least 2")
        super().__init__(field)
        self.max_entry = max_entry

    def validate_basis(self, key, arity):
        key = tuple(key)
        if len(key) != arity or not is_increasing(key):
            raise OperadError(f"bad increasing-sequence key {key!r} for arity {arity}")
        return key

    def compose_basis(self, key, i, other):
        return [(_splice(key, i, other), self.field.one)]

    def basis_keys(self, arity):
        # combinations copies its whole pool into a tuple first, so the one
        # key of arity 0 must not go through it when max_entry is huge, and
        # a pool too long to copy is refused by name
        if arity == 0:
            return iter([()])
        try:
            return combinations(range(1, self.max_entry + 1), arity)
        except (OverflowError, MemoryError):
            raise OperadError(
                f"max-entry {self.max_entry} is too large to list the keys of arity {arity}"
            ) from None

    def dimension(self, arity):
        return comb(self.max_entry, arity)

    def random_basis(self, arity, rng):
        top = max(self.max_entry, arity)
        return tuple(sorted(rng.sample(range(1, top + 1), arity)))

    def format_basis(self, key):
        return "(" + ",".join(str(v) for v in key) + ")"

    def parse_basis(self, text):
        s = text.strip().strip("()")
        if not s:
            return ()
        try:
            key = tuple(int(t) for t in s.split(","))
        except ValueError:
            key = None
        if key is None or not is_increasing(key):
            raise OperadError(f"{text!r} is not strictly increasing and positive")
        return key
