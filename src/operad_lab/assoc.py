"""The permutation (associative) operad.

Basis of arity n: permutations of {1..n} in one-line notation, stored as
tuples.  Arity 0 has the single basis key () (the augmentation point), arity 1
the identity (1,), and the distinguished product is (1,2).

Partial composition of permutations is implemented twice on purpose:
``compose_blocks`` subdivides [n+l-1] into blocks, permutes blocks by the
inverse of the outer permutation and the inner block by the inverse of the
inner one, then inverts the resulting word; ``compose_formula`` is a direct
three-case closed formula.  The two are checked against each other.

``_face_rows`` names every face of a permutation by its lexicographic
rank, read off the face ranks of the previous degree; the assoc boundary
matrix is assembled from them (``cohomology._by_face_rank``), whose stream
keeps each degree's flat face table (``_face_table``) once it is built.
"""

from array import array
from itertools import chain, permutations
from math import factorial
from operator import add

from .elements import Operad, OperadError


def is_permutation(word):
    return sorted(word) == list(range(1, len(word) + 1))


def invert(word):
    """Inverse of a permutation in one-line notation."""
    out = [0] * len(word)
    for pos, val in enumerate(word, start=1):
        out[val - 1] = pos
    return tuple(out)


def standardize(word):
    """The permutation order-isomorphic to a repetition-free integer word."""
    if len(set(word)) != len(word):
        raise OperadError(f"word {word!r} has repeated letters")
    rank = {v: r for r, v in enumerate(sorted(word), start=1)}
    return tuple(rank[v] for v in word)


def compose_blocks(tau, i, sigma):
    """Block-subdivision composition: permute blocks by tau^-1, the inner
    block by sigma^-1, and invert the concatenated word."""
    n, l = len(tau), len(sigma)
    if not 1 <= i <= n:
        raise OperadError(f"slot {i} out of range for arity {n}")
    sigma_inv = invert(sigma)
    blocks = []
    for k in range(1, n + 1):
        if k < i:
            blocks.append((k,))
        elif k == i:
            blocks.append(tuple(i - 1 + sigma_inv[r] for r in range(l)))
        else:
            blocks.append((k + l - 1,))
    tau_inv = invert(tau)
    word = []
    for j in range(n):
        word.extend(blocks[tau_inv[j] - 1])
    return invert(tuple(word))


def compose_formula(tau, i, sigma):
    """Closed-formula composition: values above tau(i) shift by l-1 and the
    inner word lands at positions i..i+l-1 on values tau(i)..tau(i)+l-1."""
    if not 1 <= i <= len(tau):
        raise OperadError(f"slot {i} out of range for arity {len(tau)}")
    return _compose(tau, i, sigma)


def _compose(tau, i, sigma):
    """``compose_formula`` on a slot known to be in range."""
    n, l = len(tau), len(sigma)
    anchor = tau[i - 1]

    def shifted(v):
        return v if v < anchor else v + l - 1

    out = []
    for j in range(1, n + l):
        if j < i:
            out.append(shifted(tau[j - 1]))
        elif j <= i + l - 1:
            out.append(anchor - 1 + sigma[j - i])
        else:
            out.append(shifted(tau[j - l]))
    return tuple(out)


def delete_and_standardize(word, i):
    """Drop the letter v at position i (1-based) of a permutation and
    standardize, in closed form: every letter above v moves down by one."""
    if not 1 <= i <= len(word):
        raise OperadError(f"position {i} out of range for arity {len(word)}")
    return _delete(word, i)


def _delete(word, i):
    """``delete_and_standardize`` on a position known to be in range."""
    v = word[i - 1]
    return tuple([a - 1 if a > v else a for a in word[: i - 1] + word[i:]])


def _face_table(n, below):
    """The face rows of every degree-n permutation, n per permutation,
    stored flat, from ``below``, the table of degree n - 1."""
    return array("q", chain.from_iterable(_face_rows(n, below)))


def _face_rows(n, below):
    """The rows of the n faces of each degree-n permutation, face 1 first,
    the permutations in lexicographic order (``itertools.permutations``),
    each row the lexicographic rank of a face in degree n - 1.  ``below``
    is the face table of degree n - 1 (``_face_table``), empty for n = 1.

    The permutation of rank (a - 1)(n - 1)! + t is (a, tau+), where tau has
    rank t in degree n - 1 and + raises each letter >= a by one (the
    factorial number system; Knuth, TAOCP 4A, 7.2.1.2).  Face 1 deletes a
    and leaves tau.  Face i >= 2 deletes tau(i - 1) and leaves (a',
    face_{i-1}(tau)+), where a' is a - 1 when tau(i - 1) < a and a
    otherwise, so its rank is (a' - 1)(n - 2)! plus the rank of face i - 1
    of tau.

    In the first block, a = 1, no letter of tau is below a, so a' = 1 and
    every offset is 0: the faces of (1, tau+) are t and tau's own row of
    ``below``.  That block, the (n - 1)! permutations (1, tau+) = m o_2 tau,
    is where the reduction of d_n stops once d_(n-1) is ranked.  s = m o_2
    is an extra degeneracy, d s + s d = -1 (Weibel, 8.4), so each cycle tau
    of degree n - 1 is -d(s tau): the first block alone spans the image of
    d_n, and the reduction reaches its rank bound inside it."""
    if n == 0:
        yield []  # the key () has no faces
        return
    k, block = n - 1, factorial(max(n - 2, 0))
    for t in range(factorial(k)):
        yield [t, *below[t * k:t * k + k]]
    for a in range(2, n + 1):
        # (a' - 1)(n - 2)!, looked up by the letter tau(i - 1) that face i deletes
        offset = [None] + [(a - 2 if x < a else a - 1) * block for x in range(1, n)]
        for t, tau in enumerate(permutations(range(1, n))):
            yield [t, *map(add, below[t * k:t * k + k], map(offset.__getitem__, tau))]


def concat(tau, sigma):
    """Shifted concatenation: tau followed by sigma raised above tau."""
    n = len(tau)
    return tuple(tau) + tuple(v + n for v in sigma)


def deconcat_coproduct(word):
    """All splits of the word into standardized prefix and suffix.

    Returns the (n+1)-term list [(left, right)] with left length j for
    j = 0..n; the empty factor is the arity-0 key ().
    """
    n = len(word)
    out = []
    for j in range(n + 1):
        left = standardize(word[:j]) if j else ()
        right = standardize(word[j:]) if j < n else ()
        out.append((left, right))
    return out


class AssocOperad(Operad):
    """Operad instance whose arity-n basis is the n! permutations."""

    label = "assoc"

    def validate_basis(self, key, arity):
        key = tuple(key)
        if len(key) != arity or (key and not is_permutation(key)):
            raise OperadError(f"bad permutation key {key!r} for arity {arity}")
        return key

    def compose_basis(self, key, i, other):
        if other:
            return [(_compose(key, i, other), self.field.one)]
        return [(_delete(key, i), self.field.one)]

    def basis_keys(self, arity):
        return permutations(range(1, arity + 1))

    def dimension(self, arity):
        return factorial(arity)

    def random_basis(self, arity, rng):
        word = list(range(1, arity + 1))
        rng.shuffle(word)
        return tuple(word)

    def format_basis(self, key):
        if not key:
            return "()"
        if len(key) <= 9:
            return "(" + "".join(str(v) for v in key) + ")"
        return "(" + ",".join(str(v) for v in key) + ")"

    def parse_basis(self, text):
        s = text.strip().strip("()")
        if not s:
            return ()
        try:
            key = tuple(int(t) for t in (s.split(",") if "," in s else s))
        except ValueError:
            key = None
        if key is None or not is_permutation(key):
            raise OperadError(f"{text!r} is not a permutation")
        return key
