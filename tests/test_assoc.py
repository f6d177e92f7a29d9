"""Permutation operad: standardization, both composition methods, faces,
and the face-rank tables."""

import itertools
import random
from math import factorial
from operator import add

import pytest

from operad_lab import AssocOperad, Element, OperadError, get_field
from operad_lab.assoc import (
    _face_rows,
    _face_table,
    compose_blocks,
    compose_formula,
    concat,
    deconcat_coproduct,
    delete_and_standardize,
    invert,
    is_permutation,
    standardize,
)

Q = get_field("q")
ASSOC = AssocOperad(Q)


def test_standardize_goldens():
    assert standardize((2, 9, 1, 8, 4, 7)) == (2, 6, 1, 5, 3, 4)
    assert standardize((3, 7, 4, 5)) == (1, 4, 2, 3)
    assert standardize((5,)) == (1,)
    assert standardize(()) == ()


def test_standardize_rejects_repeats():
    with pytest.raises(OperadError):
        standardize((1, 1, 2))


def test_invert():
    assert invert((2, 3, 1)) == (3, 1, 2)
    assert invert((1,)) == (1,)
    for perm in itertools.permutations(range(1, 5)):
        assert invert(invert(perm)) == perm


def test_compose_paper_goldens_both_methods():
    tau, sigma = (4, 3, 1, 2), (2, 3, 1)
    assert compose_blocks(tau, 1, sigma) == (5, 6, 4, 3, 1, 2)
    assert compose_formula(tau, 1, sigma) == (5, 6, 4, 3, 1, 2)
    assert compose_blocks(tau, 2, sigma) == (6, 4, 5, 3, 1, 2)
    assert compose_formula(tau, 2, sigma) == (6, 4, 5, 3, 1, 2)


def test_compose_with_identity_perm():
    for perm in itertools.permutations(range(1, 5)):
        for slot in range(1, 5):
            assert compose_formula(perm, slot, (1,)) == perm
            assert compose_formula((1,), 1, perm) == perm


def test_methods_agree_exhaustive_small():
    for n in range(1, 4):
        for l in range(1, 4):
            for tau in itertools.permutations(range(1, n + 1)):
                for sigma in itertools.permutations(range(1, l + 1)):
                    for slot in range(1, n + 1):
                        assert compose_blocks(tau, slot, sigma) == compose_formula(
                            tau, slot, sigma
                        )


def test_associativity_of_composition():
    rng = random.Random(0)
    for _ in range(200):
        n, l, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        f = tuple(rng.sample(range(1, n + 1), n))
        g = tuple(rng.sample(range(1, l + 1), l))
        h = tuple(rng.sample(range(1, k + 1), k))
        i = rng.randint(1, n)
        j = rng.randint(1, l)
        # nested: plug h inside g, then g inside f
        lhs = compose_formula(compose_formula(f, i, g), j + i - 1, h)
        rhs = compose_formula(f, i, compose_formula(g, j, h))
        assert lhs == rhs


def test_disjoint_slots_commute():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(2, 5)
        l, k = rng.randint(1, 3), rng.randint(1, 3)
        f = tuple(rng.sample(range(1, n + 1), n))
        g = tuple(rng.sample(range(1, l + 1), l))
        h = tuple(rng.sample(range(1, k + 1), k))
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        lhs = compose_formula(compose_formula(f, i, g), j + l - 1, h)
        rhs = compose_formula(compose_formula(f, j, h), i, g)
        assert lhs == rhs


def test_delete_and_standardize():
    assert delete_and_standardize((4, 3, 1, 2), 1) == (3, 1, 2)
    assert delete_and_standardize((4, 3, 1, 2), 2) == (3, 1, 2)
    assert delete_and_standardize((4, 3, 1, 2), 3) == (3, 2, 1)
    assert delete_and_standardize((4, 3, 1, 2), 4) == (3, 2, 1)
    assert delete_and_standardize((1,), 1) == ()


def test_closed_form_face_matches_standardize_exhaustive():
    # the closed form against its definition: delete, then standardize
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            for i in range(1, n + 1):
                assert delete_and_standardize(word, i) == standardize(word[: i - 1] + word[i:])
            for i in (0, n + 1):
                with pytest.raises(OperadError):
                    delete_and_standardize(word, i)


def test_concat_deconcat():
    assert concat((2, 1), (1, 2)) == (2, 1, 3, 4)
    assert concat((), (1,)) == (1,)
    pairs = deconcat_coproduct((3, 1, 2, 4))
    assert pairs == [
        ((), (3, 1, 2, 4)),
        ((1,), (1, 2, 3)),
        ((2, 1), (1, 2)),
        ((3, 1, 2), (1,)),
        ((3, 1, 2, 4), ()),
    ]


def test_operad_interface():
    assert ASSOC.label == "assoc"
    assert ASSOC.arity_of((3, 1, 2)) == 3
    assert ASSOC.dimension(4) == 24
    assert sorted(ASSOC.basis_keys(3)) == sorted(itertools.permutations((1, 2, 3)))
    assert ASSOC.unit_one() == Element.basis(ASSOC, (1,))
    assert ASSOC.unit_zero() == Element.basis(ASSOC, ())
    assert ASSOC.multiplication() == Element.basis(ASSOC, (1, 2))
    with pytest.raises(OperadError):
        ASSOC.validate_basis((1, 3), 2)
    with pytest.raises(OperadError):
        ASSOC.validate_basis((1, 2), 3)


def test_parse_and_format():
    assert ASSOC.parse_basis("4312") == (4, 3, 1, 2)
    assert ASSOC.parse_basis("4,3,1,2") == (4, 3, 1, 2)
    assert ASSOC.parse_basis("()") == ()
    assert ASSOC.format_basis((4, 3, 1, 2)) == "(4312)"
    assert ASSOC.format_basis(()) == "()"
    long_perm = tuple(range(1, 11))
    assert ASSOC.parse_basis(ASSOC.format_basis(long_perm)) == long_perm
    with pytest.raises(OperadError):
        ASSOC.parse_basis("122")


def test_is_permutation():
    assert is_permutation((2, 1))
    assert is_permutation(())
    assert not is_permutation((1, 3))
    assert not is_permutation((1, 1))


# The face rows before the first block read straight off the table below,
# kept verbatim: every block, the first too, adds its offsets.
def _face_rows_all_offsets(n, below):
    if n == 0:
        yield []  # the key () has no faces
        return
    k, block = n - 1, factorial(max(n - 2, 0))
    for a in range(1, n + 1):
        # (a' - 1)(n - 2)!, looked up by the letter tau(i - 1) that face i deletes
        offset = [None] + [(a - 2 if x < a else a - 1) * block for x in range(1, n)]
        for t, tau in enumerate(itertools.permutations(range(1, n))):
            yield [t, *map(add, below[t * k:t * k + k], map(offset.__getitem__, tau))]


def test_face_rows_match_the_all_offsets_oracle():
    # every row up to degree 7, each table built by the oracle alone, and
    # at degree 8 the first block, the 5040 columns a reduction reads
    below, table = [], ()
    for n in range(8):
        want = list(_face_rows_all_offsets(n, below))
        assert list(_face_rows(n, below)) == want and len(want) == factorial(n), n
        below = [r for row in want for r in row]
        table = _face_table(n, table)
        assert list(table) == below, n
    first = list(itertools.islice(_face_rows(8, table), 5040))
    assert first == list(itertools.islice(_face_rows_all_offsets(8, below), 5040))

