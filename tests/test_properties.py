"""Property tests on random basis keys, run when hypothesis is installed.

Text and JSON round trips for keys and elements of all three operads, the
closed-form assoc face against delete-then-standardize, the shift key test
against its two-pass form, the int rank kernel against the field-generic
elimination and the dense path, the ranks of a whole random chain complex
against ``rank()`` and the row-pivot oracle, and a fuzz of the command line.
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from operad_lab import (
    AssocOperad,
    Element,
    EndoOperad,
    ShiftOperad,
    element_from_json,
    element_to_json,
    get_field,
)
from operad_lab.assoc import delete_and_standardize, standardize
from operad_lab.cli import main
from operad_lab.endo import dual_numbers, matrix2
from operad_lab.linalg import SparseMatrix, _dense_rank
from operad_lab.shift import is_increasing
from test_linalg import (
    ORACLE_FIELDS,
    _sparse_rank,
    check_rank_complex,
    integer_rank,
    product,
    random_complex,
)
from test_shift import _two_pass_is_increasing

Q = get_field("q")
F5 = get_field("gfp:5")
OPERADS = {
    "assoc": AssocOperad(F5),
    "shift": ShiftOperad(F5),
    "endo:dual": EndoOperad(dual_numbers(Q)),
    "endo:m2": EndoOperad(matrix2(F5)),
}
MAX_ARITY = {"assoc": 10, "shift": 9, "endo:dual": 5, "endo:m2": 4}
PROPERTY = settings(max_examples=150, deadline=None)


def keys_of_arity(label, n):
    if label == "assoc":
        return st.permutations(range(1, n + 1)).map(tuple)
    if label == "shift":
        return st.sets(st.integers(1, 40), min_size=n, max_size=n).map(
            lambda s: tuple(sorted(s))
        )
    dim = OPERADS[label].algebra.dim
    if n == 0:
        # the point, or an algebra element of the classical degree 0
        return st.sampled_from([()] + [(j,) for j in range(dim)])
    return st.lists(st.integers(0, dim - 1), min_size=n + 1, max_size=n + 1).map(tuple)


def arities(label):
    return st.integers(0, MAX_ARITY[label])


def keys(label):
    return arities(label).flatmap(lambda n: keys_of_arity(label, n))


def elements(label):
    op = OPERADS[label]
    coeffs = st.integers(-6, 6).map(op.field.from_int)
    return arities(label).flatmap(
        lambda n: st.lists(st.tuples(keys_of_arity(label, n), coeffs), max_size=4).map(
            lambda pairs: Element(op, n, pairs)
        )
    )


@pytest.mark.parametrize("label", sorted(OPERADS))
def test_parse_format_and_json_round_trip_keys(label):
    op = OPERADS[label]

    @PROPERTY
    @given(keys(label))
    def check(key):
        assert op.parse_basis(op.format_basis(key)) == key
        assert op.basis_from_json(op.basis_to_json(key)) == key

    check()


@pytest.mark.parametrize("label", sorted(OPERADS))
def test_element_json_round_trip(label):
    op = OPERADS[label]

    @PROPERTY
    @given(elements(label))
    def check(x):
        assert element_from_json(element_to_json(x), op) == x

    check()


@PROPERTY
@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(keys_of_arity("assoc", n), st.integers(1, n))
))
def test_closed_form_face_matches_standardize(case):
    word, i = case
    assert delete_and_standardize(word, i) == standardize(word[: i - 1] + word[i:])


@PROPERTY
@given(st.lists(st.integers(-3, 12), max_size=8).map(tuple)
       | st.sets(st.integers(-3, 12), max_size=8).map(lambda s: tuple(sorted(s))))
def test_is_increasing_matches_two_pass_form(key):
    assert is_increasing(key) == _two_pass_is_increasing(key)


def matrices(field, rows=st.integers(0, 10), cols=st.integers(0, 10)):
    """Matrices with up to 10 rows and columns by default, often with empty
    rows and columns; over Q the entries include negatives and non-integral
    rationals."""
    if field.kind == "rational":
        values = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    else:
        values = st.integers(0, field.p - 1)
    return st.tuples(rows, cols).flatmap(
        lambda shape: st.lists(
            st.tuples(st.integers(0, max(shape[0] - 1, 0)),
                      st.integers(0, max(shape[1] - 1, 0)), values),
            max_size=shape[0] * shape[1],
        ).map(lambda triples: SparseMatrix(*shape, field, triples))
    )


def low_rank_matrices(field):
    """Products through an inner dimension of at most 4: dependent rows."""
    return st.integers(0, 4).flatmap(
        lambda k: st.tuples(matrices(field, cols=st.just(k)), matrices(field, rows=st.just(k)))
    ).map(lambda ab: product(*ab))


@pytest.mark.parametrize("label", ORACLE_FIELDS)
def test_integer_rank_matches_generic_and_dense(label):
    field = get_field(label)

    @PROPERTY
    @given(st.one_of(matrices(field), low_rank_matrices(field)))
    def check(m):
        expected = _sparse_rank(m)
        assert integer_rank(m) == expected
        assert _dense_rank(m.to_dense(), field) == expected

    check()


@pytest.mark.parametrize("label", ("q", "gfp:2", "gfp:5"))
def test_rank_complex_matches_rank_and_row_pivots(label):
    field = get_field(label)

    @PROPERTY
    @given(st.integers(0, 2**32), st.booleans())
    def check(seed, ascending):
        mats = random_complex(random.Random(seed), field, ascending)
        check_rank_complex(mats, ascending)

    check()


# --- command-line fuzz ------------------------------------------------------

# (well-formed, malformed) values per option; most draws are well-formed so
# that whole commands get past parsing and into the library
ELEMENTS = (
    ["4312", "21", "1", "()", "2*12-1/2*21", "(1,3)", "2,5,7", "E[0->0]", "E[1,0->1]",
     '{"arity":1,"coeffs":["1","0","0","1"]}',
     '{"arity":2,"terms":[{"basis":[2,1],"coeff":"1"}]}'],
    ["0", "12a", "", "[1,2]", "1/0*12", "12 + 21", "1,x", "E[a->0]", "E[7->0]",
     '{"arity":true,"coeffs":[1]}', '{"terms":[]}', "@/no/such/file.json"],
)
OPTION_VALUES = {
    "--operad": (["assoc", "shift", "endo:k", "endo:dual", "endo:m2"],
                 ["endo:", "endo:zz", "endo:@/no/such.json", "mystery"]),
    "--field": (["q", "gfp:2", "gfp:5"], ["gfp:4", "gfp:x", "gfp:2147483659", "gfp:-3", "r", ""]),
    "--max-entry": (["3", "8"], ["-1", "0", "x"]),
    "--element": ELEMENTS,
    "--left": ELEMENTS,
    "--right": ELEMENTS,
    "--with": ELEMENTS,
    "--at": (["1", "2"], ["-1", "0", "5", "x"]),
    "--differential": (["boundary", "coboundary", "hochschild"], ["cobar"]),
    "--lo": (["0", "1", "2"], ["-1", "3", "x"]),
    "--hi": (["2", "3"], ["-1", "0", "x"]),
    "--column-cap": (["1", "30", "1000"], ["-1", "0", "x"]),
    "--suite": (["simplicial", "chain", "brace", "cohomology"], ["bogus"]),
    "--seed": (["0", "7"], ["-2", "x"]),
    "--trials": (["1", "2"], ["-1", "0", "x"]),
}
COMMON = ("--operad", "--field", "--max-entry", "--json")
COMMAND_OPTIONS = {
    "compose": ("--left", "--at", "--right") + COMMON,
    "face": ("--element", "--at") + COMMON,
    "degen": ("--element", "--at") + COMMON,
    "boundary": ("--element",) + COMMON,
    "coboundary": ("--element",) + COMMON,
    "brace": ("--element", "--with", "--with") + COMMON,
    "dot": ("--left", "--right") + COMMON,
    "odot": ("--left", "--right") + COMMON,
    "coproduct": ("--element",) + COMMON,
    "cohomology": ("--differential", "--lo", "--hi", "--column-cap", "--allow-large") + COMMON,
    # --suite is always given: the full default suite set takes seconds
    "verify": ("--suite", "--suite", "--operad", "--field", "--seed", "--trials", "--json"),
}
FLAGS = ("--json", "--allow-large")


@st.composite
def cli_argv(draw, command):
    argv = [command]
    for i, option in enumerate(COMMAND_OPTIONS.get(command, ())):
        if option in FLAGS:
            if draw(st.booleans()):
                argv.append(option)
        elif (command == "verify" and i == 0) or draw(st.integers(0, 5)):
            well_formed, malformed = OPTION_VALUES[option]
            values = well_formed if draw(st.integers(0, 4)) else malformed
            argv += [option, draw(st.sampled_from(values))]
    return argv


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS) + ["nope"])
def test_cli_fuzz_exits_with_a_known_code_and_no_traceback(command):
    @settings(max_examples=40, deadline=None)
    @given(cli_argv(command))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 64), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv

    check()
