"""Invariants the library keeps without checking them at run time.

Basis keys are validated where they enter (``Element(...)``,
``Element.basis``, ``parse_basis``, element JSON); every combination the
library builds from them is summed without validating again.  Coefficients
are made scalars of the field (``field.coerce``) where they enter too, and
never again.  These seeded tests re-check that every key the library
produces is valid, and that no operation or matrix assembly calls
``validate_basis`` or ``coerce`` once its inputs exist.  The library also
avoids ``assert``, which ``python -O`` strips, and neither it nor the tests
import a name they do not use.
"""

import ast
import random
from pathlib import Path

import pytest

import operad_lab
from operad_lab import (
    AssocOperad,
    ComplexSpec,
    Element,
    EndoOperad,
    ShiftOperad,
    boundary,
    brace,
    classical_coboundary,
    coboundary,
    compose,
    cup_product,
    degeneracy,
    differential_matrix,
    dual_numbers,
    face,
    get_field,
    matrix2,
    random_element,
)

F5 = get_field("gfp:5")
OPERADS = {
    "assoc": AssocOperad(F5),
    "shift": ShiftOperad(F5),
    "endo:dual": EndoOperad(dual_numbers(F5)),
    "endo:m2": EndoOperad(matrix2(F5)),
}
ROUNDS = 25


def sample(op, arity, rng):
    """A random element built through the validating constructor."""
    return Element(op, arity, random_element(op, arity, rng).terms)


def make_cases(op, rng):
    cases = []
    for _ in range(ROUNDS):
        n = rng.randint(1, 3)
        x = sample(op, n, rng)
        y = sample(op, rng.randint(0, 2), rng)
        qs = [sample(op, rng.randint(0, 2), rng) for _ in range(rng.randint(1, n))]
        z = sample(op, rng.randint(1, 2), rng)
        i, c = rng.randint(1, n), F5.from_int(rng.randint(2, 4))
        a = None
        if isinstance(op, EndoOperad):
            # a degree-0 cochain of the classical complex: an algebra element
            a = Element(op, 0, {(i % op.algebra.dim,): c})
        cases.append((x, y, z, a, qs, i, c))
    return cases


def operations(op, case):
    """Every operation under test on one case, as (name, result) pairs."""
    x, y, z, a, qs, i, c = case
    point = op.unit_zero()
    out = [
        ("compose", compose(x, i, y)),
        ("face", face(x, i)),
        ("degeneracy", degeneracy(x, i)),
        ("degeneracy of a point", degeneracy(point.scale(c))),
        ("boundary", boundary(x)),
        ("coboundary", coboundary(x)),
        ("brace", brace(x, qs)),
        ("sum", x + x.scale(c)),
        ("difference", boundary(x) - face(x, i)),
        ("negation", -x),
    ]
    if isinstance(op, EndoOperad):
        out += [
            ("classical coboundary", classical_coboundary(x)),
            ("classical coboundary in degree 0", classical_coboundary(a)),
            ("cup product", cup_product(x, z)),
        ]
    return out


@pytest.mark.parametrize("label", sorted(OPERADS))
def test_results_hold_only_valid_keys(label):
    op = OPERADS[label]
    for case in make_cases(op, random.Random(f"keys:{label}")):
        for name, result in operations(op, case):
            for key in result.terms:
                assert op.validate_basis(key, result.arity) == key, (name, key)
            assert Element(op, result.arity, result.terms) == result, name


def matrices(op):
    """The differential matrices of degrees 0..3 of every kind ``op`` takes."""
    kinds = ["boundary"] if isinstance(op, ShiftOperad) else ["boundary", "coboundary"]
    if isinstance(op, EndoOperad):
        kinds.append("hochschild")
    return [differential_matrix(ComplexSpec(op, kind, 0, 3), n)
            for kind in kinds for n in range(4)]


@pytest.mark.parametrize("label", sorted(OPERADS))
def test_operations_do_not_validate_again(label, monkeypatch):
    # nor make a coefficient a scalar again: the matrix constructor that
    # merges the columns of every kind is trusted too
    op = OPERADS[label]
    cases = make_cases(op, random.Random(f"keys:{label}"))
    expected = [operations(op, case) for case in cases]
    expected_matrices = matrices(op)
    assert any(m.nnz for m in expected_matrices)

    def refuse(self, key, arity):
        raise RuntimeError(f"validate_basis({key!r}, {arity}) called on library output")

    def refuse_coerce(self, value):
        raise RuntimeError(f"coerce({value!r}) called on library output")

    monkeypatch.setattr(type(op), "validate_basis", refuse)
    monkeypatch.setattr(type(op.field), "coerce", refuse_coerce)
    assert [operations(op, case) for case in cases] == expected
    assert matrices(op) == expected_matrices


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(operad_lab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def unused_imports(source):
    """Names a module imports but never reads; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_sees_through_all():
    source = "import os\nimport sys\nfrom json import dumps, loads\n__all__ = ['dumps']\nsys.exit\n"
    assert unused_imports(source) == [(1, "os"), (3, "loads")]


def test_library_and_tests_have_no_unused_imports():
    package = Path(operad_lab.__file__).parent
    found = [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
