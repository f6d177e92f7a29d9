"""Every complex the tests check, written once.

``SERVED`` has one row per operad selector and kind that
``cohomology.DIFFERENTIALS`` serves, with the top degree the tests reach
on it.  Each row runs over the fields of ``FIELDS`` in which its algebra
has a value.  ``operad(selector, label)`` makes the operad a selector
names:

- a preset of the command line, ``assoc``, ``endo:k``, ``endo:dual`` or
  ``endo:m2``, and ``shift:N``, shift truncated at max-entry N;
- ``2k``, the scaled line, whose unit and product are not 0 or 1;
- a closed-form algebra of ``CLOSED_FORM_ALGEBRAS``;
- ``fractional_x2``, whose structure constants are not integral.

A test of the served streams parametrizes over ``cases()``, the (row,
field) pairs.  A property that is too slow at a row's top degree stops
lower, and says so in its own test.  A new stream or algebra is one row.
"""

import itertools
from typing import NamedTuple

import pytest

from operad_lab import EndoOperad, FinAlgebra, get_field
from operad_lab.cli import make_operad
from operad_lab.endo import algebra_from_json

FIELDS = ("q", "gfp:2", "gfp:3", "gfp:5")

# 2k's unit 1/2 has no value over gfp:2, nor fractional_x2's 2/3 over gfp:3
NO_VALUE = {("2k", "gfp:2"), ("fractional_x2", "gfp:3")}


def scaled_line(field):
    """The ground field on the basis vector e = 2: e*e = 2e and the unit is
    e/2, so the product and the point carry coefficients other than 0 and 1."""
    two = field.from_int(2)
    return EndoOperad(FinAlgebra("2k", field, 1, (field.inv(two),), (((two,),),)))


def algebra_json(dim, unit, product):
    """Structure constants where ``product(i, j)`` is the index of e_i e_j,
    or None when the product is 0."""
    mul = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j in itertools.product(range(dim), repeat=2):
        k = product(i, j)
        if k is not None:
            mul[i][j][k] = 1
    return {"dim": dim, "unit": unit, "mul": mul}


T2_PRODUCTS = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}  # e11, e12, e22

# T_2's unit [1,0,1] is not basis vector 0
CLOSED_FORM_ALGEBRAS = {
    "truncated_x3": algebra_json(3, [1, 0, 0], lambda i, j: i + j if i + j < 3 else None),
    "group_c3": algebra_json(3, [1, 0, 0], lambda i, j: (i + j) % 3),
    "triangular_t2": algebra_json(3, [1, 0, 1], lambda i, j: T2_PRODUCTS.get((i, j))),
}

# k[x]/(x^2 - 2/3) on the basis 1, x: x*x = (2/3)*1, a structure constant
# other than 0 and +-1
FRACTIONAL_X2 = {"dim": 2, "unit": [1, 0], "mul": [[[1, 0], [0, 1]], [[0, 1], ["2/3", 0]]]}


def operad(selector, label):
    """The operad ``selector`` names, over the field ``label``."""
    field = get_field(label)
    if selector == "2k":
        return scaled_line(field)
    if selector == "fractional_x2":
        return EndoOperad(algebra_from_json(FRACTIONAL_X2, field, selector))
    if selector in CLOSED_FORM_ALGEBRAS:
        return EndoOperad(algebra_from_json(CLOSED_FORM_ALGEBRAS[selector], field, selector))
    if selector.startswith("shift:"):
        return make_operad("shift", field, int(selector[len("shift:"):]))
    return make_operad(selector, field)


class Row(NamedTuple):
    selector: str
    kind: str
    top: int


SERVED = [
    Row("assoc", "boundary", 7),
    Row("assoc", "coboundary", 6),
    # the shift basis truncated at max-entry 8 is empty from degree 9 on
    Row("shift:8", "boundary", 10),
    Row("shift:3", "boundary", 5),
    *(Row(selector, kind, top)
      for selector, top in [("endo:k", 7), ("endo:dual", 6), ("endo:m2", 4), ("2k", 6),
                            *((name, 4) for name in CLOSED_FORM_ALGEBRAS), ("fractional_x2", 4)]
      for kind in ("boundary", "coboundary", "hochschild")),
]


def cases(kinds=None, fields=FIELDS):
    """The (row, field label) pairs of the rows of ``kinds`` (every row by
    default) over ``fields``, as pytest parameters named selector-kind-field."""
    return [pytest.param(row, label, id=f"{row.selector}-{row.kind}-{label}")
            for row in SERVED if kinds is None or row.kind in kinds
            for label in fields if (row.selector, label) not in NO_VALUE]
