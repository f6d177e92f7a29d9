"""Hochschild cohomology of small algebras, computed two ways: through the
endomorphism operad's coboundary and through the classical textbook formula.

Run with: python3 demos/hochschild_demo.py
"""

from operad_lab import (
    ComplexSpec,
    Element,
    EndoOperad,
    SparseMatrix,
    betti,
    coboundary,
    differential_matrix,
    dual_numbers,
    get_field,
    ground_field_algebra,
    matrix2,
    odot_product,
)
from operad_lab.endo import classical_coboundary, cup_product

print("== three algebras ==")
cases = [
    ("ground field k", ground_field_algebra(get_field("q")), 1, 3),
    ("dual numbers over GF(3)", dual_numbers(get_field("gfp:3")), 0, 3),
    ("2x2 matrices over GF(5)", matrix2(get_field("gfp:5")), 0, 2),
]
for name, algebra, lo, hi in cases:
    operad = EndoOperad(algebra)
    report = betti(ComplexSpec(operad, "hochschild", lo, hi, allow_large=True))
    dims = ", ".join(f"H^{d}={v}" for d, v in zip(report["degrees"], report["dims"]))
    print(f"  {name:<26} {dims}")

print()
print("== the operadic coboundary is the classical one ==")
operad = EndoOperad(dual_numbers(get_field("gfp:3")))
for degree in (1, 2, 3):
    # the operadic side summed key by key from the Element-level coboundary
    rows = {key: r for r, key in enumerate(operad.basis_keys(degree + 1))}
    triples = [(rows[k], c, v) for c, key in enumerate(operad.basis_keys(degree))
               for k, v in coboundary(Element.basis(operad, key)).terms.items()]
    op_mat = SparseMatrix(len(rows), operad.dimension(degree), operad.field, triples)
    cl_mat = differential_matrix(ComplexSpec(operad, "hochschild", degree, degree, allow_large=True), degree)
    same = "equal" if op_mat == cl_mat else "differ"
    print(f"  degree {degree}: matrices {same}, rank {op_mat.rank()}")

print()
print("== where the two complexes differ: degrees 0 and 1 ==")
# the operadic degree 0 is the point, whose coboundary is zero; the classical
# one is the algebra, whose coboundary a -> [-, a] names the inner derivations
for name, algebra in (("dual numbers over GF(3)", dual_numbers(get_field("gfp:3"))),
                      ("2x2 matrices over GF(5)", matrix2(get_field("gfp:5")))):
    endo = EndoOperad(algebra)
    operadic = betti(ComplexSpec(endo, "coboundary", 0, 2))
    classical = betti(ComplexSpec(endo, "hochschild", 0, 2))
    print(f"  {name:<26} H^0={operadic['dims'][0]} (the point), HH^0={classical['dims'][0]};"
          f" Der A={operadic['dims'][1]}, HH^1={classical['dims'][1]},"
          f" inner={classical['ranks'][0]}")

print()
print("== cup product through the operad ==")
x = Element.basis(operad, (0, 1, 1))
y = Element.basis(operad, (1, 0))
print("  x =", x.format())
print("  y =", y.format())
print("  classical cup:", cup_product(x, y).format())
print("  operadic odot:", odot_product(x, y).format())
assert cup_product(x, y) == odot_product(x, y)

print()
print("== a cocycle and a coboundary ==")
identity_map = operad.unit_one()
print("  d(identity) =", coboundary(identity_map).format())
print("  (the multiplication map itself, so the identity is not a 1-cocycle)")
