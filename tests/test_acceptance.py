"""Acceptance gate: one test per acceptance criterion, exact arithmetic only.

Each test prints a single pass/fail line.  Three criteria concern identities
that are genuinely false for these operads (README, "Known failing
identities").  Each of them pins the documented counterexample exactly and
prints PASS when it finds it; it fails if the identity starts to hold or its
witness changes, and then the README must change with it:

* 4b: boundary/coboundary anticommutation on the shifted-tuple operad;
      witness: the singleton (2), and non-associativity of composition
      once the point is involved.
* 5b: the prefix/suffix coproduct admits no sign pattern making the
      boundary a coderivation, on any of the three operads; witness: the
      unit at bidegree (0,0), and the swap 21 at bidegree (0,1).
* 6d: the literal collapse form of the boundary-of-a-brace expansion;
      witness: 132 braced with the unit.
"""

import hashlib
import itertools
import random

import pytest

from operad_lab import (
    AssocOperad,
    ComplexSpec,
    Element,
    EndoOperad,
    ShiftOperad,
    aw_coproduct,
    betti,
    boundary,
    brace,
    coboundary,
    degeneracy,
    differential_matrix,
    face,
    get_field,
)
from operad_lab.assoc import compose_blocks, compose_formula, standardize
from operad_lab.endo import dual_numbers, ground_field_algebra, matrix2
from operad_lab.linalg import equal_up_to_global_sign
from operad_lab.shift import compose_shift
from operad_lab.verify import _tensor2, report_to_json, run_verify

Q = get_field("q")
F3 = get_field("gfp:3")


def emit(criterion, label, ok, detail=""):
    tail = f" - {detail}" if detail else ""
    print(f"criterion {criterion} ({label}): {'PASS' if ok else 'FAIL'}{tail}")


def rows_by_check(report):
    out = {}
    for row in report["checks"]:
        out.setdefault(row["check"], []).append(row)
    return out


def pins_counterexample(row):
    return row["status"] == "fail" and row["failures"] > 0 and "counterexample" in row


def coderivation_sides(x):
    """The three summed tensors of the coderivation identity at x:
    Delta(boundary x), (boundary x 1)Delta(x) and (1 x boundary)Delta(x)."""
    pairs = aw_coproduct(x)
    return (
        _tensor2(aw_coproduct(boundary(x)), Q),
        _tensor2([(boundary(a), b) for a, b in pairs], Q),
        _tensor2([(a, boundary(b)) for a, b in pairs], Q),
    )


def at_bidegree(tensor, bidegree):
    return {k: v for k, v in tensor.items() if (k[0][0], k[1][0]) == bidegree}


def coderivation_signs(lhs, left, right):
    """Signs (s1, s2) in {1, -1}^2 with lhs == s1*left + s2*right, over Q."""
    viable = set()
    for s1, s2 in itertools.product((1, -1), repeat=2):
        comb = {
            k: s1 * left.get(k, 0) + s2 * right.get(k, 0)
            for k in left.keys() | right.keys()
        }
        if {k: v for k, v in comb.items() if v} == lhs:
            viable.add((s1, s2))
    return viable


@pytest.fixture(scope="module")
def chain_report():
    return run_verify(seed=0, trials=500, suites=["chain"])


@pytest.fixture(scope="module")
def coalgebra_report():
    return run_verify(seed=0, trials=500, suites=["coalgebra"])


@pytest.fixture(scope="module")
def brace_report():
    return run_verify(seed=0, trials=300, suites=["brace"])


# --- criterion 1: golden values --------------------------------------------


def test_criterion_1_goldens():
    op = AssocOperad(Q)
    checks = [
        (compose_blocks((4, 3, 1, 2), 1, (2, 3, 1)), (5, 6, 4, 3, 1, 2)),
        (compose_blocks((4, 3, 1, 2), 2, (2, 3, 1)), (6, 4, 5, 3, 1, 2)),
        (standardize((2, 9, 1, 8, 4, 7)), (2, 6, 1, 5, 3, 4)),
        (standardize((3, 7, 4, 5)), (1, 4, 2, 3)),
    ]
    word = Element.basis(op, (4, 3, 1, 2))
    face_values = [face(word, i) for i in (1, 2, 3, 4)]
    expected_faces = [(3, 1, 2), (3, 1, 2), (3, 2, 1), (3, 2, 1)]
    swap = Element.basis(op, (2, 1))
    degen_values = [degeneracy(swap, 1), degeneracy(swap, 2)]
    expected_degens = [(2, 3, 1), (3, 1, 2)]

    sh = ShiftOperad(Q, max_entry=12)
    shift_checks = [
        (face(Element.basis(sh, (2, 5, 7)), 1), Element.basis(sh, (4, 6))),
        (degeneracy(Element.basis(sh, (1, 3)), 1), Element.basis(sh, (1, 2, 4))),
        (sh.dimension(2), 66),
    ]

    ok = (
        all(got == want for got, want in checks)
        and all(x == Element.basis(op, k) for x, k in zip(face_values, expected_faces))
        and all(x == Element.basis(op, k) for x, k in zip(degen_values, expected_degens))
        and boundary(Element.basis(op, (3, 1, 2))) == -Element.basis(op, (1, 2))
        and boundary(op.unit_one()) == -op.unit_zero()
        and coboundary(Element.basis(op, (1,))) == Element.basis(op, (1, 2))
        and boundary(Element.basis(sh, (1, 3, 4))) == -Element.basis(sh, (2, 3))
        and coboundary(Element.basis(sh, (1, 3))).is_zero()
        and all(got == want for got, want in shift_checks)
    )
    emit(1, "golden values", ok)
    assert ok


# --- criterion 2: the two composition methods agree ------------------------


def test_criterion_2_method_equivalence():
    cases = 0
    for n in range(1, 5):
        for tau in itertools.permutations(range(1, n + 1)):
            for i in range(1, n + 1):
                for l in range(1, 5):
                    for sigma in itertools.permutations(range(1, l + 1)):
                        assert compose_blocks(tau, i, sigma) == compose_formula(tau, i, sigma)
                        cases += 1
    assert cases == 3927

    rng = random.Random("acceptance:methods")
    for _ in range(10000):
        n = rng.randint(1, 6)
        l = rng.randint(1, 6)
        i = rng.randint(1, n)
        tau = tuple(rng.sample(range(1, n + 1), n))
        sigma = tuple(rng.sample(range(1, l + 1), l))
        assert compose_blocks(tau, i, sigma) == compose_formula(tau, i, sigma)

    emit(2, "composition methods agree", True,
         f"{cases} exhaustive cases and 10000 random cases")


# --- criterion 3: simplicial identities ------------------------------------


def test_criterion_3_simplicial():
    report = run_verify(seed=0, trials=1000, suites=["simplicial"])
    bad = [
        row for row in report["checks"]
        if row["status"] == "fail" or row["failures"] != 0
    ]
    emit(3, "simplicial identities, 1000 trials per operad", not bad)
    assert not bad, bad


# --- criterion 4: chain and cochain complexes -------------------------------


def test_criterion_4a_differentials_square_to_zero(chain_report):
    rows = rows_by_check(chain_report)
    squared = rows["boundary_squared"] + rows["coboundary_squared"]
    bad = [row for row in squared if row["failures"]]
    anti_ok = [
        row for row in rows["anticommutation"] if row["operad"] != "shift"
    ]
    bad += [row for row in anti_ok if row["failures"]]
    emit("4a", "differentials square to zero; anticommutation off shift", not bad)
    assert not bad, bad


def test_criterion_4b_anticommutation_on_shift(chain_report):
    sh = ShiftOperad(Q)
    two = Element.basis(sh, (2,))
    boundary_first = boundary(coboundary(two))
    coboundary_first = coboundary(boundary(two))
    # (x o_1 y) o_2 z against x o_1 (y o_2 z) with x = (1,2), y = (1,3), z = ()
    outer_first = compose_shift(compose_shift((1, 2), 1, (1, 3)), 2, ())
    inner_first = compose_shift((1, 2), 1, compose_shift((1, 3), 2, ()))
    row = next(
        r for r in rows_by_check(chain_report)["anticommutation"]
        if r["operad"] == "shift"
    )
    ok = (
        boundary_first == Element.basis(sh, (1,)) - two
        and coboundary_first == Element.zero(sh, 1)
        and (outer_first, inner_first) == ((1, 3), (1, 2))
        and pins_counterexample(row)
    )
    emit("4b", "documented counterexample: anticommutation fails on shift", ok,
         f"{row['failures']}/{row['trials']} trials violate it")
    assert ok, (
        "the documented counterexample to boundary/coboundary anticommutation "
        "on the shifted-tuple operad changed, so README 'Known failing "
        "identities' item 1 must change with it.  Expected, over Q: "
        "boundary(coboundary((2))) = (1) - (2) and coboundary(boundary((2))) "
        "= 0; (1,2) o_1 (1,3) then o_2 () gives (1,3) while (1,2) o_1 "
        "((1,3) o_2 ()) gives (1,2); the verify row fails.  Got: "
        f"{boundary_first.format()}, {coboundary_first.format()}, "
        f"{outer_first}, {inner_first}, status {row['status']} with "
        f"counterexample {row.get('counterexample')}"
    )


# --- criterion 5: coalgebra -------------------------------------------------


def test_criterion_5a_coassociativity_and_counits(coalgebra_report):
    rows = rows_by_check(coalgebra_report)
    structural = (
        rows["coassociativity"] + rows["counit_left"] + rows["counit_right"]
    )
    bad = [row for row in structural if row["failures"]]
    emit("5a", "coassociativity and both counits, 500 trials per operad", not bad)
    assert not bad, bad


def test_criterion_5b_coderivation_sign_pattern(coalgebra_report):
    ops = {
        "assoc": AssocOperad(Q),
        "shift": ShiftOperad(Q),
        "endo:dual": EndoOperad(dual_numbers(Q)),
    }
    found = {}
    for label, op in ops.items():
        point = op.unit_zero()
        lhs, left, right = coderivation_sides(op.unit_one())
        minus_point_point = _tensor2([(-point, point)], Q)
        found[label] = (
            lhs == left == right == minus_point_point
            and not coderivation_signs(lhs, left, right)
        )

    assoc = ops["assoc"]
    point, unit = assoc.unit_zero(), assoc.unit_one()
    lhs, left, right = coderivation_sides(Element.basis(assoc, (2, 1)))
    found["assoc swap 21"] = (
        lhs == {}
        and left == _tensor2([(-point, unit)], Q)
        and right == _tensor2([(unit, -point)], Q)
        and not coderivation_signs(
            at_bidegree(lhs, (0, 1)),
            at_bidegree(left, (0, 1)),
            at_bidegree(right, (0, 1)),
        )
    )

    rows = rows_by_check(coalgebra_report)["coderivation_sign_pattern"]
    emptied = {
        row["operad"]: sorted(
            bidegree for bidegree, viable in row["details"]["sign_patterns"].items()
            if not viable
        )
        for row in rows
    }
    ok = (
        all(found.values())
        and {row["operad"] for row in rows} == set(ops)
        and all(pins_counterexample(row) for row in rows)
        and all("0,0" in dead for dead in emptied.values())
    )
    emit("5b", "documented counterexample: no coderivation sign pattern", ok,
         f"bidegrees with no viable signs: {emptied}")
    assert ok, (
        "the documented counterexample to the coderivation sign pattern "
        "changed, so README 'Known failing identities' item 2 must change "
        "with it.  Expected: at the unit of each operad, "
        "Delta(boundary) = (boundary x 1)Delta = (1 x boundary)Delta = "
        "-pt x pt, so -s1 - s2 = -1 has no solution; for the swap 21 in "
        "assoc, Delta(boundary 21) = 0 while (boundary x 1)Delta(21) = "
        "-pt x (1) at bidegree (0,1); every verify row fails with 0,0 among "
        f"its dead bidegrees.  Witnesses found: {found}; dead bidegrees: "
        f"{emptied}"
    )


# --- criterion 6: brace identities ------------------------------------------


def test_criterion_6a_dot_vs_odot(brace_report):
    rows = rows_by_check(brace_report)["dot_vs_odot"]
    bad = [row for row in rows if row["failures"]]
    emit("6a", "signed gamma product equals signed brace product", not bad)
    assert not bad, bad


def test_criterion_6b_coboundary_derivation(brace_report):
    rows = rows_by_check(brace_report)["coboundary_derivation"]
    bad = [row for row in rows if row["failures"]]
    emit("6b", "coboundary is a derivation of the dot product", not bad)
    assert not bad, bad


def test_criterion_6c_boundary_derivation(brace_report):
    rows = rows_by_check(brace_report)["boundary_derivation"]
    bad = [row for row in rows if row["failures"]]
    emit("6c", "boundary is a derivation of the odot product", not bad)
    assert not bad, bad


def test_criterion_6d_boundary_brace_literal(brace_report):
    assoc = AssocOperad(Q)
    p = Element.basis(assoc, (1, 3, 2))
    z = assoc.unit_one()
    lhs = boundary(brace(p, [z]))
    # inner term: sign exponent deg(p{z}) - deg(z) = 3 - 1 is even
    inner = brace(p, [boundary(z)])
    collapsed = inner - brace(face(p, p.arity), [z])
    termwise = brace(boundary(p), [z]) + inner
    twelve = Element.basis(assoc, (1, 2))
    swap = Element.basis(assoc, (2, 1))
    row = rows_by_check(brace_report)["boundary_brace_literal"][0]
    ok = (
        lhs == swap.scale(Q.from_int(-3))
        and collapsed == twelve.scale(Q.from_int(-2)) - swap
        and termwise == lhs
        and pins_counterexample(row)
    )
    emit("6d", "documented counterexample: collapsed boundary-of-brace fails", ok,
         f"{row['failures']}/{row['trials']} trials violate it")
    assert ok, (
        "the documented counterexample to the collapsed two-case form of "
        "the boundary-of-a-brace expansion changed, so README 'Known failing "
        "identities' item 3 must change with it.  Expected in assoc over Q, "
        "with p = 132 and z = (1): boundary(p{z}) = -3*(21), collapsed "
        "right side -2*(12) - (21), termwise right side -3*(21); the verify "
        f"row fails.  Got: {lhs.format()}, {collapsed.format()}, "
        f"{termwise.format()}, status {row['status']} with counterexample "
        f"{row.get('counterexample')}"
    )


def test_criterion_6e_termwise_and_pre_jacobi(brace_report):
    rows = rows_by_check(brace_report)
    good = rows["boundary_brace_termwise"] + rows["pre_jacobi"]
    bad = [row for row in good if row["failures"]]
    emit("6e", "termwise boundary-of-brace and pre-Jacobi", not bad)
    assert not bad, bad


# --- criterion 7: coincidences ----------------------------------------------


def test_criterion_7_coincidences():
    report = run_verify(seed=0, trials=1000, suites=["coincidence"])
    bad = [row for row in report["checks"] if row["status"] != "pass"]
    exhaustive = next(
        row for row in report["checks"]
        if row["check"] == "coproduct_vs_deconcat_exhaustive"
    )
    emit(7, "coproduct/deconcatenation, concatenation, cup product", not bad,
         f"exhaustive splits checked: {exhaustive['details']['cases']}")
    assert exhaustive["details"]["cases"] == 153
    assert not bad, bad


# --- criterion 8: cohomology goldens ----------------------------------------


def test_criterion_8_cohomology():
    ground = betti(ComplexSpec(EndoOperad(ground_field_algebra(Q)), "hochschild", 1, 3))
    dual = betti(ComplexSpec(EndoOperad(dual_numbers(F3)), "hochschild", 0, 3))
    m2 = betti(ComplexSpec(EndoOperad(matrix2(get_field("gfp:5"))), "hochschild", 0, 2))
    op = EndoOperad(dual_numbers(F3))
    ranks_equal = all(
        equal_up_to_global_sign(
            differential_matrix(ComplexSpec(op, "coboundary", n, n), n),
            differential_matrix(ComplexSpec(op, "hochschild", n, n), n),
        ) == 1
        for n in (1, 2, 3)
    )
    ok = (
        dual["dims"] == [2, 1, 1, 1]
        and dual["ranks"][1] == 3
        and m2["dims"] == [1, 0, 0]
        and ranks_equal
    )
    emit(8, "cohomology dimensions and operadic/classical rank equality", ok,
         f"dual numbers {dual['dims']}, 2x2 matrices {m2['dims']}")
    assert ok
    assert ground["dims"] == [0, 0, 0]


# --- criterion 9: determinism ------------------------------------------------

# report_to_json(run_verify(seed=0, trials=50)): 10054 bytes, 68 rows
REPORT_SHA256_SEED0_TRIALS50 = (
    "a85e6725a4f41c4435d24292c43232cb2201c3888dd144b912a976f36b71ea42"
)


def test_criterion_9_determinism():
    kwargs = dict(seed=0, trials=50)
    first = report_to_json(run_verify(**kwargs))
    second = report_to_json(run_verify(**kwargs))
    digest = hashlib.sha256(first.encode()).hexdigest()
    ok = first == second and digest == REPORT_SHA256_SEED0_TRIALS50
    emit(9, "verification report is byte-identical across runs and pinned", ok,
         f"sha256 {digest[:16]}, {len(first)} bytes")
    assert ok
