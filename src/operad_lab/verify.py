"""Randomized and exhaustive identity checks with a deterministic JSON report.

``_batch_catalog`` lists every check by suite in report order, and
``run_verify`` walks it once, serially, building one report row per
(check, operad).  Each trial draws its randomness from a seed string built
out of (seed, suite, check, operad, trial), and each run-once check from
(seed, suite, check, operad, "batch"), so a report is byte-identical for a
fixed seed, trial count, field and suite/operad selection.

A per-trial check draws its inputs and returns the two sides of its
identity as ``(inputs, lhs, rhs)``: ``inputs`` maps names to Elements,
lists of them, or ints, and each side is an Element or a tensor (a
``{key: coeff}`` dict).  ``_run_trials`` compares the sides, and
``_counterexample`` renders the first pair that differs.

A run-once check returns ``(failures, details, counterexample)``, its
counterexample also rendered by ``_counterexample``; an exhaustive one is a
generator of ``(inputs, lhs, rhs)`` cases run by ``_exhaustive``.
``run_verify`` alone turns an outcome into the row's status: "fail" when
there are failures, "reported" when a report-only check shows a
counterexample, "pass" otherwise.
"""

import itertools
import random

from .assoc import AssocOperad, concat, deconcat_coproduct
from .cohomology import ComplexSpec, betti, differential_matrix
from .core import (
    aw_coproduct,
    boundary,
    brace,
    coboundary,
    counit,
    degeneracy,
    dot_product,
    face,
    gamma,
    multi_degeneracy,
    multi_face,
    odot_product,
    random_element,
)
from .elements import Element
from .endo import EndoOperad, cup_product, dual_numbers, ground_field_algebra, matrix2
from .linalg import equal_up_to_global_sign
from .scalars import get_field, linear_combination, power_sign
from .shift import ShiftOperad, gamma_shift
from .serialize import dumps

SUITES = ("simplicial", "chain", "coalgebra", "brace", "coincidence", "cohomology")

DEFAULT_TRIALS = 200
DEFAULT_SEED = 0
DEFAULT_FIELD = "gfp:32003"

# sampling caps: assoc words, shift tuple lengths, endo input counts
MAX_ARITY = {"assoc": 7, "shift": 6, "endo:dual": 4}
SHIFT_MAX_ENTRY = 12


class VerifyUsageError(ValueError):
    """A ``run_verify`` argument outside what the report can describe."""


def make_operads(field):
    return {
        "assoc": AssocOperad(field),
        "shift": ShiftOperad(field, max_entry=SHIFT_MAX_ENTRY),
        "endo:dual": EndoOperad(dual_numbers(field)),
    }


def _sample(operads, label, arity, rng, max_terms=2):
    return random_element(operads[label], arity, rng, max_terms=max_terms)


def _format(value):
    """Report text of a check's input or side: Elements via ``format``, lists
    item by item, tensors as their sorted keys, anything else as it is."""
    if isinstance(value, Element):
        return value.format()
    if isinstance(value, list):
        return [_format(v) for v in value]
    if isinstance(value, dict):
        return repr(sorted(value))
    return value


def _counterexample(inputs, lhs, rhs):
    return {"inputs": {name: _format(v) for name, v in inputs.items()},
            "lhs": _format(lhs), "rhs": _format(rhs)}


# ---------------------------------------------------------------------------
# per-trial checks: return (inputs, lhs, rhs); the trial fails if lhs != rhs


def _i_below_j(n, rng):
    """j in 2..n, then i in 1..j-1."""
    j = rng.randint(2, n)
    return rng.randint(1, j - 1), j


# (name, lowest arity, stop this far below MAX_ARITY, (i, j) draw in rng
# order, lhs, rhs).  The sides look up face/degeneracy when they run, so a
# patched module global reaches them.
SIMPLICIAL = (
    ("face_face_low", 2, 0,
     _i_below_j,
     lambda x, i, j: face(face(x, j), i),
     lambda x, i, j: face(face(x, i), j - 1)),
    ("face_face_high", 2, 0,
     lambda n, r: ((i := r.randint(1, n - 1)), r.randint(1, i)),
     lambda x, i, j: face(face(x, j), i),
     lambda x, i, j: face(face(x, i + 1), j)),
    ("degen_degen_low", 1, 1,
     lambda n, r: (r.randint(1, (j := r.randint(1, n))), j),
     lambda x, i, j: degeneracy(degeneracy(x, j), i),
     lambda x, i, j: degeneracy(degeneracy(x, i), j + 1)),
    ("degen_degen_high", 1, 1,
     lambda n, r: ((i := r.randint(2, n + 1)), r.randint(1, min(i - 1, n))),
     lambda x, i, j: degeneracy(degeneracy(x, j), i),
     lambda x, i, j: degeneracy(degeneracy(x, i - 1), j)),
    ("face_degen_low", 2, 0,
     _i_below_j,
     lambda x, i, j: face(degeneracy(x, j), i),
     lambda x, i, j: degeneracy(face(x, i), j - 1)),
    ("face_degen_mid", 1, 0,
     lambda n, r: (r.choice(((j := r.randint(1, n)), j + 1)), j),
     lambda x, i, j: face(degeneracy(x, j), i),
     lambda x, i, j: x),
    ("face_degen_high", 2, 0,
     lambda n, r: (r.randint((j := r.randint(1, n - 1)) + 2, n + 1), j),
     lambda x, i, j: face(degeneracy(x, j), i),
     lambda x, i, j: degeneracy(face(x, i - 1), j)),
)


def make_simplicial_check(lo, below, draw, lhs, rhs):
    def check(ops, label, rng):
        n = rng.randint(lo, MAX_ARITY[label] - below)
        x = _sample(ops, label, n, rng)
        i, j = draw(n, rng)
        return {"x": x, "i": i, "j": j}, lhs(x, i, j), rhs(x, i, j)

    return check


def make_gamma_compat_check(op, multi_op):
    """``multi_op`` of a total composition against ``op`` on each block."""
    def check(ops, label, rng):
        if label == "endo:dual":
            s = rng.randint(1, 2)
            ts = [rng.randint(1, 2) for _ in range(s)]
        else:
            s = rng.randint(1, 3)
            ts = [rng.randint(1, 3) for _ in range(s)]
        x = _sample(ops, label, s, rng, max_terms=1)
        blocks = [_sample(ops, label, t, rng, max_terms=1) for t in ts]
        slots = [rng.randint(1, t) for t in ts]
        lhs = multi_op(gamma(x, blocks), slots, ts)
        rhs = gamma(x, [op(b, j) for b, j in zip(blocks, slots)])
        return {"x": x, "blocks": blocks, "slots": slots}, lhs, rhs

    return check


def make_square_zero_check(d):
    """``d`` squares to zero."""
    def check(ops, label, rng):
        x = _sample(ops, label, rng.randint(0, MAX_ARITY[label]), rng)
        lhs = d(d(x))
        return {"x": x}, lhs, Element.zero(x.operad, lhs.arity)

    return check


def check_anticommutation(ops, label, rng):
    x = _sample(ops, label, rng.randint(1, MAX_ARITY[label]), rng)
    lhs = boundary(coboundary(x))
    return {"x": x}, lhs, coboundary(boundary(x)).scale(power_sign(x.operad.field, 1))


def _tensor2(pairs, field):
    mul = field.mul
    return linear_combination(field, (
        (((a.arity, ka), (b.arity, kb)), mul(ca, cb))
        for a, b in pairs
        for ka, ca in a.terms.items()
        for kb, cb in b.terms.items()
    ))


def _tensor3(pairs, field, expand_left):
    mul = field.mul

    def terms():
        for a, b in pairs:
            inner, outer = (aw_coproduct(a), b) if expand_left else (aw_coproduct(b), a)
            for u, v in inner:
                for ku, cu in u.terms.items():
                    for kv, cv in v.terms.items():
                        uv = ((u.arity, ku), (v.arity, kv))
                        for ko, co in outer.terms.items():
                            o = ((outer.arity, ko),)
                            yield uv + o if expand_left else o + uv, mul(mul(cu, cv), co)

    return linear_combination(field, terms())


def _deconcat(x):
    """The deconcatenation coproduct of an assoc element, keyed like ``_tensor2``."""
    return linear_combination(x.operad.field, (
        (((len(left), left), (len(right), right)), coeff)
        for key, coeff in x.terms.items()
        for left, right in deconcat_coproduct(key)
    ))


def check_coassociativity(ops, label, rng):
    field = ops[label].field
    x = _sample(ops, label, rng.randint(0, MAX_ARITY[label]), rng)
    pairs = aw_coproduct(x)
    lhs = _tensor3(pairs, field, expand_left=True)
    return {"x": x}, lhs, _tensor3(pairs, field, expand_left=False)


def make_counit_check(side):
    """(counit on tensor factor ``side``, identity on the other) of the
    coproduct is the identity."""
    def check(ops, label, rng):
        field = ops[label].field
        n = rng.randint(0, MAX_ARITY[label])
        x = _sample(ops, label, n, rng)
        out = Element.zero(x.operad, n)
        for pair in aw_coproduct(x):
            c = counit(pair[side])
            if not field.is_zero(c):
                out = out + pair[1 - side].scale(c)
        return {"x": x}, out, x

    return check


# ---------------------------------------------------------------------------
# brace suite (assoc only)


def brace_or_zero(x, args):
    """brace with the overflow convention: more arguments than inputs gives 0."""
    if len(args) > x.arity:
        total = x.arity - len(args) + sum(a.arity for a in args)
        return Element.zero(x.operad, max(total, 0))
    return brace(x, args)


def _pair(ops, label, rng):
    """Inputs p and q of arities r, s drawn from 1..3, in the order r, s, p, q."""
    r = rng.randint(1, 3)
    s = rng.randint(1, 3)
    return _sample(ops, label, r, rng), _sample(ops, label, s, rng)


def check_dot_vs_odot(ops, label, rng):
    p, q = _pair(ops, label, rng)
    sign = power_sign(p.operad.field, p.arity * q.arity)
    return {"p": p, "q": q}, dot_product(p, q), odot_product(p, q).scale(sign)


def make_derivation_check(d):
    """``d`` is a graded derivation of the odot product."""
    def check(ops, label, rng):
        p, q = _pair(ops, label, rng)
        sign = power_sign(p.operad.field, p.arity)
        rhs = odot_product(d(p), q) + odot_product(p, d(q)).scale(sign)
        return {"p": p, "q": q}, d(odot_product(p, q)), rhs

    return check


def prejacobi_rhs(x, xs, ys):
    """Right side of the iterated-brace expansion for x{xs}{ys}."""
    field = x.operad.field
    s = len(xs)
    r = len(ys)
    total_arity = (
        x.arity - s + sum(a.arity for a in xs) - r + sum(a.arity for a in ys)
    )
    total = Element.zero(x.operad, total_arity)
    # the cuts lo_1 <= hi_1 <= lo_2 <= ... <= hi_s, flattened in that order
    for bounds in itertools.combinations_with_replacement(range(r + 1), 2 * s):
        exponent = 0
        args = []
        cursor = 0
        for inner, lo, hi in zip(xs, bounds[0::2], bounds[1::2]):
            if hi - lo > inner.arity:
                break
            exponent += (inner.arity - 1) * sum(y.arity - 1 for y in ys[hi:])
            args.extend(ys[cursor:lo])
            args.append(brace(inner, ys[lo:hi]))
            cursor = hi
        else:
            args.extend(ys[cursor:])
            total = total + brace_or_zero(x, args).scale(power_sign(field, exponent))
    return total


def check_pre_jacobi(ops, label, rng):
    s = rng.randint(1, 2)
    r = rng.randint(1, 2)
    x = _sample(ops, label, rng.randint(s, 3), rng, max_terms=1)
    xs = [_sample(ops, label, rng.randint(1, 2), rng, max_terms=1) for _ in range(s)]
    ys = [_sample(ops, label, rng.randint(1, 2), rng, max_terms=1) for _ in range(r)]
    lhs = brace_or_zero(brace_or_zero(x, xs), ys)
    return {"x": x, "inner": xs, "outer": ys}, lhs, prejacobi_rhs(x, xs, ys)


def make_boundary_brace_check(literal):
    """boundary(p{zs}) against (boundary p){zs} plus the signed boundaries of
    each z.  With ``literal``, (boundary p){zs} is replaced by the collapse
    claim: 0 for even arity, else minus the top-face term (face p){zs}."""
    def check(ops, label, rng):
        field = ops[label].field
        n_args = rng.randint(1, 3)
        arity = rng.randint(n_args + 1, min(n_args + 3, MAX_ARITY[label]))
        p = _sample(ops, label, arity, rng, max_terms=1)
        zs = [_sample(ops, label, rng.randint(1, 2), rng, max_terms=1) for _ in range(n_args)]
        braced = brace(p, zs)
        degs = [z.arity for z in zs]
        inner_sum = Element.zero(p.operad, braced.arity - 1)
        for s_idx in range(n_args):
            dz = boundary(zs[s_idx])
            if dz.is_zero():
                continue
            args = list(zs)
            args[s_idx] = dz
            delta = (
                braced.arity
                - zs[s_idx].arity
                + sum(degs[i] - 1 for i in range(s_idx))
            )
            inner_sum = inner_sum + brace(p, args).scale(power_sign(field, delta))
        if not literal:
            rhs = brace(boundary(p), zs) + inner_sum
        elif p.arity % 2 == 0:
            rhs = inner_sum
        else:
            rhs = inner_sum - brace(face(p, p.arity), zs)
        return {"p": p, "args": zs}, boundary(braced), rhs

    return check


# ---------------------------------------------------------------------------
# coincidence suite


def check_coproduct_vs_deconcat(ops, label, rng):
    x = _sample(ops, label, rng.randint(1, MAX_ARITY[label]), rng, max_terms=1)
    return {"x": x}, _tensor2(aw_coproduct(x), ops[label].field), _deconcat(x)


def check_odot_vs_concat(ops, label, rng):
    field = ops[label].field
    p, q = _pair(ops, label, rng)
    rhs = Element(ops[label], p.arity + q.arity, [
        (concat(kp, kq), field.mul(cp, cq))
        for kp, cp in p.terms.items()
        for kq, cq in q.terms.items()
    ])
    return {"p": p, "q": q}, odot_product(p, q), rhs


def make_cup_check(op):
    def check(ops, label, rng):
        r = rng.randint(1, 3)
        s = rng.randint(1, max(1, 3 - r))
        p = random_element(op, r, rng)
        q = random_element(op, s, rng)
        return {"p": p, "q": q}, cup_product(p, q), odot_product(p, q)

    return check


# ---------------------------------------------------------------------------
# run-once checks: return (failures, details, counterexample)


def batch_coderivation(ops, label, rng, trials):
    field = ops[label].field
    patterns = list(itertools.product((1, -1), repeat=2))
    viable = {}
    counterexample = None
    cap = min(MAX_ARITY[label], 5)
    for t in range(trials):
        n = rng.randint(1, cap)
        x = _sample(ops, label, n, rng)
        pairs = aw_coproduct(x)
        lhs = _tensor2(aw_coproduct(boundary(x)), field)
        left = _tensor2([(boundary(a), b) for a, b in pairs], field)
        right = _tensor2([(a, boundary(b)) for a, b in pairs], field)
        sides = (lhs, left, right)
        # The report shows the first dead bidegree in this set's iteration
        # order, so the set is filled key by key: lhs, then left, then right.
        bidegrees = set()
        for tensor in sides:
            bidegrees.update((k[0][0], k[1][0]) for k in tensor)
        # (s1, s2) is viable at a bidegree where lhs - s1 left - s2 right has no key
        dead = {}
        for s1, s2 in patterns:
            c1, c2 = field.from_int(-s1), field.from_int(-s2)
            residual = linear_combination(field, itertools.chain(
                lhs.items(),
                ((k, field.mul(c1, v)) for k, v in left.items()),
                ((k, field.mul(c2, v)) for k, v in right.items()),
            ))
            dead[s1, s2] = {(k[0][0], k[1][0]) for k in residual}
        for bd in bidegrees:
            good = {s for s in patterns if bd not in dead[s]}
            viable[bd] = viable[bd] & good if bd in viable else good
            if not viable[bd] and counterexample is None:
                l_part, a_part, b_part = (
                    sorted(k for k in tensor if (k[0][0], k[1][0]) == bd) for tensor in sides)
                counterexample = _counterexample({"x": x, "bidegree": list(bd)}, repr(l_part),
                                                 repr(a_part + b_part))
    details = {
        "sign_patterns": {
            f"{bd[0]},{bd[1]}": sorted(list(s) for s in signs)
            for bd, signs in sorted(viable.items())
        },
        "elements_checked": trials,
    }
    return sum(not signs for signs in viable.values()), details, counterexample


def _exhaustive(cases):
    """A run-once check over the ``(inputs, lhs, rhs)`` triples that
    ``cases(operad)`` yields: it counts them and stops at the first pair of
    sides that differ."""
    def run(ops, label, rng, trials):
        checked = 0
        for inputs, lhs, rhs in cases(ops[label]):
            if lhs != rhs:
                return 1, {"cases": checked}, _counterexample(inputs, lhs, rhs)
            checked += 1
        return 0, {"cases": checked}, None

    return run


def coproduct_cases(operad):
    """Every basis element of arity 1..5: its coproduct against deconcatenation."""
    for n in range(1, 6):
        for key in operad.basis_keys(n):
            x = Element.basis(operad, key)
            yield {"x": x}, _tensor2(aw_coproduct(x), operad.field), _deconcat(x)


def gamma_shift_cases(operad):
    """Every key of 1..3 entries below 6, composed with every tuple of blocks
    of at most 2 entries below 5: ``gamma`` against ``gamma_shift``."""
    block_keys = [()]
    for t in (1, 2):
        block_keys.extend(itertools.combinations(range(1, 5), t))
    block_elements = {b: Element.basis(operad, b) for b in block_keys}
    for n in (1, 2, 3):
        for key in itertools.combinations(range(1, 6), n):
            x = Element.basis(operad, key)
            for blocks in itertools.product(block_keys, repeat=n):
                direct = gamma_shift(key, blocks)
                via_gamma = gamma(x, [block_elements[b] for b in blocks])
                # gamma_shift raises on a non-increasing key, so direct is valid
                expect = Element._sum(operad, len(direct), [(direct, operad.field.one)])
                yield {"x": x, "blocks": [repr(b) for b in blocks]}, via_gamma, expect


def make_batch_rank_comparison(op):
    def run(ops, label, rng, trials):
        degrees = []
        for n in (1, 2, 3):
            operadic = ComplexSpec(op, "coboundary", n, n)
            classical = ComplexSpec(op, "hochschild", n, n)
            mat_o = differential_matrix(operadic, n)
            mat_c = differential_matrix(classical, n)
            sign = equal_up_to_global_sign(mat_o, mat_c)
            if sign is None:
                return 1, {"degrees": degrees}, _counterexample(
                    {"degree": n}, f"operadic rank {mat_o.rank()}", f"classical rank {mat_c.rank()}")
            degrees.append({"degree": n, "sign": sign, "rank": mat_o.rank()})
        return 0, {"degrees": degrees}, None

    return run


def make_batch_betti(op, lo, hi, expected):
    def run(ops, label, rng, trials):
        report = betti(ComplexSpec(op, "hochschild", lo, hi))
        got = report["dims"]
        if got != list(expected):
            return 1, {"dims": got, "expected": list(expected)}, _counterexample(
                {"degrees": report["degrees"]}, repr(got), repr(list(expected)))
        return 0, {"dims": got, "ranks": report["ranks"]}, None

    return run


def batch_field_independence(ops, label, rng, trials):
    dims = {}
    for field_label in ("q", "gfp:32003"):
        op = EndoOperad(dual_numbers(get_field(field_label)))
        dims[field_label] = betti(ComplexSpec(op, "hochschild", 0, 3))["dims"]
    if dims["q"] != dims["gfp:32003"]:
        return 1, {"dims": dims}, _counterexample({}, repr(dims["q"]), repr(dims["gfp:32003"]))
    return 0, {"dims": dims["q"]}, None


# ---------------------------------------------------------------------------
# catalog and runner

ALL_OPERADS = ("assoc", "shift", "endo:dual")


def _each_operad(name, fn, kind="assert"):
    return [(name, fn, label, kind) for label in ALL_OPERADS]


def _batch_catalog(field):
    """Every check, by suite, in report order.

    Per-trial entries are ``(name, fn, label, kind)``: ``fn(ops, label, rng)``
    runs once per trial and returns ``(inputs, lhs, rhs)``; the trial is a
    discrepancy when the two sides differ.  ``kind`` is
    "assert" (discrepancies are failures) or "report" (they are counted in
    ``details`` and the row is "reported").  Run-once entries are
    ``(name, fn, label)``: ``fn(ops, label, rng, trials)`` returns
    ``(failures, details, counterexample)``, and ``run_verify`` derives the
    status from it as it does for the per-trial rows.
    """
    presets = {
        "endo:k": EndoOperad(ground_field_algebra(field)),
        "endo:dual@gfp:3": EndoOperad(dual_numbers(get_field("gfp:3"))),
        "endo:m2@gfp:5": EndoOperad(matrix2(get_field("gfp:5"))),
    }
    coincidence = [
        ("coproduct_vs_deconcat", check_coproduct_vs_deconcat, "assoc", "assert"),
        ("odot_vs_concat", check_odot_vs_concat, "assoc", "assert"),
        ("coproduct_vs_deconcat_exhaustive", _exhaustive(coproduct_cases), "assoc"),
        ("gamma_closed_form", _exhaustive(gamma_shift_cases), "shift"),
    ]
    for label, op in presets.items():
        coincidence.append(("cup_vs_odot", make_cup_check(op), label, "assert"))
        coincidence.append(("coboundary_vs_classical", make_batch_rank_comparison(op), label))
    return {
        "simplicial": [
            *(entry for name, *row in SIMPLICIAL
              for entry in _each_operad(name, make_simplicial_check(*row))),
            *_each_operad("face_gamma_compat", make_gamma_compat_check(face, multi_face), "report"),
            *_each_operad("degen_gamma_compat",
                          make_gamma_compat_check(degeneracy, multi_degeneracy), "report"),
        ],
        "chain": [
            *_each_operad("boundary_squared", make_square_zero_check(boundary)),
            *_each_operad("coboundary_squared", make_square_zero_check(coboundary)),
            *_each_operad("anticommutation", check_anticommutation),
        ],
        "coalgebra": [
            *_each_operad("coassociativity", check_coassociativity),
            *_each_operad("counit_left", make_counit_check(0)),
            *_each_operad("counit_right", make_counit_check(1)),
            *[("coderivation_sign_pattern", batch_coderivation, label) for label in ALL_OPERADS],
        ],
        "brace": [
            ("dot_vs_odot", check_dot_vs_odot, "assoc", "assert"),
            ("coboundary_derivation", make_derivation_check(coboundary), "assoc", "assert"),
            ("boundary_derivation", make_derivation_check(boundary), "assoc", "assert"),
            ("pre_jacobi", check_pre_jacobi, "assoc", "assert"),
            ("boundary_brace_literal", make_boundary_brace_check(True), "assoc", "assert"),
            ("boundary_brace_termwise", make_boundary_brace_check(False), "assoc", "assert"),
        ],
        "coincidence": coincidence,
        "cohomology": [
            ("betti_ground_field", make_batch_betti(presets["endo:k"], 1, 3, (0, 0, 0)), "endo:k"),
            ("betti_dual_numbers", make_batch_betti(presets["endo:dual@gfp:3"], 0, 3, (2, 1, 1, 1)),
             "endo:dual@gfp:3"),
            ("betti_matrix_algebra", make_batch_betti(presets["endo:m2@gfp:5"], 0, 2, (1, 0, 0)),
             "endo:m2@gfp:5"),
            ("field_independence", batch_field_independence, "endo:dual"),
        ],
    }


def _run_trials(fn, ops, operad_label, suite, name, seed, trials):
    failures = 0
    first = None
    for t in range(trials):
        inputs, lhs, rhs = fn(
            ops, operad_label, random.Random(f"{seed}:{suite}:{name}:{operad_label}:{t}"))
        if lhs != rhs:
            failures += 1
            if first is None:
                first = dict(_counterexample(inputs, lhs, rhs), trial=t)
    return failures, first


def run_verify(seed=DEFAULT_SEED, trials=DEFAULT_TRIALS, field_label=DEFAULT_FIELD,
               suites=None, operads=None):
    """Run the identity suites and return the report dict.

    Raises ``VerifyUsageError`` (a ``ValueError``) for fewer than one trial,
    an unknown suite, an operad label that no check uses, or a suite and
    operad selection that leaves no check to run."""
    if trials < 1:
        raise VerifyUsageError(f"trials must be at least 1, got {trials}")
    wanted_suites = list(suites) if suites else list(SUITES)
    for s in wanted_suites:
        if s not in SUITES:
            raise VerifyUsageError(f"unknown suite {s!r}")
    field = get_field(field_label)
    ops = make_operads(field)
    catalog = _batch_catalog(field)
    labels = list(dict.fromkeys(entry[2] for entries in catalog.values() for entry in entries))
    for label in operads or ():
        if label not in labels:
            raise VerifyUsageError(
                f"unknown operad label {label!r} (want one of {', '.join(labels)})"
            )

    checks = []
    for suite in SUITES:
        if suite not in wanted_suites:
            continue
        for entry in catalog[suite]:
            name, fn, label = entry[:3]
            if operads and label not in operads:
                continue
            if len(entry) == 4:
                found, counterexample = _run_trials(fn, ops, label, suite, name, seed, trials)
                failures, details = (found, None) if entry[3] == "assert" else (
                    0, {"discrepancies": found})
            else:
                rng = random.Random(f"{seed}:{suite}:{name}:{label}:batch")
                failures, details, counterexample = fn(ops, label, rng, trials)
            # a "report" check shows its first discrepancy without failing
            status = "fail" if failures else "reported" if counterexample else "pass"
            row = {
                "suite": suite,
                "check": name,
                "operad": label,
                "trials": trials,
                "failures": failures,
                "status": status,
            }
            if details is not None:
                row["details"] = details
            if counterexample is not None:
                row["counterexample"] = counterexample
            checks.append(row)
    if not checks:
        raise VerifyUsageError(
            f"no check in suite(s) {', '.join(wanted_suites)} runs on operad(s) "
            f"{', '.join(operads)}"
        )

    total_failures = sum(row["failures"] for row in checks)
    return {
        "seed": seed,
        "trials": trials,
        "field": field_label,
        "suites": wanted_suites,
        "checks": checks,
        "failures": total_failures,
        "status": "ok" if total_failures == 0 else "fail",
    }


def report_to_json(report):
    return dumps(report)
