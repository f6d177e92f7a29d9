"""Randomized and exhaustive identity checks with a deterministic JSON report.

``_batch_catalog`` lists every check by suite in report order, and
``run_verify`` walks it once, serially, building one report row per
(check, operad).  Each trial draws its randomness from a seed string built
out of (seed, suite, check, operad, trial), and each run-once check from
(seed, suite, check, operad, "batch"), so a report is byte-identical for a
fixed seed, trial count, field and suite/operad selection.

A per-trial check is a pair ``(draw, sides)``.  ``draw(ops, label, rng)``
makes every random choice of a trial and returns its named inputs
(Elements, lists of them, or ints); ``sides(**inputs)`` computes the two
sides of the identity from those inputs alone, each an Element or a tensor
(a ``{key: coeff}`` dict).  ``_run_trials`` calls the two in turn and
compares the sides, and ``_counterexample`` renders the first pair that
differs.  So a row's counterexample is reproduced from its seed string by
one draw and one sides call, and an exhaustive check can feed basis
elements to the same sides (``coproduct_cases``).

A run-once check returns ``(failures, details, counterexample)``, its
counterexample also rendered by ``_counterexample``; an exhaustive one is a
generator of ``(inputs, lhs, rhs)`` cases run by ``_exhaustive``.
``run_verify`` alone turns an outcome into the row's status: "fail" when
there are failures, "reported" when a report-only check shows a
counterexample, "pass" otherwise.
"""

import itertools
import random
from functools import partial

from .assoc import AssocOperad, concat, deconcat_coproduct
from .cohomology import ComplexSpec, _by_key, betti, differential_matrix
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
from .linalg import SparseMatrix, equal_up_to_global_sign
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
# per-trial checks: a draw(ops, label, rng) that returns the named inputs, and
# a sides(**inputs) that returns (lhs, rhs); the trial fails if lhs != rhs


def draw_x(lo, below=0, max_terms=2, ij=None):
    """x of arity lo..MAX_ARITY - below with at most ``max_terms`` terms,
    then, when ``ij`` is given, (i, j) = ij(arity, rng)."""
    def draw(ops, label, rng):
        n = rng.randint(lo, MAX_ARITY[label] - below)
        inputs = {"x": _sample(ops, label, n, rng, max_terms)}
        if ij:
            inputs["i"], inputs["j"] = ij(n, rng)
        return inputs

    return draw


def draw_pair(ops, label, rng):
    """Inputs p and q of arities r, s drawn from 1..3, in the order r, s, p, q."""
    r = rng.randint(1, 3)
    s = rng.randint(1, 3)
    return {"p": _sample(ops, label, r, rng), "q": _sample(ops, label, s, rng)}


def _i_below_j(n, rng):
    """j in 2..n, then i in 1..j-1."""
    j = rng.randint(2, n)
    return rng.randint(1, j - 1), j


# (name, (draw, sides)).  The sides look up face/degeneracy when they run, so
# a patched module global reaches them.
SIMPLICIAL = (
    ("face_face_low", (
        draw_x(2, ij=_i_below_j),
        lambda x, i, j: (face(face(x, j), i), face(face(x, i), j - 1)))),
    ("face_face_high", (
        draw_x(2, ij=lambda n, r: ((i := r.randint(1, n - 1)), r.randint(1, i))),
        lambda x, i, j: (face(face(x, j), i), face(face(x, i + 1), j)))),
    ("degen_degen_low", (
        draw_x(1, 1, ij=lambda n, r: (r.randint(1, (j := r.randint(1, n))), j)),
        lambda x, i, j: (degeneracy(degeneracy(x, j), i), degeneracy(degeneracy(x, i), j + 1)))),
    ("degen_degen_high", (
        draw_x(1, 1, ij=lambda n, r: ((i := r.randint(2, n + 1)), r.randint(1, min(i - 1, n)))),
        lambda x, i, j: (degeneracy(degeneracy(x, j), i), degeneracy(degeneracy(x, i - 1), j)))),
    ("face_degen_low", (
        draw_x(2, ij=_i_below_j),
        lambda x, i, j: (face(degeneracy(x, j), i), degeneracy(face(x, i), j - 1)))),
    ("face_degen_mid", (
        draw_x(1, ij=lambda n, r: (r.choice(((j := r.randint(1, n)), j + 1)), j)),
        lambda x, i, j: (face(degeneracy(x, j), i), x))),
    ("face_degen_high", (
        draw_x(2, ij=lambda n, r: (r.randint((j := r.randint(1, n - 1)) + 2, n + 1), j)),
        lambda x, i, j: (face(degeneracy(x, j), i), degeneracy(face(x, i - 1), j)))),
)


def draw_gamma_compat(ops, label, rng):
    """x of arity s, blocks of arities ts (at most 2 on endo:dual, else 3),
    one term each, then a slot in each block."""
    top = 2 if label == "endo:dual" else 3
    s = rng.randint(1, top)
    ts = [rng.randint(1, top) for _ in range(s)]
    x = _sample(ops, label, s, rng, max_terms=1)
    blocks = [_sample(ops, label, t, rng, max_terms=1) for t in ts]
    return {"x": x, "blocks": blocks, "slots": [rng.randint(1, t) for t in ts]}


def make_gamma_compat(op, multi_op):
    """``multi_op`` of a total composition against ``op`` on each block."""
    def sides(x, blocks, slots):
        lhs = multi_op(gamma(x, blocks), slots, [b.arity for b in blocks])
        return lhs, gamma(x, [op(b, j) for b, j in zip(blocks, slots)])

    return sides


def make_square_zero(d):
    """``d`` squares to zero."""
    def sides(x):
        lhs = d(d(x))
        return lhs, Element.zero(x.operad, lhs.arity)

    return sides


def anticommutation(x):
    return boundary(coboundary(x)), coboundary(boundary(x)).scale(power_sign(x.operad.field, 1))


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


def coassociativity(x):
    pairs = aw_coproduct(x)
    field = x.operad.field
    return _tensor3(pairs, field, expand_left=True), _tensor3(pairs, field, expand_left=False)


def make_counit(side):
    """(counit on tensor factor ``side``, identity on the other) of the
    coproduct is the identity."""
    def sides(x):
        field = x.operad.field
        out = Element.zero(x.operad, x.arity)
        for pair in aw_coproduct(x):
            c = counit(pair[side])
            if not field.is_zero(c):
                out = out + pair[1 - side].scale(c)
        return out, x

    return sides


# ---------------------------------------------------------------------------
# brace suite (assoc only)


def brace_or_zero(x, args):
    """brace with the overflow convention: more arguments than inputs gives 0."""
    if len(args) > x.arity:
        total = x.arity - len(args) + sum(a.arity for a in args)
        return Element.zero(x.operad, max(total, 0))
    return brace(x, args)


def dot_vs_odot(p, q):
    sign = power_sign(p.operad.field, p.arity * q.arity)
    return dot_product(p, q), odot_product(p, q).scale(sign)


def make_derivation(d):
    """``d`` is a graded derivation of the odot product."""
    def sides(p, q):
        sign = power_sign(p.operad.field, p.arity)
        return d(odot_product(p, q)), odot_product(d(p), q) + odot_product(p, d(q)).scale(sign)

    return sides


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


def draw_pre_jacobi(ops, label, rng):
    s = rng.randint(1, 2)
    r = rng.randint(1, 2)
    x = _sample(ops, label, rng.randint(s, 3), rng, max_terms=1)
    inner = [_sample(ops, label, rng.randint(1, 2), rng, max_terms=1) for _ in range(s)]
    outer = [_sample(ops, label, rng.randint(1, 2), rng, max_terms=1) for _ in range(r)]
    return {"x": x, "inner": inner, "outer": outer}


def pre_jacobi(x, inner, outer):
    return brace_or_zero(brace_or_zero(x, inner), outer), prejacobi_rhs(x, inner, outer)


def draw_boundary_brace(ops, label, rng):
    n_args = rng.randint(1, 3)
    arity = rng.randint(n_args + 1, min(n_args + 3, MAX_ARITY[label]))
    p = _sample(ops, label, arity, rng, max_terms=1)
    args = [_sample(ops, label, rng.randint(1, 2), rng, max_terms=1) for _ in range(n_args)]
    return {"p": p, "args": args}


def make_boundary_brace(literal):
    """boundary(p{args}) against (boundary p){args} plus the signed boundaries
    of each argument.  With ``literal``, (boundary p){args} is replaced by the
    collapse claim: 0 for even arity, else minus the top-face term
    (face p){args}."""
    def sides(p, args):
        field = p.operad.field
        braced = brace(p, args)
        degs = [z.arity for z in args]
        inner_sum = Element.zero(p.operad, braced.arity - 1)
        for s_idx in range(len(args)):
            dz = boundary(args[s_idx])
            if dz.is_zero():
                continue
            changed = list(args)
            changed[s_idx] = dz
            delta = (
                braced.arity
                - args[s_idx].arity
                + sum(degs[i] - 1 for i in range(s_idx))
            )
            inner_sum = inner_sum + brace(p, changed).scale(power_sign(field, delta))
        if not literal:
            rhs = brace(boundary(p), args) + inner_sum
        elif p.arity % 2 == 0:
            rhs = inner_sum
        else:
            rhs = inner_sum - brace(face(p, p.arity), args)
        return boundary(braced), rhs

    return sides


# ---------------------------------------------------------------------------
# coincidence suite


def coproduct_vs_deconcat(x):
    return _tensor2(aw_coproduct(x), x.operad.field), _deconcat(x)


def odot_vs_concat(p, q):
    field = p.operad.field
    rhs = Element(p.operad, p.arity + q.arity, [
        (concat(kp, kq), field.mul(cp, cq))
        for kp, cp in p.terms.items()
        for kq, cq in q.terms.items()
    ])
    return odot_product(p, q), rhs


def make_cup_draw(op):
    """p and q on the preset ``op``, which is not in ``ops``, of arities r in
    1..3 and s in 1..max(1, 3 - r)."""
    def draw(ops, label, rng):
        r = rng.randint(1, 3)
        s = rng.randint(1, max(1, 3 - r))
        return {"p": random_element(op, r, rng), "q": random_element(op, s, rng)}

    return draw


def cup_vs_odot(p, q):
    return cup_product(p, q), odot_product(p, q)


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
            yield {"x": x}, *coproduct_vs_deconcat(x)


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
    # the operadic side is summed key by key from core.coboundary, since the
    # library reads both kinds off one key-rank stream on an endomorphism operad
    def run(ops, label, rng, trials):
        degrees = []
        for n in (1, 2, 3):
            mat_o = SparseMatrix._from_columns(op.dimension(n + 1), op.dimension(n), op.field,
                                               partial(_by_key, coboundary, op, 1, n))
            mat_c = differential_matrix(ComplexSpec(op, "hochschild", n, n), n)
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


def _each_operad(name, check, kind="assert"):
    return [(name, check, label, kind) for label in ALL_OPERADS]


def _batch_catalog(field):
    """Every check, by suite, in report order.

    Per-trial entries are ``(name, (draw, sides), label, kind)``: each trial
    draws its inputs with ``draw(ops, label, rng)`` and evaluates
    ``sides(**inputs)`` to ``(lhs, rhs)``; the trial is a discrepancy when
    the two sides differ.  ``kind`` is
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
        ("coproduct_vs_deconcat", (draw_x(1, max_terms=1), coproduct_vs_deconcat), "assoc",
         "assert"),
        ("odot_vs_concat", (draw_pair, odot_vs_concat), "assoc", "assert"),
        ("coproduct_vs_deconcat_exhaustive", _exhaustive(coproduct_cases), "assoc"),
        ("gamma_closed_form", _exhaustive(gamma_shift_cases), "shift"),
    ]
    for label, op in presets.items():
        coincidence.append(("cup_vs_odot", (make_cup_draw(op), cup_vs_odot), label, "assert"))
        coincidence.append(("coboundary_vs_classical", make_batch_rank_comparison(op), label))
    return {
        "simplicial": [
            *(entry for name, check in SIMPLICIAL for entry in _each_operad(name, check)),
            *_each_operad("face_gamma_compat",
                          (draw_gamma_compat, make_gamma_compat(face, multi_face)), "report"),
            *_each_operad("degen_gamma_compat",
                          (draw_gamma_compat, make_gamma_compat(degeneracy, multi_degeneracy)),
                          "report"),
        ],
        "chain": [
            *_each_operad("boundary_squared", (draw_x(0), make_square_zero(boundary))),
            *_each_operad("coboundary_squared", (draw_x(0), make_square_zero(coboundary))),
            *_each_operad("anticommutation", (draw_x(1), anticommutation)),
        ],
        "coalgebra": [
            *_each_operad("coassociativity", (draw_x(0), coassociativity)),
            *_each_operad("counit_left", (draw_x(0), make_counit(0))),
            *_each_operad("counit_right", (draw_x(0), make_counit(1))),
            *[("coderivation_sign_pattern", batch_coderivation, label) for label in ALL_OPERADS],
        ],
        "brace": [
            ("dot_vs_odot", (draw_pair, dot_vs_odot), "assoc", "assert"),
            ("coboundary_derivation", (draw_pair, make_derivation(coboundary)), "assoc", "assert"),
            ("boundary_derivation", (draw_pair, make_derivation(boundary)), "assoc", "assert"),
            ("pre_jacobi", (draw_pre_jacobi, pre_jacobi), "assoc", "assert"),
            ("boundary_brace_literal", (draw_boundary_brace, make_boundary_brace(True)), "assoc",
             "assert"),
            ("boundary_brace_termwise", (draw_boundary_brace, make_boundary_brace(False)),
             "assoc", "assert"),
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


def _run_trials(check, ops, operad_label, suite, name, seed, trials):
    draw, sides = check
    failures = 0
    first = None
    for t in range(trials):
        inputs = draw(ops, operad_label, random.Random(f"{seed}:{suite}:{name}:{operad_label}:{t}"))
        lhs, rhs = sides(**inputs)
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
