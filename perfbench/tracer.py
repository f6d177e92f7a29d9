"""Per-layer tracing of operad_lab from outside the library.

``install`` wraps the public functions and methods of each layer: methods on
their classes, and module functions in every ``operad_lab`` namespace that
bound them (``verify`` does ``from .core import face``, ``cli`` does
``from .cohomology import betti``), so no call escapes the count.  A wrapped
call is either a span (name, parent, start, end) or a bare count.  Spans are
kept in compact arrays in memory and written out once, after the command.

The tracer assumes one thread: spans nest through a single stack.
"""

import json
import sys
from array import array
from time import perf_counter

from workloads import VERIFY_SUITES

# Layers whose self or inclusive time is reported get spans; the rest are
# counted only, which keeps the tracing cost of the hottest calls low.
SPANS = {
    ("elements", "Element.__init__"): "elements.element_init",
    ("assoc", "AssocOperad.compose_basis"): "assoc.compose_basis",
    ("shift", "ShiftOperad.compose_basis"): "shift.compose_basis",
    ("endo", "EndoOperad.compose_basis"): "endo.compose_basis",
    ("endo", "EndoOperad.multiplication"): "endo.multiplication",
    ("endo", "classical_coboundary"): "endo.classical_coboundary",
    ("core", "compose"): "core.compose",
    ("core", "boundary"): "core.boundary",
    ("core", "coboundary"): "core.coboundary",
    ("core", "brace"): "core.brace",
    ("core", "aw_coproduct"): "core.aw_coproduct",
    ("cohomology", "betti"): "cohomology.betti",
    ("linalg", "SparseMatrix.__init__"): "linalg.matrix_init",
    ("serialize", "dumps"): "serialize.dumps",
}
COUNTS = {
    ("elements", "Element.__add__"): "elements.element_add.calls",
    ("assoc", "AssocOperad.validate_basis"): "elements.validate_basis.calls",
    ("shift", "ShiftOperad.validate_basis"): "elements.validate_basis.calls",
    ("endo", "EndoOperad.validate_basis"): "elements.validate_basis.calls",
    **{("scalars", f"{cls}.{op}"): "scalars.field_ops"
       for cls in ("RationalField", "PrimeField")
       for op in ("add", "sub", "mul", "neg", "inv")},
}

SPAN_FILE_FORMAT = (
    "one JSON header line, then n uint16 name ids, n int64 parent span "
    "indices (-1 for a root), n float64 starts and n float64 ends "
    "(perf_counter seconds), each in native byte order"
)


class TraceError(RuntimeError):
    """A layer the tracer must wrap is missing from operad_lab."""


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {}
        self.seconds = {"linalg.rank.dense_s": 0.0, "linalg.rank.sparse_s": 0.0}
        self.ranked = {}  # id -> matrix; holding it keeps ids distinct

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def cell(self, name):
        return self.counts.setdefault(name, [0])

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        nid = self._name_id(name)
        names, parents = self.name.append, self.parent.append
        starts, ends, end = self.start.append, self.end.append, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(end)
            names(nid)
            parents(stack[-1])
            ends(0.0)
            stack.append(idx)
            starts(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def counter(self, name, fn):
        """Wrap ``fn`` so that each call adds one to the count ``name``."""
        cell = self.cell(name)

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds, and self seconds (span
        time minus the time of its child spans).  No traced layer calls
        itself, so inclusive times do not count any interval twice."""
        n = len(self.end)
        child = array("d", bytes(8 * n))
        start, end = self.start, self.end
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(self.names)
        calls, incl, own = [0] * k, [0.0] * k, [0.0] * k
        for nid, s, e, c in zip(self.name, start, end, child):
            calls[nid] += 1
            incl[nid] += e - s
            own[nid] += e - s - c
        return {name: {"calls": calls[i], "incl_s": incl[i], "self_s": own[i]}
                for i, name in enumerate(self.names)}

    def layer_metrics(self):
        """The per-layer metrics named in BENCHMARK.json (all but
        trace.overhead_s, which needs an untraced run)."""
        spans = self.summary()
        empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

        def get(name, field):
            return spans.get(name, empty)[field]

        def count(name):
            return self.counts.get(name, [0])[0]

        rank_calls = get("linalg.rank", "calls")
        out = {
            "scalars.field_ops": count("scalars.field_ops"),
            "elements.element_init.calls": get("elements.element_init", "calls"),
            "elements.element_init.self_s": get("elements.element_init", "self_s"),
            "elements.validate_basis.calls": count("elements.validate_basis.calls"),
            "elements.element_add.calls": count("elements.element_add.calls"),
        }
        for op in ("assoc", "shift", "endo"):
            out[f"{op}.compose_basis.calls"] = get(f"{op}.compose_basis", "calls")
            out[f"{op}.compose_basis.self_s"] = get(f"{op}.compose_basis", "self_s")
        out.update({
            "endo.multiplication.calls": get("endo.multiplication", "calls"),
            "endo.classical_coboundary.self_s": get("endo.classical_coboundary", "self_s"),
            "core.compose.calls": get("core.compose", "calls"),
            "core.compose.self_s": get("core.compose", "self_s"),
        })
        for op in ("boundary", "coboundary", "brace", "aw_coproduct"):
            out[f"core.{op}.incl_s"] = get(f"core.{op}", "incl_s")
        out.update({
            "cohomology.differential_matrix.incl_s":
                get("cohomology.differential_matrix", "incl_s"),
            "cohomology.columns": count("cohomology.columns"),
            "cohomology.betti.self_s": get("cohomology.betti", "self_s"),
            "linalg.matrix_init.self_s": get("linalg.matrix_init", "self_s"),
            "linalg.rank.calls": rank_calls,
            "linalg.rank.distinct": len(self.ranked),
            "linalg.rank.useful_ratio": len(self.ranked) / rank_calls if rank_calls else 0.0,
            **self.seconds,
            "linalg.nnz": count("linalg.nnz"),
        })
        for suite in VERIFY_SUITES:
            out[f"verify.suite.{suite}.incl_s"] = get(f"verify.suite.{suite}", "incl_s")
        out["verify.trials"] = count("verify.trials")
        out["serialize.dumps.incl_s"] = get("serialize.dumps", "incl_s")
        return out

    def write(self, path):
        """Write every span to ``path`` in the SPAN_FILE_FORMAT layout."""
        header = {"format": SPAN_FILE_FORMAT, "byteorder": sys.byteorder,
                  "names": self.names, "spans": len(self.end)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _operad_lab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "operad_lab" or name.startswith("operad_lab."))]


def _lookup(module, qualname):
    """The object holding ``qualname`` in ``module``, and its value there."""
    owner = module
    *path, attr = qualname.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        return owner, vars(owner)[attr]
    except (AttributeError, KeyError):
        raise TraceError(f"{module.__name__}.{qualname} not found;"
                         " update perfbench/tracer.py") from None


def _patch(module, qualname, wrap):
    """Replace ``module.qualname`` with ``wrap(original)``: a method on its
    class, a function in every operad_lab namespace that holds it."""
    owner, original = _lookup(module, qualname)
    wrapped = wrap(original)
    if owner is not module:
        setattr(owner, qualname.rsplit(".", 1)[1], wrapped)
        return
    for mod in _operad_lab_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(tracer):
    """Wrap every traced layer of the already imported operad_lab."""
    import importlib

    mods = {name: importlib.import_module(f"operad_lab.{name}")
            for name in ("scalars", "elements", "assoc", "shift", "endo", "core",
                         "linalg", "cohomology", "serialize", "verify", "cli")}
    for (mod, qualname), name in SPANS.items():
        _patch(mods[mod], qualname, lambda fn, name=name: tracer.span(name, fn))
    for (mod, qualname), name in COUNTS.items():
        _patch(mods[mod], qualname, lambda fn, name=name: tracer.counter(name, fn))
    _patch(mods["cohomology"], "differential_matrix",
           lambda fn: _differential_matrix(tracer, fn))
    _patch(mods["linalg"], "SparseMatrix.rank", lambda fn: _rank(tracer, mods["linalg"], fn))
    _patch(mods["verify"], "_run_trials", lambda fn: _run_trials(tracer, fn))
    _patch(mods["verify"], "_batch_catalog", lambda fn: _batch_catalog(tracer, fn))


def _differential_matrix(tracer, fn):
    traced = tracer.span("cohomology.differential_matrix", fn)
    columns, nnz = tracer.cell("cohomology.columns"), tracer.cell("linalg.nnz")

    def differential_matrix(spec, degree):
        mat = traced(spec, degree)
        columns[0] += mat.n_cols
        nnz[0] += mat.nnz
        return mat

    return differential_matrix


def _rank(tracer, linalg, fn):
    """Span each rank call, and time it under the path the library takes:
    dense when ``density`` exceeds ``DENSE_DENSITY``, else sparse."""
    traced = tracer.span("linalg.rank", fn)
    seconds, ranked = tracer.seconds, tracer.ranked

    def rank(self):
        ranked.setdefault(id(self), self)
        if self.nnz == 0:
            return traced(self)
        key = "linalg.rank.dense_s" if self.density > linalg.DENSE_DENSITY else "linalg.rank.sparse_s"
        t0 = perf_counter()
        try:
            return traced(self)
        finally:
            seconds[key] += perf_counter() - t0

    return rank


def _run_trials(tracer, fn):
    """Per-trial checks: one span per (check, operad) under its suite."""
    trials_done = tracer.cell("verify.trials")

    def run_trials(check, ops, operad_label, suite, name, seed, trials):
        trials_done[0] += trials
        return tracer.span(f"verify.suite.{suite}", fn)(
            check, ops, operad_label, suite, name, seed, trials)

    return run_trials


def _batch_catalog(tracer, fn):
    """Batch checks: wrap each catalog entry's function in a suite span.
    Entries with a fourth field run through ``_run_trials`` instead."""

    def batch_catalog(field):
        catalog = fn(field)
        for suite, entries in catalog.items():
            wrapped = []
            for entry in entries:
                if len(entry) == 3:
                    name, check, label = entry
                    entry = (name, tracer.span(f"verify.suite.{suite}", check), label)
                elif len(entry) != 4:
                    raise TraceError(f"unexpected verify catalog entry {entry!r}")
                wrapped.append(entry)
            catalog[suite] = wrapped
        return catalog

    return batch_catalog
