"""Runtime tracing of the package's public functions, from outside the package.

:func:`install` wraps the public functions and methods of each layer in
place (module attributes and class attributes), so the package source stays
untouched.  A wrapped call records one span ``(name, start, end, parent,
job)`` in memory and adds its duration to the parent's child time; a span's
self time is its duration minus the time its child spans cover.  Field
scalar operations are too many for spans: they are aggregated counters whose
time still counts as child time of the enclosing span.

Spans are kept in memory (up to ``SPAN_CAP``; the per-layer totals cover
every call regardless) and written out by :meth:`Tracer.dump` when the run
ends.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 400_000

# Per-layer metrics, in print order: (name, unit).
LAYER_METRICS = [
    ("field.element.calls", "count/job"),
    ("field.arith.calls", "count/job"),
    ("field.self_s", "s/job"),
    ("poly.init.calls", "count/job"),
    ("poly.init.terms", "count/job"),
    ("poly.add.calls", "count/job"),
    ("poly.add.terms", "count/job"),
    ("poly.add.self_s", "s/job"),
    ("poly.mul.calls", "count/job"),
    ("poly.mul.term_products", "count/job"),
    ("poly.mul.self_s", "s/job"),
    ("poly.pow.calls", "count/job"),
    ("poly.pow.self_s", "s/job"),
    ("poly.coefficients_in.calls", "count/job"),
    ("poly.coefficients_in.self_s", "s/job"),
    ("poly.substitute.calls", "count/job"),
    ("poly.substitute.self_s", "s/job"),
    ("poly.evaluate.calls", "count/job"),
    ("poly.evaluate.self_s", "s/job"),
    ("poly.split_by_support.calls", "count/job"),
    ("poly.split_by_support.self_s", "s/job"),
    ("poly.str.calls", "count/job"),
    ("poly.str.bytes", "bytes/job"),
    ("poly.str.self_s", "s/job"),
    ("parse.parse_polynomial.calls", "count/job"),
    ("parse.parse_polynomial.bytes", "bytes/job"),
    ("parse.parse_polynomial.self_s", "s/job"),
    ("chains.verify_chain.calls", "count/job"),
    ("chains.verify_chain.self_s", "s/job"),
    ("chains.contains.calls", "count/job"),
    ("chains.contains.self_s", "s/job"),
    ("chains.product_check.calls", "count/job"),
    ("chains.product_check.self_s", "s/job"),
    ("chains.extract_min_power.calls", "count/job"),
    ("chains.extract_min_power.self_s", "s/job"),
    ("normalize.nonvanishing_point.calls", "count/job"),
    ("normalize.nonvanishing_point.candidates", "count/job"),
    ("normalize.nonvanishing_point.errors", "count/job"),
    ("normalize.nonvanishing_point.self_s", "s/job"),
    ("normalize.monicize.calls", "count/job"),
    ("normalize.monicize.self_s", "s/job"),
    ("integral.divide_monic.calls", "count/job"),
    ("integral.divide_monic.steps", "count/job"),
    ("integral.divide_monic.self_s", "s/job"),
    ("integral.coset_action_matrix.calls", "count/job"),
    ("integral.coset_action_matrix.self_s", "s/job"),
    ("integral.characteristic_polynomial.calls", "count/job"),
    ("integral.characteristic_polynomial.dim", "count/job"),
    ("integral.characteristic_polynomial.self_s", "s/job"),
    ("integral.annihilates_modulo.calls", "count/job"),
    ("integral.annihilates_modulo.self_s", "s/job"),
    ("integral.contraction_witness.calls", "count/job"),
    ("integral.contraction_witness.errors", "count/job"),
    ("integral.contraction_witness.self_s", "s/job"),
    ("integral.power_reduce.calls", "count/job"),
    ("integral.power_reduce.steps", "count/job"),
    ("integral.power_reduce.self_s", "s/job"),
    ("cli.main.calls", "count/job"),
    ("cli.main.self_s", "s/job"),
    ("cli.import_s", "s/call"),
    ("cli.process_s", "s/call"),
    ("trace.overhead_ratio", "ratio"),
]


def _nterms(p) -> int:
    return len(p.terms)


class Tracer:
    """Spans and per-layer totals for one process."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []
        self.dropped = 0
        self.job = -1
        # One frame per open span: [child time, span index].  The bottom frame
        # collects time outside any span.
        self.stack: list[list] = [[0.0, -1]]
        self.in_field = False
        self.patches: list = []

    # -- wrappers

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call is a span; ``count(totals, args, result)`` adds sizes."""
        totals, stack, spans = self.totals, self.stack, self.spans
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        calls, self_s, errors = f"{name}.calls", f"{name}.self_s", f"{name}.errors"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if len(spans) < SPAN_CAP:
                idx = len(spans)
                spans.append(None)
            else:
                idx = -1
                self.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                totals[calls] += 1
                totals[self_s] += dur - frame[0]
                if failed:
                    totals[errors] += 1
                if idx >= 0:
                    spans[idx] = (name_id, t0, t1, parent[1], self.job)
            if count is not None:
                count(totals, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn, count=None):
        """Wrap ``fn`` with call and size counters only: no span, no timing."""
        totals = self.totals

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            totals[key] += 1
            if count is not None:
                count(totals, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def field_op(self, key: str, fn):
        """Aggregated field scalar op: counted, and timed at the outermost call."""
        totals, stack = self.totals, self.stack

        def wrapper(*args):
            totals[key] += 1
            if self.in_field:
                return fn(*args)
            self.in_field = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                self.in_field = False
                totals["field.self_s"] += dt
                stack[-1][0] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching

    def patch_attr(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr], wrapper))
        setattr(owner, attr, wrapper)

    def patch_function(self, modules, module, attr: str, wrapper) -> None:
        """Replace a module-level function in every module that bound it."""
        original = getattr(module, attr)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self.patch_attr(mod, attr, wrapper)

    def disable(self) -> None:
        """Put the original functions back, e.g. while answers are checked."""
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    def enable(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    # -- results

    def dump(self, path, extra_lines=()) -> None:
        """Write the spans, one per line: name, start, end, parent index, job.

        ``extra_lines`` are spans of other processes, already formatted.
        """
        with open(path, "w") as out:
            out.write(f"# spans kept {len(self.spans)}, dropped {self.dropped}\n")
            for span in self.spans:
                if span is not None:
                    name_id, t0, t1, parent, job = span
                    out.write("%s %.9f %.9f %d %d\n" % (self.names[name_id], t0, t1, parent, job))
            out.writelines(line + "\n" for line in extra_lines)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the ``krullkit`` package."""
    from krullkit import chains, cli, field, integral, normalize, parse, poly

    modules = [
        m for name, m in sys.modules.items()
        if name == "krullkit" or name.startswith("krullkit.")
    ]
    t = tracer

    # field: aggregated counters.
    t.patch_attr(field.FieldSpec, "element", t.field_op("field.element.calls", field.FieldSpec.element))
    for op in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv",
    ):
        t.patch_attr(
            field.FieldElement, op, t.field_op("field.arith.calls", field.FieldElement.__dict__[op])
        )

    # poly
    P = poly.Polynomial

    def init_terms(totals, args, result):
        totals["poly.init.terms"] += _nterms(args[0])

    def add_terms(totals, args, result):
        a, b = args
        totals["poly.add.terms"] += _nterms(a) + (_nterms(b) if isinstance(b, P) else 1)

    def mul_products(totals, args, result):
        a, b = args
        totals["poly.mul.term_products"] += _nterms(a) * (_nterms(b) if isinstance(b, P) else 1)

    def str_bytes(totals, args, result):
        totals["poly.str.bytes"] += len(result)

    t.patch_attr(P, "__init__", t.counter("poly.init.calls", P.__init__, init_terms))
    add = t.span("poly.add", P.__dict__["__add__"], add_terms)
    t.patch_attr(P, "__add__", add)
    t.patch_attr(P, "__radd__", add)
    mul = t.span("poly.mul", P.__dict__["__mul__"], mul_products)
    t.patch_attr(P, "__mul__", mul)
    t.patch_attr(P, "__rmul__", mul)
    t.patch_attr(P, "__pow__", t.span("poly.pow", P.__pow__))
    for method in ("coefficients_in", "substitute", "evaluate", "split_by_support"):
        t.patch_attr(P, method, t.span(f"poly.{method}", P.__dict__[method]))
    t.patch_attr(P, "__str__", t.span("poly.str", P.__str__, str_bytes))

    # parse
    def parse_bytes(totals, args, result):
        totals["parse.parse_polynomial.bytes"] += len(args[0].encode("utf-8"))

    t.patch_function(
        modules, parse, "parse_polynomial",
        t.span("parse.parse_polynomial", parse.parse_polynomial, parse_bytes),
    )

    # chains
    t.patch_function(modules, chains, "verify_chain", t.span("chains.verify_chain", chains.verify_chain))
    t.patch_function(
        modules, chains, "extract_min_power",
        t.span("chains.extract_min_power", chains.extract_min_power),
    )
    M = chains.MonomialPrimeIdeal
    t.patch_attr(M, "contains", t.span("chains.contains", M.contains))
    t.patch_attr(M, "product_check", t.span("chains.product_check", M.product_check))

    # normalize: each enumerated scalar is one point candidate.
    t.patch_attr(
        normalize, "enumerate_nonzero",
        t.counter("normalize.nonvanishing_point.candidates", normalize.enumerate_nonzero),
    )
    t.patch_function(
        modules, normalize, "nonvanishing_point",
        t.span("normalize.nonvanishing_point", normalize.nonvanishing_point),
    )
    t.patch_function(modules, normalize, "monicize", t.span("normalize.monicize", normalize.monicize))

    # integral
    def divide_steps(totals, args, result):
        q = result[0]
        totals["integral.divide_monic.steps"] += len({e[-1] for e in q.terms})

    def charpoly_dim(totals, args, result):
        totals["integral.characteristic_polynomial.dim"] += len(args[0])

    def reduce_steps(totals, args, result):
        relation, i = args[0], args[1]
        totals["integral.power_reduce.steps"] += max(i - relation.rank, 0)

    t.patch_function(
        modules, integral, "divide_monic",
        t.span("integral.divide_monic", integral.divide_monic, divide_steps),
    )
    t.patch_function(
        modules, integral, "coset_action_matrix",
        t.span("integral.coset_action_matrix", integral.coset_action_matrix),
    )
    t.patch_function(
        modules, integral, "characteristic_polynomial",
        t.span("integral.characteristic_polynomial", integral.characteristic_polynomial, charpoly_dim),
    )
    W = integral.IntegralityWitness
    t.patch_attr(
        W, "annihilates_modulo", t.span("integral.annihilates_modulo", W.annihilates_modulo)
    )
    t.patch_function(
        modules, integral, "contraction_witness",
        t.span("integral.contraction_witness", integral.contraction_witness),
    )
    t.patch_function(
        modules, integral, "power_reduce",
        t.span("integral.power_reduce", integral.power_reduce, reduce_steps),
    )

    # cli
    t.patch_function(modules, cli, "main", t.span("cli.main", cli.main))
