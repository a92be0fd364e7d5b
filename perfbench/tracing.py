"""Outside-in tracing of freegp's layers.

The tracer wraps public functions and methods at each layer boundary
from the benchmark's side; freegp itself is not changed.  Methods are
patched on their classes.  A module-level function is rebound in every
freegp module that holds it, because `from .x import f` binds the name
in the caller's namespace at import time.

Each wrapped call records a span (id, parent, name, start, end) in
memory; a layer's self time is a span's duration minus the time its
child spans cover.  Per-term helpers such as `bracket_normal` and
`_accumulate` run millions of times and are not wrapped: their work is
counted from argument and result sizes at the enclosing boundary.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


MAX_SPANS = 20_000  # raw spans kept for the trace file; statistics cover all


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # open spans: [start, covered by children, id]
        self._next_id = 0
        self._patches: list[tuple] = []

    def call(self, name, fn, args=(), kwargs=None, before=None, after=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        state = before(self, args) if before else None
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        self._next_id += 1
        frame = [perf_counter(), 0.0, self._next_id]
        stack.append(frame)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            if stack and stack[-1] is frame:
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                st = self.stats[name]
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[2], parent, name, frame[0], end))
                else:
                    self.dropped += 1
        if after:
            after(self, args, result, state)
        return result

    def reset_stack(self) -> None:
        """Drop spans left open by an exception that unwound past a
        wrapper's bookkeeping (a RecursionError can)."""
        self._stack.clear()

    def _wrap(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, before, after)

        return wrapper

    def install(self) -> None:
        """Patch every boundary in BOUNDARIES.  The patches are found on
        the first call and reused, so that installing is a few setattrs."""
        if not self._patches:
            self._patches = self._find_patches()
        for home, key, _, wrapper in self._patches:
            setattr(home, key, wrapper)

    def uninstall(self) -> None:
        for home, key, original, _ in reversed(self._patches):
            setattr(home, key, original)

    def _find_patches(self) -> list[tuple]:
        """(namespace, name, original, wrapper) for every binding of a
        boundary in freegp's loaded modules."""
        patches = []
        modules = [m for n, m in sys.modules.items() if n == "freegp" or n.startswith("freegp.")]
        for name, owner, attr, before, after in BOUNDARIES:
            module_name, _, class_name = owner.partition(":")
            if class_name:
                cls = getattr(sys.modules[module_name], class_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(name, original, before, after)
                homes = [cls]
            else:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(name, original, before, after)
                homes = modules
            for home in homes:
                for key, value in vars(home).items():
                    if value is original:
                        patches.append((home, key, original, wrapper))
        return patches

    def write(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["stats"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(self.stats.items())}
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans_dropped"] = self.dropped
        doc["spans"] = [list(s) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------- derived counts


def _add_row(t, args, reduced, _):
    row = args[1]
    t.counts["linalg.rank_increments"] += reduced
    t.counts["linalg.row_nnz"] += len(row) - row.count(0)
    t.counts["linalg.dense_cells"] += len(row)


def _solve_shape(t, args, _result, _):
    rows = args[0]
    t.counts["identities.decompose.rows"] += len(rows)
    t.counts["identities.decompose.columns"] += len(rows[0]) if rows else 0


def _bracket_sizes(t, args, result, _):
    t.counts["gp.bracket.term_pairs"] += len(args[0]._terms) * len(args[1]._terms)
    t.counts["gp.bracket.terms_out"] += len(result._terms)


def _basis_size(t, _args, result, _):
    t.counts["ac.basis_words"] += len(result)


def _reduce_steps(t, _args, result, _):
    t.counts["identities.reduce.steps"] += len(result[1])


def _parse_chars(t, args, _result, _):
    t.counts["parsing.chars"] += len(args[0])


def _poly_pairs(t, args, _result, _):
    other = args[1]
    if hasattr(other, "_terms"):
        t.counts["ratfunc.mul.term_pairs"] += len(args[0]._terms) * len(other._terms)


def _is_one(p) -> bool:
    if len(p._terms) != 1:
        return False
    exponent, c = next(iter(p._terms.items()))
    return c == 1 and not any(exponent)


def _unit_denominators(t, args, _result, _):
    other = args[1]
    other_unit = _is_one(other.den) if hasattr(other, "den") else True
    t.counts["ratfunc.unit_den_products"] += _is_one(args[0].den) and other_unit


def _evaluations_so_far(t, _args):
    return t.stats["realize.evaluate_gp"][0]


def _search_outcome(t, _args, witness, evaluations_before):
    t.counts["realize.attempts"] += t.stats["realize.evaluate_gp"][0] - evaluations_before
    t.counts["realize.witnesses"] += witness is not None


# (span name, module or "module:Class", attribute, before hook, after hook)
BOUNDARIES = [
    ("cli.main", "freegp.cli", "main", None, None),
    ("parsing.parse", "freegp.parsing", "parse", None, _parse_chars),
    ("parsing.to_gp", "freegp.parsing", "to_gp", None, None),
    ("assoc.is_lie_element", "freegp.assoc", "is_lie_element", None, None),
    ("ac.enumerate_polylinear_basis", "freegp.ac", "enumerate_polylinear_basis", None, _basis_size),
    ("ac.ac_bracket", "freegp.ac", "ac_bracket", None, None),
    ("ac.i_normal_form", "freegp.ac", "i_normal_form", None, None),
    ("gp.bracket", "freegp.gp:GPPoly", "bracket", None, _bracket_sizes),
    ("gp.mul", "freegp.gp:GPPoly", "__mul__", None, None),
    ("gp.substitute", "freegp.gp", "substitute", None, None),
    ("identities.derivation_difference", "freegp.identities", "derivation_difference", None, None),
    ("identities.jacobian_space", "freegp.identities", "jacobian_space", None, None),
    ("identities.farkas_height", "freegp.identities", "farkas_height", None, None),
    ("identities.strip_bare_factors", "freegp.identities", "strip_bare_factors", None, None),
    ("identities.reduce", "freegp.identities", "jacobian_reduce_trace", None, _reduce_steps),
    ("identities.decompose", "freegp.identities", "jacobian_product_decompose", None, None),
    ("linalg.add", "freegp.linalg:RowReducer", "add", None, _add_row),
    ("linalg.nullspace", "freegp.linalg:RowReducer", "nullspace", None, None),
    ("linalg.solve", "freegp.linalg", "solve", None, _solve_shape),
    ("ratfunc.mul", "freegp.ratfunc:MultiPoly", "__mul__", None, _poly_pairs),
    ("ratfunc.ratmul", "freegp.ratfunc:RatFunc", "__mul__", None, _unit_denominators),
    ("ratfunc.derivative", "freegp.ratfunc:RatFunc", "derivative", None, None),
    ("realize.evaluate_gp", "freegp.realize", "evaluate_gp", None, None),
    ("realize.realized_bracket", "freegp.realize", "realized_bracket", None, None),
    ("realize.witness_search", "freegp.realize", "identity_witness_search", _evaluations_so_far, _search_outcome),
]

MODULES = ["cli", "parsing", "assoc", "ac", "gp", "identities", "linalg", "ratfunc", "realize"]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass of the job list, with units."""
    calls = lambda name: t.stats[name][0] / passes if name in t.stats else 0.0
    self_s = lambda name: t.stats[name][2] / passes if name in t.stats else 0.0
    count = lambda name: t.counts.get(name, 0.0) / passes
    out = {}
    for module in MODULES + ["bench"]:
        out[f"{module}.self_s"] = (sum(v[2] for k, v in t.stats.items() if k.split(".")[0] == module) / passes, "s")
    for name in [b[0] for b in BOUNDARIES]:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in [
        "linalg.dense_cells", "gp.bracket.term_pairs", "gp.bracket.terms_out", "ac.basis_words",
        "identities.reduce.steps", "identities.decompose.rows", "identities.decompose.columns",
        "ratfunc.mul.term_pairs", "realize.attempts", "parsing.chars",
    ]:
        out[name] = (count(name), "count")
    adds = t.stats["linalg.add"][0] if "linalg.add" in t.stats else 0
    out["linalg.rank_yield"] = (_ratio(t.counts.get("linalg.rank_increments", 0), adds), "ratio")
    out["linalg.row_nnz_mean"] = (_ratio(t.counts.get("linalg.row_nnz", 0), adds), "count")
    ratmuls = t.stats["ratfunc.ratmul"][0] if "ratfunc.ratmul" in t.stats else 0
    out["ratfunc.unit_den_share"] = (_ratio(t.counts.get("ratfunc.unit_den_products", 0), ratmuls), "ratio")
    out["realize.witness_yield"] = (_ratio(t.counts.get("realize.witnesses", 0), t.counts.get("realize.attempts", 0)), "ratio")
    return out
