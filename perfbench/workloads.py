"""Seeded job lists of the four benchmark workloads and the checks on
their results.

A job is one call into freegp's public API, or on `queries` one
in-process CLI invocation.  `call` is the part that is timed; `render`
turns its result into the canonical text whose digest is compared with
the stored digests; `check` asserts the paper's invariants on the result
and returns the violations it found.  Inputs depend only on the
workload, the seed and the job's slot, so the smoke-size lists of
classify, reduce and queries are prefixes of the full ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from freegp import cli, identities, realize
from freegp.ac import Variable, flip, height
from freegp.assoc import is_lie_element
from freegp.gp import GPPoly
from freegp.parsing import ParseError, gp_to_ac, parse, to_assoc, to_gp, to_poly
from freegp.ratfunc import RatFunc

# The paper's dimension table of polylinear Jacobian elements.
DIMENSIONS = {2: 1, 3: 1, 4: 0, 5: 0}

J3 = "{{t1,t2},t3} + {{t2,t3},t1} + {{t3,t1},t2}"


@dataclass
class Job:
    id: str
    shape: dict
    call: Callable[[], Any]
    render: Callable[[Any], str]
    check: Callable[[Any], list[str]]
    # Set on inputs that hit a defect known when the benchmark was written:
    # they fail until the defect is fixed, and have no stored digest.
    known_defect: str | None = None
    # False when the input and result do not depend on the seed.
    seeded: bool = True


def _rng(workload: str, seed: int, slot) -> random.Random:
    # String seeds go through sha512, so inputs do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{slot}")


def _tree(labels: list, rng: random.Random):
    """Random binary tree (nested pairs) with the given leaves."""
    if len(labels) == 1:
        return labels[0]
    labels = labels[:]
    rng.shuffle(labels)
    k = rng.randint(1, len(labels) - 1)
    return (_tree(labels[:k], rng), _tree(labels[k:], rng))


def _text(tree, names=None) -> str:
    """Bracket text of a tree; integer leaves index into `names`."""
    if isinstance(tree, tuple):
        return "{" + _text(tree[0], names) + "," + _text(tree[1], names) + "}"
    return tree if names is None else names[tree]


def _coef(c: int) -> str:
    return {1: "", -1: "-"}.get(c, f"{c}*")


def _sum_text(terms: list[tuple[int, str]]) -> str:
    out = ""
    for c, body in terms:
        piece = _coef(c) + body
        out = piece if not out else out + (" - " + piece[1:] if piece.startswith("-") else " + " + piece)
    return out


def _blocks(items: list, rng: random.Random, sizes: tuple[int, ...]) -> list[list]:
    """Random partition of `items` into blocks whose sizes come from `sizes`."""
    items = items[:]
    rng.shuffle(items)
    out = []
    while items:
        fits = [s for s in sizes if s <= len(items) and (len(items) - s == 0 or len(items) - s >= min(sizes))]
        k = rng.choice(fits)
        out.append(items[:k])
        items = items[k:]
    return out


# ------------------------------------------------------------------ classify


def _space_job(n: int) -> Job:
    def check(basis):
        problems = []
        if len(basis) != DIMENSIONS[n]:
            problems.append(f"n={n}: dimension {len(basis)}, the paper's table says {DIMENSIONS[n]}")
        for b in basis:
            if not identities.is_jacobian(GPPoly.from_ac(b)):
                problems.append(f"n={n}: basis element {b!r} is not Jacobian")
        return problems

    return Job(
        f"classify/space-n{n}",
        {"n": n},
        lambda: identities.jacobian_space(n),
        lambda basis: "\n".join(repr(b) for b in basis),
        check,
        seeded=False,
    )


def _block_text(block: list[str]) -> str:
    if len(block) == 2:
        return "{%s,%s}" % tuple(block)
    a, b, c = block
    return "({{%s,%s},%s} + {{%s,%s},%s} + {{%s,%s},%s})" % (a, b, c, b, c, a, c, a, b)


def _decompose_job(seed: int, slot: int, n: int, products: int) -> Job:
    """Sum of `products` distinct products of pair brackets and
    jacobiators over 2/3-partitions of x1..xn, with known coefficients."""
    rng = _rng("classify", seed, slot)
    names = [f"x{i}" for i in range(1, n + 1)]
    chosen: dict[frozenset, int] = {}
    while len(chosen) < products:
        part = _blocks(names, rng, (2, 3))
        key = frozenset(tuple(sorted(b, key=lambda s: int(s[1:]))) for b in part)
        chosen.setdefault(key, rng.choice([-3, -2, -1, 1, 2, 3]))
    text = _sum_text(
        [(c, "*".join(_block_text(list(b)) for b in sorted(key))) for key, c in chosen.items()]
    )
    f = to_gp(parse(text))

    def check(d):
        if not d.ok:
            return [f"decomposition refused: {d.reason}"]
        problems = []
        if d.reconstruct() != f:
            problems.append("reconstruct() differs from the input")
        got = {frozenset(tuple(v.name for v in b) for b in part): c for part, (c, _) in zip(d.blocks, d.terms)}
        if got != chosen:
            problems.append("coefficients differ from the generating ones")
        return problems

    def render(d):
        rows = [f"{c} " + "|".join(",".join(v.name for v in b) for b in part) for part, (c, _) in zip(d.blocks, d.terms)]
        return f"ok={d.ok}\n" + "\n".join(rows)

    return Job(
        f"classify/decompose-{slot:02d}",
        {"variables": n, "products": products, "terms": len(f._terms), "input": text},
        lambda: identities.jacobian_product_decompose(f),
        render,
        check,
    )


def classify_jobs(seed: int, smoke: bool = False) -> list[Job]:
    jobs = [_space_job(n) for n in ((2, 3, 4) if smoke else (2, 3, 4, 5))]
    plan = [(6, 2), (7, 1), (7, 2), (7, 3), (7, 4), (6, 3), (7, 1), (7, 2), (7, 3), (7, 4)]
    if smoke:
        plan = plan[:2]
    jobs += [_decompose_job(seed, slot, n, k) for slot, (n, k) in enumerate(plan)]
    return jobs


# -------------------------------------------------------------------- reduce


def _reduce_templates() -> list[tuple[int, int, list[list]]]:
    """Fixed word shapes of the reduce jobs: (variables, bare factors,
    terms), each term a list of trees over positions 0..variables-1.

    The shapes are drawn once from a constant seed.  A workload seed picks
    the variable indices, keeping their order, and the coefficients; the
    reduction path depends only on the order of the variables, so every
    seed does the same work.
    Words have at most six leaves: a seven-leaf word can expand to 720
    terms and take seconds on its own (see NOTES.md).
    """
    rng = random.Random("freegp-bench-reduce-shapes")
    out = []
    for slot in range(16):
        n = (5, 6, 7)[slot % 3]
        bare = 1 if slot % 4 == 3 else 0
        terms = []
        for _ in range(rng.randint(1, 3)):
            blocks = _blocks(list(range(n)), rng, (2, 3, 4, 5, 6))
            terms.append([_tree(b, rng) for b in blocks])
        out.append((n, bare, terms))
    return out


_TEMPLATES = _reduce_templates()


def _reduce_job(seed: int, slot: int) -> Job:
    n, bare, terms = _TEMPLATES[slot]
    rng = _rng("reduce", seed, slot)
    names = [f"x{i}" for i in sorted(rng.sample(range(1, 3 * (n + bare)), n + bare))]
    extra = names[n:]
    text = _sum_text(
        [(rng.choice([-3, -2, -1, 1, 2, 3]), "*".join([_text(t, names) for t in term] + extra)) for term in terms]
    )
    f = to_gp(parse(text))

    def call():
        g = identities.strip_bare_factors(f)
        return g, identities.jacobian_reduce_trace(g)

    def check(result):
        g, (reduced, steps) = result
        problems = []
        heights = [identities.farkas_height(g).total]
        for s in steps:
            if s.height_before != heights[-1]:
                problems.append(f"step on {s.variable} starts at height {s.height_before}, previous ended at {heights[-1]}")
            if s.height_after >= s.height_before:
                problems.append(f"step on {s.variable} does not decrease the height")
            heights.append(s.height_after)
        if reduced.is_zero():
            problems.append("reduced to zero")
        elif identities.farkas_height(reduced).total != heights[-1]:
            problems.append("final height differs from the last step")
        if not identities.is_jacobian(reduced):
            problems.append("result is not Jacobian")
        return problems

    def render(result):
        _, (reduced, steps) = result
        trace = [f"{s.variable}->{s.fresh} {s.height_before}>{s.height_after}" for s in steps]
        return "\n".join([repr(reduced)] + trace)

    return Job(
        f"reduce/{slot:02d}",
        {"variables": n, "bare": bare, "terms": len(f._terms), "input": text},
        call,
        render,
        check,
    )


def reduce_jobs(seed: int, smoke: bool = False) -> list[Job]:
    return [_reduce_job(seed, slot) for slot in range(3 if smoke else len(_TEMPLATES))]


# ------------------------------------------------------------------- witness


def _witness_job(
    job_id: str, text: str, kind: str, m: int, budget: int, search_seed: int, expect_found: bool, seeded: bool = True
) -> Job:
    f = to_gp(parse(text))
    model = realize.Realization(kind, m)

    def check(w):
        if w is None:
            return [] if not expect_found else ["no witness found"]
        if not expect_found:
            return [f"witness found under {kind}, where the identity holds"]
        problems = []
        if w.value.is_zero():
            problems.append("witness value is zero")
        if realize.evaluate_gp(f, w.assignment, model) != w.value:
            problems.append("witness value does not re-evaluate")
        return problems

    def render(w):
        if w is None:
            return "none"
        rows = [f"{w.method} {w.attempts}"] + [f"{v.name}={r!r}" for v, r in sorted(w.assignment.items())]
        return "\n".join(rows + [repr(w.value)])

    return Job(
        job_id,
        {"model": kind, "m": m, "budget": budget, "input": text},
        lambda: realize.identity_witness_search(f, model, budget=budget, seed=search_seed),
        render,
        check,
        seeded=seeded,
    )


# Block sizes of the pair/triple bracket products given structured gps
# witnesses.  They outnumber the searches, so the median job latency
# falls among them on every seed.
_STRUCTURED_BLOCKS = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2), (2, 3, 2), (3, 3, 2), (2, 2, 3)]

# Fixed word shapes of the random gps searches: (degree, m, tree).  The
# cost of one attempt grows with both the degree and m.
_SEARCH_SHAPES = [
    (4, 4, (0, (1, (2, 3)))),
    (4, 5, ((0, 1), (2, 3))),
    (5, 4, (0, (1, (2, (3, 4))))),
]


def witness_jobs(seed: int, smoke: bool = False) -> list[Job]:
    rng = _rng("witness", seed, "search-seeds")
    if smoke:
        return [
            _witness_job("witness/j3-poisson-m2", J3, "poisson", 2, 1, rng.randrange(2**31), False, seeded=False),
            _witness_job("witness/j3-gps-m3", J3, "gps", 3, 1, 0, True, seeded=False),
        ]
    jobs = [
        _witness_job("witness/j3-poisson-m4", J3, "poisson", 4, 4, rng.randrange(2**31), False, seeded=False),
        _witness_job("witness/j3-poisson-m12", J3, "poisson", 12, 1, rng.randrange(2**31), False, seeded=False),
        _witness_job("witness/j3-gps-m3", J3, "gps", 3, 1, 0, True, seeded=False),
    ]
    for slot, sizes in enumerate(_STRUCTURED_BLOCKS):
        r = _rng("witness", seed, f"structured-{slot}")
        names = [f"t{i}" for i in range(1, 9)]
        r.shuffle(names)
        blocks, rest = [], names
        for k in sizes:
            blocks.append(rest[:k])
            rest = rest[k:]
        text = "*".join(_word(b, r) for b in blocks)
        jobs.append(_witness_job(f"witness/structured-{slot}", text, "gps", sum(sizes), 1, 0, True))
    for slot, (degree, m, tree) in enumerate(_SEARCH_SHAPES):
        r = _rng("witness", seed, f"search-{slot}")
        names = [f"t{i}" for i in range(1, degree + 1)]
        r.shuffle(names)
        jobs.append(_witness_job(f"witness/search-{slot}", _text(tree, names), "gps", m, 4, r.randrange(2**31), True))
    return jobs


# ------------------------------------------------------------------- queries


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _doc(output: str) -> tuple[dict | None, str | None]:
    """The single JSON document of a --json run, or why there is none."""
    lines = output.splitlines()
    if len(lines) != 1:
        return None, f"{len(lines)} output lines, expected one JSON document"
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return None, "output is not JSON"
    if not isinstance(doc, dict) or set(doc) != {"command", "status", "result", "meta"}:
        return None, "JSON document lacks the documented keys"
    return doc, None


def _query(job_id: str, argv: list[str], expect_code: int = 2, oracle=None, known_defect=None) -> Job:
    """`oracle` computes the expected `result` directly from the library;
    when it raises, or when there is none, the run must end in an error
    document with the documented exit code."""

    def check(outcome):
        code, output = outcome
        want, result = expect_code, None
        if oracle is not None:
            try:
                want, result = 0, oracle()
            except ParseError:
                want = 2
            except (ValueError, ArithmeticError):
                want = 1
        if code != want:
            return [f"exit code {code}, expected {want}"]
        doc, why = _doc(output)
        if doc is None:
            return [why]
        if doc["status"] != ("ok" if want == 0 else "error"):
            return [f"status {doc['status']!r}"]
        if want == 0 and doc["result"] != result:
            return ["result differs from the library's"]
        return []

    return Job(
        job_id,
        {"argv": argv},
        lambda: run_cli(argv),
        lambda outcome: f"{outcome[0]}\n{outcome[1]}",
        check,
        known_defect,
    )


def _gp_text(names: list[str], rng: random.Random) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        words = [_text(_tree(rng.sample(names, rng.randint(1, min(3, len(names)))), rng)) for _ in range(rng.randint(1, 2))]
        terms.append((rng.choice([-2, -1, 1, 1, 3]), "*".join(words)))
    return _sum_text(terms)


def _polylinear_text(names: list[str], rng: random.Random, sizes=(1, 2, 3, 4)) -> str:
    terms = []
    for _ in range(rng.randint(1, 2)):
        blocks = _blocks(names, rng, tuple(s for s in sizes if s <= len(names)))
        terms.append((rng.choice([-1, 1, 2]), "*".join(_text(_tree(b, rng)) for b in blocks)))
    return _sum_text(terms)


def _word(names: list[str], rng: random.Random) -> str:
    return _text(_tree(names, rng))


def _valid_query(kind: str, rng: random.Random) -> tuple[list[str], list[str], Callable[[], Any]]:
    """Options and operands of one well-formed command, and the library
    computation of its result."""
    names = [f"x{i}" for i in range(1, rng.randint(2, 6) + 1)]
    if kind == "normalize":
        e = _gp_text(names, rng)
        return [], [e], lambda: repr(to_gp(parse(e)))
    if kind == "bracket":
        a, b = _gp_text(names, rng), _gp_text(names, rng)
        return [], [a, b], lambda: repr(to_gp(parse(a)).bracket(to_gp(parse(b))))
    if kind == "mul":
        a, b = _gp_text(names, rng), _gp_text(names, rng)
        return [], [a, b], lambda: repr(to_gp(parse(a)) * to_gp(parse(b)))
    if kind == "jacobian":
        e = _polylinear_text(names[:5], rng)
        return [], [e], lambda: {"jacobian": identities.is_jacobian(to_gp(parse(e)))}
    if kind == "jacobian-space":
        n = rng.choice([2, 3, 4])

        def space():
            basis = identities.jacobian_space(n)
            return {"dimension": DIMENSIONS[n], "basis": [repr(b) for b in basis]}

        return ["--n", str(n)], [], space
    if kind == "reduce":
        e = _polylinear_text(names[: rng.choice([3, 4])], rng, sizes=(2, 3, 4))

        def reduced():
            r, steps = identities.jacobian_reduce_trace(identities.strip_bare_factors(to_gp(parse(e))))
            return {"reduced": repr(r), "steps": len(steps)}

        return [], [e], reduced
    if kind == "linearize":
        leaves = [rng.choice(names[:3]) for _ in range(rng.randint(2, 4))]
        e = "*".join(_word(b, rng) for b in _blocks(leaves, rng, (1, 2, 3, 4)))
        return [], [e], lambda: repr(identities.linearize(to_gp(parse(e))))
    if kind in ("flip", "height"):
        v = rng.choice(names)
        e = _word(names, rng) if kind == "height" else _sum_text([(rng.choice([-1, 1, 2]), _word(names, rng)) for _ in range(rng.randint(1, 2))])
        if kind == "flip":
            return ["--var", v], [e], lambda: repr(flip(gp_to_ac(to_gp(parse(e))), Variable.parse(v)))
        return ["--var", v], [e], lambda: {"height": height(to_gp(parse(e)).terms()[0][0][0], Variable.parse(v))}
    if kind == "farkas-height":
        e = _polylinear_text(names, rng, sizes=(2, 3, 4))

        def farkas():
            fh = identities.farkas_height(to_gp(parse(e)))
            return {"total": fh.total, "per_variable": {v.name: h for v, h in fh.per_variable.items()}}

        return [], [e], farkas
    if kind == "lie-test":
        us = [f"u{i}" for i in range(1, len(names) + 1)][:4]
        if rng.random() < 0.5:
            e = _word(us, rng)
        else:
            e = _sum_text([(rng.choice([-1, 1]), "*".join(rng.sample(us, len(us)))) for _ in range(2)])
        return [], [e], lambda: {"lie": is_lie_element(to_assoc(parse(e)))}
    if kind == "realize":
        model, n = rng.choice(["poisson", "gps"]), rng.choice([1, 2])
        ts = ["t1", "t2", "t3"][: rng.choice([2, 3])]
        e = _word(ts, rng)
        xs = [f"{c}{i}" for i in range(1, n + 1) for c in "xy"]
        assigns = {t: _sum_text([(rng.choice([-1, 1, 2]), "*".join(rng.sample(xs, rng.randint(1, 2)))) for _ in range(2)]) for t in ts}
        options = ["--model", model, "--n", str(n)] + [a for t in ts for a in ("--assign", f"{t}={assigns[t]}")]

        def value():
            model_ = realize.Realization(model, n)
            assignment = {Variable.parse(t): RatFunc(to_poly(parse(a), model_.var_names)) for t, a in assigns.items()}
            return repr(realize.evaluate_gp(to_gp(parse(e)), assignment, model_))

        return options, [e], value
    if kind == "witness":
        if rng.random() < 0.5:
            model, m, budget, e = "poisson", 2, 1, J3
        else:
            model, budget = "gps", 1
            e = "*".join(_word(b, rng) for b in _blocks([f"t{i}" for i in range(1, 5)], rng, (2,)))
            m = 4

        def witness():
            w = realize.identity_witness_search(to_gp(parse(e)), realize.Realization(model, m), budget=budget, seed=0)
            if w is None:
                return {"found": False, "attempts": budget}
            return {
                "found": True,
                "method": w.method,
                "attempts": w.attempts,
                "assignment": {v.name: repr(r) for v, r in sorted(w.assignment.items())},
                "value": repr(w.value),
            }

        return ["--model", model, "--m", str(m), "--budget", str(budget)], [e], witness
    raise ValueError(kind)


SUBCOMMANDS = [
    "normalize", "bracket", "mul", "jacobian", "jacobian-space", "reduce", "linearize",
    "flip", "height", "farkas-height", "lie-test", "realize", "witness",
]

# Malformed inputs and the documented exit code for each: 2 for a parse
# or usage error, 1 for a domain error.
MALFORMED = [
    (["normalize", "--json", "{x1,x2"], 2),
    (["normalize", "--json", "x1 + * x2"], 2),
    (["bracket", "--json", "x1 x2", "x3"], 2),
    (["mul", "--json", "{x1,x2}}", "x1"], 2),
    (["flip", "--json", "--var", "9x", "{x1,x2}"], 2),
    (["jacobian-space", "--json"], 2),
    (["jacobian-space", "--json", "--n", "two"], 2),
    (["frobnicate", "--json", "x1"], 2),
    (["height", "--json", "{x1,x2}"], 2),
    (["jacobian", "--json", "{x1,x2}*x1"], 1),
    (["height", "--json", "--var", "x9", "{x1,x2}"], 1),
    (["farkas-height", "--json", "x1*{x2,x3}"], 1),
    (["reduce", "--json", "{x1,x2}*x1"], 1),
    (["jacobian-space", "--json", "--n", "1"], 1),
    (["jacobian-space", "--json", "--n", "9"], 1),
]

# Known defects at the time the benchmark was written.  Both inputs are
# counted as failed jobs until the CLI handles them as documented.
FLAG_FIRST = "global flags before the subcommand are ignored"
DEEP_NESTING = "bracket nesting past the recursion limit ends in a traceback"


def queries_jobs(seed: int, smoke: bool = False) -> list[Job]:
    total, defects, malformed = (80, 2, 8) if smoke else (1000, 10, 100)
    jobs = []
    for slot in range(total - 2 * defects - malformed):
        rng = _rng("queries", seed, slot)
        kind = SUBCOMMANDS[slot % len(SUBCOMMANDS)]
        options, operands, oracle = _valid_query(kind, rng)
        argv = [kind, "--json", *options] + (["--", *operands] if operands else [])
        jobs.append(_query(f"queries/{slot:04d}-{kind}", argv, oracle=oracle))
    for i in range(malformed):
        argv, code = MALFORMED[i % len(MALFORMED)]
        rng = _rng("queries", seed, f"malformed-{i}")
        if argv[0] == "normalize":  # vary the text around the fixed fault
            argv = argv[:2] + [f"{_word(['x3', 'x4'], rng)} + {argv[2]}"]
        jobs.append(_query(f"queries/malformed-{i:03d}", argv, code))
    for i in range(defects):
        rng = _rng("queries", seed, f"defect-{i}")
        _, operands, oracle = _valid_query("normalize", rng)
        argv = ["--json", "normalize", "--", *operands]
        jobs.append(_query(f"queries/flag-first-{i:02d}", argv, oracle=oracle, known_defect=FLAG_FIRST))
        depth = rng.randint(400, 600)
        deep = "{" * depth + "x1" + ",x2}" * depth
        jobs.append(_query(f"queries/deep-nesting-{i:02d}", ["normalize", "--json", deep], known_defect=DEEP_NESTING))
    random.Random(f"queries:{seed}:order").shuffle(jobs)
    return jobs


WORKLOADS = {
    "classify": classify_jobs,
    "reduce": reduce_jobs,
    "witness": witness_jobs,
    "queries": queries_jobs,
}
