"""Command-line front end.

Exit codes: 0 ok, 1 domain error, 2 usage or parse error.  With --json
a single document is written to stdout:

    {"command": ..., "status": "ok"|"error", "result": ..., "meta": {"seed": ...}}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .ac import Variable, flip, height
from .gp import GPPoly, is_polylinear, variable_degrees
from .identities import (
    farkas_height,
    is_jacobian,
    jacobian_reduce_trace,
    jacobian_space,
    linearize,
    strip_bare_factors,
)
from .parsing import (
    ParseError,
    _evaluate,
    gp_to_ac,
    parse,
    to_assoc,
    to_gp,
    to_poly,
)
from .assoc import is_lie_element
from .realize import Realization, _attempt_size, evaluate_gp, identity_witness_search

# Bounds on the sizes that set the work of `realize` and `witness`: the
# random witness polynomial has O(m^2) terms over 2m variables.
MAX_SIZE = 12  # realize --n, witness --m
MAX_BUDGET = 1000  # witness --budget
# Without `--budget`, witness makes as many random attempts as
# MAX_WITNESS_TERM_PAIRS admits, up to this many.
DEFAULT_BUDGET = 200
# Term pairs of the `--budget` random `witness` attempts, each estimated
# by `realize._attempt_size`, checked on the parsed element after the
# structured attempt, which costs little, and before any random one.
# The slowest admitted shapes found take 0.8-1.4 s per command on a
# shared 2-vCPU VM, printing included: {t1,{t2,t3}}*{t4,{t5,t6}}*{t7,{t8,t9}}
# + t1*t1 at m=8 under poisson (not polylinear, so no structured attempt)
# with one attempt, 1.1-1.4 s, and the 4-letter right-normed word at m=10
# under gps, 0.8-1.0 s.  The 6-letter right-normed word at m=12 under gps
# scores 90.8 million for one attempt and is refused.  J3 at m=12 scores
# 0.75 million per attempt under gps, where the structured attempt
# answers first, and 91,950 under poisson, where Jacobi holds: 10
# attempts are admitted and 11 refused, and the Poisson normal form
# answers without any.
MAX_WITNESS_TERM_PAIRS = 1_000_000
# `jacobian-space --n`: the basis has (2n-3)!! words.  On a shared
# 2-vCPU VM n=5 takes about 0.02 s, n=6 about 0.4 s and n=7 (10,395
# words) about 18 s and 98 MB peak RSS, too long for one command.
MAX_JACOBIAN_N = 6
# `lie-test` splits: over the words of the expansion before cancellation,
# 2^(letters), a bound on the coproduct's splits; 2^17 is 256 words of 9
# letters.  The slowest admitted shapes found, both at the bound, take
# about 0.8 s (a 17-letter product) and 0.6 s (the 9-letter bracket) on a
# shared 2-vCPU VM; the 10-letter bracket scores 524,288.
MAX_LIE_SPLITS = 2**17
# Variables of `reduce` (after stripping bare factors) and `jacobian`.  The
# input must be polylinear, so this is its leaf count, and a word of h + 1
# letters has a derivation difference of 2^h terms.  The slowest shape
# found, the left-normed word, takes 0.24-0.29 s as a `reduce` command at
# 7 variables, and its reduction alone about 0.5 s at 8; the Jacobian
# test takes about 0.7 s at 16 and 1.7 s at 17.
MAX_REDUCE_VARIABLES = 7
MAX_JACOBIAN_VARIABLES = 16
# Terms the Jacobian test expands before cancellation: in each monomial a
# variable at height h in its factor gives 2^h.  A variable at height 1
# counts 2, though its factor expands nothing (the Leibniz rule holds
# there); the count stays until a work meter (ROADMAP item 8) replaces it.
# The bound is the count of the left-normed 16-letter word, the largest of
# any single word at the variable bound; a sum of two of them took about
# 2 s and is refused.
MAX_JACOBIAN_TERMS = 3 * 2**15 - 2
# Terms `linearize` expands before it keeps the multilinear part: a
# monomial where each variable v occurs d_v times gives at most the
# product of d_v^d_v.  A degree-6 variable in a 12-letter word, the
# slowest shape at the bound, takes about 2 s; degree 7 took 22 s.
MAX_LINEARIZE_TERMS = 6**6

# Options that take a value; `main` skips those values when it names the
# subcommand of a command line it cannot parse.
_VALUE_OPTIONS = frozenset({"--seed", "--n", "--var", "--model", "--assign", "--m", "--budget"})

POLARIZATION_NOTE = (
    "linearize keeps the multilinear component without dividing by d!; "
    "fresh copies take the indices above every index in the input, of any letter"
)


def build_parser() -> argparse.ArgumentParser:
    # The global flags are accepted before and after the subcommand.  They
    # have no defaults here (main supplies them): each subcommand's copy
    # would write its default over a flag given before the subcommand.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument("--seed", type=int, help="seed for randomized search")

    parser = argparse.ArgumentParser(
        prog="freegp",
        description="Exact kernel for free anti-commutative and generic Poisson algebras.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[common], help="canonical form of an expression")
    p.add_argument("expr")

    p = sub.add_parser("bracket", parents=[common], help="bracket of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = sub.add_parser("mul", parents=[common], help="product of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = sub.add_parser("jacobian", parents=[common], help="is the element a derivation in every variable")
    p.add_argument("expr")

    p = sub.add_parser("jacobian-space", parents=[common], help="basis of polylinear Jacobian elements on x1..xn")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("reduce", parents=[common], help="derivation-difference reduction to a Jacobian element")
    p.add_argument("expr")

    p = sub.add_parser("linearize", parents=[common], help="full polarization", epilog=POLARIZATION_NOTE)
    p.add_argument("expr")

    p = sub.add_parser("flip", parents=[common], help="flip with respect to a variable")
    p.add_argument("--var", required=True)
    p.add_argument("expr")

    p = sub.add_parser("height", parents=[common], help="bracket height of a word at a variable")
    p.add_argument("--var", required=True)
    p.add_argument("expr")

    p = sub.add_parser("farkas-height", parents=[common], help="bracket-factor heights and their 3-power total")
    p.add_argument("expr")

    p = sub.add_parser("lie-test", parents=[common], help="is an associative expression a Lie element ('*' concatenates, braces commute)")
    p.add_argument("expr")

    p = sub.add_parser("realize", parents=[common], help="evaluate under a derivation-pair realization")
    p.add_argument("--model", choices=["poisson", "gps"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--assign", action="append", default=[], metavar="t1=EXPR")
    p.add_argument("expr")

    p = sub.add_parser("witness", parents=[common], help="search for a non-identity witness")
    p.add_argument("--model", choices=["poisson", "gps"], default="gps")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("expr")

    return parser


def _parse_variable(name: str) -> Variable:
    try:
        return Variable.parse(name)
    except ValueError as exc:
        raise ParseError(str(exc))


def _single_word(text: str):
    g = to_gp(parse(text))
    terms = g.terms()
    if len(terms) != 1 or len(terms[0][0]) != 1:
        raise ValueError("expected a single bracket word")
    return terms[0][0][0]


def _cmd_normalize(args):
    return repr(to_gp(parse(args.expr))), None


def _cmd_bracket(args):
    value = to_gp(parse(args.expr1)).bracket(to_gp(parse(args.expr2)))
    return repr(value), None


def _cmd_mul(args):
    value = to_gp(parse(args.expr1)) * to_gp(parse(args.expr2))
    return repr(value), None


def _difference_size(f: GPPoly) -> int:
    """Sum over the monomials of f, their factors w and the variables v
    of w of 2^height(w, v); every v must occur in w once."""
    sizes = {w: sum(2 ** height(w, v) for v in w.varset) for w in f.factor_words()}
    return sum(sizes[w] for m in f.monomials() for w in m)


def _cmd_jacobian(args):
    f = to_gp(parse(args.expr))
    _check_bound("variables", len(f.variables()), MAX_JACOBIAN_VARIABLES)
    if is_polylinear(f):  # otherwise `is_jacobian` refuses it unexpanded
        _check_bound("terms", _difference_size(f), MAX_JACOBIAN_TERMS)
    ok = is_jacobian(f)
    return {"jacobian": ok}, [f"jacobian: {str(ok).lower()}"]


def _cmd_jacobian_space(args):
    if args.n > MAX_JACOBIAN_N:
        raise ValueError(f"n={args.n} exceeds the configured bound {MAX_JACOBIAN_N}")
    basis = jacobian_space(args.n)
    payload = {"dimension": len(basis), "basis": [repr(b) for b in basis]}
    human = [f"dimension: {len(basis)}"] + [repr(b) for b in basis]
    return payload, human


def _cmd_reduce(args):
    f = strip_bare_factors(to_gp(parse(args.expr)))
    _check_bound("variables", len(f.variables()), MAX_REDUCE_VARIABLES)
    reduced, steps = jacobian_reduce_trace(f)
    payload = {"reduced": repr(reduced), "steps": len(steps)}
    human = [repr(reduced), f"steps: {len(steps)}"]
    return payload, human


def _polarization_size(f: GPPoly) -> int:
    """Sum over the monomials of f of the product of d^d over the
    degrees d of its variables."""
    return sum(
        math.prod(d**d for d in variable_degrees(m).values()) for m in f.monomials()
    )


def _cmd_linearize(args):
    f = to_gp(parse(args.expr))
    _check_bound("terms", _polarization_size(f), MAX_LINEARIZE_TERMS)
    return repr(linearize(f)), None


def _cmd_flip(args):
    v = _parse_variable(args.var)
    return repr(flip(gp_to_ac(to_gp(parse(args.expr))), v)), None


def _cmd_height(args):
    v = _parse_variable(args.var)
    k = height(_single_word(args.expr), v)
    return {"height": k}, [str(k)]


def _cmd_farkas_height(args):
    fh = farkas_height(to_gp(parse(args.expr)))
    per = {v.name: h for v, h in fh.per_variable.items()}
    payload = {"total": fh.total, "per_variable": per}
    human = [f"total: {fh.total}"] + [f"{name}: {h}" for name, h in per.items()]
    return payload, human


def _lie_splits(expr) -> int:
    """Sum over the words of the associative expansion of `expr` before
    cancellation of 2^(letters): a term counts 1 whatever its coefficient
    (a zero term's groups and brackets are still expanded), a letter 2
    and {A,B} = A*B - B*A twice the product of its sides."""
    return _evaluate(
        expr,
        lambda c: 1,
        lambda name: 2,
        lambda left, right: 2 * _lie_splits(left) * _lie_splits(right),
    )


def _cmd_lie_test(args):
    expr = parse(args.expr)
    _check_bound("splits", _lie_splits(expr), MAX_LIE_SPLITS)
    ok = is_lie_element(to_assoc(expr))
    return {"lie": ok}, [f"lie: {str(ok).lower()}"]


def _parse_assignments(pairs, realization):
    assignment = {}
    for item in pairs:
        name, eq, text = item.partition("=")
        if not eq:
            raise ParseError(f"bad assignment {item!r}; use t1=EXPR")
        target = _parse_variable(name.strip())
        if target in assignment:
            raise ParseError(f"repeated assignment to {target.name}")
        assignment[target] = to_poly(parse(text), realization.var_names)
    return assignment


def _check_bound(option: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{option}={value} exceeds the bound {bound}")


def _cmd_realize(args):
    _check_bound("--n", args.n, MAX_SIZE)
    realization = Realization(args.model, args.n)
    assignment = _parse_assignments(args.assign, realization)
    value = evaluate_gp(to_gp(parse(args.expr)), assignment, realization)
    return repr(value), None


def _cmd_witness(args):
    _check_bound("--m", args.m, MAX_SIZE)
    budget = args.budget
    if budget is not None:
        _check_bound("--budget", budget, MAX_BUDGET)
    realization = Realization(args.model, args.m)
    seed = args.seed if args.seed is not None else 0
    f = to_gp(parse(args.expr))
    if budget is None:
        # when not even one attempt fits, the search refuses the default
        fits = MAX_WITNESS_TERM_PAIRS // max(_attempt_size(f, realization), 1)
        budget = min(DEFAULT_BUDGET, fits) or DEFAULT_BUDGET
    witness = identity_witness_search(
        f, realization, budget=budget, seed=seed, max_term_pairs=MAX_WITNESS_TERM_PAIRS,
    )
    if witness is None:
        return {"found": False, "attempts": budget}, ["not found"]
    # each polynomial is printed once, for both forms of the output
    assignment = {v.name: repr(r) for v, r in sorted(witness.assignment.items())}
    value = repr(witness.value)
    payload = {
        "found": True,
        "method": witness.method,
        "attempts": witness.attempts,
        "assignment": assignment,
        "value": value,
    }
    human = [f"found ({witness.method})"] + [
        f"{name} = {text}" for name, text in assignment.items()
    ] + [f"value = {value}"]
    return payload, human


_HANDLERS = {
    "normalize": _cmd_normalize,
    "bracket": _cmd_bracket,
    "mul": _cmd_mul,
    "jacobian": _cmd_jacobian,
    "jacobian-space": _cmd_jacobian_space,
    "reduce": _cmd_reduce,
    "linearize": _cmd_linearize,
    "flip": _cmd_flip,
    "height": _cmd_height,
    "farkas-height": _cmd_farkas_height,
    "lie-test": _cmd_lie_test,
    "realize": _cmd_realize,
    "witness": _cmd_witness,
}


def _emit(command: str, status: str, result, seed, as_json: bool, human=None) -> None:
    if as_json:
        doc = {"command": command, "status": status, "result": result, "meta": {"seed": seed}}
        print(json.dumps(doc))
        return
    if status == "error":
        print(result, file=sys.stderr)
        return
    for line in [result] if human is None else human:
        print(line)


def _command_name(argv) -> str:
    """The first argument that is neither an option nor an option's value."""
    args = iter(argv)
    for a in args:
        if a in _VALUE_OPTIONS:
            next(args, None)
        elif not a.startswith("-"):
            return a
    return ""


def main(argv=None) -> int:
    # Exact integers (a `farkas-height` total, a bound's count, a literal)
    # may pass Python's int-string limit: lift it for this call only.
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the limit
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(json=False, seed=None))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        if code != 0 and "--json" in argv:
            _emit(_command_name(argv), "error", "usage error", None, True)
        return code
    try:
        result, human = _HANDLERS[args.command](args)
    except ParseError as exc:
        _emit(args.command, "error", str(exc), args.seed, args.json)
        return 2
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        _emit(args.command, "error", str(exc), args.seed, args.json)
        return 1
    _emit(args.command, "ok", result, args.seed, args.json, human)
    return 0


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): send the rest of the
        # output, and the flush at exit, to devnull, and exit 1 quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
