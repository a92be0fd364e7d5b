"""Command-line front end.

Exit codes: 0 ok, 1 domain error, 2 usage or parse error.  With --json
a single document is written to stdout:

    {"command": ..., "status": "ok"|"error", "result": ..., "meta": {"seed": ...}}

Every command runs under one work budget (`ac.WorkLimit`): the first
kernel charge past WORK_BUDGET ends it with exit 1, "work=N exceeds the
bound B".  Otherwise only `--n`, `--m`, `--budget` and nesting are bounded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .ac import Variable, WorkLimit, flip, height
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
    gp_to_ac,
    parse,
    to_assoc,
    to_gp,
    to_poly,
)
from .assoc import is_lie_element
from .realize import Realization, evaluate_gp, identity_witness_search

# Bounds on the options that set the size of `realize` and `witness`: the
# random witness polynomial has O(m^2) terms over 2m variables.
MAX_SIZE = 12  # realize --n, witness --m
MAX_BUDGET = 1000  # witness --budget
DEFAULT_BUDGET = 200  # witness without --budget
# `jacobian-space --n`: the basis has (2n-3)!! words.  On a shared
# 2-vCPU VM n=5 takes about 0.005 s, n=6 about 0.05-0.1 s and n=7 (10,395
# words) about 3 s and 44 MB peak RSS, too long for one command.
MAX_JACOBIAN_N = 6
# Work units (`ac.WorkLimit`) of one command.  The slowest input of the
# earlier per-command bounds, the 17-letter `lie-test` product, spends
# 2,228,377; a unit costs 0.1-1 us on a shared 2-vCPU VM, by kernel.
WORK_BUDGET = 2_500_000

POLARIZATION_NOTE = (
    "linearize keeps the multilinear component without dividing by d!; "
    "fresh copies take the indices above every index in the input, of any letter"
)


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


def _cmd_jacobian(args):
    ok = is_jacobian(to_gp(parse(args.expr)))
    return {"jacobian": ok}, [f"jacobian: {str(ok).lower()}"]


def _cmd_jacobian_space(args):
    if args.n > MAX_JACOBIAN_N:
        raise ValueError(f"n={args.n} exceeds the configured bound {MAX_JACOBIAN_N}")
    basis = jacobian_space(args.n)
    payload = {"dimension": len(basis), "basis": [repr(b) for b in basis]}
    human = [f"dimension: {len(basis)}"] + [repr(b) for b in basis]
    return payload, human


def _cmd_reduce(args):
    reduced, steps = jacobian_reduce_trace(strip_bare_factors(to_gp(parse(args.expr))))
    payload = {"reduced": repr(reduced), "steps": len(steps)}
    human = [repr(reduced), f"steps: {len(steps)}"]
    return payload, human


def _cmd_linearize(args):
    return repr(linearize(to_gp(parse(args.expr)))), None


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


def _cmd_lie_test(args):
    ok = is_lie_element(to_assoc(parse(args.expr)))
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
    _check_bound("--budget", args.budget, MAX_BUDGET)
    realization = Realization(args.model, args.m)
    seed = args.seed if args.seed is not None else 0
    witness = identity_witness_search(to_gp(parse(args.expr)), realization, budget=args.budget, seed=seed)
    if witness is None:
        return {"found": False, "attempts": args.budget}, ["not found"]
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


class Command(NamedTuple):
    help: str
    arguments: tuple[tuple[str, dict], ...]  # (name, argparse keywords), in order
    handler: Callable[[argparse.Namespace], tuple]
    epilog: str | None = None


def _arg(name: str, **kwargs) -> tuple[str, dict]:
    return name, kwargs


_EXPR = _arg("expr")
_TWO_EXPRS = (_arg("expr1"), _arg("expr2"))
_N = _arg("--n", type=int, required=True)
_VAR = _arg("--var", required=True)

# Each subcommand once: `build_parser` adds them in this order and `_run`
# dispatches through them.
COMMANDS = {
    "normalize": Command("canonical form of an expression", (_EXPR,), _cmd_normalize),
    "bracket": Command("bracket of two expressions", _TWO_EXPRS, _cmd_bracket),
    "mul": Command("product of two expressions", _TWO_EXPRS, _cmd_mul),
    "jacobian": Command("is the element a derivation in every variable", (_EXPR,), _cmd_jacobian),
    "jacobian-space": Command("basis of polylinear Jacobian elements on x1..xn", (_N,), _cmd_jacobian_space),
    "reduce": Command("derivation-difference reduction to a Jacobian element", (_EXPR,), _cmd_reduce),
    "linearize": Command("full polarization", (_EXPR,), _cmd_linearize, POLARIZATION_NOTE),
    "flip": Command("flip with respect to a variable", (_VAR, _EXPR), _cmd_flip),
    "height": Command("bracket height of a word at a variable", (_VAR, _EXPR), _cmd_height),
    "farkas-height": Command("bracket-factor heights and their 3-power total", (_EXPR,), _cmd_farkas_height),
    "lie-test": Command(
        "is an associative expression a Lie element ('*' concatenates, braces commute)", (_EXPR,), _cmd_lie_test
    ),
    "realize": Command("evaluate under a derivation-pair realization", (
        _arg("--model", choices=["poisson", "gps"], required=True),
        _N,
        # one list for every call: argparse copies it before it appends
        _arg("--assign", action="append", default=[], metavar="t1=EXPR"),
        _EXPR,
    ), _cmd_realize),
    "witness": Command("search for a non-identity witness", (
        _arg("--model", choices=["poisson", "gps"], default="gps"),
        _arg("--m", type=int, required=True),
        _arg("--budget", type=int, default=DEFAULT_BUDGET),
        _EXPR,
    ), _cmd_witness),
}

# Options that take a value: `--seed` and every table flag.  `main` skips
# their values when it names the subcommand of a command line it cannot
# parse.
_VALUE_OPTIONS = frozenset(
    ["--seed", *(name for c in COMMANDS.values() for name, _ in c.arguments if name.startswith("-"))]
)


_COMMAND_METAVAR = "{" + ",".join(COMMANDS) + "}"


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given a name in COMMANDS, of
    that one alone.

    The only top-level text a lean call can print is the usage line, on a
    top-level error: `-h` before the subcommand and unknown commands get
    the full tree, with its help listing and invalid-choice message.  So
    the lean tree sets the subcommand metavar to the full tree's choices,
    which keeps the usage line's bytes.  The full tree sets none: there a
    metavar would also rename the argument in the invalid-choice and
    missing-command messages."""
    # The global flags are accepted before and after the subcommand.  They
    # have no defaults here (main supplies them): each subcommand's copy
    # would write its default over a flag given before the subcommand.
    # No parser takes an abbreviation: `main` reads `--json` as spelled.
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument("--seed", type=int, help="seed for randomized search")

    parser = argparse.ArgumentParser(
        prog="freegp",
        description="Exact kernel for free anti-commutative and generic Poisson algebras.",
        parents=[common],
        allow_abbrev=False,
    )
    metavar = None if command is None else _COMMAND_METAVAR
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, spec in COMMANDS.items() if command is None else [(command, COMMANDS[command])]:
        p = sub.add_parser(name, parents=[common], help=spec.help, epilog=spec.epilog, allow_abbrev=False)
        for argument, kwargs in spec.arguments:
            p.add_argument(argument, **kwargs)
    return parser


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


def _invoked_command(argv) -> str | None:
    """The subcommand argparse will run on `argv`, when every argument
    before it is a global flag spelled exactly; otherwise None."""
    args = iter(argv)
    for a in args:
        if a == "--seed":
            if next(args, "-").startswith("-"):
                return None  # no value, or one argparse may take for a flag
        elif a != "--json" and not a.startswith("--seed="):
            return a if a in COMMANDS else None
    return None


def main(argv=None) -> int:
    # Exact integers (a `farkas-height` total, a work count, a literal)
    # may pass Python's int-string limit: lift it for this call only.
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the limit
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv, parser: argparse.ArgumentParser | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if parser is None:
        parser = build_parser(_invoked_command(argv))
    try:
        args = parser.parse_args(argv, argparse.Namespace(json=False, seed=None))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        if code != 0 and "--json" in argv:
            _emit(_command_name(argv), "error", "usage error", None, True)
        return code
    try:
        with WorkLimit(WORK_BUDGET):
            result, human = COMMANDS[args.command].handler(args)
    except ParseError as exc:
        _emit(args.command, "error", str(exc), args.seed, args.json)
        return 2
    except (ValueError, ArithmeticError) as exc:  # a spent work limit too
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
