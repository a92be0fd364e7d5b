"""Command-line interface: dispatch, JSON schema, exit codes."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from freegp.cli import (
    DEFAULT_BUDGET,
    MAX_BUDGET,
    MAX_JACOBIAN_N,
    MAX_JACOBIAN_TERMS,
    MAX_JACOBIAN_VARIABLES,
    MAX_LIE_SPLITS,
    MAX_LINEARIZE_TERMS,
    MAX_REDUCE_VARIABLES,
    MAX_SIZE,
    MAX_WITNESS_TERM_PAIRS,
    _VALUE_OPTIONS,
    _difference_size,
    _lie_splits,
    build_parser,
    entry,
    main,
)
from freegp.parsing import MAX_DEPTH, parse, to_gp
from freegp.realize import Realization, _attempt_size
from helpers import expanded_words, expansion_degree, expansion_size, expression_texts

J3_T = "{{t1,t2},t3} + {{t2,t3},t1} + {{t3,t1},t2}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert out.count("\n") == 1, "JSON mode must emit a single line"
    return code, json.loads(out)


class TestBasicCommands:
    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "{x2,x1}")
        assert code == 0 and out.strip() == "-{x1,x2}"

    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "bracket", "x1", "x2*x3")
        assert code == 0 and out.strip() == "x2*{x1,x3} + x3*{x1,x2}"

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "x1 + x2", "x1 - x2")
        assert code == 0 and out.strip() == "x1*x1 - x2*x2"

    def test_jacobian(self, capsys):
        code, doc = run_json(capsys, "jacobian", "{x1,x2}*{x3,x4}")
        assert code == 0 and doc["result"] == {"jacobian": True}

    def test_jacobian_and_lie_test_human_output(self, capsys):
        assert run(capsys, "jacobian", "{x1,x2}*{x3,x4}") == (0, "jacobian: true\n", "")
        assert run(capsys, "jacobian", "{x1,{x2,x3}}") == (0, "jacobian: false\n", "")
        assert run(capsys, "lie-test", "u1*u2 - u2*u1") == (0, "lie: true\n", "")
        assert run(capsys, "lie-test", "u1*u2") == (0, "lie: false\n", "")

    def test_flip(self, capsys):
        code, out, _ = run(capsys, "flip", "--var", "x3", "{x1,{x2,x3}}")
        assert code == 0 and out.strip() == "-{x2,{x1,x3}}"

    def test_linearize(self, capsys):
        code, out, _ = run(capsys, "linearize", "{x1,x2}*x1")
        assert code == 0 and out.strip() == "-x1*{x2,x3} + x3*{x1,x2}"

    def test_linearize_copies_take_indices_above_every_letter(self, capsys):
        # the copy of t1 is t6, past x5, not t2
        code, out, _ = run(capsys, "linearize", "t1*t1*x5")
        assert code == 0 and out.strip() == "2*t1*t6*x5"

    def test_reduce(self, capsys):
        code, doc = run_json(capsys, "reduce", "{x1,{x2,x3}}")
        assert code == 0
        assert doc["result"]["steps"] == 1
        assert doc["result"]["reduced"] == "-{x1,x2}*{x3,x4} + {x1,x4}*{x2,x3}"

    def test_farkas_height(self, capsys):
        code, doc = run_json(capsys, "farkas-height", "{x1,x2}*{x3,{x4,x5}}")
        assert code == 0
        assert doc["result"]["total"] == 99
        assert doc["result"]["per_variable"]["x5"] == 3

    def test_lie_test(self, capsys):
        code, doc = run_json(capsys, "lie-test", "u1*u2 - u2*u1")
        assert code == 0 and doc["result"] == {"lie": True}
        code, doc = run_json(capsys, "lie-test", "u1*u2")
        assert code == 0 and doc["result"] == {"lie": False}

    def test_jacobian_space(self, capsys):
        code, doc = run_json(capsys, "jacobian-space", "--n", "2")
        assert code == 0
        assert doc["result"] == {"dimension": 1, "basis": ["{x1,x2}"]}

    def test_height_human_output(self, capsys):
        code, out, _ = run(capsys, "height", "--var", "x4", "{{x1,{{x2,x3},x4}},{x5,x6}}")
        assert code == 0 and out.strip() == "3"

    def test_realize(self, capsys):
        code, out, _ = run(
            capsys,
            "realize", "--model", "gps", "--n", "2",
            "--assign", "t1=x1", "--assign", "t2=y1",
            "{t1,t2}",
        )
        assert code == 0 and out.strip() == "y2"

    def test_witness_found(self, capsys):
        code, doc = run_json(capsys, "witness", "--model", "gps", "--m", "4", "{t1,{t2,t3}}")
        assert code == 0
        assert doc["result"]["found"] is True
        assert doc["result"]["method"] == "structured"
        assert doc["result"]["value"] == "y3"

    def test_witness_not_found(self, capsys):
        j3 = "{{t1,t2},t3} + {{t2,t3},t1} + {{t3,t1},t2}"
        code, doc = run_json(capsys, "witness", "--model", "poisson", "--m", "2",
                             "--budget", "5", j3)
        assert code == 0 and doc["result"]["found"] is False


class TestConsoleScript:
    """`entry`, the `[project.scripts]` target, reads `sys.argv` and exits
    with `main`'s code."""

    @pytest.mark.parametrize("argv, code, out, err", [
        (["normalize", "{x2,x1}"], 0, "-{x1,x2}\n", ""),
        (["normalize", "{x1,x2"], 2, "", "1:7: unexpected end of input (expected })\n"),
        (["height", "--var", "x9", "{x1,x2}"], 1, "", "variable not present\n"),
    ])
    def test_entry(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setattr(sys, "argv", ["freegp", *argv])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code
        assert capsys.readouterr() == (out, err)


class TestClosedStdout:
    """A reader that closes the pipe early, as `| head -c 10` does, ends
    the command with exit 1 and nothing on stderr, never a traceback."""

    LONG_WORD = (
        "{t1,{t2,{t3,{t4,{t5,{t6,{t7,{t8,{t9,{t10,{t11,{t12,{t13,{t14,{t15,"
        "{t16,{t17,{t18,{t19,t20}}}}}}}}}}}}}}}}}}}"
    )

    @pytest.mark.parametrize("argv", [
        ["normalize", "{x2,x1}"],  # one short line, written by the flush at exit
        ["witness", "--model", "poisson", "--m", "12", LONG_WORD],  # 57 KB, in several writes
    ], ids=["flush", "write"])
    def test_closed_pipe_exit_1(self, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "freegp.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # before the interpreter has even started
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestJsonSchema:
    def test_field_names_and_seed(self, capsys):
        code, out, _ = run(capsys, "normalize", "x1", "--json", "--seed", "42")
        doc = json.loads(out)
        assert list(doc) == ["command", "status", "result", "meta"]
        assert doc == {
            "command": "normalize",
            "status": "ok",
            "result": "x1",
            "meta": {"seed": 42},
        }

    def test_null_seed(self, capsys):
        _, doc = run_json(capsys, "normalize", "x1")
        assert doc["meta"] == {"seed": None}

    @pytest.mark.parametrize("argv", [
        ("normalize", "{x2,x1} + x3"),
        ("witness", "--m", "4", J3_T),
    ])
    def test_global_flags_before_the_subcommand(self, capsys, argv):
        flags = ("--json", "--seed", "3")
        before = run(capsys, *flags, *argv)
        after = run(capsys, *argv, *flags)
        assert before == after
        assert json.loads(before[1])["meta"] == {"seed": 3}


class TestConsecutiveCalls:
    """No parse state leaks from one `main` call into the next."""

    def test_json_given_then_absent(self, capsys):
        _, doc = run_json(capsys, "normalize", "{x2,x1}")
        assert doc["result"] == "-{x1,x2}"
        code, out, _ = run(capsys, "normalize", "{x2,x1}")
        assert code == 0 and out == "-{x1,x2}\n"

    def test_seed_given_then_absent(self, capsys):
        _, doc = run_json(capsys, "--seed", "5", "normalize", "x1")
        assert doc["meta"] == {"seed": 5}
        _, doc = run_json(capsys, "normalize", "x1")
        assert doc["meta"] == {"seed": None}

    def test_usage_error_then_valid_command(self, capsys):
        code, doc = run_json(capsys, "--seed", "7", "normalize")
        assert code == 2 and doc["status"] == "error"
        code, out, err = run(capsys, "bracket", "x1", "x2")
        assert (code, out, err) == (0, "{x1,x2}\n", "")

    def test_human_then_json(self, capsys):
        argv = ("height", "--var", "x2", "{x1,x2}")
        assert run(capsys, *argv) == (0, "1\n", "")
        _, doc = run_json(capsys, *argv)
        assert doc["result"] == {"height": 1}
        assert run(capsys, *argv) == (0, "1\n", "")

    def test_assignments_do_not_accumulate(self, capsys):
        argv = ("realize", "--model", "poisson", "--n", "1", "--assign", "t1=x1", "--assign", "t2=y1", "{t1,t2}")
        assert run_json(capsys, *argv) == run_json(capsys, *argv) == (0, {
            "command": "realize", "status": "ok", "result": "1", "meta": {"seed": None},
        })


class TestLieWordBound:
    """`lie-test` counts, on the parsed expression, the coproduct splits
    of the words of its expansion: the sum over the words before
    cancellation of 2^(letters)."""

    @staticmethod
    def bracket(d: int) -> str:
        """{u1,{u2,...{u_{d-1},u_d}...}}: 2^(d-1) words of d letters."""
        e = f"u{d}"
        for i in range(d - 1, 0, -1):
            e = f"{{u{i},{e}}}"
        return e

    @pytest.mark.parametrize("expr, lie", [
        (bracket.__func__(9), True),
        ("*".join(f"u{i}" for i in range(1, 18)), False),
    ], ids=["bracket", "product"])
    def test_worst_input_at_the_bound_finishes(self, capsys, expr, lie):
        assert _lie_splits(parse(expr)) == MAX_LIE_SPLITS == 2**17
        start = time.perf_counter()
        code, doc = run_json(capsys, "lie-test", expr)
        assert code == 0 and doc["result"] == {"lie": lie}
        assert time.perf_counter() - start < 10  # about 0.6 and 0.8 s on a 2-vCPU VM

    @pytest.mark.parametrize("expr, splits", [
        (bracket.__func__(10), 2**19),
        ("{" * 200 + "u1" + ",u2}" * 200, 2**401),
    ], ids=["bracket", "nested-200"])
    def test_past_the_bound_exit_1_at_once(self, capsys, expr, splits):
        start = time.perf_counter()
        code, doc = run_json(capsys, "lie-test", expr)
        assert time.perf_counter() - start < 1
        assert code == 1 and doc["status"] == "error"
        assert doc["result"] == f"splits={splits} exceeds the bound 131072"

    def test_product_of_sums_exit_1_at_once(self, capsys):
        # 9 letters and 3^9 words: it took 44 s without a bound on the words
        start = time.perf_counter()
        code, doc = run_json(capsys, "lie-test", "*".join(["(u1+u2+u3)"] * 9))
        assert time.perf_counter() - start < 1
        assert code == 1 and doc["status"] == "error"
        assert doc["result"] == "splits=10077696 exceeds the bound 131072"

    def test_at_the_bound_is_admitted(self, capsys):
        at_bound = "*".join(["(u1+u2)"] * 8) + "*u3"
        assert run_json(capsys, "lie-test", at_bound)[0] == 0
        code, doc = run_json(capsys, "lie-test", at_bound + " + 1")
        assert code == 1 and doc["result"] == "splits=131073 exceeds the bound 131072"

    def test_a_zero_term_counts_like_any_other(self, capsys):
        # the fold still expands the group, 3^11 words, before it multiplies by 0
        expr = "0*(" + "*".join(["(u1+u2+u3)"] * 11) + ") + u1"
        code, doc = run_json(capsys, "lie-test", expr)
        assert code == 1 and doc["result"] == f"splits={6**11 + 2} exceeds the bound 131072"

    @pytest.mark.parametrize("expr, splits", [
        ("u1*u2*u3*u4*u5*u6*u7*u8*u9*u10 - u1", 1_026),
        ("{u1*u2*u3*u4*u5, (u6*u7 + 1)*u8*u9*u10}", 2_560),
        ("*".join(["(u1+u2)"] * 8) + " + u3", 65_538),
        ("{u1+u2,{u3,u4}}*(u5+1)*((u1+u2)*(u3+u4+u5))*(u6+u7)*(u8+u9)", 73_728),
        ("{" + "*".join(["(u1+u2)"] * 4) + "," + "*".join(["(u1+u2)"] * 4) + "}", 131_072),
    ], ids=["product", "bracket-of-products", "sum", "group", "bracket"])
    def test_counts_sums_products_and_brackets(self, capsys, expr, splits):
        assert _lie_splits(parse(expr)) == splits
        assert run_json(capsys, "lie-test", expr)[0] == 0

    @settings(max_examples=200, deadline=None)
    @given(expression_texts())
    def test_count_is_the_splits_of_the_expansion(self, text):
        expr = parse(text)
        assert _lie_splits(expr) == sum(2 ** len(w) for w in expanded_words(expr))

    @settings(max_examples=200, deadline=None)
    @given(expression_texts(max_leaves=30))
    @example(bracket.__func__(9))
    @example("*".join(["(u1+u2)"] * 8) + "*u3")
    @example("u1*u2*u3*u4*u5*u6*u7*u8*u9 + 3 + u1")
    def test_admits_every_text_of_degree_9_and_256_words(self, text):
        expr = parse(text)
        degree, words = expansion_degree(expr), expansion_size(expr)
        assert _lie_splits(expr) <= words * 2**degree
        if degree <= 9 and words <= 256:
            assert _lie_splits(expr) <= MAX_LIE_SPLITS


def left_normed_text(names) -> str:
    text = names[-1]
    for name in reversed(names[:-1]):
        text = f"{{{name},{text}}}"
    return text


def right_normed_text(names) -> str:
    text = names[0]
    for name in names[1:]:
        text = f"{{{text},{name}}}"
    return text


class TestVariableBounds:
    """`reduce` and `jacobian` count the variables of the parsed input."""

    def test_bounds(self):
        assert (MAX_REDUCE_VARIABLES, MAX_JACOBIAN_VARIABLES) == (7, 16)

    def test_slowest_reduce_at_the_bound_finishes(self, capsys):
        names = [f"x{i}" for i in range(2, MAX_REDUCE_VARIABLES + 1)] + ["x1"]
        start = time.perf_counter()
        code, doc = run_json(capsys, "reduce", right_normed_text(names))
        assert code == 0 and doc["status"] == "ok"
        assert time.perf_counter() - start < 10  # about 0.5 s on a 2-vCPU VM

    def test_slowest_jacobian_at_the_bound_finishes(self, capsys):
        names = [f"x{i}" for i in range(2, MAX_JACOBIAN_VARIABLES + 1)] + ["x1"]
        start = time.perf_counter()
        code, doc = run_json(capsys, "jacobian", left_normed_text(names))
        assert code == 0 and doc["result"] == {"jacobian": False}
        assert time.perf_counter() - start < 10  # about 0.7 s on a 2-vCPU VM

    @pytest.mark.parametrize("command, expr, count", [
        ("reduce", left_normed_text([f"x{i}" for i in range(1, 9)]), 8),
        ("reduce", "{x1,x2}*{x3,{x4,x5}}*{x6,{x7,x8}}*{x9,x10}*x11", 10),
        ("reduce", left_normed_text([f"x{i}" for i in range(1, 10)]), 9),
        ("jacobian", left_normed_text([f"x{i}" for i in range(1, 18)]), 17),
        ("jacobian", left_normed_text([f"x{i}" for i in range(1, 20)]), 19),
    ], ids=["reduce-8", "reduce-product-10", "reduce-9", "jacobian-17", "jacobian-19"])
    def test_past_the_bound_exit_1_at_once(self, capsys, command, expr, count):
        bound = MAX_REDUCE_VARIABLES if command == "reduce" else MAX_JACOBIAN_VARIABLES
        start = time.perf_counter()
        code, doc = run_json(capsys, command, expr)
        assert time.perf_counter() - start < 1
        assert code == 1 and doc["status"] == "error"
        assert doc["result"] == f"variables={count} exceeds the bound {bound}"

    def test_reduce_counts_after_stripping_bare_factors(self, capsys):
        text = right_normed_text([f"x{i}" for i in range(1, 8)]) + "*x8*x9"
        code, doc = run_json(capsys, "reduce", text)
        assert code == 0 and doc["status"] == "ok"


class TestJacobianTermBound:
    """`jacobian` counts, on the parsed element, the terms its derivation
    differences expand: per monomial, 2^h for each variable at height h
    in its factor."""

    WORD = left_normed_text([f"x{i}" for i in range(2, 17)] + ["x1"])

    def test_the_slowest_word_is_the_bound(self, capsys):
        # depths 1..15 and 15 in the left-normed 16-letter word
        assert MAX_JACOBIAN_TERMS == sum(2**h for h in range(1, 16)) + 2**15 == 98302
        start = time.perf_counter()
        code, doc = run_json(capsys, "jacobian", self.WORD)
        assert code == 0 and doc["result"] == {"jacobian": False}
        assert time.perf_counter() - start < 10  # about 0.7 s on a 2-vCPU VM

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_sums_of_the_slowest_word_exit_1_at_once(self, capsys, k):
        # each x_i innermost once: the parent expanded about k times one word
        names = [f"x{i}" for i in range(1, 17)]
        words = [left_normed_text(names[i + 1:] + names[:i + 1]) for i in range(k)]
        start = time.perf_counter()
        code, doc = run_json(capsys, "jacobian", " + ".join(words))
        assert time.perf_counter() - start < 1
        assert code == 1 and doc["status"] == "error"
        assert doc["result"] == f"terms={k * MAX_JACOBIAN_TERMS} exceeds the bound 98302"

    @pytest.mark.parametrize("expr, terms", [
        ("{x1,x2}*{x3,x4}", 8),
        ("{x1,x2}*x3*x4", 6),
        ("{x1,{x2,{x3,x4}}}", 2 + 4 + 8 + 8),
        ("{x1,{x2,x3}}*x4 - 2*{x2,{x1,x3}}*x4", 2 * (2 + 4 + 4 + 1)),
    ], ids=["two-pairs", "bare", "left-normed-4", "shared-factor"])
    def test_counts_each_monomial(self, expr, terms):
        assert _difference_size(to_gp(parse(expr))) == terms

    def test_counts_through_the_command(self, capsys):
        pairs = "*".join(f"{{x{i},x{i + 1}}}" for i in range(1, 17, 2))
        code, doc = run_json(capsys, "jacobian", f"{self.WORD} - 3*{pairs}")
        assert code == 1
        assert doc["result"] == f"terms={MAX_JACOBIAN_TERMS + 32} exceeds the bound 98302"

    def test_non_polylinear_input_keeps_its_error(self, capsys):
        code, doc = run_json(capsys, "jacobian", "{x1,x2}*x1")
        assert code == 1
        assert doc["result"] == "Jacobian test needs a polylinear input; linearize first"


class TestLinearizeBound:
    """`linearize` counts, on the parsed element, the terms its
    substitutions expand: per monomial the product of d^d over the
    degrees d of its variables, summed over the monomials."""

    def test_slowest_shape_at_the_bound_finishes(self, capsys):
        assert MAX_LINEARIZE_TERMS == 6**6
        names = ["x2", "x1", "x1", "x3", "x4", "x1", "x1", "x5", "x6", "x1", "x1", "x7"]
        start = time.perf_counter()
        code, doc = run_json(capsys, "linearize", right_normed_text(names))
        assert code == 0 and doc["status"] == "ok"
        assert time.perf_counter() - start < 10  # about 2 s on a 2-vCPU VM

    @pytest.mark.parametrize("expr, terms", [
        # x1 in every other leaf of 14: it took 22 s before this bound
        (left_normed_text([name for i in range(2, 9) for name in ("x1", f"x{i}")]), 7**7),
        ("*".join(["x1"] * 10), 10**10),
    ], ids=["degree-7-word", "product-10"])
    def test_past_the_bound_exit_1_at_once(self, capsys, expr, terms):
        start = time.perf_counter()
        code, doc = run_json(capsys, "linearize", expr)
        assert time.perf_counter() - start < 1
        assert code == 1 and doc["status"] == "error"
        assert doc["result"] == f"terms={terms} exceeds the bound 46656"

    @pytest.mark.parametrize("expr, terms", [
        ("x1*x1*x1*x1*x1*x1*x2 + x1*x1*x1*x1*x1*x1*x3", 2 * 6**6),
        ("*".join(f"{{x1,x{i}}}" for i in range(2, 8)) + "*x1", 7**7),
        (left_normed_text(["x1", "x2"] * 4), 4**4 * 4**4),
        (left_normed_text(["x1", "x2", "x3", "x4"] * 3), 27**4),
    ], ids=["sum", "across-factors", "two-variables", "four-variables"])
    def test_counts(self, capsys, expr, terms):
        code, doc = run_json(capsys, "linearize", expr)
        assert code == 1 and doc["result"] == f"terms={terms} exceeds the bound 46656"


class TestErrorPaths:
    def test_parse_error_exit_2(self, capsys):
        code, doc = run_json(capsys, "normalize", "{x1,x2")
        assert code == 2
        assert doc["status"] == "error"
        assert isinstance(doc["result"], str) and "expected" in doc["result"]

    def test_domain_error_exit_1(self, capsys):
        code, doc = run_json(capsys, "height", "--var", "x9", "{x1,x2}")
        assert code == 1
        assert doc["status"] == "error"
        assert doc["result"] == "variable not present"

    @pytest.mark.parametrize("argv", [
        ("normalize", "x01 - x1"),
        ("flip", "--var", "x01", "{x1,x2}"),
        ("realize", "--model", "poisson", "--n", "1", "--assign", "t01=x1", "t1"),
    ], ids=["expression", "var", "assign"])
    def test_leading_zero_in_an_index_exit_2(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert code == 2 and doc["status"] == "error"
        assert "leading zero" in doc["result"]

    def test_zero_and_inner_zeros_in_an_index_are_accepted(self, capsys):
        code, doc = run_json(capsys, "normalize", "x0 + x10 - x100 - x1")
        assert code == 0 and doc["result"] == "x0 - x1 + x10 - x100"

    @pytest.mark.parametrize("expr", ["\u0663*x1", "x\u00b2", "\u03b11", "x\u0661", "\u00b2"])
    def test_non_ascii_input_is_a_parse_error(self, capsys, expr):
        code, doc = run_json(capsys, "normalize", expr)
        assert code == 2 and doc["status"] == "error"
        assert doc["result"].startswith("1:1: ")

    def test_human_errors_go_to_stderr(self, capsys):
        code, out, err = run(capsys, "normalize", "{x1,x2")
        assert code == 2 and out == "" and err.strip()

    def test_non_jacobian_reduce_of_zero(self, capsys):
        code, doc = run_json(capsys, "reduce", "x1 - x1")
        assert code == 1 and doc["status"] == "error"

    @staticmethod
    def nested(opener: str, depth: int) -> str:
        if opener == "{":
            return "{" * depth + "x1" + ",x2}" * depth
        return "(" * depth + "x1" + ")" * depth

    @pytest.mark.parametrize("opener", ["{", "("])
    def test_nesting_at_the_bound(self, capsys, opener):
        code, doc = run_json(capsys, "normalize", self.nested(opener, MAX_DEPTH))
        assert MAX_DEPTH == 200
        assert code == 0 and doc["status"] == "ok"

    @pytest.mark.parametrize("opener", ["{", "("])
    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 600])
    def test_nesting_past_the_bound_exit_2(self, capsys, opener, depth):
        code, doc = run_json(capsys, "normalize", self.nested(opener, depth))
        assert code == 2 and doc["status"] == "error"
        assert "nesting deeper than 200" in doc["result"]

    def test_usage_error_with_json(self, capsys):
        code = main(["no-such-command", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        doc = json.loads(captured.out)
        assert doc["status"] == "error"

    @pytest.mark.parametrize("argv", [
        ("--seed", "3", "--json", "nosuch"),
        ("--json", "--seed", "3", "nosuch", "x1"),
        ("--seed=3", "--json", "nosuch"),
        ("nosuch", "--json", "--seed", "3"),
    ])
    def test_usage_error_names_the_command_not_a_flag_value(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["command"] == "nosuch"

    def test_value_options_match_the_parser(self):
        parser = build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        taking_values = {
            option
            for p in (parser, *commands.choices.values())
            for action in p._actions
            if action.nargs != 0
            for option in action.option_strings
        }
        assert taking_values == _VALUE_OPTIONS

    @pytest.mark.parametrize("argv", [
        ("witness", "--m", str(MAX_SIZE + 1), J3_T),
        ("witness", "--m", "2", "--budget", str(MAX_BUDGET + 1), J3_T),
        ("witness", "--m", "2000", "--budget", "100000", J3_T),
        ("realize", "--model", "gps", "--n", str(MAX_SIZE + 1), "--assign", "t1=x1", "t1"),
    ])
    def test_sizes_past_the_bounds_exit_1(self, capsys, argv):
        assert (MAX_SIZE, MAX_BUDGET) == (12, 1000)
        code, doc = run_json(capsys, *argv)
        assert code == 1 and doc["status"] == "error"
        assert "exceeds the bound" in doc["result"]

    def test_jacobian_space_past_the_bound_exit_1(self, capsys):
        assert MAX_JACOBIAN_N == 6
        code, doc = run_json(capsys, "jacobian-space", "--n", "7")
        assert code == 1 and doc["status"] == "error"
        assert doc["result"] == "n=7 exceeds the configured bound 6"

    DEEP_WORD = "{t1,{t2,{t3,{t4,{t5,t6}}}}}"

    def test_witness_attempt_past_the_bound_exit_1(self, capsys):
        assert MAX_WITNESS_TERM_PAIRS == 1_000_000
        code, doc = run_json(capsys, "witness", "--model", "gps", "--m", "12", "--budget", "1", self.DEEP_WORD)
        assert code == 1 and doc["status"] == "error"
        assert doc["result"] == "term pairs=90762150 exceeds the bound 1000000"
        code, doc = run_json(capsys, "witness", "--model", "gps", "--m", "4", "--budget", "1", "t1*t2*t3*t4*t5*t6")
        assert code == 1 and "term pairs=" in doc["result"]

    def test_witness_budget_past_the_bound_exit_1(self, capsys):
        # the bound counts every attempt of the budget, here 100 of 91,950
        # term pairs each, though J3, a Poisson identity, needs none
        start = time.perf_counter()
        code, doc = run_json(capsys, "witness", "--model", "poisson", "--m", "12", "--budget", "100", J3_T)
        assert time.perf_counter() - start < 1
        assert code == 1 and doc["status"] == "error"
        assert doc["result"] == "term pairs=9195000 exceeds the bound 1000000"
        code, doc = run_json(capsys, "witness", "--model", "poisson", "--m", "12", "--budget", "1", J3_T)
        assert code == 0 and doc["result"] == {"found": False, "attempts": 1}

    @pytest.mark.parametrize("m, attempts", [(2, 200), (5, 130), (12, 10)])
    def test_default_budget_is_what_the_bound_admits(self, capsys, m, attempts):
        # min(200, bound // attempt size); J3 is a Poisson identity, answered
        # by its normal form, and the result reports the budget, not the
        # attempts made
        assert DEFAULT_BUDGET == 200
        size = _attempt_size(to_gp(parse(J3_T)), Realization("poisson", m))
        assert attempts == min(DEFAULT_BUDGET, MAX_WITNESS_TERM_PAIRS // size)
        code, doc = run_json(capsys, "witness", "--model", "poisson", "--m", str(m), J3_T)
        assert code == 0 and doc["result"] == {"found": False, "attempts": attempts}

    def test_explicit_budget_is_checked_as_given(self, capsys):
        code, doc = run_json(capsys, "witness", "--model", "poisson", "--m", "5", "--budget", "200", J3_T)
        assert code == 1 and doc["status"] == "error"
        assert doc["result"] == "term pairs=1531200 exceeds the bound 1000000"

    def test_default_budget_refused_when_no_attempt_fits(self, capsys):
        # 200 attempts of 90,762,150 term pairs each, as an explicit
        # --budget 200 would be refused
        code, doc = run_json(capsys, "witness", "--model", "gps", "--m", "12", self.DEEP_WORD)
        assert code == 1 and doc["status"] == "error"
        assert doc["result"] == "term pairs=18152430000 exceeds the bound 1000000"

    def test_budget_zero_is_not_bounded_by_the_attempt(self, capsys):
        # no random attempt runs, and the structured one costs little
        code, doc = run_json(capsys, "witness", "--model", "gps", "--m", "12", "--budget", "0", self.DEEP_WORD)
        assert code == 0 and doc["result"] == {"found": False, "attempts": 0}

    @pytest.mark.parametrize("model", ["poisson", "gps"])
    def test_structured_witness_is_tried_before_the_bound(self, capsys, model):
        expr = "{t1,t2}*{t3,t4}*{t5,t6}*{t7,t8}"
        assert _attempt_size(to_gp(parse(expr)), Realization(model, 8)) > MAX_WITNESS_TERM_PAIRS
        code, doc = run_json(capsys, "witness", "--model", model, "--m", "8", expr)
        assert code == 0 and doc["result"]["method"] == "structured"

    @pytest.mark.parametrize("model, m, expr", [
        ("poisson", 2, J3_T),  # the witness shapes of the benchmark's queries
        ("gps", 4, "{t3,t1}*{t4,t2}"),
        ("gps", 12, J3_T),
        ("poisson", 12, "{t1,{t2,{t3,{t4,{t5,{t6,{t7,t8}}}}}}}"),
    ])
    def test_witness_attempts_within_the_bound(self, model, m, expr):
        assert _attempt_size(to_gp(parse(expr)), Realization(model, m)) <= MAX_WITNESS_TERM_PAIRS

    @pytest.mark.parametrize("model, expr", [("poisson", J3_T), ("gps", "{t1,t2}")], ids=["poisson", "gps"])
    def test_negative_witness_budget_exit_1(self, capsys, model, expr):
        code, doc = run_json(capsys, "witness", "--model", model, "--m", "2", "--budget", "-5", expr)
        assert code == 1 and doc["status"] == "error"
        assert "budget must be non-negative" in doc["result"]

    def test_repeated_assign_target_exit_2(self, capsys):
        code, doc = run_json(
            capsys, "realize", "--model", "poisson", "--n", "1",
            "--assign", "t1=x1", "--assign", "t1=y1", "--assign", "t2=y1", "{t1,t2}",
        )
        assert code == 2 and doc["status"] == "error"
        assert doc["result"] == "repeated assignment to t1"

    def test_sizes_at_the_bounds_are_accepted(self, capsys):
        code, doc = run_json(
            capsys, "realize", "--model", "gps", "--n", "12",
            "--assign", "t1=x12", "--assign", "t2=y12", "{t1,t2}",
        )
        assert code == 0 and doc["result"] == "y1"
        code, doc = run_json(capsys, "witness", "--m", "12", "--budget", "1000", J3_T)
        assert code == 0 and doc["result"]["method"] == "structured"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
class TestLongIntegers:
    """Exact integers past Python's 4,300-digit limit on int-string
    conversion print in full, and `main` leaves the limit as it was."""

    @staticmethod
    def balanced(names) -> str:
        if len(names) == 1:
            return names[0]
        mid = len(names) // 2
        return f"{{{TestLongIntegers.balanced(names[:mid])},{TestLongIntegers.balanced(names[mid:])}}}"

    def test_farkas_height_prints_the_exact_total(self, capsys):
        text = self.balanced([f"x{i}" for i in range(1, 10_001)])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            total = str(10_000 * 3**10_000)
        finally:
            sys.set_int_max_str_digits(limit)
        code, out, _ = run(capsys, "farkas-height", text, "--json")
        assert code == 0
        assert out.startswith(f'{{"command": "farkas-height", "status": "ok", "result": {{"total": {total}, ')
        code, out, _ = run(capsys, "farkas-height", text)
        assert code == 0 and out.startswith(f"total: {total}\n")
        assert sys.get_int_max_str_digits() == limit

    def test_linearize_names_the_bound(self, capsys):
        code, doc = run_json(capsys, "linearize", "*".join(["x1"] * 2000))
        assert code == 1 and doc["status"] == "error"
        assert doc["result"].startswith("terms=") and doc["result"].endswith(" exceeds the bound 46656")
        assert len(doc["result"]) == len("terms= exceeds the bound 46656") + 6603  # 2000^2000

    def test_long_literal_round_trips(self, capsys):
        literal = "1" + "0" * 5000
        assert run(capsys, "normalize", literal) == (0, literal + "\n", "")


class TestDeterminism:
    def test_byte_stable_outputs(self, capsys):
        first = run(capsys, "jacobian-space", "--n", "3", "--json")
        second = run(capsys, "jacobian-space", "--n", "3", "--json")
        assert first == second

    def test_witness_stable_under_seed(self, capsys):
        args = ("witness", "--model", "gps", "--m", "2", "--budget", "10",
                "--seed", "5", "{t1,{t2,{t3,t4}}}", "--json")
        assert run(capsys, *args) == run(capsys, *args)

    def test_byte_identical_across_hash_seeds(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        commands = [
            ["normalize", "{x3,{x2,x1}} + x2*{x4,x1} - x1*x2"],
            ["jacobian-space", "--n", "3"],
            ["witness", "--m", "4", J3_T],
            # J3 is answered by the Poisson normal form; the 4-letter word by
            # a random attempt through the realized bracket
            ["witness", "--model", "poisson", "--m", "12", "--budget", "1", "--json", J3_T],
            ["witness", "--model", "poisson", "--m", "4", "--budget", "1", "--json", "{t1,{t2,{t3,t4}}}"],
            # a realization
            ["realize", "--model", "gps", "--n", "2", *TestPinnedOutputs.ASSIGN, TestPinnedOutputs.REALIZE_EXPR],
            # both sort and hash variables of several letter classes
            ["reduce", "{y1,{x3,t2}}*{x10,{t1,y2}} - {{x10,y1},t2}*{x3,{t1,y2}}"],
            ["farkas-height", "{y2,x10}*{t3,{x2,y1}}"],
            # x3 and t2 are screened out of the Jacobian test, the rest not
            ["jacobian", "{t2,{x10,y1}}*{x3,{t1,y2}} - {t2,{x10,y2}}*{x3,{t1,y1}}"],
        ]
        outputs = set()
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "freegp.cli", *argv],
                    env=env, capture_output=True, check=True,
                ).stdout
                for argv in commands
            ]
            outputs.add(tuple(runs))
        assert len(outputs) == 1


class TestPinnedOutputs:
    """Exact `--json` bytes of realizations and witnesses: the printed
    results must not depend on the value type evaluation uses."""

    ASSIGN = ("--assign", "t1=x1*y2 + 2*x2", "--assign", "t2=y1*y1 - x2", "--assign", "t3=x1 + y2")
    REALIZE_EXPR = "{t1,t2}*t3 + {{t1,t3},t2}"

    @pytest.mark.parametrize("argv, expected", [
        (("realize", "--model", "poisson", "--n", "2", *ASSIGN, REALIZE_EXPR),
         '{"command": "realize", "status": "ok", "result": "2*x1*y1*y2 + 2*y1*y2^2 + x1^2 + x1*y2", "meta": {"seed": null}}'),
        (("realize", "--model", "gps", "--n", "2", *ASSIGN, REALIZE_EXPR),
         '{"command": "realize", "status": "ok", "result": "2*x1*y1*y2^2 + 2*y1*y2^3 + x1^2*y1 + x1*y1*y2", "meta": {"seed": null}}'),
        (("witness", "--model", "gps", "--m", "4", J3_T),
         '{"command": "witness", "status": "ok", "result": {"found": true, "method": "structured", "attempts": 0, "assignment": {"t1": "x2", "t2": "x1", "t3": "y1"}, "value": "-y3"}, "meta": {"seed": null}}'),
        (("witness", "--model", "gps", "--m", "2", "--seed", "5", "{t1,{t2,{t3,t4}}}"),
         '{"command": "witness", "status": "ok", "result": {"found": true, "method": "random", "attempts": 1, "assignment": {"t1": "x1^2 - x1*y1 - 2*x1*x2 - x1*y2 - 2*y1^2 + y1*y2 - x2^2 + x2*y2 + 2*y2^2 + 2*x2 - 2*y2 + 2", "t2": "x1^2 - x1*x2 + x1*y2 - y1^2 - 2*y1*x2 - y1*y2 + 2*x2^2 + 2*x2*y2 + y2^2 + 2*x1 - y1 - 2*x2 - y2 - 2", "t3": "-x1^2 - x1*y1 - x1*x2 - y1*x2 + 2*y1*y2 - x2^2 - x2*y2 - y2^2 - x1 - 2*y1 - 2*x2 - y2 - 1", "t4": "-x1^2 - x1*y1 - 2*x1*y2 + 2*y1*y2 + 2*x2^2 - 2*x2*y2 + 2*y2^2 - 2*y1 + y2 + 1"}, "value": "-8*x1^4*y1 - 9*x1^3*y1^2 - 28*x1^3*y1*x2 + 6*x1^3*y1*y2 + 2*x1^3*x2*y2 + 22*x1^3*y2^2 - 42*x1^2*y1^3 + 61*x1^2*y1^2*x2 + 155*x1^2*y1^2*y2 - 40*x1^2*y1*x2^2 - 111*x1^2*y1*x2*y2 + 147*x1^2*y1*y2^2 - 10*x1^2*x2^2*y2 - 71*x1^2*x2*y2^2 - 57*x1^2*y2^3 - 31*x1*y1^4 + 85*x1*y1^3*x2 + 262*x1*y1^3*y2 + 88*x1*y1^2*x2^2 + 77*x1*y1^2*x2*y2 + 270*x1*y1^2*y2^2 - 4*x1*y1*x2^3 - 98*x1*y1*x2^2*y2 - 84*x1*y1*x2*y2^2 - 302*x1*y1*y2^3 + 8*x1*x2^3*y2 + 94*x1*x2^2*y2^2 + 110*x1*x2*y2^3 + 48*x1*y2^4 - 30*y1^5 - 52*y1^4*x2 + 101*y1^4*y2 + 196*y1^3*x2^2 + 386*y1^3*x2*y2 - 35*y1^3*y2^2 - 196*y1^2*x2^2*y2 - 497*y1^2*x2*y2^2 - 113*y1^2*y2^3 + 16*y1*x2^4 + 132*y1*x2^3*y2 + 448*y1*x2^2*y2^2 + 464*y1*x2*y2^3 + 12*y1*y2^4 - 58*x2^2*y2^3 - 74*x2*y2^4 - 4*y2^5 - 12*x1^3*y1 - 2*x1^3*y2 + 10*x1^2*y1^2 - 42*x1^2*y1*x2 + 186*x1^2*y1*y2 + 10*x1^2*x2*y2 + 27*x1^2*y2^2 - 138*x1*y1^3 + 10*x1*y1^2*x2 + 159*x1*y1^2*y2 - 42*x1*y1*x2^2 - 108*x1*y1*x2*y2 + 82*x1*y1*y2^2 + 8*x1*x2^2*y2 - 89*x1*x2*y2^2 - 188*x1*y2^3 + 196*y1^4 - 276*y1^3*x2 - 175*y1^3*y2 + 84*y1^2*x2^2 + 264*y1^2*x2*y2 + 121*y1^2*y2^2 - 36*y1*x2^3 + 66*y1*x2^2*y2 + 290*y1*x2*y2^2 - 282*y1*y2^3 - 16*x2^3*y2 + 92*x2^2*y2^2 + 171*x2*y2^3 + 94*y2^4 + 16*x1^2*y1 - 8*x1^2*y2 - 8*x1*y1^2 + 10*x1*y1*x2 + 154*x1*y1*y2 + 16*x1*x2*y2 + 32*x1*y2^2 - 54*y1^3 - 98*y1^2*x2 - 465*y1^2*y2 - 8*y1*x2^2 + 96*y1*x2*y2 - 287*y1*y2^2 - 8*x2^2*y2 - 30*x2*y2^2 - 15*y2^3 + 12*x1*y1 - 8*x1*y2 + 34*y1^2 + 36*y1*x2 - 64*y1*y2 + 8*x2*y2 + 4*y2^2 - 8*y1"}, "meta": {"seed": 5}}'),
    ], ids=["realize-poisson", "realize-gps", "witness-structured", "witness-random"])
    def test_json_bytes(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and out == expected + "\n"

    def test_json_digest_of_a_random_attempt_at_m8(self, capsys):
        # 16 variables, and a value of degree 5 with 18,570 terms: the
        # SHA-256 of the 345,170 bytes
        argv = ("witness", "--model", "gps", "--m", "8", "--seed", "1", "--budget", "1", "{t1,{t2,{t3,t4}}}", "--json")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith('{"command": "witness", "status": "ok", "result": {"found": true, "method": "random", "attempts": 1,')
        assert hashlib.sha256(out.encode()).hexdigest() == "be534e381f2cb17060de87a4e61cb5a206a375c76051fa896d150e91b75ecf8a"


README = Path(__file__).resolve().parents[1] / "README.md"
LITERAL_OUTPUT = {"normalize", "bracket", "flip", "height", "realize"}


def test_readme_examples(capsys):
    """Every `freegp` line of README's command block exits 0; where the
    comment is the literal output, the output matches it."""
    text = README.read_text()
    start = text.index("```sh\nfreegp ")
    block = text[start : text.index("```\n", start + 1)]
    lines = [line for line in block.splitlines() if line.startswith("freegp ")]
    assert lines
    for line in lines:
        command, _, comment = line.partition("  #")
        argv = shlex.split(command)[1:]
        code, out, _ = run(capsys, *argv)
        assert code == 0, line
        if argv[0] in LITERAL_OUTPUT:
            assert out.strip() == comment.strip(), line
