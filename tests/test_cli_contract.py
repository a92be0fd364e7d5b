"""The command-line contract under generated input.

Every subcommand, given any text, ends within a wall-clock cap with
exit 0, 1 or 2, exactly one JSON document on stdout under `--json`, and
no traceback on stderr.  The grammar builds the shapes that found each
unbounded path so far: deep nesting, wide sums, repeated factors and
powers of sums, in expressions and in realization assignments.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from freegp.cli import COMMANDS, MAX_BUDGET, MAX_JACOBIAN_N, MAX_SIZE
from freegp.parsing import MAX_DEPTH

CAP_SECONDS = 20
# Characters of one generated operand, below the 128 KiB that Linux
# allows one argument.
MAX_TEXT = 100_000
SRC = str(Path(__file__).resolve().parents[1] / "src")

LETTERS = ["x1", "x2", "x3", "t1", "t2", "t3", "t4", "u1"]


def _repeated(factor: str, times: int) -> str:
    """`times` factors (factor), as many as fit in MAX_TEXT characters."""
    return "*".join([f"({factor})"] * min(times, MAX_TEXT // (len(factor) + 3)))


def _combinations(inner):
    return st.one_of(
        st.tuples(inner, inner).map(lambda p: f"{{{p[0]},{p[1]}}}"),
        st.lists(inner, min_size=2, max_size=3).map("*".join),
        st.lists(inner, min_size=2, max_size=3).map(" + ".join),
        st.tuples(inner, st.integers(2, 12)).map(lambda p: _repeated(*p)),
    )


def _expressions(leaves):
    small = st.recursive(leaves, _combinations, max_leaves=8)
    return st.one_of(
        small,
        # deep nesting: {...{{a,b},b}...,b}
        st.tuples(st.integers(1, MAX_DEPTH), leaves, leaves).map(
            lambda p: "{" * p[0] + p[1] + "".join(f",{p[2]}}}" for _ in range(p[0]))
        ),
        # wide sums of distinct letters
        st.tuples(st.sampled_from("xtu"), st.integers(2, 3000)).map(
            lambda p: " + ".join(f"{p[0]}{i}" for i in range(1, p[1] + 1))
        ),
        # repeated factors
        st.tuples(small, st.integers(2, 5000)).map(lambda p: _repeated(*p)),
        # powers of sums
        st.tuples(st.lists(leaves, min_size=2, max_size=6), st.integers(2, 30)).map(
            lambda p: _repeated(" + ".join(p[0]), p[1])
        ),
    )


EXPRESSIONS = _expressions(st.sampled_from(LETTERS))


@st.composite
def _assignments(draw, n: int) -> list[str]:
    names = [f"{c}{i}" for i in range(1, n + 1) for c in "xy"]
    polys = _expressions(st.sampled_from(names))
    out = []
    for t in draw(st.lists(st.sampled_from(["t1", "t2", "t3", "t4"]), unique=True)):
        out += ["--assign", f"{t}={draw(polys)}"]
    return out


@st.composite
def command_lines(draw, command: str) -> list[str]:
    """`command`, its options, then `--` and its operands."""
    options: list[str] = []
    operands = [draw(EXPRESSIONS)]
    if command in ("bracket", "mul"):
        operands.append(draw(EXPRESSIONS))
    elif command == "jacobian-space":
        options, operands = ["--n", str(draw(st.integers(0, MAX_JACOBIAN_N + 1)))], []
    elif command in ("flip", "height"):
        options = ["--var", draw(st.sampled_from(LETTERS))]
    elif command == "realize":
        n = draw(st.integers(1, MAX_SIZE))
        options = ["--model", draw(st.sampled_from(["poisson", "gps"])), "--n", str(n)]
        options += draw(_assignments(n))
    elif command == "witness":
        m = draw(st.integers(1, MAX_SIZE))
        options = ["--model", draw(st.sampled_from(["poisson", "gps"])), "--m", str(m)]
        budget = draw(st.none() | st.integers(0, MAX_BUDGET))
        if budget is not None:
            options += ["--budget", str(budget)]
    return [command, *options, "--", *operands]


def _dense(n: int) -> str:
    return "(" + "+".join(f"{c}{i}" for i in range(1, n + 1) for c in "xy") + ")"


# Two inputs without a work bound at the parent: 26 s, and 20-45 s with
# 50 MB of output; with the meter both are refused
FACTORS_15000 = ["normalize", "--", "*".join(["(x1+x1)"] * 15000)]
DENSE_THREE_LEVELS = [
    "realize", "--model", "gps", "--n", "12",
    *(a for i, v in enumerate(["x1", "y2", "x3", "y4"], 1) for a in ("--assign", f"t{i}={_dense(12)}*{_dense(12)}*{v}")),
    "--", "{t1,{t2,{t3,t4}}}",
]


def keeps_the_contract(argv: list[str]) -> dict:
    """The JSON document of `freegp --json ARGV`, run in a subprocess
    under the cap, after checking its exit code and its streams."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "freegp.cli", "--json", *argv],
        env=env, capture_output=True, text=True, timeout=CAP_SECONDS,
    )
    assert proc.returncode in (0, 1, 2), proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, f"{len(lines)} lines on stdout"
    doc = json.loads(lines[0])
    assert list(doc) == ["command", "status", "result", "meta"]
    assert doc["status"] == ("ok" if proc.returncode == 0 else "error")
    return doc


@pytest.mark.parametrize("command", COMMANDS)
@settings(
    max_examples=3,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_command_keeps_the_contract(command, data):
    keeps_the_contract(data.draw(command_lines(command)))


@pytest.mark.parametrize("argv", [FACTORS_15000, DENSE_THREE_LEVELS], ids=["factors-15000", "dense-three-levels"])
def test_unbounded_paths_found_by_hand_keep_the_contract(argv):
    doc = keeps_the_contract(argv)
    assert doc["status"] == "error" and doc["result"].startswith("work=")
