"""The recursive kernel helpers leave no reference cycles behind: each
call's memo is freed by reference counting when the call returns, not
at the next run of the cyclic garbage collector."""

import gc

import pytest

from freegp.identities import jacobian_space
from freegp.realize import Realization, _attempt_size, identity_witness_search

from helpers import J3_T_TEXT, gp


@pytest.fixture
def collector_off():
    """Collect what earlier tests left, then keep the collector off, so
    `gc.collect()` afterwards counts only the cycles the test made."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_jacobian_space_leaves_no_cycles(collector_off):
    assert jacobian_space(5) == []
    assert gc.collect() == 0


@pytest.mark.parametrize("text", [J3_T_TEXT, "{t1,{t2,t3}}"])
def test_witness_search_leaves_no_cycles(collector_off, text):
    assert identity_witness_search(gp(text), Realization("gps", 3), budget=5, seed=1) is not None
    assert gc.collect() == 0


def test_attempt_size_leaves_no_cycles(collector_off):
    assert _attempt_size(gp("{t1,{t2,t3}}*{t1,t4} + t2*{{t1,t3},t4}"), Realization("gps", 3)) > 0
    assert gc.collect() == 0
