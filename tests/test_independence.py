"""Each oracle stays independent of the closed form it checks.

One call of a route and one of its oracle are traced with ``sys.setprofile``,
keeping only frames of the package's own code, and the functions that both
reach must lie within the table below.  Comprehension frames are ignored:
Python 3.12 inlines them into their function (PEP 709), so they are not in
every trace.  A function is named ``module.name``.

No oracle and no conjugacy normalization may reach the reader of the
Britton record (``words._record``), so a wrong record cannot sit on both
sides of a check.
"""

import os
import sys

import pytest

import bsscale
from bsscale.cosets import (
    default_scan_bound,
    index_bruteforce,
    orbit_order_bruteforce,
    step_bruteforce,
)
from bsscale.graph import step, trace
from bsscale.invariants import moller_stabilization, orbit_order, scale
from bsscale.normal_forms import bs1n_matrix, bs1n_normal_form, element_normal_form
from bsscale.params import GroupParams
from bsscale.words import (
    britton_reduce,
    conjugacy_normalize,
    conjugacy_normalize_with_certificate,
    equal_elements,
    parse_word,
)

PACKAGE = os.path.dirname(bsscale.__file__) + os.sep
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}
RECORD_READER = "words._record"

# a divisor group, a non-divisor group, a discrete group and an |m| = 1 group
GROUPS = [GroupParams(2, 3), GroupParams(2, 4), GroupParams(2, -2), GroupParams(1, 3)]
TEXTS = ["t a T a^3 t", "a^5 t a T^2 a", "T a^2 t a t^2 A", "a^4 T a^-6 t"]

# What every route may share with its oracle: the syllable reads, the
# syllable reduction (which the BS(1, n) matrix image checks on its own) and
# the constants of GroupParams.
BASE = {
    "words._read_syllables",
    "words.reduce_syllables",
    "params.l_over_m",
    "params.l_over_n",
    "params.discrete",
}


def _steps(fn):
    """fn at the root and at a node one level out, both ways."""

    def call(p, w, r):
        for x in (1, NODES[p.m, p.n]):
            for eps in (1, -1):
                fn(p, x, eps)

    return call


NODES = {(p.m, p.n): step(p, 1, 1) for p in GROUPS}

# (route, oracle, what the two may share beyond BASE, only for |m| = 1);
# each takes (p, w, r): a parsed word and its Britton reduction
PAIRS = [
    ("step", _steps(step), _steps(step_bruteforce), set(), False),
    ("orbit_order", lambda p, w, r: orbit_order(p, w),
     lambda p, w, r: orbit_order_bruteforce(p, w), set(), False),
    ("trace", lambda p, w, r: trace(p, r), lambda p, w, r: index_bruteforce(p, r, 1),
     set(), False),
    ("moller_stabilization", lambda p, w, r: moller_stabilization(p, w, 2),
     lambda p, w, r: [index_bruteforce(p, w, k) for k in (1, 2)], set(), False),
    # moller takes its target ratio from _scale_at, the value it checks;
    # __init__ is ScaleValue's
    ("scale", lambda p, w, r: scale(p, w), lambda p, w, r: moller_stabilization(p, w, 2),
     {"invariants._scale_at", "invariants.__init__"}, False),
    ("element_normal_form", lambda p, w, r: element_normal_form(p, w),
     lambda p, w, r: bs1n_normal_form(p, w), set(), True),
    ("equal_elements", lambda p, w, r: equal_elements(p, w, r),
     lambda p, w, r: bs1n_matrix(p, w) == bs1n_matrix(p, r), set(), True),
]

# every oracle, and conjugacy normalization
ORACLES = [
    lambda p, w, r: orbit_order_bruteforce(p, w),
    lambda p, w, r: index_bruteforce(p, r, 1),
    lambda p, w, r: index_bruteforce(p, w, 2),
    lambda p, w, r: default_scan_bound(p, w),
    _steps(step_bruteforce),
    lambda p, w, r: conjugacy_normalize(p, w),
    lambda p, w, r: conjugacy_normalize_with_certificate(p, r),
]
BS1N_ORACLES = [
    lambda p, w, r: bs1n_matrix(p, w),
    lambda p, w, r: bs1n_normal_form(p, r),
]


def reached(call) -> set[str]:
    """The functions of the package that call() enters, as module.name."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(PACKAGE)
                and code.co_name not in COMPREHENSIONS):
            seen.add(frame.f_globals["__name__"].rpartition(".")[2] + "." + code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return seen


def _cases(p):
    """(w, r) for each text: parsed with no record and r = britton_reduce(p, w)
    parsed again, and then as the reduction left them, both recorded."""
    for text in TEXTS:
        w = parse_word(text)
        r = britton_reduce(p, w)
        yield parse_word(text), parse_word(str(r))
        yield w, r


def _group_id(p):
    return f"BS({p.m},{p.n})"


@pytest.mark.parametrize(
    "p, route, oracle, allowed",
    [
        pytest.param(p, route, oracle, allowed, id=f"{name}-{_group_id(p)}")
        for name, route, oracle, allowed, unit_m in PAIRS
        for p in GROUPS
        if abs(p.m) == 1 or not unit_m
    ],
)
def test_route_and_oracle_share_only_the_table(p, route, oracle, allowed):
    from_route, from_oracle = set(), set()
    for w, r in _cases(p):
        from_route |= reached(lambda: route(p, w, r))
        from_oracle |= reached(lambda: oracle(p, w, r))
    assert from_route and from_oracle
    assert from_route & from_oracle <= BASE | allowed


@pytest.mark.parametrize("p", GROUPS, ids=_group_id)
def test_no_oracle_reads_the_record(p):
    oracles = ORACLES + (BS1N_ORACLES if abs(p.m) == 1 else [])
    for w, r in _cases(p):
        for oracle in oracles:
            assert RECORD_READER not in reached(lambda: oracle(p, w, r))
    # the tracer sees the record reader where a closed form reads it
    assert RECORD_READER in reached(lambda: orbit_order(p, w))
