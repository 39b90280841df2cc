"""Tests of the benchmark's output checks: each accepts the program's outputs
today and rejects a deliberately corrupted one.

    python3 -m pytest benchmark/test_oracles.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads  # noqa: E402

cli = workloads.load_program()


def _report(op) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(op.argv()) == 0
    return json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def betti_case():
    op = workloads.BettiOp(3, 9, Fraction(19, 4))
    return op, _report(op)


def _vortex_case(tmp_path_factory, op_args: tuple):
    dump = str(tmp_path_factory.mktemp("dump") / "fields.bin")
    op = workloads.VortexOp(*op_args, dump)
    report = _report(op)
    header, fields = oracles.read_dump(dump)
    return op, report, header, fields


@pytest.fixture(scope="module")
def abelian_case(tmp_path_factory):
    # (N, r1, start, tol, max_iter, must_converge) of the small abelian class.
    return _vortex_case(tmp_path_factory, (16, 1, 7, 1e-13, 10000, True))


@pytest.fixture(scope="module")
def plateau_case(tmp_path_factory):
    # The small rank-2 class, stopped early on the 0.375 plateau.
    return _vortex_case(tmp_path_factory, (8, 2, 3, 1e-12, 60, False))


@pytest.mark.parametrize("g, k", [(2, 5), (4, 13)])
def test_betti_accepts_ladder_outputs(g, k):
    op = workloads.BettiOp(g, k, Fraction(2 * k + 1, 4))
    assert oracles.check_betti(_report(op), g, k, op.tau_bar) == []


def test_betti_rejects_changed_stratum_coefficient(betti_case):
    op, report = betti_case
    bad = copy.deepcopy(report)
    bad["strata"][0]["poly"][1][1] += 1
    problems = oracles.check_betti(bad, op.g, op.k, op.tau_bar)
    assert any("t^index S(n1, g) S(n2, g)" in p for p in problems)


def test_betti_rejects_non_palindromic_n0(betti_case):
    op, report = betti_case
    bad = copy.deepcopy(report)
    coeffs = {e: c for e, c in bad["n0_poly"]}
    # Move one unit from t^2 to t^4: degree, constant term and Euler
    # characteristic stay, only the symmetry breaks.
    coeffs[2] -= 1
    coeffs[4] += 1
    bad["n0_poly"] = sorted([e, c] for e, c in coeffs.items())
    problems = oracles.check_betti(bad, op.g, op.k, op.tau_bar)
    assert any("palindromic" in p for p in problems)


def test_sym_product_matches_euler_closed_form():
    for g in range(1, 5):
        for n in range(0, 9):
            chi = sum(c if e % 2 == 0 else -c for e, c in oracles.sym_product(n, g).items())
            assert chi == (-1) ** n * math.comb(2 * g - 2, n)


@pytest.mark.parametrize("case", ["abelian_case", "plateau_case"])
def test_vortex_accepts_solver_outputs(case, request):
    op, report, header, fields = request.getfixturevalue(case)
    assert oracles.check_vortex(report, header, fields) == []
    assert report["converged"] == op.must_converge


def test_vortex_rejects_under_reported_residual(plateau_case):
    # Scaled consistently, so only the dumped fields can expose it.  Near a
    # solution the trace bound is loose (gap about 1e-11 against 5e-7 at
    # N = 16), so the rank-2 plateau state is the case it must catch.
    _, report, header, fields = plateau_case
    bad = copy.deepcopy(report)
    bad["residual"] *= 1e-6
    for part in ("eq1", "eq2", "holomorphicity", "intertwining"):
        bad["breakdown"][part] *= 1e-6
    problems = oracles.check_vortex(bad, header, fields)
    assert any("moment-map trace gap" in p for p in problems)


def test_vortex_rejects_non_antihermitian_connection(abelian_case):
    _, report, header, fields = abelian_case
    bad = dict(fields)
    bad["A1"] = fields["A1"] + 1e-6
    assert any("anti-Hermitian" in p for p in oracles.check_vortex(report, header, bad))
