"""Parameter validation and split-model stability verdicts."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgspairs.cli import main
from higgspairs.stability import (
    InvalidParamsError,
    SplitHiggsPairModel,
    StabilityVerdict,
    Witness,
    check_higgs_stability,
    invariant_subbundles,
    is_tau_stable_split,
    require_valid,
    validate_params,
)


@dataclass(frozen=True)
class Params:
    g: int
    k: int
    tau_bar: Fraction


# -- parameter validation ------------------------------------------------


def test_valid_params_have_no_violations():
    assert validate_params(Params(2, 5, Fraction(11, 4))) == []
    assert validate_params(Params(3, 9, Fraction(19, 4))) == []
    require_valid(Params(2, 7, Fraction(15, 4)))  # should not raise


def test_each_constraint_is_reported():
    assert any("g >= 2" in v for v in validate_params(Params(1, 5, Fraction(11, 4))))
    assert any("odd" in v for v in validate_params(Params(2, 6, Fraction(13, 4))))
    assert any(
        "strictly between" in v
        for v in validate_params(Params(2, 5, Fraction(9, 4)))
    )
    assert any(
        "4g - 4" in v for v in validate_params(Params(3, 7, Fraction(15, 4)))
    )


def test_integer_tau_bar_reports_two_violations():
    # an integer tau_bar in (k/2, (k+1)/2) cannot exist for odd k, so the
    # window violation and the integrality violation fire together
    violations = validate_params(Params(2, 5, Fraction(3)))
    assert len(violations) == 2


def test_non_rational_tau_bar_rejected():
    violations = validate_params(Params(2, 5, 2.75))
    assert violations and "exact rational" in violations[0]


def test_non_integer_g_or_k_short_circuits():
    assert validate_params(Params("2", 5, Fraction(11, 4))) == [
        "g must be an integer, got '2'"
    ]
    assert len(validate_params(Params(2, 5.0, Fraction(11, 4)))) == 1


def test_require_valid_raises_with_joined_message():
    with pytest.raises(InvalidParamsError) as err:
        require_valid(Params(1, 6, Fraction(13, 4)))
    assert "g >= 2" in str(err.value) and "odd" in str(err.value)


def params_valid_oracle(g: int, k: int, n: int, d: int) -> bool:
    """The five constraints on (g, k, tau_bar = n/d), d > 0, in integer arithmetic.

    g at least 2; k odd; k < 2n/d < k + 1; n/d not an integer; k at least 4g - 3.
    """
    return (
        g >= 2
        and k % 2 == 1
        and k * d < 2 * n < (k + 1) * d
        and n % d != 0
        and k >= 4 * g - 3
    )


@st.composite
def moduli_inputs(draw):
    """(g, k, n, d), tau_bar = n/d, with g in [0, 6] and k in [-5, 40].

    Half the draws take g >= 2, odd k >= 4g - 3 and tau_bar = k/2 + j/(2m)
    with 0 < j <= m, so valid inputs and the window's upper edge both occur;
    the other half draw g, k and n/d anywhere near the window.
    """
    if draw(st.booleans()):
        g = draw(st.integers(0, 6))
        k = draw(st.integers(-5, 40))
        d = draw(st.integers(1, 12))
        n = draw(st.integers(k * d // 2 - 2 * d, (k + 1) * d // 2 + 2 * d))
        return g, k, n, d
    g = draw(st.integers(2, 6))
    k = 4 * g - 3 + 2 * draw(st.integers(0, (43 - 4 * g) // 2))
    m = draw(st.integers(1, 6))
    j = draw(st.integers(1, m))
    return g, k, k * m + j, 2 * m


@settings(max_examples=300, deadline=None)
@given(moduli_inputs())
def test_validate_params_matches_constraint_oracle(inputs):
    g, k, n, d = inputs
    got = validate_params(Params(g, k, Fraction(n, d)))
    assert (got == []) == params_valid_oracle(g, k, n, d), got


@settings(max_examples=60, deadline=None)
@given(moduli_inputs())
def test_betti_cli_exits_cleanly_on_drawn_params(inputs):
    g, k, n, d = inputs
    out, err = io.StringIO(), io.StringIO()
    argv = ["betti", f"--genus={g}", f"--degree={k}", f"--tau-bar={n}/{d}"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if params_valid_oracle(g, k, n, d):
        assert code == 0, err.getvalue()
        assert json.loads(out.getvalue())["params"]["genus"] == g
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] == "InvalidParamsError"


# -- split model construction --------------------------------------------


@pytest.mark.parametrize(
    "key, value",
    [("g", 2.5), ("g", True), ("k", 5.5), ("k", "5"), ("dL", False), ("dL", None),
     ("psi_nonzero", "false"), ("psi_nonzero", 1), ("theta_zero", 0)],
)
def test_model_rejects_mistyped_fields(key, value):
    base = dict(g=2, k=5, dL=3, psi_nonzero=True, theta_zero=False, s_placement="in_Lc")
    with pytest.raises(ValueError, match=f"^{key} must be"):
        SplitHiggsPairModel(**{**base, key: value})


def test_model_rejects_contradictions():
    base = dict(g=2, k=5, dL=3, psi_nonzero=True, theta_zero=False, s_placement="in_Lc")
    SplitHiggsPairModel(**base)  # sanity: valid
    with pytest.raises(ValueError):
        SplitHiggsPairModel(**{**base, "theta_zero": True})  # psi inside theta
    with pytest.raises(ValueError):
        SplitHiggsPairModel(**{**base, "s_placement": "in_L"})  # psi kills L-section
    with pytest.raises(ValueError):
        SplitHiggsPairModel(**{**base, "s_placement": "on_top"})
    with pytest.raises(ValueError):
        SplitHiggsPairModel(**{**base, "g": -1})
    with pytest.raises(ValueError):
        SplitHiggsPairModel(**{**base, "dL": 6})  # deg psi < 0
    with pytest.raises(ValueError):
        # section in L needs dL >= 0
        SplitHiggsPairModel(
            g=2, k=5, dL=-1, psi_nonzero=False, theta_zero=True, s_placement="in_L"
        )
    with pytest.raises(ValueError):
        # section in Lc needs k - dL >= 0
        SplitHiggsPairModel(
            g=2, k=5, dL=6, psi_nonzero=False, theta_zero=True, s_placement="in_Lc"
        )


def test_invariant_subbundles_follow_psi():
    with_psi = SplitHiggsPairModel(
        g=2, k=5, dL=3, psi_nonzero=True, theta_zero=False, s_placement="in_Lc"
    )
    assert invariant_subbundles(with_psi) == [("Lc", Fraction(2))]
    without = SplitHiggsPairModel(
        g=2, k=5, dL=3, psi_nonzero=False, theta_zero=True, s_placement="in_Lc"
    )
    assert invariant_subbundles(without) == [("L", Fraction(3)), ("Lc", Fraction(2))]


# -- stability verdicts ---------------------------------------------------


def fixed_point_style(g, k, dL):
    return SplitHiggsPairModel(
        g=g, k=k, dL=dL, psi_nonzero=True, theta_zero=False, s_placement="in_Lc"
    )


def test_stable_fixed_point_model():
    verdict = is_tau_stable_split(fixed_point_style(2, 5, 3), Fraction(11, 4))
    assert verdict.stable and verdict.witness is None


def test_unstable_below_range_with_quotient_witness():
    verdict = is_tau_stable_split(fixed_point_style(2, 5, 2), Fraction(11, 4))
    assert not verdict.stable
    w = verdict.witness
    assert (w.subbundle, w.condition, w.slope, w.bound) == (
        "Lc", 2, Fraction(2), Fraction(11, 4),
    )
    assert w.describe() == (
        "condition (2) fails for F = Lc: slope(E/F) = 2 is not > 11/4"
    )


def test_unstable_by_subbundle_slope_condition():
    # without psi, L itself is invariant; a large dL violates condition (1)
    model = SplitHiggsPairModel(
        g=2, k=5, dL=4, psi_nonzero=False, theta_zero=True, s_placement="in_Lc"
    )
    verdict = is_tau_stable_split(model, Fraction(11, 4))
    assert not verdict.stable
    w = verdict.witness
    assert w.condition == 1 and w.subbundle == "L" and w.slope == Fraction(4)
    assert "is not <" in w.describe()


def test_condition_two_is_checked_first():
    # dL = 1 without psi fails (1) for Lc (slope 4 > tau) and (2) for L
    # (quotient slope 4 > tau holds, so (2) fails only for... pick dL where
    # both fail): dL = 0, Lc slope 5 fails (1); quotient of Lc = 0 fails (2).
    model = SplitHiggsPairModel(
        g=2, k=5, dL=0, psi_nonzero=False, theta_zero=True, s_placement="in_Lc"
    )
    verdict = is_tau_stable_split(model, Fraction(11, 4))
    assert not verdict.stable and verdict.witness.condition == 2


def test_zero_section_placement_gets_advisory():
    model = SplitHiggsPairModel(
        g=2, k=5, dL=2, psi_nonzero=False, theta_zero=True, s_placement="zero"
    )
    verdict = is_tau_stable_split(model, Fraction(11, 4))
    assert verdict.advisories and "s != 0" in verdict.advisories[0]
    # with s = 0 the quotient condition ranges over every invariant F
    assert not verdict.stable and verdict.witness.condition == 2


def test_verdict_constant_across_same_floor_tau_values():
    model = fixed_point_style(2, 5, 3)
    for num, den in ((11, 4), (27, 10), (14, 5), (29, 10)):
        assert is_tau_stable_split(model, Fraction(num, den)).stable


def test_unstable_verdict_requires_witness():
    with pytest.raises(ValueError):
        StabilityVerdict(False, None)
    StabilityVerdict(True, None)
    StabilityVerdict(False, Witness("L", 1, Fraction(3), Fraction(11, 4)))


# -- plain Higgs stability -------------------------------------------------


def test_tau_stable_implies_higgs_stable_on_a_scan():
    for g in (2, 3):
        for k in (5, 7, 9, 11):
            if k <= 4 * g - 4:
                continue
            tau = Fraction(k, 2) + Fraction(1, 4)
            for dL in range(-6, 7):
                for psi_nonzero in (False, True):
                    for placement in ("in_L", "in_Lc", "zero"):
                        try:
                            m = SplitHiggsPairModel(
                                g=g, k=k, dL=dL,
                                psi_nonzero=psi_nonzero,
                                theta_zero=not psi_nonzero,
                                s_placement=placement,
                            )
                        except ValueError:
                            continue
                        if is_tau_stable_split(m, tau).stable:
                            assert check_higgs_stability(m)


def test_higgs_stability_examples():
    stable = fixed_point_style(2, 5, 3)  # only Lc invariant, slope 2 < 5/2
    assert check_higgs_stability(stable)
    unstable = SplitHiggsPairModel(
        g=2, k=5, dL=3, psi_nonzero=False, theta_zero=True, s_placement="in_Lc"
    )  # L invariant with slope 3 > 5/2
    assert not check_higgs_stability(unstable)
