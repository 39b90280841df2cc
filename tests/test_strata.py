"""Stratum bookkeeping: degree ranges, descriptors, fixed-point models."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import pytest

from higgspairs.betti import ModuliParams
from higgspairs.stability import is_tau_stable_split
from higgspairs.strata import (
    StratumDescriptor,
    d_range,
    fixed_point_model,
    stratum_descriptor,
)


@dataclass(frozen=True)
class Params:
    g: int
    k: int
    tau_bar: Fraction


def mid(k: int) -> Fraction:
    return Fraction(k, 2) + Fraction(1, 4)


# -- degree ranges ---------------------------------------------------------


def test_d_range_examples():
    assert d_range(Params(2, 5, Fraction(11, 4))) == [3]
    assert d_range(Params(2, 7, Fraction(15, 4))) == [4]
    assert d_range(Params(3, 9, Fraction(19, 4))) == [5, 6]


def test_d_range_rejects_invalid_params():
    with pytest.raises(ValueError):
        ModuliParams(g=1, k=5, tau_bar=Fraction(11, 4))


def test_d_range_lower_end_follows_floor():
    # floor(tau_bar) + 1 is the first stratum degree
    for k in (5, 7, 9, 11, 13):
        for g in (2, 3, 4):
            if k <= 4 * g - 4:
                continue
            rng = d_range(Params(g, k, mid(k)))
            assert rng[0] == (k - 1) // 2 + 1
            assert all(b - a == 1 for a, b in zip(rng, rng[1:]))


# -- descriptors -----------------------------------------------------------


def test_descriptor_example_values():
    p = Params(3, 9, Fraction(19, 4))
    desc = stratum_descriptor(p, 5)
    assert desc == StratumDescriptor(d=5, n1=3, n2=4, index=6)
    desc6 = stratum_descriptor(p, 6)
    assert (desc6.n1, desc6.n2, desc6.index, desc6.dim) == (1, 3, 10, 4)


def test_descriptor_invariants_over_grid():
    for g in (2, 3, 4):
        for k in (5, 7, 9, 11, 13, 15):
            if k <= 4 * g - 4:
                continue
            p = Params(g, k, mid(k))
            for d in d_range(p):
                desc = stratum_descriptor(p, d)
                assert desc.n1 == -2 * d + k + 2 * g - 2 >= 0
                assert desc.n2 == k - d >= 0
                assert desc.index == 2 * (2 * d + g - k - 1)
                assert desc.index >= 2 and desc.index % 2 == 0
                assert desc.dim == desc.n1 + desc.n2


def test_descriptor_out_of_range_raises():
    p = Params(2, 5, Fraction(11, 4))
    for d in (2, 4, -1):
        with pytest.raises(ValueError):
            stratum_descriptor(p, d)


def test_descriptor_rejects_negative_exponents_directly():
    with pytest.raises(ValueError):
        StratumDescriptor(d=1, n1=-1, n2=0, index=2)


# -- fixed-point models ------------------------------------------------------


def test_fixed_point_models_stable_exactly_on_the_range():
    for g in (2, 3):
        for k in (5, 7, 9, 11):
            if k <= 4 * g - 4:
                continue
            p = Params(g, k, mid(k))
            rng_d = d_range(p)
            for d in range(rng_d[0] - 2, rng_d[-1] + 1):
                try:
                    model = fixed_point_model(p, d)
                except ValueError:
                    assert d not in rng_d
                    continue
                verdict = is_tau_stable_split(model, p.tau_bar)
                assert verdict.stable == (d in rng_d)


def test_fixed_point_model_below_floor_is_unstable():
    p = Params(2, 5, Fraction(11, 4))
    d = 2  # floor(tau_bar); buildable but unstable
    model = fixed_point_model(p, d)
    verdict = is_tau_stable_split(model, p.tau_bar)
    assert not verdict.stable
    assert verdict.witness.condition == 2


def test_fixed_point_model_validates_divisor_degrees():
    p = Params(2, 5, Fraction(11, 4))
    with pytest.raises(ValueError, match="must be nonnegative"):
        fixed_point_model(p, 6)  # n1 < 0 at d = 6


def test_fixed_point_model_fields():
    p = Params(2, 5, Fraction(11, 4))
    model = fixed_point_model(p, 3)
    assert (model.g, model.k, model.dL) == (2, 5, 3)
    assert model.psi_nonzero and not model.theta_zero
    assert model.s_placement == "in_Lc"
