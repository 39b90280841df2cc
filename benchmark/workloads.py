"""The benchmark's workloads: the operations of one pass, built from a seed.

Every operation is one in-process call of ``higgspairs.cli.main`` with the
argument list a user would type.  ``build`` is also what a fresh
interpreter runs when the benchmark times set-up.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# g = 2..8 at the smallest valid degree k = 4g - 3, plus the end-to-end point.
LADDER = tuple((g, 4 * g - 3) for g in range(2, 9)) + ((8, 61),)

# The rank-1 solves start from one fixed sample: from different start seeds
# the descent needs 168 to 402 iterations at N = 32, so a seed-drawn start
# would measure the start rather than the program.
ABELIAN_START, ABELIAN_TOL, ABELIAN_GRIDS = 7, 1e-13, (16, 32, 64)
# The rank-2 start is the baseline of the solver's open convergence fault.
# Its inputs stay fixed so that every run fails the same share of solves.
NONABELIAN_START, NONABELIAN_TOL, NONABELIAN_GRIDS = 3, 1e-12, (8, 16)
NONABELIAN_BUDGET = 300
AMPLITUDE = 0.1


def load_program():
    """Import ``higgspairs.cli`` from this checkout's ``src`` and return it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from higgspairs import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"higgspairs imported from {cli.__file__}, not from {src}")
    return cli


@dataclass(frozen=True)
class BettiOp:
    """``higgspairs betti`` at one ladder point."""

    g: int
    k: int
    tau_bar: Fraction

    @property
    def cls(self) -> str:
        return f"g{self.g}k{self.k}"

    def argv(self) -> list[str]:
        return ["betti", "--genus", str(self.g), "--degree", str(self.k),
                "--tau-bar", str(self.tau_bar)]

    def check(self, report: dict) -> tuple[list[str], bool]:
        """(problems, failed by not converging); betti runs always converge."""
        return oracles.check_betti(report, self.g, self.k, self.tau_bar), False


@dataclass(frozen=True)
class VortexOp:
    """A cold ``higgspairs vortex solve`` that dumps its final fields."""

    N: int
    r1: int
    start: int
    tol: float
    max_iter: int
    must_converge: bool
    dump: str

    @property
    def cls(self) -> str:
        return f"N{self.N}"

    def argv(self) -> list[str]:
        return ["vortex", "solve", "--rank1", str(self.r1), "--rank2", "1",
                "--tau", "1", "--grid", str(self.N), "--tol", repr(self.tol),
                "--max-iter", str(self.max_iter), "--seed", str(self.start),
                "--amplitude", repr(AMPLITUDE), "--dump-fields", self.dump]

    def check(self, report: dict) -> tuple[list[str], bool]:
        header, fields = oracles.read_dump(self.dump)
        problems = oracles.check_vortex(report, header, fields)
        missed = not report["converged"]
        if missed and self.must_converge:
            problems.append(f"did not converge: residual {report['residual']!r} > tol {self.tol!r}")
        return problems, missed and not self.must_converge


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple  # one pass, classes interleaved
    small: str
    large: str

    def pass_order(self, seed: int, index: int) -> tuple:
        """The pass's operations, rotated so each pass starts elsewhere."""
        shift = (seed + index) % len(self.ops)
        return self.ops[shift:] + self.ops[:shift]


def _chamber_point(rng: random.Random, k: int) -> Fraction:
    """A tau_bar strictly inside (k/2, (k+1)/2); every such value gives the
    same moduli space, so the work does not depend on the draw."""
    m = rng.randint(2, 9)
    return Fraction(k, 2) + Fraction(rng.randint(1, m - 1), 2 * m)


def build(name: str, seed: int) -> Workload:
    """The workload's pass for this seed; the same seed gives the same pass."""
    rng = random.Random(seed)
    if name == "betti-ladder":
        ladder = [BettiOp(g, k, _chamber_point(rng, k)) for g, k in LADDER]
        small, rest = ladder[0], ladder[1:]
        # The 20 ms smallest class runs between every two other points:
        # seven samples per pass, spread across the pass.
        ops = tuple(op for other in rest for op in (small, other))
        return Workload(name, ops, small.cls, ladder[-1].cls)
    OUT.mkdir(exist_ok=True)
    if name == "vortex-abelian":
        ops = [VortexOp(N, 1, ABELIAN_START, ABELIAN_TOL, 10000, True, _dump(name, N))
               for N in ABELIAN_GRIDS]
        # A second smallest solve before the largest doubles the small
        # class's samples for about a seventh more work per pass.
        ops.insert(2, ops[0])
    elif name == "vortex-nonabelian":
        ops = [VortexOp(N, 2, NONABELIAN_START, NONABELIAN_TOL, NONABELIAN_BUDGET, False,
                        _dump(name, N))
               for N in NONABELIAN_GRIDS]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, tuple(ops), ops[0].cls, ops[-1].cls)


def _dump(name: str, N: int) -> str:
    return str(OUT / f"{name}-N{N}.bin")


WORKLOADS = ("betti-ladder", "vortex-abelian", "vortex-nonabelian")
