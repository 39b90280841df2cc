"""Command-line interface: formats, exit codes, goldens, field dumps."""

from __future__ import annotations

import ast
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import higgspairs.cli
import higgspairs.vortex
from higgspairs import betti, stability
from higgspairs.cli import main
from higgspairs.series import FormulaIntegrityError, LaurentPoly

GOLDEN = Path(__file__).parent / "golden"

BETTI_ARGS = ["betti", "--genus", "2", "--degree", "5", "--tau-bar", "11/4"]
LARGE_BETTI_ARGS = ["betti", "--genus", "8", "--degree", "61", "--tau-bar", "123/4"]
STRATA_ARGS = ["strata", "--genus", "3", "--degree", "9", "--tau-bar", "19/4"]


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_matches_golden(capsys) -> None:
    code, _, _ = run(capsys, BETTI_ARGS + ["--golden", str(GOLDEN / "betti_g2_k5.json")])
    assert code == 0


def test_large_betti_matches_golden(capsys) -> None:
    # The top of the benchmark ladder: coefficients reach 3.2e10 here, where
    # g = 2, k = 5 stays below 100.
    code, _, _ = run(capsys, LARGE_BETTI_ARGS + ["--golden", str(GOLDEN / "betti_g8_k61.json")])
    assert code == 0


@pytest.mark.parametrize(
    "argv, golden",
    [
        (BETTI_ARGS + ["--format", "pretty"], "betti_g2_k5.pretty.txt"),
        (LARGE_BETTI_ARGS + ["--format", "pretty"], "betti_g8_k61.pretty.txt"),
        (BETTI_ARGS + ["--format", "csv"], "betti_g2_k5.csv"),
        (LARGE_BETTI_ARGS + ["--format", "csv"], "betti_g8_k61.csv"),
    ],
    ids=["pretty_g2_k5", "pretty_g8_k61", "csv_g2_k5", "csv_g8_k61"],
)
def test_betti_text_formats_match_golden(capsys, argv: list[str], golden: str) -> None:
    code, _, _ = run(capsys, argv + ["--golden", str(GOLDEN / golden)])
    assert code == 0


def test_json_and_csv_never_build_the_pretty_text(capsys, monkeypatch) -> None:
    def refuse(self) -> str:
        raise RuntimeError("pretty text built")

    monkeypatch.setattr(betti.PoincarePolynomial, "__str__", refuse)
    for fmt, golden in (("json", "betti_g2_k5.json"), ("csv", "betti_g2_k5.csv")):
        code, _, _ = run(capsys, BETTI_ARGS + ["--format", fmt, "--golden", str(GOLDEN / golden)])
        assert code == 0
    # The patch is seen where the pretty text is built.
    with pytest.raises(RuntimeError, match="pretty text built"):
        main(BETTI_ARGS + ["--format", "pretty"])


def test_strata_matches_golden(capsys) -> None:
    code, _, _ = run(capsys, STRATA_ARGS + ["--golden", str(GOLDEN / "strata_g3_k9.json")])
    assert code == 0


def test_stability_matches_golden(capsys) -> None:
    argv = [
        "stability", "check",
        "--model", str(GOLDEN / "model_stable.json"),
        "--tau-bar", "11/4",
        "--golden", str(GOLDEN / "stability_stable.json"),
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["tau_stable"] is True
    assert report["higgs_stable"] is True
    assert report["witness"] is None


def test_selftest_matches_golden(capsys) -> None:
    argv = ["selftest", "--seed", "0", "--golden", str(GOLDEN / "selftest_seed0.json")]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [g["name"] for g in report["groups"]] == [
        "series_ring_axioms",
        "macdonald_oracle",
        "decomposition_identity",
        "gradient_check",
    ]


def test_golden_mismatch_exits_2(capsys, tmp_path) -> None:
    stale = tmp_path / "stale.json"
    stale.write_text((GOLDEN / "betti_g2_k5.json").read_text() + "\n")
    code, _, _ = run(capsys, BETTI_ARGS + ["--golden", str(stale)])
    assert code == 2


def test_unreadable_golden_exits_1(capsys, tmp_path) -> None:
    code, _, _ = run(capsys, BETTI_ARGS + ["--golden", str(tmp_path / "absent.json")])
    assert code == 1


def test_write_golden_round_trips(capsys, tmp_path) -> None:
    # A golden file is written by --out: the same bytes as stdout.
    target = tmp_path / "fresh.json"
    code, out, _ = run(capsys, BETTI_ARGS + ["--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "betti_g2_k5.json").read_text()
    code, out, _ = run(capsys, BETTI_ARGS + ["--golden", str(target)])
    assert code == 0
    assert target.read_text() == out


def test_output_is_byte_deterministic(capsys) -> None:
    _, first, _ = run(capsys, BETTI_ARGS)
    _, second, _ = run(capsys, BETTI_ARGS)
    assert first == second


def test_csv_format(capsys) -> None:
    code, out, _ = run(capsys, BETTI_ARGS + ["--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "path,value"
    assert "params.genus,2" in lines
    assert any(line.startswith("total_poly[0][0],") for line in lines)


def test_csv_writes_floats_by_repr(capsys) -> None:
    _, out, _ = run(capsys, vortex_args())
    residual = json.loads(out)["residual"]
    code, out, _ = run(capsys, vortex_args(**{"--format": "csv"}))
    assert code == 0
    assert f"residual,{residual!r}" in out.splitlines()


def test_csv_writes_none_as_null(capsys) -> None:
    argv = [
        "stability", "check",
        "--model", str(GOLDEN / "model_stable.json"),
        "--tau-bar", "11/4",
        "--format", "csv",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "witness,null" in out.splitlines()


def test_formula_integrity_error_exits_2(capsys, monkeypatch) -> None:
    def broken(p):
        raise FormulaIntegrityError("remainder 1 after dividing by 1 - t^2")

    monkeypatch.setattr(betti, "betti_report", broken)
    code, out, err = run(capsys, BETTI_ARGS)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "FormulaIntegrityError",
        "message": "remainder 1 after dividing by 1 - t^2",
    }


def test_pretty_format(capsys) -> None:
    code, out, _ = run(capsys, BETTI_ARGS + ["--format", "pretty"])
    assert code == 0
    assert "total:" in out
    assert "extraction [corrected]: matches" in out
    assert "extraction [as_printed]: MISMATCH" in out


def test_out_writes_file_instead_of_stdout(capsys, tmp_path) -> None:
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, STRATA_ARGS + ["--out", str(target)])
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["d_range"] == [5, 6]


@pytest.mark.parametrize("flag", ["--out"])
@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_unwritable_output_path_exits_1(capsys, tmp_path, flag: str, fmt: str) -> None:
    target = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, BETTI_ARGS + ["--format", fmt, flag, str(target)])
    assert code == 1
    assert "Traceback" not in err
    assert not target.exists()
    if fmt == "json":
        assert json.loads(err)["error"] == "FileNotFoundError"
    else:
        assert err.startswith("error: ")


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "g, k, tau_bar, n_strata",
    [(2, 5, "11/4", 1), (8, 61, "123/4", 7)],
    ids=["g2_k5", "g8_k61"],
)
def test_betti_report_validates_and_builds_n0_once(
    capsys, monkeypatch, g, k, tau_bar, n_strata
) -> None:
    brackets = _count_calls(monkeypatch, betti, "_pairs_bracket_coeff")
    validations = _count_calls(monkeypatch, stability, "validate_params")
    # The report runs the public stratum function, once per stratum.
    stratum_polys = _count_calls(monkeypatch, betti, "stratum_poincare")
    argv = ["betti", "--genus", str(g), "--degree", str(k), "--tau-bar", tau_bar]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert brackets[0] == 1
    assert validations[0] == 1
    assert stratum_polys[0] == len(json.loads(out)["strata"]) == n_strata


def test_strata_report_validates_once(capsys, monkeypatch) -> None:
    validations = _count_calls(monkeypatch, stability, "validate_params")
    argv = ["strata", "--genus", "8", "--degree", "61", "--tau-bar", "123/4"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert len(json.loads(out)["strata"]) == 7
    assert validations[0] == 1


def test_bad_rational_exits_1(capsys) -> None:
    code, _, err = run(capsys, ["betti", "--genus", "2", "--degree", "5", "--tau-bar", "abc"])
    assert code == 1
    assert "not an exact rational" in err


def test_invalid_params_exit_1(capsys) -> None:
    code, _, _ = run(capsys, ["betti", "--genus", "2", "--degree", "4", "--tau-bar", "9/4"])
    assert code == 1
    code, _, _ = run(capsys, ["betti", "--genus", "1", "--degree", "5", "--tau-bar", "11/4"])
    assert code == 1


def test_unknown_choice_exits_1() -> None:
    with pytest.raises(SystemExit) as err:
        main(BETTI_ARGS + ["--format", "yaml"])
    assert err.value.code == 1


def test_help_exits_0() -> None:
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


def test_main_builds_one_parser_and_survives_argument_errors(capsys, monkeypatch) -> None:
    built = []
    real = higgspairs.cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(higgspairs.cli, "build_parser", counted)
    monkeypatch.setattr(higgspairs.cli, "_PARSER", None)
    code, _, _ = run(capsys, BETTI_ARGS + ["--golden", str(GOLDEN / "betti_g2_k5.json")])
    assert code == 0
    # The error comes after --rank2 and --max-iter were read: the next
    # parse must see their defaults again.
    with pytest.raises(SystemExit) as err:
        main(["vortex", "solve", "--rank1", "1", "--tau", "1.0", "--rank2", "3",
              "--max-iter", "7", "--grid", "abc"])
    assert err.value.code == 1
    capsys.readouterr()
    code, out, _ = run(capsys, ["vortex", "solve", "--rank1", "1", "--tau", "1.0", "--grid", "8"])
    assert code == 0
    params = json.loads(out)["params"]
    assert (params["rank2"], params["max_iter"], params["grid"]) == (1, 10000, 8)
    code, _, _ = run(capsys, BETTI_ARGS + ["--golden", str(GOLDEN / "betti_g2_k5.json")])
    assert code == 0
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv, option",
    [
        (["betti", "--genus", "2", "--degree", "5", "--tau-bar", "-3/2"], "--tau-bar"),
        (["vortex", "solve", "--rank1", "1", "--tau", "1.0", "--grid", "abc"], "--grid"),
        # The sign of --tau picks the branch, and --out writes a golden file.
        (["vortex", "solve", "--rank1", "1", "--tau", "1.0", "--branch", "psi"], "--branch"),
        (BETTI_ARGS + ["--write-golden", os.devnull], "--write-golden"),
    ],
)
def test_argument_errors_are_structured(capsys, argv: list[str], option: str) -> None:
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    payload = json.loads(captured.err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "ArgumentError"
    assert option in payload["message"]


def test_stability_refuses_deeply_nested_model(capsys, tmp_path) -> None:
    # The JSON parser recurses once per nesting level.
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, ["stability", "check", "--model", str(path), "--tau-bar", "11/4"])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err) == {
        "error": "InvalidParamsError",
        "message": "model JSON nests too deeply to parse",
    }


def test_stability_model_key_validation(capsys, tmp_path) -> None:
    good = json.loads((GOLDEN / "model_stable.json").read_text())

    extra = dict(good, color="red")
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(extra))
    code, _, err = run(capsys, ["stability", "check", "--model", str(path), "--tau-bar", "11/4"])
    assert code == 1
    assert "unknown model keys" in err

    short = {k: v for k, v in good.items() if k != "dL"}
    path.write_text(json.dumps(short))
    code, _, _ = run(capsys, ["stability", "check", "--model", str(path), "--tau-bar", "11/4"])
    assert code == 1

    path.write_text("{not json")
    code, _, _ = run(capsys, ["stability", "check", "--model", str(path), "--tau-bar", "11/4"])
    assert code == 1

    for text, kind in (("5", "int"), ("[]", "list"), ('"x"', "str")):
        path.write_text(text)
        argv = ["stability", "check", "--model", str(path), "--tau-bar", "11/4"]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert "Traceback" not in err
        assert json.loads(err) == {
            "error": "InvalidParamsError",
            "message": f"model must be a JSON object, got {kind}",
        }


@pytest.mark.parametrize(
    "key, value, kind",
    [("psi_nonzero", "false", "a boolean"), ("g", 2.5, "an integer"),
     ("g", True, "an integer"), ("k", 5.5, "an integer")],
)
def test_stability_model_field_types(capsys, tmp_path, key: str, value, kind: str) -> None:
    # A JSON string is truthy and a JSON true is an int to Python: each
    # would pass the value checks and get a verdict for another model.
    good = json.loads((GOLDEN / "model_stable.json").read_text())
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(dict(good, **{key: value})))
    code, out, err = run(capsys, ["stability", "check", "--model", str(path), "--tau-bar", "11/4"])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "InvalidParamsError"
    assert f"{key} must be {kind}" in payload["message"]


def test_stability_unstable_model_still_exits_0(capsys, tmp_path) -> None:
    good = json.loads((GOLDEN / "model_stable.json").read_text())
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(dict(good, dL=2)))
    code, out, _ = run(capsys, ["stability", "check", "--model", str(path), "--tau-bar", "11/4"])
    assert code == 0
    report = json.loads(out)
    assert report["tau_stable"] is False
    assert "condition (2) fails" in report["witness"]["text"]


def vortex_args(**overrides: str) -> list[str]:
    opts = {
        "--rank1": "1",
        "--grid": "8",
        "--tau": "1.0",
        "--seed": "0",
        "--amplitude": "0.1",
        "--max-iter": "2000",
    }
    opts.update(overrides)
    argv = ["vortex", "solve"]
    for key, val in opts.items():
        argv += [key, val]
    return argv


def test_vortex_solve_converges(capsys) -> None:
    code, out, _ = run(capsys, vortex_args())
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["stop_reason"] == "converged"
    assert report["residual"] <= 1e-12
    assert report["params"]["tau_prime"] == -1.0
    assert "note" not in report


def test_vortex_zero_tau_solve_has_no_floor_note(capsys) -> None:
    # At tau = 0 the floor tau^2*vol/8 is 0 and the solution phi = 0
    # exists: a solve cut by its budget is not told that none is expected.
    base = {"--grid": "16", "--seed": "7", "--tau": "0"}
    code, out, _ = run(capsys, vortex_args(**base, **{"--max-iter": "3"}))
    assert code == 0
    report = json.loads(out)
    assert (report["stop_reason"], report["params"]["branch"]) == ("max_iter", "phi")
    assert "note" not in report
    code, out, _ = run(capsys, vortex_args(**base))
    assert code == 0
    assert json.loads(out)["converged"] is True


@pytest.mark.parametrize("branch, tau", [("phi", "0.01"), ("psi", "-0.01")])
def test_vortex_small_tau_notes_the_zero_section_critical_point(
    capsys, branch: str, tau: str
) -> None:
    # At coupling 0.01 an amplitude-0.1 start is mostly noise, and the
    # descent collapses the section onto its zero, a critical point where
    # W1 = -tau/2 and W2 = -tau'/2; an amplitude below sqrt(0.01) solves.
    # The sign of tau picks the branch: psi's coupling is tau' = -tau.
    base = {"--grid": "16", "--seed": "7", "--tol": "1e-13", "--max-iter": "10000",
            "--tau": tau}
    code, out, _ = run(capsys, vortex_args(**base, **{"--amplitude": "0.1"}))
    assert code == 0
    report = json.loads(out)
    assert report["params"]["branch"] == branch
    assert report["stop_reason"] == "no_decrease"
    assert report["stalled"] is True
    t, t_prime = float(tau), -float(tau)
    floor = 1.0 * (1 * t * t + 1 * t_prime * t_prime) / 4.0
    assert report["residual"] == pytest.approx(floor, rel=1e-9)
    note = report["note"]
    section, coupling = ("phi", "tau") if branch == "phi" else ("psi", "tau'")
    assert f"critical point {section} = 0" in note
    assert f"vol*(rank1*tau^2 + rank2*tau'^2)/4 = {floor!r}" in note
    assert f"--amplitude below sqrt({coupling}) = 0.1 " in note
    assert "no solution expected" not in note

    code, out, _ = run(capsys, vortex_args(**base, **{"--amplitude": "0.01"}))
    assert code == 0
    report = json.loads(out)
    assert report["params"]["branch"] == branch
    assert report["converged"] is True
    assert "note" not in report


def read_dump(path: Path) -> dict[str, np.ndarray]:
    """The blocks of a --dump-fields file by name."""
    blob = path.read_bytes()
    newline = blob.index(b"\n")
    header = json.loads(blob[:newline])
    blocks, at = {}, newline + 1
    for name in header["fields"]:
        shape = header["shapes"][name]
        size = int(np.prod(shape)) * 16
        blocks[name] = np.frombuffer(blob[at : at + size], dtype="<c16").reshape(shape)
        at += size
    assert at == len(blob)
    return blocks


@pytest.mark.parametrize("grid", [8, 32])
@pytest.mark.parametrize("rank", [1, 2])
def test_vortex_psi_branch_is_the_exchanged_phi_branch(capsys, tmp_path, rank: int, grid: int) -> None:
    # With equal ranks, the psi branch at tau = -1 is the phi branch at
    # tau = 1 with the two bundles exchanged: tau' = -tau at degree 0.  The
    # sign of tau picks the branch.
    reports, dumps = {}, {}
    for branch, tau in (("phi", "1.0"), ("psi", "-1.0")):
        dumps[branch] = tmp_path / f"{branch}.bin"
        argv = vortex_args(**{
            "--rank1": str(rank), "--rank2": str(rank), "--grid": str(grid),
            "--tau": tau, "--dump-fields": str(dumps[branch]),
        })
        code, out, _ = run(capsys, argv)
        assert code == 0
        reports[branch] = json.loads(out)
        assert reports[branch]["params"]["branch"] == branch
        assert reports[branch]["converged"] is True, branch
    phi, psi = reports["phi"], reports["psi"]
    for key in ("residual", "iterations", "stop_reason", "converged", "moment_map"):
        assert psi[key] == phi[key], key
    swap = {"eq1": "eq2", "eq2": "eq1", "eq1_max": "eq2_max", "eq2_max": "eq1_max"}
    assert psi["breakdown"] == {swap.get(k, k): v for k, v in phi["breakdown"].items()}
    phi_blocks, psi_blocks = read_dump(dumps["phi"]), read_dump(dumps["psi"])
    pairs = (("A1", "A2"), ("theta1", "theta2"), ("phi", "psi"))
    for one, two in pairs + tuple((b, a) for a, b in pairs):
        assert np.array_equal(psi_blocks[one], phi_blocks[two]), one


@pytest.mark.parametrize(
    "rank1, grid, tol", [(2, 8, "1e-12"), (2, 16, "1e-12"), (2, 32, "1e-12"), (1, 32, "1e-13")]
)
def test_vortex_report_and_dump_are_the_cold_solve(
    capsys, tmp_path, rank1: int, grid: int, tol: str
) -> None:
    # Every grid is solved once, from the sample of that grid: the report
    # and the dumped fields are the cold solve's, bit for bit.
    dump = tmp_path / "fields.bin"
    argv = vortex_args(**{
        "--rank1": str(rank1), "--grid": str(grid), "--seed": "3", "--max-iter": "30",
        "--tol": tol, "--dump-fields": str(dump),
    })
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    s0 = higgspairs.vortex.random_smooth_state(
        grid, rank1, 1, 1.0, np.random.default_rng(3), 0.1, 1.0
    )
    cold = higgspairs.vortex.solve(s0, 1.0, tol=float(tol), max_iter=30)
    del report["params"]
    assert report == {
        "converged": cold.converged,
        "stalled": cold.stalled,
        "stop_reason": cold.stop_reason,
        "iterations": cold.iterations,
        "residual": cold.residual,
        "breakdown": cold.breakdown,
        "moment_map": cold.moment_map_value,
    }
    blocks = read_dump(dump)
    for name in higgspairs.vortex.BLOCKS:
        assert np.array_equal(blocks[name], getattr(cold.state, name)), name


def test_vortex_report_does_not_depend_on_the_blas_thread_count() -> None:
    # A BLAS reduction such as np.vdot splits a long vector by the thread
    # count, which moves its last digits; on this rank-1 N = 64 solve that
    # changed the reported residual.  The report must be the same bytes at
    # one thread and at two.
    src = Path(higgspairs.__file__).parents[1]
    argv = [sys.executable, "-m", "higgspairs"] + vortex_args(**{
        "--rank1": "1", "--grid": "64", "--seed": "7", "--tol": "1e-13",
    })
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert json.loads(reports[0])["converged"] is True
    assert reports[0] == reports[1]


GRID_64 = vortex_args(**{"--grid": "64", "--seed": "7", "--tol": "1e-13"})


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap policy is glibc's mallopt",
)
def test_vortex_solve_keeps_its_freed_heap(capsys) -> None:
    # A solve frees temporaries of 64 KiB and more on every iteration.
    # With glibc's own thresholds the freed top of the heap went back to
    # the kernel and the next iteration faulted it in again: the second of
    # two identical solves took 979 minor faults here (about 1,600 in the
    # benchmark's loop).  The CLI's heap policy keeps it; that solve then
    # took 0 to 17.
    import resource

    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        code, out, _ = run(capsys, GRID_64)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert code == 0
    assert json.loads(out)["converged"] is True
    assert faults <= 100, faults


class _Mallopt:
    """A stand-in for the C library's mallopt that records its calls."""

    def __init__(self, result: int) -> None:
        self.result, self.calls = result, []

    def __call__(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return self.result


@pytest.mark.parametrize("libc", ["without mallopt", "refusing", "accepting"])
def test_vortex_heap_policy_changes_no_report(monkeypatch, capsys, libc: str) -> None:
    # Where the C library has no mallopt (macOS, Windows) or refuses the
    # value (musl), the solve goes on as it is; it sets glibc's two
    # thresholds, once each, or nothing.  No arithmetic depends on the
    # policy, so the report is the same bytes in every case.
    import ctypes
    from types import SimpleNamespace

    argv = vortex_args(**{"--grid": "16", "--seed": "7", "--tol": "1e-13"})
    code, want, _ = run(capsys, argv)
    assert code == 0
    mallopt = _Mallopt(result=int(libc == "accepting"))
    fake = SimpleNamespace() if libc == "without mallopt" else SimpleNamespace(mallopt=mallopt)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: fake)
    # The policy is set once per process; the fake must see that first time,
    # and the next solve of the suite the real C library again.
    keep = higgspairs.cli._keep_freed_heap
    keep.cache_clear()
    try:
        code, got, _ = run(capsys, argv)
        run(capsys, argv)
    finally:
        keep.cache_clear()
    assert code == 0
    assert got == want
    if libc == "refusing":
        assert mallopt.calls == [(-3, 32 * 1024 * 1024)]
    elif libc == "accepting":
        assert mallopt.calls == [(-3, 32 * 1024 * 1024), (-1, 256 * 1024 * 1024)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert mallopt.restype is ctypes.c_int


def test_vortex_rejects_bad_grid(capsys) -> None:
    code, out, err = run(capsys, vortex_args(**{"--grid": "2"}))
    assert code == 1
    assert out == ""
    assert json.loads(err) == {
        "error": "InvalidParamsError",
        "message": "--grid must be at least 4, got 2",
    }


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tau", "nan"),
        ("--vol", "inf"),
        ("--vol", "-1"),
        ("--vol", "0"),
        ("--amplitude", "inf"),
        ("--tol", "nan"),
        ("--tol", "-0.5"),
        ("--max-iter", "-5"),
        ("--rank1", "0"),
        ("--rank1", "-2"),
        ("--rank2", "0"),
    ],
)
def test_vortex_rejects_bad_number(capsys, flag: str, value: str) -> None:
    code, out, err = run(capsys, vortex_args(**{flag: value}))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "InvalidParamsError"
    assert flag in json.loads(err)["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["vortex", "solve", "--rank1", "1", "--tau", "1", "--seed", "-1"],
        ["selftest", "--seed", "-1"],
    ],
)
def test_negative_seed_names_the_flag(capsys, argv: list[str]) -> None:
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err) == {
        "error": "InvalidParamsError",
        "message": "--seed must be non-negative, got -1",
    }


def test_vortex_report_never_holds_infinity(capsys) -> None:
    # Finite inputs whose start state overflows: the solve stops at once,
    # and the JSON report refuses the infinite residual.
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, vortex_args(**{"--amplitude": "1e100"}))
    assert code == 1
    assert out == ""
    assert "not JSON compliant" in json.loads(err)["message"]


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_vortex_out_of_memory_exits_1(capsys, monkeypatch, fmt: str) -> None:
    # The state constructor stands in for a grid too large to allocate;
    # nothing large is allocated here.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.33 EiB for an array")

    monkeypatch.setattr(higgspairs.vortex, "random_smooth_state", no_memory)
    code, out, err = run(capsys, vortex_args(**{"--format": fmt}))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    if fmt == "json":
        payload = json.loads(err)
        assert payload["error"] == "MemoryError"
        assert payload["message"].startswith("out of memory: Unable to allocate")
    else:
        assert err.startswith("error: out of memory")


def refuse_allocation(monkeypatch) -> None:
    """Make the sampler and numpy's allocators fail the test if reached."""
    def allocates(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(higgspairs.vortex, "random_smooth_state", allocates)
    for name in ("empty", "zeros", "empty_like", "zeros_like"):
        monkeypatch.setattr(np, name, allocates)


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_vortex_grid_beyond_physical_memory_is_refused_before_allocating(
    capsys, monkeypatch, fmt: str
) -> None:
    # A grid of 10^12 sites needs far more than any physical memory; the
    # refusal must come from the estimate, so the sampler and numpy's
    # allocators fail the test if they are reached.
    refuse_allocation(monkeypatch)
    code, out, err = run(capsys, vortex_args(**{"--grid": "1000000", "--format": fmt}))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # 12 states of 1.28e14 bytes, and the Gauss-Newton symbol of the (1, 1)
    # problem: 5.0e11 modes at 384 bytes each, and 1.25e11 classes of modes
    # at 1600 bytes each while it is built.
    message = f"--grid 1000000 needs about 1.93e+15 bytes, more than the {physical:.3g} bytes"
    if fmt == "json":
        payload = json.loads(err)
        assert payload["error"] == "MemoryError"
        assert message in payload["message"]
        # Rank 1 fits on a small grid: the grid alone is named.
        assert "--rank1" not in payload["message"]
    else:
        assert err.startswith("error: out of memory: " + message)


def test_vortex_rank_beyond_physical_memory_is_refused_before_allocating(
    capsys, monkeypatch
) -> None:
    # The Gauss-Newton symbol's build grows as r^4 whatever the grid: at
    # ranks (256, 256) its probe grid has 2290^2 sites of 256 x 256
    # matrices, 24 fields of them about 1.3e14 bytes on the smallest grid.
    # No grid fits, so the refusal names the ranks too.
    refuse_allocation(monkeypatch)
    code, out, err = run(
        capsys, vortex_args(**{"--rank1": "256", "--rank2": "256", "--grid": "4"})
    )
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "MemoryError"
    assert "--grid 4 needs about 1.32e+14 bytes, more than the" in payload["message"]
    assert payload["message"].endswith(
        "bytes of physical memory; --rank1 256 --rank2 256 need more than that on every grid"
    )


@pytest.mark.parametrize("tau", ["1.0", "-1.0"], ids=["phi", "psi"])
def test_vortex_dump_payload_is_each_block_in_c_order(
    capsys, monkeypatch, tmp_path, tau: str
) -> None:
    # The solved blocks are views of the solver's packed vectors, not
    # contiguous at rank 2, and the psi branch (tau < 0) dumps the exchanged
    # state.  The dump writes each block from its buffer: its bytes must be
    # those of a contiguous little-endian copy of the block.
    dumped = []
    write = higgspairs.cli._dump_fields

    def recording(path: str, s: higgspairs.vortex.LatticeState, vol: float) -> None:
        dumped.append(s)
        write(path, s, vol)

    monkeypatch.setattr(higgspairs.cli, "_dump_fields", recording)
    dump = tmp_path / "fields.bin"
    argv = vortex_args(**{"--rank1": "2", "--tau": tau, "--dump-fields": str(dump)})
    code, _, _ = run(capsys, argv)
    assert code == 0
    (state,) = dumped
    blocks = [getattr(state, name) for name in higgspairs.vortex.BLOCKS]
    assert not all(b.flags.c_contiguous for b in blocks)
    blob = dump.read_bytes()
    payload = blob[blob.index(b"\n") + 1 :]
    assert payload == b"".join(np.ascontiguousarray(b).astype("<c16").tobytes() for b in blocks)


def test_vortex_dump_fields(capsys, tmp_path) -> None:
    dump = tmp_path / "fields.bin"
    code, _, _ = run(capsys, vortex_args(**{"--dump-fields": str(dump)}))
    assert code == 0
    blob = dump.read_bytes()
    newline = blob.index(b"\n")
    header = json.loads(blob[:newline])
    assert header["dtype"] == "<c16" and header["order"] == "C"
    assert header["fields"] == ["A1", "A2", "theta1", "theta2", "phi", "psi"]
    payload = blob[newline + 1:]
    want = sum(int(np.prod(shape)) for shape in header["shapes"].values()) * 16
    assert len(payload) == want

    n_a1 = int(np.prod(header["shapes"]["A1"]))
    a1 = np.frombuffer(payload[: n_a1 * 16], dtype="<c16").reshape(header["shapes"]["A1"])
    assert float(np.max(np.abs(a1 + np.conj(np.swapaxes(a1, -1, -2))))) <= 1e-12

    second = tmp_path / "fields2.bin"
    code, _, _ = run(capsys, vortex_args(**{"--dump-fields": str(second)}))
    assert code == 0
    assert second.read_bytes() == blob


def test_selftest_catches_broken_energy_identity(capsys, monkeypatch) -> None:
    monkeypatch.setattr(higgspairs.vortex, "DEVIATION_WEIGHT", -0.25)
    code, out, _ = run(capsys, ["selftest", "--seed", "0"])
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    by_name = {g["name"]: g["passed"] for g in report["groups"]}
    assert by_name["decomposition_identity"] is False
    assert by_name["gradient_check"] is True


def test_selftest_catches_broken_macdonald_formula(capsys, monkeypatch) -> None:
    # The oracle expands the generating series itself, so a wrong closed
    # form cannot agree with it.
    original = betti._macdonald

    def broken(n: int, g: int):
        poly = original(n, g)
        return poly + LaurentPoly([0, 1]) if n == 3 and g == 2 else poly

    monkeypatch.setattr(betti, "_macdonald", broken)
    code, out, _ = run(capsys, ["selftest", "--seed", "0"])
    assert code == 2
    by_name = {g["name"]: g["passed"] for g in json.loads(out)["groups"]}
    assert by_name == {
        "series_ring_axioms": True,
        "macdonald_oracle": False,
        "decomposition_identity": True,
        "gradient_check": True,
    }


def json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize(
    "argv",
    [
        BETTI_ARGS,
        LARGE_BETTI_ARGS,
        STRATA_ARGS,
        ["stability", "check", "--model", str(GOLDEN / "model_stable.json"), "--tau-bar", "11/4"],
        ["selftest", "--seed", "0"],
        vortex_args(**{"--max-iter": "20"}),
        vortex_args(**{"--rank1": "2", "--max-iter": "20"}),
    ],
    ids=[
        "betti_g2_k5", "betti_g8_k61", "strata", "stability", "selftest", "vortex_1", "vortex_2_1"
    ],
)
def test_json_report_is_json_dumps_of_the_report(argv: list[str]) -> None:
    # Vortex reports have no golden; this is their byte check.
    args = higgspairs.cli.build_parser().parse_args(argv)
    report, pretty, _ = args.fn(args)
    assert higgspairs.cli._render(report, "json", pretty) == json_dumps(report) + "\n"


class Loud(int):
    """An int subclass that prints differently: json writes int.__repr__."""

    def __repr__(self) -> str:
        return "loud"

    __str__ = __repr__


# Report-shaped values: str keys, lists and tuples, big and negative ints,
# bools, None, floats (numpy's too) and strings json must escape, with
# (exponent, coefficient) pair lists and lists that almost are one.
WRITER = settings(max_examples=200, derandomize=True, database=None)
keys = st.text(max_size=4) | st.sampled_from(['"', "\\", "\x00\x1f", "é", "\u2028", "\U0001f600"])
ints = st.integers(-(2**70), 2**70) | st.sampled_from([2**64, -(2**64) - 1, 0, -1, Loud(3)])
floats = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1])
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
)
scalars = st.none() | st.booleans() | ints | floats | keys | st.text()
pairs = st.lists(st.lists(ints, min_size=2, max_size=2), max_size=5)
near_pair = (
    st.tuples(st.booleans(), ints).map(list)
    | st.tuples(ints, st.booleans()).map(list)
    | st.tuples(floats, ints).map(list)
    | st.lists(ints, min_size=1, max_size=1)
    | st.lists(ints, min_size=3, max_size=3)
    | st.tuples(ints, ints)
)
near_pairs = st.tuples(pairs, near_pair | scalars | pairs, pairs).map(
    lambda t: [*t[0], t[1], *t[2]]
)
reports = st.recursive(
    scalars | pairs | near_pairs,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=12,
)


def holding(leaf):
    """Report-shaped values with leaf somewhere inside."""
    return st.recursive(
        st.just(leaf),
        lambda inner: st.tuples(st.lists(scalars | pairs, max_size=2), inner).map(
            lambda t: [*t[0], t[1]]
        )
        | st.tuples(st.dictionaries(keys, scalars | pairs, max_size=2), keys, inner).map(
            lambda t: {**t[0], t[1]: t[2]}
        ),
        max_leaves=4,
    )


@WRITER
@given(reports)
def test_json_writer_matches_json_dumps(obj) -> None:
    assert higgspairs.cli._json_text(obj) == json_dumps(obj)


def csv_rows(obj, prefix: str = "") -> list[tuple[str, str]]:
    """The CSV (path, value) rows of obj, one scalar at a time."""
    if isinstance(obj, dict):
        return [row for key in sorted(obj)
                for row in csv_rows(obj[key], f"{prefix}.{key}" if prefix else str(key))]
    if isinstance(obj, (list, tuple)):
        return [row for i, item in enumerate(obj) for row in csv_rows(item, f"{prefix}[{i}]")]
    if isinstance(obj, bool):
        return [(prefix, "true" if obj else "false")]
    if obj is None:
        return [(prefix, "null")]
    return [(prefix, repr(obj) if isinstance(obj, float) else str(obj))]


@WRITER
@given(reports)
def test_csv_rows_match_the_scalar_walk(obj) -> None:
    # Pair lists take the flattener's fast path; bools, int subclasses and
    # lists that almost are pair lists must still come out scalar by scalar.
    rows: list[tuple[str, str]] = []
    higgspairs.cli._flatten(obj, "", rows)
    assert rows == csv_rows(obj)


@settings(WRITER, max_examples=50)
@given(st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.inf)]).flatmap(holding))
def test_json_writer_refuses_non_finite_floats(obj) -> None:
    with pytest.raises(ValueError) as expected:
        json_dumps(obj)
    with pytest.raises(ValueError) as got:
        higgspairs.cli._json_text(obj)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")


non_str_keys = st.none() | st.booleans() | ints | floats | st.tuples(ints)


@settings(WRITER, max_examples=50)
@given(non_str_keys.map(lambda key: {key: 0}).flatmap(holding))
def test_json_writer_refuses_non_str_keys(obj) -> None:
    with pytest.raises(TypeError):
        higgspairs.cli._json_text(obj)


def test_cli_reads_no_private_library_names() -> None:
    # The CLI speaks to the library through its public names only.
    tree = ast.parse(Path(higgspairs.cli.__file__).read_text(encoding="utf-8"))
    library = {"betti", "series", "stability", "strata", "vortex"}
    private = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in library
            and node.attr.startswith("_")
        ):
            private.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in library:
            private += [
                f"line {node.lineno}: from .{node.module} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert private == []


def test_exact_commands_never_import_numpy() -> None:
    # betti, strata and stability check are pure-integer code: a fresh
    # process that runs all three, each to its golden, must not load numpy,
    # nor ctypes, which only a vortex solve's heap policy uses.
    src = Path(higgspairs.__file__).parents[1]
    runs = [
        BETTI_ARGS + ["--golden", str(GOLDEN / "betti_g2_k5.json")],
        STRATA_ARGS + ["--golden", str(GOLDEN / "strata_g3_k9.json")],
        ["stability", "check", "--model", str(GOLDEN / "model_stable.json"),
         "--tau-bar", "11/4", "--golden", str(GOLDEN / "stability_stable.json")],
    ]
    code = (
        "import io, sys, contextlib\n"
        "from higgspairs.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'ctypes')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point() -> None:
    # The child process imports the package from the tree this test imported.
    src = Path(higgspairs.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "higgspairs"] + STRATA_ARGS,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d_range"] == [5, 6]
