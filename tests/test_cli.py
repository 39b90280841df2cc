"""Command-line interface: formats, exit codes, goldens, field dumps."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import higgspairs.vortex
from higgspairs.cli import main

GOLDEN = Path(__file__).parent / "golden"

BETTI_ARGS = ["betti", "--genus", "2", "--degree", "5", "--tau-bar", "11/4"]
STRATA_ARGS = ["strata", "--genus", "3", "--degree", "9", "--tau-bar", "19/4"]


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_matches_golden(capsys) -> None:
    code, _, _ = run(capsys, BETTI_ARGS + ["--golden", str(GOLDEN / "betti_g2_k5.json")])
    assert code == 0


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
    target = tmp_path / "fresh.json"
    code, out, _ = run(capsys, BETTI_ARGS + ["--write-golden", str(target)])
    assert code == 0
    assert target.read_text() == out
    code, _, _ = run(capsys, BETTI_ARGS + ["--golden", str(target)])
    assert code == 0


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
    assert report["residual"] <= 1e-12
    assert report["params"]["tau_prime"] == -1.0
    assert "note" not in report


def test_vortex_negative_tau_reports_floor(capsys) -> None:
    code, out, _ = run(capsys, vortex_args(**{"--tau": "-1.0", "--max-iter": "500"}))
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is False
    assert "tau^2*vol/8" in report["note"]
    assert report["residual"] >= 0.999 * (1.0 / 8.0)


def test_vortex_rejects_bad_grid(capsys) -> None:
    code, _, _ = run(capsys, vortex_args(**{"--grid": "2"}))
    assert code == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tau", "nan"),
        ("--vol", "inf"),
        ("--amplitude", "inf"),
        ("--tol", "nan"),
        ("--tol", "-0.5"),
        ("--max-iter", "-5"),
    ],
)
def test_vortex_rejects_bad_number(capsys, flag: str, value: str) -> None:
    code, out, err = run(capsys, vortex_args(**{flag: value}))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "InvalidParamsError"
    assert flag in json.loads(err)["message"]


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


def test_module_entry_point() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "higgspairs"] + STRATA_ARGS,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d_range"] == [5, 6]
