"""Sweep driver: spec parsing, table emission, exit codes, determinism."""

from __future__ import annotations

import importlib.metadata
import io
import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from topoqubit import (
    ConvergenceError,
    DephasingChannel,
    OhmicEnvironment,
    SpecError,
    __version__,
)
from topoqubit.cli import (
    DEFAULT_NM_GAMMA0,
    SeriesTable,
    SweepSpec,
    main,
    parse_spec,
    run,
)

from conftest import mp_i_q

pytestmark = pytest.mark.filterwarnings("ignore::topoqubit.HorizonWarning")


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def test_parse_spec_defaults():
    spec = parse_spec(mode="nm-scan", overrides={"q_values": [1.0, 3.0]})
    assert spec.mode == "nm-scan"
    assert spec.q_values == (1.0, 3.0)
    assert spec.gamma0_values == DEFAULT_NM_GAMMA0
    assert spec.b == 1.0
    assert spec.theta == pytest.approx(math.pi / 2.0)
    assert spec.format == "csv"


def test_parse_spec_file_and_override_precedence(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({
        "mode": "corr-series",
        "q_values": [1.0],
        "gamma0_values": [0.5],
        "b": 0.25,
        "n_grid": 64,
    }))
    spec = parse_spec(path=str(p), mode="corr-series", overrides={"b": 0.75})
    assert spec.b == 0.75                    # flag wins
    assert spec.n_grid == 64                 # file value survives
    assert spec.gamma0_values == (0.5,)


def test_parse_spec_rejections(tmp_path):
    with pytest.raises(SpecError):
        parse_spec(mode="corr-series")                       # q_values required
    with pytest.raises(SpecError):
        parse_spec(mode="bogus", overrides={"q_values": [1.0]})
    with pytest.raises(SpecError):
        parse_spec(mode="corr-series",
                   overrides={"q_values": [1.0], "gamma0_values": [0.5], "theta": 9.0})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError):
        parse_spec(path=str(bad), mode="nm-scan")
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"mode": "nm-scan", "q_values": [1.0], "zzz": 1}))
    with pytest.raises(SpecError):
        parse_spec(path=str(unknown), mode="nm-scan")
    conflicting = tmp_path / "conflict.json"
    conflicting.write_text(json.dumps({"mode": "nm-scan", "q_values": [1.0]}))
    with pytest.raises(SpecError):
        parse_spec(path=str(conflicting), mode="qfi-series")
    with pytest.raises(FileNotFoundError):
        parse_spec(path=str(tmp_path / "missing.json"), mode="nm-scan")


def test_n_grid_upper_bound(capsys):
    over = {"q_values": [1.0], "gamma0_values": [0.5]}
    assert parse_spec(mode="corr-series", overrides=dict(over, n_grid=65536)).n_grid == 65536
    with pytest.raises(SpecError, match="n_grid"):
        parse_spec(mode="corr-series", overrides=dict(over, n_grid=65537))
    # rejected before any grid is allocated
    assert main(["corr-series", "--q", "1.0", "--gamma0", "0.5",
                 "--n-grid", "100000000"]) == 2
    assert "spec error: n_grid" in capsys.readouterr().err


def test_grid_points_upper_bound(capsys):
    # 64 * 64 * 1024 = 2**22 grid points pass; one more grid point per combo does not
    over = {"q_values": [1.0] * 64, "gamma0_values": [0.5] * 64}
    assert parse_spec(mode="corr-series", overrides=dict(over, n_grid=1024)).n_grid == 1024
    with pytest.raises(SpecError, match="n_grid: must be at most 4194304, got 4198400"):
        parse_spec(mode="corr-series", overrides=dict(over, n_grid=1025))
    with pytest.raises(SpecError, match="got 5242880"):
        parse_spec(mode="nm-scan", overrides={"q_values": [1.0] * 1280, "gamma0_values": [1.6],
                                              "n_grid": 4096})


def test_parallel_upper_bound():
    # checked by validation alone: no worker pool is started
    over = {"q_values": [1.0], "gamma0_values": [0.5]}
    assert parse_spec(mode="qfi-series", overrides=dict(over, parallel=64)).parallel == 64
    for bad in (0, 65, 10**6):
        with pytest.raises(SpecError, match=r"parallel: must lie in \[1, 64\]"):
            parse_spec(mode="qfi-series", overrides=dict(over, parallel=bad))
    with pytest.raises(SpecError, match="parallel"):
        SweepSpec(mode="nm-scan", q_values=(1.0,), gamma0_values=(1.0,), parallel=65).validate()


def test_runner_rejects_foreign_mode():
    spec = SweepSpec(mode="bogus", q_values=(1.0,), gamma0_values=(1.0,))
    with pytest.raises(SpecError):
        run(spec)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_zero_and_csv_shape(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["corr-series", "--q", "1.0", "--gamma0", "1.0",
               "--t-max", "2.0", "--n-grid", "32", "--out", str(out)])
    assert rc == 0
    assert "wall time" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[0] == f"# tool: topoqubit {__version__}"
    assert lines[1].startswith("# spec: ")
    assert lines[2] == "q,gamma0,t,alpha,concurrence,discord,lqu,tnd,coherence_l1"
    rows = [ln.split(",") for ln in lines[3:]]
    assert len(rows) == 32
    first = [float(x) for x in rows[0]]
    # t = 0: full coherence, maximal entanglement, no dephasing yet
    assert first[2] == 0.0 and first[3] == 1.0
    assert first[4] == 1.0 and first[8] == 1.0
    for row in rows:
        assert all(np.isfinite(float(x)) for x in row)


def test_exit_two_on_bad_spec(capsys):
    assert main(["corr-series", "--gamma0", "1.0"]) == 2          # no --q
    assert main(["corr-series", "--q", "1.0", "--gamma0", "1.0",
                 "--theta", "9.0"]) == 2
    assert "spec error" in capsys.readouterr().err


def test_exit_three_on_convergence_failure(tmp_path, capsys):
    # t gamma0 = 1e200 squares past the double range: the kernel has no
    # series at u = inf and fails before summing any
    out = tmp_path / "t.csv"
    rc = main(["corr-series", "--q", "3.0", "--gamma0", "1.0",
               "--t-max", "1e200", "--n-grid", "16", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error" in err
    assert "convergence error" in err


def test_wide_window_exits_zero(tmp_path):
    # t gamma0 up to 1e7 (u = 2.5e13) needed ~u series terms before the
    # large-u expansion; it now runs, and alpha matches the 40-digit kernel
    out = tmp_path / "t.csv"
    rc = main(["corr-series", "--q", "3.0", "--gamma0", "1.0",
               "--t-max", "1e7", "--n-grid", "16", "--out", str(out)])
    assert rc == 0
    c = 2.0 * DephasingChannel(OhmicEnvironment(3.0, 1.0), 1.0).beta_abs
    rows = [ln.split(",") for ln in out.read_text().splitlines()[3:]]
    assert len(rows) == 16
    for row in rows[1:]:
        t, a = float(row[2]), float(row[3])
        assert a == pytest.approx(math.exp(-c * mp_i_q(3.0, 1.0, t)), rel=1e-12, abs=0.0)


def test_exit_three_on_gamma_overflow(tmp_path, capsys):
    # Gamma(Q + 1) in the coupling constant overflows past Q ~ 170.6
    base = ["corr-series", "--gamma0", "1.0", "--n-grid", "16"]
    assert main(base + ["--q", "200", "--out", str(tmp_path / "a.csv")]) == 3
    assert "numerical error" in capsys.readouterr().err
    assert main(base + ["--q", "169.3", "--out", str(tmp_path / "b.csv")]) == 0


def test_exit_three_on_cutoff_power_overflow(tmp_path, capsys):
    # gamma0 ** (Q - 1) = 100 ** 168.3 overflows although the decoherence
    # exponent 2 B^2 |beta| I_Q is finite
    rc = main(["corr-series", "--q", "169.3", "--gamma0", "100", "--n-grid", "16",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_exit_three_on_cutoff_power_underflow(tmp_path, capsys):
    # gamma0 ** (Q - 1) = (1e-300) ** 2 underflows to 0, and so would the
    # gamma0 ** (Q + 1) that beta divides by
    rc = main(["corr-series", "--q", "3", "--gamma0", "1e-300", "--n-grid", "16",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_main_leaves_warning_filters_alone(tmp_path):
    before = list(warnings.filters)
    rc = main(["nm-scan", "--q", "3.0", "--gamma0", "1.6",
               "--n-grid", "256", "--out", str(tmp_path / "nm.csv")])
    assert rc == 0
    assert warnings.filters == before


def test_exit_four_on_io_failure(tmp_path, capsys):
    rc = main(["corr-series", "--q", "1.0", "--gamma0", "1.0",
               "--t-max", "1.0", "--n-grid", "16",
               "--out", str(tmp_path / "no_such_dir" / "t.csv")])
    assert rc == 4
    rc = main(["nm-scan", "--spec", str(tmp_path / "missing.json")])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def test_nm_scan_markovian_row(tmp_path):
    out = tmp_path / "nm.csv"
    rc = main(["nm-scan", "--q", "1.0", "--gamma0", "1.0",
               "--n-grid", "1024", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "q,gamma0,n_blp,n_lpp,critical_flag"
    q, g0, n_blp, n_lpp, flag = (float(x) for x in lines[3].split(","))
    assert (q, g0) == (1.0, 1.0)
    assert n_blp == 0.0 and n_lpp == 0.0 and flag == 0.0


def test_nm_scan_critical_row(tmp_path):
    out = tmp_path / "nm.csv"
    rc = main(["nm-scan", "--q", "3.0", "--gamma0", "1.6",
               "--n-grid", "2048", "--out", str(out)])
    assert rc == 0
    row = out.read_text().splitlines()[3].split(",")
    assert float(row[2]) > 0.0 and float(row[4]) == 1.0


def test_qfi_series_gap_column(tmp_path):
    out = tmp_path / "qfi.csv"
    rc = main(["qfi-series", "--q", "3.0", "--gamma0", "1.6",
               "--t-max", "10.0", "--n-grid", "64", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "q,gamma0,t,f_closed,f_general,rel_gap"
    for ln in lines[3:]:
        vals = [float(x) for x in ln.split(",")]
        if vals[3] > 1e-280:
            assert vals[5] <= 1e-8


def test_state_dump_is_valid_state(tmp_path):
    out = tmp_path / "dump.csv"
    rc = main(["state-dump", "--q", "1.0", "--gamma0", "1.0",
               "--t-max", "3.0", "--n-grid", "16", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    cols = lines[2].split(",")
    assert cols[:7] == ["q", "gamma0", "t", "rho11", "rho22", "rho33", "rho44"]
    assert "re_rho14" in cols and "im_rho23" in cols
    for ln in lines[3:]:
        v = dict(zip(cols, (float(x) for x in ln.split(","))))
        assert v["rho11"] + v["rho22"] + v["rho33"] + v["rho44"] == pytest.approx(1.0, abs=1e-12)
        # the Bell-like family keeps only the anti-diagonal coherence
        assert v["re_rho12"] == 0.0 and v["im_rho14"] == 0.0
        assert v["re_rho14"] >= 0.0


def test_json_format(tmp_path):
    out = tmp_path / "t.json"
    rc = main(["corr-series", "--q", "1.0", "--gamma0", "1.0",
               "--t-max", "1.0", "--n-grid", "16", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tool"] == "topoqubit"
    assert doc["meta"]["version"] == __version__
    assert doc["meta"]["spec"]["mode"] == "corr-series"
    assert doc["columns"][0] == "q"
    assert len(doc["rows"]) == 16
    assert all(len(r) == len(doc["columns"]) for r in doc["rows"])


def test_stdout_when_no_out_path(capsys):
    rc = main(["corr-series", "--q", "1.0", "--gamma0", "1.0",
               "--t-max", "1.0", "--n-grid", "16"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# tool: topoqubit")
    assert "wall time" in captured.err


# ---------------------------------------------------------------------------
# determinism and reproducibility
# ---------------------------------------------------------------------------

def test_parallel_output_is_byte_identical(tmp_path):
    base = ["corr-series", "--q", "1.0", "3.0", "--gamma0", "0.5",
            "--t-max", "5.0", "--n-grid", "64"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(base + ["--parallel", "1", "--out", str(serial)]) == 0
    assert main(base + ["--parallel", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("mode", ["nm-scan", "qfi-series", "state-dump"])
def test_stacked_modes_parallel_byte_identical(tmp_path, mode):
    # corr-series: test_parallel_output_is_byte_identical
    base = [mode, "--q", "1.0", "3.0", "--gamma0", "0.5", "1.6", "--theta", "1.1",
            "--t-max", "5.0", "--n-grid", "64"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--parallel", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


# ---------------------------------------------------------------------------
# table writer
# ---------------------------------------------------------------------------

def _reference_csv(table: SeriesTable) -> str:
    # The per-value writer: one format(v, ".17g") per cell.
    fh = io.StringIO()
    fh.write(f"# tool: topoqubit {__version__}\n")
    fh.write("# spec: " + json.dumps(table.meta.get("spec", {}), sort_keys=True) + "\n")
    fh.write(",".join(table.columns) + "\n")
    for row in table.rows.tolist():
        fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    return fh.getvalue()


def _writer_table(rng) -> SeriesTable:
    # 700 rows: two full 256-row blocks and a partial one
    rows = rng.normal(size=(700, 4)) * 10.0 ** rng.integers(-300, 300, size=(700, 4))
    rows[0] = (-0.0, 5e-324, 1e308, 3.0)
    rows[255] = (-1.0, 0.0, 2.0**53, -1e-308)
    rows[256] = (0.1, 1.0 / 3.0, -5e-324, 12345.0)
    rows[699] = (-1e308, 1.0, 0.0, -0.0)
    spec = {"mode": "corr-series", "theta": 0.5}
    return SeriesTable(("q", "gamma0", "t", "lqu"), rows, {"spec": spec})


def test_csv_matches_per_value_writer(rng):
    table = _writer_table(rng)
    fh = io.StringIO()
    table.to_csv(fh)
    text = fh.getvalue()
    assert text == _reference_csv(table)
    assert "\n-0,4.9406564584124654e-324,1e+308,3\n" in text
    assert np.array_equal(np.loadtxt(io.StringIO(text), delimiter=",", skiprows=3), table.rows)


def test_json_rows_are_the_table_values(rng):
    table = _writer_table(rng)
    fh = io.StringIO()
    table.to_json(fh)
    doc = json.loads(fh.getvalue())
    assert doc["rows"] == [list(row) for row in table.rows.tolist()]
    assert np.array_equal(np.array(doc["rows"]), table.rows)


@pytest.mark.parametrize("cells, want", [
    ({(517, 3): math.nan, (600, 0): -math.inf}, "non-finite value nan in column 'lqu', row 517"),
    ({(517, 3): math.nan, (517, 1): math.inf}, "non-finite value inf in column 'gamma0', row 517"),
    ({(699, 2): -math.inf}, "non-finite value -inf in column 't', row 699"),
])
def test_non_finite_cell_named_in_both_formats(rng, cells, want):
    table = _writer_table(rng)
    for (i, j), v in cells.items():
        table.rows[i, j] = v
    for write in (table.to_csv, table.to_json):
        fh = io.StringIO()
        with pytest.raises(ConvergenceError) as exc:
            write(fh)
        assert str(exc.value) == want
        assert fh.getvalue() == ""


def test_metadata_line_reproduces_run(tmp_path):
    first = tmp_path / "first.csv"
    rc = main(["qfi-series", "--q", "2.0", "--gamma0", "1.0",
               "--t-max", "4.0", "--n-grid", "32", "--out", str(first)])
    assert rc == 0
    spec_line = first.read_text().splitlines()[1]
    spec_json = spec_line.removeprefix("# spec: ")
    spec_file = tmp_path / "replay.json"
    spec_file.write_text(spec_json)
    second = tmp_path / "second.csv"
    rc = main(["qfi-series", "--spec", str(spec_file), "--out", str(second)])
    assert rc == 0
    assert first.read_bytes() == second.read_bytes()


def _declared_script() -> str:
    """The ``topoqubit`` target declared under ``[project.scripts]``."""
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["topoqubit"]


def test_console_script_installed(tmp_path):
    """The ``topoqubit`` command runs a sweep and writes a tagged table.

    Installed, the generated script must be on PATH and its entry point
    must be the one ``pyproject.toml`` declares. In a source checkout
    nothing is installed, so the declared target is run the way the
    generated script runs it, in a fresh interpreter.
    """
    out = tmp_path / "cli.csv"
    args = ["corr-series", "--q", "1.0", "--gamma0", "1.0",
            "--t-max", "1.0", "--n-grid", "16", "--out", str(out)]
    try:
        dist = importlib.metadata.distribution("topoqubit")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is not None:
        if sys.version_info >= (3, 11):  # Python 3.10 has no tomllib
            entry = [ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts" and ep.name == "topoqubit"]
            assert entry == [_declared_script()]
        exe = shutil.which("topoqubit")
        assert exe is not None, "console script should be on PATH after install"
        cmd = [exe]
    else:
        module, _, func = _declared_script().partition(":")
        cmd = [sys.executable, "-c",
               f"import sys\nfrom {module} import {func}\n"
               f"sys.argv[0] = 'topoqubit'\nsys.exit({func}())"]
    proc = subprocess.run(cmd + args, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert out.read_text().startswith("# tool: topoqubit")
