"""Sweep driver: spec parsing, table emission, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import importlib.metadata
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from topoqubit import (
    ConvergenceError,
    DephasingChannel,
    HorizonWarning,
    OhmicEnvironment,
    SpecError,
    __version__,
)
from topoqubit import cli
from topoqubit.cli import (
    DEFAULT_NM_GAMMA0,
    SeriesTable,
    SweepSpec,
    main,
    parse_spec,
    run,
)

from conftest import mp_alpha, mp_i_q

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


def test_file_numbers_echo_as_the_floats_they_stand_for(tmp_path):
    # a float key's JSON int is read as a float, so the echo is the same
    # whichever way the file spells it; integer keys stay integers
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"mode": "qfi-series", "q_values": [3], "gamma0_values": [2],
                             "b": 1, "theta": 1, "t_max": 4, "n_grid": 16, "parallel": 2}))
    spec = parse_spec(path=str(p))
    assert json.dumps(spec.echo_dict(), sort_keys=True) == (
        '{"b": 1.0, "gamma0_values": [2.0], "mode": "qfi-series", "n_grid": 16, '
        '"q_values": [3.0], "t_max": 4.0, "theta": 1.0}')
    assert type(spec.parallel) is int


def test_library_numbers_echo_as_the_floats_they_stand_for(tmp_path):
    # a SweepSpec built in code with integers echoes the bytes of the same
    # spec read from a file
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"mode": "qfi-series", "q_values": [3], "gamma0_values": [2],
                             "t_max": 1, "n_grid": 16}))
    from_file = run(parse_spec(path=str(p)))
    from_code = run(SweepSpec("qfi-series", (3,), (2,), t_max=1, n_grid=16))
    assert from_code.meta["spec"]["q_values"] == [3.0]
    assert type(from_code.meta["spec"]["q_values"][0]) is float
    file_csv, code_csv = io.StringIO(), io.StringIO()
    from_file.write(file_csv)
    from_code.write(code_csv)
    assert code_csv.getvalue() == file_csv.getvalue()


# One value per number key, each past the largest double (10**400 has 1329 bits).
_TOO_LARGE = {"b": 10**400, "t_max": -(10**400), "theta": 10**400,
              "q_values": [1.0, 10**400], "gamma0_values": [10**400]}


@pytest.mark.parametrize("key", _TOO_LARGE)
def test_numbers_too_large_for_a_double_are_spec_errors(tmp_path, capsys, key):
    # a JSON integer has any number of digits; one past the largest double
    # names its key and exits 2, by the file and by the library alike
    value = _TOO_LARGE[key]
    spec = {"mode": "corr-series", "q_values": [1.0], "gamma0_values": [0.5], "n_grid": 16}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(spec | {key: value}))
    assert main(["corr-series", "--spec", str(p)]) == 2
    assert f"spec error: {key}: expected" in capsys.readouterr().err
    spec = spec | {k: tuple(v) for k, v in spec.items() if isinstance(v, list)}
    value = tuple(value) if isinstance(value, list) else value
    with pytest.raises(SpecError, match=f"^{key}: .*range of a double, got a 1329-bit integer"):
        run(SweepSpec(**spec | {key: value}))


def test_spec_file_integer_past_the_digit_limit_is_a_spec_error(tmp_path, capsys):
    p = tmp_path / "huge.json"
    p.write_text('{"mode": "corr-series", "q_values": [1.0], "gamma0_values": [0.5], '
                 '"b": 1' + "0" * 5000 + "}")
    assert main(["corr-series", "--spec", str(p)]) == 2
    assert "too many digits" in capsys.readouterr().err


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
    # nm-scan is charged one default window per combination, whatever its
    # n_grid (it was charged n_grid, so n_grid = 16 let 1280 through)
    for n_grid in (16, 4096):
        with pytest.raises(SpecError, match=re.escape(
                "len(q_values) * len(gamma0_values) * 4096 (nm-scan): must be at most "
                "4194304, got 5242880")):
            parse_spec(mode="nm-scan", overrides={"q_values": [1.0] * 1280,
                                                  "gamma0_values": [1.6], "n_grid": n_grid})


@pytest.mark.parametrize("n_grid", [16, 4096])
def test_nm_scan_budget_counts_combinations(n_grid):
    # nm-scan rows read the window end alone: 1024 combinations pass and
    # 1025 fail at any n_grid
    over = {"gamma0_values": [1.6], "n_grid": n_grid}
    spec = parse_spec(mode="nm-scan", overrides=dict(over, q_values=[3.0] * 1024))
    assert len(spec.q_values) == 1024 and spec.n_grid == n_grid
    with pytest.raises(SpecError, match="got 4198400"):
        parse_spec(mode="nm-scan", overrides=dict(over, q_values=[3.0] * 1025))


def test_parallel_upper_bound():
    # checked by validation alone: no worker pool is started
    over = {"q_values": [1.0], "gamma0_values": [0.5]}
    assert parse_spec(mode="qfi-series", overrides=dict(over, parallel=64)).parallel == 64
    for bad in (0, 65, 10**6):
        with pytest.raises(SpecError, match=r"parallel: must lie in \[1, 64\]"):
            parse_spec(mode="qfi-series", overrides=dict(over, parallel=bad))
    with pytest.raises(SpecError, match="parallel"):
        SweepSpec(mode="nm-scan", q_values=(1.0,), gamma0_values=(1.0,), parallel=65).validate()


@pytest.mark.parametrize("key, bounds", [("n_grid", "[16, 65536]"), ("parallel", "[1, 64]")])
def test_integers_past_the_digit_limit_are_spec_errors(key, bounds):
    # 10**5000 has more digits than the interpreter converts to a string;
    # the range message names its bit length instead of raising ValueError
    spec = SweepSpec("corr-series", (1.0,), (1.0,), **{key: 10**5000})
    for check in (spec.validate, lambda: run(spec)):
        with pytest.raises(SpecError) as got:
            check()
        assert str(got.value) == f"{key}: must lie in {bounds}, got a 16610-bit integer"


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


@pytest.mark.parametrize("mode", ["corr-series", "qfi-series", "state-dump"])
def test_exit_three_at_huge_q_without_overflow_warnings(tmp_path, capsys, mode):
    # at Q = 1e100 the even-Q kernel's 1F1 series can stop only past
    # k = 5e99, beyond its 10000-term budget: it fails before summing, where
    # it summed until a term overflowed and leaked numpy RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main([mode, "--q", "1e100", "--gamma0", "1", "--n-grid", "16",
                   "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == (
        "convergence error: vectorized 1F1 series (a=-5e+99, b=0.5); worst |z|=2500 "
        "did not converge within 10000 terms\n"
    )


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


@pytest.mark.parametrize(
    "q, g0, t_max",
    [
        pytest.param(200.0, 1.0, None, id="q200-g1"),
        pytest.param(169.3, 1.0, None, id="q169.3-g1"),
        pytest.param(169.3, 100.0, None, id="q169.3-g100"),
        pytest.param(100.0, 1000.0, None, id="q100-g1000"),
        pytest.param(172.0, 0.5, None, id="q172-g0.5"),
        pytest.param(3.0, 1e-120, None, id="q3-g1e-120"),
        pytest.param(3.0, 1e-120, 1.0, id="q3-g1e-120-t1"),
    ],
)
def test_finite_exponent_exits_zero(tmp_path, q, g0, t_max):
    # Gamma(Q + 1) of the coupling constant overflows past Q ~ 170.6 and the
    # cutoff powers gamma0 ** (Q +- 1) leave the double range here, while the
    # decoherence exponent 2 B^2 |beta| I_Q, formed in reduced units, does not
    out = tmp_path / "t.csv"
    args = ["corr-series", "--q", str(q), "--gamma0", str(g0), "--n-grid", "16"]
    if t_max is not None:
        args += ["--t-max", str(t_max)]
    assert main(args + ["--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", comments="#", skiprows=3)
    for t, a in rows[:, 2:4]:
        assert a == pytest.approx(mp_alpha(q, g0, 1.0, t), rel=1e-12, abs=0.0)
    if t_max is not None:
        # on t <= 1 the exponent is about 8 pi t^2 / 3: alpha is not 0 or 1
        assert np.all((rows[1:, 3] > 0.0) & (rows[1:, 3] < 1.0))


def test_exit_three_on_cutoff_power_underflow(tmp_path, capsys):
    # the exponent's scale 16 pi B^2 Gamma((Q+1)/2) / (Gamma(Q+1) gamma0^2)
    # overflows at gamma0 = 1e-300
    rc = main(["corr-series", "--q", "3", "--gamma0", "1e-300", "--n-grid", "16",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_default_window_overflow_names_gamma0(tmp_path, capsys):
    # the window 100/gamma0 overflows at gamma0 = 1e-307; the message named
    # t_max = inf, which the spec never set
    rc = main(["corr-series", "--q", "1", "--gamma0", "1e-307", "--n-grid", "16",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "gamma0=1e-307" in err and "t_max" not in err


def test_main_leaves_warning_filters_alone(tmp_path):
    # main warns once through its own "once" filter, then restores ours
    with pytest.warns(HorizonWarning, match="truncated by the window") as record:
        before = list(warnings.filters)
        rc = main(["nm-scan", "--q", "3.0", "--gamma0", "1.6",
                   "--n-grid", "256", "--out", str(tmp_path / "nm.csv")])
        assert rc == 0
        assert warnings.filters == before
    assert len(record) == 1


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
    with pytest.warns(HorizonWarning, match="truncated by the window"):
        rc = main(["nm-scan", "--q", "3.0", "--gamma0", "1.6",
                   "--n-grid", "2048", "--out", str(out)])
    assert rc == 0
    row = out.read_text().splitlines()[3].split(",")
    assert float(row[2]) > 0.0 and float(row[4]) == 1.0


def test_nm_scan_rows_do_not_depend_on_the_grid(tmp_path):
    # at 16 grid points the rows are the 4096-point ones; a search on the
    # window grid opened the revivals at t = 0 here and printed negative
    # n_blp (-0.779, -7.45e-4) and n_lpp with critical_flag 0
    rows = {}
    for n_grid in ("16", "4096"):
        out = tmp_path / f"nm{n_grid}.csv"
        with pytest.warns(HorizonWarning, match="truncated by the window"):
            rc = main(["nm-scan", "--q", "3", "8", "--gamma0", "1", "--b", "0.3",
                       "--n-grid", n_grid, "--out", str(out)])
        assert rc == 0
        rows[n_grid] = out.read_text().splitlines()[3:]
    assert rows["16"] == rows["4096"]
    values = [[float(x) for x in ln.split(",")] for ln in rows["16"]]
    assert [v[2] for v in values] == pytest.approx(
        [0.077208981438980251, 0.00072151313229107394], rel=1e-12, abs=0.0)
    assert [v[4] for v in values] == [1.0, 1.0]


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
    # pool workers return their warnings and the parent re-emits them, so
    # both runs warn alike: nm-scan's truncated revival at Q = 3, once
    caught = []
    for out, extra in ((serial, []), (parallel, ["--parallel", "2"])):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(base + extra + ["--out", str(out)]) == 0
        caught.append([(w.category, str(w.message)) for w in record])
    assert caught[0] == caught[1]
    assert [c for c, _ in caught[1]] == ([HorizonWarning] if mode == "nm-scan" else [])
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


def _writer_case(rows: np.ndarray, case: str) -> np.ndarray:
    # The writer formats a column that is constant over a 256-row block once
    # per block, so the cases place constants against the block seams.
    if case == "constant-column":
        rows[:, 1] = 0.01
    elif case == "constant-in-one-block":
        rows[256:512, 2] = 1.5
    elif case == "one-negative-zero":
        rows[:, 3] = 0.0
        rows[300, 3] = -0.0
    elif case == "one-row-final-block":
        rows = rows[:513]
    elif case == "all-constant":
        rows[:] = (3.0, 0.01, -0.0, 1e-300)
    return rows


_WRITER_CASES = ("mixed", "constant-column", "constant-in-one-block", "one-negative-zero",
                 "one-row-final-block", "all-constant")


def test_csv_matches_per_value_writer(rng):
    base = _writer_table(rng)
    for case in _WRITER_CASES:
        table = SeriesTable(base.columns, _writer_case(base.rows.copy(), case), base.meta)
        fh = io.StringIO()
        table.to_csv(fh)
        text = fh.getvalue()
        assert text == _reference_csv(table), case
        assert np.array_equal(np.loadtxt(io.StringIO(text), delimiter=",", skiprows=3), table.rows)
        lines = text.splitlines()[3:]
        assert len(lines) == len(table.rows)
        if case == "mixed":
            assert lines[0] == "-0,4.9406564584124654e-324,1e+308,3"
        elif case == "one-negative-zero":
            assert lines[300].endswith(",-0") and lines[299].endswith(",0")
        elif case == "one-row-final-block":
            assert lines[-1] == ",".join(format(v, ".17g") for v in table.rows[512])
        elif case == "all-constant":
            assert set(lines) == {"3,0.01,-0,1e-300"}


def test_csv_bytes_do_not_depend_on_the_block_budget(rng, monkeypatch):
    # blocks of 1 row ('%' only), of the whole table (_g17_words only), and
    # of r rows: _g17_words formats the 4 r or 3 r cells of a block whose
    # columns vary, '%' the r of the block where three columns are constant
    # and the 28 of the last block
    r = cli._G17_MIN_CELLS // 2
    rows = rng.normal(size=(5 * r + 7, 4)) * 10.0 ** rng.integers(-30, 30, size=(5 * r + 7, 4))
    rows[r // 2 : 2 * r + r // 2, 0] = 0.25  # constant over block 1, crossing its edges
    rows[2 * r : 4 * r, 1:] = (-0.0, 3.0, 0.0)  # constant over block 2 ...
    rows[3 * r + 5, 1] = 0.0  # ... and in block 3 but for a 0.0 among the -0.0
    rows[4 * r - 1 : 4 * r + 2, 3] = -0.0  # and a -0.0 among the 0.0
    table = SeriesTable(("a", "b", "c", "d"), rows, {"spec": {"mode": "corr-series"}})
    want = _reference_csv(table)
    words = cli._g17_words
    sizes = []
    monkeypatch.setattr(cli, "_g17_words", lambda v, s: sizes.append(len(v)) or words(v, s))
    for budget, blocks in ((1, []), (4 * r, [4 * r, 3 * r, 3 * r, 4 * r]), (10**9, [rows.size])):
        monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", budget)
        sizes.clear()
        fh = io.StringIO()
        table.to_csv(fh)
        assert fh.getvalue() == want, budget
        assert sizes == blocks, budget


_RECIPES = sorted((Path(__file__).resolve().parents[1] / "recipes").glob("*.json"))


@pytest.mark.parametrize("path", _RECIPES, ids=[p.stem for p in _RECIPES])
def test_recipe_csv_matches_per_value_writer(path):
    # the recipes' own value mix: long zero runs, QFI values near 1e-293
    # (fig7) and nm-scan's tiny backflows
    table = run(parse_spec(str(path)))
    fh = io.StringIO()
    table.to_csv(fh)
    assert fh.getvalue() == _reference_csv(table)


def _g17_cells(values: np.ndarray) -> list[str]:
    # The text cli._g17_words lays out for each value, its ',' dropped.
    words = cli._g17_words(values).astype("<u8")
    return words.tobytes().translate(None, b"\0").decode("ascii").split(",")[:-1]


def _oracle_doubles(rng) -> np.ndarray:
    # 1.2e6 doubles of the kinds that stress 17-digit text: random bit
    # patterns (both signs, every binary exponent), and with both signs
    # subnormals, every 10**k with both neighbours, integers, dyadic ties and
    # short decimals.
    bits = rng.integers(0, 2**64, size=600_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, size=30_000, dtype=np.int64).view(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    integers = np.concatenate([
        rng.integers(-10**6, 10**6, size=50_000),
        rng.integers(-2**62, 2**62, size=100_000),
        rng.integers(10**16 - 10**4, 10**16 + 10**4, size=10_000),
        rng.integers(10**17 - 10**5, 10**17 + 10**5, size=10_000),
    ]).astype(np.float64)
    # n + j / 2**k with 18 - k digits in n and j odd: exactly 18 significant
    # digits, the last a 5, so the 17th is a tie that rounds to even
    ties = []
    for k in range(2, 18):
        n = rng.integers(10 ** (17 - k), min(10 ** (18 - k), 2 ** (53 - k)), size=4_000)
        j = 2 * rng.integers(0, 2 ** (k - 1), size=4_000) + 1
        ties.append(n + j / 2.0**k)
    mantissas = rng.integers(1, 10**6, size=60_000).tolist()
    exponents = rng.integers(-330, 300, size=60_000).tolist()
    short = np.array([float(f"{m}e{e}") for m, e in zip(mantissas, exponents)])
    others = np.concatenate([subnormal, powers, integers, *ties, short])
    return np.concatenate([bits[np.isfinite(bits)], others, -others])


def test_g17_words_match_format_on_a_million_doubles(rng):
    values = _oracle_doubles(rng)
    assert values.size > 10**6
    for chunk in np.array_split(values, 16):
        got = ",".join(_g17_cells(chunk))
        want = ",".join(map(format, chunk.tolist(), repeat(".17g")))
        if got != want:
            cells = [(v, g, w) for v, g, w in zip(chunk.tolist(), got.split(","), want.split(","))]
            pytest.fail("value, got, want: %r" % next(c for c in cells if c[1] != c[2]))


@pytest.mark.parametrize("value, text", [
    (2251799813685247.75, "2251799813685247.8"),  # exact ties: half to even
    (2251799813685246.25, "2251799813685246.2"),
    (5e-324, "4.9406564584124654e-324"),
    (-1.7976931348623157e308, "-1.7976931348623157e+308"),
    (-0.0, "-0"),
    (1e16, "10000000000000000"),
    (1e17, "1e+17"),
    (0.0001, "0.0001"),
    (1e-5, "1.0000000000000001e-05"),
    (123.5, "123.5"),
])
def test_g17_edge_cells(value, text):
    assert format(value, ".17g") == text
    assert _g17_cells(np.array([value, 1.5])) == [text, "1.5"]
    # a block of 4 varying cells is written by one '%' call, one of
    # 2 * _G17_MIN_CELLS by _g17_words
    for n_rows in (2, cli._G17_MIN_CELLS):
        rows = np.ones((n_rows, 2))
        rows[0, 0] = rows[1, 1] = value
        fh = io.StringIO()
        SeriesTable(("a", "b"), rows).to_csv(fh)
        lines = fh.getvalue().splitlines()[3:]
        assert lines == [f"{text},1", f"1,{text}"] + ["1,1"] * (n_rows - 2)


def _carrying_doubles() -> np.ndarray:
    # The normal doubles below a power of ten 10**k whose 17-digit rounding is
    # 10**k itself: the nearest double to 10**k, where it is that close.
    found = []
    for k in range(-307, 309):
        v, exact = float(f"1e{k}"), Fraction(10) ** k
        if Fraction(v) < exact and round(Fraction(v) / exact * 10**17) == 10**17:
            found.append(v)
    return np.array(found)


def test_g17_carry_to_the_next_power_of_ten(monkeypatch):
    # np.log10 rounds these |v| up to k, so the formatter sends them through
    # '%.17g'; a log10 that rounds down there gives e = k - 1 and digits
    # 10**17 - 1 that round up to 10**17 (a carry to "1" at exponent k), and
    # those go through '%.17g' too
    carrying = _carrying_doubles()
    assert carrying.size == 14
    log10 = np.log10

    def rounds_down(a, out=None):
        x = log10(a, out=out)
        hit = np.isin(a, carrying)
        x[hit] = np.nextafter(x[hit], -np.inf)
        return x

    monkeypatch.setattr(np, "log10", rounds_down)
    values = np.concatenate([carrying, -carrying])
    want = [format(v, ".17g") for v in values.tolist()]
    assert _g17_cells(values) == want
    rows = np.ones((cli._G17_MIN_CELLS, 2))
    rows[: values.size, 0] = values
    fh = io.StringIO()
    SeriesTable(("a", "b"), rows).to_csv(fh)
    assert fh.getvalue().splitlines()[3 : 3 + values.size] == [f"{t},1" for t in want]


def test_g17_powers_of_ten_are_double_doubles():
    # 10**(16 - e) 2**h = hi + lo to 1e-30 relative, 2**-h = down
    for e, down, hi, lo in zip(range(-324, 309), cli._POW2_DOWN, cli._POW10_HI, cli._POW10_LO):
        exact = Fraction(10) ** (16 - e) / Fraction(down)
        assert abs((Fraction(hi) + Fraction(lo)) / exact - 1) < Fraction(1, 10**30), e


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


def test_main_twice_carries_no_parsed_value(tmp_path, monkeypatch, capsys):
    # The parser is built once per process; every call must parse afresh.
    seen = []

    def record(spec):
        seen.append(spec)
        return SeriesTable(("q",), np.zeros((1, 1)), {"format": spec.format})

    monkeypatch.setattr(cli, "run", record)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"b": 0.25, "n_grid": 20}))
    assert main(["corr-series", "--spec", str(spec_file), "--q", "2.0", "3.0",
                 "--gamma0", "0.5", "--theta", "1.0", "--t-max", "4.0",
                 "--format", "json", "--parallel", "2",
                 "--out", str(tmp_path / "first.json")]) == 0
    for mode in ("qfi-series", "corr-series"):
        assert main([mode, "--q", "1.0", "--gamma0", "2.0"]) == 0
    assert seen[0] == SweepSpec("corr-series", (2.0, 3.0), (0.5,), b=0.25, theta=1.0,
                                t_max=4.0, n_grid=20, format="json",
                                output_path=str(tmp_path / "first.json"), parallel=2)
    assert seen[1:] == [SweepSpec("qfi-series", (1.0,), (2.0,)),
                        SweepSpec("corr-series", (1.0,), (2.0,))]
    assert capsys.readouterr().out.startswith("# tool: topoqubit")
    assert cli._build_parser() is cli._build_parser()


_NO_OPTIONS = dict.fromkeys(
    ("spec", "q_values", "gamma0_values", "b", "theta", "t_max", "n_grid", "output_path",
     "format", "parallel")
)


@pytest.mark.parametrize("argv, want", [
    (["nm-scan", "--q", "0.5", "3", "--gamma0", "1.6"],
     {"mode": "nm-scan", "q_values": [0.5, 3.0], "gamma0_values": [1.6]}),
    (["corr-series", "--spec", "recipes/fig4.json", "--out", "corr.csv", "--parallel", "2"],
     {"mode": "corr-series", "spec": "recipes/fig4.json", "output_path": "corr.csv",
      "parallel": 2}),
    (["qfi-series", "--q", "1", "--gamma0", "0.01", "--b", "0.25", "--theta", "1.0",
      "--t-max", "4", "--n-grid", "32", "--format", "json"],
     {"mode": "qfi-series", "q_values": [1.0], "gamma0_values": [0.01], "b": 0.25,
      "theta": 1.0, "t_max": 4.0, "n_grid": 32, "format": "json"}),
    (["state-dump", "--q", "3.0", "--gamma0", "1.6", "--n-grid", "64", "--format", "json"],
     {"mode": "state-dump", "q_values": [3.0], "gamma0_values": [1.6], "n_grid": 64,
      "format": "json"}),
    (["nm-scan"], {"mode": "nm-scan"}),
    # options may come before the mode too
    (["--n-grid", "64", "--spec", "s.json", "state-dump", "--q", "3.0"],
     {"mode": "state-dump", "spec": "s.json", "n_grid": 64, "q_values": [3.0]}),
])
def test_parser_reads_every_mode_as_before(argv, want):
    # the values the per-mode subparsers gave, each under the spec key its
    # flag sets: the mode, --spec and the nine keys, None where not given
    assert vars(cli._build_parser().parse_args(argv)) == dict(_NO_OPTIONS, **want)


def test_every_spec_key_is_a_flag_dest_and_a_file_key(tmp_path):
    keys = [f.name for f in dataclasses.fields(SweepSpec)]
    dests = {action.dest for action in cli._build_parser()._actions}
    assert set(keys) <= dests
    values = {"mode": "qfi-series", "q_values": (3.0,), "gamma0_values": (1.6,), "b": 0.5,
              "theta": 1.0, "t_max": 4.0, "n_grid": 32, "format": "json",
              "output_path": "out.json", "parallel": 2}
    assert sorted(values) == sorted(keys)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(values))
    assert parse_spec(path=str(spec_file)) == SweepSpec(**values)
    # the echo: every key but the three that say how a run executes
    assert set(SweepSpec(**values).echo_dict()) == set(keys) - {"format", "output_path", "parallel"}


@pytest.mark.parametrize("key, value, message", [
    ("n_grid", 64.0, "n_grid: expected an integer, got 64.0"),
    ("q_values", ("3",), "q_values: expected numbers, got '3'"),
    ("parallel", 2.0, "parallel: expected an integer, got 2.0"),
    ("b", True, "b: expected a number, got True"),
    ("format", 1, "format: expected a string, got 1"),
], ids=["n_grid", "q_values", "parallel", "b", "format"])
def test_library_spec_is_checked_as_the_file_is(key, value, message):
    # run(SweepSpec(...)) raised numpy's or math's TypeError for these
    spec = SweepSpec("corr-series", (1.0,), (0.5,), t_max=1.0, n_grid=16)
    with pytest.raises(SpecError) as got:
        run(dataclasses.replace(spec, **{key: value}))
    assert str(got.value) == message
    with pytest.raises(SpecError) as want:
        parse_spec(mode="corr-series", overrides={"q_values": [1.0], "gamma0_values": [0.5],
                                                  "t_max": 1.0, "n_grid": 16, key: value})
    assert str(want.value) == message


def test_parser_rejects_unknown_or_missing_mode(capsys):
    for argv in (["bogus", "--q", "1.0"], [], ["--q", "1.0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    # each mode's help stays in --help
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for mode, (_, _, help_text) in cli._MODES.items():
        assert f"{mode}: {help_text}" in text


def test_import_leaves_process_pool_unloaded():
    # The pool is imported only by a run with more than one worker.
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, topoqubit.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
