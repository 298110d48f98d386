"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; each test name carries its
criterion number, and each test prints ``[criterion NN] label: PASS`` (visible
with ``-s`` or on failure).  Two expected failures are marked strict-xfail:
at full field strength and weak cutoff the decoherence exponent reaches ~1e5
before the first revival, so the coherence factor underflows to exact zero in
double precision and no backflow or rebirth can survive there.  Companion
assertions cover the same physics at a field the arithmetic can represent;
if the xfailed points ever start passing, the strict marker fails the suite
so the change gets noticed.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from topoqubit import (
    DensityMatrix2,
    DensityMatrix4,
    DephasingChannel,
    HorizonWarning,
    OhmicEnvironment,
    TimeWindow,
    alpha,
    blp,
    bloch_affine_map,
    cb,
    coherence_l1,
    concurrence_evolved,
    concurrence_x,
    critical_q_scan,
    dalpha_db,
    dalpha_dt,
    dhyp1f1_dz,
    dhyp2f2_11_32_2_dz,
    di_q_dt,
    discord_closed,
    discord_x,
    drho_db,
    evolve_pair,
    evolve_single,
    evolved_x_state,
    hyp1f1,
    hyp2f2_11_32_2,
    i_q,
    lqu_closed,
    lqu_x,
    qfi_closed,
    qfi_general,
    tnd_x,
    trace_distance,
)
from topoqubit.cli import main as cli_main
from conftest import mp_hyp1f1, mp_hyp2f2, random_density, richardson_derivative

pytestmark = pytest.mark.filterwarnings("ignore::topoqubit.HorizonWarning")

HALF_PI = math.pi / 2.0
MARKOVIAN_GRID = [(q, g0) for g0 in (0.01, 0.1, 1.6, 5.0) for q in (0.5, 1.0, 1.5, 2.0)]


def _emit(number: int, label: str, ok: bool, note: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    if note:
        verdict += f" ({note})"
    print(f"[criterion {number:02d}] {label}: {verdict}")


def chan(q: float, g0: float, b: float) -> DephasingChannel:
    return DephasingChannel(OhmicEnvironment(q, g0), b)


# ---------------------------------------------------------------------------
# 1. revival threshold at Q = 2
# ---------------------------------------------------------------------------

def test_criterion_01_threshold_markovian_side():
    t0 = time.monotonic()
    worst = 0.0
    for q, g0 in MARKOVIAN_GRID:
        worst = max(worst, blp(chan(q, g0, 1.0), TimeWindow.for_cutoff(g0)))
    fired = {}
    for g0 in (1.6, 5.0):
        w = TimeWindow.for_cutoff(g0)
        fired[g0] = max(blp(chan(q, g0, 1.0), w) for q in (2.5, 3.0, 4.0))
    wall = time.monotonic() - t0
    ok = worst < 1e-10 and all(v > 1e-6 for v in fired.values()) and wall < 60.0
    _emit(1, "no backflow at or below Q = 2; revivals above it", ok,
          f"worst markovian {worst:.1e}, fired {min(fired.values()):.1e}, {wall:.0f}s")
    assert worst < 1e-10
    assert all(v > 1e-6 for v in fired.values())
    assert wall < 60.0


@pytest.mark.xfail(strict=True, reason=(
    "at B = 1 and gamma0 <= 0.1 the decoherence exponent reaches ~1e4-1e5 "
    "before the first revival; alpha underflows to exact zero in double "
    "precision, so no backflow is representable at these two cutoffs"))
def test_criterion_01_revival_existence_weak_cutoffs():
    fired = {}
    for g0 in (0.01, 0.1):
        w = TimeWindow.for_cutoff(g0)
        fired[g0] = max(blp(chan(q, g0, 1.0), w) for q in (2.5, 3.0, 4.0))
    ok = all(v > 1e-6 for v in fired.values())
    _emit(1, "revivals above Q = 2 at weak cutoffs, full field", ok,
          "" if ok else "expected: alpha underflows to 0 at B = 1")
    assert ok


def test_criterion_01_weak_cutoff_companion():
    # same environments fire once the field is scaled with the cutoff
    vals = [
        blp(chan(3.0, 0.01, 0.002175), TimeWindow.for_cutoff(0.01)),
        blp(chan(3.0, 0.1, 0.02175), TimeWindow.for_cutoff(0.1)),
    ]
    ok = all(v > 1e-6 for v in vals)
    _emit(1, "weak-cutoff revivals at representable field", ok,
          f"blp {vals[0]:.3e}, {vals[1]:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# 2. critical exponent falls as the cutoff grows
# ---------------------------------------------------------------------------

def test_criterion_02_critical_q_monotone_in_cutoff():
    weak = critical_q_scan(0.01)
    strong = critical_q_scan(1.6)
    ok = (weak is not None and strong is not None
          and weak >= strong >= 2.0 - 1e-3)
    _emit(2, "critical Q decreases with cutoff, never below 2", ok,
          f"q_c(0.01) = {weak}, q_c(1.6) = {strong}")
    assert ok


# ---------------------------------------------------------------------------
# 3. coherence witness coincides with trace-distance witness
# ---------------------------------------------------------------------------

def test_criterion_03_witness_coincidence():
    worst = 0.0
    grid = MARKOVIAN_GRID + [(3.0, 1.6), (3.0, 5.0)]
    for q, g0 in grid:
        w = TimeWindow.for_cutoff(g0)
        ch = chan(q, g0, 1.0)
        worst = max(worst, abs(cb(HALF_PI, ch, w) - blp(ch, w)))
    ok = worst <= 1e-10
    _emit(3, "equatorial coherence witness equals trace-distance witness", ok,
          f"worst gap {worst:.1e}")
    assert ok


# ---------------------------------------------------------------------------
# 4. Bloch-map structure of the single-qubit channel
# ---------------------------------------------------------------------------

def test_criterion_04_bloch_map_identity(rng):
    worst_m = worst_det = 0.0
    count = 0
    while count < 100:
        q = float(rng.uniform(0.0, 4.0))
        g0 = float(rng.uniform(0.3, 3.0))
        b = float(rng.uniform(0.1, 1.0))
        t = float(rng.uniform(0.0, 5.0 / g0))
        a = alpha(chan(q, g0, b), t)
        if a < 1e-3:
            continue
        count += 1
        am = bloch_affine_map(a)
        worst_m = max(worst_m, float(np.abs(am.m - np.diag([a, a, a * a])).max()),
                      float(np.abs(am.c).max()))
        worst_det = max(worst_det, abs(am.det - a ** 4))
    ok = worst_m <= 1e-12 and worst_det <= 1e-12
    _emit(4, "affine map is diag(alpha, alpha, alpha^2) with det alpha^4", ok,
          f"entry gap {worst_m:.1e}, det gap {worst_det:.1e}")
    assert ok


# ---------------------------------------------------------------------------
# 5. closed forms vs general algorithms, 20x20 each
# ---------------------------------------------------------------------------

def test_criterion_05_closed_vs_general_routes():
    thetas = np.linspace(0.05, math.pi - 0.05, 20)
    alphas = np.linspace(0.05, 0.995, 20)
    gaps = dict.fromkeys(("concurrence", "tnd", "lqu", "discord"), 0.0)
    for th in thetas:
        for a in alphas:
            s = evolved_x_state(float(th), float(a))
            gaps["concurrence"] = max(
                gaps["concurrence"],
                abs(concurrence_x(s) - concurrence_evolved(float(th), float(a))))
            gaps["tnd"] = max(gaps["tnd"], abs(tnd_x(s) - 0.5 * coherence_l1(s)))
            gaps["lqu"] = max(
                gaps["lqu"], abs(lqu_x(s) - lqu_closed(float(th), float(a))))
    for a in np.linspace(0.05, 0.995, 400):
        s = evolved_x_state(HALF_PI, float(a))
        gaps["discord"] = max(gaps["discord"],
                              abs(discord_x(s) - discord_closed(float(a))))
    qfi_gap = 0.0
    for q in np.linspace(0.2, 3.8, 20):
        ch = chan(float(q), 1.0, 0.05)
        for t in np.linspace(0.05, 20.0, 20):
            fc = qfi_closed(ch, float(t))
            if fc < 1e-280:
                continue
            a = alpha(ch, float(t))
            fg = qfi_general(evolved_x_state(HALF_PI, a),
                             drho_db(HALF_PI, ch, float(t)))
            qfi_gap = max(qfi_gap, abs(fg - fc) / fc)
    ok = (gaps["concurrence"] <= 1e-14 and gaps["tnd"] <= 1e-12
          and gaps["lqu"] <= 1e-10 and gaps["discord"] <= 1e-6
          and qfi_gap <= 1e-8)
    _emit(5, "five closed forms match their general-route oracles", ok,
          f"conc {gaps['concurrence']:.0e}, tnd {gaps['tnd']:.0e}, "
          f"lqu {gaps['lqu']:.0e}, discord {gaps['discord']:.0e}, qfi {qfi_gap:.0e}")
    assert gaps["concurrence"] <= 1e-14
    assert gaps["tnd"] <= 1e-12
    assert gaps["lqu"] <= 1e-10
    assert gaps["discord"] <= 1e-6
    assert qfi_gap <= 1e-8


# ---------------------------------------------------------------------------
# 6. entanglement sudden death at alpha^2 = sqrt(2) - 1
# ---------------------------------------------------------------------------

def test_criterion_06_sudden_death_root():
    ch = chan(1.0, 0.01, 1.0)
    crit = math.sqrt(2.0) - 1.0

    def bisect(pred, lo, hi):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    t_conc = bisect(lambda t: concurrence_evolved(HALF_PI, alpha(ch, t)) > 0.0, 0.0, 1.0)
    t_alpha = bisect(lambda t: alpha(ch, t) ** 2 > crit, 0.0, 1.0)
    gap = abs(t_conc - t_alpha)
    ok = gap <= 1e-8
    _emit(6, "concurrence zero-crossing sits at alpha^2 = sqrt(2) - 1", ok,
          f"t = {t_conc:.9f}, gap {gap:.1e}")
    assert ok


# ---------------------------------------------------------------------------
# 7. entanglement rebirth after a dark period
# ---------------------------------------------------------------------------

def _rebirth_pattern(ch: DephasingChannel, w: TimeWindow) -> tuple[bool, int]:
    ts = w.times()
    conc = np.array([concurrence_evolved(HALF_PI, alpha(ch, float(t))) for t in ts])
    zeros = np.flatnonzero(conc == 0.0)
    if len(zeros) == 0 or conc[0] == 0.0:
        return False, 0
    has_pattern = bool(conc[0] > 0.0 and zeros[-1] < len(conc) - 1
                       and conc[-1] > 0.0 and np.all(np.diff(zeros) == 1))
    return has_pattern, len(zeros)


@pytest.mark.xfail(strict=True, reason=(
    "at B = 1, gamma0 = 0.01 the exponent E = -ln alpha stays above 8.4e4 over "
    "the whole window, far above E_c = 0.4407 below which concurrence at "
    "theta = pi/2 is positive, so the dark period is permanent in exact "
    "arithmetic too, not only in double precision"))
def test_criterion_07_rebirth_at_full_field():
    ok, _ = _rebirth_pattern(chan(3.0, 0.01, 1.0), TimeWindow(1500.0, 3001))
    _emit(7, "rebirth after dark period at full field", ok,
          "" if ok else "expected: alpha underflows to 0 at B = 1")
    assert ok


def test_criterion_07_rebirth_companion():
    ok, n_dark = _rebirth_pattern(chan(3.0, 0.01, 0.002175), TimeWindow(1500.0, 3001))
    _emit(7, "positive -> dark period -> rebirth at representable field", ok,
          f"{n_dark} dark samples")
    assert ok
    assert n_dark > 100


# ---------------------------------------------------------------------------
# 8. channel legitimacy and contractivity
# ---------------------------------------------------------------------------

def test_criterion_08_channel_legitimacy(rng):
    worst_herm = worst_tr = worst_eig = 0.0
    for k in range(500):
        a = float(rng.uniform(0.01, 1.0))
        if k % 2 == 0:
            out = evolve_single(DensityMatrix2(random_density(rng, 2)), a).matrix
        else:
            out = evolve_pair(DensityMatrix4(random_density(rng, 4)), a).matrix
        worst_herm = max(worst_herm, float(np.abs(out - out.conj().T).max()))
        worst_tr = max(worst_tr, abs(float(np.trace(out).real) - 1.0))
        worst_eig = max(worst_eig, max(0.0, -float(np.linalg.eigvalsh(out).min())))
    violations = 0
    for _ in range(500):
        r1 = DensityMatrix2(random_density(rng, 2))
        r2 = DensityMatrix2(random_density(rng, 2))
        a = float(rng.uniform(0.01, 1.0))
        before = trace_distance(r1, r2)
        after = trace_distance(evolve_single(r1, a), evolve_single(r2, a))
        if after > before + 1e-12:
            violations += 1
    ok = worst_herm <= 1e-12 and worst_tr <= 1e-12 and worst_eig <= 1e-12 and violations == 0
    _emit(8, "500 evolved states legitimate; contractivity never violated", ok,
          f"herm {worst_herm:.0e}, trace {worst_tr:.0e}, eig {worst_eig:.0e}")
    assert ok


# ---------------------------------------------------------------------------
# 9. special-function accuracy
# ---------------------------------------------------------------------------

def test_criterion_09_special_function_accuracy():
    worst_f = 0.0
    checked = 0
    for q in (0.0, 0.4, 0.8, 1.6, 2.0, 2.4, 2.8, 3.2, 3.6, 4.0):
        a = (q - 1.0) / 2.0
        for ab in ((a, 0.5), (a + 1.0, 1.5)):
            for x in (0.1, 0.3, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 80.0, 100.0):
                z = -x * x / 4.0
                want = mp_hyp1f1(ab[0], ab[1], z)
                got = hyp1f1(ab[0], ab[1], z)
                if want != 0.0:
                    worst_f = max(worst_f, abs(got / want - 1.0))
                checked += 1
    for z in (-0.5, -1.0, -8.0, -50.0, -400.0, -2500.0):
        worst_f = max(worst_f, abs(hyp2f2_11_32_2(z) / mp_hyp2f2(z) - 1.0))

    worst_d = 0.0
    for a, b, z in [(0.5, 0.5, -3.0), (1.5, 1.5, -20.0), (-0.25, 0.5, -1.0)]:
        fd = richardson_derivative(lambda x: hyp1f1(a, b, x), z, h=1e-3)
        worst_d = max(worst_d, abs(dhyp1f1_dz(a, b, z) / fd - 1.0))
    for z in (-0.5, -4.0, -30.0):
        fd = richardson_derivative(hyp2f2_11_32_2, z, h=1e-3)
        worst_d = max(worst_d, abs(dhyp2f2_11_32_2_dz(z) / fd - 1.0))
    for q, g0, t in [(3.0, 1.0, 0.8), (1.0, 1.0, 1.5), (0.5, 1.6, 2.0)]:
        env = OhmicEnvironment(q, g0)
        fd = richardson_derivative(lambda x: i_q(env, x), t, h=1e-3)
        worst_d = max(worst_d, abs(di_q_dt(env, t) / fd - 1.0))
        ch = DephasingChannel(env, 0.4)
        fd = richardson_derivative(lambda x: alpha(ch, x), t, h=1e-4)
        worst_d = max(worst_d, abs(dalpha_dt(ch, t) / fd - 1.0))
        fd = richardson_derivative(lambda x: alpha(DephasingChannel(env, x), t), 0.4, h=1e-4)
        worst_d = max(worst_d, abs(dalpha_db(ch, t) / fd - 1.0))

    ok = checked == 200 and worst_f <= 1e-10 and worst_d <= 1e-6
    _emit(9, "series vs 40-digit oracle; derivatives vs finite differences", ok,
          f"200-pt grid {worst_f:.0e}, derivatives {worst_d:.0e}")
    assert checked == 200
    assert worst_f <= 1e-10
    assert worst_d <= 1e-6


# ---------------------------------------------------------------------------
# 10. figure recipes end to end
# ---------------------------------------------------------------------------

def _read_csv(path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    cols = lines[2].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[3:]])
    return cols, data


def test_criterion_10_figure_recipes(tmp_path):
    t0 = time.monotonic()
    root = "recipes"

    f1a = tmp_path / "fig1a.csv"
    f1b = tmp_path / "fig1b.csv"
    # both runs warn, the parallel one from its workers' returned warnings:
    # Q > 2 revivals outlast the window
    with pytest.warns(HorizonWarning, match="truncated by the window"):
        assert cli_main(["nm-scan", "--spec", f"{root}/fig1.json",
                         "--parallel", "2", "--out", str(f1a)]) == 0
    with pytest.warns(HorizonWarning, match="truncated by the window"):
        assert cli_main(["nm-scan", "--spec", f"{root}/fig1.json",
                         "--out", str(f1b)]) == 0
    assert f1a.read_bytes() == f1b.read_bytes(), "parallel run must be deterministic"
    cols, nm = _read_csv(f1a)
    iq, ig, iblp, iflag = (cols.index(k) for k in ("q", "gamma0", "n_blp", "critical_flag"))
    assert np.all(np.isfinite(nm))
    below = nm[nm[:, iq] <= 2.0]
    assert np.all(below[:, iblp] < 1e-10) and np.all(below[:, iflag] == 0.0)
    strong = nm[(nm[:, ig] == 1.6) & (nm[:, iq] > 2.0)]
    assert np.any(strong[:, iflag] == 1.0)

    f4 = tmp_path / "fig4.csv"
    assert cli_main(["corr-series", "--spec", f"{root}/fig4.json", "--out", str(f4)]) == 0
    cols, corr = _read_csv(f4)
    conc = corr[:, cols.index("concurrence")]
    assert np.all(np.isfinite(corr))
    assert conc[0] == 1.0 and conc[1] > 0.0
    assert conc[-1] == 0.0, "sudden death leaves a zero tail"
    first_zero = int(np.argmax(conc == 0.0))
    assert np.all(conc[first_zero:] == 0.0)

    f7 = tmp_path / "fig7.csv"
    assert cli_main(["qfi-series", "--spec", f"{root}/fig7.json", "--out", str(f7)]) == 0
    cols, qfi = _read_csv(f7)
    assert np.all(np.isfinite(qfi))
    ohmic = qfi[qfi[:, cols.index("q")] == 1.0]
    f_gen = ohmic[:, cols.index("f_general")]
    tail = f_gen[-len(f_gen) // 5:]
    assert tail.max() - tail.min() < 0.01 * f_gen.max(), "trapping plateau"

    fr = tmp_path / "rebirth.csv"
    assert cli_main(["corr-series", "--spec", f"{root}/rebirth.json", "--out", str(fr)]) == 0
    cols, reb = _read_csv(fr)
    conc = reb[:, cols.index("concurrence")]
    zeros = np.flatnonzero(conc == 0.0)
    assert conc[0] > 0.0 and len(zeros) > 100 and conc[-1] > 0.0
    assert zeros[-1] < len(conc) - 1

    wall = time.monotonic() - t0
    ok = wall < 300.0
    _emit(10, "figure recipes: finite, deterministic, right shapes", ok,
          f"{wall:.0f}s combined")
    assert ok
