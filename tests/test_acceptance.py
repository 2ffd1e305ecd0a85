"""Acceptance suite: every shipped guarantee, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to get a one-line
verdict per check.  All pipeline runs use working resolution (512x512
grid, 24-point geometric radius schedule, catalog defaults) and are
session-scoped, so the seven catalog surfaces are processed once.

The catenoid and Enneper limit targets as t -> infinity (total squared
curvature 8 pi, area growth 2 and 3, the Chern-Osserman equality) are
checked on two more 512x512 runs, ``catenoid_t128`` and
``enneper_t128``, each with the 9-point schedule 0.5 * 2^k up to
t = 128.  Aitken's delta-squared process over the doubling sub-schedule
t = 8, 16, ..., 128 extrapolates each quantity; the limit estimate is the
last extrapolant and its error bar the spread of the last two, and both
must sit inside the target's tolerance.  The finite-radius readings that
feed the extrapolation are checked against closed-form values of the
exact balls.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from extballs.domains import extract_ball
from extballs.domains.balls import MIN_SAMPLES
from extballs.pipeline import run_surface
from extballs.space_forms import SpaceForm
from oracles import (gauss_equation_residual, laplacian_r,
                     radial_laplacian_identity)

SURFACES = ("plane", "catenoid", "enneper", "helicoid", "h2_in_h3",
            "hyperbolic_catenoid", "sphere_control")
MINIMAL = ("plane", "catenoid", "enneper", "helicoid", "h2_in_h3",
           "hyperbolic_catenoid")
EXPECTED_CHI = {"plane": 1, "catenoid": 0, "enneper": 1, "helicoid": 1,
                "h2_in_h3": 1, "hyperbolic_catenoid": 0,
                "sphere_control": 1}


@pytest.fixture(scope="session")
def runs():
    return {name: run_surface(name) for name in SURFACES}


@pytest.fixture(scope="session")
def hc_alt_pole():
    # Second exhaustion center for the defect: the pole moved along the
    # neck circle, which reshuffles every grid/boundary intersection
    # while leaving the exact geometry unchanged.
    return run_surface("hyperbolic_catenoid", pole_uv=(0.9, 0.0))


# The doubling radii 8, 16, ..., 128 of the 128-radius fixtures.
DOUBLING_T = 8.0 * 2.0 ** np.arange(5)


@pytest.fixture(scope="session")
def catenoid_t128():
    return run_surface("catenoid", t_max=128.0, count=9)


@pytest.fixture(scope="session")
def enneper_t128():
    return run_surface("enneper", t_max=128.0, count=9)


@pytest.fixture(scope="session")
def catenoid_grids(runs):
    return {
        128: run_surface("catenoid", grid=(128, 128)),
        256: run_surface("catenoid", grid=(256, 256)),
        512: runs["catenoid"],
    }


def _verdict(report, name):
    for v in report.verdicts:
        if v.name == name:
            return v
    raise AssertionError(f"no verdict named {name}")


def _sample_uv(surface, n, r_min, r_max, seed):
    """Random chart points whose extrinsic distance lies in [r_min, r_max]."""
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = surface.domain
    pad_u = 0.0 if surface.periodic_u else 0.05 * (u1 - u0)
    pad_v = 0.05 * (v1 - v0)
    pole = surface.default_pole()
    us, vs = [], []
    have = 0
    while have < n:
        U = rng.uniform(u0 + pad_u, u1 - pad_u, 8 * n)
        V = rng.uniform(v0 + pad_v, v1 - pad_v, 8 * n)
        r = surface.form.distance(pole, surface.eval(U, V))
        sel = (r >= r_min) & (r <= r_max)
        us.append(U[sel])
        vs.append(V[sel])
        have += int(np.count_nonzero(sel))
    return np.concatenate(us)[:n], np.concatenate(vs)[:n]


# ---------------------------------------------------------------------------
# 1. Geodesic-curvature identity: formula route vs Hessian route.


@pytest.mark.parametrize("name", SURFACES)
def test_c01_geodesic_curvature_identity(runs, name):
    series = runs[name].series
    assert series.valid, "no usable radii"
    worst = max(rec.kg_gap_max for rec in series.valid)
    assert worst <= 1e-5, f"max |formula - Hessian| = {worst:.3e}"
    ball = extract_ball(runs[name].field, series.valid[-1].t)
    assert len(ball.samples) >= MIN_SAMPLES


# ---------------------------------------------------------------------------
# 2. Space-form ball identity: b Vol(B_t) + h_b(t) Vol(S_t) = 2 pi.


def test_c02_space_form_identity():
    # Ranges keep the cancelling terms below ~cosh(6), where the exact
    # identity is representable at 1e-12 relative in double precision.
    rng = np.random.default_rng(2)
    bs = np.concatenate([rng.uniform(-4.0, 0.0, 900), np.zeros(100)])
    ts = rng.uniform(0.05, 3.0, 1000)
    worst = 0.0
    for b, t in zip(bs, ts):
        form = SpaceForm(float(b))
        lhs = (form.b * float(form.ball_area(t))
               + float(form.h(t)) * float(form.circle_length(t)))
        worst = max(worst, abs(lhs - 2.0 * math.pi) / (2.0 * math.pi))
    assert worst <= 1e-12, f"worst relative residual {worst:.3e}"


# ---------------------------------------------------------------------------
# 3. Gauss equation on minimal surfaces: K = b - |B|^2 / 2.


@pytest.mark.parametrize("name", MINIMAL)
def test_c03_gauss_equation(runs, name):
    field = runs[name].field
    U, V = _sample_uv(field.surface, 500, 0.05, 0.9 * field.t_max,
                      seed=3)
    worst = float(np.max(gauss_equation_residual(field.surface, U, V)))
    assert worst <= 1e-8, f"max |K - (b - |B|^2/2)| = {worst:.3e}"


# ---------------------------------------------------------------------------
# 4. Radial Laplacian identity: finite differences vs closed form.


@pytest.mark.parametrize("name", SURFACES)
def test_c04_radial_laplacian_identity(runs, name):
    field = runs[name].field
    # The sphere's radial Laplacian changes sign near r ~ 1.15; staying
    # below keeps the relative comparison well-posed.
    r_hi = 1.0 if name == "sphere_control" else 0.9 * field.t_max
    U, V = _sample_uv(field.surface, 100, 0.2, r_hi, seed=4)
    fd = laplacian_r(field.surface, U, V, field.pole)
    closed = radial_laplacian_identity(field.surface, U, V, field.pole)
    rel = float(np.max(np.abs(fd - closed) / np.abs(closed)))
    assert rel <= 1e-5, f"max relative disagreement {rel:.3e}"


# ---------------------------------------------------------------------------
# 5. Euler characteristic from Gauss-Bonnet: integer plateau.


@pytest.mark.parametrize("name", SURFACES)
def test_c05_euler_characteristic_plateau(runs, name):
    plateau = runs[name].series.chi_plateau()
    assert plateau["count"] > 0, "no settled radii"
    assert plateau["max_residual"] <= 0.05, \
        f"chi residual {plateau['max_residual']:.4f}"
    assert plateau["constant"], "chi plateau not constant"
    assert plateau["chi"] == EXPECTED_CHI[name]


# ---------------------------------------------------------------------------
# 6. Limit targets as t -> infinity (Jorge-Meeks): total squared curvature
#    8 pi for both surfaces, area growth 2 for the catenoid and 3 for
#    Enneper.  The exact balls reach neither at t = 8 (catenoid
#    R = 0.9908 * 8 pi, growth 1.8393; Enneper 0.8712 * 8 pi, 2.4472), so
#    each target is asserted on the Aitken extrapolant of the doubling
#    sub-schedule t = 8, ..., 128 of `catenoid_t128` / `enneper_t128`, and
#    the extrapolant's spread is held to the same tolerance.


def _doubling_records(result):
    """The records at t = 8, 16, ..., 128 of a 128-radius run."""
    recs = [rec for rec in result.series.records if rec.t > 7.9]
    assert np.allclose([rec.t for rec in recs], DOUBLING_T, rtol=1e-12)
    assert not any(rec.skipped for rec in recs), "a doubling radius skipped"
    return recs


def _doubling(result, value):
    """``value(record)`` over the doubling radii of a 128-radius run."""
    return np.array([value(rec) for rec in _doubling_records(result)])


def _aitken(xs):
    """Aitken delta-squared extrapolants of consecutive triples.

    Each triple gives x2 - (x2 - x1)^2 / (x2 - 2 x1 + x0), the limit of
    the geometric sequence through it.  That is only an estimate of the
    limit when the approach is monotone and contracting, so a triple whose
    differences vanish, change sign or fail to shrink fails the test.
    """
    out = []
    for x0, x1, x2 in zip(xs, xs[1:], xs[2:]):
        d1, d2 = x1 - x0, x2 - x1
        if not (d1 * d2 > 0.0 and abs(d2) < abs(d1)):
            raise AssertionError(
                f"no monotone contracting approach in {list(xs)}")
        out.append(x2 - d2 * d2 / (d2 - d1))
    return out


def _limit(xs):
    """Last extrapolant and its error bar (spread of the last two)."""
    ext = _aitken(xs)
    return ext[-1], abs(ext[-1] - ext[-2])


def _catenoid_exact(t):
    """Exact R and growth of the catenoid ball about the neck point (1,0,0).

    At height v the ball is the u-arc |u| <= arccos(c(v)) with
    c = (cosh^2 v + 1 + v^2 - t^2) / (2 cosh v); |A|^2 dA = 2 / cosh^2 v
    du dv and dA = cosh^2 v du dv, leaving a quadrature in v.
    """
    def c(v):
        return (math.cosh(v) ** 2 + 1.0 + v * v - t * t) / (2.0 * math.cosh(v))

    def arc(v):
        return 2.0 * math.acos(min(1.0, max(-1.0, c(v))))

    v_end = brentq(lambda v: c(v) - 1.0, 0.0, math.acosh(t + 1.0) + 1.0,
                   xtol=1e-15)
    # The arc saturates at 2 pi below the height where c = -1: a kink.
    kinks = ([brentq(lambda v: c(v) + 1.0, 0.0, v_end, xtol=1e-15)]
             if c(0.0) < -1.0 else None)

    def integral(weight):
        return 2.0 * quad(lambda v: arc(v) * weight(v), 0.0, v_end,
                          points=kinks, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0]

    R = integral(lambda v: 2.0 / math.cosh(v) ** 2)
    area = integral(lambda v: math.cosh(v) ** 2)
    return R, area / (math.pi * t * t)


def _enneper_exact(t, rays=256):
    """Exact R and growth of the Enneper ball about the origin.

    In z = rho e^{i theta}, |F|^2 = s + (1/2 - cos(4 theta)/6) s^2 + s^3/9
    with s = rho^2 increases along each ray, so the ball is star-shaped.
    Per ray, |A|^2 dA = 8 rho / (1 + rho^2)^2 drho integrates to
    4 s / (1 + s) and dA = (1 + rho^2)^2 rho drho to ((1 + s)^3 - 1) / 6;
    the periodic trapezoid rule in theta is spectrally accurate.
    """
    theta = 2.0 * math.pi * np.arange(rays) / rays
    s = np.array([brentq(lambda x: x ** 3 / 9.0 + a * x * x + x - t * t,
                         0.0, t * t, xtol=1e-15, rtol=1e-15)
                  for a in 0.5 - np.cos(4.0 * theta) / 6.0])
    R = 2.0 * math.pi * float(np.mean(4.0 * s / (1.0 + s)))
    area = 2.0 * math.pi * float(np.mean(((1.0 + s) ** 3 - 1.0) / 6.0))
    return R, area / (math.pi * t * t)


@pytest.mark.parametrize("name", ("catenoid", "enneper"))
def test_c06_finite_radius_references(runs, request, name):
    reference = {"catenoid": _catenoid_exact, "enneper": _enneper_exact}[name]
    at_8 = runs[name].series.valid[-1]
    assert math.isclose(at_8.t, 8.0, rel_tol=1e-12)
    records = [at_8] + _doubling_records(
        request.getfixturevalue(f"{name}_t128"))
    for rec in records:
        R, growth = reference(rec.t)
        assert abs(rec.R - R) <= 1e-8 * R, \
            f"t={rec.t:.3f}: R = {rec.R:.12f} vs exact {R:.12f}"
        assert abs(rec.ratio - growth) <= 1e-8 * growth, \
            f"t={rec.t:.3f}: growth = {rec.ratio:.12f} vs exact {growth:.12f}"


def test_c06_catenoid_total_curvature_target(catenoid_t128):
    R_inf, spread = _limit(_doubling(catenoid_t128, lambda rec: rec.R))
    rel = abs(R_inf - 8.0 * math.pi) / (8.0 * math.pi)
    msg = (f"R_inf = {R_inf / (8 * math.pi):.6f} * 8pi (rel {rel:.2e}, "
           f"spread {spread / (8 * math.pi):.1e} * 8pi)")
    assert rel <= 1e-3, msg
    assert spread <= 1e-3 * 8.0 * math.pi, msg


def test_c06_enneper_total_curvature_target(enneper_t128):
    R_inf, spread = _limit(_doubling(enneper_t128, lambda rec: rec.R))
    rel = abs(R_inf - 8.0 * math.pi) / (8.0 * math.pi)
    msg = (f"R_inf = {R_inf / (8 * math.pi):.6f} * 8pi (rel {rel:.2e}, "
           f"spread {spread / (8 * math.pi):.1e} * 8pi)")
    assert rel <= 5e-3, msg
    assert spread <= 5e-3 * 8.0 * math.pi, msg


def test_c06_catenoid_growth_target(catenoid_t128):
    g_inf, spread = _limit(_doubling(catenoid_t128, lambda rec: rec.ratio))
    msg = f"growth_inf = {g_inf:.6f} +- {spread:.1e}, target 2 +- 1%"
    assert abs(g_inf - 2.0) <= 0.02, msg
    assert spread <= 0.02, msg


def test_c06_enneper_growth_target(enneper_t128):
    g_inf, spread = _limit(_doubling(enneper_t128, lambda rec: rec.ratio))
    msg = f"growth_inf = {g_inf:.6f} +- {spread:.1e}, target 3 +- 2%"
    assert abs(g_inf - 3.0) <= 0.06, msg
    assert spread <= 0.06, msg


# ---------------------------------------------------------------------------
# 7. Comparison inequality margins and proximity to equality.  The
#    catenoid and Enneper equality is a limit as t -> infinity: its gap
#    R/4pi - growth + chi is extrapolated like the section 6 targets.


@pytest.mark.parametrize("name", ("plane", "catenoid", "enneper",
                                  "h2_in_h3", "hyperbolic_catenoid"))
def test_c07_comparison_inequality(runs, name):
    v = _verdict(runs[name].report, "chern_osserman")
    assert v.applicable
    assert v.margin >= -0.02, f"margin {v.margin:+.4f}"


@pytest.mark.parametrize("name", ("plane", "h2_in_h3"))
def test_c07_equality_geodesic_models(runs, name):
    v = _verdict(runs[name].report, "chern_osserman")
    assert abs(v.margin) <= 0.05, f"equality gap {v.margin:+.4f}"


def _equality_gap_limit(result):
    """Extrapolated Chern-Osserman gap and its spread.

    The gap at each doubling radius is the `chern_osserman` margin that
    run would report with that radius as t_max; at t = 128 it is the
    reported margin itself.
    """
    chi = result.report.chi
    gaps = _doubling(result,
                     lambda rec: rec.R / (4.0 * math.pi) - rec.ratio + chi)
    v = _verdict(result.report, "chern_osserman")
    assert v.applicable
    assert math.isclose(gaps[-1], v.margin, rel_tol=0.0, abs_tol=1e-12)
    return _limit(gaps)


def test_c07_equality_catenoid(catenoid_t128):
    gap, spread = _equality_gap_limit(catenoid_t128)
    msg = f"extrapolated equality gap {gap:+.4f} +- {spread:.1e}"
    assert abs(gap) <= 0.05, msg
    assert spread <= 0.05, msg


def test_c07_equality_enneper(enneper_t128):
    gap, spread = _equality_gap_limit(enneper_t128)
    msg = f"extrapolated equality gap {gap:+.4f} +- {spread:.1e}"
    assert abs(gap) <= 0.05, msg
    assert spread <= 0.05, msg


# ---------------------------------------------------------------------------
# 8. Hyperbolic equality: per-radius identity, defect sign, independence.


@pytest.mark.parametrize("name", ("h2_in_h3", "hyperbolic_catenoid"))
def test_c08_defect_chain_identity(runs, name):
    v = _verdict(runs[name].report, "gb_chain_identity")
    assert v.applicable
    assert v.margin <= 0.02, f"worst per-radius residual {v.margin:.3e}"


@pytest.mark.parametrize("name", ("h2_in_h3", "hyperbolic_catenoid"))
def test_c08_equality_residual(runs, name):
    v = _verdict(runs[name].report, "chern_osserman_equality")
    assert v.applicable
    assert v.margin <= 0.03, f"equality residual {v.margin:.3e}"


@pytest.mark.parametrize("name", ("h2_in_h3", "hyperbolic_catenoid"))
def test_c08_defect_nonnegative(runs, name):
    G_b = runs[name].report.G_b
    assert G_b >= -0.01, f"G_b = {G_b:+.5f}"


def test_c08_geodesic_h2_zero_defect(runs):
    G_b = runs["h2_in_h3"].report.G_b
    assert abs(G_b) <= 0.01, f"G_b = {G_b:+.2e}"


def test_c08_pole_independence(runs, hc_alt_pole):
    a = runs["hyperbolic_catenoid"].report.G_b
    b = hc_alt_pole.report.G_b
    assert abs(a - b) <= 0.05, f"G_b {a:+.5f} vs {b:+.5f}"
    assert hc_alt_pole.report.G_b_spread <= 0.02


# ---------------------------------------------------------------------------
# 9. Per-radius growth bounds at every weight and scheduled radius.


@pytest.mark.parametrize("name", MINIMAL)
def test_c09_growth_bounds(runs, name):
    series = runs[name].series
    assert series.valid
    for rec in series.valid:
        assert rec.div_margin >= -1e-6, \
            f"divergence bound margin {rec.div_margin:.3e} at t={rec.t:.3f}"
        assert set(rec.euler_margins) == {0.25, 0.5, 1.0, 1.5}
        for alpha, margin in rec.euler_margins.items():
            assert margin >= -1e-6, \
                f"weight {alpha} margin {margin:.3e} at t={rec.t:.3f}"


# ---------------------------------------------------------------------------
# 10. Negative controls.


def test_c10_helicoid_flagged_divergent(runs):
    rep = runs["helicoid"].report
    assert rep.exit_status == 2
    assert rep.hypothesis_violated
    field = runs["helicoid"].field
    R8 = extract_ball(field, 8.0).integrals["normBsq"]
    R4 = extract_ball(field, 4.0).integrals["normBsq"]
    assert R8 > R4 + 1.0, f"R(8)={R8:.2f}, R(4)={R4:.2f}"
    # The boundary curvature maximum never decays.
    last_maxB = runs["helicoid"].series.valid[-1].max_B
    assert last_maxB > 0.1, f"boundary max |B| = {last_maxB:.3f}"
    decay = _verdict(rep, "curvature_decay")
    assert decay.applicable and decay.passed is False


def test_c10_sphere_fails_minimality_and_is_excluded(runs):
    rep = runs["sphere_control"].report
    assert rep.exit_status == 0
    assert rep.measured_minimal is False
    assert rep.max_normH > 0.5
    for name in ("divergence_bound", "euler_growth_bound",
                 "chern_osserman", "ratio_monotone",
                 "total_curvature_finite"):
        assert not _verdict(rep, name).applicable, name


# ---------------------------------------------------------------------------
# 11. Co-area consistency and the isoperimetric comparison.


@pytest.mark.parametrize("name", SURFACES)
def test_c11_coarea_consistency(runs, name):
    field = runs[name].field
    valid = runs[name].series.valid
    smooth = [rec for rec in valid if rec.min_grad >= 0.2]
    picks = [smooth[len(smooth) // 2], smooth[-2]]
    h = 1e-3
    for rec in picks:
        plus = extract_ball(field, rec.t + h).area
        minus = extract_ball(field, rec.t - h).area
        deriv = (plus - minus) / (2.0 * h)
        rel = abs(deriv - rec.coarea) / rec.coarea
        assert rel <= 1e-3, \
            f"t={rec.t:.3f}: d/dt area = {deriv:.6f} vs coarea " \
            f"{rec.coarea:.6f} (rel {rel:.2e})"


@pytest.mark.parametrize("name", MINIMAL)
def test_c11_isoperimetric_margin(runs, name):
    worst = min(rec.iso_margin for rec in runs[name].series.valid)
    assert worst >= -1e-6, f"min margin {worst:.3e}"


@pytest.mark.parametrize("name", ("plane", "h2_in_h3"))
def test_c11_isoperimetric_equality_models(runs, name):
    worst = max(abs(rec.iso_margin) for rec in runs[name].series.valid)
    assert worst <= 1e-6, f"max |margin| {worst:.3e}"


# ---------------------------------------------------------------------------
# 12. Grid convergence of the two discretization-sensitive residuals.


def test_c12_grid_convergence_kg(catenoid_grids):
    gaps = [max(rec.kg_gap_max for rec in catenoid_grids[n].series.valid)
            for n in (128, 256, 512)]
    assert gaps[0] > gaps[1] > gaps[2], f"kg gaps {gaps}"


def test_c12_grid_convergence_chi(catenoid_grids):
    resids = [max(abs(rec.chi_hat - round(rec.chi_hat))
                  for rec in catenoid_grids[n].series.valid)
              for n in (128, 256, 512)]
    assert resids[0] > resids[1] > resids[2], f"chi residuals {resids}"
