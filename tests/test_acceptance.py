"""Acceptance gate: nine end-to-end criteria at full scale.

Each test prints a single ACCEPTANCE n: PASS/FAIL line before asserting,
so the gate's status is readable straight from the pytest output. These
run at release scale (10^5 replications, 2^11-step grids) and take
minutes, not seconds.
"""
import numpy as np
import pytest
from oracles import (
    fbm_covariance,
    gen_brownian_alt,
    ito_integral,
    mc_tube_probability,
    unit_mean,
)

from cfslab.catalog import DEFAULT_BATTERY, affine_integrand, get_preset
from cfslab.core import (
    Classification,
    Path,
    RngStream,
    constant_path,
    make_grid,
)
from cfslab.gaussian import (
    FbmSpec,
    _fbm_cholesky,
    gen_brownian,
)
from cfslab.integrate import rs_parts_form
from cfslab.jumps import (
    BnsSpec,
    SubordinatorKind,
    SubordinatorSpec,
    gen_bns_vol,
)
from cfslab.models import WienerIntegral, simulate
from cfslab.smallball import (
    SmallBallQuery,
    brownian_smallball_series,
    estimate_smallball,
    timechanged_smallball,
)
from cfslab.suite import BatteryTemplate, ReportFormat, render_report, run_battery

REPS = 100_000
N_STEPS = 2048
SERIES_11 = brownian_smallball_series(1.0, 1.0)  # 0.37078


_REPORTER: dict = {}


@pytest.fixture(autouse=True)
def _terminal_reporter(request):
    _REPORTER["terminalreporter"] = request.config.pluginmanager.get_plugin(
        "terminalreporter")
    return None


def _report(n: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    reporter = _REPORTER.get("terminalreporter")
    if reporter is not None:
        # Write past pytest's output capture so the verdict line is
        # always visible, pass or fail.
        reporter.write_line("\n" + line)
    else:
        print("\n" + line)
    assert ok, detail


def _overlap(a, b) -> bool:
    return a.ci_low <= b.ci_high and b.ci_low <= a.ci_high


def test_criterion_1_brownian_oracle():
    import time

    grid = make_grid(0.0, 1.0, N_STEPS)
    spec = get_preset("brownian")
    rng = RngStream(1001, 0)
    t0 = time.perf_counter()
    _, ctx = simulate(spec, grid, rng.child(0), 0)
    est = estimate_smallball(
        spec, ctx, SmallBallQuery(0, constant_path(grid, 0.0), 1.0),
        REPS, rng.child(1))
    elapsed = time.perf_counter() - t0
    err = abs(est.p_hat - SERIES_11)
    ok = err <= 0.010 and elapsed < 60.0
    _report(1, ok,
            f"p_hat={est.p_hat:.5f} vs series {SERIES_11:.5f} "
            f"(|err|={err:.5f} <= 0.010), {elapsed:.1f}s < 60s")


def test_criterion_2_time_change_equivalence():
    grid = make_grid(0.0, 1.0, N_STEPS)
    spec = WienerIntegral(k_fn=affine_integrand)
    rng = RngStream(1002, 0)
    _, ctx = simulate(spec, grid, rng.child(0), 0)
    f = constant_path(grid, 0.0)
    direct = estimate_smallball(spec, ctx, SmallBallQuery(0, f, 1.0),
                                REPS, rng.child(1))
    k = Path(grid, affine_integrand(np.asarray(grid.nodes)))
    tc = timechanged_smallball(k, f, 1.0, REPS, rng.child(2))
    ok = _overlap(direct, tc)
    _report(2, ok,
            f"direct CI [{direct.ci_low:.5f}, {direct.ci_high:.5f}] vs "
            f"time-changed CI [{tc.ci_low:.5f}, {tc.ci_high:.5f}] overlap")


def test_criterion_3_positivity_sweep():
    models = [get_preset(n) for n in DEFAULT_BATTERY]
    template = BatteryTemplate(n_steps=N_STEPS)
    report = run_battery(models, template, REPS, 1003, workers=8)
    n_positive = sum(
        r.estimate.classification is Classification.POSITIVE for r in report.rows)
    n_zero = sum(
        r.estimate.classification is Classification.ANALYTIC_ZERO
        for r in report.rows)
    ok = (n_positive == len(report.rows) and n_zero == 0
          and report.wall_clock < 900.0)
    _report(3, ok,
            f"{n_positive}/{len(report.rows)} queries POSITIVE, "
            f"{n_zero} analytic zeros, {report.wall_clock:.0f}s < 900s "
            f"({len(models)} models, reps={REPS})")


def test_criterion_4_counterexample_detection():
    template = BatteryTemplate(n_steps=512, pilot_reps=500)
    ok = True
    details = []
    for seed in (0, 1, 2):
        report = run_battery(
            [get_preset("doleans"), get_preset("bridge")], template, 1000, seed)
        dol = [r.estimate for r in report.rows if r.model == "doleans"
               and r.estimate.classification is Classification.ANALYTIC_ZERO]
        bri = [r.estimate for r in report.rows if r.model == "bridge"
               and r.estimate.classification is Classification.ANALYTIC_ZERO]
        seed_ok = (
            any(e.reason == "POSITIVITY" and e.hits == 0 for e in dol)
            and any(e.reason == "ENDPOINT_PIN" and e.hits == 0 for e in bri)
        )
        details.append(f"seed {seed}: doleans {len(dol)} zeros, "
                       f"bridge {len(bri)} zeros")
        ok = ok and seed_ok
    _report(4, ok, "; ".join(details))


def test_criterion_5_integration_identities():
    grid = make_grid(0.0, 1.0, 512)
    t = np.asarray(grid.nodes)
    k1 = Path(grid, np.sin(t))
    k2 = Path(grid, t ** 2)
    root = RngStream(1005, 0)
    eps_mach = np.finfo(float).eps
    max_ulps = 0.0
    for r in range(1000):
        w = gen_brownian(grid, root.child(r))
        lhs = ito_integral(Path(grid, 2.0 * k1.values - 3.0 * k2.values), w).values
        rhs = 2.0 * ito_integral(k1, w).values - 3.0 * ito_integral(k2, w).values
        # per-node ulps relative to the accumulated term magnitude (the
        # conditioning scale of a running sum; the result itself can cancel)
        dw = np.abs(np.diff(w.values))
        mag = np.concatenate(
            ([1.0],
             np.cumsum((2.0 * np.abs(k1.values[:-1])
                        + 3.0 * np.abs(k2.values[:-1])) * dw)))
        scale = np.maximum(mag, 1.0)
        max_ulps = max(max_ulps,
                       float(np.max(np.abs(lhs - rhs) / (eps_mach * scale))))
        # discrete integration-by-parts identity at the same resolution;
        # its conditioning scale includes the boundary product and both sums
        direct = ito_integral(k1, w).values
        parts = rs_parts_form(k1, w).values
        v = np.abs(w.values - w.values[0])
        pmag = np.maximum.reduce([
            np.abs(k1.values) * v,
            np.concatenate(([0.0], np.cumsum(np.abs(k1.values[:-1]) * dw))),
            np.concatenate(([0.0], np.cumsum(v[1:] * np.abs(np.diff(k1.values))))),
            np.ones_like(v),
        ])
        max_ulps = max(max_ulps,
                       float(np.max(np.abs(direct - parts) / (eps_mach * pmag))))
    # refinement study for int W dW: RMS error should scale as sqrt(dt)
    fine = make_grid(0.0, 1.0, 8192)
    errs = {1: [], 4: []}
    for r in range(400):
        w_fine = gen_brownian(fine, root.child(10_000 + r)).values
        for factor in (1, 4):
            # factor 1: stride-4 coarsening (step dt); factor 4: full fine
            # path (step dt/4), both sharing the same terminal value
            sub = w_fine[:: 4 // factor]
            n = sub.size - 1
            g = make_grid(0.0, 1.0, n)
            w = Path(g, sub)
            i = ito_integral(w, w).values[-1]
            exact = 0.5 * (sub[-1] ** 2 - 1.0)
            errs[factor].append(i - exact)
    rms1 = np.sqrt(np.mean(np.square(errs[1])))
    rms4 = np.sqrt(np.mean(np.square(errs[4])))
    ratio = rms1 / rms4  # dt -> dt/4 should halve the RMS error... ratio ~2
    ok = max_ulps <= 8.0 and 1.0 <= ratio <= 4.0
    _report(5, ok,
            f"linearity max {max_ulps:.2f} ulps <= 8; "
            f"refinement RMS ratio {ratio:.2f} in [1, 4] (expected 2)")


def test_criterion_6_fbm_exactness():
    grid = make_grid(0.0, 1.0, 1024)
    worst = sampler_worst = 0.0
    for h in (0.25, 0.5, 0.75):
        r = fbm_covariance(h, np.asarray(grid.nodes[1:]))
        factor = np.linalg.cholesky(r)
        rel = np.max(np.abs(factor @ factor.T - r)) / np.max(np.abs(r))
        worst = max(worst, rel)
        # the factor the samplers draw with
        factor = _fbm_cholesky(h, grid)
        rel = np.max(np.abs(factor @ factor.T - r)) / np.max(np.abs(r))
        sampler_worst = max(sampler_worst, rel)
    # successive-increment correlation at h = 0.25, 10^5 replications
    small = make_grid(0.0, 1.0, 2)
    cov = fbm_covariance(0.25, np.asarray(small.nodes[1:]))
    ell = np.linalg.cholesky(cov)
    z = RngStream(1006, 0).generator().standard_normal((REPS, 2))
    nodes = z @ ell.T
    inc1, inc2 = nodes[:, 0], nodes[:, 1] - nodes[:, 0]
    c = float(np.corrcoef(inc1, inc2)[0, 1])
    target = 2.0 ** (2 * 0.25 - 1) - 1.0  # -0.29289
    se = (1.0 - target ** 2) / np.sqrt(REPS)
    ok = worst <= 1e-10 and sampler_worst <= 1e-10 and abs(c - target) <= 4 * se
    _report(6, ok,
            f"cholesky rel err {worst:.2e} <= 1e-10; "
            f"sampler factor rel err {sampler_worst:.2e} <= 1e-10; "
            f"increment corr {c:.5f} vs {target:.5f} (4 SE = {4 * se:.5f})")


def test_criterion_7_bns_bounds():
    grid = make_grid(0.0, 1.0, 64)
    sub = SubordinatorSpec(SubordinatorKind.COMPOUND_POISSON_EXP,
                           jump_rate=10.0, jump_mean=0.008)
    spec = BnsSpec(subordinator=sub, decay=2.0)
    floor_ok = True
    finals = np.empty(REPS)
    root = RngStream(1007, 0)
    for r in range(REPS):
        v = gen_bns_vol(grid, spec, root.child(r)).values
        if not np.all(v >= np.exp(-spec.decay * grid.t_end) * v[0]):
            floor_ok = False
        finals[r] = v[-1]
    mean = float(np.mean(finals))
    se = float(np.std(finals)) / np.sqrt(REPS)
    mean_ok = abs(mean - unit_mean(sub)) <= 4 * se
    ok = floor_ok and mean_ok
    _report(7, ok,
            f"exact floor on {REPS} paths: {floor_ok}; "
            f"stationary mean {mean:.5f} vs {unit_mean(sub):.5f} "
            f"(4 SE = {4 * se:.5f})")


def test_criterion_8_law_invariance():
    grid = make_grid(0.0, 1.0, 256)
    t = np.asarray(grid.nodes)
    tubes = [
        (Path(grid, np.zeros_like(t)), 1.0),
        (Path(grid, 0.5 * t), 0.8),
        (Path(grid, 0.75 * np.sin(np.pi * t)), 1.2),
    ]
    ok = True
    details = []
    for i, (f, eps) in enumerate(tubes):
        a = mc_tube_probability(gen_brownian, grid, f, eps, REPS,
                                RngStream(1008, i))
        b = mc_tube_probability(gen_brownian_alt, grid, f, eps, REPS,
                                RngStream(1008, 100 + i))
        ok = ok and _overlap(a, b)
        details.append(f"tube {i}: {a.p_hat:.4f} vs {b.p_hat:.4f}")
    _report(8, ok, "; ".join(details))


def test_criterion_9_determinism():
    models = [get_preset("brownian"), get_preset("heston"),
              get_preset("doleans")]
    template = BatteryTemplate(n_steps=256, pilot_reps=500)
    renders = [
        render_report(run_battery(models, template, 1000, 42, workers=w),
                      ReportFormat.CSV)
        for w in (1, 8, 1)
    ]
    ok = renders[0] == renders[1] == renders[2]
    _report(9, ok,
            f"CSV bytes identical across reruns and workers {{1, 8}}: {ok}")
