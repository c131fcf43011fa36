"""Acceptance criteria, one test per criterion (run with -s to see PASS lines).

Benchmark runs are shared across criteria through a module-scoped cache. The
heavy configurations (M = 16 sweeps and one M = 32 run) dominate the runtime;
the whole module takes about 30 s on a 2-vCPU machine.
"""
import math
from pathlib import Path

import numpy as np
import pytest

import fluxbound.benchmark as bm
import fluxbound.equilibration as eq
import fluxbound.estimator as est
import fluxbound.fem as fem
import fluxbound.geometry as geo
import fluxbound.reconstruction as rec

import oracles
from conftest import (fd_divergence, kkt_min_norm_oracle, one_simplex, random_problem_data,
                      random_simplex, random_small_mesh)

REL_SLACK = 1e-8
CRIT1_KAPPA1 = (1e-3, 1.0, 1e2, 1e4, 1e6)
CRIT1_M = (2, 4, 8, 16)
SWEEP_KAPPA1 = tuple(10.0 ** k for k in range(-3, 7))
MESH_SWEEP = (2, 4, 8, 16, 32)
BASELINE = Path(__file__).parent / "baselines" / "mesh_sweep_k100_d3.csv"
KAPPA_BASELINE = Path(__file__).parent / "baselines" / "kappa_sweep_m16_d3.csv"


def _check_or_record_baseline(path, key_name, rows, keys):
    """Compare the (error, eta, eta*) of benchmark rows with the stored CSV, or record it."""
    if path.exists():
        ref = {}
        for line in path.read_text().strip().splitlines()[1:]:
            parts = line.split(",")
            ref[parts[0]] = [float(x) for x in parts[1:]]
        for key in keys:
            row = rows[key]
            got = [row["true_error"], row["eta_tau"], row["eta_taustar"]]
            assert np.allclose(got, ref[f"{key:g}"], rtol=1e-6), key
        return "matched stored baselines"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{key_name},true_error,eta_tau,eta_taustar\n")
        for key in keys:
            row = rows[key]
            fh.write(f"{key:g},{row['true_error']:.12g},{row['eta_tau']:.12g},"
                     f"{row['eta_taustar']:.12g}\n")
    return "baselines recorded"

_cache = {}


def bench(dim, m, k1, k2=1.0e6):
    key = (dim, m, k1, k2)
    if key not in _cache:
        _cache[key] = bm.run_benchmark(
            bm.RunConfig(dim=dim, m=m, kappa1=k1, kappa2=k2, conformity=True))
    return _cache[key]


def _passline(text):
    print(f"\n[PASS] {text}")


# ---------------------------------------------------------------------------
# criterion 1: guaranteed upper bound
# ---------------------------------------------------------------------------

def test_criterion_1_guaranteed_upper_bound():
    worst = np.inf
    for m in CRIT1_M:
        for k1 in CRIT1_KAPPA1:
            rep, row = bench(3, m, k1)
            err = row["true_error"]
            assert rep.eta_tau >= err * (1.0 - REL_SLACK), (m, k1)
            assert rep.eta_taustar >= err * (1.0 - REL_SLACK), (m, k1)
            worst = min(worst, rep.eta_taustar / err)
    _passline(f"criterion 1: eta >= true error on all 20 runs "
              f"(min eta*/error = {worst:.4f})")


# ---------------------------------------------------------------------------
# criterion 2: robustness in kappa
# ---------------------------------------------------------------------------

def test_criterion_2_kappa_robustness():
    ieffs = {}
    rows = {}
    for k1 in SWEEP_KAPPA1:
        _, row = bench(3, 16, k1)
        ieffs[k1] = (row["ieff_tau"], row["ieff_taustar"])
        rows[k1] = row
        assert 1.0 <= row["ieff_taustar"] <= 3.0, k1
        assert row["ieff_taustar"] <= row["ieff_tau"] * (1.0 + 1e-12), k1
    for k1 in (1e4, 1e6):
        assert 1.0 <= ieffs[k1][1] <= 1.5, k1
    note = _check_or_record_baseline(KAPPA_BASELINE, "kappa1", rows, SWEEP_KAPPA1)
    spread = {k: round(v[1], 4) for k, v in ieffs.items()}
    _passline(f"criterion 2: I_eff(tau*) in [1,3] across the sweep, "
              f"[1,1.5] at kappa1 >= 1e4; values {spread}; {note}")


# ---------------------------------------------------------------------------
# criterion 3: robustness in h
# ---------------------------------------------------------------------------

def test_criterion_3_mesh_robustness():
    rows = {}
    for m in MESH_SWEEP:
        _, row = bench(3, m, 1e2)
        rows[m] = row
        assert row["ieff_taustar"] >= 1.0 - 1e-12, m
    for m in (2, 32):
        assert 1.0 <= rows[m]["ieff_taustar"] <= 3.0, m
    # intermediate-regime values are regression baselines, not assertions
    note = _check_or_record_baseline(BASELINE, "M", rows, MESH_SWEEP)
    ieffs = {m: round(rows[m]["ieff_taustar"], 4) for m in MESH_SWEEP}
    _passline(f"criterion 3: I_eff(tau*) >= 1 on the mesh sweep, extremes in "
              f"[1,3]; values {ieffs}; {note}")


# ---------------------------------------------------------------------------
# criteria 4-6: audits on all criterion-1 runs
# ---------------------------------------------------------------------------

def test_criterion_4_divergence_audit():
    worst = 0.0
    for m in CRIT1_M:
        for k1 in CRIT1_KAPPA1:
            rep, _ = bench(3, m, k1)
            worst = max(worst, rep.audits["divergence_residual"])
    assert worst <= 1e-9
    _passline(f"criterion 4: divergence audit max scaled residual {worst:.3e} <= 1e-9")


def test_criterion_5_equilibration_audit():
    worst = 0.0
    for m in CRIT1_M:
        for k1 in CRIT1_KAPPA1:
            rep, _ = bench(3, m, k1)
            worst = max(worst, rep.audits["equilibration_residual"])
    assert worst <= 1e-9
    _passline(f"criterion 5: equilibration audit max scaled residual {worst:.3e} <= 1e-9")


def test_criterion_6_hdiv_conformity():
    worst = 0.0
    for m in CRIT1_M:
        for k1 in CRIT1_KAPPA1:
            rep, _ = bench(3, m, k1)
            worst = max(worst, rep.audits["hdiv_mismatch"])
    assert worst <= 1e-11
    _passline(f"criterion 6: interior-facet normal-trace mismatch {worst:.3e} "
              f"<= 1e-11 (scaled by local flux size)")


# ---------------------------------------------------------------------------
# criterion 7: trace-inequality Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_7_trace_monte_carlo():
    rng = np.random.default_rng(7321)
    margin = np.inf
    for d in (2, 3, 4):
        for _ in range(20):
            pts = random_simplex(d, rng)
            kappa = 0.0 if rng.random() < 0.15 else 10.0 ** rng.uniform(-2, 2)
            max_plain, max_freed, q = oracles.verify_trace_inequality(pts, kappa, 1000, rng)
            h, vol = q.diameters[0], q.volumes[0]
            for i in range(d + 1):
                tc = est.trace_constants(d, h, vol, q.facet_measures[0, i], kappa)
                # independent evaluation of the closed forms
                ratio = q.facet_measures[0, i] / (d * vol)
                mref = h / math.pi if kappa == 0 else min(h / math.pi, 1.0 / kappa)
                cbar_ref = ratio * mref * (2 * h + d * mref)
                assert tc.cbar2 == pytest.approx(cbar_ref, rel=1e-12)
                assert max_freed[i] <= math.sqrt(tc.cbar2) * (1 + 1e-12)
                margin = min(margin, math.sqrt(tc.cbar2) / max(max_freed[i], 1e-300))
                if kappa > 0:
                    ct_ref = ratio / kappa * math.sqrt((2 * h) ** 2 + (d / kappa) ** 2)
                    assert tc.ct2 == pytest.approx(ct_ref, rel=1e-12)
                    assert max_plain[i] <= math.sqrt(tc.ct2) * (1 + 1e-12)
    # the hand-checked reference values
    tc = est.trace_constants(2, math.sqrt(2.0), 0.5, 1.0, 1.0)
    assert tc.ct2 == pytest.approx(math.sqrt(12.0), rel=1e-12)
    assert tc.cbar2 == pytest.approx(1.6786, abs=2e-4)
    _passline(f"criterion 7: no trace-inequality violation in 60 simplices x "
              f"1000 quadratics (min constant margin {margin:.2f}x)")


# ---------------------------------------------------------------------------
# criterion 8: oracle equivalence
# ---------------------------------------------------------------------------

def _patch_system(mesh, v, resid):
    els, locs = oracles.vertex_patch(mesh, v)
    fids, _ = mesh.vertex_facets(v)
    unknown = fids[mesh.facet_tag[fids] != geo.NEUMANN]
    rows = np.zeros((len(els), len(unknown)))
    for r, (e, n) in enumerate(zip(els, locs)):
        for i in range(mesh.dim + 1):
            if i == n:
                continue
            fid = mesh.elem_facets[e, i]
            if mesh.facet_tag[fid] == geo.NEUMANN:
                continue
            rows[r, np.searchsorted(unknown, fid)] = mesh.elem_sigma[e, i]
    cons = ~mesh.layer[els]
    return (rows[cons], -resid.D[els[cons], locs[cons]],
            rows[~cons], -resid.Dstar[els[~cons], locs[~cons]], unknown)


def _oracle_checks(mesh, data, sol, rng, n_patch=8, n_div=2):
    fluxes = eq.equilibrate(mesh, sol)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    pf = fem.project_element_bulk(mesh, fem.element_data(mesh, data.f, data.data_degree)[0])
    r_vals = pf - mesh.kappa[:, None] ** 2 * sol.u[mesh.simplices]
    v1 = rec.variant1_bulk(mesh, R, r_vals)

    # eta oracles: eta1 against degree-8 quadrature of the field, eta2 against
    # the staircase route at elevated degree (+4)
    lo, _ = rec.eta1_terms(mesh, v1)
    hi, _ = oracles.eta1_terms_quadrature(mesh, v1, 8)
    scale = max(lo.max(), 1e-300)
    assert np.abs(lo - hi).max() / scale < 1e-10
    sel = np.flatnonzero(mesh.kappa > 0)
    if len(sel):
        f_lo, s_lo = rec.eta2_terms(mesh, R, r_vals, sel)
        f_hi, s_hi = oracles.eta2_terms_staircase(mesh, R, r_vals, sel,
                                                  degree=oracles.ETA2_DEGREE + 4,
                                                  top_degree=oracles.TOP_DEGREE + 4)
        scale2 = max(f_lo.max(), s_lo.max(), 1e-300)
        assert np.abs(f_lo - f_hi).max() / scale2 < 1e-10
        assert np.abs(s_lo - s_hi).max() / scale2 < 1e-10

    # oscillation oracle: the data pass against quadrature of the data against
    # its projection at the same degree (f may round differently on the data
    # pass's larger batches) and at elevated degree; when f is (near-)affine
    # the values are round-off noise, so the tolerance floors at the data scale
    o_lo = est.oscillation_f(mesh, sol)
    o_quad = oracles.oscillation_f(mesh, data.f, pf, 8)
    o_hi = oracles.oscillation_f(mesh, data.f, pf, 12)
    fc = np.asarray(data.f(mesh.centroids))
    with np.errstate(divide="ignore"):
        weight = np.where(mesh.kappa > 0,
                          np.minimum(mesh.diameters / math.pi,
                                     1.0 / np.where(mesh.kappa > 0, mesh.kappa, 1.0)),
                          mesh.diameters / math.pi)
    dscale = float(np.sqrt((fc ** 2 * mesh.volumes).sum()) * weight.max())
    floor = max(o_lo.max(), dscale, 1e-300)
    assert np.abs(o_lo - o_quad).max() < 1e-13 * floor
    assert np.abs(o_lo - o_hi).max() < 1e-10 * floor

    # patch alpha solves vs the dense KKT oracle
    resid = eq.residual_functionals(mesh, sol)
    verts = rng.choice(mesh.n_points, size=min(n_patch, mesh.n_points), replace=False)
    for v in verts:
        C, c, E, e, unknown = _patch_system(mesh, v, resid)
        if len(unknown) == 0:
            continue
        oracle = kkt_min_norm_oracle(C, c, E, e)
        _, alpha, _ = eq.solve_vertex_patch(mesh, v, resid)
        pscale = max(np.abs(c).max(initial=0.0), np.abs(e).max(initial=0.0), 1.0)
        assert np.abs(alpha - oracle).max() < 1e-9 * pscale

    # divergence closures vs central finite differences
    Rv_all = eq._to_local_vertices(R)
    for e in rng.choice(mesh.n_elements, size=min(n_div, mesh.n_elements),
                        replace=False):
        pts = mesh.points[mesh.simplices[e]]
        h = mesh.diameters[e]
        x = rng.dirichlet(np.full(mesh.dim + 1, 3.0), size=8) @ pts
        flux1 = oracles.build_variant1(pts, Rv_all[e], r_vals[e])
        div_an = flux1.divergence(x)
        fd = fd_divergence(flux1, x, 1e-6 * h)
        assert np.abs(fd - div_an).max() < 1e-6 * max(1.0, np.abs(div_an).max())
        if mesh.kappa[e] > 0:
            # sample inside the active layer of one facet cone (x_d < 1/kappa);
            # the step must stay below the layer width so the differences never
            # cross the cutoff kink
            flux2 = oracles.build_variant2(pts, Rv_all[e], mesh.kappa[e])
            inc, rho = flux2.incentre, flux2.rho
            i = int(rng.integers(0, mesh.dim + 1))
            fpts = np.delete(pts, i, axis=0)
            base = rng.dirichlet(np.full(mesh.dim, 5.0), size=8) @ fpts
            s = rng.uniform(0.25, 0.7, 8) / max(1.0, mesh.kappa[e] * rho)
            xs = base + s[:, None] * (inc - base)
            xs = xs[flux2._locate(xs) == i]
            if len(xs):
                step = 1e-6 * h
                if mesh.kappa[e] * rho > 1.0:
                    step = min(step, 0.2 / mesh.kappa[e])
                div_an = flux2.divergence(xs)
                fd = fd_divergence(flux2, xs, step)
                assert np.abs(fd - div_an).max() \
                    < 1e-6 * max(1.0, np.abs(div_an).max())
    return fluxes


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(81523)
    # the M = 4 benchmark, all vertices checked against the KKT oracle
    cfg = bm.RunConfig(dim=3, m=4, kappa1=1e2, kappa2=1e6)
    mesh = bm.benchmark_mesh(cfg)
    data = bm.benchmark_data(cfg)
    sol = fem.solve_problem(mesh, data)
    _oracle_checks(mesh, data, sol, rng, n_patch=mesh.n_points, n_div=6)

    # 50 randomized small meshes with random data
    for _ in range(50):
        mesh = random_small_mesh(rng)
        data = random_problem_data(rng, mesh.dim)
        sol = fem.solve_problem(mesh, data)
        _oracle_checks(mesh, data, sol, rng)
    _passline("criterion 8: eta, oscillation, patch and divergence oracles agree "
              "on the M=4 benchmark and 50 random meshes")


# ---------------------------------------------------------------------------
# criterion 9: dimension genericity
# ---------------------------------------------------------------------------

def test_criterion_9_two_dimensional_benchmark():
    for m in (4, 16, 64):
        for k1 in CRIT1_KAPPA1:
            rep, row = bench(2, m, k1)
            err = row["true_error"]
            assert rep.eta_tau >= err * (1.0 - REL_SLACK), (m, k1)
            assert rep.eta_taustar >= err * (1.0 - REL_SLACK), (m, k1)
            assert rep.audits["divergence_residual"] <= 1e-9
            assert rep.audits["equilibration_residual"] <= 1e-9
            assert rep.audits["hdiv_mismatch"] <= 1e-11
    _passline("criterion 9a: 2D analogue passes criteria 1 and 4-6 "
              "for M in {4, 16, 64}")


def _manufactured_quadratic(d, rng, kappa):
    c0 = rng.uniform(-0.5, 0.5)
    a = rng.uniform(-1.0, 1.0, d)
    b = rng.uniform(-1.0, 1.0, d)

    def u(x):
        return c0 + x @ a + (x ** 2) @ b

    def grad_u(x):
        return a + 2.0 * b * x

    def f(x):
        return -2.0 * b.sum() + kappa ** 2 * u(x)

    return u, grad_u, f, (c0, a, b)


def _single_simplex_suite(d, rng, kappa_rho_target):
    pts = random_simplex(d, rng)
    kappa = kappa_rho_target / one_simplex(pts).inradii[0]
    u, grad_u, f, _ = _manufactured_quadratic(d, rng, kappa)

    normals = [None] * (d + 1)
    origins = [None] * (d + 1)
    g = one_simplex(pts).grads[0]
    for i in range(d + 1):
        normals[i] = -g[i] / np.linalg.norm(g[i])
        origins[i] = np.delete(pts, i, axis=0)[0]

    def g_n(x):
        dist = np.stack([np.abs((x - origins[i]) @ normals[i]) for i in range(d + 1)])
        which = dist.argmin(axis=0)
        out = np.empty(len(x))
        for i in range(d + 1):
            m = which == i
            out[m] = grad_u(x[m]) @ normals[i]
        return out

    from test_fem import one_element_mesh
    mesh = one_element_mesh(pts, kappa)
    data = fem.ProblemData(f=f, g_N=g_n, data_degree=8)
    sol = fem.solve_problem(mesh, data)

    rep = est.estimate(mesh, sol, data, "both", check_conformity=True)
    # true error by exact quadrature (u quadratic, u_h affine)
    uloc = sol.u[mesh.simplices[0]]

    def diff(x):
        lam = (x - pts[0]) @ g.T
        lam[:, 0] += 1.0
        return u(x) - lam @ uloc

    def grad_diff(x):
        return grad_u(x) - sol.grad[0]

    err = oracles.energy_norm(mesh, diff, grad_diff, 8)

    # criterion 1 analogue
    assert rep.eta_tau >= err * (1.0 - REL_SLACK)
    assert rep.eta_taustar >= err * (1.0 - REL_SLACK)
    # criteria 4-5 analogues
    assert rep.audits["divergence_residual"] <= 1e-9
    assert rep.audits["equilibration_residual"] <= 1e-9
    # criterion 6 analogue: the element trace must reproduce g_K
    fluxes = eq.equilibrate(mesh, sol)
    R = rec.facet_residuals(mesh, fluxes, sol.grad)
    pf = fem.project_element_bulk(mesh, fem.element_data(mesh, data.f, 8)[0])
    r_vals = pf - mesh.kappa[:, None] ** 2 * sol.u[mesh.simplices]
    v1 = rec.variant1_bulk(mesh, R, r_vals)
    variant = np.where(mesh.kappa * mesh.inradii > 1, 2, 1).astype(np.int8)
    [trace] = rec.facet_trace_values(mesh, sol.grad, v1, R, variant[None])
    g_exact = oracles.equilibrated_trace(mesh, R, sol.grad)
    gscale = np.maximum(1.0, np.abs(g_exact).max(axis=2))
    assert (np.abs(trace - g_exact) / gscale[:, :, None]).max() < 1e-11
    # criterion 7 analogue
    max_plain, max_freed, qq = oracles.verify_trace_inequality(pts, kappa, 200, rng)
    for j in range(d + 1):
        tc = est.trace_constants(d, qq.diameters[0], qq.volumes[0],
                                 qq.facet_measures[0, j], kappa)
        assert max_plain[j] <= math.sqrt(tc.ct2) * (1 + 1e-12)
        assert max_freed[j] <= math.sqrt(tc.cbar2) * (1 + 1e-12)
    # criterion 8 analogue
    _oracle_checks(mesh, data, sol, rng, n_patch=mesh.n_points, n_div=1)
    return rep, err


def test_criterion_9_high_dimensional_single_simplex():
    rng = np.random.default_rng(9514)
    for d in (4, 5):
        rep_small, err_small = _single_simplex_suite(d, rng, kappa_rho_target=0.5)
        rep_large, err_large = _single_simplex_suite(d, rng, kappa_rho_target=30.0)
        assert rep_large.variant_tau[0] == 2  # layer reconstruction exercised
        assert rep_small.variant_tau[0] == 1
    _passline("criterion 9b: single-simplex suites (bound, audits, traces, "
              "oracles) pass for d = 4 and d = 5")
