"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, printing a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to
see them).  Criterion 8 includes a stretch continuation whose outcome is
logged either way.
"""

import math
import sys

import numpy as np

from wavemodels import (
    AbcdParams,
    AiryState,
    BoussinesqState,
    DtControl,
    Grid,
    PhysicalParams,
    ScalarWaveState,
    SpectralField,
    SVState,
    abcd_evolve,
    acoustic_evolve,
    airy_evolve,
    airy_propagator,
    airy_quadratic_energy,
    boussinesq_solitary_solve,
    boussinesq_steady_residual,
    breaking_time,
    classify_abcd,
    group_velocity,
    kdv_soliton,
    petviashvili_continuation,
    petviashvili_solve,
    phase_velocity,
    ray_asymptotics,
    sample_ray_envelope,
    scalar_evolve,
    simple_wave_elevation,
    sv_evolve,
    to_riemann,
)
from wavemodels.scenarios import InitialData, Scenario, compare

P = PhysicalParams(9.81, 1.0)
C0 = math.sqrt(9.81)
GOOD = AbcdParams(-1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0)
RNG = np.random.default_rng(1)

WHITHAM_AMPLITUDE_AT_105 = 0.1026833864710825  # regression baseline


def report(number, label, ok, detail):
    # write through the capture so the line shows up in any pytest run
    print(
        f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}",
        file=sys.__stdout__,
    )
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_acoustic_dalembert_split():
    grid = Grid(200.0, 1024)
    z0 = SpectralField.from_function(grid, lambda x: 0.01 * np.exp(-((0.1 * x) ** 2)))
    out = acoustic_evolve(z0, SpectralField.zeros(grid), P, 15.0)
    x = grid.axis_coordinates(0)
    exact = 0.005 * np.exp(-((0.1 * (x - C0 * 15.0)) ** 2)) + 0.005 * np.exp(
        -((0.1 * (x + C0 * 15.0)) ** 2)
    )
    err = float(np.max(np.abs(out.values - exact)))
    report(1, "acoustic d'Alembert split", err < 1e-10, f"L_inf error {err:.3e} < 1e-10")


def test_criterion_02_airy_propagator_algebra():
    from wavemodels import omega

    xi = RNG.uniform(1e-6, 10.0, 10_000)
    t1 = RNG.uniform(0.0, 100.0, 10_000)
    t2 = RNG.uniform(0.0, 100.0, 10_000)
    w = omega(xi, P)

    def entries(t):
        return np.cos(w * t), (w / P.g) * np.sin(w * t), -(P.g / w) * np.sin(w * t)

    m11a, m12a, m21a = entries(t1)
    m11b, m12b, m21b = entries(t2)
    m11s, m12s, m21s = entries(t1 + t2)
    det_err = float(np.max(np.abs(m11a**2 - m12a * m21a - 1.0)))
    semi_err = max(
        float(np.max(np.abs(m11a * m11b + m12a * m21b - m11s))),
        float(np.max(np.abs(m11a * m12b + m12a * m11b - m12s))),
        float(np.max(np.abs(m21a * m11b + m11a * m21b - m21s))),
    )
    # spot-check the public 2x2 interface including the xi = 0 limit
    for i in range(0, 10_000, 500):
        m = airy_propagator(float(xi[i]), P, float(t1[i]))
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
    assert np.allclose(airy_propagator(0.0, P, 3.0), [[1.0, 0.0], [-3.0 * P.g, 1.0]])

    grid = Grid(200.0, 1024)
    s0 = AiryState(
        SpectralField.from_function(grid, lambda x: 0.01 * np.exp(-(x**2))),
        SpectralField.zeros(grid),
    )
    e0 = airy_quadratic_energy(s0, P)
    drift = max(
        abs(airy_quadratic_energy(airy_evolve(s0, P, t), P) - e0) / e0
        for t in np.linspace(0.0, 100.0, 21)
    )
    ok = det_err < 1e-12 and semi_err < 1e-12 and drift < 1e-10
    report(
        2,
        "airy propagator algebra",
        ok,
        f"det err {det_err:.2e}, semigroup err {semi_err:.2e}, invariant drift {drift:.2e}",
    )


def test_criterion_03_dispersion_endpoints():
    cp0 = phase_velocity(0.0, P)
    cg0 = group_velocity(0.0, P)
    endpoint_err = max(abs(cp0 - C0), abs(cg0 - C0))
    ratio = group_velocity(50.0, P) / phase_velocity(50.0, P)
    xi = np.linspace(1e-9, 100.0, 10_000)
    ordering = bool(np.all(group_velocity(xi, P) <= phase_velocity(xi, P) + 1e-12))
    ok = endpoint_err < 1e-12 and 0.49 <= ratio <= 0.51 and ordering
    report(
        3,
        "dispersion endpoints",
        ok,
        f"cp(0)=cg(0) err {endpoint_err:.2e}, cg/cp at 50 = {ratio:.4f}, cg<=cp on 1e4 pts: {ordering}",
    )


def test_criterion_04_stationary_phase_exponents():
    grid = Grid(3000.0, 4096)
    state = AiryState(
        SpectralField.from_function(grid, lambda x: 0.01 * np.exp(-(x**2))),
        SpectralField.zeros(grid),
    )
    times = np.arange(50.0, 401.0, 25.0)
    zeta_hat = lambda xi: 0.01 * math.sqrt(math.pi) * math.exp(-(xi**2) / 4.0)
    psi_hat = lambda xi: 0.0

    ray = ray_asymptotics(0.5 * C0, zeta_hat, psi_hat, P)
    env_i = sample_ray_envelope(
        state, P, 0.5 * C0, times, 2 * math.pi / ray.stationary_wavenumber
    )
    slope_i = float(np.polyfit(np.log(times), np.log(env_i), 1)[0])

    env_e = []
    for t in times:
        fringe = (P.H**2 * C0 * t / 2.0) ** (1.0 / 3.0)
        env_e.append(sample_ray_envelope(state, P, C0, [t], 3.0 * fringe, n_eval=513)[0])
    slope_e = float(np.polyfit(np.log(times), np.log(env_e), 1)[0])

    x = grid.axis_coordinates(0)
    frac = 0.0
    for t in (100.0, 250.0, 400.0):
        zt = airy_evolve(state, P, t).zeta.values
        outside = np.abs(x) > C0 * t + 30.0
        frac = max(frac, float(np.sum(zt[outside] ** 2) / np.sum(zt**2)))

    ok = abs(slope_i + 0.5) < 0.08 and abs(slope_e + 1.0 / 3.0) < 0.08 and frac < 1e-6
    report(
        4,
        "stationary-phase exponents",
        ok,
        f"interior slope {slope_i:.4f} (target -0.5), edge slope {slope_e:.4f} "
        f"(target -0.3333), cone-leak fraction {frac:.2e}",
    )


def test_criterion_05_wavebreaking():
    grid = Grid(2 * math.pi, 256)
    u_sin = SpectralField.from_function(grid, lambda x: -np.sin(x))
    t_star_sin = breaking_time(u_sin)
    exact_ok = abs(t_star_sin - 2.0 / 3.0) < 1e-12 * (2.0 / 3.0)

    run_grid = Grid(2 * math.pi, 2048)
    u0 = SpectralField.from_function(run_grid, lambda x: -0.05 * np.sin(x))
    state = SVState(simple_wave_elevation(u0, P), u0)
    t_star = breaking_time(u0)
    traj = sv_evolve(
        state, P, 1.1 * t_star, DtControl(cfl=0.6), n_out=22, blowup_threshold=6.0
    )
    halted = traj.halt is not None and traj.halt.reason == "breaking"
    halt_rel = abs(traj.halt.time - t_star) / t_star if halted else math.inf
    est_rel = (
        abs(traj.halt.breaking_time_estimate - t_star) / t_star if halted else math.inf
    )

    drift = 0.0
    for s in traj.states:
        if s.time <= 0.9 * t_star:
            r = to_riemann(s, P)
            drift = max(drift, float(np.max(np.abs(r.r_minus.values + 2.0 * C0))))

    ok = exact_ok and halted and halt_rel < 0.02 and est_rel < 0.02 and drift < 1e-4
    report(
        5,
        "wavebreaking",
        ok,
        f"T*(-sin) err {abs(t_star_sin - 2/3):.2e}, halt within {halt_rel:.3%}, "
        f"extrapolated within {est_rel:.3%}, r- drift {drift:.2e}",
    )


def test_criterion_06_abcd_classification():
    v1 = classify_abcd(GOOD, P)
    v2 = classify_abcd(AbcdParams(1.0 / 3.0, 0.0, 0.0, 0.0), P)
    v3 = classify_abcd(AbcdParams(0.0, 1.0 / 6.0, 0.0, 1.0 / 6.0), P)
    witness_ok = v2.witness_wavenumber is not None and abs(
        v2.witness_wavenumber - math.sqrt(3.0)
    ) < 0.1 * math.sqrt(3.0)
    ok = (
        v1.verdict == "well_posed"
        and v2.verdict == "ill_posed"
        and witness_ok
        and v3.verdict == "well_posed"
    )
    report(
        6,
        "abcd classification",
        ok,
        f"(-1/3,1/3,0,1/3): {v1.verdict}; (1/3,0,0,0): {v2.verdict} at k = "
        f"{v2.witness_wavenumber:.4f} (sqrt(3) = {math.sqrt(3):.4f}); (0,1/6,0,1/6): {v3.verdict}",
    )


def test_criterion_07_kdv_soliton():
    grid = Grid(200.0, 1024)
    sol = kdv_soliton(1.05 * C0, P, grid)
    amp_err = abs(sol.amplitude - 0.1)

    guess = SpectralField.from_function(grid, lambda x: 0.08 * np.exp(-0.05 * x**2))
    pet = petviashvili_solve("kdv", 1.05 * C0, P, grid, tol=1e-12, initial_guess=guess)
    pet_err = float(np.max(np.abs(pet.profile_zeta.values - sol.profile_zeta.values)))

    t_end = 10.0 / C0
    traj = scalar_evolve(ScalarWaveState(sol.profile_zeta, 0.0, "kdv"), P, t_end, n_out=2)
    shift = np.exp(-1j * grid.wavenumbers(0) * sol.speed * t_end)
    expected = SpectralField.from_hat(grid, shift * sol.profile_zeta.hat).values
    shape_err = float(np.max(np.abs(traj.final_state.zeta.values - expected)))

    ok = amp_err < 1e-12 and pet_err < 1e-8 and shape_err < 1e-6
    report(
        7,
        "kdv soliton",
        ok,
        f"amplitude err {amp_err:.2e}, fixed-point vs closed form {pet_err:.2e} < 1e-8, "
        f"transport shape err {shape_err:.2e} < 1e-6",
    )


def test_criterion_08_whitham_solitary_wave():
    grid = Grid(200.0, 1024)
    sol = petviashvili_solve("whitham", 1.05 * C0, P, grid, tol=1e-13, max_iter=800)
    baseline_err = abs(sol.amplitude - WHITHAM_AMPLITUDE_AT_105)
    ok = sol.residual < 1e-10 and baseline_err < 1e-9

    # Stretch: continuation toward the near-extreme figure speed.  Either a
    # converged profile or a documented divergence speed is acceptable.
    target = 1.2290408 * C0
    cont = petviashvili_continuation(
        "whitham", target, P, Grid(200.0, 2048), tol=1e-10, max_iter=3000
    )
    if cont.diverged_at is None:
        last = cont.solutions[-1]
        coeffs = np.abs(np.fft.fft(last.profile_zeta.values))
        tail = float(coeffs[last.profile_zeta.grid.nodes[0] // 3] / coeffs.max())
        stretch = (
            f"continuation reached {cont.reached_speed / C0:.7f} c0 with discrete residual "
            f"{last.residual:.1e}, amplitude {last.amplitude:.4f}; spectral tail fraction "
            f"{tail:.2e} marks the peaked profile as unresolved by a smooth basis"
        )
    else:
        stretch = (
            f"continuation diverged at {cont.diverged_at / C0:.7f} c0 after reaching "
            f"{cont.reached_speed / C0:.7f} c0 (peaked extreme wave not representable)"
        )
    report(
        8,
        "whitham solitary wave",
        ok,
        f"residual {sol.residual:.2e} < 1e-10, amplitude {sol.amplitude:.16f} vs stored "
        f"baseline (err {baseline_err:.1e}); stretch: {stretch}",
    )


def test_criterion_09_conservation_suite():
    dx_drifts = {}

    grid = Grid(2 * math.pi, 512)
    u0 = SpectralField.from_function(grid, lambda x: -0.05 * np.sin(x))
    sv_traj = sv_evolve(
        SVState(simple_wave_elevation(u0, P), u0), P, 2.0, DtControl(cfl=0.6), n_out=4
    )
    dx = grid.spacing[0]
    m0 = np.sum(sv_traj.states[0].zeta.values) * dx
    dx_drifts["saint_venant"] = max(
        abs(np.sum(s.zeta.values) * dx - m0) for s in sv_traj.states
    )

    bg = Grid(200.0, 512)
    z0 = SpectralField.from_function(bg, lambda x: 0.1 * np.exp(-0.1 * x**2))
    b_traj = abcd_evolve(BoussinesqState(z0, SpectralField.zeros(bg)), GOOD, P, 4.0, n_out=4)
    dxb = bg.spacing[0]
    mb = np.sum(b_traj.states[0].zeta.values) * dxb
    dx_drifts["boussinesq"] = max(
        abs(np.sum(s.zeta.values) * dxb - mb) for s in b_traj.states
    )

    sg = Grid(200.0, 1024)
    zs = SpectralField.from_function(sg, lambda x: 0.05 * np.exp(-0.01 * x**2))
    l2_drifts = {}
    for model in ("kdv", "whitham"):
        traj = scalar_evolve(ScalarWaveState(zs, 0.0, model), P, 20.0 / C0, n_out=4)
        dxs = sg.spacing[0]
        m0s = np.sum(zs.values) * dxs
        e0s = np.sum(zs.values**2) * dxs
        dx_drifts[model] = max(abs(np.sum(s.zeta.values) * dxs - m0s) for s in traj.states)
        l2_drifts[model] = max(
            abs(np.sum(s.zeta.values**2) * dxs - e0s) / e0s for s in traj.states
        )

    mass_ok = all(v < 1e-12 for v in dx_drifts.values())
    l2_ok = all(v < 1e-8 for v in l2_drifts.values())
    report(
        9,
        "conservation suite",
        mass_ok and l2_ok,
        "mass drift " + ", ".join(f"{k} {v:.1e}" for k, v in dx_drifts.items())
        + "; L2 drift " + ", ".join(f"{k} {v:.1e}" for k, v in l2_drifts.items()),
    )


def test_criterion_10_consistency_probes():
    grid = Grid(200.0, 1024)
    a = Scenario(model="airy", grid=grid, t_end=15.0, output_stride=3)
    b = Scenario(model="acoustic", grid=grid, t_end=15.0, output_stride=3)
    wide = compare(a, b, InitialData(kind="gaussian", amplitude=0.01, width_parameter=0.1))

    kg = Grid(400.0, 1024)
    ka = Scenario(model="kdv", grid=kg, t_end=15.0, output_stride=5)
    kb = Scenario(model="whitham", grid=kg, t_end=15.0, output_stride=5)
    full = compare(ka, kb, InitialData(kind="gaussian", amplitude=0.01, width_parameter=0.1))
    halved = compare(ka, kb, InitialData(kind="gaussian", amplitude=0.005, width_parameter=0.05))
    ratio = full.summary / halved.summary

    ok = wide.summary < 0.05 and ratio >= 4.0
    report(
        10,
        "consistency probes",
        ok,
        f"airy-vs-acoustic wide-Gaussian diff {wide.summary:.4f} < 0.05; "
        f"kdv-vs-whitham error reduction {ratio:.1f}x >= 4x under data halving",
    )


def test_criterion_11_boussinesq_solitary_waves():
    results = {}
    for ratio, length, nodes in ((1.01, 400.0, 1024), (1.05, 200.0, 512)):
        grid = Grid(length, nodes)
        sol = boussinesq_solitary_solve(GOOD, ratio * C0, P, grid, tol=1e-12)
        r1, r2 = boussinesq_steady_residual(sol.profile_zeta, sol.profile_u, GOOD, sol.speed, P)
        results[ratio] = (sol.amplitude, max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))))
    res_ok = all(r < 1e-10 for _, r in results.values())
    ordering_ok = results[1.05][0] > results[1.01][0]
    report(
        11,
        "boussinesq solitary waves",
        res_ok and ordering_ok,
        f"residuals {results[1.01][1]:.1e}, {results[1.05][1]:.1e} < 1e-10; "
        f"amplitude(1.05 c0) = {results[1.05][0]:.5f} > amplitude(1.01 c0) = {results[1.01][0]:.5f}",
    )
