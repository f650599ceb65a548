"""Release-gate checks: every guarantee the package advertises, with the
tolerances and problem sizes it is specified for.

Each test covers one criterion and prints a single summary line; the
conftest terminal hook repeats the PASS/FAIL verdicts at the end of the
run.  Reference values come only from independent routes: Kronecker
vectorization, unit-circle quadrature, central finite differences, and
the model-based gradient formulas.
"""

import time

import numpy as np

import ddh2mor as dd
from helpers import (
    data_gradients_B_known,
    data_gradients_from_ensemble,
    kron_solve_stein,
    kron_solve_sylvester,
    quad_h2_norm,
    fd_gradients,
    random_rom,
    random_stable,
    random_system,
    rel_max_err,
)


def _line(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


def triple_rel_err(got, ref):
    return max(rel_max_err(got.gA, ref.gA),
               rel_max_err(got.gB, ref.gB),
               rel_max_err(got.gC, ref.gC))


def desk_scale_instance(seed=0, n=10, m=2, N=12):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n, m)
    ens = dd.generate_ensemble(sys, N, dd.NoiseSpec(alpha=0.0, seed=seed + 1))
    return rng, sys, ens


def test_data_gradients_match_model_gradients_desk_scale():
    # noiseless n=10, m=2, N=12 data; 20 random order-3 reduced models
    rng, sys, ens = desk_scale_instance(seed=0)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        rom = random_rom(rng, 3, 2, 10)
        got = data_gradients_from_ensemble(ens, rom)
        ref = dd.model_based_gradients(sys, rom)
        worst = max(worst, triple_rel_err(got, ref))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert elapsed < 5.0
    _line("data gradients match model-based gradients",
          f"20 roms, max rel err {worst:.2e}, {elapsed:.2f} s")


def test_known_input_gradients_match_unknown_input_route():
    rng, sys, ens = desk_scale_instance(seed=1)
    worst = 0.0
    for _ in range(20):
        rom = random_rom(rng, 3, 2, 10)
        unknown = data_gradients_from_ensemble(ens, rom)
        known = data_gradients_B_known(ens, sys.B, rom)
        worst = max(worst, triple_rel_err(known, unknown))
    assert worst <= 1e-8
    _line("known-input gradients match unknown-input gradients",
          f"20 roms, max rel err {worst:.2e}")


def test_gradients_match_central_finite_differences():
    # data objective differentiated numerically with step 1e-6 on n=8 data
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(100 + seed)
        sys = random_system(rng, 8, 2)
        ens = dd.generate_ensemble(sys, 12, dd.NoiseSpec(seed=200 + seed))
        rom = random_rom(rng, 3, 2, 8)
        dual = dd.reconstruct_dual(ens)

        def phi(q):
            P, _ = dd.rom_gramians(q)
            return dd.objective_f(q, P, dd.solve_R(dual, q))

        got = data_gradients_from_ensemble(ens, rom)
        fd = fd_gradients(phi, rom, step=1e-6)
        worst = max(worst, triple_rel_err(got, fd))
    assert worst <= 1e-4
    _line("gradients match central finite differences",
          f"3 instances, step 1e-6, max rel err {worst:.2e}")


def test_equation_solvers_match_kronecker_vectorization():
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    worst = 0.0
    for i in range(25):
        k = int(rng.integers(1, 21))  # k * k <= 400
        A = random_stable(rng, k, radius=0.9)
        G = rng.standard_normal((k, k))
        W = G + G.T
        worst = max(worst, rel_max_err(dd.solve_stein(A, W), kron_solve_stein(A, W)))
    for i in range(25):
        k = int(rng.integers(1, 41))
        r = int(rng.integers(1, max(2, 400 // k + 1)))
        M = random_stable(rng, k, radius=0.9)
        N = random_stable(rng, r, radius=0.9)
        W = rng.standard_normal((k, r))
        worst = max(worst, rel_max_err(dd.solve_discrete_sylvester(M, N, W),
                                       kron_solve_sylvester(M, N, W)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 10.0
    _line("matrix-equation solvers match Kronecker vectorization",
          f"50 instances, max rel err {worst:.2e}, {elapsed:.2f} s")


def test_h2_norm_matches_unit_circle_quadrature():
    worst = 0.0
    for seed, n in ((0, 4), (1, 9), (2, 16)):
        sys = random_system(np.random.default_rng(300 + seed), n, 2, radius=0.9)
        ref = quad_h2_norm(sys.A, sys.B, sys.C, nodes=4096)
        worst = max(worst, abs(dd.h2_norm(sys) - ref) / ref)
    rom = random_rom(np.random.default_rng(303), 5, 2, 3, radius=0.9)
    ref = quad_h2_norm(rom.Ahat, rom.Bhat, rom.Chat, nodes=4096)
    worst = max(worst, abs(dd.h2_norm(rom) - ref) / ref)
    assert worst <= 1e-6
    _line("gramian h2 norm matches 4096-node quadrature",
          f"orders up to 16, max rel err {worst:.2e}")


def test_descent_improves_each_initializer_at_full_scale():
    # n=100, m=2, r=6, N=102 noiseless; default line-search parameters;
    # seeds chosen so that no initializer starts already gradient-stationary
    sys = dd.generate_synthetic(dd.SyntheticSpec(n=100, m=2, h=0.1, seed=7))
    ens = dd.generate_ensemble(sys, 102, dd.NoiseSpec(alpha=0.0, seed=107))
    trajs = dd.generate_trajectories(sys, 102, 10, dd.NoiseSpec(alpha=0.0, seed=207))
    left, right = dd.sample_frequency_data(sys, 30, 30, seed=307)
    inits = {
        "dmdc": dd.init_dmdc(trajs, 6),
        "loewner": dd.init_loewner(left, right, 6),
        "databt": dd.init_data_bt(dd.impulse_from_system(sys, 10), 6),
    }
    params = dd.OptimParams(alpha0=1.0, c=1e-4, rho=0.5, tol=1e-3)
    details = []
    for name, init in inits.items():
        started = time.perf_counter()
        res = dd.run(ens, init, params, oracle=sys)
        elapsed = time.perf_counter() - started
        fs = [rec.f for rec in res.history]
        assert res.stop_reason in (dd.StopReason.CONVERGED, dd.StopReason.MAX_ITERS)
        assert all(b <= a for a, b in zip(fs, fs[1:]))
        assert all(rec.stable for rec in res.history)
        assert res.rom.satisfies_spectral_bounds()
        assert res.history[-1].rel_h2_error < res.initial_rel_h2_error
        assert elapsed < 600.0
        details.append(f"{name} {res.initial_rel_h2_error:.4f}->"
                       f"{res.history[-1].rel_h2_error:.4f} in {elapsed:.1f} s")
    _line("descent improves every initializer at full scale", "; ".join(details))


def test_noisy_descent_terminates_without_degrading():
    # N=510 snapshots with observation noise 0.001, DMDc start
    sys = dd.generate_synthetic(dd.SyntheticSpec(n=100, m=2, h=0.1, seed=0))
    ens = dd.generate_ensemble(sys, 510, dd.NoiseSpec(alpha=0.001, seed=400))
    trajs = dd.generate_trajectories(sys, 102, 10, dd.NoiseSpec(alpha=0.001, seed=500))
    init = dd.make_stable(dd.init_dmdc(trajs, 6))
    res = dd.run(ens, init, dd.OptimParams(), oracle=sys)
    assert res.stop_reason in (dd.StopReason.CONVERGED, dd.StopReason.MAX_ITERS)
    final, initial = res.history[-1].rel_h2_error, res.initial_rel_h2_error
    assert final <= initial
    _line("noisy run terminates without degrading the initializer",
          f"{res.stop_reason.value} after {len(res.history)} iters, "
          f"rel {initial:.4f}->{final:.4f}")


def test_initializers_reproduce_reference_data():
    probes = np.exp(1j * np.linspace(0.1, 2 * np.pi - 0.1, 16))

    # DMDc identifies the full-order transfer function exactly at r = n
    sys = random_system(np.random.default_rng(400), 6, 2)
    trajs = dd.generate_trajectories(sys, 40, 8, dd.NoiseSpec(seed=401))
    rom = dd.init_dmdc(trajs, 6)
    dmdc_err = max(
        np.abs(dd.transfer_eval(rom, z) - dd.transfer_eval(sys, z)).max()
        / max(1.0, np.abs(dd.transfer_eval(sys, z)).max())
        for z in probes)
    assert dmdc_err <= 1e-6

    # Loewner interpolates the sampled transfer values at exact order
    true = random_rom(np.random.default_rng(402), 4, 2, 3)
    left, right = dd.sample_frequency_data(true, 10, 10, seed=403)
    loew = dd.init_loewner(left, right, 4)
    loew_err = max(
        np.abs(dd.transfer_eval(loew, s.z) - s.value).max()
        / max(1.0, np.abs(s.value).max())
        for s in left + right)
    assert loew_err <= 1e-8

    # the Hankel realization reproduces all given Markov parameters at
    # exact order (lower true orders are rejected by the rank gate)
    true = random_rom(np.random.default_rng(404), 4, 2, 2)
    imp = dd.impulse_from_system(true, 12)
    bt = dd.init_data_bt(imp, 4)
    bt_err = rel_max_err(dd.markov_parameters(bt, 12), imp.markov)
    assert bt_err <= 1e-8

    _line("initializers reproduce their reference data",
          f"dmdc {dmdc_err:.2e}, loewner {loew_err:.2e}, databt {bt_err:.2e}")
