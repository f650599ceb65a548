import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from ddh2mor import (
    AssumptionViolated,
    DataEnsemble,
    DualData,
    GradientTriple,
    H2ErrorEvaluator,
    LtiSystem,
    NoiseSpec,
    NotStable,
    NumericalOverflow,
    OptimParams,
    Rom,
    StopReason,
    data_gradients,
    generate_ensemble,
    init_data_bt,
    impulse_from_system,
    objective_f,
    reconstruct_dual,
    reconstruct_dual_known_input,
    run,
    solve_R,
    solve_stein,
)
import ddh2mor
from ddh2mor.matequ import SchurFactor
from ddh2mor.sysmodel import Evaluation
from helpers import (count_schur_calls, input_normal, irka, lyap_h2_error, random_rom,
                     random_system, rel_max_err, unseparated_start)


def make_problem(seed=0, n=12, m=2, r=3, N=16):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n, m)
    ens = generate_ensemble(sys, N, NoiseSpec(seed=seed + 1))
    init = init_data_bt(impulse_from_system(sys, 10), r)
    return sys, ens, init


def test_history_is_monotone_and_stable():
    sys, ens, init = make_problem(seed=0)
    res = run(ens, init, OptimParams(tol=1e-6, max_iters=200), oracle=sys)
    assert res.stop_reason in (StopReason.CONVERGED, StopReason.MAX_ITERS)
    fs = [rec.f for rec in res.history]
    assert all(b <= a for a, b in zip(fs, fs[1:]))
    assert all(rec.stable for rec in res.history)
    assert res.rom.satisfies_spectral_bounds()
    assert [rec.iter for rec in res.history] == list(range(1, len(fs) + 1))


def test_descent_improves_relative_error():
    sys, ens, init = make_problem(seed=1)
    res = run(ens, init, OptimParams(tol=1e-8, max_iters=300), oracle=sys)
    assert res.history[-1].rel_h2_error < res.initial_rel_h2_error
    # recorded relative errors agree with a fresh evaluator on the final rom
    ev = H2ErrorEvaluator(sys)
    assert res.history[-1].rel_h2_error == pytest.approx(ev.relative_error(res.rom),
                                                         rel=1e-12)


def test_stationary_start_converges_immediately():
    _, ens, _ = make_problem(seed=2)
    rom = Rom(np.diag([0.5, 0.3, 0.7]), np.zeros((3, 2)), np.zeros((12, 3)))
    res = run(ens, rom, OptimParams(tol=1e-12))
    assert res.stop_reason is StopReason.CONVERGED
    assert len(res.history) == 1
    rec = res.history[0]
    assert rec.iter == 1 and rec.step == 0.0 and rec.backtracks == 0
    assert rec.D == 0.0 and rec.f == 0.0
    np.testing.assert_array_equal(res.rom.Ahat, rom.Ahat)


def test_start_with_an_uncontrollable_mode_projects_and_converges():
    # Bhat = [1; 0] leaves the mode at 0.3 uncontrollable: P = diag(4/3, 0)
    # is singular but not zero, and chat_star gives that mode no output
    rng = np.random.default_rng(3)
    sys = random_system(rng, 8, 1)
    dual = reconstruct_dual(generate_ensemble(sys, 11, NoiseSpec(seed=3)))
    rom = Rom(np.diag([0.5, 0.3]), np.array([[1.0], [0.0]]), np.ones((8, 2)))
    ev = Evaluation(dual, rom)
    np.testing.assert_array_equal(ev.chat_star[:, 1], np.zeros(8))
    # a similarity that mixes the modes leaves P singular only to rounding,
    # and the transfer function, so phi, where it was
    T = np.array([[1.0, 1.0], [-0.5, 1.0]])
    moved = Evaluation(dual, Rom(T @ rom.Ahat @ np.linalg.inv(T), T @ rom.Bhat, rom.Chat))
    assert moved.phi == pytest.approx(ev.phi, rel=100 * np.finfo(float).eps)
    # P has no Cholesky factor, so the descent runs in the start's coordinates
    res = run(None, rom, dual=dual)
    assert res.stop_reason is StopReason.CONVERGED


def test_runs_are_deterministic():
    sys, ens, init = make_problem(seed=3)
    res1 = run(ens, init, oracle=sys)
    res2 = run(ens, init, oracle=sys)
    assert len(res1.history) == len(res2.history)
    for a, b in zip(res1.history, res2.history):
        assert a == b
    np.testing.assert_array_equal(res1.rom.Ahat, res2.rom.Ahat)


def test_unstable_initializer_rejected():
    _, ens, _ = make_problem(seed=4)
    rom = Rom(np.diag([1.2, 0.5, 0.3]), np.ones((3, 2)), np.ones((12, 3)))
    with pytest.raises(AssumptionViolated):
        run(ens, rom)
    near_zero = Rom(np.diag([0.5, 0.4, 1e-14]), np.ones((3, 2)), np.ones((12, 3)))
    with pytest.raises(AssumptionViolated):
        run(ens, near_zero)


def test_start_without_separation_raises_before_the_first_iteration():
    ens, start = unseparated_start()
    assert start.satisfies_spectral_bounds()
    with pytest.raises(AssumptionViolated, match="reciprocal rom pole"):
        run(ens, start)
    assert [reason.value for reason in StopReason] == [
        "converged", "max_iters", "backtrack_exhausted"]


def test_max_iters_stop():
    sys, ens, init = make_problem(seed=5)
    res = run(ens, init, OptimParams(tol=1e-15, max_iters=3), oracle=sys)
    assert res.stop_reason is StopReason.MAX_ITERS
    assert len(res.history) == 3


def test_no_oracle_leaves_rel_error_blank():
    _, ens, init = make_problem(seed=6)
    res = run(ens, init, OptimParams(max_iters=5, tol=1e-15))
    assert res.initial_rel_h2_error is None
    assert all(rec.rel_h2_error is None for rec in res.history)


def test_known_input_route_runs_on_minimal_data():
    rng = np.random.default_rng(7)
    sys = random_system(rng, 8, 2)
    ens = generate_ensemble(sys, 8, NoiseSpec(seed=8))  # N = n < n + m
    init = init_data_bt(impulse_from_system(sys, 10), 2)
    res = run(ens, init, OptimParams(max_iters=50), oracle=sys,
              dual=reconstruct_dual_known_input(ens, sys.B))
    assert res.stop_reason in (StopReason.CONVERGED, StopReason.MAX_ITERS)
    fs = [rec.f for rec in res.history]
    assert all(b <= a for a, b in zip(fs, fs[1:]))


def test_unstable_identified_model_is_refused_before_the_start_is_evaluated(monkeypatch):
    # the objective is the h2 error against (A_ls, B_ls, I), which has none
    # for an unstable A_ls
    rng = np.random.default_rng(11)
    sys = LtiSystem.with_identity_output(np.diag([1.2, 0.5, 0.3]), rng.standard_normal((3, 1)))
    ens = generate_ensemble(sys, 8, NoiseSpec(seed=12))
    init = Rom(np.array([[0.5]]), np.ones((1, 1)), np.ones((3, 1)))

    def no_evaluation(*args, **kwargs):
        raise AssertionError("run evaluated the start")

    monkeypatch.setattr(ddh2mor.optim, "Evaluation", no_evaluation)
    with pytest.raises(NotStable, match=r"spectral radius 1\.2 \(data residual"):
        run(ens, init)


def test_overflowing_descent_direction_raises_without_warnings():
    # B_ls at 1e160 with a stable A_ls: phi and the direction overflow, and
    # run stops on the squared norm of the direction
    sys, ens, init = make_problem(seed=14)
    dual = reconstruct_dual(ens)
    huge = DualData(dual.A, 1e160 * dual.B, dual.report, dual.data_residual)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match="squared norm of the descent direction"):
            run(ens, init, dual=huge)


def test_overflowing_trial_is_rejected_without_warnings(monkeypatch):
    # the first trial of the line search is scaled to Bhat ~ 1e200: its
    # gramian P overflows, the evaluation raises NumericalOverflow, and the
    # search backtracks to the next, unscaled trial
    sys, ens, init = make_problem(seed=18)
    dual = reconstruct_dual(ens)
    huge = Rom(init.Ahat, 1e200 * init.Bhat, init.Chat)
    with pytest.raises(NumericalOverflow):
        Evaluation(dual, huge)
    stepped, alphas = Rom.stepped, []

    def first_overflows(rom, g, alpha):
        alphas.append(alpha)
        cand = stepped(rom, g, alpha)
        return Rom(cand.Ahat, 1e200 * cand.Bhat, cand.Chat) if len(alphas) == 1 else cand

    monkeypatch.setattr(Rom, "stepped", first_overflows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(ens, init, OptimParams(max_iters=1, tol=1e-15), dual=dual)
    (first,) = res.history
    assert first.backtracks == len(alphas) - 1 >= 1
    assert first.step == alphas[-1] < alphas[0]


def test_a_trial_step_that_overflows_is_rejected(monkeypatch):
    # without the curvature the search opens at alpha0 = 1.7e308, where the
    # stepped rom's entries overflow: that trial is rejected, as one outside
    # the annulus is, and the search backtracks past it to a step that passes
    sys, ens, init = make_problem(seed=0)
    record_curvatures(monkeypatch, withheld=True)
    trials = record_stepped(monkeypatch)
    params = OptimParams(alpha0=1.7e308, max_iters=1, max_backtracks=1100, tol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(ens, init, params)
    (rec,) = res.history
    assert rec.step > 0 and rec.backtracks == len(trials) - 1
    g, alpha = trials[0]
    with np.errstate(over="ignore"), pytest.raises(NumericalOverflow, match="non-finite"):
        init.stepped(g, alpha)


def test_reconstruction_and_descent_factor_each_full_order_model_once(monkeypatch):
    # A_ls in the reconstruction, A in the oracle; the descent's stability
    # check, trials and gradients reuse the first, every oracle error the
    # second.  A fresh copy of the system carries no factor yet
    sys, ens, init = make_problem(seed=19)
    oracle = LtiSystem(sys.A, sys.B, sys.C)
    shapes = count_schur_calls(monkeypatch)
    dual = reconstruct_dual(ens)
    res = run(ens, init, OptimParams(max_iters=5, tol=1e-15), dual=dual, oracle=oracle)
    assert len(res.history) == 5
    n = sys.n
    assert [s for s in shapes if s != (init.r, init.r)] == [(n, n), (n, n)]


def test_error_against_the_identified_model_is_the_oracle_error_on_exact_data():
    # on exact full-rank data (A_ls, B_ls, I) is the system to rounding, so
    # the h2 error against the identified model, which needs no oracle, is
    # the true error at the start and at every recorded iterate of a descent
    sys, ens, init = make_problem(seed=20, N=40)
    dual = reconstruct_dual(ens)
    assert dual.report.b1_holds
    params = OptimParams(max_iters=30, tol=1e-12)
    true = run(ens, init, params, dual=dual, oracle=sys)
    estimated = run(ens, init, params, dual=dual, oracle=dual)
    assert len(true.history) == len(estimated.history) >= 10
    pairs = [(true.initial_rel_h2_error, estimated.initial_rel_h2_error)]
    pairs += [(a.rel_h2_error, b.rel_h2_error)
              for a, b in zip(true.history, estimated.history)]
    for ref, got in pairs:
        assert got == pytest.approx(ref, rel=1e-8, abs=0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 9), m=st.integers(1, 3), extra=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1), r=st.integers(1, 8))
@example(n=5, m=1, extra=0, seed=105617019, r=1)  # a third step decided by rounding
def test_known_and_unknown_input_routes_agree(n, m, extra, seed, r):
    # N >= n + m noiseless snapshots: both reconstructions apply and recover
    # the same dual data, so the descents see the same objective and gradient
    assume(r < n)
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n, m)
    ens = generate_ensemble(sys, n + m + extra, NoiseSpec(seed=seed))
    rom = random_rom(rng, r, m, n)
    duals = (reconstruct_dual(ens), reconstruct_dual_known_input(ens, sys.B))
    starts = [Evaluation(dual, rom) for dual in duals]
    unknown, known = (data_gradients(dual, rom, ev.gramians())
                      for dual, ev in zip(duals, starts))
    for block in ("gA", "gB", "gC"):
        assert rel_max_err(getattr(known, block), getattr(unknown, block)) < 1e-7
    params = OptimParams(max_iters=3, tol=1e-15)
    unknown, known = (run(ens, rom, params, dual=dual) for dual in duals)
    assert known.initial_f == pytest.approx(unknown.initial_f, rel=1e-7)
    assert known.history[0].D == pytest.approx(unknown.history[0].D, rel=1e-7)
    np.testing.assert_allclose([rec.f for rec in known.history],
                               [rec.f for rec in unknown.history], rtol=1e-7)

    # at tol 1e-15 a step's decrease can sit at f's rounding, where the
    # Armijo test decides on rounding, and two reconstructions that agree to
    # 1e-14 may backtrack differently; a row's backtracks set its step, so
    # both are compared only on rows whose decrease stands above rounding
    def decided(res, start):
        fs = [start.phi] + [rec.f for rec in res.history]
        return [a - b > 1e3 * np.finfo(float).eps * abs(b) for a, b in zip(fs, fs[1:])]

    rows = [i for i, (u, k) in enumerate(zip(decided(unknown, starts[0]),
                                             decided(known, starts[1]))) if u and k]
    assert ([known.history[i].backtracks for i in rows]
            == [unknown.history[i].backtracks for i in rows])
    np.testing.assert_allclose([known.history[i].step for i in rows],
                               [unknown.history[i].step for i in rows], rtol=1e-7)


@settings(max_examples=25, deadline=None)
@given(r=st.integers(1, 4), m=st.integers(1, 2), log_cond=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_descent_does_not_depend_on_the_coordinates_of_the_start(r, m, log_cond, seed):
    # the start is moved into input-normal coordinates, which leaves at most
    # an orthogonal similarity between two starts with one transfer function,
    # and the first step commutes with those.  The move is as accurate as
    # the computed P, to about eps cond(P), so the two starts are a rom in
    # input-normal form and its image under T, whose P has cond(T)^2 <= 1e6.
    # Later iterates may drift to an ill-conditioned P again, which scales
    # rounding by its cond(P), so only the first step is compared
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 6, m)
    ens = generate_ensemble(sys, 6 + m + 2, NoiseSpec(seed=seed))
    rom = input_normal(random_rom(rng, r, m, 6))
    U, _, Vt = np.linalg.svd(rng.standard_normal((r, r)))
    T = U @ np.diag(np.logspace(0.0, log_cond, r)) @ Vt
    moved = Rom(T @ rom.Ahat @ np.linalg.inv(T), T @ rom.Bhat, rom.Chat @ np.linalg.inv(T))
    params = OptimParams(max_iters=1, tol=1e-15)
    normal, other = (run(ens, start, params) for start in (rom, moved))
    assert other.initial_f == pytest.approx(normal.initial_f, rel=1e-7)
    (first,), (second,) = normal.history, other.history
    assert second.backtracks == first.backtracks
    for column in ("f", "D", "step"):
        assert getattr(second, column) == pytest.approx(getattr(first, column), rel=1e-7)


def test_injected_dual_matches_internal_reconstruction(monkeypatch):
    sys, ens, init = make_problem(seed=10)
    res1 = run(ens, init, OptimParams(max_iters=20))
    dual = reconstruct_dual(ens)

    def no_rank_check(*args, **kwargs):
        raise AssertionError("run re-checked the data ranks")

    # with the dual given, the data ranks were checked once already
    for module in (ddh2mor.dataio, ddh2mor.ddgrad):
        monkeypatch.setattr(module, "check_assumptions", no_rank_check)
    res2 = run(ens, init, OptimParams(max_iters=20), dual=dual)
    assert res1.history == res2.history


def test_descent_needs_the_model_not_the_snapshots():
    # with the identified model given, the ensemble is not read; without
    # either there is nothing to descend against
    sys, ens, init = make_problem(seed=10)
    dual = reconstruct_dual(ens)
    res = run(None, init, OptimParams(max_iters=20), dual=dual)
    assert res.history == run(ens, init, OptimParams(max_iters=20), dual=dual).history
    with pytest.raises(ValueError, match="identified model"):
        run(None, init)


def test_each_line_search_trial_factors_one_rom(monkeypatch):
    sys, ens, init = make_problem(seed=13)
    dual = reconstruct_dual(ens)
    # without the curvature the search opens at alpha0 = 1e3, which fails
    record_curvatures(monkeypatch, withheld=True)
    shapes = count_schur_calls(monkeypatch)
    res = run(ens, init, OptimParams(alpha0=1e3, max_iters=1, tol=1e-15), dual=dual)
    (rec,) = res.history
    assert rec.step > 0 and rec.backtracks > 0
    # make_stable factored the start, and run reuses that factor; the
    # start in input-normal coordinates is factored once, and so is each
    # trial step
    assert shapes == [(init.r, init.r)] * (rec.backtracks + 2)


def test_each_schur_factor_is_transposed_once(monkeypatch):
    # every gradient solves Q on the transposed factor of Ahat and S on that
    # of A_ls; the trial an iterate was accepted from, its projection and
    # its gradient share one factor of Ahat, and the descent one of A_ls
    sys, ens, init = make_problem(seed=23)
    dual = reconstruct_dual(ens)
    asked = {}
    transposed = SchurFactor.transposed

    def recording(self):
        out = transposed(self)
        # the factor is kept, so its id stays its own for the whole run
        asked.setdefault(id(self), (self, []))[1].append(id(out))
        return out

    monkeypatch.setattr(SchurFactor, "transposed", recording)
    k = 6
    res = run(ens, init, OptimParams(max_iters=k, tol=1e-15), dual=dual)
    assert len(res.history) == k
    model = asked[id(dual.schur)][1]
    assert len(model) >= k
    # one transposition per factor, however often it is asked for
    assert all(len(set(outs)) == 1 for _, outs in asked.values())


def test_accepted_rows_record_the_objective_of_their_rom():
    # each accepted row's f is the accepted trial's value, computed in Schur
    # coordinates; it agrees with the reference formula on the row's rom
    sys, ens, init = make_problem(seed=14)
    dual = reconstruct_dual(ens)
    for k in range(1, 5):
        res = run(ens, init, OptimParams(max_iters=k, tol=1e-15), dual=dual)
        rom = res.rom
        assert len(res.history) == k and res.history[-1].step > 0
        ref = objective_f(rom, solve_stein(rom.Ahat, rom.Bhat @ rom.Bhat.T),
                          solve_R(dual, rom))
        assert res.history[-1].f == pytest.approx(ref, rel=1e-12, abs=0)


def test_converged_row_repeats_the_last_accepted_objective():
    # f is evaluated once per iterate: the converged row carries the value
    # its iterate was accepted with, so the history never rises by rounding
    sys, ens, init = make_problem(seed=3)
    res = run(ens, init, OptimParams(tol=1e-3, max_iters=200))
    assert res.stop_reason is StopReason.CONVERGED
    *_, prev, last = res.history
    assert prev.step > 0 and last.step == 0.0
    assert last.f == prev.f
    fs = [res.initial_f] + [rec.f for rec in res.history]
    assert all(b < a for a, b in zip(fs, fs[1:-1]))


@pytest.mark.parametrize("seed", range(3))
def test_a_rerun_from_a_result_never_records_phi_above_its_initial_f(seed):
    # a result's rom is projected, so its f is its phi to the bit; phi at
    # the same rom in input-normal coordinates differs by rounding, so the
    # start's phi is the one read in its own coordinates
    _, ens, init = make_problem(seed=seed, n=10, N=14)
    first = run(ens, init)
    again = run(ens, first.rom)
    assert again.history[0].f <= again.initial_f


@settings(max_examples=12, deadline=None)
@given(log_scale=st.floats(-3.0, 3.0), row_seed=st.integers(0, 2**32 - 1))
def test_descent_invariant_under_joint_scaling_and_row_order(log_scale, row_seed):
    # scaling (X1, U1, X2) jointly or permuting the snapshots leaves the
    # dual coefficients, and so the whole descent, unchanged
    sys, ens, init = make_problem(seed=15, n=10, N=14)
    params = OptimParams(max_iters=6, tol=1e-15)
    ref = run(ens, init, params)
    rows, s = np.random.default_rng(row_seed).permutation(ens.N), 10.0 ** log_scale
    moved = run(DataEnsemble(s * ens.X1[rows], s * ens.U1[rows], s * ens.X2[rows]),
                init, params)
    assert moved.stop_reason is ref.stop_reason
    assert [h.backtracks for h in moved.history] == [h.backtracks for h in ref.history]
    np.testing.assert_allclose([h.step for h in moved.history],
                               [h.step for h in ref.history], rtol=1e-9)
    for got, want in ((moved.rom.Ahat, ref.rom.Ahat), (moved.rom.Bhat, ref.rom.Bhat),
                      (moved.rom.Chat, ref.rom.Chat)):
        assert rel_max_err(got, want) < 1e-9


def test_backtrack_exhaustion_reported(monkeypatch):
    sys, ens, init = make_problem(seed=11)
    # one enormous non-shrinking blind step: the model's bound opens the
    # search below it in closed form, but cannot foresee that every trial
    # here is moved outside the stability annulus
    params = OptimParams(alpha0=1e12, rho=0.999999, c=0.5, max_backtracks=1,
                         tol=1e-15)
    stepped, alphas = Rom.stepped, []

    def unstable(rom, g, alpha):
        alphas.append(alpha)
        cand = stepped(rom, g, alpha)
        return Rom(cand.Ahat + 2.0 * np.eye(cand.r), cand.Bhat, cand.Chat)

    monkeypatch.setattr(Rom, "stepped", unstable)
    res = run(ens, init, params)
    assert res.stop_reason is StopReason.BACKTRACK_EXHAUSTED
    assert len(res.history) == 0
    np.testing.assert_array_equal(res.rom.Ahat, init.Ahat)
    (alpha,) = alphas
    assert 0.0 < alpha < params.alpha0


def test_accepted_step_satisfies_armijo_inequality():
    sys, ens, init = make_problem(seed=12)
    params = OptimParams(max_iters=40, tol=1e-10)
    res = run(ens, init, params, oracle=sys)
    fs = [res.initial_f] + [rec.f for rec in res.history]
    for prev, rec in zip(fs, res.history):
        if rec.step == 0.0:
            continue  # converged row
        assert rec.f <= prev - params.c * rec.step * rec.D + 1e-12 * abs(prev)


def test_params_validation():
    with pytest.raises(ValueError):
        OptimParams(alpha0=0.0)
    with pytest.raises(ValueError):
        OptimParams(c=1.0)
    with pytest.raises(ValueError):
        OptimParams(rho=0.0)
    with pytest.raises(ValueError):
        OptimParams(tol=0.0)
    with pytest.raises(ValueError):
        OptimParams(max_iters=0)
    for name in ("alpha0", "tol"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                OptimParams(**{name: value})


def record_stepped(monkeypatch):
    """Record (gradients, step) of every trial model ``Rom.stepped`` builds."""
    trials = []
    original = Rom.stepped

    def stepped(self, g, alpha):
        trials.append((g, alpha))
        return original(self, g, alpha)

    monkeypatch.setattr(Rom, "stepped", stepped)
    return trials


def split_by_iteration(trials, rows):
    """Each accepted row's (direction, trial steps), from the recorded trials."""
    assert len(trials) == sum(rec.backtracks + 1 for rec in rows)
    out = []
    for rec in rows:
        mine, trials = trials[:rec.backtracks + 1], trials[rec.backtracks + 1:]
        assert all(g is mine[0][0] for g, _ in mine)
        g = mine[0][0]
        out.append((-np.hstack([g.gA, g.gB]), [alpha for _, alpha in mine]))
    return out


def record_curvatures(monkeypatch, withheld=False):
    """Record every value ``Evaluation.curvature`` returns; ``withheld``
    hands the descent nan instead, so that it opens blind."""
    values = []
    original = Evaluation.curvature

    def curvature(self, dA, dB):
        values.append(original(self, dA, dB))
        return float("nan") if withheld else values[-1]

    monkeypatch.setattr(Evaluation, "curvature", curvature)
    return values


def assert_backtracked(alphas, step, rho):
    """Each trial is the one before it times rho, and the last the step."""
    for a, b in zip(alphas, alphas[1:]):
        assert b == a * rho
    assert alphas[-1] == step


def assert_model_opened(alphas, bound, params, step):
    """The trials of a blind search: first ``alpha0 rho^k`` for the least k
    that puts it at or below ``bound``, then backtracked to ``step``."""
    k = next(k for k in range(10_000) if params.alpha0 * params.rho ** k <= bound)
    assert alphas[0] == params.alpha0 * params.rho ** k
    assert_backtracked(alphas, step, params.rho)


def assert_one_rule(rows, iterations, curvatures, params):
    """Each search opens at the Barzilai-Borwein step where ``<s, y> > 0``,
    and blind, under the bound of the next recorded curvature, where not,
    then backtracks by rho to its accepted step.  The number of BB
    openings."""
    bb = 0
    for i, ((d, alphas), rec) in enumerate(zip(iterations, rows)):
        if i > 0:
            d_prev, prev = iterations[i - 1][0], rows[i - 1]
            s, y = prev.step * d_prev, d_prev - d
            if np.sum(s * y) > 0:
                assert alphas[0] == pytest.approx(np.sum(s * y) / np.sum(y * y), rel=1e-12)
                assert_backtracked(alphas, rec.step, params.rho)
                bb += 1
                continue
        curvature = next(curvatures)
        bound = (1 - params.c) * rec.D / curvature if 0 < curvature < np.inf else np.inf
        assert_model_opened(alphas, bound, params, rec.step)
    # the curvature is taken for the blind openings alone
    assert next(curvatures, None) is None
    return bb


def test_first_trial_is_the_short_barzilai_borwein_step(monkeypatch):
    sys, ens, init = make_problem(seed=0)
    params = OptimParams(tol=1e-6, max_iters=60)
    trials = record_stepped(monkeypatch)
    curvatures = iter(record_curvatures(monkeypatch))
    res = run(ens, init, params)
    rows = [rec for rec in res.history if rec.step > 0]
    assert len(rows) > 10
    # the first opening is blind: alpha0, shortened to the model's bound
    bb = assert_one_rule(rows, split_by_iteration(trials, rows), curvatures, params)
    assert bb > len(rows) // 2


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 39), tol=st.sampled_from([1e-3, 1e-6]))
def test_every_search_backtracks_from_one_opening(monkeypatch, seed, tol):
    sys, ens, init = make_problem(seed=seed)
    params = OptimParams(tol=tol, max_iters=60)
    with monkeypatch.context() as patch:
        trials = record_stepped(patch)
        curvatures = record_curvatures(patch)
        res = run(ens, init, params)
    rows = [rec for rec in res.history if rec.step > 0]
    assert_one_rule(rows, split_by_iteration(trials, rows), iter(curvatures), params)


@pytest.mark.parametrize("scale", [1.0, 2.0], ids=["s.y=0", "s.y<0"])
def test_first_trial_falls_back_without_positive_curvature(monkeypatch, scale):
    # the second gradient is the first one times ``scale``, so y = (1 - scale)
    # d_prev and <s, y> <= 0: the search opens blind, at alpha0 shortened to
    # the Gauss-Newton model's bound, as the first one does
    sys, ens, init = make_problem(seed=0)
    params = OptimParams(max_iters=2, tol=1e-15)
    seen = []

    def stale(dual, rom, grams):
        g = data_gradients(dual, rom, grams) if not seen else GradientTriple(
            *(scale * block for block in (seen[0].gA, seen[0].gB, seen[0].gC)))
        seen.append(g)
        return g

    monkeypatch.setattr(ddh2mor.optim, "data_gradients", stale)
    trials = record_stepped(monkeypatch)
    curvatures = record_curvatures(monkeypatch)
    res = run(ens, init, params)
    assert len(res.history) == 2 and all(rec.step > 0 for rec in res.history)
    assert len(curvatures) == 2
    (_, first), (_, second) = split_by_iteration(trials, res.history)
    for alphas, rec, curvature in zip((first, second), res.history, curvatures):
        assert_model_opened(alphas, (1 - params.c) * rec.D / curvature, params, rec.step)


@pytest.fixture(scope="module")
def acceptance_problem():
    """The acceptance configuration (n=100, m=2, r=6, N=102) and its three starts."""
    sys = ddh2mor.generate_synthetic(ddh2mor.SyntheticSpec(n=100, m=2, h=0.1, seed=7))
    ens = generate_ensemble(sys, 102, NoiseSpec(alpha=0.0, seed=107))
    trajs = ddh2mor.generate_trajectories(sys, 102, 10, NoiseSpec(alpha=0.0, seed=207))
    left, right = ddh2mor.sample_frequency_data(sys, 30, 30, seed=307)
    starts = {
        "dmdc": ddh2mor.init_dmdc(trajs, 6),
        "loewner": ddh2mor.init_loewner(left, right, 6),
        "databt": init_data_bt(impulse_from_system(sys, 10), 6),
    }
    return sys, ens, starts


def test_dmdc_start_at_acceptance_scale_converges_in_few_steps(acceptance_problem):
    # acceptance configuration (n=100, m=2, r=6, N=102, default parameters)
    _, ens, starts = acceptance_problem
    res = run(ens, starts["dmdc"])
    assert res.stop_reason is StopReason.CONVERGED
    assert sum(rec.step > 0 for rec in res.history) <= 60
    # at the default tol the projected start is two short steps from
    # converged, so the long steps show on the way to a tighter tol
    res = run(ens, starts["dmdc"], OptimParams(tol=1e-5))
    # the first trial is not capped at alpha0, and here some step exceeds it
    assert max(rec.step for rec in res.history) > OptimParams().alpha0


def test_projection_keeps_the_acceptance_descent_short_and_its_errors_low(
        acceptance_problem):
    # with chat solved in closed form the three starts take 2, 0 and 1 steps
    # and end at true errors 0.0552, 0.0229 and 0.0236; descending chat as
    # well took 34 steps and ended at 0.0798, 0.0282 and 0.0301
    sys, ens, starts = acceptance_problem
    ceilings = {"dmdc": 0.065, "loewner": 0.025, "databt": 0.027}
    steps = 0
    for name, init in starts.items():
        res = run(ens, init, oracle=sys)
        assert res.stop_reason is StopReason.CONVERGED
        steps += sum(rec.step > 0 for rec in res.history)
        assert res.history[-1].rel_h2_error <= ceilings[name], name
    assert steps <= 10


def test_model_bound_lies_between_the_blind_searches_last_pass_and_first_failure(
        monkeypatch, acceptance_problem):
    # with the curvature withheld the first search opens blind at alpha0 and
    # halves: dmdc rejects 1, 0.5 and 0.25, databt 1 down to 0.125.  The
    # model's Armijo bound sits between the step each accepts and the last
    # one it rejects, so opening below it skips exactly the rejections
    _, ens, starts = acceptance_problem
    params = OptimParams()
    curvatures = record_curvatures(monkeypatch, withheld=True)
    for name, bound in (("dmdc", 0.171), ("databt", 0.117)):
        curvatures.clear()
        first = run(ens, starts[name], params).history[0]
        assert first.backtracks >= 1, name
        got = (1 - params.c) * first.D / curvatures[0]
        assert got == pytest.approx(bound, rel=5e-3), name
        assert first.step <= got < first.step / params.rho, name


# each start's (f, D, step) rows as float.hex, and the sha256 of its final
# rom's (A, B, C) bytes, recorded from the blind line search, which opened
# every search that is not a Barzilai-Borwein step at alpha0 or at
# min(alpha0, alpha_prev / rho) and halved from there
BLIND_PATHS = {
    "dmdc": ([("-0x1.0fedb6a887337p+0", "0x1.cee42e30c9137p-8", "0x1.0000000000000p-3"),
              ("-0x1.0ffd52a16454ap+0", "0x1.cddfb71b1b1fbp-8", "0x1.0030a974a56aep-4"),
              ("-0x1.0ffd52a16454ap+0", "0x1.ff3a3400f2872p-11", "0x0.0p+0")],
             "43f5063a973bf4c4747d5614de406e2df1be8879956435893184fe5e7a163553"),
    "loewner": ([("-0x1.10ad19ee0d24cp+0", "0x1.3a56f37f40676p-12", "0x0.0p+0")],
                "9218423a3117541027afa5751d7b2f70f64cc08138e6ad210bfcbeb2df917099"),
    "databt": ([("-0x1.10aac52d74924p+0", "0x1.5b46e826700ffp-10", "0x1.0000000000000p-4"),
                ("-0x1.10aac52d74924p+0", "0x1.7e0e7ca4461fcp-15", "0x0.0p+0")],
               "cc34a1a8a70be428772000fc6d835b98e3fc2e91f3542cc2efbfba39acf5c942"),
}


def acceptance_paths(ens, starts):
    """Each start's rows as in ``BLIND_PATHS``, and its trial count."""
    paths, trials = {}, {}
    for name in BLIND_PATHS:
        res = run(ens, starts[name])
        rom = res.rom
        paths[name] = ([(h.f.hex(), h.D.hex(), h.step.hex()) for h in res.history],
                       hashlib.sha256(b"".join(np.ascontiguousarray(M).tobytes()
                                               for M in (rom.A, rom.B, rom.C))).hexdigest())
        trials[name] = sum(h.backtracks + 1 for h in res.history if h.step > 0)
    return paths, trials


def test_model_opening_keeps_the_acceptance_path_with_fewer_trials(
        monkeypatch, acceptance_problem):
    # the blind searches open at the model's bound, the step they accept:
    # the same steps and roms to the bit, in 2, 0 and 1 trials where the
    # searches opened at alpha0 take 5, 0 and 5
    _, ens, starts = acceptance_problem
    assert acceptance_paths(ens, starts) == (BLIND_PATHS, {"dmdc": 2, "loewner": 0,
                                                           "databt": 1})
    with monkeypatch.context() as blind:
        record_curvatures(blind, withheld=True)
        assert acceptance_paths(ens, starts) == (BLIND_PATHS, {"dmdc": 5, "loewner": 0,
                                                               "databt": 5})


@pytest.mark.parametrize("route", ["unknown-input", "known-input"])
def test_each_iterate_gradient_matches_a_fresh_gradient(monkeypatch, route):
    # later iterates take P and R from their accepted trial; the gradient is
    # the one a fresh solve of every equation at that iterate gives
    sys, ens, init = make_problem(seed=16)
    dual = (reconstruct_dual(ens) if route == "unknown-input"
            else reconstruct_dual_known_input(ens, sys.B))
    seen = []

    def recording(dual, rom, grams):
        g = data_gradients(dual, rom, grams)
        seen.append((rom, grams, g))
        return g

    monkeypatch.setattr(ddh2mor.optim, "data_gradients", recording)
    res = run(ens, init, OptimParams(max_iters=12, tol=1e-15), dual=dual)
    assert len(seen) == len(res.history) == 12
    for rom, grams, g in seen:
        fresh = Evaluation(dual, rom).gramians()
        ref = data_gradients(dual, rom, fresh)
        for block in ("gA", "gB", "gC"):
            assert rel_max_err(getattr(g, block), getattr(ref, block)) < 1e-12
        for name in ("P", "Q", "R", "S"):
            assert rel_max_err(getattr(grams, name), getattr(fresh, name)) < 1e-12
        # P as the general Stein solver gives it, and symmetric as it does
        P = solve_stein(rom.Ahat, rom.Bhat @ rom.Bhat.T)
        assert rel_max_err(grams.P, P) < 1e-10
        np.testing.assert_array_equal(grams.P, grams.P.T)


def assert_p_and_r_are_swept_for_the_start_and_in_trials_only(monkeypatch, with_oracle):
    sys, ens, init = make_problem(seed=17)
    dual = reconstruct_dual(ens)
    oracle = sys if with_oracle else None
    calls = {"stein": 0, "sylvester": 0, "solve_S": 0, "solve_stein": 0, "evaluations": 0,
             "curvatures": 0, "oracle_stein": 0, "oracle_sylvester": 0,
             "oracle_evaluations": 0}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            # a sweep on the oracle's factor, or an evaluation against it,
            # is the oracle's; everything else is the descent's
            first = args[1] if name == "__init__" else args[0]
            owned = oracle is not None and (first is oracle or first is oracle.schur)
            calls["oracle_" + key if owned else key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # an evaluation sweeps P and R, a gradient Q and S
    counted(ddh2mor.sysmodel, "stein_schur", "stein")
    counted(ddh2mor.sysmodel, "solve_schur", "sylvester")
    counted(ddh2mor.ddgrad, "solve_S", "solve_S")
    # neither the general Stein solver nor ddgrad's route to the gramians
    counted(ddh2mor.sysmodel, "solve_stein", "solve_stein")
    counted(ddh2mor.ddgrad, "rom_gramians", "solve_stein")
    counted(ddh2mor.sysmodel.Evaluation, "__init__", "evaluations")
    counted(ddh2mor.sysmodel.Evaluation, "curvature", "curvatures")
    k = 8
    res = run(ens, init, OptimParams(max_iters=k, tol=1e-15), dual=dual, oracle=oracle)
    assert res.stop_reason is StopReason.MAX_ITERS and len(res.history) == k
    # the start and every trial, P and R once each; Q and S once per gradient,
    # with no second separation check through solve_S; and the cross block X
    # of the curvature once per blind opening, the first iteration's at least
    assert calls["evaluations"] >= 1 + k
    assert calls["sylvester"] == calls["evaluations"] + k
    assert 1 <= calls["curvatures"] <= k
    assert calls["stein"] == calls["sylvester"] + calls["curvatures"]
    assert calls["solve_S"] == 0
    assert calls["solve_stein"] == 0
    # the oracle sweeps its own gramian once, and one R per evaluation of the
    # start and of each recorded iterate; their P is the descent's
    assert calls["oracle_stein"] == (1 if with_oracle else 0)
    assert (calls["oracle_sylvester"] == calls["oracle_evaluations"]
            == (1 + k if with_oracle else 0))


def test_p_and_r_are_solved_for_the_start_and_in_trials_only(monkeypatch):
    assert_p_and_r_are_swept_for_the_start_and_in_trials_only(monkeypatch, with_oracle=False)


def test_p_is_swept_once_per_iterate_with_an_oracle(monkeypatch):
    assert_p_and_r_are_swept_for_the_start_and_in_trials_only(monkeypatch, with_oracle=True)


def test_the_descent_reads_f_for_its_start_only(monkeypatch):
    # trials and iterates are judged by phi; f of the rom as given is read
    # once, for initial_f
    sys, ens, init = make_problem(seed=17)
    calls = []
    objective = ddh2mor.sysmodel.objective_f
    monkeypatch.setattr(ddh2mor.sysmodel, "objective_f",
                        lambda *args: calls.append(1) or objective(*args))
    res = run(ens, init, OptimParams(max_iters=8, tol=1e-15))
    assert len(res.history) == 8 and len(calls) == 1


def test_descent_ends_at_the_irka_minimum_from_each_acceptance_start():
    # the acceptance configuration (n=100, m=2, r=6, N=102, noiseless): IRKA
    # on the identified model reaches one h2 error from all three starts,
    # and a tight descent from each ends within 1e-3 of it, every error by
    # scipy's discrete Lyapunov solver against (A_ls, B_ls, I)
    sys = ddh2mor.generate_synthetic(ddh2mor.SyntheticSpec(n=100, m=2, h=0.1, seed=7))
    ens = generate_ensemble(sys, 102, NoiseSpec(alpha=0.0, seed=107))
    trajs = ddh2mor.generate_trajectories(sys, 102, 10, NoiseSpec(alpha=0.0, seed=207))
    left, right = ddh2mor.sample_frequency_data(sys, 30, 30, seed=307)
    starts = (ddh2mor.init_dmdc(trajs, 6), ddh2mor.init_loewner(left, right, 6),
              init_data_bt(impulse_from_system(sys, 10), 6))
    dual = reconstruct_dual(ens)
    model = (dual.A, dual.B, dual.C)
    minima = [lyap_h2_error(*model, *irka(*model, init.A, init.B, init.C)[0])
              for init in starts]
    best = minima[0]
    assert max(minima) - min(minima) <= 1e-8 * best
    for init in starts:
        res = run(ens, init, OptimParams(tol=1e-9), dual=dual)
        got = lyap_h2_error(*model, res.rom.A, res.rom.B, res.rom.C)
        assert abs(got - best) <= 1e-3 * best
