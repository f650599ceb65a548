import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ddh2mor
from ddh2mor import (
    AssumptionViolated,
    DataEnsemble,
    DualData,
    GradientTriple,
    H2ErrorEvaluator,
    LtiSystem,
    NoiseSpec,
    NotStable,
    RankDeficientData,
    Rom,
    SyntheticSpec,
    check_assumptions,
    data_gradients,
    generate_ensemble,
    generate_synthetic,
    generate_trajectories,
    h2_error,
    h2_norm,
    impulse_from_system,
    init_data_bt,
    init_dmdc,
    make_stable,
    model_based_gradients,
    objective_f,
    reconstruct_dual,
    reconstruct_dual_known_input,
    rom_gramians,
    solve_R,
    solve_S,
    solve_SB,
    solve_discrete_sylvester,
    solve_stein,
)
from ddh2mor.sysmodel import Evaluation, assemble_gradients
from ddh2mor.matequ import RANK_TOL
from ddh2mor.sysmodel import SEPARATION_TOL
from helpers import (count_schur_calls, data_gradients_B_known, data_gradients_from_ensemble,
                     fd_gradients, paper_dual, random_rom, random_system, record_svd_shapes,
                     rel_max_err, richardson_gradients, traced_peak)

st_seed = st.integers(0, 2**32 - 1)


def make_instance(seed=0, n=10, m=2, r=3, N=12, alpha=0.0):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n, m)
    ens = generate_ensemble(sys, N, NoiseSpec(alpha=alpha, seed=seed + 1))
    rom = random_rom(rng, r, m, n)
    return sys, ens, rom


def triple_err(got, ref):
    scale = max(np.abs(ref.gA).max(), np.abs(ref.gB).max(), np.abs(ref.gC).max())
    return max(np.abs(got.gA - ref.gA).max(),
               np.abs(got.gB - ref.gB).max(),
               np.abs(got.gC - ref.gC).max()) / scale


# ------------------------------------------------------------ reconstruction


def test_dual_reconstruction_recovers_system_quantities():
    sys, ens, _ = make_instance(seed=0)
    dual = reconstruct_dual(ens)
    assert rel_max_err(dual.A, sys.A) < 1e-9
    assert rel_max_err(dual.B, sys.B) < 1e-9


def test_dual_caches_are_populated():
    _, ens, _ = make_instance(seed=1)
    dual = reconstruct_dual(ens)
    assert len(dual.schur.eigvals) == ens.n
    assert dual.b_schur.shape == (ens.n, ens.m)
    assert dual.n == ens.n
    assert dual.report == check_assumptions(ens)


def test_dual_is_the_identified_system():
    # the reconstruction returns the model (A_ls, B_ls, I) itself, factored
    # already, with its rank report and residual as its only other fields;
    # C is I and no argument, and no method of a system copies it without them
    sys, ens, _ = make_instance(seed=1)
    for dual in (reconstruct_dual(ens), reconstruct_dual_known_input(ens, sys.B)):
        assert isinstance(dual, LtiSystem) and "schur" in vars(dual)
        np.testing.assert_array_equal(dual.C, np.eye(ens.n))
    assert ([f.name for f in dataclasses.fields(DualData)]
            == ["A", "B", "C", "report", "data_residual"])
    assert type(dual.with_output(np.eye(ens.n))) is LtiSystem
    assert "C" not in {f.name for f in dataclasses.fields(DualData) if f.init}
    assert type(DualData.with_identity_output(dual.A, dual.B)) is LtiSystem


def test_reconstruction_matches_square_association_reference():
    # the reference forms the N x N products X2 X1^T, X1 X2^T and Z2 X1^T
    _, ens, _ = make_instance(seed=4, n=20, N=200, alpha=1e-3)
    X1, U1, X2, n = ens.X1, ens.U1, ens.X2, ens.n
    stacked = np.linalg.pinv(np.hstack([X1, U1]), rcond=1e-10) @ (X2 @ X1.T)
    Z2, ZB1 = stacked[:n].T, stacked[n:]
    x1_pinv = np.linalg.pinv(X1, rcond=1e-10)
    ref = {"A": x1_pinv @ Z2, "B": x1_pinv @ ZB1.T}
    dual = reconstruct_dual(ens)
    for name, value in ref.items():
        assert rel_max_err(getattr(dual, name), value) <= 1e-12, name


@pytest.mark.parametrize("n, m, N, alpha", [(12, 2, 16, 0.0), (20, 3, 400, 1e-3),
                                         (12, 2, 10, 0.0)])
def test_reconstruction_is_bit_identical_to_three_pinv_formulas(n, m, N, alpha):
    # the rank report is bit for bit the one check_assumptions gives, and the
    # known-input GB is B itself; the values match the three pinv formulas
    # to rounding: with P = pinv(X1) X1, the paper's MR and GB are P MR and
    # P GB of the fit, rank-deficient data included (N = 10 < n + m), and
    # on joint rank its MS and sb_map are MR^T and GB^T
    sys = generate_synthetic(SyntheticSpec(n=n, m=m, seed=7))
    ens = generate_ensemble(sys, N, NoiseSpec(alpha=alpha, seed=3))
    report = check_assumptions(ens)
    ref = paper_dual(ens)
    x1_pinv = np.linalg.pinv(ens.X1, rcond=RANK_TOL)
    P = x1_pinv @ ens.X1
    dual = reconstruct_dual(ens, force=True)
    assert dual.report == report
    pairs = {"MR": (P @ dual.A, ref.MR), "GB": (P @ dual.B, ref.GB)}
    if report.b1_holds:
        pairs.update(MS=(dual.A.T, ref.MS), sb_map=(dual.B.T, ref.sb_map))
    for name, (got, want) in pairs.items():
        assert rel_max_err(got, want) <= 1e-12, name
    known = reconstruct_dual_known_input(ens, sys.B, force=True)
    assert known.report == report
    np.testing.assert_array_equal(known.B, sys.B)
    assert rel_max_err(known.A.T, x1_pinv @ (ens.X2 - ens.U1 @ sys.B.T)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st_seed, n=st.integers(2, 8), m=st.integers(1, 2),
       alpha=st.sampled_from([0.0, 1e-3, 1e-1]), tall=st.floats(0.0, 1.0),
       spread=st.floats(0.0, 3.5))
# square data over 2.9 decades: cond([X1 U1]) = 5.2e4 and (|X2| + |X1 MR^T|) / |UB1| = 8
@example(seed=296324115, n=2, m=1, alpha=0.0, tall=0.0, spread=2.875)
def test_reconstruction_is_the_paper_formulas_to_rounding(seed, n, m, alpha, tall, spread):
    # Theta = pinv([X1 U1]) X2 = [Theta_x; Theta_u]: on full column rank the
    # paper's MR and MS^T are Theta_x^T and its GB and sb_map^T are
    # Theta_u^T, at any noise level, so the fit from the triangle matches
    # the first three to the rounding of length-N products times
    # cond([X1 U1]).  The paper's sb_map = pinv(U1) UB1 reads UB1 off the
    # subtraction X2 - X1 MR^T: an error of that size in its two terms is
    # (|X2| + |X1 MR^T|) / |UB1| times larger relative to UB1, and pinv(U1)
    # carries a relative error in UB1 into sb_map times cond(U1)
    rng = np.random.default_rng(seed)
    N = n + m + round(tall * 19 * (n + m))
    ens = generate_ensemble(random_system(rng, n, m), N, NoiseSpec(alpha=alpha, seed=seed))
    scales = 10.0 ** rng.uniform(-spread, spread, n + m)
    ens = DataEnsemble(ens.X1 * scales[:n], ens.U1 * scales[n:], ens.X2)
    dual = reconstruct_dual(ens, force=True)
    assume(dual.report.b1_holds)
    ref = paper_dual(ens)
    bound = 10.0 * N * np.finfo(float).eps * np.linalg.cond(np.hstack([ens.X1, ens.U1]))
    cancel = ((np.linalg.norm(ens.X2) + np.linalg.norm(ens.X1 @ ref.MR.T))
              / np.linalg.norm(ref.UB1))
    sb_bound = bound * cancel * np.linalg.cond(ens.U1)
    for got, want, tol in ((dual.A, ref.MR, bound), (dual.A.T, ref.MS, bound),
                           (dual.B, ref.GB, bound), (dual.B.T, ref.sb_map, sb_bound)):
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def test_reconstruction_forms_no_sample_by_sample_matrix():
    _, ens, _ = make_instance(seed=5, n=20, N=2000)
    tracemalloc.start()
    try:
        reconstruct_dual(ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ens.N * ens.N * np.dtype(float).itemsize


def test_reconstruction_memory_does_not_grow_with_the_sample_count():
    # the ensemble's one-step rows are reduced a row block at a time, so the
    # working set is one row block and the triangle whatever N; the model
    # and residual of several blocks are the least-squares fit's
    n, m = 30, 2
    sys = random_system(np.random.default_rng(50), n, m)
    rows = ddh2mor.matequ._SNAPSHOT_BLOCK_ROWS
    peaks = []
    for blocks in (2, 8):
        ens = generate_ensemble(sys, blocks * rows + rows // 3, NoiseSpec(alpha=1e-3, seed=51))
        dual, peak = traced_peak(reconstruct_dual, ens)
        peaks.append(peak)
        ref = paper_dual(ens)
        assert rel_max_err(dual.A, ref.MR) < 1e-13
        assert rel_max_err(dual.B, ref.GB) < 1e-13
        Z = np.hstack([ens.X1, ens.U1])
        fit = np.linalg.lstsq(Z, ens.X2, rcond=None)[0]
        residual = np.linalg.norm(ens.X2 - Z @ fit) / np.linalg.norm(ens.X2)
        assert dual.data_residual == pytest.approx(residual, rel=1e-12)
        assert dual.report == check_assumptions(ens)
    assert peaks[1] <= 1.05 * peaks[0]


def test_known_input_reconstruction_memory_does_not_grow_with_the_sample_count():
    # X2 - U1 B^T is formed a row block at a time, as the triangle takes it,
    # so the known-input route too holds one row block and the triangle
    n, m = 30, 2
    sys = random_system(np.random.default_rng(52), n, m)
    rows = ddh2mor.matequ._SNAPSHOT_BLOCK_ROWS
    peaks = []
    for blocks in (2, 8):
        ens = generate_ensemble(sys, blocks * rows + rows // 3, NoiseSpec(alpha=1e-3, seed=53))
        dual, peak = traced_peak(reconstruct_dual_known_input, ens, sys.B)
        peaks.append(peak)
        Y = ens.X2 - ens.U1 @ sys.B.T
        fit = np.linalg.pinv(ens.X1, rcond=RANK_TOL) @ Y
        assert rel_max_err(dual.A.T, fit) <= 1e-12
        np.testing.assert_array_equal(dual.B, sys.B)
        residual = np.linalg.norm(Y - ens.X1 @ fit) / np.linalg.norm(ens.X2)
        assert dual.data_residual == pytest.approx(residual, rel=1e-12)
        assert dual.report == check_assumptions(ens)
    assert peaks[1] <= 1.05 * peaks[0]


def test_known_input_reconstruction_matches_unknown():
    sys, ens, _ = make_instance(seed=2)
    a = reconstruct_dual(ens)
    b = reconstruct_dual_known_input(ens, sys.B)
    assert rel_max_err(b.A, a.A) < 1e-9
    assert rel_max_err(a.B, b.B) < 1e-9
    np.testing.assert_array_equal(b.B, sys.B)
    assert b.report == a.report == check_assumptions(ens)


def test_known_input_reconstruction_factors_mr_once(monkeypatch):
    sys, ens, _ = make_instance(seed=30)
    shapes = count_schur_calls(monkeypatch)
    known = reconstruct_dual_known_input(ens, sys.B)
    # the S equation's coefficient MR^T takes the transposed factor of MR
    assert shapes == [(ens.n, ens.n)]
    fs = known.schur.transposed()
    assert np.array_equal(fs.T, np.triu(fs.T))
    assert np.abs(fs.Z @ fs.T @ fs.ZH - known.A.T).max() < 1e-12 * np.abs(known.A).max()
    reconstruct_dual(ens)
    assert shapes == [(ens.n, ens.n)] * 2


def test_reconstructions_take_no_svd_of_a_matrix_with_n_rows(monkeypatch):
    # both routes decompose blocks of the triangle of [X1 U1 Y] alone, the
    # rank report's blocks included
    sys, ens, _ = make_instance(seed=36, N=40)
    shapes = record_svd_shapes(monkeypatch)
    reconstruct_dual(ens)
    reconstruct_dual_known_input(ens, sys.B)
    assert shapes and max(shape[0] for shape in shapes) <= ens.n + ens.m


@pytest.mark.parametrize("route", ["unknown-input", "known-input"])
def test_reconstruction_hands_its_triangle_and_svd_to_the_rank_check(monkeypatch, route):
    # one triangle, of [X1 U1 Y], and the fit's SVD of R[:k, :k], which the
    # rank check reuses; on full-rank data the check adds [X1 U1]'s block
    # when k = n and no block of X1 or U1, whose ranks the joint rank gives
    sys, ens, _ = make_instance(seed=37, N=40)
    n, m = ens.n, ens.m
    triangles = []
    triangle = ddh2mor.matequ._triangle
    monkeypatch.setattr(ddh2mor.matequ, "_triangle",
                        lambda S: triangles.append(S.shape) or triangle(S))
    shapes = record_svd_shapes(monkeypatch)
    if route == "unknown-input":
        reconstruct_dual(ens)
    else:
        reconstruct_dual_known_input(ens, sys.B)
    assert triangles == [(ens.N, 2 * n + m)]
    assert shapes == {"unknown-input": [(n + m, n + m)],
                      "known-input": [(n, n), (n + m, n + m)]}[route]


@pytest.mark.parametrize("rows", ["full-rank", "thin"])
def test_only_rank_deficient_fits_take_singular_vectors(monkeypatch, rows):
    # at full rank of [X1 U1] the fit is the triangular solve on R[:k, :k],
    # whose singular values alone decide the rank; with fewer rows than
    # n + m the min-norm fit needs the vectors as well
    sys, ens, _ = make_instance(seed=35, N=40)
    if rows == "thin":
        ens = generate_ensemble(sys, ens.n + ens.m - 1, NoiseSpec(seed=36))
    vectors = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs:
                        vectors.append(kwargs.get("compute_uv", True)) or svd(a, *args, **kwargs))
    dual = reconstruct_dual(ens, force=True)
    assert dual.report.b1_holds == (rows == "full-rank")
    assert vectors.count(True) == (rows == "thin")


@pytest.mark.parametrize("case", ["thin", "zero-input"])
def test_forced_reconstruction_is_the_min_norm_least_squares_model(monkeypatch, case):
    # rank [X1 U1] < n + m, from N = n + m - 1 rows or from U1 = 0: the forced
    # reconstruction is the min-norm fit pinv([X1 U1]) X2 at RANK_TOL, and
    # MR is factored once
    sys, ens, _ = make_instance(seed=33)
    n = ens.n
    if case == "thin":
        ens = generate_ensemble(sys, n + ens.m - 1, NoiseSpec(seed=34))
    else:
        ens = DataEnsemble(ens.X1, np.zeros_like(ens.U1), ens.X2)
    shapes = count_schur_calls(monkeypatch)
    dual = reconstruct_dual(ens, force=True)
    assert not dual.report.b1_holds
    assert shapes == [(n, n)]
    X1U1 = np.hstack([ens.X1, ens.U1])
    theta = np.linalg.pinv(X1U1, rcond=RANK_TOL) @ ens.X2
    atol = 1e-12 * np.abs(theta).max()
    np.testing.assert_allclose(dual.A, theta[:n].T, rtol=0, atol=atol)
    np.testing.assert_allclose(dual.B, theta[n:].T, rtol=0, atol=atol)
    residual = np.linalg.norm(ens.X2 - X1U1 @ theta) / np.linalg.norm(ens.X2)
    assert dual.data_residual == pytest.approx(residual, rel=0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st_seed, n=st.integers(2, 8), m=st.integers(1, 2),
       alpha=st.sampled_from([0.0, 1e-3, 1e-1]), tall=st.floats(0.0, 1.0),
       spread=st.floats(0.0, 3.5))
def test_ms_is_mr_transposed_on_full_rank_x1(seed, n, m, alpha, tall, spread):
    # Theta = pinv([X1 U1]) X2 = [Theta_x; Theta_u]: once pinv(X1) X1 = I,
    # the paper's MR = Theta_x^T and MS = pinv(X1) (X2 - UB1) = Theta_x at
    # any noise level, to the rounding of length-N products times cond(X1),
    # so one matrix serves both: the fit's MR^T is MS to the rounding of the
    # fit, cond([X1 U1]), and the transposed factor of MR is a factor of MR^T
    rng = np.random.default_rng(seed)
    N = n + m + round(tall * 19 * (n + m))
    ens = generate_ensemble(random_system(rng, n, m), N, NoiseSpec(alpha=alpha, seed=seed))
    ens = DataEnsemble(ens.X1 * 10.0 ** rng.uniform(-spread, spread, n), ens.U1, ens.X2)
    dual = reconstruct_dual(ens, force=True)
    assume(dual.report.b2_holds)
    ref = paper_dual(ens)
    rounding = 10.0 * N * np.finfo(float).eps * np.linalg.norm(ref.MS)
    bound = rounding * np.linalg.cond(ens.X1)
    assert np.linalg.norm(ref.MS - ref.MR.T) <= bound
    assert (np.linalg.norm(ref.MS - dual.A.T)
            <= rounding * np.linalg.cond(np.hstack([ens.X1, ens.U1])))
    fs = dual.schur.transposed()
    assert np.linalg.norm(fs.Z @ fs.T @ fs.ZH - dual.A.T) <= bound


@settings(max_examples=60, deadline=None)
@given(seed=st_seed, n=st.integers(1, 8), m=st.integers(1, 3), rows=st.integers(1, 14),
       spread=st.floats(0.0, 3.5), zeros=st.integers(0, 2))
def test_joint_rank_implies_the_block_ranks(seed, n, m, rows, spread, zeros):
    # the singular values of a column block interlace those of [X1 U1], so
    # rank [X1 U1] = n + m at a relative tolerance gives rank X1 = n and
    # rank U1 = m at the same tolerance, in the reconstruction's report as
    # in check_assumptions'
    rng = np.random.default_rng(seed)
    X1U1 = rng.standard_normal((rows, n + m)) * 10.0 ** rng.uniform(-spread, spread, n + m)
    X1U1[:, rng.choice(n + m, size=min(zeros, n + m), replace=False)] = 0.0
    ens = DataEnsemble(X1U1[:, :n], X1U1[:, n:], rng.standard_normal((rows, n)))
    for report in (reconstruct_dual(ens, force=True).report, check_assumptions(ens)):
        assert not report.b1_holds or (report.b2_holds and report.b3_holds)


def test_solve_S_on_the_factor_of_mr_matches_a_factor_of_ms_at_acceptance_size():
    # MS = MR^T: the transposed factor of MR serves the S equation as a
    # factorization of MR^T itself does
    sys = generate_synthetic(SyntheticSpec(n=100, m=2, h=0.1, seed=7))
    ens = generate_ensemble(sys, 102, NoiseSpec(alpha=0.0, seed=107))
    dual = reconstruct_dual(ens)
    rom = random_rom(np.random.default_rng(35), 6, 2, 100)
    ref = solve_discrete_sylvester(dual.A.T, rom.Ahat, -rom.Chat)
    assert rel_max_err(solve_S(dual, rom), ref) <= 1e-12


@pytest.mark.parametrize("route", ["unknown-input", "known-input"])
def test_data_residual_vanishes_on_exact_data_and_grows_with_noise(route):
    sys = random_system(np.random.default_rng(31), 10, 2)
    residuals = []
    for alpha in (0.0, 1e-4, 1e-3, 1e-2):
        ens = generate_ensemble(sys, 40, NoiseSpec(alpha=alpha, seed=32))
        dual = (reconstruct_dual(ens) if route == "unknown-input"
                else reconstruct_dual_known_input(ens, sys.B))
        residuals.append(dual.data_residual)
    assert residuals[0] <= 1e-12
    assert all(a < b for a, b in zip(residuals, residuals[1:]))


def test_reconstruction_requires_joint_rank():
    sys, _, _ = make_instance(seed=3)
    thin = generate_ensemble(sys, sys.n + sys.m - 1, NoiseSpec(seed=4))
    with pytest.raises(RankDeficientData):
        reconstruct_dual(thin)
    dual = reconstruct_dual(thin, force=True)
    assert dual.A.shape == (sys.n, sys.n)


def test_known_input_reconstruction_needs_only_state_rank():
    # N = n rows: joint rank must fail but the known-B route still works
    sys, _, _ = make_instance(seed=5, n=6, m=2)
    ens = generate_ensemble(sys, 6, NoiseSpec(seed=6))
    with pytest.raises(RankDeficientData):
        reconstruct_dual(ens)
    dual = reconstruct_dual_known_input(ens, sys.B)
    assert rel_max_err(dual.A, sys.A) < 1e-8


@pytest.mark.parametrize("route", ["unknown-input", "known-input"])
def test_the_rank_gate_names_the_three_ranks_and_a_forced_call_warns_once(route, caplog):
    # n = 6, m = 2 and N = 5 rows: rank [X1 U1] = rank X1 = 5, rank U1 = 2
    sys, _, _ = make_instance(seed=8, n=6, m=2)
    ens = generate_ensemble(sys, 5, NoiseSpec(seed=9))
    need = "rank [X1 U1] = 8" if route == "unknown-input" else "rank X1 = 6"
    text = f"need {need}; the data have rank [X1 U1] = 5, rank X1 = 5, rank U1 = 2"

    def reconstruct(force):
        return (reconstruct_dual(ens, force=force) if route == "unknown-input"
                else reconstruct_dual_known_input(ens, sys.B, force=force))

    with pytest.raises(RankDeficientData) as refused:
        reconstruct(False)
    assert str(refused.value) == text
    with caplog.at_level("WARNING", logger="ddh2mor.ddgrad"):
        dual = reconstruct(True)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("ddh2mor.ddgrad", "WARNING", text)]
    assert dual.A.shape == (6, 6)


def test_known_input_shape_check():
    sys, ens, _ = make_instance(seed=7)
    with pytest.raises(ValueError):
        reconstruct_dual_known_input(ens, np.zeros((3, 3)))


# ------------------------------------------------------- equation solutions


def test_cross_equation_residuals_vanish():
    _, ens, rom = make_instance(seed=8)
    dual = reconstruct_dual(ens)
    R = solve_R(dual, rom)
    S = solve_S(dual, rom)
    SB = solve_SB(dual, S)
    # the paper's equations, with UB1 = X2 - X1 MR^T the input block of
    # the one-step model
    UB1 = ens.X2 - ens.X1 @ dual.A.T
    res_r = dual.A @ R @ rom.Ahat.T + dual.B @ rom.Bhat.T - R
    res_s = dual.A.T @ S @ rom.Ahat - rom.Chat - S
    res_sb = ens.U1 @ SB - UB1 @ S
    assert np.abs(res_r).max() < 1e-9 * max(1.0, np.abs(R).max())
    assert np.abs(res_s).max() < 1e-9 * max(1.0, np.abs(S).max())
    assert np.abs(res_sb).max() < 1e-9 * max(1.0, np.abs(UB1 @ S).max())
    assert SB.shape == (ens.m, rom.r)


def test_cross_terms_match_model_solutions():
    from ddh2mor import error_gramians
    sys, ens, rom = make_instance(seed=9)
    dual = reconstruct_dual(ens)
    g = error_gramians(sys, rom)
    assert rel_max_err(solve_R(dual, rom), g.R) < 1e-8
    assert rel_max_err(solve_S(dual, rom), g.S) < 1e-8


def test_sb_equals_input_matrix_contraction_of_s():
    sys, ens, rom = make_instance(seed=10)
    dual = reconstruct_dual(ens)
    S = solve_S(dual, rom)
    SB = solve_SB(dual, S)
    assert rel_max_err(SB, sys.B.T @ S) < 1e-8


def test_solve_s_rejects_partial_output_rom():
    _, ens, _ = make_instance(seed=11)
    dual = reconstruct_dual(ens)
    bad = random_rom(np.random.default_rng(0), 3, 2, ens.n - 1)
    with pytest.raises(ValueError):
        solve_S(dual, bad)


def test_separation_check_measures_distance_to_reciprocal_poles():
    A = np.diag([0.5, 0.25])
    sys = LtiSystem.with_identity_output(A, np.array([[1.0], [2.0]]))
    ens = generate_ensemble(sys, 8, NoiseSpec(seed=13))
    dual = reconstruct_dual(ens)

    def rom_with_reciprocal_pole(z):
        return Rom(np.array([[1.0 / z]]), np.array([[1.0]]), np.ones((2, 1)))

    # the distance from the data eigenvalue 0.5 decides, not the product
    for gap in (0.75, 2.0 * SEPARATION_TOL):
        rom = rom_with_reciprocal_pole(0.5 + gap)
        solve_R(dual, rom)
        solve_S(dual, rom)
    rom = rom_with_reciprocal_pole(0.5 + 0.5 * SEPARATION_TOL)
    with pytest.raises(AssumptionViolated):
        solve_R(dual, rom)
    with pytest.raises(AssumptionViolated):
        solve_S(dual, rom)


def test_reciprocal_pole_collision_raises():
    A = np.diag([0.5, 0.3])
    sys = LtiSystem.with_identity_output(A, np.array([[1.0], [2.0]]))
    ens = generate_ensemble(sys, 8, NoiseSpec(seed=14))
    dual = reconstruct_dual(ens)
    rom = Rom(np.array([[2.0]]), np.array([[1.0]]), np.ones((2, 1)))
    with pytest.raises(AssumptionViolated):
        solve_R(dual, rom)
    with pytest.raises(AssumptionViolated):
        solve_S(dual, rom)


def test_separation_check_keeps_the_sweep_pivots_off_zero():
    # a small rom pole against a large data eigenvalue: mu = 1000 lies
    # 5e-10 from the reciprocal pole, outside SEPARATION_TOL, but the sweep's
    # pivot 1 - mu lam is then 5e-13, below the uniqueness floor, and the one
    # check of the R and S solves refuses it
    sys = LtiSystem.with_identity_output(np.diag([1000.0, 0.5]), np.array([[1.0], [2.0]]))
    dual = reconstruct_dual(generate_ensemble(sys, 8, NoiseSpec(seed=18)))
    for gap, unique in ((5e-9, True), (5e-10, False)):
        assert gap > SEPARATION_TOL
        rom = Rom(np.array([[1.0 / (1000.0 + gap)]]), np.array([[1.0]]), np.ones((2, 1)))
        for solve in (solve_R, solve_S):
            if unique:
                assert np.isfinite(solve(dual, rom)).all()
            else:
                with pytest.raises(AssumptionViolated):
                    solve(dual, rom)


# ------------------------------------------------------------------ objective


def test_objective_matches_squared_error_decomposition():
    sys, ens, rom = make_instance(seed=15)
    dual = reconstruct_dual(ens)
    P, _ = rom_gramians(rom)
    f = objective_f(rom, P, solve_R(dual, rom))
    full = h2_norm(sys) ** 2
    ref = h2_error(sys, rom) ** 2 - full
    assert abs(f - ref) < 1e-9 * max(1.0, abs(ref))


@settings(max_examples=40, deadline=None)
@given(seed=st_seed, n=st.integers(3, 8), r=st.integers(1, 2))
def test_data_objective_plus_squared_norm_is_the_oracle_squared_error(seed, n, r):
    # the data route and the oracle read f off the same Schur-coordinate
    # kernel, from the data coefficients and from (A, B, C) respectively
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n, 2)
    ens = generate_ensemble(sys, n + 4, NoiseSpec(seed=seed % 1000))
    rom = random_rom(rng, r, 2, n)
    oracle = H2ErrorEvaluator(sys)
    f = Evaluation(reconstruct_dual(ens), rom).f
    assert f + oracle.h2_norm ** 2 == pytest.approx(oracle.error(rom) ** 2, rel=1e-12, abs=0)


def test_objective_can_be_negative():
    # a rom close to the truth drives the cross term past the reduced term
    rng = np.random.default_rng(16)
    sys = random_system(rng, 4, 2)
    ens = generate_ensemble(sys, 10, NoiseSpec(seed=17))
    dual = reconstruct_dual(ens)
    rom = Rom(sys.A, sys.B, np.eye(4))
    P, _ = rom_gramians(rom)
    f = objective_f(rom, P, solve_R(dual, rom))
    assert f < 0.0


# ----------------------------------------------------------------- projection


def projection_instance(seed, n, m, r):
    """Noiseless data of a random order-n system and a random order-r rom."""
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n, m)
    ens = generate_ensemble(sys, n + m + 2, NoiseSpec(seed=seed % 1000))
    return rng, reconstruct_dual(ens), random_rom(rng, r, m, n)


st_shape = dict(seed=st_seed, n=st.integers(3, 8), m=st.integers(1, 2),
                r=st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(**st_shape)
def test_identified_model_evaluates_as_the_plain_system(seed, n, m, r):
    # DualData is the system (A_ls, B_ls, I): an evaluation against it reads
    # the same arrays as one against the LtiSystem of its A and B, so f, phi
    # and the gradients are the same to the bit
    _, dual, rom = projection_instance(seed, n, m, r)
    plain = LtiSystem.with_identity_output(dual.A, dual.B)
    ev, ref = Evaluation(dual, rom), Evaluation(plain, rom)
    assert (ev.f, ev.phi) == (ref.f, ref.phi)
    for projected in (False, True):
        got = data_gradients(dual, rom, ev.gramians(projected=projected))
        want = assemble_gradients(rom, plain.A, plain.B, plain.C,
                                  ref.gramians(projected=projected))
        for block in ("gA", "gB", "gC"):
            np.testing.assert_array_equal(getattr(got, block), getattr(want, block))


@settings(max_examples=40, deadline=None)
@given(**st_shape)
def test_projection_never_raises_the_objective(seed, n, m, r):
    # phi is f at chat_star, the minimizer of the convex quadratic f(Chat)
    _, dual, rom = projection_instance(seed, n, m, r)
    ev = Evaluation(dual, rom)
    scale = max(abs(ev.f), abs(ev.phi))
    assert ev.phi <= ev.f + 1e-12 * scale
    assert objective_f(ev.projected, ev.P, ev.R) == pytest.approx(ev.phi, rel=1e-10,
                                                                abs=1e-14 * scale)


@settings(max_examples=40, deadline=None)
@given(**st_shape)
@example(seed=219, n=8, m=1, r=3)  # cond(P) = 8e6
def test_output_gradient_vanishes_at_the_projection(seed, n, m, r):
    _, dual, rom = projection_instance(seed, n, m, r)
    ev = Evaluation(dual, rom)
    g = data_gradients(dual, ev.projected, ev.gramians(projected=True))
    assert np.abs(g.gC).max() <= 1e-10 * np.abs(ev.R).max()


@settings(max_examples=15, deadline=None)
@given(**st_shape)
@example(seed=476392, n=3, m=1, r=2)  # a double rom pole at 0.7
def test_projected_objective_gradient_is_the_gradient_at_the_projection(seed, n, m, r):
    # the envelope theorem: gC vanishes at chat_star, so phi's derivatives
    # in (Ahat, Bhat) are f's there, and phi does not depend on Chat
    _, dual, rom = projection_instance(seed, n, m, r)
    ev = Evaluation(dual, rom)
    # phi = -tr(R P^-1 R^T) carries the rounding of P times its condition
    # number, which the differences divide by the step
    assume(np.linalg.cond(ev.P) < 1e4)
    g = data_gradients(dual, ev.projected, ev.gramians(projected=True))
    # the extrapolation cancels the h^2 truncation of the differences,
    # which near a multiple rom pole exceeds the bound at this step
    fd = richardson_gradients(lambda q: Evaluation(dual, q).phi, rom, step=1e-5)
    # phi is invariant under similarity, so a block may vanish (r = m = 1
    # leaves phi independent of Bhat); the scale is that of both blocks
    scale = max(np.abs(g.gA).max(), np.abs(g.gB).max())
    assert np.abs(fd.gA - g.gA).max() <= 1e-6 * scale
    assert np.abs(fd.gB - g.gB).max() <= 1e-6 * scale
    assert np.abs(fd.gC).max() == 0.0


def check_similarity_invariance(seed, n, m, r):
    # (T Ahat T^-1, T Bhat) has the transfer function of (Ahat, Bhat) for
    # every output map: phi stays and chat_star becomes chat_star T^-1
    rng, dual, rom = projection_instance(seed, n, m, r)
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    T = Q * np.exp(rng.uniform(-1.0, 1.0, r))
    Tinv = np.linalg.inv(T)
    ev = Evaluation(dual, rom)
    moved = Evaluation(dual, Rom(T @ rom.Ahat @ Tinv, T @ rom.Bhat, rom.Chat))
    # R P^+ carries the rounding of P times cond(P) in each coordinate
    # system; cond(T P T^T) <= cond(T)^2 cond(P), and taking the first back
    # with T^-1 scales its error by at most cond(T)
    bound = 100.0 * np.finfo(float).eps * np.linalg.cond(ev.P) * np.linalg.cond(T) ** 2
    assert abs(moved.phi - ev.phi) <= bound * abs(ev.phi)
    assert rel_max_err(moved.chat_star, ev.chat_star @ Tinv) <= bound


@settings(max_examples=40, deadline=None)
@given(**st_shape)
@example(seed=102, n=8, m=1, r=2)  # cond(P) = 1.0e7
def test_projection_is_invariant_under_state_similarity(seed, n, m, r):
    check_similarity_invariance(seed, n, m, r)


def test_projection_is_invariant_across_the_rank_cut():
    # cond(P) 2.1e9 becomes 6.9e10 under a T of condition 5.7: an eigenvalue
    # cut at 1e-10 of the largest would drop a direction in one basis only,
    # and phi would move from -18.97 to -7.76 for the same transfer function
    check_similarity_invariance(516883675, 8, 1, 2)


# ------------------------------------------------------------------ gradients


@pytest.fixture(scope="module")
def acceptance_problem():
    """The acceptance configuration (n=100, m=2, N=102) with two starts."""
    sys = generate_synthetic(SyntheticSpec(n=100, m=2, h=0.1, seed=7))
    ens = generate_ensemble(sys, 102, NoiseSpec(alpha=0.0, seed=107))
    trajs = generate_trajectories(sys, 102, 10, NoiseSpec(alpha=0.0, seed=207))
    starts = [make_stable(init_dmdc(trajs, 6)),
              make_stable(init_data_bt(impulse_from_system(sys, 10), 6))]
    return sys, ens, starts


@pytest.mark.parametrize("route", ["unknown-input", "known-input"])
def test_trial_objective_matches_reference_objective(acceptance_problem, route):
    sys, ens, starts = acceptance_problem
    dual = (reconstruct_dual(ens) if route == "unknown-input"
            else reconstruct_dual_known_input(ens, sys.B))
    np.testing.assert_allclose(dual.b_schur, dual.schur.ZH @ dual.B, rtol=0,
                               atol=1e-14 * np.abs(dual.B).max())
    compared = 0
    for rom in starts:
        g = data_gradients(dual, rom, Evaluation(dual, rom).gramians())
        for alpha in (1.0, 1e-2, 1e-4):
            cand = rom.stepped(g, alpha)
            try:
                P = cand.P
            except NotStable:
                # the full step leaves the unit disc: the same guard rejects it
                with pytest.raises(NotStable):
                    Evaluation(dual, cand)
                continue
            ref = objective_f(cand, P, solve_R(dual, cand))
            assert Evaluation(dual, cand).f == pytest.approx(ref, rel=1e-12, abs=0)
            compared += 1
    assert compared >= 5


def test_trial_objective_keeps_the_separation_guard():
    # data eigenvalue 2.5 against the reciprocal 1 / 0.4 of a stable rom pole
    sys = LtiSystem.with_identity_output(np.diag([2.5, 0.3]), np.array([[1.0], [2.0]]))
    dual = reconstruct_dual(generate_ensemble(sys, 8, NoiseSpec(seed=16)))
    rom = Rom(np.array([[0.4]]), np.array([[1.0]]), np.ones((2, 1)))
    with pytest.raises(AssumptionViolated):
        solve_R(dual, rom)
    with pytest.raises(AssumptionViolated):
        Evaluation(dual, rom)


def test_data_gradients_match_model_based():
    sys, ens, rom = make_instance(seed=18)
    got = data_gradients_from_ensemble(ens, rom)
    ref = model_based_gradients(sys, rom)
    assert triple_err(got, ref) < 1e-8


def test_known_input_gradients_match_unknown():
    sys, ens, rom = make_instance(seed=19)
    a = data_gradients_from_ensemble(ens, rom)
    b = data_gradients_B_known(ens, sys.B, rom)
    assert triple_err(b, a) < 1e-8


def test_known_input_gradients_on_minimal_data():
    sys, _, _ = make_instance(seed=20, n=6, m=2)
    ens = generate_ensemble(sys, 6, NoiseSpec(seed=21))
    rom = random_rom(np.random.default_rng(22), 2, 2, 6)
    got = data_gradients_B_known(ens, sys.B, rom)
    ref = model_based_gradients(sys, rom)
    assert triple_err(got, ref) < 1e-7


@settings(max_examples=15, deadline=None)
@given(seed=st_seed)
def test_gradient_coincidence_property(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 5, 1)
    ens = generate_ensemble(sys, 9, NoiseSpec(seed=seed))
    rom = random_rom(rng, 2, 1, 5)
    got = data_gradients_from_ensemble(ens, rom)
    ref = model_based_gradients(sys, rom)
    assert triple_err(got, ref) < 1e-7


def test_gradients_match_finite_differences_of_data_objective():
    _, ens, rom = make_instance(seed=23, n=6, m=2, r=2, N=10)
    dual = reconstruct_dual(ens)

    def phi(q):
        P, _ = rom_gramians(q)
        return objective_f(q, P, solve_R(dual, q))

    got = data_gradients_from_ensemble(ens, rom)
    fd = fd_gradients(phi, rom, step=1e-6)
    assert rel_max_err(got.gA, fd.gA) < 1e-4
    assert rel_max_err(got.gB, fd.gB) < 1e-4
    assert rel_max_err(got.gC, fd.gC) < 1e-4


def test_gradients_invariant_under_joint_data_scaling():
    from ddh2mor import DataEnsemble
    _, ens, rom = make_instance(seed=24)
    gamma = 3.7
    scaled = DataEnsemble(gamma * ens.X1, gamma * ens.U1, gamma * ens.X2)
    a = data_gradients_from_ensemble(ens, rom)
    b = data_gradients_from_ensemble(scaled, rom)
    assert triple_err(b, a) < 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st_seed, log_scale=st.floats(-3.0, 3.0))
def test_gradients_invariant_under_row_order_and_joint_scaling(seed, log_scale):
    from ddh2mor import DataEnsemble
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 5, 2)
    ens = generate_ensemble(sys, 10, NoiseSpec(seed=seed))
    rom = random_rom(rng, 2, 2, 5)
    rows, s = rng.permutation(ens.N), 10.0 ** log_scale
    moved = DataEnsemble(s * ens.X1[rows], s * ens.U1[rows], s * ens.X2[rows])
    a = data_gradients_from_ensemble(ens, rom)
    b = data_gradients_from_ensemble(moved, rom)
    assert triple_err(b, a) < 1e-9


def test_state_only_scaling_rescales_input_quantities():
    from ddh2mor import DataEnsemble
    sys, ens, _ = make_instance(seed=25)
    gamma = 2.5
    scaled = DataEnsemble(gamma * ens.X1, ens.U1, gamma * ens.X2)
    dual0 = reconstruct_dual(ens)
    dual1 = reconstruct_dual(scaled)
    # states scaled alone describe the pair (A, gamma B)
    assert rel_max_err(dual1.A, dual0.A) < 1e-8
    assert rel_max_err(dual1.B, gamma * sys.B) < 1e-8


def test_stationary_rom_has_zero_gradients():
    _, ens, _ = make_instance(seed=26)
    rom = Rom(np.diag([0.5, 0.3]), np.zeros((2, 2)), np.zeros((10, 2)))
    g = data_gradients_from_ensemble(ens, rom)
    np.testing.assert_array_equal(g.gA, np.zeros((2, 2)))
    np.testing.assert_array_equal(g.gB, np.zeros((2, 2)))
    np.testing.assert_array_equal(g.gC, np.zeros((10, 2)))


def test_gradient_evaluation_factors_the_rom_once(monkeypatch):
    _, ens, rom = make_instance(seed=29)
    dual = reconstruct_dual(ens)
    shapes = count_schur_calls(monkeypatch)
    data_gradients(dual, rom, Evaluation(dual, rom).gramians())
    assert shapes == [(rom.r, rom.r)]


def test_data_gradients_at_a_singular_ahat_match_model_based():
    # S^T MR R takes the place of the paper's cross term through Ahat^{-1},
    # so a rom pole at zero has its gradient too
    sys, ens, rom = make_instance(seed=37, r=2)
    rom = Rom(np.diag([0.5, 0.0]), rom.Bhat, rom.Chat)
    got = data_gradients_from_ensemble(ens, rom)
    assert np.isfinite(got.gA).all()
    assert triple_err(got, model_based_gradients(sys, rom)) < 1e-8


def paper_gradients(paper, rom):
    """The paper's gradient assembly from its dual coefficients: R and S
    from MR and MS, ``SB = sb_map S`` and the cross term
    ``(S^T R - SB^T Bhat^T) Ahat^{-T}``."""
    P = solve_stein(rom.Ahat, rom.Bhat @ rom.Bhat.T)
    Q = solve_stein(rom.Ahat.T, rom.Chat.T @ rom.Chat)
    R = solve_discrete_sylvester(paper.MR, rom.Ahat.T, paper.GB @ rom.Bhat.T)
    S = solve_discrete_sylvester(paper.MS, rom.Ahat, -rom.Chat)
    SB = paper.sb_map @ S
    cross = np.linalg.solve(rom.Ahat, (S.T @ R - SB.T @ rom.Bhat.T).T).T
    return GradientTriple(2.0 * (Q @ rom.Ahat @ P + cross),
                          2.0 * (SB.T + Q @ rom.Bhat),
                          2.0 * (rom.Chat @ P - R))


@pytest.mark.parametrize("alpha", [0.0, 1e-3])
def test_data_gradients_are_the_paper_assembly_to_rounding(alpha):
    # on full-rank data S^T MR R = (S^T R - SB^T Bhat^T) Ahat^{-T}: the
    # S equation times MR R, less the R equation times S^T, leaves it.  The
    # paper's inverse scales rounding by cond(Ahat), 570 here
    _, ens, rom = make_instance(seed=38, N=40, alpha=alpha)
    dual = reconstruct_dual(ens)
    got = data_gradients(dual, rom, Evaluation(dual, rom).gramians())
    bound = 100.0 * np.finfo(float).eps * np.linalg.cond(rom.Ahat)
    assert triple_err(got, paper_gradients(paper_dual(ens), rom)) <= bound


def test_noisy_data_perturbs_gradients_mildly():
    sys, _, rom = make_instance(seed=27)
    clean = generate_ensemble(sys, 200, NoiseSpec(alpha=0.0, seed=28))
    noisy = generate_ensemble(sys, 200, NoiseSpec(alpha=1e-6, seed=28))
    g0 = data_gradients_from_ensemble(clean, rom)
    g1 = data_gradients_from_ensemble(noisy, rom)
    err = triple_err(g1, g0)
    assert 0 < err < 1e-3
