import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddh2mor import (
    DataEnsemble,
    FormatError,
    NoiseSpec,
    Rom,
    TrajectorySet,
    check_assumptions,
    generate_ensemble,
    generate_trajectories,
    load_ensemble,
    save_ensemble,
    trajectory_blocks,
)
from ddh2mor import dataio, matequ
from ddh2mor.dataio import load_rom, load_system, save_rom, save_system
from helpers import (first_transitions, numerical_rank, out_of_place_ensemble, random_system,
                     record_svd_shapes, svd_route_report, traced_peak)

st_seed = st.integers(0, 2**32 - 1)


def test_noiseless_snapshots_satisfy_recursion_exactly():
    sys = random_system(np.random.default_rng(0), 6, 2)
    ens = generate_ensemble(sys, 20, NoiseSpec(alpha=0.0, seed=1))
    # stacked generation reuses the identical matmuls, so this is bitwise
    np.testing.assert_array_equal(ens.X2, ens.X1 @ sys.A.T + ens.U1 @ sys.B.T)
    assert ens.alpha == 0.0 and ens.seed == 1


def test_noise_perturbs_observed_snapshots_only():
    sys = random_system(np.random.default_rng(1), 5, 2)
    clean = generate_ensemble(sys, 30, NoiseSpec(alpha=0.0, seed=2))
    noisy = generate_ensemble(sys, 30, NoiseSpec(alpha=1e-3, seed=2))
    # same latent draw, so inputs agree and states differ at the noise scale
    np.testing.assert_array_equal(noisy.U1, clean.U1)
    dev1 = np.abs(noisy.X1 - clean.X1).max()
    dev2 = np.abs(noisy.X2 - clean.X2).max()
    assert 0 < dev1 < 1e-2
    assert 0 < dev2 < 1e-2


def test_generation_is_deterministic_per_seed():
    sys = random_system(np.random.default_rng(2), 4, 1)
    a = generate_ensemble(sys, 10, NoiseSpec(0.01, 7))
    b = generate_ensemble(sys, 10, NoiseSpec(0.01, 7))
    c = generate_ensemble(sys, 10, NoiseSpec(0.01, 8))
    np.testing.assert_array_equal(a.X1, b.X1)
    np.testing.assert_array_equal(a.X2, b.X2)
    assert np.abs(a.X1 - c.X1).max() > 1e-6


def test_ensemble_validation():
    with pytest.raises(ValueError):
        DataEnsemble(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        DataEnsemble(np.zeros((3, 2)), np.zeros((2, 1)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        DataEnsemble(np.full((3, 2), np.inf), np.zeros((3, 1)), np.zeros((3, 2)))
    for alpha in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
            NoiseSpec(alpha=alpha)


def test_ensemble_dimensions_and_immutability():
    ens = generate_ensemble(random_system(np.random.default_rng(3), 5, 2), 9)
    assert (ens.N, ens.n, ens.m) == (9, 5, 2)
    with pytest.raises(ValueError):
        ens.X1[0, 0] = 1.0


def test_check_assumptions_rich_data():
    sys = random_system(np.random.default_rng(4), 6, 2)
    rep = check_assumptions(generate_ensemble(sys, 12, NoiseSpec(seed=5)))
    assert (rep.rank_X1U1, rep.rank_X1, rep.rank_U1) == (8, 6, 2)
    assert rep.b1_holds and rep.b2_holds and rep.b3_holds


def test_check_assumptions_insufficient_samples():
    sys = random_system(np.random.default_rng(5), 6, 2)
    rep = check_assumptions(generate_ensemble(sys, 7, NoiseSpec(seed=6)))
    # 7 rows cannot span an 8-dimensional joint row space
    assert not rep.b1_holds


def test_check_assumptions_zero_inputs():
    rng = np.random.default_rng(6)
    X1 = rng.standard_normal((10, 3))
    ens = DataEnsemble(X1, np.zeros((10, 2)), rng.standard_normal((10, 3)))
    rep = check_assumptions(ens)
    assert rep.rank_U1 == 0
    assert rep.b2_holds and not rep.b3_holds and not rep.b1_holds


def rank_case(case):
    """An ensemble (n = 8, m = 2) of the named rank structure."""
    sys = random_system(np.random.default_rng(40), 8, 2)
    ens = generate_ensemble(sys, 7 if case == "short" else 30, NoiseSpec(alpha=1e-3, seed=41))
    X1, U1 = ens.X1.copy(), ens.U1.copy()
    if case == "zero-inputs":
        U1[...] = 0.0
    if case == "duplicated-x1-columns":
        X1[:, 3] = X1[:, 0]
    return DataEnsemble(X1, U1, ens.X2)


@pytest.mark.parametrize("case, ranks", [
    ("full-rank", (10, 8, 2)),
    ("short", (7, 7, 2)),
    ("zero-inputs", (8, 8, 0)),
    ("duplicated-x1-columns", (9, 7, 2)),
])
def test_rank_check_matches_the_svd_route(monkeypatch, case, ranks):
    ens = rank_case(case)
    ref = svd_route_report(ens)
    shapes = record_svd_shapes(monkeypatch)
    rep = check_assumptions(ens)
    assert rep == ref
    assert (rep.rank_X1U1, rep.rank_X1, rep.rank_U1) == ranks
    # a column block's singular values interlace those of [X1 U1], so the
    # blocks of X1 and U1 are decomposed only when rank [X1 U1] < n + m
    assert len(shapes) == (1 if rep.b1_holds else 3)


@settings(max_examples=60, deadline=None)
@given(seed=st_seed, n=st.integers(1, 8), m=st.integers(1, 3), rows=st.integers(1, 24),
       spread=st.floats(0.0, 3.0), zeros=st.integers(0, 2), duplicate=st.booleans(),
       alpha=st.sampled_from([0.0, 1e-3]))
def test_rank_check_matches_the_svd_route_on_any_shape(seed, n, m, rows, spread, zeros,
                                                       duplicate, alpha):
    # columns scaled over up to six decades, some zero or repeated, and
    # noise that lifts a repeat well clear of the tolerance: no singular
    # value ratio falls near RANK_TOL, so both routes count the same ranks
    rng = np.random.default_rng(seed)
    X1U1 = rng.standard_normal((rows, n + m)) * 10.0 ** rng.uniform(-spread, spread, n + m)
    if duplicate and n + m > 1:
        X1U1[:, -1] = X1U1[:, 0]
    X1U1 += alpha * rng.standard_normal(X1U1.shape)
    X1U1[:, rng.choice(n + m, size=min(zeros, n + m), replace=False)] = 0.0
    ens = DataEnsemble(X1U1[:, :n], X1U1[:, n:], rng.standard_normal((rows, n)))
    assert check_assumptions(ens) == svd_route_report(ens)


def test_rank_check_factors_one_triangle_and_no_matrix_with_n_rows(monkeypatch):
    n, m, N = 8, 2, 200
    ens = generate_ensemble(random_system(np.random.default_rng(42), n, m), N,
                            NoiseSpec(alpha=1e-3, seed=43))
    ref = svd_route_report(ens)
    triangles = []
    triangle = matequ._triangle
    monkeypatch.setattr(matequ, "_triangle",
                        lambda S: triangles.append(S.shape) or triangle(S))
    shapes = record_svd_shapes(monkeypatch)
    assert check_assumptions(ens) == ref
    assert triangles == [(N, n + m)]
    # full joint rank gives the ranks of X1 and U1, so only [X1 U1]'s block
    # is decomposed
    assert shapes == [(n + m, n + m)]


@pytest.mark.parametrize("exponent", [1020, -1000])
def test_rank_check_holds_near_the_float_range(exponent):
    # at 2^1020 the columns of [X1 U1] have norms beyond the float range,
    # which a triangle of the unscaled data would not survive
    ens = generate_ensemble(random_system(np.random.default_rng(44), 8, 2), 400,
                            NoiseSpec(alpha=1e-3, seed=45))
    scaled = DataEnsemble(np.ldexp(ens.X1, exponent), np.ldexp(ens.U1, exponent), ens.X2)
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(scaled.X1, axis=0)).any() == (exponent > 0)
    assert check_assumptions(scaled) == check_assumptions(ens) == svd_route_report(ens)


def test_rank_check_memory_does_not_grow_with_the_sample_count():
    # [X1 U1] is scaled and reduced a row block at a time, so the rank check
    # of an ensemble alone holds one row block and the triangle whatever N,
    # and every block takes the one power-of-two scaling of the whole
    n, m = 30, 2
    sys = random_system(np.random.default_rng(48), n, m)
    rows = matequ._SNAPSHOT_BLOCK_ROWS
    peaks = []
    for blocks in (2, 8):
        ens = generate_ensemble(sys, blocks * rows + rows // 3, NoiseSpec(alpha=1e-3, seed=49))
        report, peak = traced_peak(check_assumptions, ens)
        peaks.append(peak)
        assert report == svd_route_report(ens)
        scaled = DataEnsemble(np.ldexp(ens.X1, 1020), np.ldexp(ens.U1, 1020), ens.X2)
        assert check_assumptions(scaled) == report
    assert peaks[1] <= 1.05 * peaks[0]


@pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.7])
def test_noise_added_in_place_matches_the_out_of_place_formula(alpha):
    sys = random_system(np.random.default_rng(46), 7, 3)
    noise = NoiseSpec(alpha=alpha, seed=47)
    ens, ref = generate_ensemble(sys, 50, noise), out_of_place_ensemble(sys, 50, noise)
    for name in ("X1", "U1", "X2"):
        np.testing.assert_array_equal(getattr(ens, name), getattr(ref, name))


def test_numerical_rank_thresholding():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.diag([1.0, 1e-11])) == 1
    assert numerical_rank(np.diag([1.0, 1e-9])) == 2


@settings(max_examples=25, deadline=None)
@given(seed=st_seed, rows=st.integers(1, 12))
def test_numerical_rank_monotone_in_rows(seed, rows):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((rows, 5))
    ranks = [numerical_rank(M[:k]) for k in range(1, rows + 1)]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))
    assert ranks[-1] <= min(rows, 5)


# -------------------------------------------------------------- trajectories


def loop_draws(sys, N, L, noise):
    """One trajectory at a time, each drawing its initial state, inputs and
    noise in turn: the draws the batched generator must reproduce."""
    rng = np.random.default_rng(noise.seed)
    x0, inputs, e = [], [], []
    for _ in range(N):
        x0.append(rng.standard_normal(sys.n))
        inputs.append(rng.standard_normal((L - 1, sys.m)))
        e.append(rng.standard_normal((L, sys.n)))
    return np.stack(x0), np.stack(inputs), np.stack(e)


def assert_follows_the_loop(sys, got, noise):
    """``got`` holds the draws of ``loop_draws`` bit for bit, and its latent
    states step by the recursion to within the rounding of one step.

    The latent states are those of the noiseless set of the same seed, which
    draws the same numbers.  A step computed as [A B] [x; u] and the same
    step computed as A x + B u are each within gamma_{n+m} (|A||x| + |B||u|)
    of the exact product (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.5, for any order of summation), so they
    differ by at most twice that.
    """
    N, L, n = got.states.shape
    x0, inputs, e = loop_draws(sys, N, L, noise)
    latent = generate_trajectories(sys, N, L, NoiseSpec(alpha=0.0, seed=noise.seed)).states
    np.testing.assert_array_equal(got.inputs, inputs)
    np.testing.assert_array_equal(latent[:, 0], x0)
    np.testing.assert_array_equal(got.states, latent + noise.alpha * e)
    u = np.finfo(float).eps / 2
    gamma = (n + sys.m) * u / (1 - (n + sys.m) * u)
    for x, w in zip(latent, inputs):
        for k in range(L - 1):
            recursion = sys.A @ x[k] + sys.B @ w[k]
            bound = 2 * gamma * (np.abs(sys.A) @ np.abs(x[k]) + np.abs(sys.B) @ np.abs(w[k]))
            assert np.all(np.abs(x[k + 1] - recursion) <= bound)


def test_trajectories_shapes_and_recursion():
    sys = random_system(np.random.default_rng(8), 4, 2)
    noise = NoiseSpec(alpha=0.0, seed=9)
    trajs = generate_trajectories(sys, 5, 7, noise)
    assert trajs.states.shape == (5, 7, 4) and trajs.inputs.shape == (5, 6, 2)
    assert not (trajs.states.flags.writeable or trajs.inputs.flags.writeable)
    assert_follows_the_loop(sys, trajs, noise)


@pytest.mark.parametrize("alpha", [0.0, 1e-3])
@pytest.mark.parametrize("n, m, N, L", [(4, 2, 5, 7), (20, 3, 12, 6), (3, 1, 2, 2)])
def test_trajectories_match_per_trajectory_loop(n, m, N, L, alpha):
    sys = random_system(np.random.default_rng(n), n, m)
    noise = NoiseSpec(alpha=alpha, seed=17)
    got = generate_trajectories(sys, N, L, noise)
    assert got.states.shape == (N, L, n) and got.inputs.shape == (N, L - 1, m)
    assert_follows_the_loop(sys, got, noise)


@pytest.mark.parametrize("alpha", [0.0, 1e-3])
def test_trajectories_match_per_trajectory_loop_across_draw_chunks(alpha):
    n, m, L = 20, 3, 6
    # trajectories per chunk of draws; three whole chunks and a partial one,
    # once of a single trajectory, whose steps BLAS takes by another kernel
    # (a matrix-vector product) than it takes the same rows in a larger block
    chunk = dataio._DRAW_CHUNK // (n + (L - 1) * m + L * n)
    sys = random_system(np.random.default_rng(21), n, m)
    noise = NoiseSpec(alpha=alpha, seed=22)
    for last in (chunk // 3, 1):
        N = 3 * chunk + last
        got = generate_trajectories(sys, N, L, noise)
        assert_follows_the_loop(sys, got, noise)
        # the stream yields the same trajectories bit for bit, one chunk per block
        blocks = list(trajectory_blocks(sys, N, L, noise))
        assert [len(b.states) for b in blocks] == [chunk] * 3 + [last]
        assert not any(b.states.flags.writeable or b.inputs.flags.writeable for b in blocks)
        np.testing.assert_array_equal(np.concatenate([b.states for b in blocks]), got.states)
        np.testing.assert_array_equal(np.concatenate([b.inputs for b in blocks]), got.inputs)


def test_trajectory_blocks_check_their_sizes_before_drawing():
    sys = random_system(np.random.default_rng(29), 2, 1)
    for N, L in [(0, 3), (3, 1)]:
        # refused when called, not when the first block is drawn
        with pytest.raises(ValueError):
            trajectory_blocks(sys, N, L)


def test_trajectory_generation_memory_stays_near_its_output():
    n, m, N, L = 20, 3, 12000, 6
    sys = random_system(np.random.default_rng(23), n, m)
    trajs, peak = traced_peak(generate_trajectories, sys, N, L, NoiseSpec(alpha=1e-3, seed=24))
    assert peak < 1.2 * (trajs.states.nbytes + trajs.inputs.nbytes)


def test_generated_arrays_are_handed_over_and_given_ones_copied():
    sys = random_system(np.random.default_rng(25), 3, 2)
    trajs = generate_trajectories(sys, 4, 5, NoiseSpec(seed=26))
    for M in (trajs.states, trajs.inputs):
        assert M.flags.owndata and M.flags.c_contiguous and not M.flags.writeable
    states, inputs = np.array(trajs.states), np.array(trajs.inputs)
    again = TrajectorySet(states, inputs)
    assert not (np.shares_memory(again.states, states)
                or np.shares_memory(again.inputs, inputs))
    X1, U1 = np.ones((4, 3)), np.ones((4, 2))
    ens = DataEnsemble(X1, U1, X1)
    assert not any(np.shares_memory(a, b) for a, b in ((ens.X1, X1), (ens.U1, U1), (ens.X2, X1)))


def test_trajectory_validation():
    for states, inputs in [
        (np.zeros((1, 3, 2)), np.zeros((1, 3, 1))),  # as many inputs as states
        (np.zeros((0, 3, 2)), np.zeros((0, 2, 1))),  # no trajectory
        (np.zeros((2, 3, 2)), np.zeros((1, 2, 1))),  # trajectory counts differ
        (np.zeros((1, 1, 2)), np.zeros((1, 0, 1))),  # a single state
        (np.zeros((3, 2)), np.zeros((2, 1))),  # no trajectory axis
        (np.full((1, 3, 2), np.nan), np.zeros((1, 2, 1))),
    ]:
        with pytest.raises(ValueError):
            TrajectorySet(states, inputs)
    with pytest.raises(ValueError):
        generate_trajectories(random_system(np.random.default_rng(0), 2, 1), 3, 1)


def test_first_transitions_picks_trajectory_heads():
    sys = random_system(np.random.default_rng(10), 3, 2)
    trajs = generate_trajectories(sys, 6, 4, NoiseSpec(seed=11))
    ens = first_transitions(trajs)
    assert (ens.N, ens.n, ens.m) == (6, 3, 2)
    for i, (x, u) in enumerate(zip(trajs.states, trajs.inputs)):
        np.testing.assert_array_equal(ens.X1[i], x[0])
        np.testing.assert_array_equal(ens.U1[i], u[0])
        np.testing.assert_array_equal(ens.X2[i], x[1])


# ---------------------------------------------------------------- round trip


def test_save_load_roundtrip_is_bitwise(tmp_path):
    sys = random_system(np.random.default_rng(12), 5, 2)
    ens = generate_ensemble(sys, 11, NoiseSpec(alpha=0.25, seed=13))
    manifest = save_ensemble(ens, tmp_path / "data")
    again = load_ensemble(manifest)
    np.testing.assert_array_equal(again.X1, ens.X1)
    np.testing.assert_array_equal(again.U1, ens.U1)
    np.testing.assert_array_equal(again.X2, ens.X2)
    assert again.alpha == ens.alpha and again.seed == ens.seed
    # loading by directory works too
    third = load_ensemble(tmp_path / "data")
    np.testing.assert_array_equal(third.X2, ens.X2)


def test_loaded_ensemble_memory_stays_near_its_blocks(tmp_path):
    sys = random_system(np.random.default_rng(27), 20, 3)
    save_ensemble(generate_ensemble(sys, 4000, NoiseSpec(seed=28)), tmp_path)
    ens, peak = traced_peak(load_ensemble, tmp_path)
    assert peak < 1.2 * (ens.X1.nbytes + ens.U1.nbytes + ens.X2.nbytes)


def test_system_and_rom_writers_take_a_string_path(tmp_path):
    sys = random_system(np.random.default_rng(14), 4, 2)
    rom = Rom(np.diag([0.5, 0.4]), np.ones((2, 2)), np.ones((4, 2)))
    save_system(sys, str(tmp_path / "system"), h=0.1, seed=3)
    save_rom(rom, str(tmp_path / "rom"))
    again = load_system(str(tmp_path / "system"))
    np.testing.assert_array_equal(again.A, sys.A)
    np.testing.assert_array_equal(again.B, sys.B)
    back = load_rom(str(tmp_path / "rom"))
    for name in ("Ahat", "Bhat", "Chat"):
        np.testing.assert_array_equal(getattr(back, name), getattr(rom, name))


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "ensemble.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_ensemble(path)


def test_load_rejects_missing_keys(tmp_path):
    (tmp_path / "ensemble.json").write_text(json.dumps({"n": 2, "m": 1}))
    with pytest.raises(FormatError):
        load_ensemble(tmp_path)


def test_load_rejects_shape_mismatch(tmp_path):
    ens = generate_ensemble(random_system(np.random.default_rng(14), 3, 1), 6)
    manifest = save_ensemble(ens, tmp_path)
    meta = json.loads(manifest.read_text())
    meta["n"] = 4
    manifest.write_text(json.dumps(meta))
    with pytest.raises(FormatError):
        load_ensemble(tmp_path)


def test_load_rejects_corrupt_matrix(tmp_path):
    ens = generate_ensemble(random_system(np.random.default_rng(15), 3, 1), 6)
    save_ensemble(ens, tmp_path)
    (tmp_path / "x1.npy").write_text("1.0,oops\n")
    with pytest.raises(FormatError):
        load_ensemble(tmp_path)


def npy(M, *, allow_pickle=False, **header) -> bytes:
    """The ``.npy`` bytes of M, with header entries replaced by ``header``."""
    buf = io.BytesIO()
    if not header:
        np.save(buf, M, allow_pickle=allow_pickle)
        return buf.getvalue()
    fields = {**np.lib.format.header_data_from_array_1_0(M), **header}
    np.lib.format.write_array_header_1_0(buf, fields)
    return buf.getvalue() + np.ascontiguousarray(M).tobytes()


def with_entry(M, value):
    M = M.copy()
    M[2, 1] = value
    return M


def npz(M) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, x1=M)
    return buf.getvalue()


# each a malformed x1.npy in place of the (6, 3) float64 block
MALFORMED_X1 = {
    "truncated": lambda M: npy(M)[:-8],
    "header-only": lambda M: npy(M)[:128],
    "trailing-bytes": lambda M: npy(M) + bytes(8),
    "empty": lambda M: b"",
    "pickled": pickle.dumps,
    "object-dtype": lambda M: npy(M.astype(object), allow_pickle=True),
    "npz-archive": npz,
    "float32": lambda M: npy(M.astype(np.float32)),
    "int64": lambda M: npy(M.astype(np.int64)),
    "complex128": lambda M: npy(M.astype(complex)),
    "one-dimensional": lambda M: npy(M.ravel()),
    "three-dimensional": lambda M: npy(M[None]),
    "wrong-shape": lambda M: npy(M[:5]),
    "nan": lambda M: npy(with_entry(M, np.nan)),
    "inf": lambda M: npy(with_entry(M, -np.inf)),
    "version-3": lambda M: npy(M)[:6] + b"\x03" + npy(M)[7:],
    "garbled-header": lambda M: npy(M).replace(b"'descr'", b"'descX'"),
}


@pytest.mark.parametrize("content", MALFORMED_X1.values(), ids=list(MALFORMED_X1))
def test_load_rejects_malformed_npy(tmp_path, content):
    ens = generate_ensemble(random_system(np.random.default_rng(16), 3, 1), 6)
    save_ensemble(ens, tmp_path)
    (tmp_path / "x1.npy").write_bytes(content(np.array(ens.X1)))
    with pytest.raises(FormatError, match="x1.npy: "):
        load_ensemble(tmp_path)


def test_load_refuses_a_huge_header_before_allocating(tmp_path):
    # a header that claims 7.28 TiB is refused on the file's size alone,
    # and so is one that disagrees with the manifest
    ens = generate_ensemble(random_system(np.random.default_rng(17), 3, 1), 6)
    manifest = save_ensemble(ens, tmp_path)
    meta = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**meta, "N": 10**12, "n": 1000}))
    x1 = tmp_path / "x1.npy"
    x1.write_bytes(npy(np.array(ens.X1), shape=(10**12, 1000)))
    with pytest.raises(FormatError, match="header promises 8000000000000000 data bytes"):
        load_ensemble(tmp_path)
    manifest.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=r"shape \(1000000000000, 1000\)"):
        load_ensemble(tmp_path)


def test_load_rejects_nonpositive_manifest_sizes(tmp_path):
    ens = generate_ensemble(random_system(np.random.default_rng(18), 3, 1), 6)
    manifest = save_ensemble(ens, tmp_path)
    meta = json.loads(manifest.read_text())
    for key in ("N", "n", "m"):
        manifest.write_text(json.dumps({**meta, key: 0}))
        with pytest.raises(FormatError, match="sizes must be positive"):
            load_ensemble(tmp_path)


def test_csv_block_is_refused_and_converts_in_one_line(tmp_path):
    ens = generate_ensemble(random_system(np.random.default_rng(19), 3, 1), 6)
    manifest = save_ensemble(ens, tmp_path)
    np.savetxt(tmp_path / "x1.csv", ens.X1, delimiter=",", fmt="%.17e")
    meta = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**meta, "x1": "x1.csv"}))
    with pytest.raises(FormatError, match="x1.csv: not a .npy array file"):
        load_ensemble(tmp_path)
    # the conversion README gives for measured CSV data
    np.save(tmp_path / "x1.npy", np.loadtxt(tmp_path / "x1.csv", delimiter=",", ndmin=2))
    manifest.write_text(json.dumps(meta))
    np.testing.assert_array_equal(load_ensemble(tmp_path).X1, ens.X1)


def test_load_accepts_fortran_order_and_either_byte_order(tmp_path):
    ens = generate_ensemble(random_system(np.random.default_rng(20), 3, 1), 6)
    save_ensemble(ens, tmp_path)
    np.save(tmp_path / "x1.npy", np.asfortranarray(ens.X1))
    np.save(tmp_path / "x2.npy", ens.X2.astype(">f8"))
    again = load_ensemble(tmp_path)
    np.testing.assert_array_equal(again.X1, ens.X1)
    np.testing.assert_array_equal(again.X2, ens.X2)
    assert again.X1.flags.c_contiguous
