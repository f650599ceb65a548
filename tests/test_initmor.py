import collections
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from ddh2mor import (
    FormatError,
    FreqSample,
    ImpulseData,
    InsufficientData,
    NoiseSpec,
    Rom,
    SingularE,
    SyntheticSpec,
    TrajectorySet,
    generate_synthetic,
    generate_trajectories,
    impulse_from_system,
    init_data_bt,
    init_dmdc,
    init_loewner,
    load_frequency_samples,
    load_impulse_data,
    make_stable,
    markov_parameters,
    sample_frequency_data,
    save_frequency_samples,
    save_impulse_data,
    trajectory_blocks,
    transfer_eval,
)
from ddh2mor import dataio, initmor, matequ
from ddh2mor.matequ import significant
from helpers import (blockwise_loewner, numerical_rank, random_rom, random_system,
                     real_loewner_matrices, real_transform, record_svd_shapes, rel_max_err,
                     simulate, take_real, traced_peak)

UNIT_CIRCLE_PROBES = np.exp(1j * np.linspace(0.1, 2 * np.pi - 0.1, 16))


def assert_same_rom(got, ref, tol=1e-12):
    """Entrywise agreement up to the signs of the reduced state coordinates."""
    d = np.where(np.sum(got.Chat * ref.Chat, axis=0) < 0.0, -1.0, 1.0)
    assert rel_max_err(d[:, None] * got.Ahat * d, ref.Ahat) < tol
    assert rel_max_err(d[:, None] * got.Bhat, ref.Bhat) < tol
    assert rel_max_err(got.Chat * d, ref.Chat) < tol


def transfer_mismatch(a, b, points=UNIT_CIRCLE_PROBES):
    worst = 0.0
    for z in points:
        Ha = transfer_eval(a, z)
        Hb = transfer_eval(b, z)
        worst = max(worst, np.abs(Ha - Hb).max() / max(1.0, np.abs(Hb).max()))
    return worst


# -------------------------------------------------------------- make_stable


def test_make_stable_leaves_good_rom_untouched():
    rom = Rom(np.diag([0.5, -0.3]), np.ones((2, 1)), np.ones((1, 2)))
    assert make_stable(rom) is rom


def test_make_stable_rescales_unstable_spectrum():
    rom = Rom(np.diag([1.5, 0.5]), np.ones((2, 1)), np.ones((1, 2)))
    out = make_stable(rom)
    assert out.satisfies_spectral_bounds()
    assert np.max(out.eig_moduli()) == pytest.approx(0.99, rel=1e-10)
    # pure rescaling keeps directions and the other matrices
    np.testing.assert_allclose(out.Ahat, rom.Ahat * (0.99 / 1.5), atol=1e-14)
    np.testing.assert_array_equal(out.Bhat, rom.Bhat)
    np.testing.assert_array_equal(out.Chat, rom.Chat)


def test_make_stable_shifts_vanishing_modes():
    rom = Rom(np.zeros((2, 2)), np.ones((2, 1)), np.ones((1, 2)))
    out = make_stable(rom)
    np.testing.assert_allclose(out.Ahat, 1e-6 * np.eye(2), atol=1e-18)
    assert out.satisfies_spectral_bounds()


def test_make_stable_handles_both_defects_at_once():
    rom = Rom(np.diag([2.0, 0.0]), np.ones((2, 1)), np.ones((1, 2)))
    out = make_stable(rom)
    assert out.satisfies_spectral_bounds()


def test_make_stable_boundary_radius_counts_as_unstable():
    rom = Rom(np.array([[1.0]]), np.ones((1, 1)), np.ones((1, 1)))
    out = make_stable(rom)
    assert out.Ahat[0, 0] == pytest.approx(0.99)


def test_make_stable_accepts_exactly_the_annulus():
    # 1e-11 is above the annulus floor 1e-12, so the rom already qualifies
    rom = Rom(np.diag([0.5, 1e-11]), np.ones((2, 1)), np.ones((1, 2)))
    assert rom.satisfies_spectral_bounds()
    assert make_stable(rom) is rom
    rom = Rom(np.diag([0.5, 1e-13]), np.ones((2, 1)), np.ones((1, 2)))
    out = make_stable(rom)
    np.testing.assert_allclose(out.Ahat, rom.Ahat + 1e-6 * np.eye(2), rtol=0, atol=1e-18)
    assert out.satisfies_spectral_bounds()


# --------------------------------------------------------------------- DMDc


def test_dmdc_recovers_full_order_transfer():
    sys = random_system(np.random.default_rng(0), 4, 2)
    trajs = generate_trajectories(sys, 20, 6, NoiseSpec(seed=1))
    rom = init_dmdc(trajs, 4)
    assert transfer_mismatch(rom, sys) < 1e-6


def test_dmdc_reduced_order_shapes_and_annulus():
    sys = random_system(np.random.default_rng(2), 8, 2)
    trajs = generate_trajectories(sys, 30, 8, NoiseSpec(seed=3))
    rom = init_dmdc(trajs, 3)
    assert (rom.r, rom.m, rom.p) == (3, 2, 8)
    assert rom.satisfies_spectral_bounds()


def svd_route_dmdc(trajs, r):
    """DMDc through SVDs of the full snapshot matrices: the reference for
    the triangle-based init_dmdc."""
    X = np.hstack([x[:-1].T for x in trajs.states])
    Xp = np.hstack([x[1:].T for x in trajs.states])
    U = np.hstack([u.T for u in trajs.inputs])
    n = X.shape[0]
    if Xp.shape[1] < r or numerical_rank(Xp) < r:
        raise InsufficientData(
            f"successor snapshots have rank below the target order {r}")
    Uz, sz, Vzt = np.linalg.svd(np.vstack([X, U]), full_matrices=False)
    keep = int(np.count_nonzero(significant(sz)))
    if keep == 0:
        raise InsufficientData("identification snapshots are numerically zero")
    AB = Xp @ (Vzt[:keep].T / sz[:keep]) @ Uz[:, :keep].T
    basis = np.linalg.svd(Xp, full_matrices=False)[0][:, :r]
    return make_stable(Rom(basis.T @ AB[:, :n] @ basis, basis.T @ AB[:, n:], basis))


def repeated_input_trajectories(sys, N, L, seed):
    """Trajectories whose input columns are equal, so rank [X; U] = n + m - 1."""
    rng = np.random.default_rng(seed)
    states, inputs = [], []
    for _ in range(N):
        inputs.append(np.repeat(rng.standard_normal((L - 1, 1)), sys.m, axis=1))
        states.append(simulate(sys, rng.standard_normal(sys.n), inputs[-1]))
    return TrajectorySet(np.stack(states), np.stack(inputs))


# 2n + m = 32 is one dgeqrt block of the snapshot matrix; 43 is one block
# and a partial one
@pytest.mark.parametrize("n, m, r, alpha", [(8, 2, 3, 0.0), (8, 2, 3, 1e-3), (6, 2, 6, 0.0),
                                            (6, 2, 6, 1e-3), (12, 3, 4, 1e-3),
                                            (15, 2, 4, 1e-3), (20, 3, 5, 0.0),
                                            (20, 3, 5, 1e-3)])
def test_dmdc_matches_svd_route(n, m, r, alpha):
    sys = random_system(np.random.default_rng(30 + n), n, m)
    trajs = generate_trajectories(sys, 30, 8, NoiseSpec(alpha=alpha, seed=31))
    assert_same_rom(init_dmdc(trajs, r), svd_route_dmdc(trajs, r))


def test_dmdc_matches_svd_route_on_a_wide_snapshot_matrix():
    # 2 trajectories of 7 transitions: S is 14 x 43, wider than tall
    n, m, r = 20, 3, 4
    sys = random_system(np.random.default_rng(36), n, m)
    trajs = generate_trajectories(sys, 2, 8, NoiseSpec(alpha=1e-3, seed=37))
    assert_same_rom(init_dmdc(trajs, r), svd_route_dmdc(trajs, r))


@pytest.mark.parametrize("shape", [(200, 7), (200, 32), (200, 43), (90, 75), (14, 43), (1, 5)],
                         ids="{0[0]}x{0[1]}".format)
def test_triangle_is_the_r_of_householder_qr(shape):
    S = np.random.default_rng(sum(shape)).standard_normal(shape)
    ref = scipy.linalg.qr(S, mode="r")[0][:min(shape)]
    R = initmor._triangle(np.asfortranarray(S))
    assert R.shape == ref.shape
    assert np.array_equal(R, np.triu(R))
    np.testing.assert_array_equal(np.sign(np.diagonal(R)), np.sign(np.diagonal(ref)))
    assert rel_max_err(R, ref) < 1e-13


def test_dmdc_memory_stays_near_the_snapshot_matrix():
    n, m, N, L = 30, 2, 400, 10
    sys = random_system(np.random.default_rng(38), n, m)
    trajs = generate_trajectories(sys, N, L, NoiseSpec(alpha=1e-3, seed=39))
    snapshot_bytes = N * (L - 1) * (2 * n + m) * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        init_dmdc(trajs, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * snapshot_bytes


def test_dmdc_matches_svd_route_on_rank_deficient_identification_data():
    n, m, r = 6, 2, 3
    trajs = repeated_input_trajectories(random_system(np.random.default_rng(32), n, m),
                                        20, 8, 33)
    Z = np.hstack([np.hstack([x[:-1], u]).T for x, u in zip(trajs.states, trajs.inputs)])
    sz = np.linalg.svd(Z, compute_uv=False)
    # keep = n + m - 1 < n + m: one direction of [X; U] is dropped
    assert np.count_nonzero(sz > 1e-14 * sz[0]) == n + m - 1
    assert_same_rom(init_dmdc(trajs, r), svd_route_dmdc(trajs, r))


def test_dmdc_cuts_identification_directions_by_the_one_rank_rule():
    # one-step trajectories, so X and Xp are free: rank [X; U] = 1 < r at
    # RANK_TOL, and a second singular value of 1e-12 of the largest lies
    # above the 1e-14 floor of a "keep at least r directions" rule; the fit
    # keeps only what significant keeps
    n, m, r, N = 4, 1, 3, 20
    rng = np.random.default_rng(49)
    a = rng.standard_normal(N)
    x = np.outer(a, rng.standard_normal(n))
    x += 1e-12 * np.linalg.norm(x) * np.outer(rng.standard_normal(N), rng.standard_normal(n))
    trajs = TrajectorySet(np.stack([x, rng.standard_normal((N, n))], axis=1),
                          0.5 * a[:, None, None])
    sz = np.linalg.svd(np.hstack([x, 0.5 * a[:, None]]), compute_uv=False)
    assert np.count_nonzero(significant(sz)) == 1 < r
    assert np.count_nonzero(sz > 1e-14 * sz[0]) == 2
    assert_same_rom(init_dmdc(trajs, r), svd_route_dmdc(trajs, r))


def blocks_of(count, L):
    """A trajectory count whose snapshot rows fill ``count`` of init_dmdc's
    row blocks and part of one more."""
    per_block = matequ._SNAPSHOT_BLOCK_ROWS // (L - 1)
    return count * per_block + per_block // 3


@pytest.mark.parametrize("alpha", [0.0, 1e-3])
def test_dmdc_matches_svd_route_across_row_blocks(alpha):
    n, m, r, L = 8, 2, 3, 8
    sys = random_system(np.random.default_rng(40), n, m)
    trajs = generate_trajectories(sys, blocks_of(3, L), L, NoiseSpec(alpha=alpha, seed=41))
    assert_same_rom(init_dmdc(trajs, r), svd_route_dmdc(trajs, r))


def test_dmdc_matches_svd_route_on_rank_deficient_data_across_row_blocks():
    n, m, r, L = 6, 2, 3, 8
    trajs = repeated_input_trajectories(random_system(np.random.default_rng(42), n, m),
                                        blocks_of(3, L), L, 43)
    assert_same_rom(init_dmdc(trajs, r), svd_route_dmdc(trajs, r))


def split(trajs, sizes):
    """``trajs`` as consecutive blocks of ``sizes`` trajectories, cycled."""
    blocks, start = [], 0
    for size in itertools.cycle(sizes):
        if start >= len(trajs.states):
            return blocks
        blocks.append(TrajectorySet(trajs.states[start:start + size],
                                    trajs.inputs[start:start + size]))
        start += size


def tsqr_inputs(trajs, per_block):
    """The matrices a sequential TSQR of DMDc's snapshot rows reduces: each
    block of ``per_block`` whole trajectories below the triangle of the
    blocks before it."""
    inputs, R = [], np.empty((0, 2 * trajs.states.shape[2] + trajs.inputs.shape[2]))
    for start in range(0, len(trajs.states), per_block):
        x = trajs.states[start:start + per_block]
        u = trajs.inputs[start:start + per_block]
        rows = np.concatenate([x[:, :-1], u, x[:, 1:]], axis=2).reshape(-1, R.shape[1])
        inputs.append(np.vstack([R, rows]))
        R = initmor._triangle(np.asfortranarray(inputs[-1]))
    return inputs


# trajectory counts, from the trajectories per row block and per draw block:
# the last draw block of the third is a single trajectory, whose steps BLAS
# takes by another kernel (a matrix-vector product) than it takes the same
# rows in a larger block
TRAJECTORY_COUNTS = {"whole-blocks": lambda rows, draws: 2 * rows,
                     "partial-last-block": lambda rows, draws: int(3.4 * rows),
                     "small-last-draw-block": lambda rows, draws: draws + 1}


@pytest.mark.parametrize("alpha", [0.0, 1e-3])
@pytest.mark.parametrize("blocks", TRAJECTORY_COUNTS)
def test_dmdc_of_blocks_is_bitwise_the_dmdc_of_their_set(monkeypatch, alpha, blocks):
    n, m, r, L = 8, 2, 3, 8
    per_block = matequ._SNAPSHOT_BLOCK_ROWS // (L - 1)
    N = TRAJECTORY_COUNTS[blocks](per_block, dataio._DRAW_CHUNK // (n + (L - 1) * m + L * n))
    sys = random_system(np.random.default_rng(46), n, m)
    noise = NoiseSpec(alpha=alpha, seed=47)
    trajs = generate_trajectories(sys, N, L, noise)
    expected = tsqr_inputs(trajs, per_block)
    reduced = []
    triangle = matequ._triangle
    monkeypatch.setattr(matequ, "_triangle",
                        lambda S: reduced.append(np.array(S)) or triangle(S))
    ref = init_dmdc(trajs, r)
    # the draw blocks (762 trajectories, the last one of fewer), and blocks
    # that straddle the row blocks (292 trajectories) every way, fold into
    # the same row blocks
    for stream in (trajectory_blocks(sys, N, L, noise),
                   split(trajs, [1, per_block - 2, per_block + 5, 2])):
        reduced.clear()
        rom = init_dmdc(stream, r)
        assert len(reduced) == len(expected)
        for got, want in zip(reduced, expected):
            np.testing.assert_array_equal(got, want)
        for got, want in ((rom.Ahat, ref.Ahat), (rom.Bhat, ref.Bhat), (rom.Chat, ref.Chat)):
            np.testing.assert_array_equal(got, want)


def test_dmdc_of_no_trajectories_is_insufficient_data():
    with pytest.raises(InsufficientData):
        init_dmdc(iter([]), 1)


@pytest.mark.parametrize("L, n, m", [(6, 4, 2), (5, 3, 2), (5, 4, 1)], ids=["L", "n", "m"])
def test_dmdc_refuses_blocks_of_different_data(L, n, m):
    first = generate_trajectories(random_system(np.random.default_rng(48), 4, 2), 3, 5)
    other = TrajectorySet(np.zeros((2, L, n)), np.zeros((2, L - 1, m)))
    with pytest.raises(ValueError, match=re.escape(f"(5, 4, 2) and {(L, n, m)}")):
        init_dmdc([first, other], 1)


def test_dmdc_memory_does_not_grow_with_the_trajectory_count():
    n, m, L = 30, 2, 10
    sys = random_system(np.random.default_rng(44), n, m)
    peaks = [traced_peak(init_dmdc, generate_trajectories(
        sys, blocks_of(count, L), L, NoiseSpec(alpha=1e-3, seed=45)), 4)[1]
        for count in (2, 8)]
    # one block of snapshot rows and the triangle, whatever the count
    assert peaks[1] <= 1.05 * peaks[0]


def test_streamed_dmdc_holds_one_block_of_draws_at_a_time():
    # the working set is what drawing the blocks takes, one row block of
    # snapshot rows and R: a block held while the next one is drawn would
    # add a block of draws (0.45 MB here)
    n, m, L, N = 30, 2, 10, 1000
    sys = random_system(np.random.default_rng(44), n, m)
    noise = NoiseSpec(alpha=1e-3, seed=45)
    drawing = traced_peak(lambda blocks: collections.deque(blocks, maxlen=0),
                          trajectory_blocks(sys, N, L, noise))[1]
    peak = traced_peak(init_dmdc, trajectory_blocks(sys, N, L, noise), 4)[1]
    width, per_block = 2 * n + m, matequ._SNAPSHOT_BLOCK_ROWS // (L - 1)
    row_block = (width + per_block * (L - 1)) * width * np.dtype(float).itemsize
    assert peak <= 1.05 * (drawing + row_block)


def test_dmdc_rejects_rank_deficient_snapshots():
    with pytest.raises(InsufficientData):
        init_dmdc(TrajectorySet(np.zeros((1, 4, 3)), np.zeros((1, 3, 1))), 1)


@pytest.mark.parametrize("route", [init_dmdc, svd_route_dmdc])
@pytest.mark.parametrize("states, inputs, r, message", [
    (np.zeros((4, 3)), np.zeros((3, 1)), 1, "successor snapshots"),
    (np.ones((3, 3)), np.ones((2, 1)), 3, "successor snapshots"),
    # the successor state is nonzero, but the state and input it follows are not
    ([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]], np.zeros((1, 1)), 1, "numerically zero"),
], ids=["zero", "too-few-columns", "zero-identification"])
def test_dmdc_insufficient_data_matches_svd_route(route, states, inputs, r, message):
    with pytest.raises(InsufficientData, match=message):
        route(TrajectorySet(np.asarray(states)[None], np.asarray(inputs)[None]), r)


def test_dmdc_svds_stay_within_the_triangle(monkeypatch):
    shapes = record_svd_shapes(monkeypatch)
    n, m = 8, 2
    sys = random_system(np.random.default_rng(34), n, m)
    trajs = generate_trajectories(sys, 30, 8, NoiseSpec(alpha=1e-3, seed=35))
    init_dmdc(trajs, 3)
    assert shapes and max(max(s) for s in shapes) <= 2 * n + m


# ------------------------------------------------------------------ Loewner


def test_loewner_interpolates_sampled_transfer():
    true = random_rom(np.random.default_rng(4), 3, 2, 2)
    left, right = sample_frequency_data(true, 8, 8, seed=5)
    rom = init_loewner(left, right, 3)
    for s in left + right:
        err = np.abs(transfer_eval(rom, s.z) - s.value).max()
        assert err < 1e-8 * max(1.0, np.abs(s.value).max())


def test_loewner_real_sample_points():
    true = Rom(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]))
    left = mixed_samples(true, [1.2, 1.4])
    right = mixed_samples(true, [1.6, 1.8])
    rom = init_loewner(left, right, 1)
    for s in left + right:
        assert np.abs(transfer_eval(rom, s.z) - s.value).max() < 1e-8


def test_loewner_missing_conjugate_partner():
    true = random_rom(np.random.default_rng(6), 2, 1, 1)
    left, right = sample_frequency_data(true, 4, 4, seed=7)
    with pytest.raises(ValueError):
        init_loewner(left[:-1], right, 2)


def test_loewner_conjugate_value_mismatch():
    true = random_rom(np.random.default_rng(8), 2, 1, 1)
    left, right = sample_frequency_data(true, 4, 4, seed=9)
    broken = list(left)
    broken[1] = FreqSample(left[1].z, left[1].value + 0.5)
    with pytest.raises(ValueError):
        init_loewner(broken, right, 2)


@pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
def test_loewner_non_real_value_at_a_real_point(side):
    # conjugate closure asks a real point for a real value; the one check
    # names the point
    true = Rom(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]))
    sides = [mixed_samples(true, [1.2, 1.4]), mixed_samples(true, [1.6, 1.8])]
    bad = sides[side][1]
    sides[side][1] = FreqSample(bad.z, bad.value + 1e-3j)
    with pytest.raises(ValueError, match=rf"real point z={bad.z.real}\b"):
        init_loewner(*sides, 1)


def test_loewner_coincident_points_rejected():
    true = random_rom(np.random.default_rng(10), 2, 1, 1)
    left, _ = sample_frequency_data(true, 4, 4, seed=11)
    with pytest.raises(ValueError):
        init_loewner(left, left, 2)


def test_loewner_order_beyond_data_rank():
    true = random_rom(np.random.default_rng(12), 2, 1, 1)
    left, right = sample_frequency_data(true, 6, 6, seed=13)
    with pytest.raises(SingularE):
        init_loewner(left, right, 5)


def test_loewner_empty_side_rejected():
    with pytest.raises(ValueError):
        init_loewner([], [], 1)


def kron_route_loewner(left, right, r):
    """Loewner initializer with the real transforms formed as dense Kronecker
    products: the reference for the blockwise transforms of init_loewner."""
    lg = initmor._conjugate_groups(left)
    rg = initmor._conjugate_groups(right)
    lo = [left[i] for g in lg for i in g]
    ro = [right[i] for g in rg for i in g]
    p, m = lo[0].value.shape
    L = np.block([[(si.value - sj.value) / (si.z - sj.z) for sj in ro] for si in lo])
    Ls = np.block([[(si.z * si.value - sj.z * sj.value) / (si.z - sj.z) for sj in ro]
                   for si in lo])
    JL = np.kron(real_transform(lg), np.eye(p))
    JR = np.kron(real_transform(rg), np.eye(m))
    Lr = take_real(JL.conj().T @ L @ JR, "Loewner matrix")
    Lsr = take_real(JL.conj().T @ Ls @ JR, "shifted Loewner matrix")
    Vr = take_real(JL.conj().T @ np.vstack([s.value for s in lo]), "left data")
    Wr = take_real(np.hstack([s.value for s in ro]) @ JR, "right data")
    Y = np.linalg.svd(np.hstack([Lr, Lsr]), full_matrices=False)[0][:, :r]
    X = np.linalg.svd(np.vstack([Lr, Lsr]), full_matrices=False)[2][:r].T
    E = -Y.T @ Lr @ X
    return make_stable(Rom(np.linalg.solve(E, -Y.T @ Lsr @ X),
                           np.linalg.solve(E, Y.T @ Vr), Wr @ X))


def mixed_samples(rom, points):
    return [FreqSample(z, transfer_eval(rom, z)) for z in points]


def conjugate_closed_samples(rom, rng, counts):
    """Shuffled left and right samples of ``rom``, ``counts`` = (left pairs,
    left reals, right pairs, right reals).  The pairs sit on a grid of the
    upper unit half-circle and the real points on a grid of 1.2 <= |z| <= 2,
    each grid dealt out at random between the sides, so no left point comes
    near a right one."""
    lp, lr, rp, rr = counts
    angles = rng.permutation(np.linspace(0.15, np.pi - 0.15, lp + rp))
    reals = rng.permutation(np.linspace(1.2, 2.0, lr + rr)) * rng.choice([-1.0, 1.0], lr + rr)

    def side(angles, reals):
        samples = mixed_samples(rom, reals)
        for z in np.exp(1j * angles):
            value = transfer_eval(rom, z)
            samples += [FreqSample(z, value), FreqSample(z.conjugate(), value.conjugate())]
        return [samples[i] for i in rng.permutation(len(samples))]

    return side(angles[:lp], reals[:lr]), side(angles[lp:], reals[lr:])


@pytest.mark.parametrize("r, m, p, n_left, n_right", [(3, 2, 2, 8, 8), (4, 2, 3, 6, 10),
                                                      (5, 3, 1, 12, 8)])
def test_loewner_matches_kron_route(r, m, p, n_left, n_right):
    true = random_rom(np.random.default_rng(40 + r), r, m, p)
    left, right = sample_frequency_data(true, n_left, n_right, seed=41)
    assert_same_rom(init_loewner(left, right, r), kron_route_loewner(left, right, r))


def test_loewner_matches_kron_route_with_real_and_paired_points():
    true = random_rom(np.random.default_rng(42), 3, 2, 2)
    w = np.exp(0.7j)
    left = mixed_samples(true, [1.2, w, w.conjugate(), -1.3])
    right = mixed_samples(true, [np.exp(2.1j), 1.5, np.exp(-2.1j)])
    assert_same_rom(init_loewner(left, right, 3), kron_route_loewner(left, right, 3))


def test_loewner_forms_no_kronecker_transform(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the real transforms must not be formed as Kronecker products")

    true = random_rom(np.random.default_rng(43), 3, 2, 2)
    left, right = sample_frequency_data(true, 8, 8, seed=44)
    monkeypatch.setattr(np, "kron", forbidden)
    assert init_loewner(left, right, 3).satisfies_spectral_bounds()


def test_loewner_svds_stay_within_the_triangle(monkeypatch):
    shapes = record_svd_shapes(monkeypatch)
    # q = k = 8 samples a side, p = 5 outputs, m = 2 inputs
    true = random_rom(np.random.default_rng(47), 3, 2, 5)
    left, right = sample_frequency_data(true, 8, 8, seed=48)
    init_loewner(left, right, 3)
    q, k, p, m = 8, 8, 5, 2
    assert q * p > 2 * k * m
    # the left subspace comes from the (k m + m) x (2 k m) [Ra Rs] of the
    # triangle of [Lr Vr], the right one from the (k m) x (k m) triangle of
    # [Ra; Rs]; no SVD is taken of a matrix with q p rows
    assert max(max(s) for s in shapes) <= 2 * k * m
    assert (k * m + m, 2 * k * m) in shapes and (k * m, k * m) in shapes


def test_loewner_reduces_no_shifted_loewner_matrix(monkeypatch):
    shapes, triangle = [], initmor._triangle

    def recording(S):
        shapes.append(S.shape)
        return triangle(S)

    monkeypatch.setattr(initmor, "_triangle", recording)
    true = random_rom(np.random.default_rng(47), 3, 2, 5)
    left, right = sample_frequency_data(true, 8, 8, seed=48)
    init_loewner(left, right, 3)
    q, k, p, m = 8, 8, 5, 2
    # the one q p-row matrix reduced is [Lr Vr]
    assert [s for s in shapes if s[0] == q * p] == [(q * p, k * m + m)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), p=st.integers(1, 3),
       counts=st.tuples(*[st.integers(1, 4), st.integers(1, 3)] * 2))
def test_shifted_loewner_is_a_column_combination_of_lr_and_vr(seed, m, p, counts):
    # Ls_ij = v_i + zr_j L_ij, so Lsr = Lr kron(Lam, I_m) + Vr kron(1r, I_m)
    # with Lam = JR^H diag(zr) JR and 1r = 1^T JR
    rng = np.random.default_rng(seed)
    left, right = conjugate_closed_samples(random_rom(rng, 3, m, p), rng, counts)
    Lr, Lsr, Vr, _ = real_loewner_matrices(left, right)
    rg = initmor._conjugate_groups(right)
    zr = np.array([right[i].z for g in rg for i in g])
    JR = real_transform(rg)
    Lam = take_real(JR.conj().T @ np.diag(zr) @ JR, "Lam")
    ones = take_real(JR.sum(axis=0, keepdims=True), "1r")
    combined = Lr @ np.kron(Lam, np.eye(m)) + Vr @ np.kron(ones, np.eye(m))
    scale = (np.linalg.norm(Lsr) + np.linalg.norm(Lr) * np.linalg.norm(Lam, 2)
             + np.linalg.norm(Vr) * np.linalg.norm(ones))
    assert np.linalg.norm(Lsr - combined) <= 16 * np.finfo(float).eps * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4), m=st.integers(1, 3),
       p=st.integers(1, 3), counts=st.tuples(*[st.integers(1, 4), st.integers(0, 2)] * 2))
# q p = 3 < k m + m = 12: fewer data rows than columns of [Lr Vr]
@example(seed=5, r=2, m=3, p=1, counts=(1, 1, 1, 1))
def test_loewner_transfer_matches_kron_route(seed, r, m, p, counts):
    q, k = 2 * counts[0] + counts[1], 2 * counts[2] + counts[3]
    assume(q * p >= r and k * m >= r)
    rng = np.random.default_rng(seed)
    left, right = conjugate_closed_samples(random_rom(rng, r, m, p), rng, counts)
    # 4000 such draws stayed below 2e-11
    assert transfer_mismatch(init_loewner(left, right, r),
                             kron_route_loewner(left, right, r)) < 1e-9


def test_loewner_matches_blockwise_formulas_at_acceptance_size():
    # the Loewner start of the acceptance configuration: p = 100 outputs,
    # m = 2 inputs, 30 + 30 samples, r = 6
    sys = generate_synthetic(SyntheticSpec(n=100, m=2, h=0.1, seed=7))
    left, right = sample_frequency_data(sys, 30, 30, seed=307)
    assert_same_rom(init_loewner(left, right, 6), blockwise_loewner(left, right, 6))


def test_loewner_memory_stays_within_a_few_loewner_matrices():
    # accept-n100 sizes: p = 100 outputs, m = 2 inputs, 30 + 30 samples
    sys = random_system(np.random.default_rng(45), 100, 2)
    left, right = sample_frequency_data(sys, 30, 30, seed=46)
    loewner_bytes = (30 * 100) * (30 * 2) * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        init_loewner(left, right, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 * loewner_bytes


# ---------------------------------------------------------- Hankel realizer


def test_data_bt_reproduces_markov_parameters():
    true = random_rom(np.random.default_rng(14), 3, 2, 2)
    imp = impulse_from_system(true, 10)
    rom = init_data_bt(imp, 3)
    got = markov_parameters(rom, 10)
    assert rel_max_err(got, imp.markov) < 1e-8


def test_data_bt_dimensions():
    true = random_rom(np.random.default_rng(15), 4, 3, 2)
    rom = init_data_bt(impulse_from_system(true, 12), 2)
    assert (rom.r, rom.m, rom.p) == (2, 3, 2)
    assert rom.satisfies_spectral_bounds()


def test_data_bt_order_beyond_hankel_rank():
    true = random_rom(np.random.default_rng(16), 2, 1, 1)
    with pytest.raises(InsufficientData):
        init_data_bt(impulse_from_system(true, 10), 4)


def test_data_bt_needs_two_parameters():
    with pytest.raises(InsufficientData):
        init_data_bt(ImpulseData(np.ones((1, 1, 1))), 1)


def test_data_bt_zero_impulse_rejected():
    with pytest.raises(InsufficientData):
        init_data_bt(ImpulseData(np.zeros((6, 2, 2))), 1)


# ------------------------------------------------------------ harness data


def test_sample_frequency_data_layout():
    sys = random_system(np.random.default_rng(17), 5, 2)
    left, right = sample_frequency_data(sys, 6, 4, seed=18)
    assert len(left) == 6 and len(right) == 4
    for group in (left, right):
        zs = [s.z for s in group]
        for s in group:
            assert any(abs(z - s.z.conjugate()) < 1e-14 for z in zs)
            assert abs(abs(s.z) - 1.0) < 1e-12
            np.testing.assert_allclose(s.value, transfer_eval(sys, s.z), atol=1e-12)


def test_sample_frequency_data_deterministic_and_validated():
    sys = random_system(np.random.default_rng(19), 3, 1)
    a = sample_frequency_data(sys, 4, 4, seed=20)
    b = sample_frequency_data(sys, 4, 4, seed=20)
    assert [s.z for s in a[0]] == [s.z for s in b[0]]
    with pytest.raises(ValueError):
        sample_frequency_data(sys, 3, 4, seed=0)


def test_impulse_from_system_matches_markov():
    sys = random_system(np.random.default_rng(21), 4, 2)
    imp = impulse_from_system(sys, 7)
    np.testing.assert_array_equal(imp.markov, markov_parameters(sys, 7))
    assert imp.T == 7


# ------------------------------------------------------------------- files


def test_frequency_samples_roundtrip(tmp_path):
    sys = random_system(np.random.default_rng(22), 4, 2)
    left, right = sample_frequency_data(sys, 4, 6, seed=23)
    path = tmp_path / "samples.json"
    save_frequency_samples(left, right, path)
    left2, right2 = load_frequency_samples(path)
    assert len(left2) == 4 and len(right2) == 6
    for a, b in zip(left + right, left2 + right2):
        assert a.z == b.z
        np.testing.assert_array_equal(a.value, b.value)
    rom = init_loewner(left2, right2, 3)
    assert rom.satisfies_spectral_bounds()


def test_impulse_roundtrip(tmp_path):
    sys = random_system(np.random.default_rng(24), 3, 2)
    imp = impulse_from_system(sys, 5)
    path = tmp_path / "impulse.json"
    save_impulse_data(imp, path)
    again = load_impulse_data(path)
    np.testing.assert_array_equal(again.markov, imp.markov)


def test_frequency_loader_rejects_bad_payloads(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    with pytest.raises(FormatError):
        load_frequency_samples(path)
    path.write_text(json.dumps([{"left": []}]))
    with pytest.raises(FormatError):
        load_frequency_samples(path)
    path.write_text(json.dumps({"left": []}))
    with pytest.raises(FormatError):
        load_frequency_samples(path)
    path.write_text(json.dumps({"left": [{"value": [[1.0]]}],
                                "right": [{"z": {"re": 1.0}, "value": [[1.0]]}]}))
    with pytest.raises(FormatError):
        load_frequency_samples(path)
    path.write_text(json.dumps({"left": [{"z": "one", "value": [[1.0]]}],
                                "right": [{"z": {"re": 1.0}, "value": [[1.0]]}]}))
    with pytest.raises(FormatError):
        load_frequency_samples(path)


def test_impulse_loader_rejects_bad_payloads(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(FormatError):
        load_impulse_data(path)
    path.write_text(json.dumps([[[[1.0]]]]))
    with pytest.raises(FormatError):
        load_impulse_data(path)
    path.write_text(json.dumps({}))
    with pytest.raises(FormatError):
        load_impulse_data(path)
    path.write_text(json.dumps(
        {"markov": [[[{"re": 1.0, "im": 0.5}]]]}))
    with pytest.raises(FormatError):
        load_impulse_data(path)


@pytest.mark.parametrize("entry", [True, False, {"re": True}, {"re": 1.0, "im": False},
                                   {"re": "1.0"}, float("nan"), {"re": float("inf")}, 10**400],
                         ids=["true", "false", "re-bool", "im-bool", "re-string", "nan",
                              "re-inf", "huge-int"])
def test_loaders_take_only_finite_numbers(tmp_path, entry):
    # a JSON boolean loads as a Python int; it is no number here, and neither
    # is a string, a non-finite value or an integer beyond the float range
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"markov": [[[1.0, entry]]]}))
    with pytest.raises(FormatError):
        load_impulse_data(path)
    good = {"z": {"re": 1.0}, "value": [[1.0]]}
    for bad in ({"z": entry, "value": [[1.0]]}, {"z": {"re": 1.0}, "value": [[entry]]}):
        path.write_text(json.dumps({"left": [good], "right": [good, bad]}))
        with pytest.raises(FormatError):
            load_frequency_samples(path)


def test_loaders_reject_ragged_blocks(tmp_path):
    path = tmp_path / "bad.json"
    for markov in ([[[1.0, 2.0], [3.0]]], [[[1.0]], [[1.0, 2.0]]], [[]], [[[]]]):
        path.write_text(json.dumps({"markov": markov}))
        with pytest.raises(FormatError):
            load_impulse_data(path)
    one, two = ({"z": {"re": 1.0}, "value": v} for v in ([[1.0]], [[1.0, 2.0]]))
    path.write_text(json.dumps({"left": [one], "right": [two]}))
    with pytest.raises(FormatError):
        load_frequency_samples(path)


def json_paths(node, path=()):
    """Every position in a JSON tree, as the keys and indices leading to it."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, path + (key,))


def replaced(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = replaced(node[path[0]], path[1:], value)
    return out


JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=3) | st.just(10**400))
JSON_VALUES = st.recursive(
    JSON_LEAVES | st.fixed_dictionaries({"re": JSON_LEAVES}, optional={"im": JSON_LEAVES}),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4)


@pytest.fixture(scope="module")
def loader_payloads(tmp_path_factory):
    sys = random_system(np.random.default_rng(25), 3, 2)
    root = tmp_path_factory.mktemp("payloads")
    save_frequency_samples(*sample_frequency_data(sys, 2, 2, seed=26), root / "freq.json")
    save_impulse_data(impulse_from_system(sys, 3), root / "imp.json")
    return {load_frequency_samples: json.loads((root / "freq.json").read_text()),
            load_impulse_data: json.loads((root / "imp.json").read_text())}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_init_data_loads_or_raises_format_error(loader_payloads, tmp_path, data):
    load = data.draw(st.sampled_from(sorted(loader_payloads, key=lambda f: f.__name__)))
    payload = loader_payloads[load]
    path = data.draw(st.sampled_from(list(json_paths(payload))))
    target = tmp_path / "mutated.json"
    target.write_text(json.dumps(replaced(payload, path, data.draw(JSON_VALUES))))
    try:
        load(target)
    except FormatError:
        pass
