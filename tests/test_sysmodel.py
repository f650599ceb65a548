import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ddh2mor import (
    GenerationFailed,
    H2ErrorEvaluator,
    LtiSystem,
    Rom,
    SingularShift,
    SyntheticSpec,
    TrajectorySet,
    error_gramians,
    generate_synthetic,
    h2_error,
    h2_norm,
    markov_parameters,
    model_based_gradients,
    objective_f,
    transfer_eval,
)
from ddh2mor import sysmodel
from ddh2mor.sysmodel import Evaluation, _expm_integral, assemble_gradients
from helpers import fd_gradients, quad_h2_norm, random_rom, random_system, rel_max_err

st_seed = st.integers(0, 2**32 - 1)


def scalar_system(a=0.5, b=1.0, c=1.0):
    return LtiSystem(np.array([[a]]), np.array([[b]]), np.array([[c]]))


# ---------------------------------------------------------------- containers


def test_system_shape_validation():
    # a rom is a system, validated by the one check of LtiSystem
    for cls in (LtiSystem, Rom):
        with pytest.raises(ValueError, match="A must be square"):
            cls(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="B must have as many rows"):
            cls(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="C must have as many columns"):
            cls(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            cls(np.array([[np.nan]]), np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError, match="read-only"):
            cls(np.eye(2), np.ones((2, 1)), np.ones((1, 2))).B[0, 0] = 2.0


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_one_non_finite_entry_among_finite_ones_is_refused(entry):
    # the check reads the extremes: a NaN propagates through both, and an
    # infinity of either sign is one of them, whatever the other entries' signs
    for fill in (-2.0, 0.0, 3.0):
        A = np.full((3, 3), fill)
        A[1, 2] = entry
        with pytest.raises(ValueError, match="A contains non-finite"):
            LtiSystem(A, np.ones((3, 1)), np.ones((1, 3)))
        states = np.full((2, 4, 3), fill)
        states[1, 3, 0] = entry
        with pytest.raises(ValueError, match="states contains non-finite"):
            TrajectorySet(states, np.zeros((2, 3, 1)))


def test_system_dimensions_and_identity_output():
    sys = LtiSystem.with_identity_output(np.diag([0.5, 0.2]), np.ones((2, 3)))
    assert (sys.n, sys.m, sys.p) == (2, 3, 2)
    np.testing.assert_array_equal(sys.C, np.eye(2))
    assert sys.is_stable()
    assert sys.spectral_radius() == pytest.approx(0.5)


def test_system_arrays_are_frozen():
    sys = scalar_system()
    with pytest.raises(ValueError):
        sys.A[0, 0] = 2.0


def test_rom_properties_and_bounds():
    rom = Rom(np.diag([0.5, -0.3]), np.ones((2, 1)), np.ones((1, 2)))
    assert (rom.r, rom.m, rom.p) == (2, 1, 1)
    np.testing.assert_allclose(sorted(rom.eig_moduli()), [0.3, 0.5])
    assert rom.satisfies_spectral_bounds()
    assert not Rom(np.diag([1.5, 0.5]), np.ones((2, 1)), np.ones((1, 2))).satisfies_spectral_bounds()
    assert not Rom(np.diag([0.0, 0.5]), np.ones((2, 1)), np.ones((1, 2))).satisfies_spectral_bounds()


def test_rom_stepped_applies_descent_update():
    rng = np.random.default_rng(0)
    rom = random_rom(rng, 3, 2, 4)
    g = model_based_gradients(random_system(rng, 4, 2), rom)
    out = rom.stepped(g, 0.25)
    np.testing.assert_allclose(out.Ahat, rom.Ahat - 0.25 * g.gA)
    np.testing.assert_allclose(out.Bhat, rom.Bhat - 0.25 * g.gB)
    np.testing.assert_allclose(out.Chat, rom.Chat - 0.25 * g.gC)


def test_rom_as_system_roundtrip():
    # a rom is the system of its own matrices: Ahat, Bhat and Chat are the
    # very arrays A, B and C, and with_output keeps the class and the factor
    rom = Rom(np.array([[0.4]]), np.array([[1.0]]), np.array([[2.0]]))
    assert isinstance(rom, LtiSystem)
    assert rom.Ahat is rom.A and rom.Bhat is rom.B and rom.Chat is rom.C
    assert (rom.r, rom.n) == (1, 1)
    out = rom.with_output(np.array([[3.0], [4.0]]))
    assert type(out) is Rom and out.schur is rom.schur and out.A is rom.A
    assert out.p == 2
    # P depends on A and B alone; once solved, it is shared too
    assert rom.with_output(np.array([[1.0]])).P is not rom.P
    assert rom.with_output(np.array([[1.0]])).P is rom.P
    sys = scalar_system().with_output(np.array([[5.0]]))
    assert type(sys) is LtiSystem and sys.C[0, 0] == 5.0


def test_with_output_checks_the_new_output_map_alone(monkeypatch):
    # A and B are the checked arrays of the system it copies
    rom = Rom(np.array([[0.4]]), np.array([[1.0]]), np.array([[2.0]]))
    checked = []
    matrix = sysmodel._matrix
    monkeypatch.setattr(sysmodel, "_matrix",
                        lambda value, name: checked.append(name) or matrix(value, name))
    out = rom.with_output(np.array([[3.0], [4.0]]))
    assert checked == ["C"] and not out.C.flags.writeable
    with pytest.raises(ValueError, match="C contains non-finite"):
        rom.with_output(np.array([[np.inf]]))
    with pytest.raises(ValueError, match="C must have as many columns"):
        rom.with_output(np.ones((1, 2)))


def test_rom_takes_the_system_route_of_every_function():
    # a rom passed as it is gives the values of the LtiSystem of its matrices
    rng = np.random.default_rng(21)
    sys = random_system(rng, 6, 2)
    rom = random_rom(rng, 3, 2, 6)
    twin = LtiSystem(rom.A, rom.B, rom.C)
    np.testing.assert_array_equal(transfer_eval(rom, 0.3 + 1.1j), transfer_eval(twin, 0.3 + 1.1j))
    np.testing.assert_array_equal(markov_parameters(rom, 7), markov_parameters(twin, 7))
    assert h2_norm(rom) == h2_norm(twin)
    np.testing.assert_array_equal(rom.eig_moduli(), twin.eig_moduli())
    assert rom.spectral_radius() == twin.spectral_radius()
    assert rom.is_stable() == twin.is_stable()
    ev = H2ErrorEvaluator(sys)
    assert ev.error(rom) == ev.error(twin)
    assert ev.relative_error(rom) == ev.relative_error(twin)
    other = random_rom(rng, 2, 2, 6)
    assert H2ErrorEvaluator(rom).error(other) == H2ErrorEvaluator(twin).error(other)


# ----------------------------------------------------------------- transfer


def test_transfer_scalar_value():
    H = transfer_eval(scalar_system(), 1.0)
    assert H[0, 0] == pytest.approx(2.0, abs=1e-14)


def test_transfer_matches_manual_resolvent():
    rng = np.random.default_rng(1)
    sys = random_system(rng, 5, 2)
    z = np.exp(0.3j)
    manual = sys.C @ np.linalg.solve(z * np.eye(5) - sys.A, sys.B)
    np.testing.assert_allclose(transfer_eval(sys, z), manual, atol=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_transfer_at_pole_raises():
    with pytest.raises(SingularShift):
        transfer_eval(scalar_system(a=0.5), 0.5)


def test_transfer_accepts_rom():
    rom = Rom(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]))
    assert transfer_eval(rom, 1.0)[0, 0] == pytest.approx(2.0)


# --------------------------------------------------------------- simulation


def test_markov_parameters_match_powers():
    rng = np.random.default_rng(4)
    sys = random_system(rng, 5, 2)
    h = markov_parameters(sys, 6)
    assert h.shape == (6, 5, 2)
    ak = np.eye(5)
    for k in range(6):
        np.testing.assert_allclose(h[k], sys.C @ ak @ sys.B, atol=1e-12)
        ak = sys.A @ ak


# ---------------------------------------------------------------- h2 values


def test_h2_norm_scalar_closed_form():
    # gramian of (a, b) is b^2 / (1 - a^2) = 4/3
    assert h2_norm(scalar_system()) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-14)


def test_h2_norm_matches_quadrature():
    rng = np.random.default_rng(5)
    sys = random_system(rng, 8, 2)
    ref = quad_h2_norm(sys.A, sys.B, sys.C)
    assert abs(h2_norm(sys) - ref) / ref < 1e-6


def test_h2_norm_accepts_rom():
    rom = Rom(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]))
    assert h2_norm(rom) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)


def test_h2_error_matches_error_system_quadrature():
    rng = np.random.default_rng(6)
    sys = random_system(rng, 6, 2)
    rom = random_rom(rng, 2, 2, 6)
    import scipy.linalg
    Ae = scipy.linalg.block_diag(sys.A, rom.Ahat)
    Be = np.vstack([sys.B, rom.Bhat])
    Ce = np.hstack([sys.C, -rom.Chat])
    ref = quad_h2_norm(Ae, Be, Ce)
    assert abs(h2_error(sys, rom) - ref) / ref < 1e-6


def test_h2_error_vanishes_for_equivalent_realization():
    rng = np.random.default_rng(7)
    sys = random_system(rng, 5, 2)
    T = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    rom = Rom(np.linalg.solve(T, sys.A @ T), np.linalg.solve(T, sys.B), sys.C @ T)
    assert h2_error(sys, rom) < 1e-6 * h2_norm(sys)


def test_h2_error_dimension_mismatch_raises():
    sys = random_system(np.random.default_rng(8), 4, 2)
    rom = random_rom(np.random.default_rng(9), 2, 1, 4)
    with pytest.raises(ValueError):
        h2_error(sys, rom)


def test_h2_error_decomposes_into_gramian_blocks():
    # squared error = full term + tr(Chat P Chat^T) - 2 tr(C R Chat^T),
    # with every block solved independently of the error-system route
    rng = np.random.default_rng(10)
    sys = random_system(rng, 7, 2)
    rom = random_rom(rng, 3, 2, 7)
    g = error_gramians(sys, rom)
    full = np.trace(sys.C @ g.SigmaC @ sys.C.T)
    val = full + np.trace(rom.Chat @ g.P @ rom.Chat.T) - 2.0 * np.trace(sys.C @ g.R @ rom.Chat.T)
    assert abs(h2_error(sys, rom) ** 2 - val) / val < 1e-9


def test_error_gramian_blocks_satisfy_equations():
    rng = np.random.default_rng(11)
    sys = random_system(rng, 6, 2)
    rom = random_rom(rng, 3, 2, 6)
    g = error_gramians(sys, rom)
    A, B, C = sys.A, sys.B, sys.C
    Ah, Bh, Ch = rom.Ahat, rom.Bhat, rom.Chat
    tol = 1e-10
    assert np.max(np.abs(A @ g.SigmaC @ A.T + B @ B.T - g.SigmaC)) < tol * np.abs(g.SigmaC).max()
    assert np.max(np.abs(A.T @ g.SigmaO @ A + C.T @ C - g.SigmaO)) < tol * np.abs(g.SigmaO).max()
    assert np.max(np.abs(Ah @ g.P @ Ah.T + Bh @ Bh.T - g.P)) < tol * max(1.0, np.abs(g.P).max())
    assert np.max(np.abs(Ah.T @ g.Q @ Ah + Ch.T @ Ch - g.Q)) < tol * np.abs(g.Q).max()
    assert np.max(np.abs(A @ g.R @ Ah.T + B @ Bh.T - g.R)) < tol * np.abs(g.R).max()
    assert np.max(np.abs(A.T @ g.S @ Ah - C.T @ Ch - g.S)) < tol * np.abs(g.S).max()
    assert g.R.shape == (6, 3) and g.S.shape == (6, 3)


@settings(max_examples=15, deadline=None)
@given(seed=st_seed)
def test_error_gramians_symmetric_psd_blocks(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 5, 2)
    rom = random_rom(rng, 2, 2, 5)
    g = error_gramians(sys, rom)
    for M in (g.SigmaC, g.SigmaO, g.P, g.Q):
        np.testing.assert_allclose(M, M.T, atol=1e-10 * max(1.0, np.abs(M).max()))
        assert np.min(np.linalg.eigvalsh(M)) > -1e-9 * max(1.0, np.abs(M).max())


# ---------------------------------------------------------------- gradients


def test_model_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    sys = random_system(rng, 6, 2)
    rom = random_rom(rng, 3, 2, 6)
    g = model_based_gradients(sys, rom)
    fd = fd_gradients(lambda q: h2_error(sys, q) ** 2, rom, step=1e-6)
    assert rel_max_err(g.gA, fd.gA) < 1e-5
    assert rel_max_err(g.gB, fd.gB) < 1e-5
    assert rel_max_err(g.gC, fd.gC) < 1e-5


def test_model_gradients_vanish_at_zero_rom():
    rng = np.random.default_rng(13)
    sys = random_system(rng, 5, 2)
    Ahat = np.diag([0.5, 0.3])
    g = model_based_gradients(sys, Rom(Ahat, np.zeros((2, 2)), np.zeros((5, 2))))
    np.testing.assert_array_equal(g.gA, np.zeros((2, 2)))
    np.testing.assert_array_equal(g.gB, np.zeros((2, 2)))
    np.testing.assert_array_equal(g.gC, np.zeros((5, 2)))


# ---------------------------------------------------------------- evaluator


def test_evaluator_matches_direct_error():
    rng = np.random.default_rng(14)
    sys = random_system(rng, 8, 2)
    ev = H2ErrorEvaluator(sys)
    assert ev.h2_norm == pytest.approx(h2_norm(sys), rel=1e-12)
    for _ in range(5):
        rom = random_rom(rng, 3, 2, 8)
        direct = h2_error(sys, rom)
        assert abs(ev.error(rom) - direct) / direct < 1e-9
        assert ev.relative_error(rom) == pytest.approx(ev.error(rom) / ev.h2_norm)


@pytest.mark.parametrize("p", [1, 3, 8])
def test_evaluator_matches_quadrature_for_any_output_map(p):
    # the error is the f of one Evaluation plus the full-order term; an
    # independent quadrature of the error system's transfer function checks
    # it, also for output maps other than the identity and with complex rom
    # poles
    rng = np.random.default_rng(30 + p)
    base = random_system(rng, 8, 2)
    sys = LtiSystem(base.A, base.B, rng.standard_normal((p, 8)))
    ev = H2ErrorEvaluator(sys)
    for _ in range(3):
        rom = random_rom(rng, 4, 2, p)
        A = np.block([[sys.A, np.zeros((8, 4))], [np.zeros((4, 8)), rom.Ahat]])
        ref = quad_h2_norm(A, np.vstack([sys.B, rom.Bhat]), np.hstack([sys.C, -rom.Chat]))
        assert ev.error(rom) == pytest.approx(ref, rel=1e-9)
        assert ev.relative_error(rom) == pytest.approx(ref / quad_h2_norm(sys.A, sys.B, sys.C),
                                                       rel=1e-9)


@pytest.mark.parametrize("p", [1, 3, 8])
def test_evaluation_gradients_match_model_based_for_any_output_map(p):
    # Evaluation solves S from -C^T Chat and assembles against the model's C;
    # at its projection C R P^+ the output gradient vanishes
    rng = np.random.default_rng(40 + p)
    base = random_system(rng, 8, 2)
    sys = LtiSystem(base.A, base.B, rng.standard_normal((p, 8)))
    rom = random_rom(rng, 3, 2, p)
    ev = Evaluation(sys, rom)
    got = assemble_gradients(rom, sys.A, sys.B, sys.C, ev.gramians())
    ref = model_based_gradients(sys, rom)
    for block in ("gA", "gB", "gC"):
        assert rel_max_err(getattr(got, block), getattr(ref, block)) < 1e-9
    at = assemble_gradients(ev.projected, sys.A, sys.B, sys.C, ev.gramians(projected=True))
    assert np.abs(at.gC).max() <= 1e-10 * np.abs(ev.CR).max()


@settings(max_examples=25, deadline=None)
@given(seed=st_seed, n=st.integers(1, 8), m=st.integers(1, 3), r=st.integers(1, 4))
def test_identity_output_products_are_exact(seed, n, m, r):
    # with C = I every term of an entry of C R but one is an exact zero, so
    # C R is R to the bit, and f and phi are those of R; so is -C^T Chat of
    # the S equation -Chat
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n, m)
    rom = random_rom(rng, r, m, n)
    ev = Evaluation(sys, rom)
    assert np.array_equal(ev.CR, ev.R)
    assert ev.f == objective_f(rom, ev.P, ev.R)
    assert ev.phi == objective_f(ev.projected, ev.P, ev.R)
    assert np.array_equal(-sys.C.T @ rom.C, -rom.C)


@pytest.mark.parametrize("case", ["positive-definite", "singular", "zero"])
def test_chat_star_is_the_lstsq_solution_to_the_bit(case):
    # chat_star calls dgelsd, the driver of np.linalg.lstsq, with its cutoff
    # eps r: the solution is lstsq's, and so is its layout, which the
    # products and sums that read it follow
    rng = np.random.default_rng(31)
    sys = random_system(rng, 8, 1)
    Ahat, C = np.diag([0.5, 0.3]), rng.standard_normal((8, 2))
    rom = {"positive-definite": random_rom(rng, 3, 1, 8),
           # an uncontrollable second mode: P's second row and column are 0
           "singular": Rom(Ahat, np.array([[1.0], [0.0]]), C),
           "zero": Rom(Ahat, np.zeros((2, 1)), C)}[case]
    ev = Evaluation(sys, rom)
    rank = np.linalg.matrix_rank(ev.P)
    assert rank == {"positive-definite": 3, "singular": 1, "zero": 0}[case]
    ref = np.linalg.lstsq(ev.P, ev.CR.T, rcond=None)[0].T
    assert np.array_equal(ev.chat_star, ref)
    assert ev.chat_star.flags.f_contiguous == ref.flags.f_contiguous
    assert ev.chat_star.flags.c_contiguous == ref.flags.c_contiguous


def test_error_evaluator_refuses_a_system_of_zero_norm():
    # a relative error against a system of zero h2 norm is undefined
    sys = random_system(np.random.default_rng(33), 5, 2)
    for zero in (LtiSystem(sys.A, np.zeros_like(sys.B), sys.C),
                 LtiSystem(sys.A, sys.B, np.zeros_like(sys.C))):
        with pytest.raises(ValueError, match="zero h2 norm"):
            H2ErrorEvaluator(zero)


# ---------------------------------------------------------------- synthetic


def test_synthetic_is_stable_and_deterministic():
    spec = SyntheticSpec(n=20, m=3, h=0.1, seed=42)
    sys1 = generate_synthetic(spec)
    sys2 = generate_synthetic(spec)
    assert sys1.is_stable()
    assert (sys1.n, sys1.m, sys1.p) == (20, 3, 20)
    np.testing.assert_array_equal(sys1.A, sys2.A)
    np.testing.assert_array_equal(sys1.B, sys2.B)
    np.testing.assert_array_equal(sys1.C, np.eye(20))


def test_synthetic_seeds_differ():
    a = generate_synthetic(SyntheticSpec(n=6, m=1, seed=0))
    b = generate_synthetic(SyntheticSpec(n=6, m=1, seed=1))
    assert np.abs(a.A - b.A).max() > 1e-6


@settings(max_examples=15, deadline=None)
@given(seed=st_seed, n=st.integers(1, 25))
def test_synthetic_always_stable(seed, n):
    sys = generate_synthetic(SyntheticSpec(n=n, m=2, seed=seed))
    assert sys.is_stable()


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=0, m=1)
    for h in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="h must be finite and positive"):
            SyntheticSpec(n=1, m=1, h=h)


def test_expm_integral_invertible_generator():
    h = 0.1
    gen = np.array([[-1.0]])
    out = _expm_integral(gen, scipy.linalg.expm(gen * h))
    assert out[0, 0] == pytest.approx(1.0 - np.exp(-h), rel=1e-12)


@pytest.mark.parametrize("n, m, h, seed", [(2, 1, 0.1, 0), (6, 2, 0.05, 3),
                                           (10, 3, 0.1, 11), (30, 2, 0.2, 7)])
def test_synthetic_input_matrix_is_the_exponential_integral(n, m, h, seed):
    # replay the generator's draws, and take the integral of expm(gen t) over
    # [0, h] from the top-right block of expm([[gen, I], [0, 0]] h) (Van Loan,
    # IEEE TAC 23 (1978)), which needs no inverse of gen
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    J = 0.5 * (G - G.T)
    G = rng.standard_normal((n, n))
    R = G @ G.T + 0.1 * np.eye(n)
    G = rng.standard_normal((n, n))
    Q = G @ G.T + 0.1 * np.eye(n)
    gen = (J - R) @ Q
    draw = rng.standard_normal((n, m))
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n], block[:n, n:] = gen, np.eye(n)
    integral = scipy.linalg.expm(block * h)[:n, n:]
    sys = generate_synthetic(SyntheticSpec(n=n, m=m, h=h, seed=seed))
    assert rel_max_err(sys.A, scipy.linalg.expm(gen * h)) < 1e-12
    assert rel_max_err(sys.B, integral @ draw) < 1e-10


@pytest.mark.parametrize("stable_draw", [True, False])
def test_synthetic_generation_takes_one_expm_per_draw(monkeypatch, stable_draw):
    # the state matrix and the input matrix's exponential integral share
    # one matrix exponential; a rejected draw takes its own
    calls = []
    expm = scipy.linalg.expm

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return expm(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    spec = SyntheticSpec(n=6, m=2, seed=3)
    if stable_draw:
        generate_synthetic(spec)
        assert calls == [(6, 6)]
    else:
        monkeypatch.setattr(LtiSystem, "spectral_radius", lambda self: 1.0)
        with pytest.raises(GenerationFailed):
            generate_synthetic(spec)
        assert calls == [(6, 6)] * 10
