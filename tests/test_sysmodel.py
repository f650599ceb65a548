import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddh2mor import (
    H2ErrorEvaluator,
    LtiSystem,
    Rom,
    SingularShift,
    SyntheticSpec,
    error_gramians,
    generate_synthetic,
    h2_error,
    h2_norm,
    markov_parameters,
    model_based_gradients,
    simulate,
    transfer_eval,
)
from ddh2mor.sysmodel import Evaluation, _expm_integral, assemble_gradients
from helpers import fd_gradients, quad_h2_norm, random_rom, random_system, rel_max_err

st_seed = st.integers(0, 2**32 - 1)


def scalar_system(a=0.5, b=1.0, c=1.0):
    return LtiSystem(np.array([[a]]), np.array([[b]]), np.array([[c]]))


# ---------------------------------------------------------------- containers


def test_system_shape_validation():
    with pytest.raises(ValueError):
        LtiSystem(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        LtiSystem(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        LtiSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        LtiSystem(np.array([[np.nan]]), np.ones((1, 1)), np.ones((1, 1)))


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
    rom = Rom(np.array([[0.4]]), np.array([[1.0]]), np.array([[2.0]]))
    sys = rom.as_system()
    np.testing.assert_array_equal(sys.A, rom.Ahat)
    np.testing.assert_array_equal(sys.C, rom.Chat)


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


def test_simulate_follows_recursion():
    rng = np.random.default_rng(2)
    sys = random_system(rng, 4, 2)
    x0 = rng.standard_normal(4)
    u = rng.standard_normal((6, 2))
    states = simulate(sys, x0, u)
    assert states.shape == (7, 4)
    np.testing.assert_array_equal(states[0], x0)
    for k in range(6):
        np.testing.assert_array_equal(states[k + 1], sys.A @ states[k] + sys.B @ u[k])


def test_simulate_zero_everything_stays_zero():
    sys = random_system(np.random.default_rng(3), 3, 1)
    states = simulate(sys, np.zeros(3), np.zeros((5, 1)))
    np.testing.assert_array_equal(states, np.zeros((6, 3)))


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
    assert ev.system is sys


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
    assert sys.spectral_radius() < 1.0


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=0, m=1)
    with pytest.raises(ValueError):
        SyntheticSpec(n=1, m=1, h=0.0)


def test_expm_integral_invertible_generator():
    h = 0.1
    out = _expm_integral(np.array([[-1.0]]), h)
    assert out[0, 0] == pytest.approx(1.0 - np.exp(-h), rel=1e-12)


def test_expm_integral_singular_generator_series():
    # nilpotent generator: expm(t gen) = I + t gen, integral = [[h, h^2/2], [0, h]]
    h = 0.1
    gen = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(_expm_integral(gen, h),
                               np.array([[h, h * h / 2.0], [0.0, h]]), atol=1e-14)
