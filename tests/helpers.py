"""Shared test utilities: independent oracles, random instance builders
and the data-driven gradient pipelines.

The oracles deliberately avoid the package's own solvers so that
agreement between the two routes is meaningful evidence.  Matrix equations
are solved by dense Kronecker vectorization, h2 norms by trapezoid
quadrature of the transfer function on the unit circle or by scipy's
discrete Lyapunov solver, gradients by central finite differences of a
scalar objective, state trajectories by a plain loop of the recursion,
numerical ranks by a full SVD, and the h2-optimal rom by discrete IRKA.
The gradient pipelines compose the package's one route from snapshots to a
gradient, the one the descent takes.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from ddh2mor import (DataEnsemble, GradientTriple, LtiSystem, NoiseSpec, Rom,
                     data_gradients, generate_ensemble, initmor, make_stable,
                     reconstruct_dual, reconstruct_dual_known_input)
from ddh2mor.dataio import AssumptionReport
from ddh2mor.matequ import RANK_TOL, significant
from ddh2mor.sysmodel import Evaluation


def rel_max_err(a, b):
    """max |a - b| / max |b|, with b the reference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.max(np.abs(b))
    if scale == 0.0:
        return np.max(np.abs(a))
    return np.max(np.abs(a - b)) / scale


def kron_solve_stein(A, W):
    """Solve A X A^T - X + W = 0 by vectorization: (I - A (x) A) vec X = vec W."""
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    k = A.shape[0]
    lhs = np.eye(k * k) - np.kron(A, A)
    x = np.linalg.solve(lhs, W.flatten(order="F"))
    return x.reshape((k, k), order="F")


def kron_solve_sylvester(M, N, W):
    """Solve M X N - X + W = 0 by vectorization: (I - N^T (x) M) vec X = vec W."""
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    W = np.asarray(W, dtype=float)
    k, r = W.shape
    lhs = np.eye(k * r) - np.kron(N.T, M)
    x = np.linalg.solve(lhs, W.flatten(order="F"))
    return x.reshape((k, r), order="F")


def quad_h2_norm(A, B, C, nodes=4096):
    """h2 norm via trapezoid quadrature of ||C (zI - A)^-1 B||_F^2 on |z| = 1.

    The resolvent is formed with a raw linear solve per node; nothing from
    the package is reused.  On a uniform periodic grid the trapezoid rule
    reduces to the mean of the node values.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    n = A.shape[0]
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    total = 0.0
    eye = np.eye(n)
    for t in theta:
        z = np.exp(1j * t)
        H = C @ np.linalg.solve(z * eye - A, B)
        total += np.sum(np.abs(H) ** 2)
    return float(np.sqrt(total / nodes))


def lyap_h2_error(A, B, C, Ar, Br, Cr):
    """Relative h2 error of (Ar, Br, Cr) against (A, B, C), from the
    controllability gramians of the error system and of the system, each by
    ``scipy.linalg.solve_discrete_lyapunov``."""
    Ae = scipy.linalg.block_diag(A, Ar)
    Be = np.vstack([B, Br])
    Ce = np.hstack([C, -np.asarray(Cr)])
    err = np.trace(Ce @ scipy.linalg.solve_discrete_lyapunov(Ae, Be @ Be.T) @ Ce.T)
    norm = np.trace(C @ scipy.linalg.solve_discrete_lyapunov(A, B @ B.T) @ C.T)
    return float(np.sqrt(max(err, 0.0) / norm))


def _real_basis(V):
    """Orthonormal real basis of the span of V's columns, a set closed under
    conjugation: the leading left singular vectors of ``[Re V, Im V]``."""
    U = np.linalg.svd(np.hstack([V.real, V.imag]), full_matrices=False)[0]
    return U[:, :V.shape[1]]


def irka(A, B, C, Ar, Br, Cr, tol=1e-10, max_iters=200):
    """Discrete-time IRKA (Gugercin, Antoulas & Beattie, SIAM J. Matrix Anal.
    Appl. 30 (2008); Bunse-Gerstner et al., J. Comput. Appl. Math. 233
    (2010)) from the rom (Ar, Br, Cr); returns the rom and its iteration count.

    With ``Ar = X diag(lam) X^{-1}`` each iteration interpolates at
    ``sigma_i = 1 / lam_i`` along the untransformed row i of ``X^{-1} Br``
    and column i of ``Cr X``: ``V_i = (sigma_i I - A)^{-1} B b_i`` and
    ``W_i = (sigma_i I - A)^{-T} C^T c_i``, each realified by the SVD of
    ``[Re Im]``, and projects by Petrov-Galerkin,
    ``((W^T V)^{-1} W^T A V, (W^T V)^{-1} W^T B, C V)``.  It stops once
    every new pole lies within ``tol`` times the largest modulus of an
    old one.
    """
    eye = np.eye(A.shape[0])
    for it in range(1, max_iters + 1):
        lam, X = np.linalg.eig(Ar)
        # one shifted matrix per pole, solved as a stack: column i of B bt^T
        # is B b_i, of C^T c that of C^T c_i
        F = (1.0 / lam)[:, None, None] * eye - A
        bt, c = np.linalg.solve(X, Br), Cr @ X
        V = np.linalg.solve(F, (B @ bt.T).T[..., None])[..., 0].T
        W = np.linalg.solve(F.transpose(0, 2, 1), (C.T @ c).T[..., None])[..., 0].T
        V, W = _real_basis(V), _real_basis(W)
        WV = W.T @ V
        Ar, Br, Cr = np.linalg.solve(WV, W.T @ A @ V), np.linalg.solve(WV, W.T @ B), C @ V
        moved = np.abs(np.linalg.eigvals(Ar)[:, None] - lam).min(axis=1).max()
        if moved <= tol * np.abs(lam).max():
            return (Ar, Br, Cr), it
    raise RuntimeError(f"IRKA did not converge in {max_iters} iterations")


def fd_gradients(phi, rom, step=1e-6):
    """Central finite differences of a scalar phi(Rom) in every coordinate."""

    def bump(M, i, j, h):
        out = np.array(M, dtype=float)
        out[i, j] += h
        return out

    gA = np.zeros_like(rom.Ahat)
    gB = np.zeros_like(rom.Bhat)
    gC = np.zeros_like(rom.Chat)
    for i in range(rom.r):
        for j in range(rom.r):
            hi = phi(Rom(bump(rom.Ahat, i, j, step), rom.Bhat, rom.Chat))
            lo = phi(Rom(bump(rom.Ahat, i, j, -step), rom.Bhat, rom.Chat))
            gA[i, j] = (hi - lo) / (2.0 * step)
    for i in range(rom.r):
        for j in range(rom.m):
            hi = phi(Rom(rom.Ahat, bump(rom.Bhat, i, j, step), rom.Chat))
            lo = phi(Rom(rom.Ahat, bump(rom.Bhat, i, j, -step), rom.Chat))
            gB[i, j] = (hi - lo) / (2.0 * step)
    for i in range(rom.p):
        for j in range(rom.r):
            hi = phi(Rom(rom.Ahat, rom.Bhat, bump(rom.Chat, i, j, step)))
            lo = phi(Rom(rom.Ahat, rom.Bhat, bump(rom.Chat, i, j, -step)))
            gC[i, j] = (hi - lo) / (2.0 * step)
    return GradientTriple(gA, gB, gC)


def richardson_gradients(phi, rom, step):
    """Central differences at ``step`` and ``step / 2``, Richardson-extrapolated.

    ``(4 D(h/2) - D(h)) / 3`` cancels the h^2 truncation term of the
    central difference D(h), which dominates near a multiple rom pole.
    """
    coarse = fd_gradients(phi, rom, step=step)
    fine = fd_gradients(phi, rom, step=0.5 * step)
    return GradientTriple(*((4.0 * getattr(fine, k) - getattr(coarse, k)) / 3.0
                            for k in ("gA", "gB", "gC")))


def data_gradients_from_ensemble(ens, rom, *, force=False):
    """The data-driven gradient of ``rom`` from snapshots with unknown system
    matrices: reconstruction, one evaluation against the identified model,
    assembly."""
    dual = reconstruct_dual(ens, force=force)
    return data_gradients(dual, rom, Evaluation(dual, rom).gramians())


def data_gradients_B_known(ens, B, rom, *, force=False):
    """The same gradient with the input matrix B known: B_ls is B itself, so
    only X1 needs full column rank."""
    dual = reconstruct_dual_known_input(ens, B, force=force)
    return data_gradients(dual, rom, Evaluation(dual, rom).gramians())


def simulate(sys, x0, inputs):
    """The state recursion, one step at a time: ``len(inputs) + 1`` states,
    x0 first."""
    states = np.empty((len(inputs) + 1, sys.n))
    states[0] = x0
    for k, u in enumerate(inputs):
        states[k + 1] = sys.A @ states[k] + sys.B @ u
    return states


def numerical_rank(M):
    """Count of the singular values of M that ``matequ.significant`` keeps."""
    return int(np.count_nonzero(significant(np.linalg.svd(np.atleast_2d(M),
                                                          compute_uv=False))))


def first_transitions(trajs):
    """Reduce a trajectory set to the ensemble of its first transitions."""
    return DataEnsemble(trajs.states[:, 0], trajs.inputs[:, 0], trajs.states[:, 1])


def random_stable(rng, k, radius=0.8):
    """Gaussian matrix rescaled to the requested spectral radius."""
    A = rng.standard_normal((k, k))
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    if rho == 0.0:
        return A
    return A * (radius / rho)


def random_system(rng, n, m, radius=0.8):
    A = random_stable(rng, n, radius)
    B = rng.standard_normal((n, m))
    return LtiSystem.with_identity_output(A, B)


def unseparated_start():
    """Noiseless data of a system with a pole at 1 - 4e-12, and a start at
    that pole: inside the stability annulus, but 8e-12 from the reciprocal
    of the data's pole, which the separation check refuses."""
    A = np.diag([1 - 4e-12, 0.5, 0.3])
    system = LtiSystem(A, np.array([[1.0], [0.5], [0.2]]), np.eye(3))
    ens = generate_ensemble(system, 12, NoiseSpec(seed=3))
    return ens, Rom(np.array([[1 - 4e-12]]), np.array([[1.0]]), np.ones((3, 1)))


def random_rom(rng, r, m, p, radius=0.7, min_modulus=1e-3):
    """Random reduced model with eigenvalue moduli inside (min_modulus, radius]."""
    for _ in range(100):
        Ahat = random_stable(rng, r, radius)
        moduli = np.abs(np.linalg.eigvals(Ahat))
        if np.min(moduli) > min_modulus:
            return Rom(Ahat, rng.standard_normal((r, m)), rng.standard_normal((p, r)))
    raise RuntimeError("could not draw a reduced model inside the annulus")


def input_normal(rom):
    """The same transfer function in the coordinates where the gramian P is I.

    With P = L L^T, the similarity x -> L^{-1} x gives (L^{-1} Ahat L,
    L^{-1} Bhat, Chat L).  It needs (Ahat, Bhat) controllable.
    """
    L = np.linalg.cholesky(kron_solve_stein(rom.Ahat, rom.Bhat @ rom.Bhat.T))
    return Rom(np.linalg.solve(L, rom.Ahat @ L), np.linalg.solve(L, rom.Bhat), rom.Chat @ L)


def paper_dual(ens):
    """The paper's dual reconstruction by its three pseudoinverse formulas.

    ``[Z2^T; ZB1] = pinv([X1 U1]) X2 X1^T``, ``MR = pinv(X1) Z2``,
    ``UB1 = (pinv(X1) (X1 X2^T - Z2 X1^T))^T``, ``MS = pinv(X1) (X2 - UB1)``,
    ``GB = pinv(X1) ZB1^T`` and ``sb_map = pinv(U1) UB1``, each pseudoinverse
    by ``np.linalg.pinv`` at ``RANK_TOL``; products are taken with the
    pseudoinverse first, so no N x N matrix is formed.
    """
    X1, U1, X2, n = ens.X1, ens.U1, ens.X2, ens.n
    stacked = (np.linalg.pinv(np.hstack([X1, U1]), rcond=RANK_TOL) @ X2) @ X1.T
    Z2, ZB1 = stacked[:n].T, stacked[n:]
    x1_pinv = np.linalg.pinv(X1, rcond=RANK_TOL)
    MR = x1_pinv @ Z2
    UB1 = ((x1_pinv @ X1) @ X2.T - MR @ X1.T).T
    return SimpleNamespace(Z2=Z2, ZB1=ZB1, UB1=UB1, MR=MR, MS=x1_pinv @ (X2 - UB1),
                           GB=x1_pinv @ ZB1.T,
                           sb_map=np.linalg.pinv(U1, rcond=RANK_TOL) @ UB1)


def svd_route_report(ens):
    """The rank report by one full SVD each of [X1 U1], X1 and U1, each with
    N rows, counted at ``RANK_TOL`` relative to its largest singular value."""
    n, m = ens.n, ens.m
    ranks = []
    for M in (np.hstack([ens.X1, ens.U1]), ens.X1, ens.U1):
        sv = np.linalg.svd(M, compute_uv=False)
        ranks.append(0 if sv.size == 0 or sv[0] == 0.0
                     else int(np.count_nonzero(sv > RANK_TOL * sv[0])))
    joint, x1, u1 = ranks
    return AssumptionReport(rank_X1U1=joint, rank_X1=x1, rank_U1=u1, b1_holds=joint == n + m,
                            b2_holds=x1 == n, b3_holds=u1 == m)


def out_of_place_ensemble(sys, N, noise):
    """``generate_ensemble``'s draws, with the noise added out of place:
    ``x + alpha * e`` for both state snapshots."""
    rng = np.random.default_rng(noise.seed)
    x1 = rng.standard_normal((N, sys.n))
    u1 = rng.standard_normal((N, sys.m))
    x2 = x1 @ sys.A.T + u1 @ sys.B.T
    e1 = rng.standard_normal((N, sys.n))
    e2 = rng.standard_normal((N, sys.n))
    return DataEnsemble(x1 + noise.alpha * e1, u1, x2 + noise.alpha * e2,
                        alpha=noise.alpha, seed=noise.seed)


def record_svd_shapes(monkeypatch):
    """Record the shape of every matrix passed to numpy's or scipy's SVD."""
    shapes = []

    def recording(svd):
        def wrapped(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
    monkeypatch.setattr(scipy.linalg, "svd", recording(scipy.linalg.svd))
    return shapes


def count_schur_calls(monkeypatch):
    """Record the shape of every matrix passed to scipy.linalg.schur."""
    shapes = []
    schur = scipy.linalg.schur

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    return shapes


def blockwise_loewner(left, right, r):
    """The Loewner initializer by its earlier formulas: the left real transform
    as one product, the right one as a stacked product per row block, and the
    projection from the SVDs of the full ``[Lr Lsr]`` and ``[Lr; Lsr]``."""
    lg = initmor._conjugate_groups(left)
    rg = initmor._conjugate_groups(right)
    lo = [left[i] for g in lg for i in g]
    ro = [right[i] for g in rg for i in g]
    q, k = len(lo), len(ro)
    p, m = lo[0].value.shape
    zl = np.array([s.z for s in lo])
    zr = np.array([s.z for s in ro])
    denom = zl[:, None] - zr
    VL = np.stack([s.value for s in lo])
    VR = np.stack([s.value for s in ro], axis=1)
    JLh = initmor._real_transform(lg).conj().T
    JRt = initmor._real_transform(rg).T

    def real_loewner(vl, vr, label):
        M = vl[:, :, None, :] - vr
        M /= denom[:, None, :, None]
        M = JLh @ M.reshape(q, -1)
        M = JRt @ M.reshape(q * p, k, m)
        return initmor._take_real(M.reshape(q * p, k * m), label)

    Lr = real_loewner(VL, VR, "Loewner matrix")
    Lsr = real_loewner(zl[:, None, None] * VL, zr[:, None] * VR, "shifted Loewner matrix")
    Vr = initmor._take_real((JLh @ VL.reshape(q, -1)).reshape(q * p, m), "left data")
    Wr = initmor._take_real((JRt @ VR).reshape(p, k * m), "right data")
    Y = np.linalg.svd(np.hstack([Lr, Lsr]), full_matrices=False)[0][:, :r]
    X = np.linalg.svd(np.vstack([Lr, Lsr]), full_matrices=False)[2][:r].T
    E = -Y.T @ Lr @ X
    return make_stable(Rom(np.linalg.solve(E, -Y.T @ Lsr @ X),
                           np.linalg.solve(E, Y.T @ Vr), Wr @ X))


def traced_peak(fn, *args):
    """The result of ``fn(*args)`` and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak
