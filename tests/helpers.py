"""Shared test utilities: independent oracles and random instance builders.

Everything here deliberately avoids the package's own solvers so that
agreement between the two routes is meaningful evidence.  Matrix equations
are solved by dense Kronecker vectorization, h2 norms by trapezoid
quadrature of the transfer function on the unit circle, and gradients by
central finite differences of a scalar objective.
"""

from types import SimpleNamespace

import numpy as np
import scipy.linalg

from ddh2mor import DataEnsemble, GradientTriple, LtiSystem, Rom, initmor, make_stable
from ddh2mor.dataio import RANK_TOL


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
