"""Leapfrog invariants that exact HMC needs, stated once for the tests.

A flow is a map (x, q) -> (x', q') on float vectors that leaves its inputs
unchanged: ``flow`` builds the one that the samplers run, ``leapfrog`` on
copies of (x, q) with the kick of an HMC kind.  The checks below take any
flow, so test_integrators and the acceptance battery pin reversibility and
volume preservation on the integrator that runs (Neal 2011, "MCMC using
Hamiltonian dynamics").  This module holds no tests.
"""

import numpy as np

from nshmc.integrators import leapfrog
from nshmc.samplers import select_kick


def flow(energy, kind, epsilon, steps, rng=None):
    """``steps`` leapfrog steps of size ``epsilon`` with the kick of HMC
    kind ``kind`` on ``energy``; a subgradient kick draws from ``rng``.
    The map takes float vectors or lists and returns new arrays."""
    kick = select_kick(energy, kind, rng)
    return lambda x, q: leapfrog(
        np.array(x, dtype=float), np.array(q, dtype=float), kick, epsilon, steps
    )


def roundtrip_error(step, x, q):
    """Max-norm distance from (x, -q) of the state reached by running
    ``step`` forward, flipping the momentum and running it again."""
    xf, qf = step(x, q)
    xb, qb = step(xf, -qf)
    return max(float(np.max(np.abs(xb - x))), float(np.max(np.abs(qb + q))))


def min_kink_distance(step, x, q, steps, kinks):
    """Smallest distance to any kink point of a position visited by
    ``steps`` applications of ``step`` from (x, q), the start included."""
    dist = min(min(abs(p - k) for k in kinks) for p in x)
    for _ in range(steps):
        x, q = step(x, q)
        dist = min(dist, min(min(abs(p - k) for k in kinks) for p in x))
    return dist


def fd_jacobian_det(step, x, q, h=1e-5):
    """Central-difference Jacobian determinant of ``step`` at (x, q)."""
    n = x.size
    jac = np.empty((2 * n, 2 * n))
    base = np.concatenate([x, q])
    for j in range(2 * n):
        up = base.copy()
        dn = base.copy()
        up[j] += h
        dn[j] -= h
        xu, qu = step(up[:n], up[n:])
        xd, qd = step(dn[:n], dn[n:])
        jac[:, j] = np.concatenate([xu - xd, qu - qd]) / (2.0 * h)
    return float(np.linalg.det(jac))
