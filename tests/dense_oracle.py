"""Dense 4d x 4d reference for the protocol's outcome tables.

Independent of `protocol.outcome_probabilities`: both couplings are built as
matrix exponentials on system (x) pointer A (x) pointer B, the input
rho (x) |00><00| is conjugated by the full unitary, and every probability is
read as a trace against Pi_k (x) P_alpha (x) Q_beta.
"""

import numpy as np

from dmrecon import qmath, states

Y = np.array([[0, -1j], [1j, 0]])
I2 = np.eye(2)


def _projector(v):
    return np.outer(v, v.conj())


def couplings(j, cfg):
    """(U_A, U_B): exp(-i theta_A P_j (x) Y (x) 1) and exp(-i theta_B P_b0 (x) 1 (x) Y)."""
    d = cfg.dim
    u_a = qmath.matrix_exponential(
        qmath.tensor(_projector(states.basis_state(d, j)), qmath.tensor(Y, I2)), cfg.theta_a
    )
    u_b = qmath.matrix_exponential(
        qmath.tensor(_projector(states.b0_state(d)), qmath.tensor(I2, Y)), cfg.theta_b
    )
    return u_a, u_b


def evolved(rho, u):
    """u (rho (x) |00><00|) u^dagger."""
    sigma_in = qmath.tensor(rho.matrix, np.diag([1.0, 0.0, 0.0, 0.0]))
    return u @ sigma_in @ u.conj().T


def trace_tables(sigma, setting_pairs):
    """probs[p, alpha, beta, k-1] = Tr[(Pi_k (x) P_alpha (x) Q_beta) sigma], one trace each.

    Pi_k (x) 1 (x) 1 selects the k-th diagonal 4 x 4 block of sigma, so each
    trace reads Tr[(P_alpha (x) Q_beta) sigma_kk].
    """
    d = sigma.shape[0] // 4
    probs = np.empty((len(setting_pairs), 2, 2, d))
    for p, ((_, projs_a), (_, projs_b)) in enumerate(setting_pairs):
        for alpha, proj_a in enumerate(projs_a):
            for beta, proj_b in enumerate(projs_b):
                op = qmath.tensor(proj_a, proj_b)
                for k in range(d):
                    block = sigma[4 * k : 4 * k + 4, 4 * k : 4 * k + 4]
                    probs[p, alpha, beta, k] = np.trace(op @ block).real
    return probs


def dense_tables(rho, cfg, setting_pairs, a_first=True):
    """Outcome tables [j-1, p, alpha, beta, k-1] from U_B U_A, or from U_A U_B."""
    tables = []
    for j in range(1, cfg.dim + 1):
        u_a, u_b = couplings(j, cfg)
        u = u_b @ u_a if a_first else u_a @ u_b
        tables.append(trace_tables(evolved(rho, u), setting_pairs))
    return np.stack(tables)
