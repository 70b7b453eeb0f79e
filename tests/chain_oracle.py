"""Independent oracles for the deficit chain, used by several test modules.

Everything here deliberately avoids the library's own recursion: transition
rows come from scipy's binomial pmf and absorption times from a dense
linear solve, so agreement is a genuine cross-check.
"""

import itertools

import numpy as np
from scipy.stats import binom as sp_binom


def transition_matrix(N, Pe, Pe_ack):
    """Transient-to-transient transition matrix Q for states 1..M."""
    M = len(N)
    Q = np.zeros((M, M))
    for i in range(1, M + 1):
        Ni = N[i - 1]
        Q[i - 1, i - 1] = (1 - Pe_ack) * sp_binom.pmf(0, Ni, 1 - Pe) + Pe_ack
        for j in range(1, i):
            Q[i - 1, j - 1] = (1 - Pe_ack) * sp_binom.pmf(i - j, Ni, 1 - Pe)
    return Q


def absorption_times(N, Pe, Pe_ack, T_p, T_w):
    """Expected time to reach state 0 from each state, by solving (I - Q) t = tau."""
    M = len(N)
    Q = transition_matrix(N, Pe, Pe_ack)
    tau = np.array([N[i] * T_p + T_w for i in range(M)])
    return np.linalg.solve(np.eye(M) - Q, tau)


def joint_search(M, hi, Pe, Pe_ack, T_p, T_w):
    """Exhaustive minimum of the block completion time over all policies in [1, hi]^M.

    Every candidate chain is solved as a batched linear system; returns
    (best time, best policy), ties resolved to the lexicographically
    smallest policy by scan order.
    """
    combos = np.array(list(itertools.product(*([range(1, hi + 1)] * M))))
    K = combos.shape[0]
    A = np.tile(np.eye(M), (K, 1, 1))
    tau = combos * T_p + T_w
    for i in range(1, M + 1):
        Ni = combos[:, i - 1]
        A[:, i - 1, i - 1] = 1.0 - ((1 - Pe_ack) * sp_binom.pmf(0, Ni, 1 - Pe) + Pe_ack)
        for j in range(1, i):
            A[:, i - 1, j - 1] = -(1 - Pe_ack) * sp_binom.pmf(i - j, Ni, 1 - Pe)
    t = np.linalg.solve(A, tau[..., None])[..., 0]
    best = int(np.argmin(t[:, M - 1]))
    return float(t[best, M - 1]), tuple(int(v) for v in combos[best])


def enumerated_transition(i, j, N, Pe, Pe_ack):
    """Transition probability by summing over every erasure pattern and ACK outcome."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=N):
        k = sum(pattern)
        p = (1 - Pe) ** k * Pe ** (N - k)
        if max(i - k, 0) == j:
            total += (1 - Pe_ack) * p
        if i == j:
            total += Pe_ack * p
    return total


def receiver_completion_time(N, Pe, Pe_ack, T_p, T_w, q=None):
    """Mean completion time of the `physical` (q=None) or `rlnc` (field size q)
    receiver, by a dense linear solve on the (deficit d, belief b) states.

    A burst from (d, b) sends N_b packets; each lowers the deficit by one with
    probability (1 - Pe)(1 - q**-d), stepped packet by packet (q = None: the
    factor is 1 while d > 0).  A heard ACK moves to (d', d') and ends the run
    at d' = 0; a lost one moves to (d', b).
    """
    M = len(N)
    states = [(d, b) for b in range(1, M + 1) for d in range(b + 1)]
    index = {s: i for i, s in enumerate(states)}
    A = np.eye(len(states))
    tau = np.empty(len(states))
    for (d, b), i in index.items():
        tau[i] = N[b - 1] * T_p + T_w
        useful = np.array([0.0] + [(1 - Pe) * (1 - (0.0 if q is None else float(q) ** -x))
                                   for x in range(1, d + 1)])
        dist = np.zeros(d + 1)
        dist[d] = 1.0
        for _ in range(N[b - 1]):
            moved = dist * useful
            dist = dist - moved
            dist[:-1] += moved[1:]
        for after, pr in enumerate(dist):
            if after:
                A[i, index[after, after]] -= (1 - Pe_ack) * pr
            A[i, index[after, b]] -= Pe_ack * pr
    return float(np.linalg.solve(A, tau)[index[M, M]])
