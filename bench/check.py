"""Output check for benchmark jobs, independent of the tddnc recursion and search.

Every job's CSV is compared with values recomputed here from the spec the
benchmark generated:

- completion times of a given policy come from a dense linear solve of the
  deficit chain, with binomial probabilities from `math.comb`;
- optimal policies come from this module's own exhaustive search, which
  stops at the proven bound T_i(N) >= (N*T_p + T_w)/(1 - Pe_ack); so the
  check holds for any correct search, whatever its stopping rule;
- each returned N_i must be locally optimal: T_i(N_i +- 1) >= T_i(N_i);
- full-duplex, Go-Back-N and Selective Repeat use their closed forms;
- simulated means must sit within Z standard errors of the analytic T_M,
  one- or two-sided as the simulation mode allows; the standard error is
  at least the chain's own standard deviation over sqrt(runs).

`search_bound` values and simulation bytes are deliberately not checked:
the search and the simulator may change how they get their results.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Rows carry 9 significant digits (format .8e): half a unit in the last
# place is 5e-9 relative, and the recursions agree to ~1e-12 beyond that.
RTOL = 1e-8
# Standard errors allowed between a simulated mean and the analytic T_M.
# At 6 a correct simulator fails a job with probability ~2e-9.
Z = 6.0
# A neighbour of N_i may beat it by this much before N_i counts as not
# locally optimal: lgamma-based binomials at N ~ 1e4 carry ~1e-11 error.
LOCAL_RTOL = 1e-9
MAX_BLOCK = 8192


class CheckError(Exception):
    """A job's output disagrees with the independent recomputation."""


def _close(got: float, want: float, what: str, rtol: float = RTOL) -> None:
    if not math.isclose(got, want, rel_tol=rtol, abs_tol=0.0):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------- link model

def link(spec: dict, M: int | None = None, n: int | None = None) -> dict:
    """Erasures and times of one parameter point, from the generated spec."""
    p = spec["params"]
    M = p["M"] if M is None else M
    n = p["n"] if n is None else n
    bits = p["h"] + n + p["g"] * M
    if "bit_channel" in spec:
        pb = spec["bit_channel"]["Pe_bit"]
        Pe = -math.expm1(bits * math.log1p(-pb))
        Pa = -math.expm1(p["n_ack"] * math.log1p(-pb))
    else:
        Pe, Pa = p["Pe"], p["Pe_ack"]
    R = p["R"]
    T_ack = p["n_ack"] / R
    return dict(M=M, n=n, h=p["h"], R=R, T_rt=p["T_rt"], Pe=Pe, Pa=Pa,
                T_p=bits / R, T_ack=T_ack, T_w=p["T_rt"] + T_ack)


def _pmf(k: int, N: int, Pe: float) -> float:
    """P[exactly k of N packets arrive]."""
    if k < 0 or k > N:
        return 0.0
    return float(math.comb(N, k)) * (1.0 - Pe) ** k * Pe ** (N - k)


def _chain(N, L: dict) -> tuple[np.ndarray, np.ndarray]:
    """I - Q over the transient states 1..M, and the round cost tau_i = N_i*T_p + T_w."""
    M = len(N)
    Pe, Pa = L["Pe"], L["Pa"]
    A = np.eye(M)
    tau = np.empty(M)
    for i in range(1, M + 1):
        Ni = N[i - 1]
        A[i - 1, i - 1] -= (1.0 - Pa) * Pe**Ni + Pa
        for j in range(1, i):
            A[i - 1, j - 1] -= (1.0 - Pa) * _pmf(i - j, Ni, Pe)
        tau[i - 1] = Ni * L["T_p"] + L["T_w"]
    return A, tau


def chain_times(N, L: dict) -> np.ndarray:
    """Expected completion time from states 1..M under policy N: solve (I - Q) t = tau."""
    A, tau = _chain(N, L)
    return np.linalg.solve(A, tau)


def completion_sd(N, L: dict) -> float:
    """Standard deviation of the completion time from state M.

    A round from state i costs tau_i and moves to J, so C_i = tau_i + C_J and
    E[C_i^2] solves (I - Q) s = tau^2 + 2 tau (Q t).
    """
    A, tau = _chain(N, L)
    t = np.linalg.solve(A, tau)
    s = np.linalg.solve(A, tau**2 + 2.0 * tau * ((np.eye(len(N)) - A) @ t))
    return math.sqrt(max(s[-1] - t[-1] ** 2, 0.0))


def state_time(i: int, N: int, T_lower, L: dict) -> float:
    """T_i(N) given T_1..T_{i-1}, by first-step analysis; T_lower[0] is T_1."""
    Pe, Pa = L["Pe"], L["Pa"]
    progress = 1.0 - Pe**N
    acc = sum(_pmf(k, N, Pe) * T_lower[i - k - 1] for k in range(1, min(N, i - 1) + 1))
    return (N * L["T_p"] + L["T_w"]) / ((1.0 - Pa) * progress) + acc / progress


def _state_times_block(i: int, Ns: np.ndarray, T_lower, L: dict) -> np.ndarray:
    """T_i(N) for an array of N >= i, with log C(N, k) summed from its product form."""
    Pe, Pa = L["Pe"], L["Pa"]
    Nf = Ns.astype(np.float64)
    progress = 1.0 - Pe**Nf
    first = (Nf * L["T_p"] + L["T_w"]) / ((1.0 - Pa) * progress)
    if i == 1 or Pe == 0.0:  # at Pe = 0 every N >= i finishes in one round
        return first
    k = np.arange(1, i)
    log_pmf = (Nf[:, None] * math.log(Pe) + k * math.log((1.0 - Pe) / Pe)
               + np.cumsum(np.log((Nf[:, None] - (k - 1)) / k), axis=1))
    acc = np.exp(log_pmf) @ np.asarray(T_lower[::-1])
    return first + acc / progress


def optimal_burst_sizes(L: dict) -> tuple[int, ...]:
    """Per-state global minimizers over N >= i, ties to the smaller N."""
    T_p, T_w, Pa = L["T_p"], L["T_w"], L["Pa"]
    T: list[float] = []
    sizes = []
    for i in range(1, L["M"] + 1):
        best_t, best_n, lo, block = math.inf, i, i, 64
        while (lo * T_p + T_w) / (1.0 - Pa) < best_t:
            Ns = np.arange(lo, lo + block)
            t = _state_times_block(i, Ns, T, L)
            k = int(np.argmin(t))
            if t[k] < best_t:
                best_t, best_n = float(t[k]), int(Ns[k])
            lo += block
            block = min(2 * block, MAX_BLOCK)
        sizes.append(best_n)
        T.append(best_t)
    return tuple(sizes)


def full_duplex_time(L: dict) -> float:
    return L["T_rt"] + L["M"] * L["T_p"] / (1.0 - L["Pe"]) + L["T_ack"] / (1.0 - L["Pa"])


def _arq_eta(kind: str, W: int, L: dict) -> float:
    cycle = W * (L["h"] + L["n"]) / L["R"] + L["T_w"]
    Pe = L["Pe"]
    if kind == "sr" or Pe == 0.0:
        return W * L["n"] * (1.0 - Pe) / cycle
    return L["n"] * (1.0 - Pe) * (1.0 - (1.0 - Pe) ** W) / (cycle * Pe)


def scheme_policy(scheme: str, L: dict) -> tuple[int, ...]:
    """Burst sizes of a TDD network-coding scheme at one point."""
    kind, _, arg = scheme.partition(":")
    if kind == "nc-optimal":
        return optimal_burst_sizes(L)
    omega = 1 if kind == "stop-and-wait" else int(arg)
    return tuple(min(i, omega) for i in range(1, L["M"] + 1))


def scheme_time(scheme: str, L: dict) -> float:
    """Expected block completion time of a TDD scheme at one point."""
    if scheme == "full-duplex":
        return full_duplex_time(L)
    return float(chain_times(scheme_policy(scheme, L), L)[-1])


def scheme_value(scheme: str, metric: str, L: dict) -> tuple[float, float | None]:
    """The (value, ratio_to_full_duplex) a compare/sweep row should carry."""
    kind, _, arg = scheme.partition(":")
    if kind in ("gbn", "sr"):
        return _arq_eta(kind, int(arg), L), None
    t = scheme_time(scheme, L)
    if metric == "eta":
        return L["M"] * L["n"] / t, None
    return t, t / full_duplex_time(L)


# ---------------------------------------------------------------- per command

def _parse(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise CheckError("no output rows")
    return rows


def _check_point_rows(rows, spec, L, metric, *, M=None, n=None):
    """Rows of one parameter point, in declared scheme order."""
    want_metric = "eta_bps" if metric == "eta" else "T_M_seconds"
    if [r["scheme"] for r in rows] != list(spec["schemes"]):
        raise CheckError(f"schemes {[r['scheme'] for r in rows]} != {spec['schemes']}")
    for row in rows:
        if row["metric"] != want_metric:
            raise CheckError(f"metric {row['metric']} != {want_metric}")
        if M is not None and (int(row["M"]) != M or int(row["n"]) != n):
            raise CheckError(f"cell ({row['M']}, {row['n']}) != ({M}, {n})")
        _close(float(row["Pe"]), L["Pe"], f"{row['scheme']} Pe", rtol=1e-12)
        value, ratio = scheme_value(row["scheme"], metric, L)
        _close(float(row["value"]), value, f"{row['scheme']} {want_metric}")
        if ratio is not None:
            _close(float(row["ratio_to_full_duplex"]), ratio, f"{row['scheme']} ratio")


def check_policy(spec: dict, rows: list[dict]) -> None:
    L = link(spec)
    M = L["M"]
    by = {}
    for r in rows:
        by[(r["metric"], int(r["state"]))] = r["value"]
    want = {(m, i) for m in ("N_i", "T_i_seconds", "search_bound") for i in range(1, M + 1)}
    if set(by) != want or len(rows) != len(want):
        raise CheckError("policy rows do not cover N_i, T_i_seconds, search_bound for 1..M")
    N = [int(by[("N_i", i)]) for i in range(1, M + 1)]
    if any(v < i for i, v in enumerate(N, start=1)):
        raise CheckError(f"burst sizes {N} send fewer packets than the deficit")
    T = chain_times(N, L)
    for i in range(1, M + 1):
        _close(float(by[("T_i_seconds", i)]), float(T[i - 1]), f"T_{i}")
    for i in range(1, M + 1):
        here = state_time(i, N[i - 1], T, L)
        for other in (N[i - 1] - 1, N[i - 1] + 1):
            if other >= i and state_time(i, other, T, L) < here * (1.0 - LOCAL_RTOL):
                raise CheckError(f"N_{i}={N[i - 1]} is not locally optimal (N={other} is better)")
    _close(float(T[-1]), scheme_time("nc-optimal", L), "T_M of the optimal policy")


def check_compare(spec: dict, rows: list[dict]) -> None:
    _check_point_rows(rows, spec, link(spec), spec.get("metric", "eta"))


def check_sweep_joint(spec: dict, rows: list[dict]) -> None:
    cells = [(m, n) for m in spec["m_grid"] for n in spec["n_grid"]]
    k = len(spec["schemes"])
    if len(rows) != k * len(cells):
        raise CheckError(f"{len(rows)} rows for {len(cells)} cells x {k} schemes")
    for c, (m, n) in enumerate(cells):
        _check_point_rows(rows[c * k:(c + 1) * k], spec, link(spec, M=m, n=n), "eta", M=m, n=n)


def check_simulate(spec: dict, rows: list[dict]) -> None:
    L = link(spec)
    by = {r["metric"]: r for r in rows}
    names = ("sim_mean_seconds", "sim_stderr_seconds", "T_M_seconds",
             "sim_mean_packets", "sim_mean_stops")
    if sorted(by) != sorted(names) or len(rows) != len(names):
        raise CheckError(f"simulate rows {sorted(by)}")
    sim = spec["sim"]
    for r in rows:
        if (r["sim_mode"], int(r["sim_runs"]), int(r["seed"])) != (
                sim["mode"], sim["runs"], spec["master_seed"]):
            raise CheckError("simulate rows do not echo mode, runs and seed")
    pol = spec["policy"]
    scheme = "nc-optimal" if pol["type"] == "optimal" else f"fixed-window:{pol['omega']}"
    N = scheme_policy(scheme, L)
    T_M = float(by["T_M_seconds"]["value"])
    _close(T_M, float(chain_times(N, L)[-1]), "T_M")
    mean = float(by["sim_mean_seconds"]["value"])
    stderr = float(by["sim_stderr_seconds"]["value"])
    if not stderr >= 0.0:
        raise CheckError("negative standard error")
    if float(by["sim_mean_packets"]["value"]) < L["M"] or float(by["sim_mean_stops"]["value"]) < 1:
        raise CheckError("fewer packets than the block size, or no stops")
    # The sample stderr misses rare slow runs that a sample happened not to
    # draw (all runs alike gives 0); the chain's own spread bounds it below.
    spread = max(stderr, completion_sd(N, L) / math.sqrt(sim["runs"]))
    slack = Z * spread + RTOL * T_M
    mode = sim["mode"]
    g = sim.get("field_g", spec["params"]["g"])
    low_ok = mean >= T_M - slack or mode == "physical"
    high_ok = mean <= T_M + slack or (mode == "rlnc" and g == 1)
    if not (low_ok and high_ok):
        raise CheckError(f"{mode} sim mean {mean!r} vs T_M {T_M!r} (stderr {stderr!r}, "
                         f"allowed {slack!r})")


CHECKS = {
    "policy": check_policy,
    "compare": check_compare,
    "sweep-joint": check_sweep_joint,
    "simulate": check_simulate,
}


def check_output(spec: dict, text: str) -> None:
    """Raise CheckError unless `text` is the right output for `spec`."""
    CHECKS[spec["command"]](spec, _parse(text))

