"""JSON-driven command line: policies, scheme sweeps and comparisons, simulation.

A run is described by a JSON config (see README for the schema) and emitted
as CSV or JSON rows.  Output is byte-deterministic for a given config:
fixed column order, fixed float formatting, declared grid order.  Sweep cells
and simulation runs are computed one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import replace

from .markov import (
    Policy,
    expected_completion,
    fixed_window_completion,
    full_duplex_completion,
)
from .optimizer import ArqParams, arq_timing, eta_gbn, eta_sr, optimal_policy
from .params import BitChannel, SystemParams, derive_timing, with_bit_channel
from .rlnc import GaloisField
from .simulator import SimConfig, simulate

SCHEMA_VERSION = 1

COMMANDS = ("policy", "sweep-pe", "sweep-n", "sweep-m", "sweep-joint", "compare", "simulate")

COLUMNS = (
    "scheme",
    "metric",
    "state",
    "value",
    "ratio_to_full_duplex",
    "M",
    "n",
    "g",
    "h",
    "n_ack",
    "R",
    "T_rt",
    "Pe",
    "Pe_ack",
    "Pe_bit",
    "omega",
    "W",
    "sim_mode",
    "sim_runs",
    "seed",
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONFINITE = 3


class SpecError(Exception):
    """Invalid run specification; rendered as a machine-readable error object."""


class NonFiniteError(Exception):
    """A computed metric came out non-finite."""


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        raise TypeError("boolean metric values are not expected")
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".8e")


def _fmt_param(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _row(scheme, metric, value, sys=None, *, state=None, ratio=None, pe_bit=None,
         omega=None, window=None, sim_mode=None, sim_runs=None, seed=None) -> dict:
    if isinstance(value, float) and not math.isfinite(value):
        raise NonFiniteError(f"{scheme}/{metric} is not finite")
    cells = {k: "" for k in COLUMNS}
    cells["scheme"] = scheme
    cells["metric"] = metric
    cells["state"] = _fmt_param(state)
    cells["value"] = _fmt_value(value)
    cells["ratio_to_full_duplex"] = "" if ratio is None else format(float(ratio), ".8e")
    if sys is not None:
        cells["M"] = str(sys.M)
        cells["n"] = str(sys.n)
        cells["g"] = str(sys.g)
        cells["h"] = str(sys.h)
        cells["n_ack"] = str(sys.n_ack)
        cells["R"] = _fmt_param(float(sys.R))
        cells["T_rt"] = _fmt_param(float(sys.T_rt))
        cells["Pe"] = _fmt_param(float(sys.Pe))
        cells["Pe_ack"] = _fmt_param(float(sys.Pe_ack))
    cells["Pe_bit"] = _fmt_param(pe_bit)
    cells["omega"] = _fmt_param(omega)
    cells["W"] = _fmt_param(window)
    cells["sim_mode"] = _fmt_param(sim_mode)
    cells["sim_runs"] = _fmt_param(sim_runs)
    cells["seed"] = _fmt_param(seed)
    return cells


def _require(cond, message):
    if not cond:
        raise SpecError(message)


def _check_keys(raw, known, where):
    unknown = sorted(set(raw) - known)
    _require(not unknown, f"unknown {where} keys: {unknown}")


def _get_params(spec) -> SystemParams:
    raw = spec.get("params")
    _require(isinstance(raw, dict), "config must carry a 'params' object")
    _check_keys(raw, {"M", "n", "g", "h", "n_ack", "R", "T_rt", "Pe", "Pe_ack"}, "params")
    for key in ("M", "n", "g", "h", "n_ack"):
        _require(key not in raw or _is_int(raw[key]), f"params.{key} must be an integer")
    try:
        sys = SystemParams(
            M=raw["M"],
            n=raw["n"],
            g=raw["g"],
            h=raw.get("h", 0),
            n_ack=raw["n_ack"],
            R=float(raw["R"]),
            T_rt=float(raw.get("T_rt", 0.0)),
            Pe=float(raw.get("Pe", 0.0)),
            Pe_ack=float(raw.get("Pe_ack", 0.0)),
        )
    except KeyError as missing:
        raise SpecError(f"params is missing required key {missing}") from None
    except (TypeError, ValueError) as bad:
        raise SpecError(f"invalid params: {bad}") from None
    if "bit_channel" in spec:
        bc = _get_bit_channel(spec)
        sys = with_bit_channel(sys, bc)
    return sys


def _get_bit_channel(spec) -> BitChannel:
    raw = spec.get("bit_channel")
    _require(isinstance(raw, dict) and "Pe_bit" in raw, "bit_channel must be an object with Pe_bit")
    try:
        return BitChannel(Pe_bit=float(raw["Pe_bit"]))
    except (TypeError, ValueError) as bad:
        raise SpecError(f"invalid bit_channel: {bad}") from None


def _get_grid(spec, key, kind=float) -> list:
    raw = spec.get(key)
    _require(isinstance(raw, list) and len(raw) > 0, f"'{key}' must be a non-empty list")
    _require(all(_is_int(v) or (kind is float and isinstance(v, float)) for v in raw),
             f"'{key}' entries must be JSON {'integers' if kind is int else 'numbers'}")
    return [kind(v) for v in raw]


def _parse_scheme(scheme: str):
    _require(isinstance(scheme, str), f"scheme {scheme!r} must be a string")
    kind, _, arg = scheme.partition(":")
    if kind in ("nc-optimal", "full-duplex", "stop-and-wait"):
        _require(arg == "", f"scheme '{kind}' takes no argument")
        return kind, None
    if kind in ("fixed-window", "gbn", "sr"):
        try:
            value = int(arg)
        except ValueError:
            raise SpecError(f"scheme '{scheme}' needs an integer argument") from None
        _require(value >= 1, f"scheme '{scheme}' argument must be >= 1")
        return kind, value
    raise SpecError(f"unknown scheme '{scheme}'")


def _scheme_rows(scheme, sys, timing, metric, pe_bit, fd_time) -> list[dict]:
    """One output row for one scheme at one parameter point."""
    kind, arg = _parse_scheme(scheme)
    omega = window = None
    if kind in ("nc-optimal", "fixed-window", "stop-and-wait"):
        if kind == "nc-optimal":
            profile = optimal_policy(sys, timing).profile
        else:
            omega = 1 if kind == "stop-and-wait" else arg
            profile = fixed_window_completion(omega, sys, timing)
        t_block = profile.T_M
        if not profile.finite:
            raise NonFiniteError(f"completion time for '{scheme}' is not finite")
    elif kind == "full-duplex":
        t_block = full_duplex_completion(sys, timing)
    else:  # gbn / sr
        _require(metric == "eta", f"scheme '{scheme}' only supports the eta metric")
        window = arg
        arq = ArqParams(W=window, packet_bits=sys.h + sys.n)
        t_arq = arq_timing(sys, arq)
        value = eta_gbn(sys, t_arq, arq) if kind == "gbn" else eta_sr(sys, t_arq, arq)
        return [_row(scheme, "eta_bps", value, sys, pe_bit=pe_bit, window=window)]
    if metric == "eta":
        return [_row(scheme, "eta_bps", sys.M * sys.n / t_block, sys, pe_bit=pe_bit, omega=omega)]
    ratio = None if fd_time is None else t_block / fd_time
    return [_row(scheme, "T_M_seconds", t_block, sys, ratio=ratio, pe_bit=pe_bit, omega=omega)]


def _get_metric(spec, default, allowed=("completion", "eta")) -> str:
    metric = spec.get("metric", default)
    _require(metric in allowed, f"metric must be one of {allowed}")
    return metric


def _get_schemes(spec, default=None) -> list[str]:
    schemes = spec.get("schemes", default)
    _require(isinstance(schemes, list) and len(schemes) > 0, "'schemes' must be a non-empty list")
    for s in schemes:
        _parse_scheme(s)
    return schemes


def cmd_policy(spec) -> list[dict]:
    sys = _get_params(spec)
    timing = derive_timing(sys)
    pe_bit = _get_bit_channel(spec).Pe_bit if "bit_channel" in spec else None
    result = optimal_policy(sys, timing)
    rows = []
    for i in range(1, sys.M + 1):
        rows.append(_row("nc-optimal", "N_i", result.policy.N[i - 1], sys, state=i, pe_bit=pe_bit))
        rows.append(_row("nc-optimal", "T_i_seconds", result.profile.T[i], sys, state=i, pe_bit=pe_bit))
        rows.append(_row("nc-optimal", "search_bound", result.search_bounds_used[i - 1], sys,
                         state=i, pe_bit=pe_bit))
    return rows


def cmd_sweep_pe(spec) -> list[dict]:
    base = _get_params(spec)
    grid = _get_grid(spec, "pe_grid", float)
    metric = _get_metric(spec, "completion")
    schemes = _get_schemes(spec)
    rows = []
    for pe in grid:
        try:
            sys = replace(base, Pe=pe)
        except ValueError as bad:
            raise SpecError(f"invalid Pe {pe}: {bad}") from None
        timing = derive_timing(sys)
        fd = full_duplex_completion(sys, timing) if metric == "completion" else None
        for s in schemes:
            rows.extend(_scheme_rows(s, sys, timing, metric, None, fd))
    return rows


def _sweep_eta_grid(spec, cells, make_sys) -> list[dict]:
    bc = _get_bit_channel(spec)
    schemes = _get_schemes(spec, default=["nc-optimal"])
    for s in schemes:
        kind, _ = _parse_scheme(s)
        _require(kind in ("nc-optimal", "full-duplex"),
                 f"eta sweeps support nc-optimal and full-duplex, not '{s}'")
    rows = []
    for point in cells:
        try:
            sys = with_bit_channel(make_sys(point), bc)
        except ValueError as bad:
            raise SpecError(f"invalid grid point {point}: {bad}") from None
        timing = derive_timing(sys)
        for s in schemes:
            rows.extend(_scheme_rows(s, sys, timing, "eta", bc.Pe_bit, None))
    return rows


def cmd_sweep_n(spec) -> list[dict]:
    base = _get_params({"params": spec.get("params")})
    grid = _get_grid(spec, "n_grid", int)
    return _sweep_eta_grid(spec, grid, lambda n: replace(base, n=n))


def cmd_sweep_m(spec) -> list[dict]:
    base = _get_params({"params": spec.get("params")})
    grid = _get_grid(spec, "m_grid", int)
    return _sweep_eta_grid(spec, grid, lambda m: replace(base, M=m))


def cmd_sweep_joint(spec) -> list[dict]:
    base = _get_params({"params": spec.get("params")})
    n_grid = _get_grid(spec, "n_grid", int)
    m_grid = _get_grid(spec, "m_grid", int)
    cells = [(m, n) for m in m_grid for n in n_grid]
    return _sweep_eta_grid(spec, cells, lambda mn: replace(base, M=mn[0], n=mn[1]))


def cmd_compare(spec) -> list[dict]:
    sys = _get_params(spec)
    timing = derive_timing(sys)
    pe_bit = _get_bit_channel(spec).Pe_bit if "bit_channel" in spec else None
    metric = _get_metric(spec, "eta")
    schemes = _get_schemes(spec)
    fd = full_duplex_completion(sys, timing) if metric == "completion" else None
    rows = []
    for s in schemes:
        rows.extend(_scheme_rows(s, sys, timing, metric, pe_bit, fd))
    return rows


def _is_int(value) -> bool:
    """A JSON integer: bools and floats with an integral value are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _get_sim_policy(spec, sys, timing):
    raw = spec.get("policy", {"type": "optimal"})
    _require(isinstance(raw, dict) and "type" in raw, "'policy' must be an object with a 'type'")
    if raw["type"] == "optimal":
        return optimal_policy(sys, timing).policy, "nc-optimal"
    if raw["type"] == "fixed-window":
        omega = raw.get("omega")
        _require(_is_int(omega) and omega >= 1, "fixed-window policy needs an integer 'omega' >= 1")
        return Policy(tuple(min(i, omega) for i in range(1, sys.M + 1))), f"fixed-window:{omega}"
    if raw["type"] == "explicit":
        _require(isinstance(raw.get("N"), list) and len(raw["N"]) == sys.M,
                 "explicit policy needs an N list of length M")
        _require(all(_is_int(v) for v in raw["N"]), "explicit policy entries must be integers")
        try:
            policy = Policy(tuple(raw["N"]))
        except ValueError as bad:
            raise SpecError(f"invalid explicit policy: {bad}") from None
        return policy, "explicit:" + ";".join(str(v) for v in policy.N)
    raise SpecError(f"unknown policy type '{raw['type']}'")


def _sim_int(raw, key, default):
    value = raw.get(key, default)
    _require(value is default or _is_int(value), f"sim.{key} must be an integer")
    return value


def cmd_simulate(spec) -> list[dict]:
    sys = _get_params(spec)
    timing = derive_timing(sys)
    pe_bit = _get_bit_channel(spec).Pe_bit if "bit_channel" in spec else None
    policy, label = _get_sim_policy(spec, sys, timing)
    raw = spec.get("sim", {})
    _require(isinstance(raw, dict), "'sim' must be an object")
    mode = raw.get("mode", "chain")
    _check_keys(raw, {"mode", "runs"} | ({"field_g", "polynomial"} if mode == "rlnc" else set()),
                f"sim ({mode} mode)")
    runs = _sim_int(raw, "runs", 10000)
    seed = spec.get("master_seed", 0)
    _require(_is_int(seed), "master_seed must be an integer")
    field = None
    if mode == "rlnc":
        g = _sim_int(raw, "field_g", sys.g)
        _require(1 <= g <= 16, "rlnc simulation needs a field width in [1, 16] (sim.field_g)")
        polynomial = _sim_int(raw, "polynomial", None)
        try:
            field = GaloisField(g, polynomial)
        except ValueError as bad:
            raise SpecError(f"invalid sim.polynomial: {bad}") from None
    try:
        cfg = SimConfig(mode=mode, runs=runs, master_seed=seed, field=field)
    except ValueError as bad:
        raise SpecError(f"invalid sim config: {bad}") from None
    result = simulate(policy, sys, timing, cfg)
    analytic = expected_completion(policy, sys, timing).T_M
    tag = dict(sys=sys, pe_bit=pe_bit, sim_mode=mode, sim_runs=runs, seed=seed)
    return [
        _row(label, "sim_mean_seconds", result.mean_completion, **tag),
        _row(label, "sim_stderr_seconds", result.stderr, **tag),
        _row(label, "T_M_seconds", analytic, **tag),
        _row(label, "sim_mean_packets", result.mean_packets_sent, **tag),
        _row(label, "sim_mean_stops", result.mean_stops, **tag),
    ]


# each command with the top-level keys it reads, besides schema_version and command
_DISPATCH = {
    "policy": (cmd_policy, {"params", "bit_channel"}),
    "sweep-pe": (cmd_sweep_pe, {"params", "pe_grid", "metric", "schemes"}),
    "sweep-n": (cmd_sweep_n, {"params", "bit_channel", "n_grid", "schemes"}),
    "sweep-m": (cmd_sweep_m, {"params", "bit_channel", "m_grid", "schemes"}),
    "sweep-joint": (cmd_sweep_joint, {"params", "bit_channel", "n_grid", "m_grid", "schemes"}),
    "compare": (cmd_compare, {"params", "bit_channel", "metric", "schemes"}),
    "simulate": (cmd_simulate, {"params", "bit_channel", "policy", "sim", "master_seed"}),
}


def run_spec(spec: dict) -> list[dict]:
    """Validate a config object and produce its output rows."""
    _require(isinstance(spec, dict), "config must be a JSON object")
    _require(spec.get("schema_version") == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}")
    command = spec.get("command")
    _require(command in COMMANDS, f"command must be one of {COMMANDS}")
    cmd, keys = _DISPATCH[command]
    _check_keys(spec, keys | {"schema_version", "command"}, "top-level")
    return cmd(spec)


def render_csv(rows: list[dict]) -> str:
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(row[c] for c in COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(command: str, rows: list[dict]) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "rows": rows}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tddnc",
        description="Delay-optimal network coding for TDD erasure links: "
                    "policies, scheme sweeps, and Monte-Carlo simulation.",
    )
    parser.add_argument("--config", required=True, help="JSON run specification")
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int,
                        help="override a simulate config's master_seed; other commands take no seed")
    parser.add_argument("--threads", type=int,
                        help="accepted and ignored: sweep cells and simulation runs are serial")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as bad:
            raise SpecError(f"cannot read config: {bad}") from None
        except json.JSONDecodeError as bad:
            raise SpecError(f"config is not valid JSON: {bad}") from None
        if args.seed is not None:
            _require(args.seed >= 0, "--seed must be non-negative")
            if isinstance(spec, dict) and spec.get("command") == "simulate":
                spec["master_seed"] = args.seed
        rows = run_spec(spec)
        text = render_csv(rows) if args.format == "csv" else render_json(spec["command"], rows)
    except SpecError as err:
        print(json.dumps({"error": "invalid-spec", "message": str(err)}), file=_sys.stderr)
        return EXIT_INVALID
    except NonFiniteError as err:
        print(json.dumps({"error": "non-finite", "message": str(err)}), file=_sys.stderr)
        return EXIT_NONFINITE

    # the full output is rendered before anything is opened: no partial files
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
