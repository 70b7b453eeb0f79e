"""JSON-driven command line: policies, scheme sweeps and comparisons, simulation.

A run is described by a JSON config (see README for the schema) and emitted
as CSV or JSON rows.  A config is validated in full, every key and every grid
cell, before any computation starts.  Output is byte-deterministic for a
given config: fixed column order, fixed float formatting, declared grid
order.  The columns all rows of one parameter point share (the link, `Pe_bit`,
the simulation setup) are formatted once; each row adds its own.  Sweep cells
and simulation runs are computed one after another.  The argument parser is
built once per process, so repeated in-process `main` calls only parse.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import replace
from functools import cache, partial

from .markov import (
    Policy,
    expected_completion,
    fixed_window_completion,
    fixed_window_policy,
    full_duplex_completion,
)
from .optimizer import eta_gbn, eta_sr, optimal_policy
from .params import BitChannel, SystemParams, derive_timing, with_bit_channel
from .rlnc import GaloisField
from .simulator import SimConfig, simulate

SCHEMA_VERSION = 1

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
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".8e")


def _fmt_param(v) -> str:
    """A parameter echo; `str` of a float is its shortest round-trip `repr`."""
    return "" if v is None else str(v)


_BLANK_ROW = dict.fromkeys(COLUMNS, "")


def _cell(sys, pe_bit, **extra) -> dict:
    """The columns all rows of one parameter point share, formatted once; `extra` by CSV name."""
    return {"M": str(sys.M), "n": str(sys.n), "g": str(sys.g), "h": str(sys.h),
            "n_ack": str(sys.n_ack), "R": str(float(sys.R)), "T_rt": str(float(sys.T_rt)),
            "Pe": str(float(sys.Pe)), "Pe_ack": str(float(sys.Pe_ack)),
            "Pe_bit": _fmt_param(pe_bit), **{key: _fmt_param(v) for key, v in extra.items()}}


def _row(cell, scheme, metric, value, **columns) -> dict:
    """One output row: `cell` plus the row's own `columns`, by their CSV names.

    `ratio_to_full_duplex` is a metric and takes the metric format; `state`,
    `omega` and `W` are parameters.  A row has exactly the COLUMNS keys.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise NonFiniteError(f"{scheme}/{metric} is not finite")
    row = {**_BLANK_ROW, **cell, "scheme": scheme, "metric": metric, "value": _fmt_value(value)}
    for key, v in columns.items():
        row[key] = _fmt_value(v) if key == "ratio_to_full_duplex" else _fmt_param(v)
    return row


# Every object a spec can hold is read through a table: key -> (kind, default).
# A key that is absent takes its default; an explicit null is never a default.
# The tables hold kinds only; value ranges are checked by the dataclasses built
# from them (SystemParams, BitChannel, Policy, SimConfig, GaloisField, ...).
REQUIRED = object()
INT, NUM, STR, OBJ = "integer", "number", "string", "object"
SEED = "seed"       # an integer of the 64-bit seed range, which SimConfig checks
INT_BOUND = 2**53   # integers a float holds exactly

_KINDS = {
    INT: (lambda v: type(v) is int and abs(v) <= INT_BOUND, "an integer of magnitude at most 2**53"),
    SEED: (lambda v: type(v) is int and abs(v) < 2**64, "an integer below 2**64"),
    NUM: (lambda v: type(v) in (int, float), "a number"),
    STR: (lambda v: type(v) is str, "a string"),
    OBJ: (lambda v: type(v) is dict, "an object"),
}

_SPEC = {"schema_version": (INT, REQUIRED), "command": (STR, REQUIRED), "params": (OBJ, REQUIRED)}
_ETA_SWEEP = {**_SPEC, "bit_channel": (OBJ, REQUIRED), "schemes": ([STR], ["nc-optimal"])}
_COMMANDS = {
    "policy": {**_SPEC, "bit_channel": (OBJ, None)},
    "sweep-pe": {**_SPEC, "pe_grid": ([NUM], REQUIRED), "metric": (STR, "completion"),
                 "schemes": ([STR], REQUIRED)},
    "sweep-n": {**_ETA_SWEEP, "n_grid": ([INT], REQUIRED)},
    "sweep-m": {**_ETA_SWEEP, "m_grid": ([INT], REQUIRED)},
    "sweep-joint": {**_ETA_SWEEP, "n_grid": ([INT], REQUIRED), "m_grid": ([INT], REQUIRED)},
    "compare": {**_SPEC, "bit_channel": (OBJ, None), "metric": (STR, "eta"),
                "schemes": ([STR], REQUIRED)},
    "simulate": {**_SPEC, "bit_channel": (OBJ, None), "policy": (OBJ, {"type": "optimal"}),
                 "sim": (OBJ, {}), "master_seed": (SEED, 0)},
}
COMMANDS = tuple(_COMMANDS)

_PARAMS = {"M": (INT, REQUIRED), "n": (INT, REQUIRED), "g": (INT, REQUIRED), "h": (INT, 0),
           "n_ack": (INT, REQUIRED), "R": (NUM, REQUIRED), "T_rt": (NUM, 0.0),
           "Pe": (NUM, 0.0), "Pe_ack": (NUM, 0.0)}
_BIT_CHANNEL = {"Pe_bit": (NUM, REQUIRED)}
_POLICIES = {
    "optimal": {"type": (STR, REQUIRED)},
    "fixed-window": {"type": (STR, REQUIRED), "omega": (INT, REQUIRED)},
    "explicit": {"type": (STR, REQUIRED), "N": ([INT], REQUIRED)},
}
_CHAIN_SIM = {"mode": (STR, "chain"), "runs": (INT, 10000)}
# field_g defaults to params.g and polynomial to the field's default polynomial
_SIMS = {"chain": _CHAIN_SIM, "physical": _CHAIN_SIM,
         "rlnc": {**_CHAIN_SIM, "field_g": (INT, None), "polynomial": (INT, None)}}


def _value(value, kind, where):
    """One value of a kind; a list kind `[k]` is a non-empty list of k."""
    if isinstance(kind, list):
        if type(value) is not list or not value:
            raise SpecError(f"{where} must be a non-empty list of {kind[0]}s")
        return [_value(v, kind[0], f"{where}[{k}]") for k, v in enumerate(value)]
    test, what = _KINDS[kind]
    if not test(value):
        raise SpecError(f"{where} must be {what}")
    if kind != NUM:
        return value
    try:
        return float(value)
    except OverflowError:
        raise SpecError(f"{where} is too large for a float") from None


def _read(raw, tables, where, tag=None, default=REQUIRED) -> dict:
    """The object `raw` read through its table: `tables` itself, or the one its `tag` picks."""
    if type(raw) is not dict:
        raise SpecError(f"{where} must be a JSON object")
    table = tables
    if tag is not None:
        choice = raw.get(tag, default)
        if not isinstance(choice, str) or choice not in tables:
            raise SpecError(f"{where}.{tag} must be one of {tuple(tables)}")
        table = tables[choice]
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise SpecError(f"unknown {where} keys: {unknown}")
    out = {}
    for key, (kind, fallback) in table.items():
        if key in raw:
            out[key] = _value(raw[key], kind, f"{where}.{key}")
        elif fallback is REQUIRED:
            raise SpecError(f"{where} is missing required key '{key}'")
        else:
            out[key] = fallback
    return out


def _scheme(label: str):
    """A scheme string as (label, kind, argument); stop-and-wait is fixed-window:1."""
    kind, colon, arg = label.partition(":")
    if not colon and kind in ("nc-optimal", "full-duplex"):
        return label, kind, None
    if label == "stop-and-wait":
        return label, "fixed-window", 1
    # an argument of more digits than int() converts raises ValueError, an invalid spec
    if (kind in ("fixed-window", "gbn", "sr") and arg.isascii() and arg.isdigit()
            and 1 <= int(arg) <= INT_BOUND):
        return label, kind, int(arg)
    raise SpecError(f"unknown scheme '{label}' (an argument is 1 to 2**53 in ASCII digits)")


def _parse(spec):
    """Check a whole spec and build its value objects before any computation.

    Returns the computation as a callable that produces the output rows.
    """
    top = _read(spec, _COMMANDS, "config", tag="command")
    if top["schema_version"] != SCHEMA_VERSION:
        raise SpecError(f"schema_version must be {SCHEMA_VERSION}")
    command, metric = top["command"], top.get("metric", "eta")
    if metric not in ("completion", "eta"):
        raise SpecError("metric must be one of ('completion', 'eta')")
    try:
        base = SystemParams(**_read(top["params"], _PARAMS, "params"))
        raw_bc = top.get("bit_channel")
        bc = None if raw_bc is None else BitChannel(**_read(raw_bc, _BIT_CHANNEL, "bit_channel"))
        cells = [replace(base, M=m, n=n, Pe=pe) for m in top.get("m_grid", [base.M])
                 for n in top.get("n_grid", [base.n]) for pe in top.get("pe_grid", [base.Pe])]
        if bc is not None:
            cells = [with_bit_channel(sys, bc) for sys in cells]
        pe_bit = None if bc is None else bc.Pe_bit
        schemes = [_scheme(s) for s in top.get("schemes", [])]
        if command == "policy":
            return partial(_policy_rows, cells[0], pe_bit)
        if command == "simulate":
            return partial(_simulate_rows, cells[0], pe_bit, *_sim_policy(top["policy"], base.M),
                           _sim_config(top["sim"], top["master_seed"], base.g))
    except ValueError as bad:   # a value the dataclasses reject
        raise SpecError(f"invalid spec: {bad}") from None
    eta_sweep = command in ("sweep-n", "sweep-m", "sweep-joint")
    for label, kind, _ in schemes:
        if kind in ("gbn", "sr") and metric != "eta":
            raise SpecError(f"scheme '{label}' only supports the eta metric")
        if eta_sweep and kind not in ("nc-optimal", "full-duplex"):
            raise SpecError(f"eta sweeps support nc-optimal and full-duplex, not '{label}'")
    return partial(_sweep_rows, cells, schemes, metric, pe_bit)


def _sim_policy(raw, M):
    """(Policy, label) of a simulate spec; (None, label) for the optimal policy."""
    raw = _read(raw, _POLICIES, "policy", tag="type")
    if raw["type"] == "optimal":
        return None, "nc-optimal"
    if raw["type"] == "fixed-window":
        return fixed_window_policy(raw["omega"], M), f"fixed-window:{raw['omega']}"
    if len(raw["N"]) != M:
        raise SpecError("explicit policy needs an N list of length M")
    return Policy(tuple(raw["N"])), "explicit:" + ";".join(str(v) for v in raw["N"])


def _sim_config(raw, seed, g) -> SimConfig:
    raw = _read(raw, _SIMS, "sim", tag="mode", default="chain")
    field = None
    if raw["mode"] == "rlnc":
        field = GaloisField(g if raw["field_g"] is None else raw["field_g"], raw["polynomial"])
    return SimConfig(mode=raw["mode"], runs=raw["runs"], master_seed=seed, field=field)


def _scheme_row(scheme, sys, timing, metric, cell, fd_time) -> dict:
    """The output row of one scheme at one parameter point of full-duplex time `fd_time`."""
    label, kind, arg = scheme
    if kind in ("gbn", "sr"):
        value = (eta_gbn if kind == "gbn" else eta_sr)(sys, arg)
        return _row(cell, label, "eta_bps", value, W=arg)
    if kind == "full-duplex":
        t_block = fd_time
    else:
        if kind == "nc-optimal":
            profile = optimal_policy(sys, timing).profile
        else:
            profile = fixed_window_completion(arg, sys, timing)
        if not profile.finite:
            raise NonFiniteError(f"completion time for '{label}' is not finite")
        t_block = profile.T_M
    omega = arg if kind == "fixed-window" else None
    if metric == "eta":
        return _row(cell, label, "eta_bps", sys.M * sys.n / t_block, omega=omega)
    return _row(cell, label, "T_M_seconds", t_block, ratio_to_full_duplex=t_block / fd_time,
                omega=omega)


def _sweep_rows(cells, schemes, metric, pe_bit) -> list[dict]:
    """Every scheme at every cell, schemes nested inside cells: sweeps and compare."""
    rows = []
    for sys in cells:
        timing = derive_timing(sys)
        cell, fd = _cell(sys, pe_bit), full_duplex_completion(sys, timing)
        rows.extend(_scheme_row(s, sys, timing, metric, cell, fd) for s in schemes)
    return rows


def _policy_rows(sys, pe_bit) -> list[dict]:
    result = optimal_policy(sys, derive_timing(sys))
    cell, rows = _cell(sys, pe_bit), []
    for i, (n_i, bound) in enumerate(zip(result.policy.N, result.search_bounds_used), start=1):
        rows += (_row(cell, "nc-optimal", "N_i", n_i, state=i),
                 _row(cell, "nc-optimal", "T_i_seconds", result.profile.T[i], state=i),
                 _row(cell, "nc-optimal", "search_bound", bound, state=i))
    return rows


def _simulate_rows(sys, pe_bit, policy, label, cfg) -> list[dict]:
    timing = derive_timing(sys)
    if policy is None:   # the search's own profile is the policy's analytic T_M
        best = optimal_policy(sys, timing)
        policy, analytic = best.policy, best.profile.T_M
    else:
        analytic = expected_completion(policy, sys, timing).T_M
    result = simulate(policy, sys, timing, cfg)
    cell = _cell(sys, pe_bit, sim_mode=cfg.mode, sim_runs=cfg.runs, seed=cfg.master_seed)
    return [_row(cell, label, metric, value) for metric, value in (
        ("sim_mean_seconds", result.mean_completion), ("sim_stderr_seconds", result.stderr),
        ("T_M_seconds", analytic), ("sim_mean_packets", result.mean_packets_sent),
        ("sim_mean_stops", result.mean_stops))]


def run_spec(spec: dict) -> list[dict]:
    """Validate a whole config object, then produce its output rows."""
    return _parse(spec)()


def render_csv(rows: list[dict]) -> str:
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(row[c] for c in COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(command: str, rows: list[dict]) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "rows": rows}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` leaves it unchanged."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as bad:
            raise SpecError(f"cannot read config: {bad}") from None
        except (ValueError, RecursionError) as bad:  # also too many digits or too deep
            raise SpecError(f"config is not valid JSON: {bad}") from None
        if args.seed is not None:
            if args.seed < 0:
                raise SpecError("--seed must be non-negative")
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
