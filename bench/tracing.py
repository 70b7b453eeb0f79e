"""Span tracing of tddnc from outside, by wrapping each layer's public functions.

Each wrapper is installed in the namespace where its caller looks the name
up (`tddnc.cli.optimal_policy`, `tddnc.optimizer.state_completion_time`,
...) or on the class for methods. A span is (id, name, start, end, parent,
job); spans stay in memory and are written out once, at the end. A span
opened in a worker thread with no open span of its own takes the main
thread's innermost open span as its parent, so the simulator's thread pool
still nests under `simulator.run_records`.

Layers are named after the modules. Self time is a span's duration minus
the union of its children's intervals.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict

import numpy as np

import tddnc.cli
import tddnc.markov
import tddnc.optimizer
import tddnc.rlnc
import tddnc.simulator

JOB_SPAN = "cli.main"


class Tracer:
    """Spans and counts of one traced run; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.builds: defaultdict[int, list[float]] = defaultdict(list)
        self.job = 0
        self._ids = itertools.count(1)
        self._main_ident = threading.get_ident()
        self._main: list[int] = []
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(args, result)` runs on each return."""
        spans, ids, main = self.spans, self._ids, self._main

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.job))
            if after is not None:
                after(args, out)
            return out

        return traced

    def count(self, name: str, fn, amount=lambda args: 1):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += amount(args)
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced layer boundary; `uninstall` puts the originals back."""
        cli, opt, mk, sim, rl = (tddnc.cli, tddnc.optimizer, tddnc.markov,
                                  tddnc.simulator, tddnc.rlnc)
        counts = self.counts

        def search_effort(args, result):
            N, bounds = result.policy.N, result.search_bounds_used
            counts["optimizer.candidates"] += sum(b - i + 1 for i, b in enumerate(bounds, 1))
            counts["optimizer.overshoot"] += sum(b - n for n, b in zip(N, bounds))

        def sim_effort(args, records):
            counts["simulator.runs"] += int(records.shape[0])
            counts["simulator.rounds"] += int(records[:, 2].sum())

        def dependent(args, gained):
            counts["rlnc.absorb.dependent"] += gained == 0

        def field(g, polynomial=None):
            t0 = time.perf_counter()
            built = rl.GaloisField(g, polynomial)
            self.builds[g].append(time.perf_counter() - t0)
            return built

        self._patch(cli, "optimal_policy",
                    self.span("optimizer.optimal_policy", cli.optimal_policy, search_effort))
        for owner in (opt, mk):
            self._patch(owner, "state_completion_time",
                        self.span("markov.state_completion_time", owner.state_completion_time))
        for owner in (opt, cli):
            self._patch(owner, "expected_completion",
                        self.span("markov.expected_completion", owner.expected_completion))
        self._patch(cli, "fixed_window_completion",
                    self.span("markov.fixed_window_completion", cli.fixed_window_completion))
        self._patch(cli, "simulate", self.span("simulator.simulate", cli.simulate))
        self._patch(sim, "run_records",
                    self.span("simulator.run_records", sim.run_records, sim_effort))
        self._patch(sim, "encode", self.span("rlnc.encode", sim.encode))
        self._patch(rl.GaloisField, "scale", self.span("rlnc.scale", rl.GaloisField.scale))
        self._patch(rl.Decoder, "absorb", self.span("rlnc.absorb", rl.Decoder.absorb, dependent))
        self._patch(cli, "GaloisField", self.span("rlnc.field_build", field))
        self._patch(cli, "derive_timing", self.count("params.derive_timing", cli.derive_timing))
        self._patch(cli, "render_csv",
                    self.count("cli.rows", cli.render_csv, lambda args: len(args[0])))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def run_job(self, call):
        """Run one job under a `cli.main` span; the job id tags every span below it."""
        self.job += 1
        return self.span(JOB_SPAN, call)()

    # ------------------------------------------------------------ reporting

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            children[parent].append((t0, t1))
        total: defaultdict[str, float] = defaultdict(float)
        for sid, name, t0, t1, _, _ in self.spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            total[name] += (t1 - t0) - covered
        return total

    def layer_metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of everything traced so far, as name -> (value, unit)."""
        selfs = self.self_times()
        calls = Counter(name for _, name, *_ in self.spans)
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "cli.self_ms_per_job": (1e3 * ratio(selfs[JOB_SPAN], jobs), "ms/job"),
            "cli.rows_per_job": (ratio(c["cli.rows"], jobs), "rows/job"),
            "optimizer.optimal_policy.calls": (calls["optimizer.optimal_policy"], "count"),
            "optimizer.optimal_policy.self_s": (selfs["optimizer.optimal_policy"], "s"),
            "optimizer.candidates": (c["optimizer.candidates"], "count"),
            "optimizer.overshoot_ratio": (
                ratio(c["optimizer.overshoot"], c["optimizer.candidates"]), "ratio"),
            "markov.state_completion_time.calls": (calls["markov.state_completion_time"], "count"),
            "markov.state_completion_time.self_s": (selfs["markov.state_completion_time"], "s"),
            "markov.fixed_window_completion.self_s": (
                selfs["markov.fixed_window_completion"], "s"),
            "markov.expected_completion.self_s": (selfs["markov.expected_completion"], "s"),
            "simulator.run_records.self_s": (selfs["simulator.run_records"], "s"),
            "simulator.runs": (c["simulator.runs"], "count"),
            "simulator.rounds": (c["simulator.rounds"], "count"),
            "simulator.self_us_per_round": (
                1e6 * ratio(selfs["simulator.run_records"], c["simulator.rounds"]), "us/round"),
        }
        for g in (1, 8, 16):
            builds = self.builds.get(g)
            m[f"rlnc.field_build_s.g{g}"] = (statistics.median(builds) if builds else 0.0, "s")
        m.update({
            "rlnc.scale.calls": (calls["rlnc.scale"], "count"),
            "rlnc.scale.self_s": (selfs["rlnc.scale"], "s"),
            "rlnc.absorb.calls": (calls["rlnc.absorb"], "count"),
            "rlnc.absorb.self_s": (selfs["rlnc.absorb"], "s"),
            "rlnc.encode.self_s": (selfs["rlnc.encode"], "s"),
            "rlnc.dependent_ratio": (
                ratio(c["rlnc.absorb.dependent"], calls["rlnc.absorb"]), "ratio"),
            "params.derive_timing.calls": (c["params.derive_timing"], "count"),
        })
        return m

    def write(self, path) -> None:
        """Every span as columns of an .npz file; `names` indexes the `name` column."""
        names = sorted({s[1] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        np.savez(path, id=np.array(cols[0], dtype=np.int64),
                 name=np.array([index[n] for n in cols[1]], dtype=np.int32),
                 start=np.array(cols[2]), end=np.array(cols[3]),
                 parent=np.array(cols[4], dtype=np.int64), job=np.array(cols[5], dtype=np.int64),
                 names=np.array(names))
