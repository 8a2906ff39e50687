"""Layer spans taken from outside the program, and the metrics derived from them.

``fracmv`` carries no instrumentation of its own.  A traced run process
replaces the module attributes through which the layers call each other
(``mckean_vlasov.flow_distance``, ``measure.wasserstein2``, ...) with
timing wrappers, records one span per call in memory and writes the
spans out when the run ends.  ``run.py`` turns them into per-layer
metrics: call counts, busy time, self time (a span's duration minus its
children's) and latency percentiles.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder for one run.

    A span is ``[name, start, end, parent]``, with ``parent`` the index
    of the enclosing span (-1 at the top).  The run is single-threaded
    (``workers: 1``), so spans nest strictly.  Work done by the
    ``before``/``after`` hooks falls outside the wrapped call's span.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._flows: dict[int, tuple[object, int]] = {}
        self._pair: frozenset | None = None
        self._node = 0
        self._solves: set = set()

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call."""
        static = owner.__dict__.get(attr) if isinstance(owner, type) else None
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = self._open(name)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        # A classmethod is looked up bound to the class; keep it bound.
        replacement = staticmethod(wrapper) if isinstance(static, classmethod) else wrapper
        self._patched.append((owner, attr, static if static is not None else original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- counters fed by the hooks ------------------------------------

    def _flow_key(self, flow) -> int:
        # Holding the array pins its id for the rest of the run.
        entry = self._flows.setdefault(id(flow.states), (flow.states, len(self._flows)))
        return entry[1]

    def enter_flow_pair(self, args) -> None:
        self._pair = frozenset((self._flow_key(args[0]), self._flow_key(args[1])))
        self._node = 0

    def count_solve(self, args, result) -> None:
        self._solves.add((self._pair, self._node))
        self._node += 1
        self.counters["measure.wasserstein2.distinct"] = len(self._solves)

    def add(self, key: str, amount: float) -> None:
        self.counters[key] += amount

    def dump(self, path: Path) -> None:
        doc = {
            "columns": ["run_id", "name", "start", "end", "parent"],
            "spans": [[self.run_id, *s] for s in self.spans],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _size(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the imported program."""
    from fracmv import cli, dynamics, grid, mckean_vlasov, measure, rate_function

    t = tracer
    t.wrap(cli, "picard_solve", "mckean_vlasov.picard_solve",
           after=lambda a, r: t.add("mckean_vlasov.picard_solve.iterations", r.report.iterations))
    t.wrap(mckean_vlasov, "apply_phi", "mckean_vlasov.apply_phi")
    t.wrap(mckean_vlasov, "auto_lambda", "mckean_vlasov.auto_lambda")
    t.wrap(mckean_vlasov, "flow_distance", "mckean_vlasov.flow_distance",
           before=t.enter_flow_pair)
    t.wrap(measure, "wasserstein2", "measure.wasserstein2", after=t.count_solve)
    t.wrap(measure, "linear_sum_assignment", "measure.lsap")
    t.wrap(grid.SpatialGrid, "apply_multiplier", "grid.apply_multiplier",
           after=lambda a, r: t.add("grid.apply_multiplier.bytes_computed",
                                    a[1].nbytes + a[2].nbytes + r.nbytes))
    t.wrap(dynamics.NoisePath, "generate", "dynamics.noise_generate")
    t.wrap(cli, "solve_deterministic", "dynamics.solve_deterministic")
    t.wrap(cli, "estimate_rate", "rate_function.estimate_rate")
    t.wrap(rate_function, "solve_controlled", "dynamics.solve_controlled")

    def lbfgs(args, res):
        t.add("rate_function.lbfgs.nit", res.nit)
        t.add("rate_function.lbfgs.nfev", res.nfev)

    t.wrap(rate_function, "minimize", "rate_function.minimize", after=lbfgs)
    t.wrap(cli, "save_trajectory", "cli.save_trajectory",
           after=lambda a, r: t.add("cli.save_trajectory.bytes", _size(r)))
    t.wrap(cli, "save_measure", "cli.save_measure",
           after=lambda a, r: t.add("cli.save_measure.bytes", _size(r)))


# -- derivation ---------------------------------------------------------

_UNITS = (
    (".calls", "count"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"), (".s", "s"),
    ("bytes", "B"), ("bytes_computed", "B"), (".nit", "count"), (".nfev", "count"),
    (".iterations", "count"),
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name; ratios have no suffix rule."""
    return next((unit for suffix, unit in _UNITS if name.endswith(suffix)), "ratio")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(doc: dict, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced run's span file."""
    spans = doc["spans"]
    durations: dict[str, list[float]] = defaultdict(list)
    child_time = [0.0] * len(spans)
    for _run, name, start, end, parent in spans:
        durations[name].append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    top_level_s = 0.0
    for i, (_run, name, start, end, parent) in enumerate(spans):
        self_s[name] += (end - start) - child_time[i]
        if parent >= 0 and spans[parent][1] == ROOT_SPAN:
            top_level_s += end - start

    def calls(name):
        return float(len(durations[name]))

    def busy(name):
        return float(sum(durations[name]))

    def pct(name, q, scale):
        return _percentile(sorted(durations[name]), q) * scale

    c = defaultdict(float, doc["counters"])
    w2_calls = calls("measure.wasserstein2")
    nit = c["rate_function.lbfgs.nit"]
    return {
        "measure.wasserstein2.calls": w2_calls,
        "measure.wasserstein2.s": busy("measure.wasserstein2"),
        "measure.wasserstein2.p50_us": pct("measure.wasserstein2", 50, 1e6),
        "measure.wasserstein2.p99_us": pct("measure.wasserstein2", 99, 1e6),
        "measure.wasserstein2.distinct_frac": (
            c["measure.wasserstein2.distinct"] / w2_calls if w2_calls else 0.0
        ),
        "measure.lsap.calls": calls("measure.lsap"),
        "measure.lsap.s": busy("measure.lsap"),
        "measure.cost_matrix.s": self_s["measure.wasserstein2"],
        "grid.apply_multiplier.calls": calls("grid.apply_multiplier"),
        "grid.apply_multiplier.s": busy("grid.apply_multiplier"),
        "grid.apply_multiplier.bytes_computed": c["grid.apply_multiplier.bytes_computed"],
        "dynamics.solve_controlled.calls": calls("dynamics.solve_controlled"),
        "dynamics.solve_controlled.s": busy("dynamics.solve_controlled"),
        "dynamics.solve_controlled.p50_ms": pct("dynamics.solve_controlled", 50, 1e3),
        "dynamics.solve_controlled.p99_ms": pct("dynamics.solve_controlled", 99, 1e3),
        "dynamics.noise_generate.calls": calls("dynamics.noise_generate"),
        "dynamics.noise_generate.s": busy("dynamics.noise_generate"),
        "dynamics.solve_deterministic.s": busy("dynamics.solve_deterministic"),
        "mckean_vlasov.apply_phi.calls": calls("mckean_vlasov.apply_phi"),
        "mckean_vlasov.apply_phi.s": busy("mckean_vlasov.apply_phi"),
        "mckean_vlasov.apply_phi.self_s": self_s["mckean_vlasov.apply_phi"],
        "mckean_vlasov.auto_lambda.s": busy("mckean_vlasov.auto_lambda"),
        "mckean_vlasov.flow_distance.calls": calls("mckean_vlasov.flow_distance"),
        "mckean_vlasov.flow_distance.s": busy("mckean_vlasov.flow_distance"),
        "mckean_vlasov.picard_solve.self_s": self_s["mckean_vlasov.picard_solve"],
        "mckean_vlasov.picard_solve.iterations": c["mckean_vlasov.picard_solve.iterations"],
        "rate_function.minimize.calls": calls("rate_function.minimize"),
        "rate_function.minimize.self_s": self_s["rate_function.minimize"],
        "rate_function.lbfgs.nit": nit,
        "rate_function.lbfgs.nfev": c["rate_function.lbfgs.nfev"],
        "rate_function.solves_per_nit": (
            calls("dynamics.solve_controlled") / nit if nit else 0.0
        ),
        "cli.save_trajectory.calls": calls("cli.save_trajectory"),
        "cli.save_trajectory.s": busy("cli.save_trajectory"),
        "cli.save_trajectory.bytes": c["cli.save_trajectory.bytes"],
        "cli.save_measure.s": busy("cli.save_measure"),
        "cli.save_measure.bytes": c["cli.save_measure.bytes"],
        "cli.self_s": self_s[ROOT_SPAN],
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.coverage": top_level_s / traced_wall_s if traced_wall_s > 0 else 0.0,
    }
