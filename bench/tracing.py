"""Span recording around trajbound's public functions, from outside the package.

`install` replaces each traced function at every name its callers look it up
under (the package imports names directly, so `trajbound.experiments.train`
and `trajbound.optim.train` are separate lookups of one function). Spans are
kept in memory as parallel lists and written once, after the command ends.

`layer_stats` turns a span file into per-layer totals: calls, busy time and
self time (a span's duration minus the time its direct child spans cover).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span store: name, start, end and parent index per span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack = [-1]

    def wrap(self, fn, name, on_call=None):
        """Return `fn` recording one span per call.

        `name` is a string, or a function of the call's arguments returning
        one; `on_call(args, kwargs)` may update counters before the call.
        """
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            i = len(starts)
            names.append(name if isinstance(name, str) else name(args, kwargs))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        doc = {
            "run_id": self.run_id,
            "names": table,
            "spans": [[index[n], s, e, p] for n, s, e, p in
                      zip(self.names, self.starts, self.ends, self.parents)],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported trajbound package."""
    from trajbound import bounds, config, experiments, models, optim, trajectory
    from trajbound.trajectory import TrajectoryRecorder

    def patch(name, fn, *homes, on_call=None):
        traced = tracer.wrap(fn, name, on_call)
        for mod in homes:
            setattr(mod, fn.__name__, traced)

    # Datasets that assemble_run handed out, by identity, to split the
    # per-sample gradient passes into S and S'. The list keeps them alive so
    # an id is never reused within the run.
    kept, role = [], {}
    assemble_run = experiments.assemble_run

    @functools.wraps(assemble_run)
    def assemble(*args, **kwargs):
        parts = assemble_run(*args, **kwargs)
        kept.append(parts)
        role[id(parts.S)] = "S"
        role[id(parts.S_prime)] = "Sprime"
        return parts

    patch("experiments.assemble_run", assemble, experiments)

    psg_params = list(inspect.signature(models.per_sample_grads).parameters)

    def psg_data(args, kwargs):
        bound = dict(zip(psg_params, args), **kwargs)
        return bound["w"], bound["data"]

    def psg_name(args, kwargs):
        return "models.per_sample_grads." + role.get(id(psg_data(args, kwargs)[1]),
                                                     "other")

    def psg_count(args, kwargs):
        w, data = psg_data(args, kwargs)
        tracer.counters["models.per_sample_grads.rows"] += data.n
        tracer.counters["models.per_sample_grads.bytes"] += data.n * w.size * 8

    patch(psg_name, models.per_sample_grads, trajectory, bounds, on_call=psg_count)
    patch("optim.train", optim.train, optim, experiments)
    patch("optim.step", optim.step, optim)
    patch("models.grad_mean_xy", optim.grad_mean_xy, optim)
    patch("models.losses_batch", models.losses_batch, models, trajectory)
    patch("models.hessian_vector_product", models.hessian_vector_product,
          experiments, bounds)
    patch("trajectory.signed_mean_norm_stats", trajectory.signed_mean_norm_stats,
          trajectory, bounds)
    patch("trajectory.subset_ratio_max", trajectory.subset_ratio_max,
          trajectory, bounds)
    patch("bounds.estimate_constants", bounds.estimate_constants, experiments)
    for fn in (bounds.bound_trajectory_main, bounds.bound_trajectory_smooth,
               bounds.bound_trajectory_relaxed, bounds.bound_stability_baseline,
               bounds.write_bounds_csv):
        patch("bounds.report", fn, experiments)
    patch("config.parse_config", config.parse_config, config)
    patch("data.generate_toy", experiments.generate_toy, experiments)
    TrajectoryRecorder.__call__ = tracer.wrap(TrajectoryRecorder.__call__,
                                              "trajectory.recorder")

    power = experiments.power_iteration_top_eig
    power_sig = inspect.signature(power)

    def counted_power(*args, **kwargs):
        bound = power_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        inner = bound.arguments["apply"]
        applies = [0]

        def apply(v):
            applies[0] += 1
            return inner(v)

        bound.arguments["apply"] = apply
        tracer.counters["numerics.power_iteration.solves"] += 1
        try:
            return power(*bound.args, **bound.kwargs)
        finally:
            tracer.counters["numerics.power_iteration.applies"] += applies[0]
            # One apply per iteration, plus a final one only when the loop
            # ran out of iterations without meeting tol.
            if applies[0] > bound.arguments["iters"]:
                tracer.counters["numerics.power_iteration.capped"] += 1

    patch("numerics.power_iteration", functools.wraps(power)(counted_power),
          experiments, bounds)


def load_spans(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_tree(doc: dict) -> None:
    """Raise ValueError unless the spans form a well-nested call tree.

    Every span ends after it starts, lies inside its parent, and starts after
    its previous sibling ended; parents precede their children.
    """
    spans = doc["spans"]
    last_end: dict[int, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if not 0 <= name < len(doc["names"]):
            raise ValueError(f"span {i}: name index {name} out of range")
        if not start <= end:
            raise ValueError(f"span {i}: ends before it starts")
        if not -1 <= parent < i:
            raise ValueError(f"span {i}: parent {parent} does not precede it")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if not (p_start <= start and end <= p_end):
                raise ValueError(f"span {i}: not inside parent {parent}")
        if start < last_end.get(parent, float("-inf")):
            raise ValueError(f"span {i}: overlaps its previous sibling")
        last_end[parent] = end


def layer_stats(doc: dict) -> dict[str, float]:
    """Per-name `.calls`, `.busy_s` and `.self_s`, plus the recorded counters.

    Siblings never overlap (check_tree), so the time a span's children cover
    is the sum of their durations.
    """
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, float] = defaultdict(int)
    for (name, start, end, _), covered in zip(spans, child_time):
        key = doc["names"][name]
        stats[key + ".calls"] += 1
        stats[key + ".busy_s"] += end - start
        stats[key + ".self_s"] += end - start - covered
    stats.update(doc["counters"])
    return dict(stats)
