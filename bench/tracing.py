"""Per-layer tracing of the CLI, done from outside the program.

``Tracer.installed`` swaps the public functions the CLI reaches for wrappers
that record spans (name, start, end, parent, counts) in memory.  The swap
reaches every rsdlab module that imported the function by name, and is undone
when the block ends.  Per-sample stages are too short to span one by one, so
``replay_samples`` times them in bulk on the workload's own instance and seeds.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from math import fsum
from time import perf_counter, perf_counter_ns

# (module, function, span name, count taken from the return value)
SPANNED = (
    ("cli", "main", "cli.main", None),
    ("instance_io", "load_instance", "instance_io.load", None),
    ("core", "validate", "core.validate", None),
    ("core", "preference_rows", "core.preference_rows", None),
    ("estimate", "estimate_mean", "estimate.call", lambda r: r.k * r.runs),
    ("estimate", "estimate_median_of_means", "estimate.call", lambda r: r.k * r.runs),
    ("exact", "enumerate_rsd", "exact.enumerate", lambda s: s.order_count),
    ("reduction", "build_artifact", "reduction.build_artifact", None),
    ("reduction", "round_trip_matches", "reduction.round_trip", None),
    ("optimal", "solve_opt", "optimal.solve_opt", None),
    ("coverage", "run_coverage", "coverage.run", None),
    ("coverage", "write_coverage_csv", "coverage.csv", None),
)

STAGES = ("rng.substream_us", "rng.permutation_us", "sd.sd_assign_us",
          "estimate.score_us", "estimate.accumulate_us")


class Tracer:
    """Spans kept as ``[name, start_ns, end_ns, parent_index, count]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.sampler_sd_calls = 0  # sd_assign calls made by the estimator
        self._stack: list[int] = []

    def _spanned(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                record[4] = count(result)
            return result

        return wrapper

    def _counted(self, fn):
        def wrapper(*args):
            self.sampler_sd_calls += 1
            return fn(*args)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every SPANNED function wherever an rsdlab module holds it,
        and count the estimator's own ``sd_assign`` calls (memo misses)."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "rsdlab" or name.startswith("rsdlab.")}
        wrappers = {}  # by id of the wrapped function, which its module keeps alive
        for mod_name, fn_name, span, count in SPANNED:
            fn = getattr(modules["rsdlab." + mod_name], fn_name)
            wrappers[id(fn)] = self._spanned(fn, span, count)
        saved = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        estimate = modules["rsdlab.estimate"]
        saved.append((estimate, "sd_assign", estimate.sd_assign))
        estimate.sd_assign = self._counted(estimate.sd_assign)
        try:
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)


def layer_totals(spans: list[list], first: int, sampler_sd_calls: int) -> dict[str, float]:
    """Per-layer totals of one pass, whose spans are ``spans``, the tracer's
    list from index ``first`` on: seconds, counts, and per-item times."""
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= first:
            child_ns[parent - first] += end - start
    for (name, start, end, _, count), children in zip(spans, child_ns):
        inclusive[name] = inclusive.get(name, 0.0) + (end - start) / 1e9
        self_time[name] = self_time.get(name, 0.0) + (end - start - children) / 1e9
        calls[name] = calls.get(name, 0) + 1
        if count is not None:
            counts[name] = counts.get(name, 0) + count

    def incl(name):
        return inclusive.get(name, 0.0)

    samples = counts.get("estimate.call", 0)
    orderings = counts.get("exact.enumerate", 0)
    pref_calls = calls.get("core.preference_rows", 0)
    return {
        "cli.self_s": self_time.get("cli.main", 0.0),
        "instance_io.load_s": incl("instance_io.load"),
        "core.validate_s": incl("core.validate"),
        "core.preference_rows_us": incl("core.preference_rows") / pref_calls * 1e6 if pref_calls else 0.0,
        "estimate.call_s": incl("estimate.call"),
        "estimate.samples": samples,
        "estimate.memo_hit_ratio": 1 - sampler_sd_calls / samples if samples else 0.0,
        "coverage.self_s": self_time.get("coverage.run", 0.0),
        "coverage.csv_s": incl("coverage.csv"),
        "exact.enumerate_s": incl("exact.enumerate"),
        "exact.orderings": orderings,
        "exact.per_ordering_us": incl("exact.enumerate") / orderings * 1e6 if orderings else 0.0,
        "reduction.build_artifact_s": incl("reduction.build_artifact"),
        "reduction.round_trip_s": incl("reduction.round_trip"),
        "optimal.solve_opt_s": incl("optimal.solve_opt"),
    }


def replay_samples(instance, seed: int, runs: int, k: int):
    """Time the per-sample stages of ``runs`` runs of ``k`` samples in bulk.

    Returns each stage's mean microseconds per sample, and the replayed
    per-run means, which must equal the estimator's own run values.
    """
    from rsdlab.core import preference_rows
    from rsdlab.estimate import ExactFloatSum
    from rsdlab.rng import substream
    from rsdlab.sd import sd_assign

    n = instance.n
    prefs = preference_rows(instance)
    payoff = tuple(tuple(float(x) for x in row) for row in instance.payoff_matrix())
    totals = dict.fromkeys(STAGES, 0.0)
    means = []
    for run in range(runs):
        t0 = perf_counter()
        rngs = [substream(seed, run, i) for i in range(k)]
        t1 = perf_counter()
        perms = [tuple(rng.permutation(n)) for rng in rngs]
        t2 = perf_counter()
        matches = [sd_assign(prefs, perm) for perm in perms]
        t3 = perf_counter()
        values = [fsum(payoff[a][match[a]] for a in range(n)) for match in matches]
        t4 = perf_counter()
        acc = ExactFloatSum()
        for value in values:
            acc.add(value)
        t5 = perf_counter()
        means.append(acc.mean(k))
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
            totals[stage] += dt
    return {stage: total / (runs * k) * 1e6 for stage, total in totals.items()}, means
