"""Per-layer metrics of a traced run, computed from its spans.

Each metric is named after the lapasym module and public call it covers.
Times are summed span durations from the pass with spans on; allocation
peaks come from the pass that also runs ``tracemalloc``.  A workload that
makes no call into a layer reports 0 for it.  Which end-to-end metric each
layer metric should move, and on which workload:

* ``lattice_sum.exact_sum.*``: ``wall_s`` on figure1 and large-n; the
  per-call percentiles, sys seconds, minor faults and allocation peak on
  figure1; the per-lattice times and ``scaling_eff`` (t_1 / (nproc t_nproc),
  from large-n's one-worker repeats) on large-n, where they also move
  ``cpu_s``.
* ``lattice_sum.restricted_sum_f2.*``, ``decomposition.*``,
  ``quadrature.*``, ``verify.*``: ``wall_s`` on crosscheck; the allocation
  peaks of the N x N quadrant sums move ``peak_rss_mb`` there.
* ``extrapolation.fit_expansion.s`` and ``cli.cmd_errors.overhead_s``
  (``cmd_errors`` minus the replayed sums and model calls): ``wall_s`` on
  figure1.  The overhead is the difference of two timings of about 8 s
  each; at the seed it reads below zero (the replay, which runs first, is
  the slower of the two), so the CLI's own cost is below its resolution.
  ``trace.overhead_s`` is likewise a difference of two pass times and
  carries their run-to-run noise.
* ``setup.*``: ``setup_s`` on every workload.
* The gaps, ``asymptotics.delta_n``, ``asymptotics.d_n`` and the fit
  residual are accuracy numbers, kept so they can be diffed; they move no
  timing.
"""

from __future__ import annotations

import statistics

from spans import duration
from workloads import WORKERS

BUILTINS = ("square", "triangular", "modified_union_jack")

# name -> (unit, better)
METRICS = {
    "lattice_sum.exact_sum.s": ("s", "lower"),
    "lattice_sum.exact_sum.calls": ("count", "lower"),
    "lattice_sum.exact_sum.terms": ("count", "lower"),
    "lattice_sum.exact_sum.terms_per_s": ("1/s", "higher"),
    "lattice_sum.exact_sum.p50_ms": ("ms", "lower"),
    "lattice_sum.exact_sum.p98_ms": ("ms", "lower"),
    "lattice_sum.exact_sum.sys_s": ("s", "lower"),
    "lattice_sum.exact_sum.minflt": ("count", "lower"),
    "lattice_sum.exact_sum.peak_alloc_mb": ("MB", "lower"),
    "lattice_sum.exact_sum.square.s": ("s", "lower"),
    "lattice_sum.exact_sum.triangular.s": ("s", "lower"),
    "lattice_sum.exact_sum.modified_union_jack.s": ("s", "lower"),
    "lattice_sum.exact_sum.custom.s": ("s", "lower"),
    "lattice_sum.exact_sum.scaling_eff": ("ratio", "higher"),
    "lattice_sum.exact_sum.square.scaling_eff": ("ratio", "higher"),
    "lattice_sum.exact_sum.triangular.scaling_eff": ("ratio", "higher"),
    "lattice_sum.exact_sum.modified_union_jack.scaling_eff": ("ratio", "higher"),
    "lattice_sum.restricted_sum_f2.s": ("s", "lower"),
    "lattice_sum.restricted_sum_f2.peak_alloc_mb": ("MB", "lower"),
    "decomposition.piece_sums.s": ("s", "lower"),
    "decomposition.piece_sums.peak_alloc_mb": ("MB", "lower"),
    "decomposition.double_sum_via_digamma.s": ("s", "lower"),
    "quadrature.integral_f2_restricted.s": ("s", "lower"),
    "quadrature.integral_f2_restricted.evals": ("count", "lower"),
    "verify.specfun.s": ("s", "lower"),
    "verify.quadrature.s": ("s", "lower"),
    "verify.identities.s": ("s", "lower"),
    "verify.asymptotics.s": ("s", "lower"),
    "verify.checks_failed": ("count", "lower"),
    "extrapolation.fit_expansion.s": ("s", "lower"),
    "extrapolation.fit_expansion.condition": ("ratio", "lower"),
    "cli.cmd_errors.overhead_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.numpy_import_s": ("s", "lower"),
    "decomposition.identity.max_rel_gap": ("rel", "lower"),
    "decomposition.digamma_route.max_rel_gap": ("rel", "lower"),
    "asymptotics.delta_n": ("1", "higher"),
    "asymptotics.d_n": ("1", "lower"),
    "extrapolation.fit_expansion.residual_max": ("1", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.tracemalloc_overhead_s": ("s", "lower"),
}


def _named(spans, name, **match):
    return [s for s in spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())]


def _seconds(spans) -> float:
    return sum(duration(s) for s in spans)


def _peak_mb(spans) -> float:
    return max((s["peak_alloc_b"] for s in spans), default=0) / 2 ** 20


def _quantile(values, q: int) -> float:
    """q-th percentile (inclusive method); the single value for one sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def round_metrics(passes: dict, accuracy: list[dict]) -> dict[str, float]:
    """Metrics of one round: passes maps 'off'/'spans'/'alloc' to (wall, spans)."""
    wall_off, _ = passes["off"]
    wall_spans, spans = passes["spans"]
    wall_alloc, alloc = passes["alloc"]
    m: dict[str, float] = {}

    sums = _named(spans, "lattice_sum.exact_sum", workers=WORKERS, single_thread=None)
    sums_alloc = _named(alloc, "lattice_sum.exact_sum", workers=WORKERS,
                        single_thread=None)
    busy = _seconds(sums)
    terms = sum(s.get("terms", 0) for s in sums)
    per_call_ms = [duration(s) * 1e3 for s in sums]
    m["lattice_sum.exact_sum.s"] = busy
    m["lattice_sum.exact_sum.calls"] = len(sums)
    m["lattice_sum.exact_sum.terms"] = terms
    m["lattice_sum.exact_sum.terms_per_s"] = terms / busy if busy else 0.0
    m["lattice_sum.exact_sum.p50_ms"] = _quantile(per_call_ms, 50)
    m["lattice_sum.exact_sum.p98_ms"] = _quantile(per_call_ms, 98)
    m["lattice_sum.exact_sum.sys_s"] = sum(s["sys_s"] for s in sums)
    m["lattice_sum.exact_sum.minflt"] = sum(s["minflt"] for s in sums)
    m["lattice_sum.exact_sum.peak_alloc_mb"] = _peak_mb(sums_alloc)
    for lattice in BUILTINS + ("custom",):
        m[f"lattice_sum.exact_sum.{lattice}.s"] = _seconds(
            [s for s in sums if s["lattice"] == lattice])

    serial_total = parallel_total = 0.0
    for lattice in BUILTINS:
        serial = _seconds(_named(spans, "lattice_sum.exact_sum", lattice=lattice,
                                 single_thread=True))
        parallel = m[f"lattice_sum.exact_sum.{lattice}.s"]
        eff = serial / (WORKERS * parallel) if serial and parallel else 0.0
        m[f"lattice_sum.exact_sum.{lattice}.scaling_eff"] = eff
        if eff:
            serial_total += serial
            parallel_total += parallel
    m["lattice_sum.exact_sum.scaling_eff"] = (
        serial_total / (WORKERS * parallel_total) if parallel_total else 0.0)

    for name in ("lattice_sum.restricted_sum_f2", "decomposition.piece_sums"):
        m[f"{name}.s"] = _seconds(_named(spans, name))
        m[f"{name}.peak_alloc_mb"] = _peak_mb(_named(alloc, name))
    m["decomposition.double_sum_via_digamma.s"] = _seconds(
        _named(spans, "decomposition.double_sum_via_digamma"))
    quad = _named(spans, "quadrature.integral_f2_restricted")
    m["quadrature.integral_f2_restricted.s"] = _seconds(quad)
    m["quadrature.integral_f2_restricted.evals"] = sum(s.get("evals", 0) for s in quad)

    failed = 0
    for suite in ("specfun", "quadrature", "identities", "asymptotics"):
        suite_spans = _named(spans, f"verify.{suite}")
        m[f"verify.{suite}.s"] = _seconds(suite_spans)
        failed += sum(s.get("failed", 0) for s in suite_spans)
    m["verify.checks_failed"] = failed

    fits = _named(spans, "extrapolation.fit_expansion")
    m["extrapolation.fit_expansion.s"] = _seconds(fits)
    m["extrapolation.fit_expansion.condition"] = max(
        (s["condition"] for s in fits), default=0.0)
    m["extrapolation.fit_expansion.residual_max"] = max(
        (s["residual_max"] for s in fits), default=0.0)

    cmd = _named(spans, "cli.cmd_errors")
    replayed = busy + _seconds(_named(spans, "asymptotics.ExpansionForm.evaluate"))
    m["cli.cmd_errors.overhead_s"] = _seconds(cmd) - replayed if cmd else 0.0
    m["cli.csv_bytes"] = sum(s.get("csv_bytes", 0) for s in cmd)

    ladder = [a for a in accuracy if "identity_gap" in a]
    m["decomposition.identity.max_rel_gap"] = max(
        (a["identity_gap"] for a in ladder), default=0.0)
    m["decomposition.digamma_route.max_rel_gap"] = max(
        (a["digamma_route_gap"] for a in ladder), default=0.0)
    top = max((a for a in ladder if a["n0"] == 0), key=lambda a: a["n"], default=None)
    m["asymptotics.delta_n"] = top["Delta_n"] if top else 0.0
    m["asymptotics.d_n"] = top["D_n"] if top else 0.0

    m["trace.overhead_s"] = wall_spans - wall_off
    m["trace.tracemalloc_overhead_s"] = wall_alloc - wall_spans
    return m


def summarize(rounds: list[dict], setup_s: float,
              import_split: dict[str, float]) -> dict[str, dict]:
    """Median of each metric over the rounds, in the result's format."""
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values["setup.import_s"] = setup_s
    values["setup.numpy_import_s"] = import_split["numpy"]
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in METRICS.items()}
