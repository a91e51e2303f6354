"""Which chronoforest functions the traced run wraps, and what it counts.

Each span is named ``<layer>.<fn>`` after the package module the function
lives in.  Every wrapper is installed where its caller looks it up (the
CLI's imported names, the experiment module's globals, class attributes),
so the traced run executes the same code as the untraced one plus the
recorder.  ``lukasiewicz`` has no span: no workload reaches it (``verify``,
its only caller on a hot path, is deliberately not a workload).
"""

from __future__ import annotations

from spans import Tracer

SPANS = [
    "cli.main",
    "cli.parse_law",
    "measures.to_sticks",
    "forest.build_forest",
    "forest.contour_path",
    "forest.write_forest_csv",
    "forest.write_contour_csv",
    "forest.contour_eval",
    "forest.contour_min_on",
    "spine.height_profile_arrays",
    "laws.sample_batch",
    "renewal.sample_vhat",
    "coupling.run_coupling_many",
    "coupling.run_coupling",
    "experiments.scaling_experiment",
    "experiments.simulate_replicate",
    "experiments.write_csv",
    "experiments.summary",
    "experiments.max_rise_in_window",
]

# count metrics: name -> (unit, better)
COUNTS = {
    "spine.kernel_sticks": ("count", "lower"),
    "spine.kernel_rework_ratio": ("ratio", "lower"),
    "spine.kernel_bytes_computed": ("bytes", "lower"),
    "measures.point_measures": ("count", "lower"),
    "forest.csv_bytes": ("bytes", "lower"),
    "experiments.sample_rounds_per_replicate": ("ratio", "lower"),
    "coupling.stream_elements": ("count", "lower"),
    "coupling.meet_steps": ("count", "lower"),
    "coupling.decided_share": ("share", "higher"),
    "coupling.event_share": ("share", "higher"),
    "laws.sticks_sampled": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in report order."""
    out = []
    for span in SPANS:
        out += [
            (f"{span}.s", "s", "lower"),
            (f"{span}.self_s", "s", "lower"),
            (f"{span}.calls", "count", "lower"),
        ]
    out += [(name, unit, better) for name, (unit, better) in COUNTS.items()]
    return out


# -- tallies: counts recorded at the span boundaries ------------------------

def _tally_sample_batch(tr: Tracer, args, kwargs, batch) -> None:
    tr.count("laws.sticks_sampled", batch.n)
    if tr.is_open("experiments.simulate_replicate"):
        tr.count("experiments.sample_rounds")


def _tally_measure(tr: Tracer, args, kwargs, result) -> None:
    tr.count("measures.point_measures")
    if tr.is_open("coupling.run_coupling"):
        tr.count("coupling.stream_elements")


def _tally_coupling(tr: Tracer, args, kwargs, result) -> None:
    tr.count("coupling.replicas")
    if result.status != "undecided":
        tr.count("coupling.decided")
    if result.event:
        tr.count("coupling.events")
    if result.meet_time is not None:
        tr.count("coupling.meet_steps", result.meet_time)


def _tally_csv(tr: Tracer, args, kwargs, result) -> None:
    tr.count("forest.csv_bytes", args[1].tell())


def patches(tr: Tracer, mods) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every wrapped boundary."""
    cli, forest, spine = mods.cli, mods.forest, mods.spine
    laws, coupling, experiments = mods.laws, mods.coupling, mods.experiments
    # sticks of the last kernel call inside the open replicate: a replicate
    # re-runs the kernel on its whole population after each extension
    # round, and only its last call covers the final population
    last_kernel = [0]

    def tally_kernel(tr: Tracer, args, kwargs, result) -> None:
        counts, offsets, ages = args
        heights, depths = result
        tr.count("spine.kernel_sticks", len(counts))
        # bytes the kernel reads and writes, computed from the array sizes
        tr.count(
            "spine.kernel_bytes_computed",
            counts.nbytes + offsets.nbytes + ages.nbytes + heights.nbytes + depths.nbytes,
        )
        if tr.is_open("experiments.simulate_replicate"):
            last_kernel[0] = len(counts)
        else:
            tr.count("spine.final_sticks", len(counts))

    def tally_replicate(tr: Tracer, args, kwargs, result) -> None:
        tr.count("spine.final_sticks", last_kernel[0])
        last_kernel[0] = 0

    def span(name, owner, attr, tally=None):
        return tr.wrap(name, owner.__dict__[attr], tally)

    build = span("forest.build_forest", forest, "build_forest")
    contour = span("forest.contour_path", forest, "contour_path")
    kernel = span("spine.height_profile_arrays", spine, "height_profile_arrays", tally_kernel)
    return [
        (cli, "main", span("cli.main", cli, "main")),
        (cli, "parse_law", span("cli.parse_law", cli, "parse_law")),
        (cli, "build_forest", build),
        (forest, "build_forest", build),
        (cli, "contour_path", contour),
        (forest, "contour_path", contour),
        (cli, "write_forest_csv",
         span("forest.write_forest_csv", cli, "write_forest_csv", _tally_csv)),
        (cli, "write_contour_csv",
         span("forest.write_contour_csv", cli, "write_contour_csv", _tally_csv)),
        (forest.ContourPath, "eval", span("forest.contour_eval", forest.ContourPath, "eval")),
        (forest.ContourPath, "min_on",
         span("forest.contour_min_on", forest.ContourPath, "min_on")),
        (laws.StickBatch, "to_sticks", span("measures.to_sticks", laws.StickBatch, "to_sticks")),
        (laws.StickBatch, "measure", tr.counter(laws.StickBatch.__dict__["measure"], _tally_measure)),
        (laws.StickLaw, "sample_batch",
         span("laws.sample_batch", laws.StickLaw, "sample_batch", _tally_sample_batch)),
        (spine, "height_profile_arrays", kernel),
        (experiments, "height_profile_arrays", kernel),
        (experiments, "simulate_replicate",
         span("experiments.simulate_replicate", experiments, "simulate_replicate", tally_replicate)),
        (experiments, "scaling_experiment",
         span("experiments.scaling_experiment", experiments, "scaling_experiment")),
        (experiments, "max_rise_in_window",
         span("experiments.max_rise_in_window", experiments, "max_rise_in_window")),
        (experiments.ExperimentResult, "write_csv",
         span("experiments.write_csv", experiments.ExperimentResult, "write_csv")),
        (experiments.ExperimentResult, "summary",
         span("experiments.summary", experiments.ExperimentResult, "summary")),
        (coupling, "run_coupling", span("coupling.run_coupling", coupling, "run_coupling", _tally_coupling)),
        (coupling, "run_coupling_many",
         span("coupling.run_coupling_many", coupling, "run_coupling_many")),
        (coupling, "sample_vhat", span("renewal.sample_vhat", coupling, "sample_vhat")),
    ]


def per_layer_metrics(tr: Tracer, traced_passes: int, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric; sums are per traced pass."""
    totals = tr.span_totals()
    c = tr.counts
    per = 1.0 / traced_passes
    out: dict[str, float] = {}
    for name in SPANS:
        t = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        out[f"{name}.s"] = t["s"] * per
        out[f"{name}.self_s"] = t["self_s"] * per
        out[f"{name}.calls"] = t["calls"] * per

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    replicates = totals.get("experiments.simulate_replicate", {"calls": 0})["calls"]
    out.update(
        {
            "spine.kernel_sticks": c["spine.kernel_sticks"] * per,
            "spine.kernel_rework_ratio": ratio(c["spine.kernel_sticks"], c["spine.final_sticks"]),
            "spine.kernel_bytes_computed": c["spine.kernel_bytes_computed"] * per,
            "measures.point_measures": c["measures.point_measures"] * per,
            "forest.csv_bytes": c["forest.csv_bytes"] * per,
            "experiments.sample_rounds_per_replicate": ratio(c["experiments.sample_rounds"], replicates),
            "coupling.stream_elements": c["coupling.stream_elements"] * per,
            "coupling.meet_steps": c["coupling.meet_steps"] * per,
            "coupling.decided_share": ratio(c["coupling.decided"], c["coupling.replicas"]),
            "coupling.event_share": ratio(c["coupling.events"], c["coupling.replicas"]),
            "laws.sticks_sampled": c["laws.sticks_sampled"] * per,
            "trace.overhead_s": overhead_s,
            "trace.spans": len(tr.start) * per,
        }
    )
    return out
