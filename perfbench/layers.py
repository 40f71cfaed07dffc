"""The traced functions of each wignerlab module and the per-layer metrics
computed from their spans.  Counts and times are for one set-up plus one
round of the workload; ``max_*`` and ``peak_mb`` are the largest value seen
in the run."""

from __future__ import annotations

import numpy as np

from tracing import Target, Tracer

REP_BUILDERS = (
    "su2_irrep", "su2_fundamental", "su3_rep", "su3_fundamental", "u1_rep", "cyclic_rep",
    "quaternion_rep", "finite_rep", "trivial_rep", "direct_sum_rep", "product_rep",
    "rep_from_config",
)

CLI_COMMANDS = {
    "cmd_wigner_verify": "wigner-verify",
    "cmd_invariant_state": "invariant-state",
    "cmd_crossed": "crossed",
    "cmd_entropy": "entropy",
    "cmd_bundle": "bundle",
}


def _max_cols(tracer: Tracer, args, kwargs):
    tracer.keep_max("matrixcore.null_space.max_cols", np.shape(args[0])[-1])
    return args, kwargs


def _count_nodes(tracer: Tracer, args, kwargs):
    f = args[0] if args else kwargs.pop("f")

    def counted(el):
        tracer.add("groups.haar_quadrature_su2.nodes")
        return f(el)

    return (counted, *args[1:]), kwargs


def _count_samples(tracer: Tracer, args, kwargs):
    count = args[2] if len(args) > 2 else kwargs["count"]
    tracer.add("groups.haar_sample.samples", count)
    return args, kwargs


def _repair_magnitude(tracer: Tracer, result):
    tracer.keep_max("states.repair_psd.max_magnitude", result[1])


def _generator_count(tracer: Tracer, result):
    tracer.add("crossed.spanning_generators.count", len(result))


def _fibres(tracer: Tracer, result):
    tracer.add("bundle.fibres", len(result.points))


def _count_only(key: str):
    def on_call(tracer: Tracer, args, kwargs):
        tracer.add(key)
        return args, kwargs
    return on_call


def targets() -> list[Target]:
    t = [
        Target("wignerlab.matrixcore", "null_space", "matrixcore.null_space", on_call=_max_cols),
        Target("wignerlab.matrixcore", "commutant", "matrixcore.commutant", peak=True),
        Target("wignerlab.matrixcore", "pairwise_mean", "matrixcore.pairwise_mean"),
        Target("wignerlab.groups", "element_unitary", "groups.element_unitary"),
        Target("wignerlab.groups", "haar_quadrature_su2", "groups.haar_quadrature_su2",
               on_call=_count_nodes),
        Target("wignerlab.groups", "haar_sample", "groups.haar_sample", on_call=_count_samples),
        Target("wignerlab.states", "haar_average", "states.haar_average"),
        Target("wignerlab.states", "pullback", "states.pullback"),
        Target("wignerlab.states", "invariance_residual", "states.invariance_residual"),
        Target("wignerlab.states", "repair_psd", "states.repair_psd", on_return=_repair_magnitude),
        Target("wignerlab.wigner", "verify_wigner_identity", "wigner.verify_wigner_identity"),
        Target("wignerlab.wigner", "wigner_subspace", "wigner.wigner_subspace"),
        Target("wignerlab.wigner", "intersect_stacked", "wigner.intersect_stacked"),
        Target("wignerlab.wigner", "intersect_alternating", "wigner.intersect_alternating"),
        Target("wignerlab.wigner", "averaged_superop", "wigner.averaged_superop"),
        Target("wignerlab.wigner", "cesaro_fixed_point", "wigner.cesaro_fixed_point"),
        # one residual per Cesaro window plus one for the starting state
        Target("wignerlab.wigner", "trace_norm", "wigner.trace_norm", span=False,
               on_call=_count_only("wigner.trace_norm.calls"), only_module=True),
        Target("wignerlab.crossed", "algebra_closure", "crossed.algebra_closure", peak=True),
        Target("wignerlab.crossed", "spanning_generators", "crossed.spanning_generators",
               on_return=_generator_count),
        Target("wignerlab.crossed", "covariance_check", "crossed.covariance_check"),
        Target("wignerlab.crossed", "tensor_iso_check", "crossed.tensor_iso_check"),
        Target("wignerlab.bundle", "assign_invariant_field", "bundle.assign_invariant_field",
               on_return=_fibres),
        Target("wignerlab.bundle", "_average_one", "bundle.average_one", span=False,
               on_call=_count_only("bundle.average_attempts"), only_module=True),
        Target("wignerlab.entropy", "vn_entropy", "entropy.vn_entropy"),
        Target("wignerlab.entropy", "partition_entropy", "entropy.partition_entropy"),
    ]
    t += [Target("wignerlab.groups", name, "groups.rep_build") for name in REP_BUILDERS]
    t += [Target("wignerlab.cli", fn, f"cli.{sub}") for fn, sub in CLI_COMMANDS.items()]
    return t


# (metric, unit): "<span>.calls", "<span>.self_s" and "<span>.peak_mb" are
# span statistics, _MAXIMA are largest values, the rest are counters
PER_LAYER = [
    ("matrixcore.null_space.calls", "count"),
    ("matrixcore.null_space.self_s", "s"),
    ("matrixcore.null_space.max_cols", "count"),
    ("matrixcore.commutant.calls", "count"),
    ("matrixcore.commutant.self_s", "s"),
    ("matrixcore.commutant.peak_mb", "MB"),
    ("matrixcore.pairwise_mean.self_s", "s"),
    ("groups.element_unitary.calls", "count"),
    ("groups.element_unitary.self_s", "s"),
    ("groups.haar_quadrature_su2.nodes", "count"),
    ("groups.haar_quadrature_su2.self_s", "s"),
    ("groups.haar_sample.samples", "count"),
    ("groups.haar_sample.self_s", "s"),
    ("groups.rep_build.self_s", "s"),
    ("states.haar_average.calls", "count"),
    ("states.haar_average.self_s", "s"),
    ("states.pullback.calls", "count"),
    ("states.pullback.self_s", "s"),
    ("states.invariance_residual.self_s", "s"),
    ("states.repair_psd.calls", "count"),
    ("states.repair_psd.self_s", "s"),
    ("states.repair_psd.max_magnitude", "tracenorm"),
    ("wigner.verify_wigner_identity.self_s", "s"),
    ("wigner.wigner_subspace.calls", "count"),
    ("wigner.intersect_stacked.self_s", "s"),
    ("wigner.intersect_alternating.self_s", "s"),
    ("wigner.averaged_superop.calls", "count"),
    ("wigner.cesaro_fixed_point.self_s", "s"),
    ("wigner.cesaro_fixed_point.windows", "count"),
    ("crossed.algebra_closure.self_s", "s"),
    ("crossed.algebra_closure.peak_mb", "MB"),
    ("crossed.spanning_generators.count", "count"),
    ("crossed.covariance_check.self_s", "s"),
    ("crossed.tensor_iso_check.self_s", "s"),
    ("bundle.assign_invariant_field.self_s", "s"),
    ("bundle.fibres", "count"),
    ("bundle.average_attempts", "count"),
    ("entropy.vn_entropy.calls", "count"),
    ("entropy.vn_entropy.self_s", "s"),
    ("entropy.partition_entropy.calls", "count"),
    ("entropy.partition_entropy.self_s", "s"),
] + [(f"cli.{sub}.self_s", "s") for sub in CLI_COMMANDS.values()] + [
    ("cli.startup_s", "s"),
    ("bench.trace_overhead_s", "s"),
]

_MAXIMA = {"matrixcore.null_space.max_cols", "states.repair_psd.max_magnitude"}


def per_layer(parts: list[tuple[Tracer, int]], extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric, summed over (tracer, rounds) parts with each
    part's counts and times divided by its rounds; names that are not span
    statistics come from ``extra`` (0 when a workload has none)."""
    out = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    for tracer, rounds in parts:
        totals = tracer.totals()
        counts = dict(tracer.counts)
        counts["wigner.cesaro_fixed_point.windows"] = (
            counts.get("wigner.trace_norm.calls", 0.0)
            - totals.get("wigner.cesaro_fixed_point", {}).get("calls", 0))
        for name in out:
            span, _, stat = name.rpartition(".")
            if name in _MAXIMA:
                out[name] = max(out[name], tracer.maxima.get(name, 0.0))
            elif stat == "peak_mb":
                out[name] = max(out[name], totals.get(span, {}).get("peak_mb", 0.0))
            elif stat in ("calls", "self_s") and span in totals:
                out[name] += totals[span][stat] / rounds
            else:
                out[name] += counts.get(name, 0.0) / rounds
    out.update(extra)
    return out
