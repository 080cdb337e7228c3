"""What ``BENCHMARK.json`` cannot hold about the benchmark's metrics.

Names, units and directions of the gated end-to-end metrics and of the
per-layer metrics live in ``BENCHMARK.json``; ``run.py`` reads them from
there.  This module adds, for every end-to-end metric the report prints,
the kind of time it measures (host: what our Python costs; virtual: the
modelled cluster), the workloads it applies to and its meaning, plus the
units of the metrics that are printed but not gated (a gated metric
must be reported, and never 0, on every workload).  For every per-layer
metric it records the end-to-end metric and workload it should move,
and the workloads where its layer does the most and the least work.
"""

from __future__ import annotations

ALL = ("wcc64", "udf_chain", "serve", "heal", "rescale")

#: name -> (kind, workloads, meaning), in report order.
END_TO_END = {
    "setup_s": ("host", ALL, "build ClusterComputation + dataflow + build() (+ sessions / supervisor)"),
    "wall_s": ("host", ALL, "first input to drained, tracing off"),
    "virtual_s": ("virtual", ALL, "modelled completion time"),
    "peak_rss_mb": ("host", ALL, "peak resident memory of the run's process"),
    "fail_ratio": ("-", ALL, "wrong, missing or unanswered outputs / attempted"),
    "fresh_p50_ms": ("virtual", ("serve",), "fresh-SLO latency from scheduled arrival"),
    "fresh_p999_ms": ("virtual", ("serve",), "fresh-SLO latency from scheduled arrival"),
    "stale_p999_ms": ("virtual", ("serve",), "stale(bound)-SLO latency from scheduled arrival"),
    "mttd_ms": ("virtual", ("heal",), "crash to suspicion"),
    "mttr_ms": ("virtual", ("heal",), "crash to workers ready"),
    "worst_stall_ms": ("virtual", ("heal",), "largest gap between consecutive output releases"),
}

#: Units of the end-to-end metrics that are printed but not gated.
REPORT_ONLY_UNITS = {
    "fail_ratio": "ratio",
    "fresh_p50_ms": "ms",
    "fresh_p999_ms": "ms",
    "stale_p999_ms": "ms",
    "mttd_ms": "ms",
    "mttr_ms": "ms",
    "worst_stall_ms": "ms",
}

#: Metrics the report names but cannot measure yet, with the reason.
NOT_MEASURED = {
    "worst_stall_ms": "heal feeds its epochs at time zero, so they release together at "
                      "the end; paced epochs hit a program defect (CHANGES.md)",
}

#: name -> (should move, most work, least work), in report order.
PER_LAYER = {
    "des.events": ("wall_s", "wcc64", "udf_chain"),
    "des.heap_pushes": ("wall_s", "wcc64", "udf_chain"),
    "des.lane_pushes": ("wall_s", "wcc64", "udf_chain"),
    "des.self_s": ("wall_s", "wcc64", "udf_chain"),
    "cluster.self_s": ("wall_s", "wcc64, serve", "udf_chain"),
    "cluster.deliveries": ("wall_s", "wcc64, serve", "udf_chain"),
    "cluster.notifications": ("wall_s", "wcc64, serve", "udf_chain"),
    "protocol.self_s": ("wall_s wcc64", "wcc64", "udf_chain"),
    "protocol.submits": ("wall_s wcc64", "wcc64", "udf_chain"),
    "protocol.hold_evals": ("wall_s wcc64", "wcc64", "udf_chain"),
    "protocol.hold_memo_hit_ratio": ("wall_s wcc64", "wcc64", "udf_chain"),
    "protocol.msgs": ("virtual_s wcc64, fresh_p999_ms serve", "wcc64", "udf_chain"),
    "protocol.bytes": ("virtual_s wcc64, fresh_p999_ms serve", "wcc64", "udf_chain"),
    "progress.self_s": ("wall_s wcc64", "wcc64", "udf_chain"),
    "progress.calls": ("wall_s wcc64", "wcc64", "udf_chain"),
    "network.self_s": ("wall_s", "wcc64", "udf_chain"),
    "network.data_msgs": ("virtual_s wcc64", "wcc64", "udf_chain"),
    "network.data_bytes": ("virtual_s wcc64", "wcc64", "udf_chain"),
    "network.cost_calls": ("wall_s", "wcc64", "udf_chain"),
    "vertex.self_s": ("wall_s udf_chain", "udf_chain", "wcc64"),
    "vertex.calls": ("wall_s udf_chain", "udf_chain", "wcc64"),
    "vertex.share": ("wall_s udf_chain", "udf_chain", "wcc64"),
    "pool.tasks": ("wall_s udf_chain", "udf_chain", "wcc64"),
    "pool.wait_s": ("wall_s udf_chain", "udf_chain", "wcc64"),
    "opt.physical_stages": ("des.events -> wall_s wcc64", "wcc64", "-"),
    "serve.self_s": ("wall_s, fresh_p999_ms serve", "serve", "others (absent)"),
    "serve.queries": ("wall_s, fresh_p999_ms serve", "serve", "others (absent)"),
    "serve.queries_per_batch": ("wall_s, fresh_p999_ms serve", "serve", "others (absent)"),
    "arrangement.entries": ("wall_s, fresh_p999_ms serve", "serve", "others (absent)"),
    "checkpoint.cuts": ("wall_s, mttr_ms, worst_stall_ms heal", "heal, rescale", "others (absent)"),
    "checkpoint.self_s": ("wall_s, mttr_ms, worst_stall_ms heal", "heal, rescale", "others (absent)"),
    "recovery.self_s": ("wall_s, mttr_ms, worst_stall_ms heal", "heal, rescale", "others (absent)"),
    "recovery.partial_rollbacks": ("mttr_ms, worst_stall_ms heal", "heal", "others (absent)"),
    "supervisor.heartbeats": ("wall_s, mttd_ms heal", "heal", "others (absent)"),
    "supervisor.self_s": ("wall_s, mttd_ms heal", "heal", "others (absent)"),
    "supervisor.suspicions": ("wall_s, mttd_ms heal", "heal", "others (absent)"),
    "supervisor.false_suspicions": ("wall_s, mttd_ms heal", "heal", "others (absent)"),
    "rescale.blip_ms": ("wall_s, virtual_s rescale", "rescale", "others (absent)"),
    "rescale.moved_workers": ("wall_s, virtual_s rescale", "rescale", "others (absent)"),
    "trace.overhead_ratio": ("-", "all", "-"),
}

#: Layers whose self time comes from spans: layer -> metric.
SELF_TIME = {
    "des": "des.self_s",
    "cluster": "cluster.self_s",
    "protocol": "protocol.self_s",
    "progress": "progress.self_s",
    "network": "network.self_s",
    "vertex": "vertex.self_s",
    "serve": "serve.self_s",
    "checkpoint": "checkpoint.self_s",
    "recovery": "recovery.self_s",
    "supervisor": "supervisor.self_s",
}
