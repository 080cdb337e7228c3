"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` with a cleaned environment; prints one JSON
object on its last line of output.  Untraced, it sets the workload up
``--setups`` times (timing each) and drives the last one; traced, it
installs the span instrumentation first, sets up once and drives under
the root span, then writes the spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from time import perf_counter

import metrics
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.part)

    recorder = instrumentation = None
    if args.trace:
        from spans import Instrumentation, SpanRecorder

        recorder = SpanRecorder()
        instrumentation = Instrumentation(recorder).install()

    setup_s = []
    run = None
    for _ in range(1 if args.trace else args.setups):
        if run is not None:
            run.comp.close()
        # Collect the previous set-up's garbage outside the timed region,
        # so every sample starts as clean as the first.
        run = None
        gc.collect()
        started = perf_counter()
        run = workload.setup(inputs)
        setup_s.append(perf_counter() - started)

    started = perf_counter()
    if recorder is not None:
        with recorder.root():
            workload.drive(run, inputs)
    else:
        workload.drive(run, inputs)
    wall_s = perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    comp = run.comp
    drained = comp.drained()
    outputs, virtual, counts = workload.collect(run)
    virtual["virtual_s"] = comp.now
    comp.close()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "drained": drained,
        "virtual": virtual,
        "counts": counts,
        "outputs": outputs,
    }
    if recorder is not None:
        instrumentation.remove()
        attribution = recorder.attribute()
        layers = attribution["layers"]
        calls = attribution["calls"]
        for layer, metric in metrics.SELF_TIME.items():
            result["counts"][metric] = layers.get(layer, {}).get("self_s", 0.0)
        result["counts"]["protocol.submits"] = calls.get("ProtocolNode.submit", 0)
        result["counts"]["progress.calls"] = layers.get("progress", {}).get("spans", 0)
        result["counts"]["vertex.calls"] = layers.get("vertex", {}).get("spans", 0)
        result["trace"] = {
            "spans": len(recorder),
            "root_s": recorder.root_seconds(),
            "residual_s": layers["root"]["self_s"],
            "layers": layers,
            "calls": calls,
        }
        if args.spans:
            recorder.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
