"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wcc64 --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``child.py``) with a
cleaned environment, so runs do not drift with interpreter state and no
``REPRO_*`` mode switch leaks in.  ``--trace 0`` repeats the workload
untraced for ``--seconds`` (at least three times) and reports the
end-to-end metrics as medians; ``--trace 1`` runs it once untraced and
once traced and reports the per-layer metrics.  Every repetition's
outputs are checked against the oracles in ``oracles.py``, and the
virtual metrics and counts of every repetition must be identical.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full result (environment, every sample, the workload-specific
end-to-end metrics) goes to ``.perfbench_out/`` under the repository
root, with the traced run's spans.  The exit code is 0 only when every
output was correct and every repetition agreed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: The whole command must finish well inside three minutes.
BUDGET_S = 165.0
MIN_REPS = 3
SETUPS_PER_REP = 9

#: Mode switches the program reads from the environment; the children
#: never see them, so every mode stays at the program's default.
CLEARED_ENV = ("REPRO_BACKEND", "REPRO_FUSION", "REPRO_COLUMNAR", "REPRO_POOL_WORKERS",
               "REPRO_CHAOS_SEED")
CLEARED_PREFIXES = ("REPRO_TRACE",)

#: Counts that differ between runs of one seed: the protocol's hold
#: scan stops at the first unholdable entry of a set whose iteration
#: order follows object addresses, so the number of hold evaluations,
#: and the progress calls they make, vary while every verdict and all
#: virtual results stay the same.  Host times (``*_s``) vary too;
#: everything else must repeat exactly.
NONDETERMINISTIC = ("protocol.hold_evals", "protocol.hold_memo_hit_ratio", "progress.calls")


def child_env() -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in CLEARED_ENV and not key.startswith(CLEARED_PREFIXES)
    }
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    # String hashing decides hash partitioning of string keys (hashtags),
    # so fix it: the same seed must give the same schedule.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, part: int, trace: int, setups: int, timeout: float,
              spans: Optional[str] = None) -> Tuple[Optional[dict], str]:
    command = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
               "--seed", str(seed), "--part", str(part), "--trace", str(trace),
               "--setups", str(setups)]
    if spans:
        command += ["--spans", spans]
    try:
        proc = subprocess.run(command, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    if proc.returncode != 0:
        return None, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]), "") if lines else (None, "no output")


def source_digest(top: str) -> str:
    digest = hashlib.sha256()
    for directory, _, files in sorted(os.walk(top)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, "rb") as handle:
                    digest.update(os.path.relpath(path, top).encode() + handle.read())
    return digest.hexdigest()[:16]


def environment(seed: int) -> Dict[str, object]:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "git_sha": sha, "src_sha256": source_digest(os.path.join(SRC, "repro")),
            "bench_sha256": source_digest(HERE)}


def deterministic(name: str) -> bool:
    return name not in NONDETERMINISTIC and not name.endswith("_s")


def agrees(reference: dict, result: dict) -> bool:
    """Same virtual metrics, and the same value for every deterministic
    count both have (traced runs have counts untraced runs lack)."""
    theirs = result["counts"]
    return reference["virtual"] == result["virtual"] and all(
        theirs[name] == value
        for name, value in reference["counts"].items()
        if name in theirs and deterministic(name)
    )


def merged(reference: dict, result: dict) -> dict:
    counts = {k: v for k, v in result["counts"].items() if deterministic(k)}
    counts.update(reference["counts"])
    return {"virtual": reference["virtual"], "counts": counts}


def format_line(name: str, value, unit: str, note: str) -> str:
    shown = "n/a" if value is None else ("%.6g" % value)
    return "  %-28s %14s %-6s %s" % (name, shown, unit, note)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-output", action="store_true",
                        help="self-test: corrupt one output of every repetition before "
                             "checking it (the run must then fail)")
    args = parser.parse_args(argv)
    # Terminated: unwind, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources at %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path[:0] = [SRC, HERE]
    import metrics
    import oracles
    from workloads import PARTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    started = perf_counter()
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    env = environment(args.seed)

    # Repetitions, each in a fresh interpreter.  Untraced, they cycle
    # through the seed's input sets until --seconds have passed,
    # stopping only after whole rounds.  Traced: part 0 untraced (the
    # overhead baseline and determinism reference), then part 0 traced.
    reps: List[dict] = []
    errors: List[str] = []
    slowest = 0.0
    while True:
        elapsed = perf_counter() - started
        if args.trace:
            if len(reps) == 2:
                break
            part, trace, setups = 0, len(reps), 1 if reps else SETUPS_PER_REP
        else:
            if len(reps) % PARTS == 0 and reps and elapsed >= args.seconds:
                break
            if len(reps) >= PARTS and elapsed + 1.5 * slowest > BUDGET_S:
                break
            part, trace, setups = len(reps) % PARTS, 0, SETUPS_PER_REP
        rep_started = perf_counter()
        spans = os.path.join(OUT, "spans-%s.npz" % tag) if trace else None
        result, error = run_child(args.workload, args.seed, part, trace, setups,
                                  BUDGET_S - elapsed, spans)
        slowest = max(slowest, perf_counter() - rep_started)
        if result is None:
            errors.append(error)
            break
        result.update(part=part, traced=bool(trace))
        reps.append(result)

    # Oracle check and determinism, outside every timed region.  Every
    # repetition of one input set, traced or not, in this run or an
    # earlier one of the same sources, must agree exactly.
    attempted = failed = mismatches = 0
    references: Dict[int, dict] = {}
    for result in reps:
        part = result["part"]
        if args.corrupt_output:
            workload.corrupt(result["outputs"])
        a, f = oracles.check(args.workload, workload.make_inputs(args.seed, part),
                             result.pop("outputs"))
        if not result["drained"]:
            f = a
        if part not in references:
            references[part] = load_reference(env, args.workload, part) or merged(result, result)
        if agrees(references[part], result):
            references[part] = merged(references[part], result)
        else:
            mismatches += 1
            f = a
        attempted += a
        failed += f
    if errors:
        attempted = max(attempted, 1)
        failed = attempted
    correct = failed == 0 and not errors
    if correct:
        for part, reference in references.items():
            save_reference(env, args.workload, part, reference)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    e2e: Dict[str, Optional[float]] = {name: None for name in metrics.END_TO_END}
    if untraced:
        e2e["setup_s"] = statistics.median([s for r in untraced for s in r["setup_s"]])
        e2e["wall_s"] = mean_over_parts(untraced, lambda r: r["wall_s"])
        e2e["peak_rss_mb"] = mean_over_parts(untraced, lambda r: r["peak_rss_mb"])
        for name in untraced[0]["virtual"]:
            if name in e2e:
                e2e[name] = mean_over_parts(untraced, lambda r: r["virtual"][name])
    e2e["fail_ratio"] = failed / attempted if attempted else 1.0

    layer: Dict[str, float] = {}
    if traced:
        counts = traced[0]["counts"]
        layer = {m["name"]: float(counts.get(m["name"], 0.0)) for m in spec["per_layer"]}
        layer["vertex.share"] = layer["vertex.self_s"] / traced[0]["trace"]["root_s"]
        if untraced:
            layer["trace.overhead_ratio"] = traced[0]["wall_s"] / untraced[0]["wall_s"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(metrics.REPORT_ONLY_UNITS)
    lines = report_lines(args, metrics, units, env, reps, e2e, layer, failed, attempted,
                         perf_counter() - started)
    if mismatches:
        lines.append("NONDETERMINISTIC: %d repetition(s) differ in virtual metrics or "
                     "counts from an earlier run of the same input set" % mismatches)
    for error in errors:
        lines.append("FAILED repetition: %s" % error.strip())
    print("\n".join(lines))

    if args.trace:
        reported = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in spec["per_layer"]}
    else:
        reported = {m["name"]: {"value": e2e.get(m["name"]) or 0.0, "unit": m["unit"]}
                    for m in spec["end_to_end"]}
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": reported}
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as handle:
        json.dump({"summary": summary, "environment": env, "end_to_end": e2e,
                   "per_layer": layer, "repetitions": reps, "errors": errors}, handle,
                  indent=1)
    print(json.dumps(summary))
    return 0 if correct else 1


def mean_over_parts(reps: List[dict], value) -> float:
    """The mean over input sets of each set's median repetition."""
    by_part: Dict[int, List[float]] = {}
    for result in reps:
        by_part.setdefault(result["part"], []).append(value(result))
    return statistics.fmean(statistics.median(v) for v in by_part.values())


def reference_path(env: dict, workload: str, part: int) -> str:
    return os.path.join(OUT, "reference-%s-s%d-p%d-%s-%s.json" % (
        workload, env["seed"], part, env["src_sha256"], env["bench_sha256"]))


def load_reference(env: dict, workload: str, part: int) -> Optional[dict]:
    try:
        with open(reference_path(env, workload, part)) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def save_reference(env: dict, workload: str, part: int, reference: dict) -> None:
    with open(reference_path(env, workload, part), "w") as handle:
        json.dump(reference, handle)


def report_lines(args, metrics, units, env, reps, e2e, layer, failed, attempted, seconds):
    untraced = [r for r in reps if not r["traced"]]
    lines = [
        "perfbench %s: seed %d, %d repetition(s) over %d input set(s)%s, %.1f s" % (
            args.workload, args.seed, len(reps), len({r["part"] for r in reps}),
            " (1 traced)" if layer else "", seconds),
        "  nproc %(nproc)s, python %(python)s, git %(git_sha)s, src %(src_sha256)s, "
        "benchmark %(bench_sha256)s" % env,
        "end-to-end metrics (host: this machine's Python; virtual: the modelled cluster;",
        "  per input set the median repetition, then the mean over input sets):",
    ]
    for name, (kind, applies, _) in metrics.END_TO_END.items():
        if name in metrics.NOT_MEASURED:
            note = "(not measured: %s)" % metrics.NOT_MEASURED[name]
        elif args.workload not in applies:
            note = "(%s only)" % ", ".join(applies)
        elif name == "setup_s":
            note = "%s, median of %d set-ups" % (kind, sum(len(r["setup_s"]) for r in untraced))
        elif name == "fail_ratio":
            note = "%d of %d outputs wrong, missing or unanswered" % (failed, attempted)
        else:
            note = "%s, %d runs" % (kind, len(untraced))
            if untraced and name.endswith("_ms") and name.split("_")[0] in ("fresh", "stale"):
                samples = [r["virtual"][name.split("_")[0] + "_samples"] for r in untraced]
                note += ", %d-%d answers per run" % (min(samples), max(samples))
        lines.append(format_line(name, e2e[name], units[name], note))
    if layer:
        traced = [r for r in reps if r["traced"]][0]["trace"]
        lines.append("per-layer metrics (traced run of input set 0; self time = span time "
                     "minus child spans):")
        for name, value in layer.items():
            lines.append(format_line(name, value, units[name],
                                     "moves %s" % metrics.PER_LAYER[name][0]))
        lines.append("  %d spans, residual %.4f s of %.4f s traced" % (
            traced["spans"], traced["residual_s"], traced["root_s"]))
    return lines


if __name__ == "__main__":
    sys.exit(main())
