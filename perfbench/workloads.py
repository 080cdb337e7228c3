"""The benchmark workloads, driven only through the public API.

Each workload has the same five steps, so the child runner can time
them uniformly:

- ``make_inputs(seed, part)``: generate one input set from the seed,
  using the benchmark's own generators (the program receives only the
  data).  A run measures ``PARTS`` input sets per seed, so one draw of
  an unusually easy or hard graph moves its result less;
- ``setup(inputs)``: build the ``ClusterComputation``, the dataflow and
  ``build()`` (plus sessions / supervisor) -- timed as ``setup_s``;
- ``drive(state, inputs)``: first input to drained -- timed as ``wall_s``;
- ``collect(state)``: outputs (JSON-able, checked by :mod:`oracles` in
  the parent), virtual metrics, and counts from public attributes;
- ``corrupt(outputs)``: flip one output, for the checker's self-test.

Workloads pass only shape arguments: processes, workers, cost model,
fault tolerance where the workload is about it, and ``optimize=True``.
Backend, columnar, progress tracking and the progress protocol mode stay
at the program's defaults.  ``BENCHMARK.json`` lists four of the five
workloads; ``rescale`` is left out because the program's live
``add_process`` loses or corrupts epochs on some graphs, so it fails
until that is fixed.  Defects found while building the benchmark are
listed in CHANGES.md; ``test_perfbench.py`` reproduces them.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Tuple

from repro.algorithms import (
    component_top_resolver,
    hashtag_component_arrangements,
    weakly_connected_components,
)
from repro.lib import Stream
from repro.obs import collect_profile
from repro.runtime import ClusterComputation, CostModel, FaultTolerance, SupervisorConfig
from repro.serve import SessionManager

#: Input sets measured per seed.  WCC's virtual time and event count
#: follow the drawn graph's shape (sd ~10% between graphs).
PARTS = 4

#: The Figure 6 blocked cost model.
BLOCKED = CostModel(per_record_cost=2e-5, record_bytes=800)


def rng_for(workload: str, seed: int, part: int) -> random.Random:
    # A string seed is hashed with SHA-512: stable across interpreters.
    return random.Random("%s/%d/%d" % (workload, seed, part))


def random_graph(rng: random.Random, nodes: int, edges: int) -> List[Tuple[int, int]]:
    return [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(edges)]


def epoch_outputs(sink: Dict[int, List]) -> Dict[str, List]:
    """Per-epoch records as sorted JSON-able lists."""
    return {str(epoch): sorted(map(list, recs)) for epoch, recs in sink.items()}


def base_counts(comp) -> Dict[str, float]:
    """Counts every workload reports, from public runtime attributes."""
    profile = collect_profile(comp)
    progress_kinds = [k for k in profile.messages_by_kind if k.startswith("progress")]
    checks = profile.hold_evals + profile.hold_memo_hits
    return {
        "des.events": profile.events_executed,
        "des.heap_pushes": profile.heap_pushes,
        "des.lane_pushes": profile.lane_pushes,
        "cluster.deliveries": profile.delivered_messages,
        "cluster.notifications": profile.delivered_notifications,
        "protocol.hold_evals": profile.hold_evals,
        "protocol.hold_memo_hit_ratio": profile.hold_memo_hits / checks if checks else 0.0,
        "protocol.msgs": sum(profile.messages_by_kind[k] for k in progress_kinds),
        "protocol.bytes": sum(profile.bytes_by_kind.get(k, 0) for k in progress_kinds),
        "network.data_msgs": profile.messages_by_kind.get("data", 0),
        "network.data_bytes": profile.bytes_by_kind.get("data", 0),
        "network.cost_calls": profile.batch_bytes_calls + profile.stage_cost_calls,
        "pool.tasks": profile.pool_tasks,
        "pool.wait_s": profile.pool_wait_wall,
        "opt.physical_stages": len(comp.graph.stages),
    }


class Run:
    """What ``setup`` hands to ``drive`` and ``collect``."""

    def __init__(self, comp, **fields):
        self.comp = comp
        self.__dict__.update(fields)


# ----------------------------------------------------------------------
# wcc64: runtime bookkeeping dominates.
# ----------------------------------------------------------------------


class Wcc64:
    name = "wcc64"

    def make_inputs(self, seed: int, part: int):
        return random_graph(rng_for(self.name, seed, part), 2000, 4000)

    def setup(self, graph):
        comp = ClusterComputation(
            num_processes=64,
            workers_per_process=2,
            cost_model=BLOCKED,
            optimize=True,
        )
        sink: Dict[int, List] = {}
        inp = comp.new_input()
        weakly_connected_components(Stream.from_input(inp)).subscribe(
            lambda t, recs: sink.setdefault(t.epoch, []).extend(recs)
        )
        comp.build()
        return Run(comp, inp=inp, sink=sink)

    def drive(self, run, graph):
        run.inp.on_next(graph)
        run.inp.on_completed()
        run.comp.run()

    def collect(self, run):
        return epoch_outputs(run.sink), {}, base_counts(run.comp)

    def corrupt(self, outputs):
        outputs["0"][0][1] += 1


# ----------------------------------------------------------------------
# udf_chain: vertex bodies dominate.
# ----------------------------------------------------------------------

UDF_EPOCHS = 100
UDF_MEAN_RECORDS = 6
UDF_BURN = 15000
UDF_MOD = 1 << 31


def _burn() -> int:
    # ~0.7 ms of pure Python per call: the user-UDF regime.
    acc = 0
    for i in range(UDF_BURN):
        acc += i * i
    return acc & 0xFF


def udf0(x):
    return (x * 3 + _burn()) % UDF_MOD


def udf1(x):
    return (x ^ 0x5A5A5A) + _burn()


def udf2(x):
    return (x * 7 + 11 + _burn()) % UDF_MOD


def udf3(x):
    return (x // 2) + _burn()


UDFS = (udf0, udf1, udf2, udf3)


class UdfChain:
    name = "udf_chain"

    def make_inputs(self, seed: int, part: int):
        # Epoch sizes vary with the seed around a fixed total, so the
        # modelled schedule (and virtual time) depends on the seed too.
        rng = rng_for(self.name, seed, part)
        sizes = [UDF_MEAN_RECORDS] * UDF_EPOCHS
        for _ in range(UDF_EPOCHS):
            i, j = rng.randrange(UDF_EPOCHS), rng.randrange(UDF_EPOCHS)
            if sizes[i] > 1:
                sizes[i] -= 1
                sizes[j] += 1
        return [[rng.randrange(1 << 24) for _ in range(n)] for n in sizes]

    def setup(self, epochs):
        comp = ClusterComputation(
            num_processes=8,
            workers_per_process=2,
            optimize=True,
        )
        sink: Dict[int, List] = {}
        inp = comp.new_input()
        stream = Stream.from_input(inp)
        for udf in UDFS:
            stream = stream.select(udf)
        stream.subscribe(lambda t, recs: sink.setdefault(t.epoch, []).extend(recs))
        comp.build()
        return Run(comp, inp=inp, sink=sink)

    def drive(self, run, epochs):
        for batch in epochs:
            run.inp.on_next(batch)
        run.inp.on_completed()
        run.comp.run()

    def collect(self, run):
        outputs = {str(e): sorted(recs) for e, recs in run.sink.items()}
        return outputs, {}, base_counts(run.comp)

    def corrupt(self, outputs):
        outputs["0"][0] += 1


# ----------------------------------------------------------------------
# serve: Figure 8 open loop on shared arrangements.
# ----------------------------------------------------------------------


class Tweet(NamedTuple):
    user: int
    mentions: Tuple[int, ...]
    hashtags: Tuple[str, ...]


SERVE_EPOCHS = 400
SERVE_TWEETS_PER_EPOCH = 80
SERVE_EPOCH_INTERVAL = 10e-3
SERVE_SESSIONS = 250
SERVE_QUERY_RATE = 25.0  # per session, per virtual second
SERVE_STALE_BOUND = 3
SERVE_USERS = 1500
SERVE_HASHTAGS = 80


def _zipf(rng: random.Random, n: int) -> int:
    while True:
        value = int(n ** rng.random()) - 1
        if 0 <= value < n:
            return value


class ServeInputs(NamedTuple):
    tweets: List[List[Tweet]]
    #: (arrival time, session index, user), in arrival order.
    queries: List[Tuple[float, int, int]]


class Serve:
    name = "serve"

    def make_inputs(self, seed: int, part: int):
        rng = rng_for(self.name, seed, part)
        tweets = []
        for _ in range(SERVE_EPOCHS):
            batch = []
            for _ in range(SERVE_TWEETS_PER_EPOCH):
                user = _zipf(rng, SERVE_USERS)
                mentions = (_zipf(rng, SERVE_USERS),) if rng.random() < 0.6 else ()
                tags = ("#tag%d" % _zipf(rng, SERVE_HASHTAGS),) if rng.random() < 0.8 else ()
                batch.append(Tweet(user, mentions, tags))
            tweets.append(batch)
        # Open loop: Poisson arrivals drawn up front on the virtual clock,
        # one stream per SLO class (sessions [0, half) are fresh).
        half = SERVE_SESSIONS // 2
        horizon = (SERVE_EPOCHS - 1) * SERVE_EPOCH_INTERVAL
        queries = []
        for first, count in ((0, half), (half, SERVE_SESSIONS - half)):
            rate = SERVE_QUERY_RATE * count
            t = rng.expovariate(rate)
            while t < horizon:
                queries.append((t, first + rng.randrange(count), _zipf(rng, SERVE_USERS)))
                t += rng.expovariate(rate)
        queries.sort()
        return ServeInputs(tweets, queries)

    def setup(self, inputs):
        comp = ClusterComputation(
            num_processes=4,
            workers_per_process=1,
            optimize=True,
        )
        tweets_in = comp.new_input()
        queries_in = comp.new_input()
        labels_arr, top_arr = hashtag_component_arrangements(Stream.from_input(tweets_in))
        manager = SessionManager(comp, queries_in, [labels_arr, top_arr], component_top_resolver)
        comp.build()
        half = SERVE_SESSIONS // 2
        sessions = [manager.open_session("fresh") for _ in range(half)]
        sessions += [
            manager.open_session("stale", bound=SERVE_STALE_BOUND)
            for _ in range(SERVE_SESSIONS - half)
        ]
        return Run(comp, tweets_in=tweets_in, manager=manager, sessions=sessions)

    def drive(self, run, inputs):
        comp, manager = run.comp, run.manager
        # query id -> (scheduled arrival, epochs injected before it)
        run.issued = issued = {}
        injected = [0]

        def submit(t, session, user):
            qid = manager.submit(session, user)
            issued[qid] = (t, injected[0])

        def inject(epoch):
            run.tweets_in.on_next(inputs.tweets[epoch])
            manager.pump()
            injected[0] = epoch + 1
            if epoch + 1 == SERVE_EPOCHS:
                run.tweets_in.on_completed()
                manager.close()

        for t, index, user in inputs.queries:
            session = run.sessions[index]
            comp.sim.schedule_at(t, lambda t=t, s=session, u=user: submit(t, s, u))
        for epoch in range(SERVE_EPOCHS):
            comp.sim.schedule_at(epoch * SERVE_EPOCH_INTERVAL, lambda e=epoch: inject(e))
        comp.run()
        manager.drain()

    def collect(self, run):
        manager = run.manager
        answers = [
            [a.query_id, a.slo, a.user, a.value, a.state_epoch, a.staleness,
             a.answered_at - run.issued[a.query_id][0], run.issued[a.query_id][1]]
            for a in manager.answers
        ]
        answered = {a[0] for a in answers}
        unanswered = sorted(set(run.issued) - answered)
        counts = base_counts(run.comp)
        counts.update(
            {
                "serve.queries": len(run.issued),
                "serve.queries_per_batch": (
                    manager.fresh_injected / manager.fresh_epochs if manager.fresh_epochs else 0.0
                ),
                "arrangement.entries": manager.arrangement_entries(),
            }
        )
        virtual = latency_metrics(answers)
        return {"answers": answers, "unanswered": unanswered}, virtual, counts

    def corrupt(self, outputs):
        answer = outputs["answers"][0]
        answer[3] = "#corrupted"


def nearest_rank(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def latency_metrics(answers) -> Dict[str, float]:
    by_class: Dict[str, List[float]] = {"fresh": [], "stale": []}
    for answer in answers:
        by_class[answer[1]].append(answer[6])
    return {
        "fresh_p50_ms": 1e3 * nearest_rank(by_class["fresh"], 0.5),
        "fresh_p999_ms": 1e3 * nearest_rank(by_class["fresh"], 0.999),
        "stale_p999_ms": 1e3 * nearest_rank(by_class["stale"], 0.999),
        "fresh_samples": len(by_class["fresh"]),
        "stale_samples": len(by_class["stale"]),
    }


# ----------------------------------------------------------------------
# heal: checkpoint, recovery and supervisor on streamed WCC; rescale:
# the same stream with a live add_process instead of the crash.
# ----------------------------------------------------------------------

STREAM_EPOCHS = 6
#: The silent crash of ``heal`` and the live add_process of ``rescale``
#: land at these virtual times, while all six epochs are in flight
#: (they are fed at time zero).
HEAL_CRASH_AT = 10e-3
HEAL_CRASH_PROCESS = 5
RESCALE_AT = 5e-3


class StreamedWcc:
    """WCC over a 2000-node graph streamed as six edge epochs on 16x2,
    with asynchronous checkpoints and reassign recovery."""

    def make_inputs(self, seed: int, part: int):
        graph = random_graph(rng_for(self.name, seed, part), 2000, 4000)
        chunk = (len(graph) + STREAM_EPOCHS - 1) // STREAM_EPOCHS
        return [graph[i : i + chunk] for i in range(0, len(graph), chunk)]

    def build(self):
        comp = ClusterComputation(
            num_processes=16,
            workers_per_process=2,
            cost_model=BLOCKED,
            optimize=True,
            fault_tolerance=FaultTolerance(
                mode="checkpoint",
                checkpoint_mode="async",
                checkpoint_every=2,
                state_bytes_per_worker=1 << 18,
                recovery="reassign",
                restart_delay=0.5e-3,
            ),
        )
        sink: Dict[int, List] = {}
        releases: List[float] = []

        def observe(t, recs):
            sink.setdefault(t.epoch, []).extend(recs)
            releases.append(comp.now)

        inp = comp.new_input()
        weakly_connected_components(Stream.from_input(inp)).subscribe(observe)
        comp.build()
        return Run(comp, inp=inp, sink=sink, releases=releases)

    def drive(self, run, epochs):
        for batch in epochs:
            run.inp.on_next(batch)
        run.inp.on_completed()
        run.comp.run()

    def corrupt(self, outputs):
        outputs["epochs"]["0"][0][1] += 1


class Heal(StreamedWcc):
    """A silent crash of one process, detected by the phi-accrual
    supervisor and recovered by reassigning its workers."""

    name = "heal"

    def setup(self, epochs):
        run = self.build()
        run.comp.attach_supervisor(SupervisorConfig())
        return run

    def drive(self, run, epochs):
        run.comp.crash_process(HEAL_CRASH_PROCESS, at=HEAL_CRASH_AT)
        super().drive(run, epochs)

    def collect(self, run):
        comp = run.comp
        sup = comp.supervisor
        crashed = {c["process"]: c["at"] for c in comp.crashes}
        real = [s for s in sup.suspicions if s["process"] in crashed]
        recovered = [s for s in real if "ready" in s]
        virtual: Dict[str, float] = {}
        if recovered:
            at = crashed[recovered[0]["process"]]
            virtual["mttd_ms"] = 1e3 * (recovered[0]["at"] - at)
            virtual["mttr_ms"] = 1e3 * (recovered[0]["ready"] - at)
        counts = base_counts(comp)
        counts.update(
            {
                "checkpoint.cuts": comp.async_ckpt.completed_cycle,
                "recovery.partial_rollbacks": sum(
                    1 for f in comp.recovery.failures if f["mode"] == "partial"
                ),
                "supervisor.heartbeats": sum(sup.heartbeats_seen.values()),
                "supervisor.suspicions": len(sup.suspicions),
                "supervisor.false_suspicions": len(sup.suspicions) - len(real),
            }
        )
        outputs = {
            "epochs": epoch_outputs(run.sink),
            "crash": {
                "at": min(crashed.values(), default=None),
                "recovered": bool(recovered),
                "false_suspicions": len(sup.suspicions) - len(real),
                "last_release": run.releases[-1] if run.releases else None,
            },
        }
        return outputs, virtual, counts


class Rescale(StreamedWcc):
    """A live ``add_process`` at a fixed virtual time, no supervisor (a
    lost epoch then shows as wrong output, not as a run that never
    ends).  Not in ``BENCHMARK.json``: the program loses or corrupts
    epochs on about one draw in eight (see CHANGES.md), so this
    workload fails visibly until that is fixed."""

    name = "rescale"

    def setup(self, epochs):
        return self.build()

    def drive(self, run, epochs):
        run.comp.add_process(at=RESCALE_AT)
        super().drive(run, epochs)

    def collect(self, run):
        comp = run.comp
        counts = base_counts(comp)
        record = comp.rescales[0] if comp.rescales else None
        counts.update(
            {
                "checkpoint.cuts": comp.async_ckpt.completed_cycle,
                "rescale.blip_ms": 1e3 * (record["ready"] - record["at"]) if record else 0.0,
                "rescale.moved_workers": len(record["workers"]) if record else 0,
            }
        )
        outputs = {
            "epochs": epoch_outputs(run.sink),
            "rescale": {
                "at": record["at"] if record else None,
                "last_release": run.releases[-1] if run.releases else None,
            },
        }
        return outputs, {}, counts


WORKLOADS = {w.name: w for w in (Wcc64(), UdfChain(), Serve(), Heal(), Rescale())}
