"""Independent output oracles, one per workload.

Each oracle recomputes the expected outputs from the generated inputs
in plain Python, without the program's algorithms, and returns
``(attempted, failed)``: how many outputs or queries were checked and
how many were wrong, missing, extra or unanswered.  They run in the
parent, outside every timed region.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import workloads as W


class UnionFind:
    """Union-find whose roots are the smallest member id."""

    def __init__(self):
        self.parent: Dict = {}

    def add(self, node) -> bool:
        if node in self.parent:
            return False
        self.parent[node] = node
        return True

    def find(self, node):
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a, b):
        """Merge the sets of ``a`` and ``b``; returns (kept, absorbed)
        roots, or None when they were already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        keep, gone = min(ra, rb), max(ra, rb)
        self.parent[gone] = keep
        return keep, gone


def wcc_labels(edges) -> Dict[int, int]:
    uf = UnionFind()
    for u, v in edges:
        uf.add(u)
        uf.add(v)
        uf.union(u, v)
    return {node: uf.find(node) for node in uf.parent}


def compare_records(expected: List, got: List) -> Tuple[int, int]:
    """Multiset comparison: every expected record is one attempt; a
    missing, wrong or extra record is one failure."""
    want, have = Counter(map(tuple, expected)), Counter(map(tuple, got))
    missing = sum((want - have).values())
    extra = sum((have - want).values())
    return len(expected), max(missing, extra)


def check_wcc_epochs(epochs: List[List[Tuple[int, int]]], outputs) -> Tuple[int, int]:
    attempted = failed = 0
    for epoch, edges in enumerate(epochs):
        expected = sorted(wcc_labels(edges).items())
        a, f = compare_records(expected, outputs.get(str(epoch), []))
        attempted += a
        failed += f
    # Output at an epoch that had no input is wrong too.
    stray = set(outputs) - {str(e) for e in range(len(epochs))}
    failed += sum(len(outputs[e]) for e in stray)
    return attempted, failed


def udf_chain_expected(x: int, burn: int) -> int:
    """The four UDFs of the chain, written out as arithmetic; ``burn``
    is the constant their busy loop contributes."""
    x = (x * 3 + burn) % W.UDF_MOD
    x = (x ^ 0x5A5A5A) + burn
    x = (x * 7 + 11 + burn) % W.UDF_MOD
    return (x // 2) + burn


def check_udf_chain(epochs: List[List[int]], outputs) -> Tuple[int, int]:
    burn = W._burn()
    attempted = failed = 0
    for epoch, batch in enumerate(epochs):
        expected = [(udf_chain_expected(x, burn),) for x in batch]
        got = [(x,) for x in outputs.get(str(epoch), [])]
        a, f = compare_records(expected, got)
        attempted += a
        failed += f
    return attempted, failed


def serve_oracle(tweets: List[List[W.Tweet]], users_by_epoch: Dict[int, set]):
    """``{epoch: {user: top hashtag}}`` for the users asked about.

    Mirrors the dataflow's semantics: a user belongs to a component
    once it appears in a mention edge; a component's hashtag counts sum
    the hashtags of all its members' tweets so far; the top hashtag is
    the one with the largest ``(count, repr(tag))``.  Epoch -1 is the
    empty state.
    """
    uf = UnionFind()
    user_tags: Dict[int, Counter] = {}
    comp_tags: Dict[int, Counter] = {}

    def top(user):
        if user not in uf.parent:
            return None
        tags = comp_tags.get(uf.find(user))
        if not tags:
            return None
        return max(tags.items(), key=lambda item: (item[1], repr(item[0])))[0]

    answers = {-1: {user: None for user in users_by_epoch.get(-1, ())}}
    for epoch, batch in enumerate(tweets):
        for tweet in batch:
            for mention in tweet.mentions:
                for node in (tweet.user, mention):
                    if uf.add(node):
                        comp_tags[node] = Counter(user_tags.get(node, ()))
                merged = uf.union(tweet.user, mention)
                if merged is not None:
                    keep, gone = merged
                    comp_tags[keep].update(comp_tags.pop(gone))
            for tag in tweet.hashtags:
                user_tags.setdefault(tweet.user, Counter())[tag] += 1
                if tweet.user in uf.parent:
                    comp_tags[uf.find(tweet.user)][tag] += 1
        answers[epoch] = {user: top(user) for user in users_by_epoch.get(epoch, ())}
    return answers


def check_serve(inputs: W.ServeInputs, outputs) -> Tuple[int, int]:
    """Every query answered once; fresh answers reflect exactly their
    own epoch; stale answers are within bound and equal the oracle at
    the epoch they report."""
    answers = outputs["answers"]
    failed = len(outputs["unanswered"])
    attempted = len(answers) + failed
    by_epoch: Dict[int, set] = {}
    for _, _, user, _, state_epoch, _, _, _ in answers:
        by_epoch.setdefault(state_epoch, set()).add(user)
    expected = serve_oracle(inputs.tweets, by_epoch)
    seen = set()
    for qid, slo, user, value, state_epoch, staleness, _, injected in answers:
        ok = qid not in seen and value == expected[state_epoch][user]
        seen.add(qid)
        if slo == "fresh":
            # Joined the epoch injected next after its arrival.
            ok = ok and state_epoch == injected and staleness == 0
        else:
            lag = injected - state_epoch
            ok = ok and 0 <= staleness <= W.SERVE_STALE_BOUND and lag <= W.SERVE_STALE_BOUND
        failed += not ok
    return attempted, failed


def check_heal(epochs, outputs) -> Tuple[int, int]:
    """WCC labels per epoch, and the crash must have been recovered
    under detection: a suspicion of the crashed process that reached
    ``ready``, no false suspicion, and output released after the crash.
    Otherwise the run measured neither detection nor recovery, and
    every output counts as failed."""
    attempted, failed = check_wcc_epochs(epochs, outputs["epochs"])
    crash = outputs["crash"]
    ok = (
        crash["recovered"]
        and crash["false_suspicions"] == 0
        and crash["at"] is not None
        and crash["last_release"] is not None
        and crash["at"] < crash["last_release"]
    )
    return attempted, failed if ok else attempted


def check_rescale(epochs, outputs) -> Tuple[int, int]:
    """WCC labels per epoch, and the rescale must have completed before
    the last output release (else it measured nothing)."""
    attempted, failed = check_wcc_epochs(epochs, outputs["epochs"])
    rescale = outputs["rescale"]
    ok = (
        rescale["at"] is not None
        and rescale["last_release"] is not None
        and rescale["at"] < rescale["last_release"]
    )
    return attempted, failed if ok else attempted


def check(workload: str, inputs, outputs) -> Tuple[int, int]:
    if workload == "serve":
        return check_serve(inputs, outputs)
    if workload == "udf_chain":
        return check_udf_chain(inputs, outputs)
    if workload == "wcc64":
        return check_wcc_epochs([inputs], outputs)
    if workload == "heal":
        return check_heal(inputs, outputs)
    return check_rescale(inputs, outputs)
