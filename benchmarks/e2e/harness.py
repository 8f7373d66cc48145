"""Set-up, load generation, answer checking and metric extraction.

The harness drives the system only through its public API: it times
calls into ``repro`` and reads the ``ExecutionReport`` / ``QueryOutcome``
/ ``BuildReport`` values those calls return.  The load generator is this
process, one thread, closed loop: the next operation is sent when the
previous one has returned its result texts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.parser import parse_query
from repro.core.persistence import load_system, save_system
from repro.core.system import TossSystem
from repro.data.lexicon_rules import corpus_lexicon
from repro.ontology.maker import OntologyMaker
from repro.serving import GuardSpec, QueryRequest, QueryServer

from spans import SpanLog
from workloads import WRITE_EVERY, Workload, Write, WritePlan

EPSILON = 3.0
GUARD = GuardSpec(deadline_seconds=30, max_steps=50_000_000, max_results=1_000_000)
#: Set-ups per untraced run; ``setup_s`` is their median, and each serves
#: an equal share of the measured operation time (at least one cycle).
SETUP_REPEATS = 2
#: Requests compared guarded vs unguarded in-process for guard.overhead_ratio.
GUARD_PROBE_REQUESTS = 24
#: Write cycles whose probe answers the goldens pin.
GOLDEN_PROBES = 32
#: A traced run measures at least this many cycles, however short its
#: ``--seconds``: it needs one with spans on and one with spans off.
MIN_CYCLES = 2
#: In a traced run every TRACE_SKIP-th cycle runs with spans off, so
#: trace_overhead_ratio compares phases that interleave in time.
TRACE_SKIP = 3

_PAPER_KEY = re.compile(r'<inproceedings key="([^"]+)"')
_ARTICLE_KEY = re.compile(r'<article key="([^"]+)"')
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def digest(texts: Sequence[str]) -> str:
    return hashlib.sha256("\x1f".join(texts).encode("utf-8")).hexdigest()[:16]


def golden_path(workload: Workload) -> str:
    return os.path.join(GOLDEN_DIR, f"seed{workload.seed}_{workload.scale.label}.json")


def load_golden(workload: Workload) -> dict:
    """The pinned digests for this workload; empty when its seed has none."""
    try:
        with open(golden_path(workload), "r", encoding="utf-8") as handle:
            return json.load(handle).get(workload.name, {})
    except FileNotFoundError:
        return {}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(values: Sequence[float]):
    """The highest listed percentile with at least ten samples beyond it."""
    for fraction in (0.999, 0.99, 0.95, 0.90, 0.75):
        if len(values) * (1.0 - fraction) >= 10:
            return fraction, percentile(values, fraction)
    return 0.5, percentile(values, 0.5)


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _dirs, names in os.walk(root)
        for name in names
    )


class Stats:
    """Per-layer accumulators of a traced phase."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.spans = SpanLog()
        self.sums: Counter = Counter()
        self.parse_seconds: Dict[str, float] = {}
        self.write_seconds: Dict[str, List[float]] = {
            "mutate": [],
            "build": [],
            "refresh": [],
            "fresh": [],
        }
        self.refreshes: Counter = Counter()
        self.rungs: Counter = Counter()

    def operation(self, op_id, requests, outcomes, texts, started, returned, decoded):
        spans, sums = self.spans, self.sums
        root = spans.add("operation", started, decoded, request_id=op_id)
        call = spans.add(
            "serving.execute_many", started, returned, root, op_id, lanes=self.workers
        )
        spans.add("serving.decode", returned, decoded, root, op_id)
        worker_seconds = 0.0
        for request, outcome, result in zip(requests, outcomes, texts):
            text = request.query
            if text not in self.parse_seconds:
                parse_started = time.perf_counter()
                parse_query(text)
                self.parse_seconds[text] = time.perf_counter() - parse_started
            sums["parse"] += self.parse_seconds[text]
            sums["requests"] += 1
            worker_seconds += outcome.seconds
            begin = started + max(0.0, returned - started - outcome.seconds) / 2
            worker = spans.add("worker.exec", begin, begin + outcome.seconds, call, op_id)
            report = outcome.report
            if report is None:
                continue
            for name, seconds in (
                ("core.executor.rewrite", report.rewrite_seconds),
                ("core.planner.probe", report.planner_seconds),
                ("xmldb.fetch", report.xpath_seconds),
                ("tax.verify", report.convert_seconds),
            ):
                spans.add(name, begin, begin + seconds, worker, op_id)
                begin += seconds
                sums[name] += seconds
            sums["core.executor.other"] += max(0.0, outcome.seconds - report.total_seconds)
            sums["plan_cache_hits"] += report.plan_cache_hit
            sums["docs_scanned"] += report.docs_scanned
            sums["docs_total"] += report.docs_total
            sums["candidates"] += report.candidates
            sums["results"] += report.result_count
            sums["pairs_probed"] += report.pairs_probed
            sums["pairs_materialized"] += report.pairs_materialized
            sums["seo_accesses"] += report.ontology_accesses
            sums["wire_bytes"] += sum(len(item.encode("utf-8")) for item in result)
        sums["operations"] += 1
        sums["worker_seconds"] += worker_seconds
        sums["wall"] += decoded - started
        sums["decode"] += decoded - returned
        sums["dispatch"] += max(
            0.0, returned - started - worker_seconds / self.workers
        )

    def quality(self, relevant, answer: Sequence[str], join: bool) -> None:
        """Book one request's recall and precision against the corpus oracle.

        A selection answer names one paper; a join answer is right when
        its two sides are the same paper.
        """
        hits = set()
        for text in answer:
            paper = _PAPER_KEY.search(text).group(1)
            if not join or _ARTICLE_KEY.search(text).group(1) == paper:
                hits.add(paper)
        if relevant:
            self.sums["recall"] += len(hits & relevant) / len(relevant)
            self.sums["recall_n"] += 1
        if answer:
            self.sums["precision"] += len(hits & relevant) / len(answer)
            self.sums["precision_n"] += 1

    def write(self, cycle: dict) -> None:
        for name in self.write_seconds:
            self.write_seconds[name].append(cycle[name])
        self.refreshes[cycle["refresh_outcome"]] += 1
        self.rungs.update(cycle["rungs"])
        base = cycle["started"]
        root = self.spans.add("write_cycle", base, base + cycle["fresh"])
        for name, key in (
            ("core.system.mutate", "mutate"),
            ("similarity.incr_build", "build"),
            ("serving.refresh", "refresh"),
            ("serving.probe", "probe"),
        ):
            self.spans.add(name, base, base + cycle[key], root)
            base += cycle[key]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Cycle:
    """What the load generator observed over one cycle of the stream."""

    latencies: List[float] = field(default_factory=list)
    #: Generator + answer-checking time between consecutive operations.
    gaps: List[float] = field(default_factory=list)
    requests: int = 0
    #: Operation time: what callers waited for, write cycles included.
    busy: float = 0.0


class Phase:
    """The measured cycles of a run (or of its traced / untraced share)."""

    def __init__(self) -> None:
        self.cycles: List[Cycle] = []

    @property
    def latencies(self) -> List[float]:
        return [seconds for cycle in self.cycles for seconds in cycle.latencies]

    @property
    def gaps(self) -> List[float]:
        return [seconds for cycle in self.cycles for seconds in cycle.gaps]

    @property
    def requests(self) -> int:
        return sum(cycle.requests for cycle in self.cycles)

    @property
    def busy(self) -> float:
        return sum(cycle.busy for cycle in self.cycles)


class Session:
    """One workload's deployment plus the load generator driving it."""

    def __init__(self, workload: Workload, workdir: str, check_golden: bool = True) -> None:
        self.workload = workload
        self.workdir = workdir
        self.golden = load_golden(workload) if check_golden else {}
        self.failures: List[str] = []
        #: Operations started, and which of them had a failure booked.
        self.attempted = 0
        self._failed: set = set()
        self.phases: Dict[str, float] = {}
        self.setup_seconds = 0.0
        self.store_bytes = 0
        self.system: Optional[TossSystem] = None
        self.server: Optional[QueryServer] = None
        self.store_dir: Optional[str] = None
        self.ops: Iterator[List[QueryRequest]] = iter(())
        self.plan: Optional[WritePlan] = None
        self.op_index = 0
        self.write_index = 0
        self.probe_digests: List[str] = []
        self._expected: Dict[str, List[str]] = {}
        self._expected_generation = None
        self._relevant: Dict[str, frozenset] = {}
        self._pool_index = {request.query: i for i, request in enumerate(workload.pool)}
        if self.golden and self.golden["pool"] != digest(
            [request.query for request in workload.pool]
        ):
            self.fail("golden: the request pool differs from the pinned one")

    def fail(self, message: str) -> None:
        """Book a failure against the operation in flight."""
        self.failures.append(message)
        self._failed.add(self.attempted)

    @property
    def failed_operations(self) -> int:
        return len(self._failed)

    def query_in_process(self, request: QueryRequest) -> List[str]:
        return self.system.query(
            request.collection or "dblp",
            request.query,
            right_collection=request.right_collection,
        ).result_texts()

    # -- set-up --------------------------------------------------------------

    def set_up(self) -> None:
        """The deployment path: documents -> saved store -> served and warm."""
        workload = self.workload
        phases = self.phases = {}
        self.ops = workload.operations()
        self.plan = WritePlan(workload.seed) if workload.writes else None
        self.op_index = self.write_index = 0
        self.probe_digests = []
        maker = OntologyMaker(lexicon=corpus_lexicon())
        self.store_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=self.workdir)

        def lap(name: str, since: float) -> float:
            now = time.perf_counter()
            phases[name] = now - since
            return now

        started = mark = time.perf_counter()
        system = TossSystem(epsilon=EPSILON, measure="levenshtein", maker=maker)
        for name, documents in workload.collections.items():
            system.add_instance(name, documents)
        mark = lap("ontology.extract", mark)
        system.build(mode="order-safe", use_cache=False)
        mark = lap("similarity.build", mark)
        build_report = system.build_report
        phases["similarity.fusion"] = sum(r.fusion_seconds for r in build_report.relations)
        phases["similarity.sea"] = sum(r.sea_seconds for r in build_report.relations)
        for name in workload.collections:
            system.database.get_collection(name).search_index(build=True)
        mark = lap("xmldb.index_build", mark)
        save_system(system, self.store_dir)
        mark = lap("xmldb.save", mark)
        loaded = load_system(self.store_dir)
        # load_system restores a default OntologyMaker; writes after a load
        # re-extract with system.maker, so the deployer has to put the
        # corpus lexicon back (README "baseline findings").
        loaded.maker = maker
        mark = lap("xmldb.load", mark)
        self.server = QueryServer(
            loaded,
            workers=workload.workers,
            default_collection="dblp",
            default_guard=GUARD,
        )
        mark = lap("serving.start", mark)
        self.server.wait_ready()
        mark = lap("serving.ready", mark)
        self.system = loaded
        self._expected_generation = None
        for index in range(workload.warmup_ops):
            requests = next(self.ops)
            self.op_index += 1
            outcomes = self.server.execute_many(requests)
            for outcome in outcomes:
                if outcome.ok:
                    outcome.report.result_texts()
                else:
                    self.fail(f"warm-up: {outcome.request.query}: {outcome.error}")
            if index == 0:
                mark = lap("serving.first_answer", mark)
        self.setup_seconds = time.perf_counter() - started
        if workload.writes:
            # The first build after a load is a full one; take it here so the
            # measured cycles start from a warm ladder.  Only the cycle's own
            # time counts as set-up, not the checking of its probe.
            self.setup_seconds += self.write_cycle()["fresh"]
        while self.op_index % workload.cycle:
            # Measurement starts where the stream's next cycle starts.
            next(self.ops)
            self.op_index += 1
        self.store_bytes = _tree_bytes(self.store_dir)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None
        self.system = None

    # -- correctness ---------------------------------------------------------

    def expected(self, request: QueryRequest) -> List[str]:
        """The in-process answer to ``request`` on the current store."""
        generation = tuple(sorted(self.system.collection_generations().items()))
        if generation != self._expected_generation:
            self._expected.clear()
            self._expected_generation = generation
        key = request.query
        texts = self._expected.get(key)
        if texts is None:
            texts = self._expected[key] = self.query_in_process(request)
            answers = self.golden.get("answers")
            if answers is not None and digest(texts) != answers[self._pool_index[key]]:
                self.fail(f"golden: answer digest differs for {key}")
        return texts

    def verify(self, requests, outcomes, texts, stats: Optional[Stats]) -> None:
        """Every answer must be byte-identical to the in-process answer."""
        for request, outcome, result in zip(requests, outcomes, texts):
            if not outcome.ok:
                self.fail(f"{request.query}: {type(outcome.error).__name__}: {outcome.error}")
                continue
            expected = self.expected(request)
            if result != expected:
                self.fail(f"{request.query}: served answer differs from in-process answer")
            if stats is not None and not self.workload.writes:
                key = request.query
                if key not in self._relevant:
                    self._relevant[key] = self.workload.relevant(key)
                stats.quality(
                    self._relevant[key], expected, request.right_collection is not None
                )

    # -- the write path ------------------------------------------------------

    def _apply(self, write: Write):
        if write.kind == "add":
            receipt = self.system.add_documents("dblp", write.document)
            self.plan.committed(write, receipt.documents_added[0])
        elif write.kind == "replace":
            self.system.replace_documents("dblp", {write.doc_key: write.document})
        else:
            self.system.remove_documents("dblp", [write.doc_key])

    def write_cycle(self) -> dict:
        """mutation -> build -> refresh -> a probe that must show the write."""
        write = self.plan.next_write()
        started = time.perf_counter()
        self._apply(write)
        mutated = time.perf_counter()
        self.system.build()
        built = time.perf_counter()
        refresh_outcome = self.server.refresh()
        refreshed = time.perf_counter()
        outcome = self.server.execute_many([write.probe])[0]
        texts = outcome.report.result_texts() if outcome.ok else None
        fresh = time.perf_counter()
        cycle = self.write_index
        self.write_index += 1
        if texts is None:
            self.fail(f"write {cycle} ({write.kind}): probe failed: {outcome.error}")
        else:
            marker = f'key="{write.paper_key}"'
            present = any(marker in text for text in texts)
            if present != write.expect_present:
                self.fail(f"write {cycle} ({write.kind}): probe does not reflect it")
            if texts != self.expected(write.probe):
                self.fail(f"write {cycle} ({write.kind}): probe differs from in-process answer")
            self.probe_digests.append(digest(texts))
            probes = self.golden.get("probes", ())
            if cycle < len(probes) and digest(texts) != probes[cycle]:
                self.fail(f"golden: probe digest differs at write {cycle}")
        rungs = Counter()
        for relation in self.system.build_report.relations:
            if relation.enhancement_patched:
                rungs["patch"] += 1
            elif relation.incremental and relation.sea is None:
                rungs["reuse"] += 1
            elif relation.incremental:
                rungs["delta"] += 1
            else:
                rungs["full"] += 1
        return {
            "started": started,
            "mutate": mutated - started,
            "build": built - mutated,
            "refresh": refreshed - built,
            "probe": fresh - refreshed,
            "fresh": fresh - started,
            "refresh_outcome": refresh_outcome,
            "rungs": rungs,
        }

    # -- load generation -----------------------------------------------------

    def run_cycle(self, phase: Phase, stats: Optional[Stats] = None) -> None:
        """Run one cycle of the workload's stream and book it on ``phase``.

        Operation time is what a caller waits for: submit -> result texts
        in hand, plus the write cycles of ``mixed_rw``.  Checking answers
        happens between operations and is not counted.
        """
        server = self.server
        cycle = Cycle()
        previous_end = None
        for _ in range(self.workload.cycle):
            if self.workload.writes and self.op_index % WRITE_EVERY == 0:
                self.attempted += 1
                write = self.write_cycle()
                cycle.busy += write["fresh"]
                if stats is not None:
                    stats.write(write)
                previous_end = None
            requests = next(self.ops)
            self.attempted += 1
            started = time.perf_counter()
            outcomes = server.execute_many(requests)
            returned = time.perf_counter()
            texts = [o.report.result_texts() if o.ok else None for o in outcomes]
            decoded = time.perf_counter()
            if previous_end is not None:
                cycle.gaps.append(started - previous_end)
            cycle.latencies.append(decoded - started)
            cycle.busy += decoded - started
            cycle.requests += len(requests)
            if stats is not None:
                stats.operation(
                    self.op_index, requests, outcomes, texts, started, returned, decoded
                )
            self.verify(requests, outcomes, texts, stats)
            self.op_index += 1
            previous_end = time.perf_counter()
        phase.cycles.append(cycle)

    # -- the guard's price ---------------------------------------------------

    def guard_overhead(self) -> float:
        """In-process p50 with the serving guard attached / without it."""
        requests = list(
            itertools.islice(
                itertools.chain.from_iterable(self.workload.operations()),
                GUARD_PROBE_REQUESTS,
            )
        )
        executor = self.system.executor
        timings = {False: [], True: []}

        def run(request: QueryRequest) -> float:
            started = time.perf_counter()
            self.query_in_process(request)
            return time.perf_counter() - started

        for request in requests:
            run(request)  # compile the plan outside both timings
            for guarded in (False, True):
                executor.guard = GUARD.build() if guarded else None
                try:
                    timings[guarded].append(run(request))
                finally:
                    executor.guard = None
        return ratio(statistics.median(timings[True]), statistics.median(timings[False]))
