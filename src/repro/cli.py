"""Command-line interface for the TOSS system.

Subcommands:

``repro-toss query``
    Load XML documents into collections, build the SEO and run a query
    written in the textual query language (see :mod:`repro.core.parser`)::

        python -m repro.cli query --source dblp=dblp.xml \\
            --epsilon 3 'inproceedings(author ~ "J. Ullman")'

``repro-toss experiment``
    Regenerate one of the paper's figures on synthetic data::

        python -m repro.cli experiment fig15a

``repro-toss seo``
    Build and persist (or inspect) a similarity enhanced ontology::

        python -m repro.cli seo --source dblp=dblp.xml --out seo.json

``repro-toss explain``
    Show the query plan — rewrite, compiled XPath, index probes —
    without executing it::

        python -m repro.cli explain --load ./store 'paper(author ~ "X")'

``repro-toss db``
    Build, inspect, integrity-check or repair a saved store::

        python -m repro.cli db build --source dblp=dblp.xml ./store
        python -m repro.cli db stats ./store
        python -m repro.cli db verify ./store
        python -m repro.cli db recover ./store
        python -m repro.cli db index build ./store

    plus the observability surface (see ``docs/OBSERVABILITY.md``)::

        python -m repro.cli db trace ./store 'paper(author ~ "X")'
        python -m repro.cli db obs metrics ./store
        python -m repro.cli db obs slow ./store --limit 10

Exit status is 0 on success, 1 when ``db verify`` finds damage, 2 on
usage errors (argparse convention).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .core.system import TossSystem
from .xmldb.serializer import serialize


def _parse_sources(specs: Sequence[str]) -> List[tuple]:
    sources = []
    for spec in specs:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise SystemExit(f"--source must look like name=path, got {spec!r}")
        sources.append((name, path))
    return sources


def _build_system(args: argparse.Namespace) -> TossSystem:
    system = TossSystem(measure=args.measure, epsilon=args.epsilon)
    for name, path in _parse_sources(args.source):
        with open(path, "r", encoding="utf-8") as handle:
            system.add_instance(name, handle.read())
    for constraint in args.constraint or ():
        system.add_constraint(constraint)
    system.build()
    return system


def _load_query_system(args: argparse.Namespace) -> tuple:
    """(system, collection names) for query-shaped commands.

    A ``--load`` system gets the store's observability attached (sinks
    under ``<root>/obs``) unless ``--no-obs``, so events, slow queries
    and metrics accumulate next to the data they describe.
    """
    if args.load:
        from .core.persistence import load_system
        from .obs import for_root

        system = load_system(args.load)
        if not getattr(args, "no_obs", False):
            system.set_observability(for_root(args.load))
        names = system.database.collection_names()
    else:
        if not args.source:
            raise SystemExit(
                f"{args.command} needs --source name=path or --load DIR"
            )
        system = _build_system(args)
        names = [name for name, _ in _parse_sources(args.source)]
    return system, names


def _report_summary_line(report) -> str:
    line = (
        f"# {report.result_count} results in {report.total_seconds:.4f}s "
        f"(rewrite {report.rewrite_seconds:.4f}s, "
        f"plan {report.planner_seconds:.4f}s, "
        f"xpath {report.xpath_seconds:.4f}s, "
        f"convert {report.convert_seconds:.4f}s; "
        f"scanned {report.docs_scanned}/{report.docs_total} docs, "
        f"index {'on' if report.index_used else 'off'}"
    )
    if report.plan_cache_hit:
        line += ", plan cache hit"
    if report.degraded:
        line += "; DEGRADED to exact matching"
    return line + ")"


def _cmd_query(args: argparse.Namespace) -> int:
    from .obs.context import RequestContext, activate

    system, names = _load_query_system(args)
    collection = args.collection or names[0]
    right = names[1] if len(names) > 1 else None
    context = RequestContext.mint()
    with activate(context):
        report = system.query(collection, args.query, right_collection=right)
    system.observability.flush_metrics()
    if args.json:
        print(json.dumps(report.to_dict(include_results=True), indent=2))
        return 0
    print(f"# request {report.request_id or context.request_id}", file=sys.stderr)
    print(_report_summary_line(report))
    for tree in report.results:
        print(serialize(tree, indent=2).rstrip())
    return 0


def _read_query_lines(source: Optional[str]) -> List[str]:
    """Query texts from a file (or stdin for ``-``/None), one per line;
    blank lines and ``#`` comments are skipped."""
    if source and source != "-":
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    return [
        line.strip()
        for line in lines
        if line.strip() and not line.strip().startswith("#")
    ]


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import GuardSpec, QueryRequest, QueryServer, RetryPolicy

    system, names = _load_query_system(args)
    collection = args.collection or names[0]
    right = names[1] if len(names) > 1 else None
    texts = _read_query_lines(args.queries)
    if not texts:
        print("# no queries to serve", file=sys.stderr)
        return 0
    spec = GuardSpec(
        deadline_seconds=args.deadline,
        max_steps=args.max_steps,
        max_results=args.max_results,
    )
    policy_kwargs = {"max_retries": args.retries}
    if args.max_crash_rate is not None:
        policy_kwargs["max_crash_rate"] = args.max_crash_rate
    outcomes = []
    stats_stop = None
    stats_thread = None
    if args.stats:
        import threading

        from .obs.export import format_status_line
        from .obs.window import WINDOWS

        stats_stop = threading.Event()
        live = sys.stderr.isatty()

        def _stats_loop() -> None:
            while not stats_stop.wait(1.0):
                line = format_status_line(WINDOWS.multi_stats(), window=10)
                if not line:
                    continue
                if live:
                    # Redraw in place on a real terminal; plain lines
                    # otherwise so redirected stderr stays greppable.
                    print(f"\r\x1b[2K{line}", end="", file=sys.stderr, flush=True)
                else:
                    print(line, file=sys.stderr, flush=True)

        stats_thread = threading.Thread(
            target=_stats_loop, name="serve-stats", daemon=True
        )
        stats_thread.start()
    try:
        with QueryServer(
            system,
            workers=args.pool_workers,
            max_pending=args.max_pending,
            default_guard=None if spec.unlimited else spec,
            default_collection=collection,
            policy=RetryPolicy(**policy_kwargs),
        ) as server:
            requests = [
                QueryRequest(
                    query=text, collection=collection, right_collection=right
                )
                for text in texts
            ]
            # Slice the stream into admission-sized batches: the bounded
            # queue is back-pressure for concurrent clients, not a cap on
            # how much one well-behaved stream may submit overall.
            for start in range(0, len(requests), args.max_pending):
                outcomes.extend(
                    server.execute_many(
                        requests[start : start + args.max_pending]
                    )
                )
    except KeyboardInterrupt:
        # The `with` block already shut the pool down (bounded join, then
        # terminate); report the interruption without a traceback.
        print(
            f"# interrupted after {len(outcomes)} of {len(texts)} queries; "
            "worker pool shut down",
            file=sys.stderr,
        )
        return 130
    finally:
        if stats_stop is not None:
            stats_stop.set()
            stats_thread.join(timeout=2.0)
            final = format_status_line(WINDOWS.multi_stats(), window=10)
            if final:
                print(f"\r\x1b[2K{final}" if sys.stderr.isatty() else final,
                      file=sys.stderr, flush=True)
    system.observability.flush_metrics()
    errors = sum(1 for outcome in outcomes if not outcome.ok)
    if args.json:
        payload = []
        for outcome in outcomes:
            entry = {
                "query": outcome.request.query,
                "ok": outcome.ok,
                "seconds": outcome.seconds,
            }
            if outcome.ok:
                entry["report"] = outcome.report.to_dict(
                    include_results=args.results
                )
            else:
                entry["error"] = {
                    "type": type(outcome.error).__name__,
                    "message": str(outcome.error),
                }
            payload.append(entry)
        print(json.dumps(payload, indent=2))
    else:
        for index, outcome in enumerate(outcomes):
            if outcome.ok:
                print(f"[{index}] {outcome.request.query}")
                print(_report_summary_line(outcome.report))
                if args.results:
                    for tree in outcome.report.results:
                        print(serialize(tree, indent=2).rstrip())
            else:
                print(
                    f"[{index}] {outcome.request.query}\n"
                    f"# ERROR {type(outcome.error).__name__}: {outcome.error}"
                )
        print(
            f"# served {len(outcomes)} queries with {args.pool_workers} "
            f"workers, {errors} errors"
        )
    return 1 if errors else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .core.parser import parse_query

    system, _ = _load_query_system(args)
    executor = system._query_executor()
    parsed = parse_query(args.query)
    plan = executor.explain(parsed.pattern, join=len(parsed.roots) == 2)
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2))
    else:
        print(plan)
    return 0


def _cmd_seo(args: argparse.Namespace) -> int:
    from .similarity.persistence import dump_seo, save_seo

    system = _build_system(args)
    print(
        f"# SEO built in {system.build_seconds:.2f}s: "
        f"{system.ontology_size()} terms, "
        f"{len(system.seo.hierarchy)} enhanced nodes, "
        f"epsilon={system.epsilon}"
    )
    if args.out:
        save_seo(system.seo, args.out)
        print(f"# written to {args.out}")
    else:
        print(dump_seo(system.seo, indent=2))
    return 0


def _cmd_save(args: argparse.Namespace) -> int:
    from .core.persistence import save_system

    system = _build_system(args)
    save_system(system, args.out)
    print(
        f"# saved {len(system.instances)} instances, "
        f"{system.ontology_size()}-term SEO to {args.out}"
    )
    return 0


def _db_root(root: str) -> str:
    """Accept either a database directory or a saved-system directory."""
    import os

    from .xmldb.storage import MANIFEST_NAME

    if not os.path.exists(os.path.join(root, MANIFEST_NAME)):
        nested = os.path.join(root, "database")
        if os.path.exists(os.path.join(nested, MANIFEST_NAME)):
            return nested
    return root


def _cmd_db_verify(args: argparse.Namespace) -> int:
    from .errors import XmlDbError
    from .xmldb.storage import verify_database

    try:
        report = verify_database(_db_root(args.root))
    except XmlDbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_db_recover(args: argparse.Namespace) -> int:
    from .errors import XmlDbError
    from .xmldb.storage import QUARANTINE_DIR, recover_database, save_database

    root = _db_root(args.root)
    try:
        report = recover_database(root)
    except XmlDbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    if not report.ok:
        assert report.database is not None
        # Rewrite a clean segment per collection from the salvaged documents
        # so the manifest no longer names damaged ones and verify passes.
        save_database(report.database, root)
        print(f"# store rewritten; damaged bytes kept under {root}/{QUARANTINE_DIR}")
    return 0


def _cmd_db_build(args: argparse.Namespace) -> int:
    from .core.persistence import save_system

    system = _build_system(args)
    save_system(system, args.root)
    assert system.build_report is not None
    print(system.build_report.summary())
    print(f"# saved {len(system.instances)} instances to {args.root}")
    return 0


def _cmd_db_stats(args: argparse.Namespace) -> int:
    from .core.persistence import load_build_report, load_system

    system = load_system(args.root)
    database = system.database
    print(f"# system at {args.root}")
    print(
        f"collections: {len(database.collection_names())}, "
        f"documents: {sum(len(database.get_collection(n)) for n in database.collection_names())}, "
        f"bytes: {database.total_bytes()}"
    )
    signature = database.generation_signature()
    print(
        "generation signature: "
        + (", ".join(f"{name}={gen}" for name, gen in signature) or "(empty)")
    )
    generations = system.collection_generations()
    for name in sorted(generations):
        print(f"collection [{name}]: generation {generations[name]}")
    depths = system.seo_chain_depths
    for relation in sorted(depths):
        depth = depths[relation]
        suffix = "full build" if depth == 0 else f"{depth} delta build(s) deep"
        print(f"seo [{relation}]: delta chain depth {depth} ({suffix})")
    _print_store_parts(args.root, database.total_bytes())
    _print_index_status(_db_root(args.root))
    report = load_build_report(args.root)
    if report is None:
        print("build report: none persisted")
    else:
        print(report.summary())
        print(f"pairs pruned {report.pairs_pruned} of {report.total_pairs}")
    return 0


def _print_store_parts(root: str, document_bytes: int) -> None:
    """Print on-disk bytes per part of a saved system and their ratio to
    the serialized documents (the benchmark's ``store_amplification``)."""
    import os

    from .xmldb.storage import store_bytes

    def tree_bytes(directory: str) -> int:
        return sum(
            os.path.getsize(os.path.join(parent, name))
            for parent, _dirs, names in os.walk(directory)
            for name in names
        )

    parts = store_bytes(_db_root(root))
    parts["seo"] = tree_bytes(os.path.join(root, "seo"))
    parts["total"] = tree_bytes(root)
    for part in ("segments", "indexes", "seo", "manifest", "total"):
        ratio = parts[part] / document_bytes if document_bytes else 0.0
        print(f"store [{part}]: {parts[part]} bytes, {ratio:.3f}x the documents")


def _print_index_status(root: str) -> bool:
    """Print per-collection search-index health; True when all are ok."""
    from .errors import XmlDbError
    from .xmldb.storage import index_status

    try:
        statuses = index_status(root)
    except XmlDbError as exc:
        print(f"search indexes: unreadable store manifest ({exc})")
        return False
    if not statuses:
        print("search indexes: no collections")
        return True
    all_ok = True
    for name in sorted(statuses):
        entry = statuses[name]
        status = entry["status"]
        line = f"search index [{name}]: {status}"
        if "index" in entry:
            stats = entry["index"].stats()
            line += (
                f" ({stats['documents']} documents, {stats['terms']} terms, "
                f"{stats['postings']} postings, {stats['paths']} tag paths)"
            )
        print(line)
        if status != "ok":
            all_ok = False
    return all_ok


def _cmd_db_index(args: argparse.Namespace) -> int:
    from .errors import XmlDbError
    from .xmldb.storage import build_indexes

    root = _db_root(args.root)
    action = args.index_command
    if action == "build":
        try:
            stats = build_indexes(root)
        except XmlDbError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for name in sorted(stats):
            entry = stats[name]
            print(
                f"built index [{name}]: {entry['documents']} documents, "
                f"{entry['terms']} terms, {entry['postings']} postings, "
                f"{entry['paths']} tag paths"
            )
        return 0
    # verify and stats both report health; verify also sets the exit code
    # so a stale or corrupt index fails CI the same way db verify does.
    all_ok = _print_index_status(root)
    if action == "verify":
        return 0 if all_ok else 1
    return 0


def _request_timeline_entries(root: str, request_id: str) -> List[dict]:
    """Every event-log and slow-query-log entry carrying ``request_id``,
    in wall-clock order (file order for entries predating timestamps)."""
    from .obs import (
        EVENTS_FILENAME,
        SLOW_QUERIES_FILENAME,
        JsonLinesSink,
        obs_directory,
    )

    directory = obs_directory(root)
    if not directory.is_dir():
        directory = obs_directory(_db_root(root))
    entries: List[dict] = []
    seen_slow = set()
    for filename in (EVENTS_FILENAME, SLOW_QUERIES_FILENAME):
        for entry in JsonLinesSink(directory / filename).read():
            if entry.get("request_id") != request_id:
                continue
            if filename == SLOW_QUERIES_FILENAME:
                # A slow entry duplicates its event-log line, with the
                # trace attached; merge the trace into the event entry
                # instead of showing the step twice.
                key = (entry.get("event"), entry.get("ts"))
                seen_slow.add(key)
                for existing in entries:
                    if (existing.get("event"), existing.get("ts")) == key:
                        existing.setdefault("trace", entry.get("trace"))
                        break
                else:
                    entries.append(entry)
            else:
                entries.append(entry)
    entries.sort(key=lambda e: e.get("ts") or 0.0)
    return entries


def _render_request_timeline(args: argparse.Namespace) -> int:
    """``db trace --request <id>``: reconstruct one request's
    cross-process timeline from the store's telemetry sinks."""
    from .obs import render_span_dict

    entries = _request_timeline_entries(args.root, args.request)
    if args.json:
        print(json.dumps(entries, indent=2))
        return 0 if entries else 1
    if not entries:
        print(
            f"# no telemetry recorded for request {args.request} "
            "(is the store's obs/ directory populated?)",
            file=sys.stderr,
        )
        return 1
    base_ts = next((e["ts"] for e in entries if e.get("ts")), None)
    print(f"# request {args.request}: {len(entries)} recorded step(s)")
    for entry in entries:
        offset = (
            f"+{entry['ts'] - base_ts:8.3f}s"
            if base_ts is not None and entry.get("ts")
            else "      ?  "
        )
        detail = " ".join(
            f"{key}={entry[key]}"
            for key in (
                "query", "tenant", "worker", "pid", "task", "attempt",
                "attempts", "exitcode", "reason", "delay", "ok",
                "worker_pid", "total_seconds", "results",
            )
            if entry.get(key) is not None
        )
        print(f"{offset}  {entry.get('event', '?'):<22} {detail}")
        if entry.get("trace"):
            for line in render_span_dict(entry["trace"], indent=1):
                print(line)
    return 0


def _cmd_db_trace(args: argparse.Namespace) -> int:
    from .core.persistence import load_system
    from .obs import DEFAULT_SLOW_QUERY_SECONDS, for_root, render_span_dict
    from .obs import trace as obs_trace
    from .obs.context import RequestContext, activate

    if args.request:
        return _render_request_timeline(args)
    if not args.query:
        print("error: db trace needs a query (or --request ID)", file=sys.stderr)
        return 2
    threshold = (
        args.slow_threshold
        if args.slow_threshold is not None
        else DEFAULT_SLOW_QUERY_SECONDS
    )
    system = load_system(args.root)
    system.set_observability(for_root(args.root, slow_query_seconds=threshold))
    names = system.database.collection_names()
    collection = args.collection or names[0]
    right = names[1] if len(names) > 1 else None
    profiler = None
    if args.profile_hz:
        from .obs.profile import SamplingProfiler

        profiler = SamplingProfiler(hz=args.profile_hz).start()
        system.observability.profiler = profiler
    context = RequestContext.mint()
    try:
        with activate(context):
            report = system.query(collection, args.query, right_collection=right)
    finally:
        if profiler is not None:
            profiler.stop()
    system.observability.flush_metrics()
    if args.json:
        payload = report.to_dict()
        if profiler is not None:
            payload["profile"] = profiler.take_exemplar()
        print(json.dumps(payload, indent=2))
        return 0
    print(f"# request {context.request_id}")
    print(_report_summary_line(report))
    if report.trace is None:
        print("# no trace captured", file=sys.stderr)
        return 1
    for line in render_span_dict(report.trace):
        print(line)
    stage_seconds = sum(
        float(child.get("seconds", 0.0))
        for child in report.trace.get("children", ())
    )
    wall = float(report.trace.get("seconds", 0.0))
    print(
        f"# stages account for {stage_seconds:.4f}s of {wall:.4f}s wall "
        f"({stage_seconds / wall * 100.0 if wall > 0 else 100.0:.1f}%)"
    )
    dropped = report.trace.get("attributes", {}).get("dropped_spans")
    if dropped:
        print(
            f"# {dropped} span(s) dropped at the tree bound (see the "
            "trace.spans_dropped counter; the bounds are fixed: "
            f"repro.obs.trace.DEFAULT_MAX_SPANS = {obs_trace.DEFAULT_MAX_SPANS}, "
            f"DEFAULT_MAX_DEPTH = {obs_trace.DEFAULT_MAX_DEPTH})"
        )
    if profiler is not None:
        exemplar = profiler.take_exemplar()
        print(
            f"# profile: {exemplar['samples']} samples at "
            f"{exemplar['hz']:g} Hz"
        )
        for phase, seconds in exemplar["phase_seconds"].items():
            print(f"#   {phase}: {seconds:.4f}s")
    return 0


def _cmd_db_obs(args: argparse.Namespace) -> int:
    from .obs import (
        METRICS_FILENAME,
        SLOW_QUERIES_FILENAME,
        JsonLinesSink,
        obs_directory,
        read_metrics_snapshot,
        render_snapshot_text,
        render_span_dict,
    )

    # Sinks anchor at the system root (where query --load / db trace put
    # them); fall back to the nested database directory for bare stores.
    directory = obs_directory(args.root)
    if not directory.is_dir():
        directory = obs_directory(_db_root(args.root))
    if args.obs_command == "metrics":
        snapshot = read_metrics_snapshot(directory / METRICS_FILENAME)
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(render_snapshot_text(snapshot))
        return 0
    if args.obs_command == "export":
        from .obs.export import render_json, render_prometheus
        from .obs.window import WINDOWS

        snapshot = read_metrics_snapshot(directory / METRICS_FILENAME)
        # Rolling windows are process-local: they carry data here only
        # when a QueryServer served requests in this process (e.g. tests
        # driving main() in-process); a bare CLI export ships the
        # persisted cumulative metrics.
        window_stats = WINDOWS.multi_stats()
        if args.format == "prometheus":
            text = render_prometheus(snapshot, window_stats)
        else:
            text = render_json(snapshot, window_stats)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"wrote {args.format} export to {args.out}")
        else:
            print(text, end="" if text.endswith("\n") else "\n")
        return 0
    # slow: the recorded slow-query entries, oldest first
    entries = JsonLinesSink(directory / SLOW_QUERIES_FILENAME).read(
        limit=args.limit
    )
    if args.json:
        print(json.dumps(entries, indent=2))
        return 0
    if not entries:
        print("(no slow queries recorded)")
        return 0
    for entry in entries:
        line = (
            f"{entry.get('event', '?')}  "
            f"{float(entry.get('total_seconds', 0.0)):.4f}s"
        )
        if entry.get("query"):
            line += f"  {entry['query']}"
        print(line)
        for plan_line in entry.get("plan", ()):
            print(f"  plan: {plan_line}")
        if args.trace and entry.get("trace"):
            for span_line in render_span_dict(entry["trace"], indent=1):
                print(span_line)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        epsilon_sweep,
        join_scalability,
        run_precision_recall_experiment,
        selection_scalability,
    )
    from .experiments.reporting import (
        epsilon_table,
        fig15a_summary,
        fig15a_table,
        fig15b_series,
        fig15c_series,
        scalability_table,
    )

    name = args.figure
    quick = args.quick
    if name in ("fig15a", "fig15b", "fig15c"):
        results = run_precision_recall_experiment(
            n_datasets=1 if quick else args.datasets,
            papers_per_dataset=min(50, args.papers) if quick else args.papers,
            seed=args.seed,
        )
        if name == "fig15a":
            print(fig15a_table(results))
            print()
            print(fig15a_summary(results))
        elif name == "fig15b":
            print(fig15b_series(results))
        else:
            print(fig15c_series(results))
        return 0
    if name == "fig16a":
        points = selection_scalability(
            paper_counts=(50, 100) if quick else (250, 500, 1000, 2000),
            ontology_caps=(None,) if quick else (50, 200, None),
            repeats=1 if quick else 3,
            seed=args.seed,
        )
        print(scalability_table(points, "Figure 16(a): selection scalability"))
        return 0
    if name == "fig16b":
        points = join_scalability(
            paper_counts=(40, 80) if quick else (100, 200, 400, 800),
            ontology_caps=(None,) if quick else (50, None),
            repeats=1 if quick else 2,
            seed=args.seed,
        )
        print(scalability_table(points, "Figure 16(b): join scalability"))
        return 0
    if name == "fig16c":
        points = epsilon_sweep(
            epsilons=(0.0, 2.0) if quick else (0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
            papers=60 if quick else 500,
            join_papers=40 if quick else 200,
            repeats=1 if quick else 2,
            seed=args.seed,
        )
        print(epsilon_table(points))
        return 0
    raise SystemExit(f"unknown experiment {name!r}")


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-toss",
        description="TOSS: ontology- and similarity-extended XML querying",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_system_options(
        sub: argparse.ArgumentParser, source_required: bool = True
    ) -> None:
        sub.add_argument(
            "--source",
            action="append",
            required=source_required,
            metavar="NAME=PATH",
            help="an XML source to load (repeatable)",
        )
        sub.add_argument(
            "--constraint",
            action="append",
            metavar="'x:src1 = y:src2'",
            help="a DBA interoperation constraint (repeatable)",
        )
        sub.add_argument("--measure", default="levenshtein",
                         help="similarity measure name (default: levenshtein)")
        sub.add_argument("--epsilon", type=float, default=3.0,
                         help="similarity threshold (default: 3.0)")

    query = subparsers.add_parser("query", help="run a TOSS query")
    add_system_options(query, source_required=False)
    query.add_argument("--load", help="load a saved system directory instead of --source")
    query.add_argument("--collection", help="collection to query (default: first source)")
    query.add_argument("--json", action="store_true",
                       help="print the full execution report as JSON")
    query.add_argument("--no-obs", action="store_true",
                       help="with --load: do not write to the store's obs/ sinks")
    query.add_argument("query", help="query text, e.g. 'paper(author ~ \"X\")'")
    query.set_defaults(handler=_cmd_query)

    serve = subparsers.add_parser(
        "serve",
        help="execute a batch of queries over a persistent worker pool",
    )
    add_system_options(serve, source_required=False)
    serve.add_argument("--load", help="load a saved system directory instead of --source")
    serve.add_argument("--collection", help="collection to query (default: first source)")
    serve.add_argument("--no-obs", action="store_true",
                       help="with --load: do not write to the store's obs/ sinks")
    serve.add_argument(
        "--queries", metavar="FILE", default=None,
        help="file of query texts, one per line ('-' or omitted: stdin); "
             "blank lines and # comments are skipped",
    )
    serve.add_argument(
        "--pool", dest="pool_workers", type=int, default=2, metavar="N",
        help="worker processes in the serving pool (default: 2)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=128, metavar="N",
        help="admission bound: largest batch dispatched at once (default: 128)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-query wall-clock budget (default: unlimited)",
    )
    serve.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="per-query evaluation-step budget (default: unlimited)",
    )
    serve.add_argument(
        "--max-results", type=int, default=None, metavar="N",
        help="per-query result cap (default: unlimited)",
    )
    serve.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-dispatches per query after a worker crash or hang "
             "(default: 2; 0 fails a query on its first crash)",
    )
    serve.add_argument(
        "--max-crash-rate", type=float, default=None, metavar="FRACTION",
        help="circuit-breaker threshold: shed load when the recent worker "
             "crash rate exceeds this fraction (default: 0.8; 1.0 in "
             "effect disables the breaker)",
    )
    serve.add_argument("--json", action="store_true",
                       help="print every outcome as one JSON array")
    serve.add_argument("--results", action="store_true",
                       help="also print each query's result trees")
    serve.add_argument(
        "--stats", action="store_true",
        help="render a once-a-second rolling-window status line (QPS, "
             "p50/p95/p99, error rate, SLO burn) on stderr while serving",
    )
    serve.set_defaults(handler=_cmd_serve)

    explain = subparsers.add_parser(
        "explain", help="show a query's plan (rewrite, XPath, index probes)"
    )
    add_system_options(explain, source_required=False)
    explain.add_argument("--load", help="load a saved system directory instead of --source")
    explain.add_argument("--json", action="store_true",
                         help="print the plan as JSON")
    explain.add_argument("--no-obs", action="store_true",
                         help="with --load: do not write to the store's obs/ sinks")
    explain.add_argument("query", help="query text to plan without executing")
    explain.set_defaults(handler=_cmd_explain)

    seo = subparsers.add_parser("seo", help="build and persist the SEO")
    add_system_options(seo)
    seo.add_argument("--out", help="write the SEO JSON here (default: stdout)")
    seo.set_defaults(handler=_cmd_seo)

    save = subparsers.add_parser(
        "save", help="build a system and persist it (database + SEOs + config)"
    )
    add_system_options(save)
    save.add_argument("--out", required=True, help="directory to write the system to")
    save.set_defaults(handler=_cmd_save)

    db = subparsers.add_parser(
        "db", help="build, inspect, integrity-check or repair a saved system"
    )
    db_sub = db.add_subparsers(dest="db_command", required=True)
    db_build = db_sub.add_parser(
        "build",
        help="build a system from sources and persist it with its build report",
    )
    add_system_options(db_build)
    db_build.add_argument("root", help="directory to write the system to")
    db_build.set_defaults(handler=_cmd_db_build)
    db_stats = db_sub.add_parser(
        "stats",
        help="show collection sizes, query-cache counters and the build report",
    )
    db_stats.add_argument("root", help="saved system directory")
    db_stats.set_defaults(handler=_cmd_db_stats)
    db_verify = db_sub.add_parser(
        "verify", help="re-check every document and checksum (read-only)"
    )
    db_verify.add_argument("root", help="database directory to verify")
    db_verify.set_defaults(handler=_cmd_db_verify)
    db_recover = db_sub.add_parser(
        "recover", help="quarantine damaged files and rewrite a clean manifest"
    )
    db_recover.add_argument("root", help="database directory to recover")
    db_recover.set_defaults(handler=_cmd_db_recover)
    db_index = db_sub.add_parser(
        "index", help="build, verify or inspect the persistent search indexes"
    )
    index_sub = db_index.add_subparsers(dest="index_command", required=True)
    for action, help_text in (
        ("build", "(re)build and persist an index for every collection"),
        ("verify", "check each index against the store checksums (exit 1 on damage)"),
        ("stats", "show per-collection index health and sizes"),
    ):
        index_action = index_sub.add_parser(action, help=help_text)
        index_action.add_argument("root", help="saved database or system directory")
        index_action.set_defaults(handler=_cmd_db_index)
    db_trace = db_sub.add_parser(
        "trace",
        help="run one query with tracing on and print its span tree, or "
             "reconstruct a recorded request's timeline with --request",
    )
    db_trace.add_argument("root", help="saved system directory")
    db_trace.add_argument(
        "query", nargs="?", default=None,
        help="query text, e.g. 'paper(author ~ \"X\")' "
             "(omit when using --request)",
    )
    db_trace.add_argument("--collection",
                          help="collection to query (default: first collection)")
    db_trace.add_argument("--json", action="store_true",
                          help="print the execution report (with trace) as JSON")
    db_trace.add_argument(
        "--slow-threshold", type=float, default=None, metavar="SECONDS",
        help="slow-query log threshold for this run (default: 0.5)",
    )
    db_trace.add_argument(
        "--request", metavar="ID",
        help="reconstruct the recorded cross-process timeline for one "
             "request id from the store's telemetry logs (no query is run)",
    )
    db_trace.add_argument(
        "--profile-hz", type=float, default=None, metavar="HZ",
        help="sample the executor at HZ while the query runs and print "
             "the per-phase wall-time attribution",
    )
    db_trace.set_defaults(handler=_cmd_db_trace)
    db_obs = db_sub.add_parser(
        "obs", help="inspect the store's metrics and slow-query log"
    )
    obs_sub = db_obs.add_subparsers(dest="obs_command", required=True)
    obs_metrics = obs_sub.add_parser(
        "metrics", help="show the accumulated metrics snapshot"
    )
    obs_metrics.add_argument("root", help="saved database or system directory")
    obs_metrics.add_argument("--json", action="store_true",
                             help="print the raw snapshot as JSON")
    obs_metrics.set_defaults(handler=_cmd_db_obs)
    obs_slow = obs_sub.add_parser(
        "slow", help="show recorded slow queries (oldest first)"
    )
    obs_slow.add_argument("root", help="saved database or system directory")
    obs_slow.add_argument("--limit", type=int, default=20, metavar="N",
                          help="show at most the newest N entries (default: 20)")
    obs_slow.add_argument("--json", action="store_true",
                          help="print the entries as JSON")
    obs_slow.add_argument("--trace", action="store_true",
                          help="also render each entry's span tree")
    obs_slow.set_defaults(handler=_cmd_db_obs)
    obs_export = obs_sub.add_parser(
        "export",
        help="export the store's metrics for scraping or dashboards",
    )
    obs_export.add_argument("root", help="saved database or system directory")
    obs_export.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="Prometheus text exposition or one JSON document "
             "(default: prometheus)",
    )
    obs_export.add_argument("--out", metavar="PATH",
                            help="write the export here instead of stdout")
    obs_export.set_defaults(handler=_cmd_db_obs)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's figures"
    )
    experiment.add_argument(
        "figure",
        choices=["fig15a", "fig15b", "fig15c", "fig16a", "fig16b", "fig16c"],
    )
    experiment.add_argument("--datasets", type=int, default=3)
    experiment.add_argument("--papers", type=int, default=100)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--quick",
        action="store_true",
        help="tiny parameter grid (seconds instead of minutes)",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_argument_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # argparse cannot allocate an *optional* positional that trails
        # intervening options (``db trace ROOT --slow-threshold 0
        # QUERY``): re-home the stray query token, and keep argparse's
        # usual unrecognized-arguments failure for everything else.
        if (
            getattr(args, "handler", None) is _cmd_db_trace
            and getattr(args, "query", None) is None
            and len(extras) == 1
            and not extras[0].startswith("-")
        ):
            args.query = extras[0]
        else:
            parser.error("unrecognized arguments: " + " ".join(extras))
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # Ctrl-C anywhere a handler does not deal with it itself: exit
        # with the conventional 128+SIGINT status, no traceback.
        print("# interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Reading commands piped into `head` etc.: exit quietly instead
        # of dumping a traceback when the reader closes early.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
