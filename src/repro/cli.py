"""Command-line interface.

    python -m repro.cli generate --profile odp --per-language 100
    python -m repro.cli train --out model.urlmodel --scale 0.4
    python -m repro.cli classify --model model.urlmodel http://www.blumen.de/garten
    python -m repro.cli evaluate --model model.urlmodel --test odp
    python -m repro.cli serve start --model model.urlmodel --socket repro.sock
    python -m repro.cli classify --model repro://repro.sock < urls.txt
    python -m repro.cli serve stop --socket repro.sock
    python -m repro.cli bulk --model model.urlmodel --input shards/ --output run/
    python -m repro.cli query counts --db run/
    python -m repro.cli experiment table8

``generate`` emits a TSV of labelled synthetic URLs; ``train`` fits a
:class:`~repro.core.pipeline.LanguageIdentifier` and saves it as a
memory-mappable model artifact (:mod:`repro.store`; ``--format pickle``
keeps the deprecated pickle path); ``classify`` labels URLs from
arguments or stdin — ``--model`` accepts any
:func:`repro.api.open_model` handle: an artifact path, a legacy
pickle, a ``store://<name>`` model-store entry, or a
``repro://<socket>`` handle of a running serving daemon; ``serve``
manages the long-lived daemon (``start``/``stop``/``status``/
``reload``); ``bulk`` is the
checkpointed offline engine for corpora that dwarf RAM (sharded
gzipped input, N workers, killable and resumable — ``docs/bulk.md``);
``query`` answers per-language counts, score histograms, URL lookups,
full-text search and model lineage over the SQLite result index a
``--sink sqlite`` bulk run maintains (``docs/query.md``);
``evaluate`` prints the paper's metric table; ``experiment`` runs a
table/figure driver.  ``docs/cli.md`` is the full reference with
runnable examples, ``docs/api.md`` the handle grammar.
"""

from __future__ import annotations

import argparse
import pickle
import sys

from repro.api import Predictor, ResolveError, open_model, resolve_artifact_path
from repro.core.pipeline import LanguageIdentifier
from repro.corpus.generator import UrlCorpusGenerator
from repro.datasets import build_datasets
from repro.evaluation.metrics import average_f
from repro.evaluation.reports import metrics_table
from repro.languages import LANGUAGES

#: Experiment drivers runnable via ``repro.cli experiment <name>``.
EXPERIMENTS = {
    "table1": "table1_datasets",
    "table2": "table2_human",
    "table3": "table3_human_confusion",
    "table4": "table4_cctld",
    "table5": "table5_cctld_confusion",
    "table6": "table6_nb_confusion",
    "table7": "table7_full_grid",
    "table8": "table8_nb_words",
    "table9": "table9_combinations",
    "table10": "table10_content",
    "figure1": "figure1_tree",
    "figure2": "figure2_training_sweep",
    "figure3": "figure3_domain_memo",
    "selection": "selection_15",
    "errors": "error_analysis",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="URL-based web page language identification "
        "(Baykan, Henzinger & Weber, VLDB 2008 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="emit a synthetic labelled URL corpus as TSV"
    )
    generate.add_argument("--profile", choices=("odp", "ser", "wc"), default="odp")
    generate.add_argument("--per-language", type=int, default=100)
    generate.add_argument("--seed", type=int, default=0)

    train = commands.add_parser(
        "train", help="train an identifier and save a model artifact"
    )
    train.add_argument("--out", required=True, help="output model path")
    train.add_argument("--features", default="words",
                       choices=("words", "trigrams", "custom"))
    train.add_argument("--algorithm", default="NB",
                       choices=("NB", "RE", "ME", "DT", "kNN", "RO", "MM"))
    train.add_argument("--scale", type=float, default=0.4)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "compiled", "sparse"),
        help="inference backend: auto compiles vectorized batch "
        "prediction when the algorithm supports it",
    )
    train.add_argument(
        "--format",
        default="auto",
        choices=("auto", "artifact", "pickle"),
        help="model serialisation: 'artifact' is the mmap-able binary "
        "format (requires a compiled backend), 'pickle' the deprecated "
        "fallback, 'auto' picks artifact when possible",
    )
    train.add_argument(
        "--dtype",
        default="float64",
        choices=("float64", "float32"),
        help="stored precision of the artifact's weight matrix: float32 "
        "halves the mmapped footprint (scores move by at most 1e-6 "
        "relative; decisions unchanged), float64 is exact",
    )

    classify = commands.add_parser("classify", help="classify URLs")
    classify.add_argument(
        "--model",
        required=True,
        help="any repro.api.open_model handle: model artifact, legacy "
        "pickle, store://<name>, or repro://<socket> handle of a "
        "running serve daemon",
    )
    classify.add_argument("urls", nargs="*", help="URLs (default: stdin)")

    evaluate = commands.add_parser("evaluate", help="evaluate on a test set")
    evaluate.add_argument(
        "--model", required=True,
        help="model artifact, legacy pickle, store://<name>, or "
        "repro://<socket> handle",
    )
    evaluate.add_argument("--test", choices=("odp", "ser", "wc"), default="odp")
    evaluate.add_argument("--scale", type=float, default=0.4)
    evaluate.add_argument("--seed", type=int, default=0)

    serve = commands.add_parser(
        "serve", help="the long-lived serving daemon"
    )
    serve_commands = serve.add_subparsers(dest="serve_command", required=True)

    start = serve_commands.add_parser(
        "start",
        help="start a daemon: N pre-forked workers sharing one "
        "memory-mapped artifact behind a Unix socket",
    )
    start.add_argument(
        "--model", required=True,
        help="model artifact path or store://<name> handle",
    )
    start.add_argument(
        "--socket", default="repro-serve.sock",
        help="Unix socket path (pidfile and log go next to it)",
    )
    start.add_argument("--workers", type=int, default=2)
    start.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="also serve HTTP on 127.0.0.1:PORT (0 picks a free port)",
    )
    start.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="also accept wire-protocol clients over TCP "
        "(e.g. 127.0.0.1:7707; :0 picks a free loopback port; "
        "clients dial repro+tcp://HOST:PORT)",
    )
    start.add_argument(
        "--query-db", default=None, metavar="PATH",
        help="expose read-only GET /v1/query/* routes over this result "
        "index (a results.sqlite or a bulk run directory; needs --http)",
    )
    start.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON event logs (one object per line; "
        "same as REPRO_LOG=json)",
    )
    start.add_argument(
        "--foreground", action="store_true",
        help="stay attached, log to stderr (no detach, no log file)",
    )

    for name, text in (
        ("stop", "gracefully stop the daemon on --socket"),
        ("status", "print the daemon's status block as JSON"),
        ("reload", "ask the daemon to hot-reload its artifact (SIGHUP)"),
    ):
        sub = serve_commands.add_parser(name, help=text)
        sub.add_argument("--socket", default="repro-serve.sock")
        if name == "status":
            sub.add_argument(
                "--json", action="store_true",
                help="compact single-line JSON (the default output is "
                "the same block, indented)",
            )
            sub.add_argument(
                "--prom", action="store_true",
                help="render the status block in Prometheus text "
                "exposition format (what GET /metrics serves)",
            )
            sub.add_argument(
                "--traces", action="store_true",
                help="print the daemon's retained request spans as "
                "JSON lines, oldest first",
            )

    bulk = commands.add_parser(
        "bulk",
        help="checkpointed, parallel bulk scoring of a sharded URL corpus",
    )
    bulk.add_argument(
        "action", nargs="?", choices=("run", "verify"), default="run",
        help="run (default) scores the corpus; verify re-hashes a "
        "finished run's committed outputs against its manifest",
    )
    bulk.add_argument(
        "--model",
        help="any repro.api.open_model handle string: artifact path, "
        "store://<name>[?root=..], repro://<socket>, or legacy pickle "
        "(required for run)",
    )
    bulk.add_argument(
        "--input",
        help="a URL file (.txt/.jsonl/.csv, optionally .gz), a directory "
        "of such shards, or '-' for stdin (streaming only; required "
        "for run)",
    )
    bulk.add_argument(
        "--output", required=True,
        help="output directory: one part-NNNNN file per input shard, "
        "plus the checkpoint (manifest.json, and its manifest.journal "
        "until the run ends)",
    )
    bulk.add_argument("--workers", type=int, default=2)
    bulk.add_argument(
        "--sink", default="tsv", choices=("tsv", "jsonl", "csv", "sqlite"),
        help="row format: tsv is byte-identical to 'classify'; "
        "jsonl/csv add per-language scores and model provenance; "
        "sqlite writes jsonl shards plus a queryable results.sqlite "
        "index ('repro query')",
    )
    bulk.add_argument("--chunk-size", type=int, default=512,
                      help="URLs per scoring pass (one matmul each)")
    bulk.add_argument(
        "--url-field", default="url",
        help="JSONL field / CSV column holding the URL",
    )
    bulk.add_argument(
        "--resume", action="store_true",
        help="continue the run checkpointed in --output (refused if "
        "the model checksum or shard list changed)",
    )
    bulk.add_argument(
        "--no-quarantine", action="store_true",
        help="fail the run on the first malformed or unscorable row "
        "instead of diverting it to the *.quarantine.jsonl sidecar",
    )
    bulk.add_argument(
        "--quiet", action="store_true",
        help="suppress per-shard progress lines",
    )
    bulk.add_argument(
        "--json", action="store_true",
        help="verify only: print the verification report as one JSON "
        "object instead of the human summary line",
    )

    query = commands.add_parser(
        "query",
        help="query a bulk run's SQLite result index and model lineage",
    )
    query_commands = query.add_subparsers(dest="query_command", required=True)

    def _query_db(sub, required=True):
        sub.add_argument(
            "--db", required=required,
            help="the results.sqlite file, or the bulk run's output "
            "directory containing it",
        )

    def _query_json(sub):
        sub.add_argument(
            "--json", action="store_true",
            help="print the result as one JSON object",
        )

    q_index = query_commands.add_parser(
        "index",
        help="build or reconcile a run's result index from its manifest "
        "(runs with --sink sqlite maintain it automatically)",
    )
    q_index.add_argument(
        "--run", required=True,
        help="the bulk run's output directory (manifest.json + shards)",
    )
    q_index.add_argument(
        "--db", help="database path (default: results.sqlite in --run)"
    )
    q_index.add_argument(
        "--rebuild", action="store_true",
        help="start the index over (new fingerprint; outstanding page "
        "cursors are invalidated)",
    )

    q_status = query_commands.add_parser(
        "status", help="index totals, fingerprint, and scoring model"
    )
    _query_db(q_status)
    _query_json(q_status)

    q_counts = query_commands.add_parser(
        "counts", help="per-language decision totals"
    )
    _query_db(q_counts)
    q_counts.add_argument("--language", help="narrow to one language code")
    _query_json(q_counts)

    q_hist = query_commands.add_parser(
        "hist", help="score-distribution histogram"
    )
    _query_db(q_hist)
    q_hist.add_argument("--language", help="narrow to one language code")
    q_hist.add_argument("--bins", type=int, default=20)
    _query_json(q_hist)

    q_lookup = query_commands.add_parser(
        "lookup", help="point or prefix URL lookup"
    )
    _query_db(q_lookup)
    q_lookup.add_argument("url", help="the URL (or, with --prefix, its start)")
    q_lookup.add_argument(
        "--prefix", action="store_true",
        help="match every URL starting with the argument",
    )
    q_lookup.add_argument("--limit", type=int, default=None)
    _query_json(q_lookup)

    q_search = query_commands.add_parser(
        "search", help="full-text search over URLs (FTS5 match syntax)"
    )
    _query_db(q_search)
    q_search.add_argument("match", help="FTS5 query, e.g. 'blumen OR garten'")
    q_search.add_argument("--limit", type=int, default=None)
    q_search.add_argument(
        "--cursor", help="resume from a previous page's next_cursor"
    )
    _query_json(q_search)

    q_rows = query_commands.add_parser(
        "rows", help="score-ordered rows under keyset page cursors"
    )
    _query_db(q_rows)
    q_rows.add_argument("--language", help="narrow to one language code")
    q_rows.add_argument("--limit", type=int, default=None)
    q_rows.add_argument(
        "--cursor", help="resume from a previous page's next_cursor"
    )
    _query_json(q_rows)

    q_lineage = query_commands.add_parser(
        "lineage",
        help="build/query the model-registry lineage index (which corpus "
        "trained which model; which model scored which run)",
    )
    q_lineage.add_argument(
        "--db", default="lineage.sqlite",
        help="lineage database path (default: lineage.sqlite)",
    )
    q_lineage.add_argument(
        "--store", help="model-store root to (re)index into the database"
    )
    q_lineage.add_argument(
        "--run", action="append", default=[], metavar="RUN_DIR",
        help="bulk run directory to (re)index (repeatable)",
    )
    q_lineage.add_argument(
        "--model", help="list runs scored by this model (name, checksum, "
        "or checksum prefix)",
    )
    q_lineage.add_argument(
        "--corpus", help="list models trained on this corpus fingerprint "
        "(sha256 or prefix)",
    )
    q_lineage.add_argument(
        "--run-model", metavar="RUN_DIR",
        help="resolve the model behind one run (joined against the store)",
    )
    _query_json(q_lineage)

    experiment = commands.add_parser(
        "experiment", help="run a table/figure reproduction driver"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", type=float, default=0.5)

    return parser


def _cmd_generate(args: argparse.Namespace, out) -> int:
    generator = UrlCorpusGenerator(seed=args.seed)
    corpus = generator.generate_corpus(
        args.profile, {lang: args.per_language for lang in LANGUAGES}
    )
    for record in corpus:
        out.write(f"{record.language.value}\t{record.url}\n")
    return 0


def _cmd_train(args: argparse.Namespace, out) -> int:
    from repro.store import save_identifier

    data = build_datasets(seed=args.seed, scale=args.scale)
    identifier = LanguageIdentifier(
        feature_set=args.features,
        algorithm=args.algorithm,
        seed=args.seed,
        backend=args.backend,
    )
    identifier.fit(data.combined_train)
    model_format = args.format
    if model_format == "auto":
        model_format = "artifact" if identifier.compiled is not None else "pickle"
    if model_format == "artifact":
        # raises if not compilable
        save_identifier(identifier, args.out, dtype=args.dtype)
    else:
        if args.dtype != "float64":
            out.write("--dtype applies to artifacts only; ignored for pickle\n")
        with open(args.out, "wb") as handle:
            pickle.dump(identifier, handle)
    note = "" if model_format == "artifact" else " (deprecated pickle format)"
    out.write(
        f"trained {identifier.name} on {len(data.combined_train)} URLs "
        f"-> {args.out}{note}\n"
    )
    return 0


def _load_model(handle: str) -> Predictor:
    """Resolve ``--model`` through the one facade, exiting cleanly.

    All handle sniffing lives in :func:`repro.api.open_model` — paths
    (artifact or legacy pickle), ``store://<name>[@version]`` entries,
    and ``repro://<socket>`` daemon handles all resolve here.  Typed
    resolution failures become a clean ``SystemExit`` with the
    actionable message.
    """
    try:
        return open_model(handle)
    except ResolveError as error:
        raise SystemExit(str(error)) from None


def _cmd_classify(args: argparse.Namespace, out) -> int:
    identifier = _load_model(args.model)
    # Stream: stdin is consumed lazily, chunked into batch passes (a
    # single matrix product each on the compiled backend, one request
    # on a daemon handle); both the best label and the per-language
    # yes/no answers derive from the same score matrix.
    urls = args.urls or (line.strip() for line in sys.stdin if line.strip())
    for prediction in identifier.predict_iter(urls):
        out.write(prediction.tsv() + "\n")
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    import json

    from repro.store import DaemonClient, DaemonError
    from repro.store.daemon import ServingDaemon, start_daemon, stop_daemon

    command = args.serve_command
    try:
        if command == "start":
            # The daemon's workers need a file they can all mmap:
            # resolve_artifact_path maps paths and store:// names to one
            # and rejects pickles and daemon handles.
            try:
                model_path = resolve_artifact_path(args.model)
            except ResolveError as error:
                raise SystemExit(str(error)) from None
            if args.query_db and args.http is None:
                raise SystemExit(
                    "serve start: --query-db rides on the HTTP front-end; "
                    "add --http PORT (0 picks a free port)"
                )
            if args.foreground:
                return ServingDaemon(
                    model_path, args.socket,
                    workers=args.workers, http_port=args.http,
                    tcp=args.tcp, query_db=args.query_db,
                    log_json=args.log_json,
                ).run()
            try:
                pid = start_daemon(
                    model_path, args.socket,
                    workers=args.workers, http_port=args.http,
                    tcp=args.tcp, query_db=args.query_db,
                    log_json=args.log_json,
                )
            except (RuntimeError, ValueError) as error:
                raise SystemExit(str(error)) from None
            out.write(f"daemon {pid} serving {args.model} on {args.socket}\n")
            return 0
        if command == "stop":
            try:
                pid = stop_daemon(args.socket)
            except RuntimeError as error:
                raise SystemExit(str(error)) from None
            out.write(f"daemon {pid} stopped\n")
            return 0
        if command == "status":
            if args.traces:
                with DaemonClient(args.socket) as client:
                    spans = client.traces()
                for span in spans:
                    out.write(
                        json.dumps(span, separators=(",", ":"),
                                   sort_keys=True) + "\n"
                    )
                return 0
            with DaemonClient(args.socket) as client:
                status = client.status()
            if args.prom:
                from repro.obs import render_prometheus

                out.write(render_prometheus(status))
                return 0
            if args.json:
                out.write(
                    json.dumps(
                        status, separators=(",", ":"), sort_keys=True
                    )
                )
            else:
                out.write(json.dumps(status, indent=2, sort_keys=True))
            out.write("\n")
            return 0
        if command == "reload":
            with DaemonClient(args.socket) as client:
                response = client.reload()
            out.write(
                f"daemon {response.get('pid')} signalled to reload; "
                "poll 'serve status' for the new checksum\n"
            )
            return 0
    except DaemonError as error:
        raise SystemExit(str(error)) from None


def _cmd_bulk(args: argparse.Namespace, out) -> int:
    """Checkpointed bulk scoring: ``repro.bulk.run`` behind flags.

    Typed planning/checkpoint/resolution failures exit cleanly with
    their actionable message; per-shard progress goes to ``out`` unless
    ``--quiet``.
    """
    from repro.bulk import BulkError, run, verify_run

    if args.action == "verify":
        try:
            verified = verify_run(args.output)
        except BulkError as error:
            raise SystemExit(str(error)) from None
        if args.json:
            import dataclasses
            import json

            out.write(
                json.dumps(
                    dataclasses.asdict(verified),
                    separators=(",", ":"),
                    sort_keys=True,
                )
                + "\n"
            )
        else:
            out.write(verified.describe() + "\n")
        return 0
    if not args.model or not args.input:
        raise SystemExit(
            "repro bulk: --model and --input are required "
            "(only 'repro bulk verify' runs without them)"
        )
    progress = None if args.quiet else (
        lambda line: out.write(line + "\n")
    )
    try:
        report = run(
            args.model,
            args.input,
            args.output,
            workers=args.workers,
            sink=args.sink,
            chunk_size=args.chunk_size,
            url_field=args.url_field,
            resume=args.resume,
            quarantine=not args.no_quarantine,
            progress=progress,
        )
    except (BulkError, ResolveError) as error:
        raise SystemExit(str(error)) from None
    out.write(report.describe() + "\n")
    if report.manifest_path:
        out.write(f"manifest: {report.manifest_path}\n")
    return 0


def _dump(out, payload: dict, as_json: bool) -> None:
    """One result object: compact JSON or indented (human) JSON."""
    import json

    if as_json:
        out.write(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    else:
        out.write(json.dumps(payload, indent=2, sort_keys=True))
    out.write("\n")


def _write_page(out, page, as_json: bool) -> None:
    """Rows + pagination: JSON snapshot, or TSV-ish lines + cursor."""
    if as_json:
        _dump(out, page.snapshot(), True)
        return
    for row in page.rows:
        score = "" if row["score"] is None else f"{row['score']!r}"
        out.write(
            f"{row['best'] or 'und'}\t{score}\t{row['url']}\n"
        )
    if page.next_cursor:
        out.write(f"# next --cursor {page.next_cursor}\n")


def _cmd_query(args: argparse.Namespace, out) -> int:
    """The result-index and lineage query surface (``docs/query.md``).

    Typed :class:`repro.query.QueryError` failures (missing index,
    foreign cursor, bad limit, unreadable manifest) exit cleanly with
    their actionable message — exactly the errors the HTTP routes turn
    into 400s.
    """
    from repro.query import (
        Page,
        QueryError,
        build_lineage,
        index_run,
        open_index,
        open_lineage,
    )

    command = args.query_command
    try:
        if command == "index":
            report = index_run(
                args.run, args.db, rebuild=args.rebuild,
                progress=lambda line: out.write(line + "\n"),
            )
            out.write(report.describe() + "\n")
            return 0
        if command == "lineage":
            if args.store or args.run:
                index = build_lineage(
                    args.db, store_root=args.store, run_dirs=args.run,
                )
            else:
                index = open_lineage(args.db)
            with index:
                if args.run_model:
                    resolved = index.run_model(args.run_model)
                    if resolved is None:
                        raise SystemExit(
                            f"lineage index has no run {args.run_model!r}; "
                            "index it first with --run"
                        )
                    _dump(out, resolved, args.json)
                elif args.model:
                    _dump(out, {"runs": index.runs(model=args.model)},
                          args.json)
                elif args.corpus:
                    _dump(out, {"models": index.models(corpus=args.corpus)},
                          args.json)
                else:
                    _dump(
                        out,
                        {"models": index.models(), "runs": index.runs()},
                        args.json,
                    )
            return 0
        with open_index(args.db) as index:
            if command == "status":
                _dump(out, index.status(), args.json)
            elif command == "counts":
                _dump(out, index.counts(args.language), args.json)
            elif command == "hist":
                _dump(
                    out,
                    index.histogram(args.language, bins=args.bins),
                    args.json,
                )
            elif command == "lookup":
                rows = index.lookup(
                    args.url, prefix=args.prefix, limit=args.limit
                )
                _write_page(out, Page(rows=rows), args.json)
            elif command == "search":
                _write_page(
                    out,
                    index.search(
                        args.match, limit=args.limit, cursor=args.cursor
                    ),
                    args.json,
                )
            elif command == "rows":
                _write_page(
                    out,
                    index.page(
                        args.language, limit=args.limit, cursor=args.cursor
                    ),
                    args.json,
                )
    except QueryError as error:
        raise SystemExit(str(error)) from None
    return 0


def _cmd_evaluate(args: argparse.Namespace, out) -> int:
    identifier = _load_model(args.model)
    data = build_datasets(seed=args.seed, scale=args.scale)
    test = {"odp": data.odp_test, "ser": data.ser_test, "wc": data.wc_test}[
        args.test
    ]
    metrics = identifier.evaluate(test)
    rows = [(lang.display_name, metrics[lang]) for lang in LANGUAGES]
    out.write(
        metrics_table(rows, title=f"{identifier.name} on {args.test.upper()}")
        + "\n"
    )
    out.write(f"average F: {average_f(list(metrics.values())):.3f}\n")
    return 0


def _cmd_experiment(args: argparse.Namespace, out) -> int:
    import importlib

    from repro.experiments.common import ExperimentContext

    module = importlib.import_module(
        f"repro.experiments.{EXPERIMENTS[args.name]}"
    )
    context = ExperimentContext(scale=args.scale)
    out.write(module.run(context) + "\n")
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "classify": _cmd_classify,
        "serve": _cmd_serve,
        "bulk": _cmd_bulk,
        "query": _cmd_query,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
    }[args.command]
    return handler(args, out)


if __name__ == "__main__":
    raise SystemExit(main())
