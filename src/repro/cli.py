"""Command-line interface: the ``mhxq`` tool.

Subcommands (all take a ``.mhx`` container, or ``--sample`` for the
built-in Boethius document):

* ``query`` — evaluate an extended XQuery expression;
* ``xpath`` — evaluate a pure extended-XPath expression;
* ``explain`` — show a query's compiled pipeline plan (rewrites +
  logical operators) without running it;
* ``update`` — apply a transactional update statement (``insert
  node``, ``delete node``, ``replace value of``, ``rename``, ``add
  markup``, ``remove markup``), optionally re-saving with ``--out``;
* ``stats`` — print the KyGODDAG node/edge inventory;
* ``describe`` — print the KyGODDAG outline (hierarchies + leaves);
* ``render`` — emit GraphViz DOT (Figure 2 style);
* ``leaves`` — list the leaf partition;
* ``validate`` — check CMH alignment (and DTDs when bundled);
* ``fragment`` / ``milestone`` — emit the baseline flat encodings;
* ``experiments`` — run the paper-vs-measured reproduction report;
* ``pack`` — bundle a base text + XML encodings into a ``.mhx`` (or,
  by extension, a binary ``.mhxb``) container;
* ``ingest`` — a base text + XML encodings (and optional standoff
  ``--layer`` span files) straight into a binary ``.mhxb``: columns to
  file, no node object in between (DESIGN.md §15) — how ``pack``
  writes a ``.mhxb`` too;
* ``store`` — the concurrent document store (DESIGN.md §10):
  ``store init/add/get/query/update/compact`` manage a named catalog
  of ``.mhxb``-persisted documents with MVCC snapshot reads;
  ``store verify`` deep-scans every block checksum (documents and
  corpus shards) and runs the whole invariant net over each document,
  and ``store recover`` reports
  what open-time crash recovery swept, adopted, or quarantined
  (DESIGN.md §12); ``store shard`` partitions a large
  document into a corpus of per-shard ``.mhxb`` files and ``store
  cquery`` runs ``collection("name")`` queries over it with
  scatter-gather parallelism (``--workers``) and manifest-statistics
  shard pruning (DESIGN.md §13);
* ``serve`` — the async multi-tenant HTTP/JSON query service over a
  document store (DESIGN.md §14): ``mhxq serve --root STORE``
  exposes ``/query``, ``/update``, ``/cquery``, ``/explain``,
  ``/healthz`` and ``/statz`` with admission control, per-tenant
  quotas, pagination/streaming, and graceful SIGTERM drain.

Examples::

    mhxq query --sample 'count(/descendant::w)'
    mhxq experiments
    mhxq pack out.mhx --text base.txt physical=phys.xml damage=dmg.xml
    mhxq ingest out.mhxb --text base.txt verse=verse.xml \
        --layer tokens=tokens.json
    mhxq store init ./catalog
    mhxq store add ./catalog boethius --sample
    mhxq store query ./catalog boethius 'count(/descendant::w)'
    mhxq store shard ./catalog corpus --generate 64000 --shards 8
    mhxq store cquery ./catalog 'count(collection("corpus")//w)' \
        --workers 4
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api import Engine, load_mhx, save_mhx
from repro.errors import ReproError
from repro.markup import serialize
from repro.markup.streaming import stream_save
from repro.cmh import MultihierarchicalDocument
from repro.baselines import fragment_document, milestone_document
from repro.corpus.boethius import boethius_document
from repro.store.mhxb import load_document
from repro.experiments.runner import format_reports, run_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhxq",
        description="Multihierarchical XQuery over document-centric XML "
                    "(SIGMOD 2006 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_document_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mhx", metavar="FILE",
                       help="a .mhx multihierarchical document container")
        p.add_argument("--sample", action="store_true",
                       help="use the built-in Boethius sample (Figure 1)")

    p_query = sub.add_parser(
        "query", help="evaluate an extended XQuery",
        epilog="Extended axes and the compiled plan pipeline: "
               "DESIGN.md §4 and §8; interval-join execution: §11.")
    add_document_options(p_query)
    p_query.add_argument("expression", help="the query text, or @file")
    p_query.add_argument("--mode", choices=("paper", "xquery"),
                         default="paper",
                         help="result serialization mode (default: paper)")

    p_xpath = sub.add_parser("xpath", help="evaluate an extended XPath")
    add_document_options(p_xpath)
    p_xpath.add_argument("expression", help="the path expression, or @file")
    p_xpath.add_argument("--mode", choices=("paper", "xquery"),
                         default="paper")

    p_explain = sub.add_parser(
        "explain", help="show the compiled pipeline plan for a query",
        epilog="Plan rewrites and operator lowering: DESIGN.md §8; "
               "join-aware lowering of extended axes: §11; cost-based "
               "ordering: §16.  Costed steps carry est=… estimated "
               "cardinalities; --analyze runs the query and adds "
               "act=… actual rows per operator, flagging "
               "misestimates with '!'.")
    add_document_options(p_explain)
    p_explain.add_argument("expression", help="the query text, or @file")
    p_explain.add_argument("--xpath", action="store_true",
                           help="parse as a pure extended-XPath expression")
    p_explain.add_argument("--analyze", action="store_true",
                           help="execute the query and render actual "
                                "next to estimated cardinalities")

    p_update = sub.add_parser(
        "update", help="apply a transactional update statement",
        epilog="Pending-update lists, conflict checks, and the "
               "incremental apply paths: DESIGN.md §9.")
    add_document_options(p_update)
    p_update.add_argument("statement", help="the update statement, or @file")
    p_update.add_argument("--out", metavar="FILE",
                          help="write the mutated document to a .mhx "
                               "container")
    p_update.add_argument("--no-check", action="store_true",
                          help="skip the post-apply invariant check")
    p_update.add_argument("--explain", action="store_true",
                          help="show the compiled update plan instead of "
                               "applying it")

    for name, help_text in (("stats", "print the KyGODDAG inventory"),
                            ("describe", "print the KyGODDAG outline"),
                            ("render", "emit GraphViz DOT"),
                            ("leaves", "list the leaf partition"),
                            ("validate", "check alignment and DTDs")):
        p = sub.add_parser(name, help=help_text)
        add_document_options(p)

    p_frag = sub.add_parser("fragment",
                            help="emit the fragmentation baseline encoding")
    add_document_options(p_frag)
    p_mile = sub.add_parser("milestone",
                            help="emit the milestone baseline encoding")
    add_document_options(p_mile)
    p_mile.add_argument("--primary", default=None,
                        help="hierarchy kept as the real tree")

    sub.add_parser("experiments",
                   help="run the paper-vs-measured reproduction report")

    def add_encoding_options(p: argparse.ArgumentParser,
                             required: bool = False) -> None:
        p.add_argument("--text", required=required, metavar="FILE",
                       help="base text file of NAME=FILE encodings")
        p.add_argument("encodings", nargs="+" if required else "*",
                       metavar="NAME=FILE",
                       help="hierarchy encodings as name=xmlfile, over "
                            "--text (place them directly after the "
                            "positional before them)")
        p.add_argument("--layer", action="append", default=[],
                       metavar="NAME=FILE",
                       help="standoff span layer over --text: a JSON "
                            "file of [start, end, name[, {attrs}]] "
                            "rows (repeatable)")

    p_pack = sub.add_parser(
        "pack", help="bundle encodings into a .mhx (or binary .mhxb)",
        epilog="A .mhxb is written as 'mhxq ingest' writes it, which "
               "also takes standoff layers (DESIGN.md §15). Container "
               "formats: DESIGN.md §10 and §12.")
    p_pack.add_argument("output",
                        help="output path (.mhx = JSON, .mhxb = binary)")
    p_pack.add_argument("--text", required=True, metavar="FILE",
                        help="file containing the base text")
    p_pack.add_argument("encodings", nargs="+", metavar="NAME=FILE",
                        help="hierarchy encodings as name=xmlfile")

    p_ingest = sub.add_parser(
        "ingest", help="encodings straight into a binary .mhxb "
                       "(columns to file)",
        epilog="Each encoding is tokenized in one pass into the "
               ".mhxb node tables and written out — no DOM, no node "
               "objects. Standoff --layer files carry JSON [start, "
               "end, name] or [start, end, name, {attrs}] rows of "
               "character spans, the shape NLP pipelines emit for "
               "token/sentence/entity layers. See DESIGN.md §15.")
    p_ingest.add_argument("output", help="output .mhxb path")
    add_encoding_options(p_ingest, required=True)
    p_ingest.add_argument("--durability", choices=("full", "off"),
                          default="off",
                          help="fsync the container on write "
                               "(DESIGN.md §12; default: off)")

    p_store = sub.add_parser(
        "store", help="the concurrent document store (DESIGN.md §10)",
        epilog="Persistence and MVCC snapshots: DESIGN.md §10; "
               "durability and crash recovery: §12; sharded corpora "
               "and cquery scatter-gather: §13; the ingest: §15.")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    def add_durability_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--durability", choices=("full", "batch", "off"),
                       default="full",
                       help="fsync policy for this store session "
                            "(DESIGN.md §12; default: full)")

    p_s_init = store_sub.add_parser("init", help="create an empty store")
    p_s_init.add_argument("store_dir", help="store directory")

    p_s_add = store_sub.add_parser(
        "add", help="register a document",
        epilog="Registration is transactional (DESIGN.md §10). "
               "The document is --text FILE with NAME=FILE encodings "
               "(tokenized straight into the store's file, §15), a "
               "container (--mhx), or --sample.")
    p_s_add.add_argument("store_dir")
    p_s_add.add_argument("name", help="catalog name for the document")
    add_document_options(p_s_add)
    add_encoding_options(p_s_add)
    add_durability_option(p_s_add)

    p_s_get = store_sub.add_parser(
        "get", help="show (and optionally export) a stored document")
    p_s_get.add_argument("store_dir")
    p_s_get.add_argument("name", nargs="?", default=None,
                         help="document name (omit to list the catalog)")
    p_s_get.add_argument("--out", metavar="FILE",
                         help="export to .mhx (JSON) or .mhxb (binary)")

    p_s_query = store_sub.add_parser(
        "query", help="query a document's current snapshot")
    p_s_query.add_argument("store_dir")
    p_s_query.add_argument("name")
    p_s_query.add_argument("expression", help="the query text, or @file")
    p_s_query.add_argument("--mode", choices=("paper", "xquery"),
                           default="paper")

    p_s_update = store_sub.add_parser(
        "update", help="apply a transactional update batch")
    p_s_update.add_argument("store_dir")
    p_s_update.add_argument("name")
    p_s_update.add_argument("statements", nargs="+",
                            help="update statements (each may be @file); "
                                 "the batch is all-or-nothing")
    p_s_update.add_argument("--no-check", action="store_true",
                            help="skip the post-apply invariant checks")
    add_durability_option(p_s_update)

    p_s_compact = store_sub.add_parser(
        "compact", help="rewrite .mhxb files from the live snapshots")
    p_s_compact.add_argument("store_dir")
    p_s_compact.add_argument("name", nargs="?", default=None,
                             help="document name (omit for all)")
    add_durability_option(p_s_compact)

    p_s_verify = store_sub.add_parser(
        "verify", help="deep checksum scan of every stored document and "
                       "corpus shard, whole invariant net over every "
                       "document")
    p_s_verify.add_argument("store_dir")
    p_s_verify.add_argument("name", nargs="?", default=None,
                            help="document or corpus name (omit for all)")

    p_s_recover = store_sub.add_parser(
        "recover", help="run crash recovery and report what it did")
    p_s_recover.add_argument("store_dir")

    p_s_shard = store_sub.add_parser(
        "shard", help="partition a document into a sharded corpus",
        epilog="Cuts land at fragment boundaries valid in every "
               "hierarchy (DESIGN.md §13); the node tables are cut, "
               "whatever the document came in as (§15).")
    p_s_shard.add_argument("store_dir")
    p_s_shard.add_argument("name", help="catalog name for the corpus")
    add_document_options(p_s_shard)
    add_encoding_options(p_s_shard)
    p_s_shard.add_argument("--generate", type=int, metavar="N_WORDS",
                           help="shard a seeded synthetic manuscript "
                                "of N_WORDS words instead of a file")
    p_s_shard.add_argument("--shards", type=int, default=4,
                           help="target shard count (default: 4; the "
                                "markup may offer fewer valid cuts)")
    add_durability_option(p_s_shard)

    p_s_cquery = store_sub.add_parser(
        "cquery", help="scatter-gather a collection(\"name\") query "
                       "over a sharded corpus")
    p_s_cquery.add_argument("store_dir")
    p_s_cquery.add_argument("expression", help="the query text, or @file")
    p_s_cquery.add_argument("--workers", type=int, default=1,
                            help="worker processes (1 = in-process "
                                 "serial scatter; default: 1)")
    p_s_cquery.add_argument("--no-prune", action="store_true",
                            help="dispatch to every shard, ignoring "
                                 "the manifest pruning statistics")
    p_s_cquery.add_argument("--stats", action="store_true",
                            help="print the execution shape (mode, "
                                 "shards pruned/executed) to stderr")

    p_serve = sub.add_parser(
        "serve", help="serve a document store over HTTP/JSON "
                      "(DESIGN.md §14)",
        epilog="Admission control, tenant quotas, snapshot pinning, "
               "and the drain protocol: DESIGN.md §14.")
    p_serve.add_argument("--root", required=True, metavar="STORE",
                         help="the document-store directory to serve")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="bind port (default: 0 = ephemeral; the "
                              "bound address is printed on startup)")
    p_serve.add_argument("--max-inflight", type=int, default=0,
                         help="concurrent query executions "
                              "(default: 0 = CPU count)")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="admitted requests allowed to wait for "
                              "an execution slot (default: 64)")
    p_serve.add_argument("--tenant-qps", type=float, default=0.0,
                         help="per-tenant sustained queries/second "
                              "(default: 0 = quotas disabled)")
    p_serve.add_argument("--body-limit", type=int, default=1 << 20,
                         help="request body bound in bytes "
                              "(default: 1 MiB)")
    p_serve.add_argument("--access-log", metavar="FILE",
                         help="append structured JSON access-log "
                              "lines here ('-' for stderr)")
    return parser


def _open_engine(args: argparse.Namespace) -> Engine:
    """An engine for ``--mhx FILE`` (routing ``.mhxb``) or ``--sample``."""
    if getattr(args, "sample", False):
        return Engine(boethius_document(validate=False))
    if getattr(args, "mhx", None):
        return Engine.from_mhx(args.mhx)
    raise ReproError("provide --mhx FILE or --sample")


def _load_document(args: argparse.Namespace) -> MultihierarchicalDocument:
    if getattr(args, "sample", False):
        return boethius_document(validate=False)
    if getattr(args, "mhx", None):
        path = Path(args.mhx)
        if path.suffix == ".mhxb":
            return load_document(path)
        return load_mhx(path)
    raise ReproError("provide --mhx FILE or --sample")


def _read_expression(expression: str) -> str:
    if expression.startswith("@"):
        return Path(expression[1:]).read_text(encoding="utf-8")
    return expression


def _read_spec_pairs(items: list[str], what: str) -> dict[str, str]:
    """``NAME=FILE`` specs → ``{name: file contents}``, in spec order."""
    pairs: dict[str, str] = {}
    for item in items:
        name, _sep, path = item.partition("=")
        if not _sep:
            raise ReproError(f"bad {what} spec {item!r}; "
                             f"expected NAME=FILE")
        pairs[name] = Path(path).read_text(encoding="utf-8")
    return pairs


def _read_layers(items: list[str]) -> dict[str, list]:
    """``--layer NAME=FILE`` specs → span rows per layer name.

    Each file holds a JSON array of ``[start, end, name]`` or
    ``[start, end, name, {attrs}]`` rows (character offsets into the
    base text) — the standoff shape NLP pipelines emit.
    """
    import json

    layers: dict[str, list] = {}
    for name, payload in _read_spec_pairs(items, "layer").items():
        try:
            rows = json.loads(payload)
        except ValueError as error:
            raise ReproError(
                f"layer {name!r} is not valid JSON: {error}") from error
        if not isinstance(rows, list):
            raise ReproError(
                f"layer {name!r} must be a JSON array of "
                f"[start, end, name[, attrs]] rows")
        layers[name] = [tuple(row) for row in rows]
    return layers


def _encoded_inputs(args: argparse.Namespace
                    ) -> tuple[str, dict, dict] | None:
    """``(text, sources, layers)`` of an invocation that gives its
    document as ``--text`` + ``NAME=FILE`` encodings; ``None`` for one
    that gives it another way (``--mhx``/``--sample``)."""
    if not (args.text or args.encodings or args.layer):
        return None
    if not args.text:
        raise ReproError("NAME=FILE encodings and --layer need --text FILE")
    for flag in ("mhx", "sample", "generate"):
        if getattr(args, flag, None) not in (None, False):
            raise ReproError(
                f"--text with NAME=FILE encodings is one document and "
                f"--{flag} another; give one")
    sources = _read_spec_pairs(args.encodings, "encoding")
    if not sources:
        raise ReproError(
            "--text needs at least one NAME=FILE encoding "
            "(standoff --layer layers attach on top of it)")
    text = Path(args.text).read_text(encoding="utf-8")
    return text, sources, _read_layers(args.layer)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    command = args.command
    if command == "experiments":
        print(format_reports(run_all()))
        return 0
    if command == "pack":
        text = Path(args.text).read_text(encoding="utf-8")
        sources = _read_spec_pairs(args.encodings, "encoding")
        if Path(args.output).suffix == ".mhxb":
            stream_save(text, sources, args.output)
            kind = "binary .mhxb"
        else:
            save_mhx(MultihierarchicalDocument.from_xml(text, sources),
                     args.output)
            kind = ".mhx"
        print(f"wrote {kind} {args.output} "
              f"({len(sources)} hierarchies, {len(text)} characters)")
        return 0
    if command == "ingest":
        text, sources, layers = _encoded_inputs(args)
        size = stream_save(text, sources, args.output, layers=layers,
                           durability=args.durability)
        print(f"streamed {len(sources)} encodings + {len(layers)} "
              f"standoff layers into {args.output} "
              f"({len(text)} characters, {size} bytes)")
        return 0
    if command == "store":
        return _dispatch_store(args)
    if command == "serve":
        return _dispatch_serve(args)

    if command in ("query", "xpath"):
        engine = _open_engine(args)
        expression = _read_expression(args.expression)
        result = (engine.query(expression) if command == "query"
                  else engine.xpath(expression))
        print(result.serialize(mode=args.mode))
        return 0
    if command == "explain":
        engine = _open_engine(args)
        expression = _read_expression(args.expression)
        print(engine.explain(expression, xpath=args.xpath,
                             analyze=args.analyze))
        return 0
    if command == "update":
        engine = _open_engine(args)
        statement = _read_expression(args.statement)
        if args.explain:
            print(engine.explain_update(statement))
            return 0
        result = engine.update(statement, check=not args.no_check)
        summary = ", ".join(f"{kind}: {count}" for kind, count
                            in sorted(result.counts.items()))
        print(f"applied {result.applied} primitives "
              f"({summary or 'none'}); text delta "
              f"{result.text_delta:+d}; re-registered "
              f"{len(result.replaced_hierarchies)} hierarchies, "
              f"{result.renamed_in_place} in-place renames")
        if args.out:
            if Path(args.out).suffix == ".mhxb":
                engine.save_mhxb(args.out)
            else:
                engine.save_mhx(args.out)
            print(f"wrote {args.out} ({len(engine.document)} hierarchies, "
                  f"{len(engine.document.text)} characters)")
        return 0
    if command == "stats":
        for label, value in _open_engine(args).stats().rows():
            print(f"{label:28} {value}")
        return 0
    if command == "describe":
        print(_open_engine(args).describe())
        return 0
    if command == "render":
        print(_open_engine(args).to_dot())
        return 0
    if command == "leaves":
        engine = _open_engine(args)
        for index, leaf in enumerate(engine.goddag.leaves(), start=1):
            print(f"{index:6} [{leaf.start},{leaf.end}) {leaf.text!r}")
        return 0
    document = _load_document(args)
    if command == "validate":
        if document.cmh is not None:
            document.attach_cmh(document.cmh)
        print(f"OK: {len(document)} hierarchies aligned over "
              f"{len(document.text)} characters")
        return 0
    if command == "fragment":
        print(serialize(fragment_document(document)))
        return 0
    if command == "milestone":
        print(serialize(milestone_document(document,
                                           primary=args.primary)))
        return 0
    raise ReproError(f"unknown command {command!r}")


def _dispatch_serve(args: argparse.Namespace) -> int:
    from repro.server import run_server

    access_log = None
    log_file = None
    if args.access_log == "-":
        access_log = sys.stderr
    elif args.access_log:
        log_file = open(args.access_log, "a", encoding="utf-8")
        access_log = log_file
    try:
        return run_server(args.root, host=args.host, port=args.port,
                          max_inflight=args.max_inflight,
                          max_queue=args.max_queue,
                          tenant_qps=args.tenant_qps,
                          body_limit=args.body_limit,
                          access_log=access_log)
    finally:
        if log_file is not None:
            log_file.close()


def _dispatch_store(args: argparse.Namespace) -> int:
    from repro.store import DocumentStore

    command = args.store_command
    if command == "init":
        DocumentStore.init(args.store_dir)
        print(f"initialized empty document store at {args.store_dir}")
        return 0
    store = DocumentStore(args.store_dir,
                          durability=getattr(args, "durability", "full"))
    if command == "add":
        encoded = _encoded_inputs(args)
        if encoded:
            text, sources, layers = encoded
            snapshot = store.add_streaming(args.name, text, sources,
                                           layers=layers)
        elif getattr(args, "sample", False):
            snapshot = store.add(args.name,
                                 boethius_document(validate=False))
        elif getattr(args, "mhx", None):
            snapshot = store.add(args.name, path=args.mhx)
        else:
            raise ReproError(
                "provide --mhx FILE, --sample, or --text FILE with "
                "NAME=FILE encodings")
        print(f"added {args.name!r} at version {snapshot.version} "
              f"({len(snapshot.engine.goddag.hierarchy_names)} "
              f"hierarchies)")
        return 0
    if command == "get":
        if args.name is None:
            for name, version, file_name in store.entries():
                print(f"{name:24} v{version:<6} {file_name}")
            return 0
        snapshot = store.snapshot(args.name)
        goddag = snapshot.engine.goddag
        print(f"{args.name}: version {snapshot.version}, "
              f"{len(goddag.hierarchy_names)} hierarchies "
              f"({', '.join(goddag.hierarchy_names)}), "
              f"{len(goddag.text)} characters")
        if args.out:
            if Path(args.out).suffix == ".mhxb":
                snapshot.engine.save_mhxb(args.out)
            else:
                snapshot.engine.save_mhx(args.out)
            print(f"exported to {args.out}")
        return 0
    if command == "query":
        expression = _read_expression(args.expression)
        result = store.query(args.name, expression)
        print(result.serialize(mode=args.mode))
        return 0
    if command == "update":
        statements = [_read_expression(statement)
                      for statement in args.statements]
        results = store.update(args.name, statements,
                               check=not args.no_check)
        applied = sum(result.applied for result in results)
        snapshot = store.snapshot(args.name)
        print(f"applied {applied} primitives across {len(results)} "
              f"statements; {args.name!r} now at version "
              f"{snapshot.version}")
        return 0
    if command == "compact":
        sizes = store.compact(args.name)
        for name, size in sizes.items():
            if isinstance(size, int):
                print(f"compacted {name:24} {size:>10} bytes")
            else:
                print(f"compacted {name:24} {size}")
        return 0
    if command == "verify":
        statuses = store.verify(args.name)
        corrupt = 0
        for name, status in statuses.items():
            print(f"{name:24} {status}")
            if not status.startswith("ok"):
                corrupt += 1
        print(f"verified {len(statuses)} catalog entries, {corrupt} with "
              f"problems")
        return 1 if corrupt else 0
    if command == "shard":
        encoded = _encoded_inputs(args)
        if encoded:
            text, sources, layers = encoded
            stats = store.add_corpus_streaming(args.name, text, sources,
                                               shards=args.shards,
                                               layers=layers)
        else:
            if args.generate is not None:
                from repro.corpus.generator import (
                    GeneratorConfig,
                    generate_document,
                )

                document = generate_document(
                    GeneratorConfig(n_words=args.generate, seed=0))
            else:
                document = _load_document(args)
            stats = store.add_corpus(args.name, document,
                                     shards=args.shards)
        print(f"sharded {args.name!r} into {len(stats.shards)} shards "
              f"({stats.words} words, "
              f"{len(stats.hierarchy_names)} hierarchies)")
        for index, shard in enumerate(stats.shards):
            print(f"  shard {index:4} [{shard.lo},{shard.hi}) "
                  f"{shard.words} words, "
                  f"{len(shard.cards)} element names")
        return 0
    if command == "cquery":
        expression = _read_expression(args.expression)
        result = store.cquery(expression, workers=args.workers,
                              prune=not args.no_prune)
        print("".join(result.items))
        if args.stats:
            shape = (f"mode={result.mode} "
                     f"shards={result.shards_executed}/"
                     f"{result.shards_total} "
                     f"(pruned {result.shards_pruned}) "
                     f"workers={result.workers}")
            if result.reason:
                shape += f" reason={result.reason}"
            print(shape, file=sys.stderr)
        store.close()
        return 0
    if command == "recover":
        report = store.recovery
        print(f"manifest loaded from {report['manifest']}")
        for label in ("swept", "adopted", "quarantined"):
            items = report[label]
            print(f"{label}: {', '.join(items) if items else 'nothing'}")
        for name, entry in store.quarantined.items():
            print(f"quarantined {name!r}: {entry['reason']}")
        return 0
    raise ReproError(f"unknown store command {command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
