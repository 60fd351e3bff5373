"""The four closed-loop workloads (README: one paragraph each on why).

A workload prepares its inputs and oracle results from the seed
(untimed), can set the system up from nothing any number of times
(timed in parts), and runs named operations one at a time.  The
program is only ever called through its public functions; what each
operation returns is compared with what ``Engine(document,
use_cost=False)`` — the mechanical lowering, an independent path —
computed at prepare time.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import random
import signal
import subprocess
import sys
from contextlib import nullcontext
from urllib.parse import urlencode

import inputs
from harness import REPO, Calibrator, Scratch, child_pids, nproc

#: never more callers than processors (README, *Size to the box*)
CALLERS = min(2, nproc())


def digest(value) -> str:
    """Short stable digest of an operation's output."""
    if isinstance(value, (list, tuple)):
        value = "\x1e".join(value)
    if isinstance(value, str):
        value = value.encode("utf-8")
    return hashlib.sha1(value).hexdigest()[:16]


def mechanical_engine(text: str, sources: dict):
    """The oracle: the same document through the uncosted lowering."""
    from repro.api import Engine
    from repro.cmh import MultihierarchicalDocument

    return Engine(MultihierarchicalDocument.from_xml(text, sources),
                  use_cost=False)


class Timer:
    """Collects the named parts of one set-up, in normalised seconds."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.parts: dict[str, float] = {}

    def __call__(self, part: str, call):
        result, self.parts[part] = self.calibrator.timed(call)
        return result


class Workload:
    """Common shape; subclasses fill in the program calls."""

    name = ""
    #: the three named latency classes: class -> operation name
    classes: dict[str, str] = {}
    #: operation names of one cycle
    ops: tuple[str, ...] = ()
    shuffled = True
    #: complete set-ups per run, each from a fresh directory and fresh
    #: processes; setup_s takes each part's median
    setups = 4

    def __init__(self, seed: int, smoke: bool, scratch: Scratch) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.calibrator = Calibrator()
        #: operation -> expected output (set by prepare)
        self.expected: dict[str, object] = {}
        #: exact counts pinned in expected.json (set by prepare)
        self.counts: dict[str, int] = {}
        self.cycle_index = 0

    # -- untimed ---------------------------------------------------------

    def prepare(self) -> None:
        raise NotImplementedError

    def pinned(self, observed: dict) -> dict:
        """What ``expected.json`` holds for this workload: the oracle's
        digests and counts, and the counts observed on the program."""
        return {"digests": {name: digest(value)
                            for name, value in self.expected.items()},
                "counts": {**self.counts, **observed}}

    # -- the system under test ------------------------------------------

    def set_up(self) -> dict[str, float]:
        """One complete set-up from nothing; part name -> seconds."""
        raise NotImplementedError

    def tear_down(self) -> None:
        raise NotImplementedError

    def pids(self) -> list:
        """Processes whose peak resident set is the workload's memory."""
        return ["self"]

    def order(self, rng: random.Random) -> list[str]:
        """The next cycle's operations (called between cycles, untimed)."""
        self.cycle_index += 1
        names = list(self.ops)
        if self.shuffled:
            rng.shuffle(names)
        return names

    def run(self, name: str, rec=None):
        """One operation; with a recorder, the same work layer by layer
        under an ``op.<name>`` span."""
        raise NotImplementedError

    def check(self, name: str, output) -> bool:
        return output == self.expected[name]

    def replay(self, name: str, rec) -> None:
        """Traced runs: re-run in this process what ``run`` just did
        behind a process boundary (default: nothing was hidden)."""

    def observe(self) -> dict[str, int]:
        """Exact counts read off the live system; taken before and after
        the measured phase, and the two passes must agree."""
        raise NotImplementedError

    def faults(self) -> list[str]:
        """Failures the system itself counted during the run."""
        return []


# ---------------------------------------------------------------------------


class QueryWarm(Workload):
    name = "query-warm"
    classes = {"light": "q-ii1", "mid": "q-i1", "heavy": "q-i2"}
    ops = inputs.QUERY_WARM

    def prepare(self) -> None:
        self.text, self.sources = inputs.manuscript(self.seed, self.smoke)
        oracle = mechanical_engine(self.text, self.sources)
        self.queries = inputs.query_warm(self.text)
        for name, query in self.queries.items():
            result = oracle.query(query)
            self.expected[name] = result.serialize()
            self.counts[f"items.{name}"] = len(result)

    def set_up(self) -> dict[str, float]:
        from repro.api import Engine

        timer = Timer(self.calibrator)
        self.engine = timer("from_xml", lambda: Engine.from_xml(
            self.text, self.sources))
        for name in self.ops:  # cold compile and first run
            output = timer(f"first.{name}", lambda: self.run(name))
            if not self.check(name, output):
                raise SystemExit(f"{self.name}: cold {name} differs "
                                 f"from its oracle")
        return timer.parts

    def tear_down(self) -> None:
        self.engine = None

    def observe(self) -> dict[str, int]:
        counts = {}
        for name, query in self.queries.items():
            stats = self.engine.query(query).stats
            counts[f"axis_steps.{name}"] = stats.axis_steps
            counts[f"join_steps.{name}"] = stats.join_steps
            counts[f"batched_steps.{name}"] = (
                stats.batched_steps + stats.batched_extended_steps)
        return counts

    def run(self, name: str, rec=None):
        query = self.queries[name]
        if rec is None:
            return self.engine.query(query).serialize()
        with rec.span(f"op.{name}"):
            with rec.span("plan.cache_hit"):
                compiled = self.engine.compile(query)
            with rec.span("plan.execute"):
                result = self.engine.execute(compiled)
            with rec.span("runtime.serialize"):
                return result.serialize()


# ---------------------------------------------------------------------------


class ServeRead(Workload):
    name = "serve-read"
    # the point and overlap counts answer in 1-3 ms, of which the wake-up
    # of an idle virtual processor is a third that moves with the host
    # (README, *Noise*): they count toward ops_per_s, the classes are
    # the three probes that carry work
    classes = {"light": "page", "mid": "stream", "heavy": "q-i1"}
    ops = tuple(inputs.SERVE_READ)

    process = None
    connection = None

    def prepare(self) -> None:
        self.text, self.sources = inputs.manuscript(self.seed, self.smoke)
        oracle = mechanical_engine(self.text, self.sources)
        self.paths = {}
        self.totals = {}
        for name, (query, extra) in inputs.SERVE_READ.items():
            self.paths[name] = "/query?" + urlencode(
                {"name": "doc", "q": query, **extra})
            items = oracle.query(query).strings()
            self.totals[name] = len(items)
            self.expected[name] = items[:int(extra.get("limit",
                                                       len(items)))]
            self.counts[f"items.{name}"] = len(self.expected[name])
        #: probe -> response bytes, once checked against the oracle items
        self.bodies: dict[str, bytes] = {}

    def _matches_oracle(self, name: str, body: bytes) -> bool:
        """Does a response carry exactly the oracle's items?"""
        lines = body.decode("utf-8").splitlines()
        if "stream" in inputs.SERVE_READ[name][1]:
            meta, items = json.loads(lines[0]), [json.loads(line)
                                                 for line in lines[1:]]
        else:
            meta = json.loads(lines[0])
            items = meta["items"]
        return (items == self.expected[name]
                and meta["total"] == self.totals[name])

    def set_up(self) -> dict[str, float]:
        from repro.store import DocumentStore

        timer = Timer(self.calibrator)
        self.root = self.scratch.fresh("serve")

        def ingest():
            store = DocumentStore.init(self.root)
            store.add_streaming("doc", self.text, self.sources)
            store.close()

        timer("ingest", ingest)
        timer("start", self._start_server)
        for name in self.ops:  # the cold answers: mmap, CRC, compile
            body = timer(f"first.{name}", lambda: self.run(name))
            if not (isinstance(body, bytes)
                    and self._matches_oracle(name, body)):
                raise SystemExit(f"{self.name}: cold {name} differs "
                                 f"from its oracle: {body!r:.200}")
            # the service encodes deterministically: same items, same bytes
            self.bodies[name] = body
        return timer.parts

    def check(self, name: str, output) -> bool:
        return output == self.bodies[name]

    def _start_server(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--root", str(self.root)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env)
        banner = self.process.stdout.readline()
        if not banner.startswith("serving on http://"):
            raise SystemExit(f"{self.name}: no server banner: {banner!r}")
        host, _, port = banner.split()[2].removeprefix(
            "http://").partition(":")
        self.address = (host, int(port))
        self.connection = self.connect()
        self.connection.request("GET", "/healthz")
        reply = self.connection.getresponse()
        reply.read()
        if reply.status != 200:
            raise SystemExit(f"{self.name}: /healthz gave {reply.status}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(*self.address, timeout=120)

    def statz(self) -> dict:
        return json.loads(self.fetch("/statz"))

    def observe(self) -> dict[str, int]:
        cache = self.statz()["plan_cache"]
        counts = {"plan_cache.misses": cache["misses"],
                  "plan_cache.size": cache["size"]}
        for name, body in self.bodies.items():
            counts[f"body_bytes.{name}"] = len(body)
        return counts

    def faults(self) -> list[str]:
        statz = self.statz()
        return [f"server counted {statz[key]} {key}"
                for key in ("rejected_queue", "rejected_quota",
                            "disconnects") if statz[key]]

    def pids(self) -> list:
        return [self.process.pid]

    def tear_down(self) -> None:
        # keep-alives first: an idle one at drain makes the server print
        # a CancelledError traceback (a src/ bug for a later issue)
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        process, self.process = self.process, None
        if process is None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def fetch(self, path: str, connection=None):
        """Body bytes of a 200; anything else is a failed operation and
        comes back as a tuple no expected body can equal."""
        connection = connection or self.connection
        try:
            connection.request("GET", path)
            reply = connection.getresponse()
            body = reply.read()
        except (http.client.HTTPException, OSError) as error:
            connection.close()  # reconnects on the next request
            return ("disconnect", repr(error))
        if reply.status != 200:
            return ("status", reply.status)
        return body

    def run(self, name: str, rec=None, connection=None):
        if rec is None:
            return self.fetch(self.paths[name], connection)
        with rec.span(f"op.{name}"):
            with rec.span("server.round_trip") as self._hidden:
                return self.fetch(self.paths[name], connection)

    def replay(self, name: str, rec) -> None:
        rec.replay(self._hidden, "server.job", self.replay_job(name))

    def replay_job(self, name: str):
        """The work behind one probe, as the server's executor thread
        would run it, on this process's own opening of the store."""
        from repro.server import QueryService, Request
        from repro.store import DocumentStore

        if getattr(self, "_replay_root", None) != self.root:
            self._replay_root = self.root
            self._service = QueryService(DocumentStore(self.root))
        query, extra = inputs.SERVE_READ[name]
        request = Request(method="GET", path="/query",
                          params={"name": "doc", "q": query, **extra},
                          headers={})
        return lambda: self._service.job_for(request)()


# ---------------------------------------------------------------------------


class StoreWrite(Workload):
    name = "store-write"
    classes = {"light": "reopen-read", "mid": "ingest", "heavy": "update"}
    # "collect" is the harness's own gc.collect(): a cycle leaves two
    # retired engines behind as cyclic garbage, and the full collection
    # that frees them used to land in whichever operation came next — at
    # n = 20 that chance was the whole run-to-run spread of ingest (11 %).
    # Forced at a fixed point and timed as its own operation, the cost
    # stays in ops_per_s and leaves the three classes.
    ops = ("ingest", "update", "read", "reopen-read", "compact", "remove",
           "collect")
    shuffled = False  # each step needs the one before it

    store = None

    def prepare(self) -> None:
        from repro.store import save_engine

        self.text, self.sources = inputs.manuscript(self.seed, self.smoke)
        oracle = mechanical_engine(self.text, self.sources)
        index = random.Random(self.seed).choice(
            inputs.markable(oracle.goddag))
        self.statement = inputs.markup_statement(index)
        # saves are deterministic, so the store's files must equal the
        # oracle engine's bytes before and after the update
        path = self.scratch.fresh("oracle") / "oracle.mhxb"
        save_engine(oracle, path)
        self.ingested_bytes = path.read_bytes()
        oracle.update(self.statement)
        save_engine(oracle, path)
        self.updated_bytes = path.read_bytes()
        self.marked = oracle.query(inputs.MARK_QUERY).serialize()
        self.expected = {"ingest": self.ingested_bytes,
                         "update": self.updated_bytes,
                         "read": self.marked, "reopen-read": self.marked,
                         "compact": self.updated_bytes, "remove": b""}
        self.counts = {"marked_word": index,
                       "mhxb_bytes": len(self.updated_bytes)}

    def _open(self, init: bool = False):
        from repro.store import DocumentStore

        return (DocumentStore.init if init else DocumentStore)(
            self.root, durability="full", verify_cold_loads=True)

    def set_up(self) -> dict[str, float]:
        timer = Timer(self.calibrator)
        self.root = self.scratch.fresh("store")
        self.cycle_index = 0
        self.store = timer("init", lambda: self._open(init=True))
        for name in self.ops:
            output = timer(f"first.{name}", lambda: self.run(name))
            if not self.check(name, output):
                raise SystemExit(f"{self.name}: first {name} differs "
                                 f"from its oracle")
        # a user's set-up ends at the first answer; the rest of the
        # cycle only leaves the store empty for the measured phase
        return {part: seconds for part, seconds in timer.parts.items()
                if part in ("init", "first.ingest", "first.update",
                            "first.read")}

    def tear_down(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None

    def observe(self) -> dict[str, int]:
        return {"documents": len(self.store),
                "files": len(list(self.root.iterdir()))}

    @property
    def doc(self) -> str:
        return f"d{self.cycle_index}"

    def run(self, name: str, rec=None):
        if rec is None:
            return self._step(name, lambda _layer: nullcontext())
        with rec.span(f"op.{name}"):
            return self._step(name, rec.span)

    def _step(self, name: str, span):
        store, doc = self.store, self.doc
        if name == "ingest":
            with span("catalog.add_streaming"):
                store.add_streaming(doc, self.text, self.sources)
        elif name == "update":
            with span("catalog.update"):
                return store.update(doc, self.statement)[0].applied
        elif name == "read":
            with span("catalog.query"):
                return store.query(doc, inputs.MARK_QUERY).serialize()
        elif name == "reopen-read":
            with span("catalog.close"):
                store.close()
            with span("catalog.open"):  # runs recover()
                self.store = self._open()
            with span("catalog.query"):  # pin, mmap, CRC, compile, answer
                return self.store.query(doc,
                                        inputs.MARK_QUERY).serialize()
        elif name == "compact":
            with span("catalog.compact"):
                return store.compact(doc)[doc]
        elif name == "remove":
            with span("catalog.remove"):
                store.remove(doc)
        elif name == "collect":
            with span("python.gc_collect"):
                gc.collect()
        return None

    def check(self, name: str, output) -> bool:
        path = self.root / f"{self.doc}.mhxb"
        if name in ("remove", "collect"):
            return self.doc not in self.store and not path.exists()
        if name == "update" and output != 1:
            return False
        if name == "compact" and output != len(self.updated_bytes):
            return False
        if name in ("read", "reopen-read") and output != self.marked:
            return False
        return path.read_bytes() == (
            self.ingested_bytes if name == "ingest"
            else self.updated_bytes)


# ---------------------------------------------------------------------------


class CorpusScatter(Workload):
    name = "corpus-scatter"
    classes = {"light": "pruned-count", "mid": "lines",
               "heavy": "q-i1-lines"}
    ops = tuple(inputs.CORPUS_SCATTER)
    setups = 2  # seconds each: cutting and writing 34k words, 8 shards

    store = None

    def prepare(self) -> None:
        from repro.api import Engine
        from repro.cmh import MultihierarchicalDocument

        text, sources = inputs.corpus(self.seed, self.smoke)
        self.document = MultihierarchicalDocument.from_xml(text, sources)
        oracle = Engine(self.document, use_cost=False)
        self.queries = {}
        for name, template in inputs.CORPUS_SCATTER.items():
            self.queries[name] = inputs.corpus_query(template)
            self.expected[name] = oracle.query(
                inputs.oracle_query(template)).strings()
            self.counts[f"items.{name}"] = len(self.expected[name])
        self.counts["words"] = len(text.split())

    def set_up(self) -> dict[str, float]:
        from repro.store import DocumentStore

        timer = Timer(self.calibrator)
        root = self.scratch.fresh("corpus")
        self.store = DocumentStore.init(root)
        stats = timer("add_corpus", lambda: self.store.add_corpus(
            "c", self.document, shards=inputs.SHARDS))
        self.counts["shards"] = len(stats.shards)
        for name in self.ops:  # the first one also starts the pool
            output = timer(f"first.{name}", lambda: self.run(name))
            if not self.check(name, output):
                raise SystemExit(f"{self.name}: first {name} differs "
                                 f"from its oracle")
        return timer.parts

    def tear_down(self) -> None:
        if self.store is not None:
            self.store.close()  # shuts the pool's workers down
            self.store = None

    def pids(self) -> list:
        return ["self", *child_pids(os.getpid())]

    def observe(self) -> dict[str, int]:
        counts = {}
        for name, query in self.queries.items():
            result = self.store.cquery(query, workers=CALLERS)
            counts[f"shards_pruned.{name}"] = result.shards_pruned
            counts[f"shards_executed.{name}"] = result.shards_executed
            counts[f"workers.{name}"] = result.workers
        return counts

    def run(self, name: str, rec=None):
        query = self.queries[name]
        if rec is None:
            return self.store.cquery(query, workers=CALLERS).items
        with rec.span(f"op.{name}"):
            with rec.span("catalog.cquery") as self._hidden:
                return self.store.cquery(query, workers=CALLERS).items

    def replay(self, name: str, rec) -> None:
        rec.replay(self._hidden, "catalog.cquery_serial",
                   lambda: self.store.cquery(self.queries[name],
                                             workers=1))


WORKLOADS = {cls.name: cls for cls in (QueryWarm, ServeRead, StoreWrite,
                                       CorpusScatter)}
