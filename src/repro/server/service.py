"""The query service: an asyncio daemon over a DocumentStore.

Architecture (DESIGN.md §14) — every request flows through four
stages, **admission → snapshot pin → execute → stream**:

* *admission* happens on the event-loop thread: a draining server
  refuses with 503, a tenant over its token-bucket rate gets 429 +
  ``Retry-After``, and when the bounded wait queue is full the
  request is rejected 429 rather than buffered without bound.
  Admitted requests wait on the in-flight semaphore (sized to CPUs),
  so at most ``max_inflight`` executions run at once and at most
  ``max_queue`` wait behind them;
* *snapshot pin* + *execute* run on a worker thread: the handler
  resolves the document's current published :class:`Snapshot` — a
  lock-free dict read against the store's MVCC catalog, zero new
  locking — and evaluates against that pinned version for the whole
  request.  Writes (``/update``) call the store's single-writer path,
  which serializes them on the store lock; corpus queries
  (``/cquery``) route to the PR-7 shard scatter-gather;
* *stream* happens back on the loop thread: small results go out as
  one deterministic JSON body (sorted keys, compact separators — a
  payload is always the same bytes), large ones page through
  ``offset``/``limit`` or stream as chunked NDJSON, one line per
  item.

All mutable server state — counters, quota buckets, the connection
set — is touched only on the loop thread, so the service adds no
locks anywhere.  :class:`ServerHandle` embeds the whole daemon on a
background thread for tests and demos; the CLI ``mhxq serve`` runs it
in the foreground with SIGTERM/SIGINT triggering a graceful drain
that finishes every admitted request before exiting.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import (
    QuerySyntaxError,
    ReproError,
    StoreError,
    UpdateConflictError,
    UpdateError,
)
from repro.server.http import (
    JSON_TYPE,
    LAST_CHUNK,
    HttpError,
    Request,
    chunk,
    error_response,
    json_bytes,
    read_request,
    response,
    stream_head,
)
from repro.core.runtime.serializer import serialize_each
from repro.server.quota import TenantQuotas
from repro.store import DocumentStore

#: endpoint → allowed methods
ROUTES: dict[str, tuple[str, ...]] = {
    "/query": ("GET", "POST"),
    "/cquery": ("GET", "POST"),
    "/explain": ("GET", "POST"),
    "/update": ("POST",),
    "/healthz": ("GET",),
    "/statz": ("GET",),
}

#: lookup-miss prefixes that map to 404 instead of 400
_NOT_FOUND_PREFIXES = ("no document named", "no corpus named")

#: How long a drain waits for the tasks of the connections it hung up
#: on to end (an idle one ends at once; one still flushing to a peer
#: that has stopped reading is left behind).
HANGUP_GRACE_S = 5.0


def _default_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 2


@dataclass
class ServerConfig:
    """Tunables of one :class:`QueryServer`."""

    host: str = "127.0.0.1"
    port: int = 0
    #: concurrent executions; 0 sizes to the usable CPU count
    max_inflight: int = 0
    #: admitted requests allowed to wait for an execution slot
    max_queue: int = 64
    #: per-tenant sustained queries/second; 0 disables quotas
    tenant_qps: float = 0.0
    #: bucket capacity; None = two seconds of rate
    tenant_burst: float | None = None
    #: request body bound (413 beyond it)
    body_limit: int = 1 << 20
    #: structured access-log sink: a file-like object (JSON lines) or
    #: a callable receiving each entry dict; None disables logging
    access_log: Any = None
    #: monotonic clock (injectable for deterministic quota tests)
    clock: Callable[[], float] = time.monotonic

    def workers(self) -> int:
        return self.max_inflight or _default_workers()


class ServerStats:
    """Loop-thread-only counters behind ``/statz``."""

    __slots__ = ("requests", "served", "inflight", "queued",
                 "peak_inflight", "rejected_queue", "rejected_quota",
                 "disconnects", "streamed_chunks", "responses",
                 "endpoints", "tenants")

    def __init__(self) -> None:
        self.requests = 0
        self.served = 0
        self.inflight = 0
        self.queued = 0
        self.peak_inflight = 0
        self.rejected_queue = 0
        self.rejected_quota = 0
        self.disconnects = 0
        self.streamed_chunks = 0
        self.responses: dict[str, int] = {}
        self.endpoints: dict[str, int] = {}
        self.tenants: dict[str, dict[str, int]] = {}

    def note_response(self, status: int) -> None:
        key = str(status)
        self.responses[key] = self.responses.get(key, 0) + 1
        self.served += 1

    def tenant(self, name: str) -> dict[str, int]:
        entry = self.tenants.get(name)
        if entry is None:
            entry = {"served": 0, "rejected": 0}
            self.tenants[name] = entry
        return entry


@dataclass
class Outcome:
    """What one executed request produced.

    ``items`` set means a streaming response: ``payload`` is the meta
    line and each item follows as its own NDJSON line / chunk.
    """

    payload: dict
    items: list[str] | None = None
    plan_hit: bool | None = None
    snapshot_version: int | None = None
    status: int = 200
    #: cost-pass observability (DESIGN.md §16): the final operator's
    #: estimated vs actual cardinality
    est_rows: float | None = None
    act_rows: int | None = None


def _as_bool(value, name: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off", ""):
            return False
    raise HttpError(400, f"bad boolean for {name!r}: {value!r}")


def _as_int(value, name: str, minimum: int) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError) as error:
        raise HttpError(400,
                        f"bad integer for {name!r}: {value!r}") from error
    if out < minimum:
        raise HttpError(400, f"{name!r} must be >= {minimum}, "
                             f"got {out}")
    return out


def _page(items: list, offset: int,
          limit: int | None) -> tuple[list, int | None]:
    """``(page, next offset or None)`` over a result's item list."""
    end = offset + limit if limit is not None else len(items)
    page = items[offset:end]
    nxt = offset + len(page)
    return page, (nxt if nxt < len(items) else None)


class QueryService:
    """Request parsing + store execution (no I/O, no loop state).

    :meth:`job_for` validates one parsed request on the loop thread
    and returns a zero-argument callable that does the store work on
    an executor thread, returning an :class:`Outcome`.
    """

    def __init__(self, store: DocumentStore) -> None:
        self.store = store

    def job_for(self, request: Request) -> Callable[[], Outcome]:
        body = request.json() if request.body else {}

        def fld(name: str, default=None):
            if name in body:
                return body[name]
            return request.params.get(name, default)

        path = request.path
        if path in ("/query", "/explain"):
            text = fld("q")
            if not isinstance(text, str) or not text:
                raise HttpError(400, "missing query text "
                                     "(parameter 'q')")
            xpath = _as_bool(fld("xpath", False), "xpath")
            if path == "/explain":
                doc = fld("name")
                if doc is not None and (not isinstance(doc, str)
                                        or not doc):
                    raise HttpError(400, "bad document name "
                                         "(parameter 'name')")
                analyze = _as_bool(fld("analyze", False), "analyze")
                if analyze and doc is None:
                    raise HttpError(400, "analyze=true needs a "
                                         "document name "
                                         "(parameter 'name')")
                return lambda: self._explain(text, xpath, doc, analyze)
            name = fld("name")
            if not isinstance(name, str) or not name:
                raise HttpError(400, "missing document name "
                                     "(parameter 'name')")
            offset = _as_int(fld("offset", 0), "offset", 0)
            limit = fld("limit")
            limit = None if limit in (None, "") else _as_int(
                limit, "limit", 1)
            stream = _as_bool(fld("stream", False), "stream")
            return lambda: self._query(name, text, xpath, offset,
                                       limit, stream)
        if path == "/cquery":
            text = fld("q")
            if not isinstance(text, str) or not text:
                raise HttpError(400, "missing query text "
                                     "(parameter 'q')")
            workers = _as_int(fld("workers", 1), "workers", 1)
            prune = _as_bool(fld("prune", True), "prune")
            offset = _as_int(fld("offset", 0), "offset", 0)
            limit = fld("limit")
            limit = None if limit in (None, "") else _as_int(
                limit, "limit", 1)
            stream = _as_bool(fld("stream", False), "stream")
            return lambda: self._cquery(text, workers, prune, offset,
                                        limit, stream)
        if path == "/update":
            name = fld("name")
            if not isinstance(name, str) or not name:
                raise HttpError(400, "missing document name "
                                     "(parameter 'name')")
            statements = body.get("statements")
            if isinstance(statements, str):
                statements = [statements]
            if (not isinstance(statements, list) or not statements
                    or not all(isinstance(s, str) and s
                               for s in statements)):
                raise HttpError(
                    400, "'statements' must be a non-empty list of "
                         "update statements")
            check = _as_bool(fld("check", True), "check")
            return lambda: self._update(name, statements, check)
        raise HttpError(404, f"no such endpoint {path!r}")

    # -- executor-side handlers ---------------------------------------------

    def _query(self, name: str, text: str, xpath: bool, offset: int,
               limit: int | None, stream: bool) -> Outcome:
        snapshot = self.store.snapshot(name)
        result = (snapshot.xpath(text) if xpath
                  else snapshot.query(text))
        # slice first: only the page that goes out is serialized
        page, nxt = _page(result.items, offset, limit)
        page = serialize_each(page)
        payload = {
            "name": name,
            "next": nxt,
            "offset": offset,
            "snapshot_version": snapshot.version,
            "total": len(result),
        }
        if not stream:
            payload["items"] = page
        stats = result.stats
        return Outcome(payload, items=page if stream else None,
                       plan_hit=stats.plan_cache_hit,
                       snapshot_version=snapshot.version,
                       est_rows=stats.est_rows,
                       act_rows=stats.act_rows)

    def _cquery(self, text: str, workers: int, prune: bool,
                offset: int, limit: int | None,
                stream: bool) -> Outcome:
        result = self.store.cquery(text, workers=workers, prune=prune)
        page, nxt = _page(result.items, offset, limit)
        payload = {
            "mode": result.mode,
            "next": nxt,
            "offset": offset,
            "reason": result.reason,
            "shards_executed": result.shards_executed,
            "shards_pruned": result.shards_pruned,
            "shards_total": result.shards_total,
            "total": len(result.items),
            "workers": result.workers,
        }
        if not stream:
            payload["items"] = page
        return Outcome(payload, items=page if stream else None)

    def _update(self, name: str, statements: list[str],
                check: bool) -> Outcome:
        results = self.store.update(name, statements, check=check)
        version = self.store.snapshot(name).version
        payload = {
            "applied": sum(result.applied for result in results),
            "name": name,
            "results": [{"applied": result.applied,
                         "counts": dict(result.counts)}
                        for result in results],
            "version": version,
        }
        return Outcome(payload, snapshot_version=version)

    def _explain(self, text: str, xpath: bool,
                 name: str | None = None,
                 analyze: bool = False) -> Outcome:
        if name is not None:
            # document-costed report: estimates come from the named
            # snapshot's statistics; analyze=true also runs the query
            # there and renders actual cardinalities (est=…/act=…)
            snapshot = self.store.snapshot(name)
            report = snapshot.explain(text, xpath=xpath,
                                      analyze=analyze)
            payload = {"explain": report,
                       "mode": "xpath" if xpath else "query",
                       "name": name}
            return Outcome(payload,
                           snapshot_version=snapshot.version)
        compiled, hit = self.store.plans.get(text, self.store.options,
                                             xpath=xpath)
        payload = {"explain": compiled.explain(),
                   "mode": "xpath" if xpath else "query"}
        return Outcome(payload, plan_hit=hit)


def map_error(error: Exception) -> HttpError:
    """Translate store/engine errors to client-fault HTTP statuses.

    Everything the engine can raise about a request's *content* —
    parse errors, bad targets, missing documents, update conflicts —
    is the client's fault (4xx).  Only a non-:class:`ReproError`
    escapes, and the connection loop turns that into the 500 the
    chaos pack asserts malformed input can never cause.
    """
    if isinstance(error, HttpError):
        return error
    if isinstance(error, QuerySyntaxError):
        return HttpError(400, f"query parse error: {error}")
    if isinstance(error, UpdateConflictError):
        return HttpError(409, f"update conflict: {error}")
    if isinstance(error, UpdateError):
        return HttpError(400, f"update rejected: {error}")
    if isinstance(error, StoreError):
        return HttpError(409, str(error))
    if isinstance(error, ReproError):
        message = str(error)
        if message.startswith(_NOT_FOUND_PREFIXES):
            return HttpError(404, message)
        return HttpError(400, message)
    raise error


class QueryServer:
    """The asyncio daemon: admission, routing, streaming, drain."""

    def __init__(self, store: DocumentStore,
                 config: ServerConfig | None = None) -> None:
        self.store = store
        self.config = config or ServerConfig()
        self.service = QueryService(store)
        self.stats = ServerStats()
        self.quotas = TenantQuotas(self.config.tenant_qps,
                                   self.config.tenant_burst,
                                   clock=self.config.clock)
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.workers(),
            thread_name_prefix="mhxq-query")
        self.host = self.config.host
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._slots: asyncio.Semaphore | None = None
        self._idle: asyncio.Event | None = None
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind and begin accepting connections."""
        self._slots = asyncio.Semaphore(self.config.workers())
        self._idle = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.config.host,
            port=self.config.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def drain(self) -> None:
        """Stop accepting, finish every admitted request, hang up.

        Safe to call more than once; later callers wait on the same
        idle event.  Requests already admitted (queued or executing)
        complete and their responses go out; new requests — on new
        connections (refused at accept) or on kept-alive ones (503)
        — do not.
        """
        first = not self._draining
        self._draining = True
        if first and self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.stats.inflight == 0 and self.stats.queued == 0:
            self._idle.set()
        await self._idle.wait()
        if first:
            await self._hang_up()
            self.executor.shutdown(wait=False)

    async def _hang_up(self) -> None:
        """Close every connection and see its task end.

        An idle keep-alive connection sits in ``read_request``; the
        close is its end of stream and the task returns.  Waiting for
        that here means no connection task is left for whoever runs the
        loop to cancel — ``asyncio.run`` cancelling an idle read is
        what printed a ``CancelledError`` traceback at SIGTERM.  The
        wait is bounded: a peer that has stopped reading keeps its
        transport flushing, and must not hold the drain.
        """
        connections = dict(self._connections)
        for writer in connections:
            writer.close()
        ending = set(connections.values()) - {asyncio.current_task()}
        if ending:
            await asyncio.wait(ending, timeout=HANGUP_GRACE_S)

    # -- connection loop ----------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    request = await read_request(
                        reader, body_limit=self.config.body_limit)
                except HttpError as error:
                    self.stats.requests += 1
                    self.stats.note_response(error.status)
                    await self._write(writer, error_response(error))
                    if error.close:
                        break
                    continue
                except (asyncio.IncompleteReadError,
                        ConnectionResetError):
                    self.stats.disconnects += 1
                    break
                if request is None:
                    break
                if not await self._handle(request, writer):
                    break
        except (ConnectionResetError, BrokenPipeError):
            self.stats.disconnects += 1
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    OSError):
                pass

    async def _write(self, writer: asyncio.StreamWriter,
                     data: bytes) -> int:
        writer.write(data)
        await writer.drain()
        return len(data)

    async def _handle(self, request: Request,
                      writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns whether to keep the connection."""
        begin = self.config.clock()
        self.stats.requests += 1
        methods = ROUTES.get(request.path)
        outcome: Outcome | None = None
        http_error: HttpError | None = None
        try:
            if methods is None:
                raise HttpError(404,
                                f"no such endpoint {request.path!r}")
            self.stats.endpoints[request.path] = \
                self.stats.endpoints.get(request.path, 0) + 1
            if request.method not in methods:
                raise HttpError(
                    405, f"{request.method} not allowed on "
                         f"{request.path} (want "
                         f"{', '.join(methods)})")
            if request.path == "/healthz":
                outcome = Outcome(self._healthz())
            elif request.path == "/statz":
                outcome = Outcome(self._statz())
            else:
                outcome = await self._admit_and_run(request)
        except HttpError as error:
            http_error = error
        except Exception as error:  # noqa: BLE001 - mapped below
            try:
                http_error = map_error(error)
            except Exception as unmapped:  # noqa: BLE001 - real bug
                http_error = HttpError(
                    500, f"internal error: "
                         f"{type(unmapped).__name__}: {unmapped}")
        try:
            bytes_out = await self._respond(request, writer, outcome,
                                            http_error)
        except (ConnectionResetError, BrokenPipeError):
            self.stats.disconnects += 1
            return False
        status = http_error.status if http_error else outcome.status
        self.stats.note_response(status)
        tenant = self.stats.tenant(request.tenant)
        if http_error is not None and http_error.status == 429:
            tenant["rejected"] += 1
        else:
            tenant["served"] += 1
        self._log(request, status, bytes_out, outcome, begin)
        if http_error is not None and http_error.close:
            return False
        return not request.close

    async def _respond(self, request: Request,
                       writer: asyncio.StreamWriter,
                       outcome: Outcome | None,
                       http_error: HttpError | None) -> int:
        if http_error is not None:
            return await self._write(writer,
                                     error_response(http_error))
        extra: tuple[tuple[str, str], ...] = ()
        if outcome.plan_hit is not None:
            extra = (("X-Plan-Cache",
                      "hit" if outcome.plan_hit else "miss"),)
        if outcome.items is None:
            body = json_bytes(outcome.payload)
            return await self._write(
                writer, response(outcome.status, body,
                                 content_type=JSON_TYPE,
                                 extra_headers=extra,
                                 close=request.close))
        # chunked NDJSON stream: meta line, then one line per item
        total = await self._write(
            writer, stream_head(outcome.status, extra_headers=extra))
        for line in (outcome.payload, *outcome.items):
            total += await self._write(writer,
                                       chunk(json_bytes(line)))
            self.stats.streamed_chunks += 1
        total += await self._write(writer, LAST_CHUNK)
        return total

    async def _admit_and_run(self, request: Request) -> Outcome:
        if self._draining:
            raise HttpError(503, "server is draining", close=True)
        wait = self.quotas.admit(request.tenant)
        if wait:
            self.stats.rejected_quota += 1
            raise HttpError(
                429, f"tenant {request.tenant!r} is over its query "
                     f"rate", retry_after=wait)
        if self.stats.queued >= self.config.max_queue:
            self.stats.rejected_queue += 1
            raise HttpError(429, "request queue is full",
                            retry_after=1)
        job = self.service.job_for(request)
        loop = asyncio.get_running_loop()
        self.stats.queued += 1
        try:
            await self._slots.acquire()
        finally:
            self.stats.queued -= 1
        self.stats.inflight += 1
        self.stats.peak_inflight = max(self.stats.peak_inflight,
                                       self.stats.inflight)
        try:
            return await loop.run_in_executor(self.executor, job)
        finally:
            self.stats.inflight -= 1
            self._slots.release()
            if (self._draining and self.stats.inflight == 0
                    and self.stats.queued == 0):
                self._idle.set()

    # -- observability ------------------------------------------------------

    def _healthz(self) -> dict:
        return {
            "corpora": len(self.store.corpora),
            "documents": len(self.store),
            "draining": self._draining,
            "status": "draining" if self._draining else "ok",
        }

    def _statz(self) -> dict:
        tokens = self.quotas.tokens()
        tenants = {
            name: {**entry,
                   "tokens": tokens.get(name)}
            for name, entry in self.stats.tenants.items()
        }
        return {
            "disconnects": self.stats.disconnects,
            "endpoints": dict(self.stats.endpoints),
            "inflight": self.stats.inflight,
            "peak_inflight": self.stats.peak_inflight,
            "plan_cache": self.store.plans.stats(),
            "queued": self.stats.queued,
            "quota": {"burst": self.quotas.burst,
                      "enabled": self.quotas.enabled,
                      "qps": self.quotas.qps},
            "rejected_queue": self.stats.rejected_queue,
            "rejected_quota": self.stats.rejected_quota,
            "requests": self.stats.requests,
            "responses": dict(self.stats.responses),
            "served": self.stats.served,
            "streamed_chunks": self.stats.streamed_chunks,
            "tenants": tenants,
        }

    def _log(self, request: Request, status: int, bytes_out: int,
             outcome: Outcome | None, begin: float) -> None:
        sink = self.config.access_log
        if sink is None:
            return
        text = None
        body = {}
        if request.body:
            try:
                body = request.json()
            except HttpError:
                body = {}
        for source in (body, request.params):
            value = source.get("q") or source.get("statements")
            if value:
                text = (value if isinstance(value, str)
                        else "\n".join(map(str, value)))
                break
        entry = {
            "act_rows": (outcome.act_rows if outcome is not None
                         else None),
            "bytes_out": bytes_out,
            "est_rows": (outcome.est_rows if outcome is not None
                         else None),
            "latency_ms": round(
                (self.config.clock() - begin) * 1e3, 3),
            "method": request.method,
            "path": request.path,
            "plan_cache_hit": (outcome.plan_hit if outcome is not None
                               else None),
            "query_hash": (hashlib.sha256(
                text.encode("utf-8")).hexdigest()[:16]
                if text else None),
            "snapshot_version": (outcome.snapshot_version
                                 if outcome is not None else None),
            "status": status,
            "tenant": request.tenant,
            "ts": round(time.time(), 3),
        }
        if callable(sink):
            sink(entry)
            return
        sink.write(json.dumps(entry, sort_keys=True) + "\n")
        flush = getattr(sink, "flush", None)
        if flush is not None:
            flush()


class ServerHandle:
    """The daemon embedded on a background thread (tests, demos).

    Starts the event loop and server in ``__init__`` and exposes a
    small synchronous client (:meth:`request` / :meth:`get_json`) plus
    the drain/close lifecycle.  Usable as a context manager.
    """

    def __init__(self, store: DocumentStore,
                 config: ServerConfig | None = None) -> None:
        self.store = store
        self.server = QueryServer(store, config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="mhxq-serve", daemon=True)
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop).result(timeout=30)
        self._closed = False

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request(self, method: str, path: str, payload: dict | None
                = None, headers: dict[str, str] | None = None,
                timeout: float = 60.0
                ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP exchange; ``(status, headers, body bytes)``."""
        import http.client

        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout)
        try:
            body = (json.dumps(payload).encode("utf-8")
                    if payload is not None else None)
            connection.request(method, path, body=body,
                               headers=headers or {})
            reply = connection.getresponse()
            data = reply.read()
            return (reply.status,
                    {name.lower(): value
                     for name, value in reply.getheaders()}, data)
        finally:
            connection.close()

    def get_json(self, path: str,
                 headers: dict[str, str] | None = None
                 ) -> tuple[int, dict]:
        status, _headers, body = self.request("GET", path,
                                              headers=headers)
        return status, json.loads(body)

    def post_json(self, path: str, payload: dict,
                  headers: dict[str, str] | None = None
                  ) -> tuple[int, dict]:
        status, _headers, body = self.request("POST", path, payload,
                                              headers=headers)
        return status, json.loads(body)

    def drain(self, timeout: float = 60.0) -> None:
        """Graceful drain: finish admitted requests, stop accepting."""
        asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop).result(timeout=timeout)

    def close(self, timeout: float = 60.0) -> None:
        """Drain, stop the loop, and join the thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.drain(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


async def serve_async(store: DocumentStore, config: ServerConfig,
                      *, echo: Callable[[str], None] = print) -> None:
    """The CLI foreground runner: serve until SIGTERM/SIGINT, drain.

    Prints the bound address (machine-readable ``serving on URL``
    line — the SIGTERM drain test and deploy scripts parse it), then
    blocks until a termination signal flips the stop event, drains,
    and reports what was served.
    """
    import signal

    server = QueryServer(store, config)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signame in ("SIGTERM", "SIGINT"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    echo(f"serving on http://{server.host}:{server.port} "
         f"({len(store)} documents, {len(store.corpora)} corpora, "
         f"{config.workers()} workers)")
    try:
        await stop.wait()
        echo(f"draining: {server.stats.inflight} in flight, "
             f"{server.stats.queued} queued")
        await server.drain()
        echo(f"drained; served {server.stats.served} responses")
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


def run_server(root: str | Path, *, host: str = "127.0.0.1",
               port: int = 0, max_inflight: int = 0,
               max_queue: int = 64, tenant_qps: float = 0.0,
               body_limit: int = 1 << 20,
               access_log: Any = None,
               echo: Callable[[str], None] = print) -> int:
    """Open the store at ``root`` and serve it in the foreground."""
    store = DocumentStore(root)
    config = ServerConfig(host=host, port=port,
                          max_inflight=max_inflight,
                          max_queue=max_queue,
                          tenant_qps=tenant_qps,
                          body_limit=body_limit,
                          access_log=access_log)
    asyncio.run(serve_async(store, config, echo=echo))
    store.close()
    return 0
