"""Concurrency tests: async HTTP clients racing the single writer.

The PR-4 torn-read methodology (tests/test_store_concurrency.py)
pushed through the HTTP boundary: N async clients issue a
reader/writer mix against an embedded server, and every reader
response must be *byte-identical* to a single-threaded replay of the
same update sequence at the same snapshot version.  The server's
deterministic JSON encoding (sorted keys, compact separators, the
plan-cache flag kept out of the body) is exactly what makes that
comparison possible.

Scaled up by the nightly CI profile: client and batch counts follow
``settings.default.max_examples`` (tests/conftest.py) and the
``REPRO_SERVE_CLIENTS`` / ``REPRO_SERVE_BATCHES`` /
``REPRO_SERVE_MIN_READS`` knobs.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest
from hypothesis import settings

from repro.api import Engine
from repro.corpus.boethius import boethius_document
from repro.server import ServerConfig, ServerHandle
from repro.server.http import json_bytes
from repro.store import DocumentStore

#: nightly profile (max_examples=1000) lifts these automatically
_SCALE = settings.default.max_examples
CLIENTS = int(os.environ.get("REPRO_SERVE_CLIENTS",
                             str(max(4, _SCALE // 100))))
BATCHES = int(os.environ.get("REPRO_SERVE_BATCHES",
                             str(max(12, _SCALE // 25))))
MIN_READS = int(os.environ.get("REPRO_SERVE_MIN_READS",
                               str(max(6, _SCALE // 50))))

PROBES = [
    "count(/descendant::*)",
    "for $n in /descendant::* return name($n)",
    "/descendant::line[overlapping::w or xdescendant::w]/string(.)",
]

_CYCLE = [
    'rename node /descendant::w[1] as "wx"',
    'rename node /descendant::wx[1] as "w"',
    'insert node <note>burst</note> after /descendant::w[2]',
    "delete node /descendant::note[1]",
]


def _batches() -> list[list[str]]:
    return [[_CYCLE[index % len(_CYCLE)]] for index in range(BATCHES)]


def _expected_bodies() -> dict[int, dict[str, bytes]]:
    """Single-threaded replay: version -> probe -> exact body bytes."""
    engine = Engine(boethius_document(validate=False))

    def bodies() -> dict[str, bytes]:
        out = {}
        for probe in PROBES:
            items = engine.query(probe).strings()
            out[probe] = json_bytes({
                "items": items, "name": "boe", "next": None,
                "offset": 0, "snapshot_version": engine.version,
                "total": len(items)})
        return out

    expected = {engine.version: bodies()}
    for batch in _batches():
        for statement in batch:
            engine.update(statement)
        expected[engine.version] = bodies()
    return expected


class AsyncClient:
    """A keep-alive HTTP/1.1 client on asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> "AsyncClient":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def exchange(self, method: str, path: str,
                       payload: dict | None = None
                       ) -> tuple[int, bytes]:
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else b"")
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("ascii") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        reply = await self.reader.readexactly(length)
        return status, reply


@pytest.fixture()
def fresh(tmp_path):
    store = DocumentStore.init(tmp_path / "catalog")
    store.add("boe", boethius_document(validate=False))
    with ServerHandle(store) as handle:
        yield handle, store
    store.close()


class TestHttpReadersVsWriter:
    def test_responses_byte_identical_to_replay(self, fresh):
        handle, store = fresh
        expected = _expected_bodies()
        errors: list[str] = []
        observations: list[tuple[int, int]] = []
        writer_done = asyncio.Event()

        async def writer() -> None:
            try:
                async with AsyncClient(handle.host,
                                       handle.port) as client:
                    for batch in _batches():
                        status, body = await client.exchange(
                            "POST", "/update",
                            {"name": "boe", "statements": batch})
                        if status != 200:
                            errors.append(
                                f"writer got {status}: {body!r}")
                            return
            finally:
                writer_done.set()

        async def reader(identity: int) -> None:
            try:
                async with AsyncClient(handle.host,
                                       handle.port) as client:
                    rounds = 0
                    while rounds < MIN_READS \
                            or not writer_done.is_set():
                        probe = PROBES[rounds % len(PROBES)]
                        from urllib.parse import quote
                        status, body = await client.exchange(
                            "GET", "/query?name=boe&q="
                            + quote(probe, safe=""))
                        if status != 200:
                            errors.append(
                                f"reader {identity} got {status}: "
                                f"{body!r}")
                            return
                        version = json.loads(body)[
                            "snapshot_version"]
                        reference = expected.get(version, {}).get(
                            probe)
                        if reference is None:
                            errors.append(
                                f"reader {identity} saw unpublished "
                                f"version {version}")
                            return
                        if body != reference:
                            errors.append(
                                f"reader {identity} tore at "
                                f"v{version} on {probe!r}")
                            return
                        observations.append((identity, version))
                        rounds += 1
            except Exception as error:  # pragma: no cover
                errors.append(f"reader {identity}: {error!r}")

        async def drive() -> None:
            tasks = [writer()]
            tasks += [reader(identity)
                      for identity in range(CLIENTS)]
            await asyncio.gather(*tasks)

        asyncio.run(drive())
        assert not errors, errors[:5]
        # every reader met its quota
        seen = {identity for identity, _version in observations}
        assert seen == set(range(CLIENTS))
        # the final store state is the replay's final state
        final = store.snapshot("boe")
        assert final.version == max(expected)
        final.engine.goddag.check_invariants()

    def test_identical_concurrent_queries_byte_identical(self, fresh):
        """The plan-cache race (miss on first call, hits after) must
        be invisible in response bodies."""
        handle, _store = fresh
        path = "/query?name=boe&q=count(/descendant::*)"

        async def one() -> bytes:
            async with AsyncClient(handle.host,
                                   handle.port) as client:
                status, body = await client.exchange("GET", path)
                assert status == 200
                return body

        async def drive() -> list[bytes]:
            return await asyncio.gather(
                *(one() for _client in range(CLIENTS * 2)))

        bodies = asyncio.run(drive())
        assert len(set(bodies)) == 1
        # and the follow-up (certain cache hit) is the same bytes too
        _status, _headers, after = handle.request("GET", path)
        assert after == bodies[0]

    def test_streamed_equals_paged_under_concurrency(self, fresh):
        handle, _store = fresh
        query = "/query?name=boe&q=/descendant::*"

        async def streamed() -> list[str]:
            reader, writer = await asyncio.open_connection(
                handle.host, handle.port)
            writer.write(
                f"GET {query}&stream=1 HTTP/1.1\r\n"
                f"Connection: close\r\n\r\n".encode("ascii"))
            await writer.drain()
            raw = await reader.read(-1)
            writer.close()
            await writer.wait_closed()
            _head, _, rest = raw.partition(b"\r\n\r\n")
            lines = []
            while rest:
                size_text, _, rest = rest.partition(b"\r\n")
                size = int(size_text, 16)
                if size == 0:
                    break
                lines.append(json.loads(rest[:size]))
                rest = rest[size + 2:]
            assert "total" in lines[0]
            return lines[1:]

        async def paged() -> list[str]:
            async with AsyncClient(handle.host,
                                   handle.port) as client:
                items, offset = [], 0
                while offset is not None:
                    _status, body = await client.exchange(
                        "GET", f"{query}&offset={offset}&limit=3")
                    page = json.loads(body)
                    items.extend(page["items"])
                    offset = page["next"]
                return items

        async def drive():
            return await asyncio.gather(
                *(streamed() if index % 2 else paged()
                  for index in range(max(CLIENTS, 4))))

        results = asyncio.run(drive())
        assert all(result == results[0] for result in results)
        assert len(results[0]) > 0

    def test_inflight_never_exceeds_limit(self, tmp_path):
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        config = ServerConfig(max_inflight=2, max_queue=64)
        with ServerHandle(store, config) as handle:
            async def one() -> int:
                async with AsyncClient(handle.host,
                                       handle.port) as client:
                    status, _body = await client.exchange(
                        "GET", "/query?name=boe"
                               "&q=count(/descendant::*)")
                    return status

            async def drive() -> list[int]:
                return await asyncio.gather(
                    *(one() for _client in range(12)))

            statuses = asyncio.run(drive())
            assert statuses == [200] * 12
            stats = handle.get_json("/statz")[1]
            assert 1 <= stats["peak_inflight"] <= 2
            assert stats["inflight"] == 0
            assert stats["queued"] == 0
        store.close()

    def test_tenant_counters_consistent_under_load(self, fresh):
        """The single-mutator counter discipline: per-tenant served
        counts must sum exactly to the number of 200 responses the
        clients saw, even under full concurrency."""
        handle, _store = fresh
        tenants = [f"tenant-{index}" for index in range(4)]

        async def one(tenant: str) -> int:
            reader, writer = await asyncio.open_connection(
                handle.host, handle.port)
            writer.write(
                b"GET /query?name=boe&q=count(//w) HTTP/1.1\r\n"
                b"X-Tenant: " + tenant.encode("ascii")
                + b"\r\nConnection: close\r\n\r\n")
            await writer.drain()
            raw = await reader.read(-1)
            writer.close()
            await writer.wait_closed()
            return int(raw.split()[1])

        async def drive() -> list[int]:
            jobs = [one(tenants[index % len(tenants)])
                    for index in range(CLIENTS * len(tenants))]
            return await asyncio.gather(*jobs)

        statuses = asyncio.run(drive())
        assert statuses == [200] * (CLIENTS * len(tenants))
        stats = handle.get_json("/statz")[1]
        for tenant in tenants:
            assert stats["tenants"][tenant]["served"] == CLIENTS
            assert stats["tenants"][tenant]["rejected"] == 0


class TestAnalyzeStringOverHttp:
    """``analyze-string`` readers through the HTTP boundary: corpus
    queries on the fused path share one cached corpus engine, document
    queries one published snapshot, and each evaluation makes its
    temporaries on its own shell (DESIGN.md §8)."""

    CQUERY = ('count(for $w in collection("c")/descendant::w'
              '[matches(string(.), "e")] '
              'return analyze-string($w, "e")/descendant::m)')

    @pytest.fixture()
    def served(self, tmp_path):
        from repro.corpus import GeneratorConfig, generate_document

        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        store.add_corpus("c", generate_document(
            GeneratorConfig(n_words=1500, seed=3)), shards=4)
        with ServerHandle(store) as handle:
            yield handle, store
        store.close()

    def test_replies_byte_identical_to_single_connection(self, served):
        from urllib.parse import quote

        from repro.experiments.paperdata import Q_II1

        handle, store = served
        paths = ["/cquery?q=" + quote(self.CQUERY, safe=""),
                 "/query?name=boe&q=" + quote(Q_II1.query, safe="")]
        single = {}
        for path in paths:
            status, _headers, body = handle.request("GET", path)
            assert status == 200, body
            single[path] = body
        assert json.loads(single[paths[0]])["mode"] == "fused"
        errors: list[str] = []

        async def client(identity: int) -> None:
            try:
                async with AsyncClient(handle.host,
                                       handle.port) as connection:
                    for turn in range(3):
                        path = paths[(identity + turn) % len(paths)]
                        status, body = await connection.exchange(
                            "GET", path)
                        if status != 200 or body != single[path]:
                            errors.append(f"client {identity} got "
                                          f"{status}: {body[:200]!r}")
                            return
            except Exception as error:  # pragma: no cover
                errors.append(f"client {identity}: {error!r}")

        async def drive() -> None:
            await asyncio.gather(*(client(identity)
                                   for identity in range(CLIENTS * 2)))

        asyncio.run(drive())
        assert not errors, errors[:5]
        stats = handle.get_json("/statz")[1]
        assert stats["rejected_queue"] == stats["rejected_quota"] == 0
        assert not [status for status in stats["responses"]
                    if status.startswith("5")], stats["responses"]
        goddag = store._fused["c"].engine.goddag
        assert not any(goddag.is_temporary(name)
                       for name in goddag.hierarchy_names)
