"""Protocol-level tests for the query service (DESIGN.md §14).

Request parsing, deterministic response encoding, the pagination
envelope (``total``/``offset``/``next``), chunked stream framing, the
access-log schema, and the ``/statz`` counters — everything below the
concurrency and chaos packs.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.corpus.boethius import boethius_document
from repro.server import ServerConfig, ServerHandle
from repro.server.http import (
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
from repro.store import DocumentStore


def parse_request(raw: bytes, *, body_limit: int = 1 << 20,
                  limit: int = 8192) -> Request | None:
    """Run :func:`read_request` over an in-memory stream."""
    async def go():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, body_limit=body_limit)
    return asyncio.run(go())


def http_status(raw: bytes, *, body_limit: int = 1 << 20) -> int:
    with pytest.raises(HttpError) as caught:
        parse_request(raw, body_limit=body_limit)
    return caught.value.status


class TestRequestParsing:
    def test_get_with_params(self):
        request = parse_request(
            b"GET /query?name=boe&q=count(//w)&offset=4 HTTP/1.1\r\n"
            b"Host: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/query"
        assert request.params == {"name": "boe", "q": "count(//w)",
                                  "offset": "4"}
        assert request.body == b""
        assert not request.close

    def test_post_body_via_content_length(self):
        body = b'{"name":"boe"}'
        request = parse_request(
            b"POST /update HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        assert request.body == body
        assert request.json() == {"name": "boe"}

    def test_blank_param_values_kept(self):
        request = parse_request(b"GET /query?limit=&q=x HTTP/1.1\r\n\r\n")
        assert request.params == {"limit": "", "q": "x"}

    def test_connection_close_header(self):
        request = parse_request(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert request.close

    def test_http_10_implies_close(self):
        request = parse_request(b"GET /healthz HTTP/1.0\r\n\r\n")
        assert request.close

    def test_clean_eof_is_none(self):
        assert parse_request(b"") is None

    def test_mid_request_disconnect_raises_incomplete(self):
        with pytest.raises(asyncio.IncompleteReadError):
            parse_request(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")

    def test_body_shorter_than_content_length_is_disconnect(self):
        with pytest.raises(asyncio.IncompleteReadError):
            parse_request(b"POST /update HTTP/1.1\r\n"
                          b"Content-Length: 50\r\n\r\n{\"na")

    def test_malformed_request_line_400(self):
        assert http_status(b"GARBAGE\r\n\r\n") == 400

    def test_wrong_protocol_400(self):
        assert http_status(b"GET / SPDY/9\r\n\r\n") == 400

    def test_non_ascii_request_line_400(self):
        assert http_status(b"GET /\xff\xfe HTTP/1.1\r\n\r\n") == 400

    def test_malformed_header_400(self):
        assert http_status(
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n") == 400

    def test_too_many_headers_431(self):
        headers = b"".join(b"X-H%d: v\r\n" % index
                           for index in range(200))
        assert http_status(
            b"GET / HTTP/1.1\r\n" + headers + b"\r\n") == 431

    def test_oversized_request_line_431(self):
        raw = b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n"
        assert http_status(raw) == 431

    def test_bad_content_length_400(self):
        assert http_status(b"POST / HTTP/1.1\r\n"
                           b"Content-Length: nope\r\n\r\n") == 400

    def test_negative_content_length_400(self):
        assert http_status(b"POST / HTTP/1.1\r\n"
                           b"Content-Length: -5\r\n\r\n") == 400

    def test_chunked_request_body_rejected_400(self):
        assert http_status(b"POST / HTTP/1.1\r\n"
                           b"Transfer-Encoding: chunked\r\n\r\n") == 400

    def test_body_over_limit_413(self):
        assert http_status(
            b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
            body_limit=10) == 413

    def test_tenant_header_and_default(self):
        request = parse_request(b"GET / HTTP/1.1\r\n\r\n")
        assert request.tenant == "public"
        request = parse_request(
            b"GET / HTTP/1.1\r\nX-Tenant: acme\r\n\r\n")
        assert request.tenant == "acme"

    def test_json_body_must_be_object(self):
        request = Request("POST", "/update", {}, {}, body=b"[1,2]")
        with pytest.raises(HttpError) as caught:
            request.json()
        assert caught.value.status == 400
        assert "expected an object" in caught.value.message

    def test_json_body_invalid_400(self):
        request = Request("POST", "/update", {}, {}, body=b"{nope")
        with pytest.raises(HttpError) as caught:
            request.json()
        assert caught.value.status == 400
        assert "invalid JSON body" in caught.value.message


class TestResponseEncoding:
    def test_json_bytes_deterministic(self):
        first = json_bytes({"b": 1, "a": [2, 3]})
        second = json_bytes(dict(reversed(list(
            {"b": 1, "a": [2, 3]}.items()))))
        assert first == second == b'{"a":[2,3],"b":1}\n'

    def test_response_frames_content_length(self):
        body = json_bytes({"ok": True})
        raw = response(200, body)
        head, _, tail = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert b"Connection: keep-alive" in head
        assert tail == body

    def test_response_close_header(self):
        raw = response(200, b"{}", close=True)
        assert b"Connection: close" in raw

    def test_error_response_renders_retry_after(self):
        raw = error_response(HttpError(429, "slow down",
                                       retry_after=7))
        assert b"HTTP/1.1 429 Too Many Requests" in raw
        assert b"Retry-After: 7" in raw
        assert b'{"error":"slow down"}' in raw

    def test_chunk_framing(self):
        data = b'{"x":1}\n'
        framed = chunk(data)
        assert framed == b"8\r\n" + data + b"\r\n"
        assert LAST_CHUNK == b"0\r\n\r\n"

    def test_stream_head_declares_chunked(self):
        head = stream_head()
        assert b"Transfer-Encoding: chunked" in head
        assert b"application/x-ndjson" in head


# -- endpoint tests ----------------------------------------------------------


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A read-mostly embedded server plus its captured access log."""
    root = tmp_path_factory.mktemp("serve-http")
    store = DocumentStore.init(root / "catalog")
    store.add("boe", boethius_document(validate=False))
    log: list[dict] = []
    handle = ServerHandle(store, ServerConfig(access_log=log.append))
    yield handle, store, log
    handle.close()
    store.close()


def raw_exchange(handle: ServerHandle, payload: bytes,
                 recv_until_close: bool = True) -> bytes:
    """One raw TCP exchange (for framing-level assertions)."""
    with socket.create_connection((handle.host, handle.port),
                                  timeout=30) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        blocks = []
        while True:
            block = sock.recv(65536)
            if not block:
                break
            blocks.append(block)
        return b"".join(blocks)


def parse_chunked(raw: bytes) -> tuple[bytes, list[bytes]]:
    """``(head, chunks)`` of one chunked response."""
    head, _, rest = raw.partition(b"\r\n\r\n")
    chunks = []
    while rest:
        size_text, _, rest = rest.partition(b"\r\n")
        size = int(size_text, 16)
        if size == 0:
            break
        chunks.append(rest[:size])
        assert rest[size:size + 2] == b"\r\n"
        rest = rest[size + 2:]
    return head, chunks


class TestQueryEndpoint:
    def test_healthz(self, served):
        handle, _store, _log = served
        status, payload = handle.get_json("/healthz")
        assert status == 200
        assert payload == {"corpora": 0, "documents": 1,
                           "draining": False, "status": "ok"}

    def test_query_envelope(self, served):
        handle, store, _log = served
        status, payload = handle.get_json(
            "/query?name=boe&q=/descendant::w")
        assert status == 200
        version = store.snapshot("boe").version
        assert payload["name"] == "boe"
        assert payload["snapshot_version"] == version
        assert payload["offset"] == 0
        assert payload["next"] is None
        assert payload["total"] == len(payload["items"]) == 6
        assert all(item.startswith("<w>") for item in payload["items"])

    def test_pagination_walk_covers_everything(self, served):
        handle, _store, _log = served
        _status, full = handle.get_json(
            "/query?name=boe&q=/descendant::w")
        walked, offset = [], 0
        while offset is not None:
            status, page = handle.get_json(
                f"/query?name=boe&q=/descendant::w"
                f"&offset={offset}&limit=2")
            assert status == 200
            assert page["total"] == full["total"]
            assert page["offset"] == offset
            assert len(page["items"]) <= 2
            walked.extend(page["items"])
            offset = page["next"]
        assert walked == full["items"]

    def test_offset_beyond_end(self, served):
        handle, _store, _log = served
        status, payload = handle.get_json(
            "/query?name=boe&q=/descendant::w&offset=99")
        assert status == 200
        assert payload["items"] == []
        assert payload["next"] is None
        assert payload["total"] == 6

    @pytest.mark.parametrize("extra, sent", [
        ("&limit=2", 2), ("&offset=4&limit=5", 2), ("&offset=99", 0),
        ("&stream=1&offset=1&limit=3", 3), ("", 6)])
    def test_only_the_page_is_serialized(self, served, monkeypatch,
                                         extra, sent):
        """A page costs its own items, not the whole result: the
        service slices the item list first and serializes the slice
        (``total`` is the length of the unserialized result)."""
        from repro.server import service

        handle, _store, _log = served
        handed = []

        def counting(items):
            handed.extend(items)
            return serialize_each(items)

        serialize_each = service.serialize_each
        monkeypatch.setattr(service, "serialize_each", counting)
        raw = raw_exchange(
            handle, b"GET /query?name=boe&q=/descendant::w"
            + extra.encode() + b" HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 200")
        assert len(handed) == sent
        assert b'"total":6' in raw

    def test_bad_offset_and_limit_400(self, served):
        handle, _store, _log = served
        assert handle.get_json(
            "/query?name=boe&q=count(//w)&offset=-1")[0] == 400
        assert handle.get_json(
            "/query?name=boe&q=count(//w)&limit=0")[0] == 400
        assert handle.get_json(
            "/query?name=boe&q=count(//w)&limit=nope")[0] == 400

    def test_missing_query_text_400(self, served):
        handle, _store, _log = served
        status, payload = handle.get_json("/query?name=boe")
        assert status == 400
        assert "q" in payload["error"]

    def test_missing_name_400(self, served):
        handle, _store, _log = served
        assert handle.get_json("/query?q=count(//w)")[0] == 400

    def test_plan_cache_header_not_body(self, served):
        handle, _store, _log = served
        query = "/query?name=boe&q=count(/descendant::line)"
        first = handle.request("GET", query)
        second = handle.request("GET", query)
        assert first[0] == second[0] == 200
        assert second[1]["x-plan-cache"] == "hit"
        # the hit flag must never leak into the body: replay
        # byte-identity depends on it
        assert first[2] == second[2]
        assert b"plan" not in first[2]

    def test_post_body_equivalent_to_query_string(self, served):
        handle, _store, _log = served
        get_body = handle.request(
            "GET", "/query?name=boe&q=count(//w)")[2]
        post_body = handle.request(
            "POST", "/query", {"name": "boe", "q": "count(//w)"})[2]
        assert get_body == post_body

    def test_xpath_mode(self, served):
        handle, _store, _log = served
        status, payload = handle.get_json(
            "/query?name=boe&q=/descendant::w[1]/string(.)&xpath=1")
        assert status == 200
        assert payload["items"] == ["gesceaftum"]

    def test_explain(self, served):
        handle, _store, _log = served
        status, payload = handle.get_json(
            "/explain?q=count(/descendant::w)")
        assert status == 200
        assert payload["mode"] == "query"
        assert "count" in payload["explain"]
        status, payload = handle.get_json(
            "/explain?q=/descendant::w&xpath=1")
        assert status == 200
        assert payload["mode"] == "xpath"

    def test_unknown_endpoint_404(self, served):
        handle, _store, _log = served
        status, payload = handle.get_json("/nope")
        assert status == 404
        assert "/nope" in payload["error"]

    def test_method_not_allowed_405(self, served):
        handle, _store, _log = served
        status, payload = handle.get_json("/update")
        assert status == 405
        assert "POST" in payload["error"]

    def test_keep_alive_two_requests_one_connection(self, served):
        handle, _store, _log = served
        raw = raw_exchange(
            handle,
            b"GET /healthz HTTP/1.1\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert raw.count(b"HTTP/1.1 200 OK") == 2
        assert b"Connection: keep-alive" in raw
        assert b"Connection: close" in raw


class TestStreaming:
    def test_stream_is_chunked_ndjson(self, served):
        handle, _store, _log = served
        raw = raw_exchange(
            handle,
            b"GET /query?name=boe&q=/descendant::w&stream=1 "
            b"HTTP/1.1\r\nConnection: close\r\n\r\n")
        head, chunks = parse_chunked(raw)
        assert b"Transfer-Encoding: chunked" in head
        assert b"application/x-ndjson" in head
        # one chunk per NDJSON line: meta first, then one per item
        assert len(chunks) == 1 + 6
        meta = json.loads(chunks[0])
        assert meta["total"] == 6
        assert "items" not in meta
        items = [json.loads(part) for part in chunks[1:]]
        _status, plain = handle.get_json(
            "/query?name=boe&q=/descendant::w")
        assert items == plain["items"]

    def test_stream_respects_pagination(self, served):
        handle, _store, _log = served
        raw = raw_exchange(
            handle,
            b"GET /query?name=boe&q=/descendant::w&stream=1"
            b"&offset=1&limit=2 HTTP/1.1\r\nConnection: close\r\n\r\n")
        _head, chunks = parse_chunked(raw)
        meta = json.loads(chunks[0])
        assert meta["offset"] == 1
        assert meta["next"] == 3
        assert len(chunks) == 1 + 2

    def test_streamed_chunk_counter(self, served):
        handle, _store, _log = served
        before = handle.get_json("/statz")[1]["streamed_chunks"]
        raw_exchange(
            handle,
            b"GET /query?name=boe&q=/descendant::w&stream=1&limit=3 "
            b"HTTP/1.1\r\nConnection: close\r\n\r\n")
        after = handle.get_json("/statz")[1]["streamed_chunks"]
        assert after - before == 1 + 3


class TestUpdateEndpoint:
    @pytest.fixture()
    def fresh(self, tmp_path):
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        with ServerHandle(store) as handle:
            yield handle, store
        store.close()

    def test_update_envelope_and_version_bump(self, fresh):
        handle, store = fresh
        before = store.snapshot("boe").version
        status, payload = handle.post_json("/update", {
            "name": "boe",
            "statements": [
                'rename node /descendant::w[1] as "wx"',
                'rename node /descendant::wx[1] as "w"',
            ]})
        assert status == 200
        assert payload["applied"] == 2
        assert payload["name"] == "boe"
        assert [entry["counts"] for entry in payload["results"]] == \
            [{"rename": 1}, {"rename": 1}]
        assert payload["version"] == store.snapshot("boe").version
        assert payload["version"] > before

    def test_update_visible_to_next_query(self, fresh):
        handle, _store = fresh
        handle.post_json("/update", {
            "name": "boe",
            "statements": ['rename node /descendant::w[1] as "tok"']})
        status, payload = handle.get_json(
            "/query?name=boe&q=count(/descendant::tok)")
        assert status == 200
        assert payload["items"] == ["1"]

    def test_statement_string_promoted_to_list(self, fresh):
        handle, _store = fresh
        status, payload = handle.post_json("/update", {
            "name": "boe",
            "statements": 'rename node /descendant::w[1] as "wx"'})
        assert status == 200
        assert payload["applied"] == 1

    def test_get_update_rejected(self, fresh):
        handle, _store = fresh
        assert handle.get_json("/update?name=boe")[0] == 405


class TestObservability:
    def test_statz_counters(self, served):
        handle, _store, _log = served
        handle.get_json("/query?name=boe&q=count(//w)")
        status, stats = handle.get_json("/statz")
        assert status == 200
        assert stats["inflight"] == 0
        assert stats["queued"] == 0
        assert stats["peak_inflight"] >= 1
        assert stats["endpoints"]["/query"] >= 1
        assert stats["responses"]["200"] >= 1
        assert stats["requests"] >= stats["served"] - 1
        cache = stats["plan_cache"]
        assert set(cache) == {"capacity", "hits", "misses", "size"}
        assert cache["hits"] + cache["misses"] >= cache["size"]
        assert stats["quota"] == {"burst": 1.0, "enabled": False,
                                  "qps": 0.0}
        assert stats["tenants"]["public"]["served"] >= 1

    def test_statz_per_tenant_split(self, served):
        handle, _store, _log = served
        handle.get_json("/query?name=boe&q=count(//w)",
                        headers={"X-Tenant": "acme"})
        _status, stats = handle.get_json("/statz")
        assert stats["tenants"]["acme"]["served"] >= 1
        assert stats["tenants"]["acme"]["rejected"] == 0

    def test_access_log_schema(self, served):
        handle, _store, log = served
        log.clear()
        handle.get_json("/query?name=boe&q=count(/descendant::seg)",
                        headers={"X-Tenant": "logged"})
        # log entries land on the event loop after the response bytes —
        # this request's, and the previous test's /statz, which may
        # arrive after the clear() above
        deadline = time.monotonic() + 5.0
        while (not any(e["path"] == "/query" for e in list(log))
               and time.monotonic() < deadline):
            time.sleep(0.005)
        entry = [e for e in log if e["path"] == "/query"][-1]
        assert sorted(entry) == [
            "act_rows", "bytes_out", "est_rows", "latency_ms",
            "method", "path", "plan_cache_hit", "query_hash",
            "snapshot_version", "status", "tenant", "ts"]
        assert entry["method"] == "GET"
        assert entry["path"] == "/query"
        assert entry["status"] == 200
        assert entry["tenant"] == "logged"
        assert isinstance(entry["bytes_out"], int)
        assert entry["bytes_out"] > 0
        assert isinstance(entry["latency_ms"], float)
        assert isinstance(entry["plan_cache_hit"], bool)
        assert isinstance(entry["snapshot_version"], int)
        assert isinstance(entry["query_hash"], str)
        assert len(entry["query_hash"]) == 16
        # the entry is JSON-serializable as one log line
        assert json.loads(json.dumps(entry)) == entry

    def test_access_log_query_hash_stable(self, served):
        handle, _store, log = served
        log.clear()
        handle.get_json("/query?name=boe&q=count(//w)")
        handle.get_json("/query?name=boe&q=count(//w)")
        handle.get_json("/query?name=boe&q=count(//line)")
        # log entries land on the event loop after the response bytes
        deadline = time.monotonic() + 5.0
        while len(log) < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        hashes = [entry["query_hash"] for entry in log]
        assert hashes[0] == hashes[1]
        assert hashes[0] != hashes[2]

    def test_access_log_file_sink(self, tmp_path):
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        path = tmp_path / "access.log"
        with path.open("a", encoding="utf-8") as sink:
            with ServerHandle(store,
                              ServerConfig(access_log=sink)) as handle:
                handle.get_json("/healthz")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["path"] == "/healthz"
        store.close()


class TestCorpusEndpoint:
    @pytest.fixture(scope="class")
    def corpus_served(self, tmp_path_factory):
        from repro.corpus.generator import (
            GeneratorConfig,
            generate_document,
        )

        root = tmp_path_factory.mktemp("serve-corpus")
        store = DocumentStore.init(root / "catalog")
        store.add_corpus(
            "corpus",
            generate_document(GeneratorConfig(n_words=1200, seed=0)),
            shards=4)
        with ServerHandle(store) as handle:
            yield handle, store
        store.close()

    def test_cquery_envelope(self, corpus_served):
        handle, store = corpus_served
        status, payload = handle.get_json(
            '/cquery?q=count(collection("corpus")//w)')
        assert status == 200
        assert payload["items"] == ["1200"]
        assert payload["mode"] == "aggregate"
        assert payload["shards_total"] == len(
            store.corpus_stats("corpus").shards)
        assert payload["shards_executed"] + payload["shards_pruned"] \
            == payload["shards_total"]
        assert payload["workers"] == 1

    def test_cquery_matches_store_call(self, corpus_served):
        handle, store = corpus_served
        query = 'collection("corpus")//lb'
        _status, payload = handle.get_json(
            f"/cquery?q={query}")
        direct = store.cquery(query)
        assert payload["items"] == direct.items
        assert payload["total"] == len(direct.items)

    def test_cquery_pagination(self, corpus_served):
        handle, _store = corpus_served
        _status, full = handle.get_json(
            '/cquery?q=collection("corpus")//lb')
        walked, offset = [], 0
        while offset is not None:
            _status, page = handle.get_json(
                '/cquery?q=collection("corpus")//lb'
                f"&offset={offset}&limit=7")
            walked.extend(page["items"])
            offset = page["next"]
        assert walked == full["items"]

    def test_cquery_stream(self, corpus_served):
        handle, _store = corpus_served
        raw = raw_exchange(
            handle,
            b'GET /cquery?q=collection("corpus")//lb&stream=1&limit=5'
            b" HTTP/1.1\r\nConnection: close\r\n\r\n")
        _head, chunks = parse_chunked(raw)
        meta = json.loads(chunks[0])
        assert meta["mode"] in ("scatter", "aggregate", "fused")
        assert len(chunks) == 1 + min(5, meta["total"])

    def test_cquery_unknown_corpus_404(self, corpus_served):
        handle, _store = corpus_served
        status, _payload = handle.get_json(
            '/cquery?q=count(collection("nope")//w)')
        assert status == 404


class TestDrainHangsUp:
    def test_sigterm_with_an_idle_keepalive_connection_is_silent(
            self, tmp_path):
        """An idle kept-alive connection sits in ``read_request`` when
        the drain comes.  Hanging up on it is a normal close: the
        process exits 0 having printed nothing to stderr (it used to
        print a ``CancelledError`` traceback from the connection task
        ``asyncio.run`` had to cancel)."""
        root = tmp_path / "catalog"
        DocumentStore.init(root).close()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (
            str(Path(__file__).resolve().parents[1] / "src"),
            env.get("PYTHONPATH"))))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--root", str(root), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        connection = None
        try:
            banner = process.stdout.readline()
            assert banner.startswith("serving on http://"), banner
            address = banner.split()[2].removeprefix("http://")
            host, _, port = address.partition(":")
            connection = http.client.HTTPConnection(host, int(port),
                                                    timeout=60)
            connection.request("GET", "/healthz")
            reply = connection.getresponse()
            assert reply.status == 200 and reply.read()
            # the connection stays open and idle across the signal
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=60)
        finally:
            if connection is not None:
                connection.close()
            if process.poll() is None:  # pragma: no cover
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "drained; served 1 responses" in out
        assert err == ""
