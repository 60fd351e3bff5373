"""Chaos/robustness tests for the query service (DESIGN.md §14).

Mid-request disconnects, oversized bodies, malformed JSON/XQuery (400
with the parse error, never a 500), the queue-overflow and
quota-exhaustion 429 paths, and graceful drain finishing in-flight
requests — plus the store-side invariant that no fault ever leaves a
forked-but-unpublished snapshot behind.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.corpus.boethius import boethius_document
from repro.server import ServerConfig, ServerHandle
from repro.server.service import QueryService
from repro.store import DocumentStore

REPO_ROOT = Path(__file__).resolve().parents[1]


def wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:  # pragma: no cover
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


def read_response(stream) -> tuple[int, dict[str, str], bytes]:
    """Parse one Content-Length-framed response off a socket file."""
    status_line = stream.readline().decode("ascii")
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", "0")))
    return status, headers, body


@pytest.fixture()
def fresh(tmp_path):
    store = DocumentStore.init(tmp_path / "catalog")
    store.add("boe", boethius_document(validate=False))
    with ServerHandle(store) as handle:
        yield handle, store
    store.close()


#: raw byte blobs that must never produce a 5xx (a response is
#: optional — hanging up on unparseable input is fine; crashing is not)
CHAOS_BLOBS = [
    b"\x00\x01\x02\xff\xfe garbage\r\n\r\n",
    b"GARBAGE\r\n\r\n",
    b"GET\r\n\r\n",
    b"GET / SPDY/9\r\n\r\n",
    b"GET /query?name=boe&q=count(//w) HTTP/1.1\r\n"
    b"no-colon-header\r\n\r\n",
    b"POST /update HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    b"POST /update HTTP/1.1\r\nContent-Length: -3\r\n\r\n",
    b"POST /update HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"5\r\nhello\r\n0\r\n\r\n",
    b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n",
    b"GET / HTTP/1.1\r\n" + b"".join(
        b"X-%d: y\r\n" % index for index in range(150)) + b"\r\n",
    b"POST /update HTTP/1.1\r\nContent-Length: 7\r\n\r\n{nope!!",
]


class TestMalformedInputNever500:
    @pytest.mark.parametrize("blob", CHAOS_BLOBS,
                             ids=range(len(CHAOS_BLOBS)))
    def test_chaos_blob(self, fresh, blob):
        handle, _store = fresh
        with socket.create_connection((handle.host, handle.port),
                                      timeout=30) as sock:
            sock.sendall(blob)
            sock.shutdown(socket.SHUT_WR)
            raw = b""
            while True:
                block = sock.recv(65536)
                if not block:
                    break
                raw += block
        for line in raw.split(b"\r\n"):
            if line.startswith(b"HTTP/1.1 "):
                assert not line.split()[1].startswith(b"5"), line
        # the server survived
        assert handle.get_json("/healthz")[0] == 200

    def test_malformed_json_body_400(self, fresh):
        handle, _store = fresh
        status, _headers, body = handle.request(
            "POST", "/update", headers={"Content-Type": "application/"
                                                        "json"})
        assert status == 400
        connection = __import__("http.client", fromlist=["c"])
        conn = connection.HTTPConnection(handle.host, handle.port,
                                         timeout=30)
        conn.request("POST", "/update", body=b"{broken",
                     headers={"Content-Length": "7"})
        reply = conn.getresponse()
        payload = json.loads(reply.read())
        conn.close()
        assert reply.status == 400
        assert "invalid JSON body" in payload["error"]

    def test_json_array_body_400(self, fresh):
        handle, _store = fresh
        conn = __import__("http.client", fromlist=["c"]).HTTPConnection(
            handle.host, handle.port, timeout=30)
        conn.request("POST", "/update", body=b"[1,2,3]")
        reply = conn.getresponse()
        payload = json.loads(reply.read())
        conn.close()
        assert reply.status == 400
        assert "expected an object" in payload["error"]

    def test_malformed_xquery_400_with_parse_error(self, fresh):
        handle, _store = fresh
        status, payload = handle.get_json(
            "/query?name=boe&q=count(((")
        assert status == 400
        assert "parse error" in payload["error"]
        assert "line 1" in payload["error"]

    def test_malformed_update_statement_400(self, fresh):
        handle, _store = fresh
        status, payload = handle.post_json("/update", {
            "name": "boe", "statements": ["rename node w to"]})
        assert status == 400
        assert "error" in payload

    def test_bad_statement_types_400(self, fresh):
        handle, _store = fresh
        for statements in ([], [42], [""], {"not": "a list"}, None):
            status, payload = handle.post_json("/update", {
                "name": "boe", "statements": statements})
            assert status == 400, statements
            assert "statements" in payload["error"]

    def test_unknown_document_404(self, fresh):
        handle, _store = fresh
        status, payload = handle.get_json(
            "/query?name=ghost&q=count(//w)")
        assert status == 404
        assert "ghost" in payload["error"]

    def test_oversized_body_413(self, tmp_path):
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        with ServerHandle(store,
                          ServerConfig(body_limit=64)) as handle:
            conn = __import__("http.client",
                              fromlist=["c"]).HTTPConnection(
                handle.host, handle.port, timeout=30)
            conn.request("POST", "/update", body=b"x" * 200)
            reply = conn.getresponse()
            body = reply.read()
            conn.close()
            assert reply.status == 413
            assert b"64-byte limit" in body
        store.close()


class TestDisconnects:
    def test_mid_request_disconnect_counted(self, fresh):
        handle, _store = fresh
        before = handle.get_json("/statz")[1]["disconnects"]
        with socket.create_connection((handle.host, handle.port),
                                      timeout=30) as sock:
            sock.sendall(b"GET /query?name=boe&q=count(//w) HTTP/1.1"
                         b"\r\nX-Tenant: flake")  # no terminator
        wait_until(lambda: handle.get_json("/statz")[1]["disconnects"]
                   > before)
        assert handle.get_json("/healthz")[0] == 200

    def test_body_disconnect_counted(self, fresh):
        handle, _store = fresh
        before = handle.get_json("/statz")[1]["disconnects"]
        with socket.create_connection((handle.host, handle.port),
                                      timeout=30) as sock:
            sock.sendall(b"POST /update HTTP/1.1\r\n"
                         b"Content-Length: 500\r\n\r\n{\"name\"")
        wait_until(lambda: handle.get_json("/statz")[1]["disconnects"]
                   > before)
        assert handle.get_json("/healthz")[0] == 200

    def test_mid_stream_disconnect_leaves_server_healthy(self, fresh):
        handle, _store = fresh
        with socket.create_connection((handle.host, handle.port),
                                      timeout=30) as sock:
            sock.sendall(b"GET /query?name=boe&q=/descendant::*"
                         b"&stream=1 HTTP/1.1\r\n\r\n")
            sock.recv(64)  # read a sliver of the head, then vanish
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")
        assert handle.get_json("/healthz")[0] == 200
        status, payload = handle.get_json(
            "/query?name=boe&q=count(//w)")
        assert status == 200
        assert payload["items"] == ["6"]


class BlockGate:
    """Monkeypatch helper: the next /query executions block on a
    gate, making admission states (inflight, queued) deterministic."""

    def __init__(self, monkeypatch):
        self.gate = threading.Event()
        original = QueryService._query

        def slow(service, *call_args):
            assert self.gate.wait(timeout=60)
            return original(service, *call_args)

        monkeypatch.setattr(QueryService, "_query", slow)

    def release(self):
        self.gate.set()


class TestAdmissionControl:
    def test_queue_overflow_429(self, tmp_path, monkeypatch):
        gate = BlockGate(monkeypatch)
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        config = ServerConfig(max_inflight=1, max_queue=1)
        results: list[tuple[int, dict]] = []
        with ServerHandle(store, config) as handle:
            def issue():
                results.append(handle.get_json(
                    "/query?name=boe&q=count(//w)"))

            first = threading.Thread(target=issue)
            first.start()
            wait_until(lambda: handle.get_json(
                "/statz")[1]["inflight"] == 1)
            second = threading.Thread(target=issue)
            second.start()
            wait_until(lambda: handle.get_json(
                "/statz")[1]["queued"] == 1)
            # slot busy + queue full: the third must bounce, not wait
            status, headers, body = handle.request(
                "GET", "/query?name=boe&q=count(//w)")
            assert status == 429
            assert headers["retry-after"] == "1"
            assert b"queue is full" in body
            gate.release()
            first.join(timeout=60)
            second.join(timeout=60)
            assert [status for status, _payload in results] \
                == [200, 200]
            stats = handle.get_json("/statz")[1]
            assert stats["rejected_queue"] == 1
            assert stats["inflight"] == 0
            assert stats["queued"] == 0
        store.close()

    def test_quota_exhaustion_429(self, tmp_path):
        clock = [100.0]
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        config = ServerConfig(tenant_qps=1.0, tenant_burst=1.0,
                              clock=lambda: clock[0])
        with ServerHandle(store, config) as handle:
            probe = "/query?name=boe&q=count(//w)"
            acme = {"X-Tenant": "acme"}
            assert handle.get_json(probe, headers=acme)[0] == 200
            status, headers, body = handle.request(
                "GET", probe, headers=acme)
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert b"'acme' is over its query rate" in body
            # an unrelated tenant has its own bucket
            assert handle.get_json(
                probe, headers={"X-Tenant": "other"})[0] == 200
            # time refills the bucket
            clock[0] += 1.0
            assert handle.get_json(probe, headers=acme)[0] == 200
            stats = handle.get_json("/statz")[1]
            assert stats["rejected_quota"] == 1
            assert stats["tenants"]["acme"]["rejected"] == 1
            assert stats["tenants"]["acme"]["served"] == 2
            assert stats["quota"]["enabled"] is True
            assert stats["tenants"]["acme"]["tokens"] is not None
        store.close()

    def test_statz_exempt_from_quota(self, tmp_path):
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        config = ServerConfig(tenant_qps=1.0, tenant_burst=1.0,
                              clock=lambda: 42.0)
        with ServerHandle(store, config) as handle:
            for _round in range(5):
                assert handle.get_json("/statz")[0] == 200
                assert handle.get_json("/healthz")[0] == 200
        store.close()


class TestDrain:
    def test_drain_finishes_inflight_requests(self, tmp_path,
                                              monkeypatch):
        gate = BlockGate(monkeypatch)
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        handle = ServerHandle(store)
        results: list[tuple[int, dict]] = []

        def issue():
            results.append(handle.get_json(
                "/query?name=boe&q=count(//w)"))

        worker = threading.Thread(target=issue)
        worker.start()
        wait_until(lambda: handle.get_json(
            "/statz")[1]["inflight"] == 1)
        # a kept-alive connection opened before the drain begins
        bystander = socket.create_connection(
            (handle.host, handle.port), timeout=30)
        stream = bystander.makefile("rb")
        # one exchange first, so the loop has accepted the connection
        # before the drain closes the listener
        bystander.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert read_response(stream)[0] == 200
        drainer = threading.Thread(target=handle.drain)
        drainer.start()
        wait_until(lambda: handle.server.draining)
        # new work on the old connection is refused while draining
        bystander.sendall(b"GET /query?name=boe&q=count(//w) "
                          b"HTTP/1.1\r\n\r\n")
        status, headers, body = read_response(stream)
        assert status == 503
        assert b"draining" in body
        assert headers["connection"] == "close"
        bystander.close()
        # ...but the admitted request completes with its real result
        gate.release()
        drainer.join(timeout=60)
        worker.join(timeout=60)
        assert results == [(200, {
            "items": ["6"], "name": "boe", "next": None, "offset": 0,
            "snapshot_version": store.snapshot("boe").version,
            "total": 1})]
        # post-drain: the listener is gone
        with pytest.raises(OSError):
            socket.create_connection((handle.host, handle.port),
                                     timeout=5)
        handle.close()
        store.close()

    def test_drain_is_idempotent(self, fresh):
        handle, _store = fresh
        handle.get_json("/healthz")
        handle.drain()
        handle.drain()

    def test_sigterm_drains_subprocess(self, tmp_path):
        root = tmp_path / "catalog"
        store = DocumentStore.init(root)
        store.add("boe", boethius_document(validate=False))
        store.close()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--root", str(root), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            banner = process.stdout.readline()
            assert banner.startswith("serving on http://")
            address = banner.split()[2].removeprefix("http://")
            host, _, port = address.partition(":")
            statuses: list[int] = []

            def issue():
                import http.client
                conn = http.client.HTTPConnection(host, int(port),
                                                  timeout=60)
                conn.request(
                    "GET", "/query?name=boe&q=count(/descendant::*)")
                statuses.append(conn.getresponse().status)
                conn.close()

            worker = threading.Thread(target=issue)
            worker.start()
            worker.join(timeout=60)
            process.send_signal(signal.SIGTERM)
            out, _err = process.communicate(timeout=60)
            assert process.returncode == 0
            assert "draining:" in out
            assert "drained; served" in out
            assert statuses == [200]
        finally:
            if process.poll() is None:  # pragma: no cover
                process.kill()

    def test_drain_leaves_no_unpublished_fork(self, tmp_path,
                                              monkeypatch):
        """A drain racing an in-flight update must still leave the
        store clean: the published version matches the applied work
        and recovery finds nothing to sweep."""
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        handle = ServerHandle(store)
        results: list[int] = []

        def write():
            results.append(handle.post_json("/update", {
                "name": "boe",
                "statements": [
                    'rename node /descendant::w[1] as "wx"']})[0])

        worker = threading.Thread(target=write)
        worker.start()
        worker.join(timeout=60)
        handle.drain()
        handle.close()
        assert results == [200]
        snapshot = store.snapshot("boe")
        snapshot.engine.goddag.check_invariants()
        assert snapshot.query(
            "count(/descendant::wx)").strings() == ["1"]
        store.close()
        # a fresh open sees exactly the published state, no leftovers
        reopened = DocumentStore(tmp_path / "catalog")
        assert reopened.recovery["swept"] == []
        assert reopened.recovery["quarantined"] == []
        assert reopened.snapshot("boe").query(
            "count(/descendant::wx)").strings() == ["1"]
        reopened.close()


class TestStoreStaysClean:
    def test_failed_updates_leave_version_unchanged(self, fresh):
        handle, store = fresh
        before = store.snapshot("boe").version
        for payload in (
            {"name": "boe", "statements": ["rename node w to"]},
            {"name": "boe", "statements": ["delete node ((("]},
            {"name": "ghost", "statements": ["delete node //x[1]"]},
        ):
            status, _body = handle.post_json("/update", payload)
            assert status in (400, 404)
        snapshot = store.snapshot("boe")
        assert snapshot.version == before
        snapshot.engine.goddag.check_invariants()
        # the document still answers queries, over HTTP too
        status, payload = handle.get_json(
            "/query?name=boe&q=count(//w)")
        assert (status, payload["items"]) == (200, ["6"])

    def test_chaos_then_update_then_verify(self, fresh):
        handle, store = fresh
        for blob in CHAOS_BLOBS[:4]:
            with socket.create_connection(
                    (handle.host, handle.port), timeout=30) as sock:
                sock.sendall(blob)
                sock.shutdown(socket.SHUT_WR)
                while sock.recv(65536):
                    pass
        status, payload = handle.post_json("/update", {
            "name": "boe",
            "statements": [
                'insert node <note>ok</note> after /descendant::w[1]',
            ]})
        assert status == 200
        assert payload["applied"] == 1
        assert all(value.startswith("ok")
                   for value in store.verify().values())

    def test_retired_versions_are_collectable(self, fresh):
        """The soak's RSS bound, stated exactly: each update retires
        one MVCC version, and retired versions must be garbage —
        nothing below a version shell refers back to it (DESIGN.md
        §14), so nobody has to shed anything."""
        import gc
        import weakref

        handle, store = fresh
        retired = []
        for index in range(6):
            statement = (
                'rename node /descendant::w[1] as "wx"'
                if index % 2 == 0 else
                'rename node /descendant::wx[1] as "w"')
            status, _payload = handle.post_json("/update", {
                "name": "boe", "statements": [statement]})
            assert status == 200
            # query through HTTP so the new version builds its caches
            status, _payload = handle.get_json(
                "/query?name=boe&q=count(//w)")
            assert status == 200
            retired.append(weakref.ref(
                store.snapshot("boe").engine.goddag))
        gc.collect()
        alive = [ref for ref in retired if ref() is not None]
        # only the currently published version may survive
        assert len(alive) <= 1, (
            f"{len(alive)} of {len(retired)} retired MVCC versions "
            f"still resident after gc")
        assert retired[-1]() is not None  # the live one, still served
        status, payload = handle.get_json(
            "/query?name=boe&q=count(//w)")
        assert (status, payload["items"]) == (200, ["6"])
