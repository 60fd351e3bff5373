"""Tests for the Engine facade and .mhx container IO."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Engine, QueryOptions, ReproError, load_mhx, save_mhx
from repro.corpus.boethius import BASE_TEXT, DTD_SOURCES, ENCODINGS


@pytest.fixture()
def engine() -> Engine:
    return Engine.from_xml(BASE_TEXT, ENCODINGS)


class TestEngine:
    def test_query(self, engine):
        result = engine.query("count(/descendant::w)")
        assert result.serialize() == "6"

    def test_xpath(self, engine):
        result = engine.xpath("/descendant::w[1]")
        assert result.strings() == ["<w>gesceaftum</w>"]

    def test_xpath_rejects_flwor(self, engine):
        from repro.errors import QuerySyntaxError

        with pytest.raises(QuerySyntaxError):
            engine.xpath("for $x in //w return $x")

    def test_compile_execute(self, engine):
        compiled = engine.compile("count(/descendant::w) + $extra")
        result = engine.execute(compiled, variables={"extra": [1]})
        assert result.serialize() == "7"
        assert engine.execute(compiled,
                              variables={"extra": [10]}).serialize() == "16"

    def test_result_protocols(self, engine):
        result = engine.query("1, 2, 3")
        assert len(result) == 3
        assert list(result) == [1, 2, 3]
        assert result[0] == 1

    def test_serialize_modes(self, engine):
        result = engine.query("'a', 'b'")
        assert result.serialize() == "ab"
        assert result.serialize(mode="xquery") == "a b"

    def test_stats_and_describe(self, engine):
        rows = dict(engine.stats().rows())
        assert rows["leaves"] == "16"
        assert "hierarchy physical" in rows
        assert "KyGODDAG over 51 characters" in engine.describe()

    def test_to_dot(self, engine):
        dot = engine.to_dot()
        assert dot.startswith("digraph")
        assert "cluster_physical" in dot

    def test_options_threaded(self):
        engine = Engine.from_xml(
            BASE_TEXT, ENCODINGS,
            options=QueryOptions(analyze_strip_dotstar=False))
        out = engine.query(
            'analyze-string(/descendant::w[2], ".*unawe.*")')
        assert out.serialize() == "<res><m>unawendendne</m></res>"


class TestMhxContainer:
    def test_round_trip(self, engine, tmp_path):
        path = tmp_path / "boethius.mhx"
        engine.save_mhx(path)
        loaded = Engine.from_mhx(path)
        assert loaded.query("count(/descendant::w)").serialize() == "6"
        assert loaded.document.text == BASE_TEXT

    def test_container_is_json(self, engine, tmp_path):
        path = tmp_path / "doc.mhx"
        engine.save_mhx(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format"] == "mhx-1"
        assert set(payload["hierarchies"]) == set(ENCODINGS)

    def test_dtds_validated_on_load(self, tmp_path):
        path = tmp_path / "doc.mhx"
        payload = {
            "format": "mhx-1",
            "text": BASE_TEXT,
            "hierarchies": dict(ENCODINGS),
            "dtds": dict(DTD_SOURCES),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        document = load_mhx(path)
        assert document.cmh is not None

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "doc.mhx"
        path.write_text('{"format": "other"}', encoding="utf-8")
        with pytest.raises(ReproError, match="not an mhx-1"):
            load_mhx(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_mhx(tmp_path / "missing.mhx")

    def test_save_mhx_function(self, engine, tmp_path):
        path = tmp_path / "direct.mhx"
        save_mhx(engine.document, path)
        assert load_mhx(path).text == BASE_TEXT

    def test_dtds_round_trip(self, tmp_path):
        """An attached CMH survives save → load (ISSUE 2 satellite).

        ``save_mhx`` used to drop the ``dtds`` key silently, so a
        schema-carrying document lost its CMH on the way through the
        container.
        """
        from repro.cmh import ConcurrentMarkupHierarchy

        engine = Engine.from_xml(BASE_TEXT, ENCODINGS)
        cmh = ConcurrentMarkupHierarchy.from_sources("r", DTD_SOURCES)
        engine.document.attach_cmh(cmh)
        path = tmp_path / "schema.mhx"
        engine.save_mhx(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload["dtds"]) == set(DTD_SOURCES)
        loaded = load_mhx(path)
        assert loaded.cmh is not None
        assert set(loaded.cmh.hierarchy_names) == set(DTD_SOURCES)
        # and a second round trip is stable
        second = tmp_path / "schema2.mhx"
        save_mhx(loaded, second)
        assert json.loads(second.read_text(encoding="utf-8"))["dtds"] \
            == payload["dtds"]

    def test_sourceless_cmh_skips_dtds_key(self, tmp_path):
        """A programmatic CMH (no DTD sources) cannot be bundled; the
        container simply omits the key instead of failing."""
        from repro.cmh import ConcurrentMarkupHierarchy
        from repro.markup.dtd import parse_dtd

        engine = Engine.from_xml(BASE_TEXT, ENCODINGS)
        dtds = {name: parse_dtd(text)
                for name, text in DTD_SOURCES.items()}
        for dtd in dtds.values():
            dtd.source = None  # simulate programmatic construction
        engine.document.attach_cmh(
            ConcurrentMarkupHierarchy("r", dtds))
        path = tmp_path / "nosrc.mhx"
        engine.save_mhx(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "dtds" not in payload


class TestOneEvaluatorOneWriter:
    """The package ships one evaluator and one ``.mhxb`` writer: the
    switches that selected another are gone, and the reference
    tree-walker (``tests/treewalk.py``) is never on its import path."""

    def test_no_evaluator_or_format_switch(self):
        from repro.markup.streaming import stream_save
        from repro.store.mhxb import load_engine, save_engine

        for function in (Engine.__init__, Engine.from_parts, load_engine,
                         save_engine, stream_save):
            parameters = inspect.signature(function).parameters
            assert "use_pipeline" not in parameters, function
            assert "format_version" not in parameters, function

    def test_runtime_imports_no_second_evaluator(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        probe = ("import sys, repro, repro.store, repro.server, repro.cli\n"
                 "print([m for m in sys.modules"
                 " if 'evaluator' in m or 'treewalk' in m])")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
