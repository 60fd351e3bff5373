"""Seeded inputs: documents, queries and update statements.

Everything the program under test receives is made here from the seed.
Documents are ``corpus.generator`` manuscripts handed over as what a
user holds: a base text plus one XML encoding string per hierarchy.
The query texts are the paper's §4 queries and the probes the
workloads name in the README; they are written out here, not imported
from the program, so that a later change to ``src/`` cannot move the
benchmark.

Generated documents are cached under ``perfbench/.cache``; a fresh
checkout fills it as it goes and an entry is keyed by the code that
made it, so a changed generator never serves stale text.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 20060627  # the repo's BENCH_SEED: SIGMOD 2006, June 27

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"

#: generator rates of the single-document workloads
RATES = {"hyphenation_rate": 0.35, "damage_rate": 0.08,
         "restoration_rate": 0.08, "boundary_cross_rate": 0.5}

#: words per document: full size, and the --smoke size
WORDS = {False: 6400, True: 800}
#: corpus-scatter: one damaged head and four clean bodies
HEAD_WORDS = {False: 2000, True: 250}
BODY_WORDS = {False: 8000, True: 1000}
BODIES = 4
SHARDS = 8

Q_I1 = """
for $l in /descendant::line
  [xdescendant::w[string(.) = "singallice"] or
   overlapping::w[string(.) = "singallice"]]
return string($l)
"""

Q_I2 = """
for $l in /descendant::line
  [xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return (
  for $leaf in $l/descendant::leaf() return
    if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b>
    else $leaf
, <br/> )
"""

# Q-II.1 and Q-III.1 look for a substring (the paper's is "unawe").
# Their cost is the analyze-string work per matching word, so the
# substring is drawn from the seed's own text (:func:`needle`) to match
# the same number of words whatever the seed.
Q_II1 = """
for $w in /descendant::w[matches(string(.), ".*NEEDLE.*")]
return (
  let $res := analyze-string($w, ".*NEEDLE.*")
  return
    for $n in $res/child::node() return
      if ($n/self::m) then <b>{string($n)}</b> else string($n)
, <br/> )
"""

Q_III1 = """
for $w in /descendant::w[matches(string(.), ".*NEEDLE.*")]
return (
  let $res := analyze-string($w, ".*NEEDLE.*")
  return
    for $leaf in $res/descendant::leaf() return
      if ($leaf/xancestor::m and $leaf/xancestor::res)
      then <i><b>{$leaf}</b></i>
      else if ($leaf/xancestor::m) then <b>{$leaf}</b>
      else $leaf
, <br/> )
"""

#: the scan half of Q-II.1 (census: analyze-string = Q-II.1 − this)
Q_II1_SCAN = '/descendant::w[matches(string(.), ".*NEEDLE.*")]'

#: words the needle matches per 6400 words of text (the paper's "unawe"
#: matches 22 words of the default seed's document)
NEEDLE_MATCHES = 22 / 6400

CHAIN = "/descendant::dmg/xdescendant::w/overlapping::line"
POINT = "count(/descendant::w)"
OVERLAP = "count(/descendant::w[overlapping::line])"
PAGE = "/descendant::w"

#: the Q-I.1 predicate as a path (no FLWOR), for the corpus heavy class
Q_I1_LINES = ('/descendant::line[xdescendant::w[string(.) = "singallice"]'
              ' or overlapping::w[string(.) = "singallice"]]')

#: query-warm's operations (cycle order before the shuffle)
QUERY_WARM = ("q-ii1", "q-i1", "q-i2", "q-iii1", "chain", "overlap", "page")


def needle(text: str) -> str:
    """A word prefix of four or five letters that occurs in
    :data:`NEEDLE_MATCHES` of the text's words, or as near as any comes
    (the longest, then the first in alphabetical order, among equals)."""
    words = text.split()
    target = round(NEEDLE_MATCHES * len(words))
    prefixes = {word[:size] for word in words for size in (5, 4)
                if len(word) >= size + 2}
    return min(prefixes, key=lambda prefix: (
        abs(text.count(prefix) - target), -len(prefix), prefix))


def query_warm(text: str) -> dict[str, str]:
    """query-warm: operation name -> query text for this document."""
    found = needle(text)
    return {"q-ii1": Q_II1.replace("NEEDLE", found), "q-i1": Q_I1,
            "q-i2": Q_I2, "q-iii1": Q_III1.replace("NEEDLE", found),
            "chain": CHAIN, "overlap": OVERLAP, "page": PAGE}

#: serve-read: probe name -> (query text, extra request parameters)
SERVE_READ = {"point": (POINT, {}), "page": (PAGE, {"limit": "25"}),
              "q-i1": (Q_I1, {}), "overlap": (OVERLAP, {}),
              "stream": (PAGE, {"stream": "1", "limit": "200"})}

#: corpus-scatter: operation name -> path after ``collection("c")``
CORPUS_SCATTER = {
    "pruned-count": "count(@/descendant::w[overlapping::dmg])",
    "lines": "@/descendant::line[overlapping::w]",
    "q-i1-lines": "@" + Q_I1_LINES,
    "count": "count(@/descendant::w[overlapping::line])",
    "pruned-scatter": "@/descendant::dmg/xdescendant::w",
    "fused": "@/descendant::w[xfollowing::dmg]",
}


def corpus_query(template: str) -> str:
    """The ``collection("c")`` form the store receives."""
    return template.replace("@", 'collection("c")')


def oracle_query(template: str) -> str:
    """The same query over the unsharded document."""
    return template.replace("@", "")


def _cached(kind: str, seed: int, smoke: bool) -> tuple[str, dict]:
    """``(text, sources)`` from the cache; a miss is generated by one
    child process (``python inputs.py kind seed smoke path``), so that
    what generating costs in memory never counts toward the measured
    process, whether or not the cache was warm.  Entries are keyed by
    the code that makes them: the generator's and this file's."""
    import repro.corpus.generator as generator
    import repro.corpus.vocabulary as vocabulary

    code = hashlib.sha1()
    for source in (generator.__file__, vocabulary.__file__, __file__):
        code.update(Path(source).read_bytes())
    path = CACHE / (f"{seed}-{kind}{'-smoke' if smoke else ''}-"
                    f"{code.hexdigest()[:10]}.json")
    if not path.exists():
        subprocess.run([sys.executable, str(HERE / "inputs.py"), kind,
                        str(seed), str(int(smoke)), str(path)],
                       check=True, timeout=600)
    payload = json.loads(path.read_text(encoding="utf-8"))
    return payload["text"], payload["sources"]


def _generate(seed: int, words: int, rates: dict):
    from repro.corpus.generator import GeneratorConfig, generate_document

    return generate_document(GeneratorConfig(n_words=words, seed=seed,
                                             **rates))


def manuscript(seed: int, smoke: bool = False) -> tuple[str, dict]:
    """The seed's first document: base text and its four encodings."""
    return _cached("manuscript", seed, smoke)


def corpus(seed: int, smoke: bool = False) -> tuple[str, dict]:
    """One damaged head fused with four clean bodies (seeds S..S+4).

    Damage lives only in the head, so a damage-anchored query prunes
    every body shard from the manifest statistics alone.
    """
    return _cached("corpus", seed, smoke)


def generate(kind: str, seed: int, smoke: bool, path: Path) -> None:
    """The generator process: build one document, write its cache file."""
    if kind == "manuscript":
        document = _generate(seed, WORDS[smoke], RATES)
    else:
        from repro.store import fuse_documents

        parts = [_generate(seed, HEAD_WORDS[smoke],
                           {"damage_rate": 0.3, "restoration_rate": 0.2})]
        parts.extend(
            _generate(seed + index, BODY_WORDS[smoke],
                      {"damage_rate": 0.0, "restoration_rate": 0.0})
            for index in range(1, BODIES + 1))
        document = fuse_documents(parts)
    sources = {name: hierarchy.to_xml()
               for name, hierarchy in document.hierarchies.items()}
    CACHE.mkdir(exist_ok=True)
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    temp.write_text(json.dumps({"text": document.text,
                                "sources": sources}), encoding="utf-8")
    os.replace(temp, path)


def free_words(words: list[tuple[int, int]],
               damage: list[tuple[int, int]]) -> list[int]:
    """1-based indexes of the words an update may mark.

    ``add markup … to "damage"`` must nest in the damage hierarchy, so
    only words that do not properly overlap a ``<dmg>`` span qualify.
    """
    damage = sorted(damage)  # disjoint spans: ends ascend with starts
    starts = [span[0] for span in damage]

    def crosses(word: tuple[int, int]) -> bool:
        start, end = word
        position = bisect.bisect_left(starts, end) - 1
        while position >= 0 and damage[position][1] > start:
            d_start, d_end = damage[position]
            if not (d_start <= start and end <= d_end) \
                    and not (start <= d_start and d_end <= end):
                return True
            position -= 1
        return False

    return [index for index, word in enumerate(words, 1)
            if not crosses(word)]


def markable(goddag) -> list[int]:
    """:func:`free_words` read off a built KyGODDAG."""
    return free_words(
        [(node.start, node.end) for node in goddag.elements("w")],
        [(node.start, node.end) for node in goddag.elements("dmg")])


#: update statements over the ``index``-th word
MARKUP = 'add markup mark to "damage" covering (/descendant::w)[{}]'
RENAME = 'rename node (/descendant::w)[{}] as "word"'
RETEXT = 'replace value of node (/descendant::w)[{}] with "eac"'


def markup_statement(index: int) -> str:
    return MARKUP.format(index)


MARK_QUERY = "for $m in /descendant::mark return string($m)"


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    generate(sys.argv[1], int(sys.argv[2]), bool(int(sys.argv[3])),
             Path(sys.argv[4]))
