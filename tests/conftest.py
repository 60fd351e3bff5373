"""Shared fixtures: the paper's Figure 1 document in every form.

Also registers the hypothesis profiles.  ``tier1``, loaded unless
another is asked for, serves interactive and PR runs: derandomized, so
every run draws the same examples and a green run means the same thing
twice, and without a deadline, so a slow host fails nothing.
``--hypothesis-profile=nightly`` (or ``HYPOTHESIS_PROFILE=nightly``,
the scheduled CI job) explores: random draws and multiplied example
counts for the property suites — ``tests/test_prop_updates.py`` reads
the active profile's ``max_examples`` at import time to scale its fuzz
budget.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.cmh import MultihierarchicalDocument
from repro.core.goddag import KyGoddag
from repro.corpus.boethius import BASE_TEXT, ENCODINGS, boethius_document

settings.register_profile(
    "nightly", max_examples=1000, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
    print_blob=True)
settings.register_profile("tier1", derandomize=True, deadline=None)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "tier1")


@pytest.fixture()
def boethius_doc() -> MultihierarchicalDocument:
    """A fresh Figure 1 multihierarchical document."""
    return boethius_document(validate=False)


@pytest.fixture()
def goddag(boethius_doc: MultihierarchicalDocument) -> KyGoddag:
    """A fresh KyGODDAG of the Figure 1 document."""
    return KyGoddag.build(boethius_doc)


@pytest.fixture(scope="session")
def base_text() -> str:
    return BASE_TEXT


@pytest.fixture(scope="session")
def encodings() -> dict[str, str]:
    return dict(ENCODINGS)
