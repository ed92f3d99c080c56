"""Pinned report texts of every suite.

The relation suites and the Hamel rows apply words through the walker only;
their pinned reports are the texts these suites gave when they still
multiplied dense letter matrices, and the walker must reproduce them byte for
byte.  The one exception is the Hamel ``sigma_min``: it is now the least
singular value over the row blocks, the value one BLAS thread gives for the
whole row matrix, where the dense two-thread SVD it was pinned from gave one
unit in the last place more.  ``monotone/simplex`` and ``qdeformed/vacuum`` spend their time in the
symmetry harness; their pinned reports are the texts the harness gave when it
still relabeled ``Word`` objects one map at a time and evaluated every
relabeled word afresh, and the array-driven harness must reproduce them byte
for byte too.  The exact monoid suites and ``qdeformed/inner`` are pinned to
the texts they gave when the compose oracle evaluated one point at a time,
words built a map for every letter and ``q_inner`` enumerated every pair.
The other six suites are pinned to the texts they gave when each suite still
read its run configuration directly; one BLAS thread and the default give the
same bytes for each.
"""

import json
from pathlib import Path

import pytest

from spreadlab import operators, symmetry
from spreadlab.monotone import MonotoneBasis
from spreadlab.qfock import QBasis
from spreadlab.suites import RunConfig, run_suites

SEED = 20230526
PINNED = json.loads((Path(__file__).parent / "pinned_reports.json").read_text())
WALKED = ["monotone/relations", "monotone/hamel", "car/relations", "boolean/relations"]
HARNESS = ["monotone/simplex", "qdeformed/vacuum"]
EXACT = ["monoid/compose-oracle", "monoid/semidirect", "monoid/localize", "qdeformed/inner"]
REST = ["qdeformed/relations", "boolean/morphism", "boolean/simplex",
        "car/stationary", "car/witness", "car/positivity"]


def _run(key):
    model, name = key.split("/")
    return run_suites(RunConfig(model=model, suites=(name,), seed=SEED))[0]


@pytest.mark.parametrize("key", WALKED + HARNESS + EXACT + REST)
def test_report_is_pinned(key):
    assert _run(key).to_json(include_wall_time=False) == PINNED[key]


@pytest.mark.parametrize("key", WALKED + ["qdeformed/relations"])
def test_suite_builds_no_dense_letter_matrix(key, monkeypatch):
    # Every relation suite and the Hamel rows walk word combinations: no
    # letter matrix, no matrix product and no Gram-metric adjoint.
    def no_dense(*args):
        raise AssertionError("the dense route was taken")

    for name in ("letter_matrix", "metric_adjoint"):
        monkeypatch.setattr(operators, name, no_dense)
    monkeypatch.setattr(operators.Operator, "__matmul__", no_dense)
    assert _run(key).passed


@pytest.mark.parametrize("key", HARNESS)
def test_harness_builds_no_relabeled_word(key, monkeypatch):
    # The harness evaluates relabeled words from their kinds and indices:
    # no relabel, no state call on a Word and no walk of a Word.
    def no_word_route(*args):
        raise AssertionError("a relabeled word took the Word route")

    monkeypatch.setattr(symmetry, "relabel", no_word_route, raising=False)
    for name in ("relabel", "walk"):
        monkeypatch.setattr(operators, name, no_word_route)
    monkeypatch.setattr(operators.StateFunctional, "__call__", no_word_route)
    for model in (MonotoneBasis, QBasis):
        monkeypatch.setattr(model, "apply_word", no_word_route)
    assert _run(key).to_json(include_wall_time=False) == PINNED[key]
