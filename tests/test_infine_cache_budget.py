"""InFine's join mining honours the engine's partition-cache budget.

The engine builds the partition cache of each join node through
``make_partition_cache``, like every other algorithm-owned cache, so
``EngineConfig.partition_cache_max_positions`` bounds it (unbounded by
default).  A budget only trades memory for recomputation: the FD set and the
artefacts never depend on it.  The pinned mining counters and triples below
record how much of one view's lattice ``mine_join_fds`` validates on data.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro.datasets import load_all, paper_views
from repro.fd.fd import FD
from repro.infine.joinfd import mine_join_fds
from repro.relational import Relation
from repro.relational.algebra import JoinKind, equi_join
from repro.relational.partition import make_partition_cache
from repro.session import Session

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The slow view (seconds, not milliseconds) is left to the benchmark.
SLOW_VIEW = "pte/atm_bond_atm_drug"


def fd(lhs, rhs):
    return FD(frozenset(lhs), rhs)


@pytest.fixture(scope="module")
def small_catalogs():
    return load_all("small", 7)


def _run_views(catalogs, budget):
    session = Session(partition_cache_max_positions=budget)
    results = {}
    for case in paper_views():
        if case.key != SLOW_VIEW:
            results[case.key] = session.infine(case.spec, catalogs[case.database])
    return results, session.kernel_stats()


def test_budget_reaches_infine_without_changing_artefacts(small_catalogs):
    bounded, bounded_stats = _run_views(small_catalogs, 0)
    unbounded, unbounded_stats = _run_views(small_catalogs, None)
    assert len(bounded) == 15
    for key, result in bounded.items():
        assert result.artifact_fingerprint() == unbounded[key].artifact_fingerprint(), key
        assert set(result.fds) == set(unbounded[key].fds), key
    assert bounded_stats["partition_evictions"] > 0
    assert unbounded_stats["partition_evictions"] == 0


def test_join_mining_cache_follows_the_session_budget():
    left = Relation("L", ("k", "g", "h"), [(k, k % 2, k % 3) for k in range(24)])
    right = Relation("R", ("k", "p", "q"), [(k, k % 4, (k % 2) * 10 + k % 3) for k in range(24)])
    left_fds = [fd("k", "g"), fd("k", "h")]
    right_fds = [fd("k", "p"), fd("k", "q")]
    outcomes = {}
    for budget in (0, None):
        with Session(partition_cache_max_positions=budget) as session:
            joined = equi_join(left, right, ["k"], ["k"])
            outcomes[budget] = mine_join_fds(
                joined,
                make_partition_cache(joined),
                left.attribute_names,
                right.attribute_names,
                ["k"],
                ["k"],
                JoinKind.INNER,
                left_fds,
                right_fds,
                left_fds + right_fds,
                ("k", "g", "h", "p", "q"),
                "J",
            )
            evictions = session.kernel_stats()["partition_evictions"]
        assert (evictions > 0) == (budget == 0)
    assert outcomes[0].fds == outcomes[None].fds
    assert fd({"h", "p"}, "q") in outcomes[0].fds
    assert outcomes[0].candidates_validated == outcomes[None].candidates_validated


def test_mining_counters_are_pinned(small_catalogs, monkeypatch):
    """Counters and triples of one mid-size view."""
    engine = importlib.import_module("repro.infine.engine")
    outcomes = []

    def recording(*args, **kwargs):
        outcome = mine_join_fds(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(engine, "mine_join_fds", recording)
    case = next(case for case in paper_views() if case.key == "mimic3/diagnoses_patients_dicd")
    Session().infine(case.spec, small_catalogs[case.database])
    counters = [(o.candidates_validated, o.candidates_pruned_logically) for o in outcomes]
    assert counters == [(105, 21), (54, 6)]
    triples = [
        (sorted(t.dependency.lhs), t.dependency.rhs, t.fd_type.value, t.subquery)
        for o in outcomes
        for t in o.triples
    ]
    subquery = "(diagnoses_icd JOIN patients ON subject_id = subject_id)"
    assert triples == [
        (["dob", "seq_num"], "icd9_code", "inferred", subquery),
        (["dob", "seq_num"], "severity", "inferred", subquery),
    ]


def test_only_the_kernel_constructs_partition_caches():
    """Every other module goes through ``make_partition_cache``."""
    direct = re.compile(r"\bPartitionCache\(")
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "relational" / "partition.py" and direct.search(path.read_text())
    ]
    assert offenders == []
