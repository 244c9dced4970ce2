"""Differential conformance suite: pins the fuzz tool's grid as tier-1 tests.

``tools/fuzz_differential.py`` is the replayable generator/checker; this
module drives it from pytest so the conformance grid — {python,
python-cache1, numpy} × every registered discovery algorithm — runs on every tier-1 invocation with
fixed seeds plus explicit adversarial fixtures the random generator is not
guaranteed to hit (empty relation, single row, three rows, pure constants,
all-distinct, heavy skew, nulls).  Fixed seeds of the InFine view axis cover
every join kind, and the known outer-join defect stays visible as strict
expected failures.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import fuzz_differential  # noqa: E402

from repro.discovery.registry import available_algorithms  # noqa: E402
from repro.relational.algebra import JoinKind  # noqa: E402
from repro.relational.backend import numpy_available  # noqa: E402

FIXED_SEEDS = (0, 1, 2, 3, 4, 5)


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_fixed_seeds_conform(seed):
    assert fuzz_differential.check_seed(seed) == []


def test_generator_is_seed_replayable():
    for seed in FIXED_SEEDS:
        assert fuzz_differential.generate_case(seed) == fuzz_differential.generate_case(seed)
    cases = {
        fuzz_differential.generate_case(seed)[:2] == fuzz_differential.generate_case(0)[:2]
        for seed in FIXED_SEEDS
    }
    assert False in cases, "distinct seeds should not all collapse to one case"


ADVERSARIAL_CASES = {
    "empty": (("a", "b"), []),
    "single_row": (("a", "b"), [("x", 1)]),
    "fewer_rows_than_shards": (("a", "b"), [("x", 1), ("x", 2), ("y", 1)]),
    "constants": (("a", "b", "c"), [("k", "k", "k")] * 12),
    "all_distinct": (("a", "b"), [(f"v{i}", i) for i in range(20)]),
    "skew": (
        ("a", "b", "c"),
        [("hot", i % 2, "x") for i in range(25)] + [(f"cold{i}", i, "y") for i in range(5)],
    ),
    "nulls": (
        ("a", "b"),
        [(None, 1), ("x", None), (None, 1), ("x", 2), (None, None), ("y", 1)],
    ),
    "blocks_across_boundaries": (
        ("a", "b"),
        [(f"b{i // 7}", i % 3) for i in range(42)],
    ),
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL_CASES))
def test_adversarial_fixtures_conform(case):
    names, rows = ADVERSARIAL_CASES[case]
    assert fuzz_differential.check_case(case, names, rows) == []


def test_grid_covers_required_legs():
    """The grid must span both backends and a cache budget that forces eviction."""
    legs = dict(fuzz_differential.conformance_legs())
    assert legs["python"] == {"backend": "python"}
    assert legs["python-cache1"] == {"backend": "python", "partition_cache_max_positions": 1}
    if not numpy_available():
        pytest.skip("numpy not installed")
    assert legs["numpy"] == {"backend": "numpy"}
    assert len(legs) == 3


def test_grid_covers_all_registered_algorithms():
    names, rows = ADVERSARIAL_CASES["fewer_rows_than_shards"]
    legs = fuzz_differential.conformance_legs()
    observed = fuzz_differential._observe_leg(
        names, rows, legs[0][1], list(available_algorithms())
    )
    assert set(observed["runs"]) == set(available_algorithms())


def test_cli_replays_single_seed(capsys):
    assert fuzz_differential.main(["--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "seed 3: conforms" in out


#: View-axis seeds spanning every join kind, shared, renamed and composite
#: keys, empty sides, a nested inner join, selections and projections.
VIEW_SEEDS = (0, 2, 3, 5, 7, 11, 14, 19, 28, 31)

#: Outer-join views on which InFine carries an FD that the NULL padding
#: breaks: LEFT OUTER carries ``{} -> a0``, FULL OUTER carries ``{} -> k0``
#: and ``{} -> k1``, RIGHT OUTER carries ``{} -> b0`` and ``a0 -> bk0``.
OUTER_JOIN_DEFECT_SEEDS = (1, 9, 36)


@pytest.mark.parametrize("seed", VIEW_SEEDS)
def test_fixed_view_seeds_conform(seed):
    mismatches, _ = fuzz_differential.check_view_seed(seed)
    assert mismatches == []


def test_view_seeds_cover_every_join_kind():
    kinds = {
        node.kind
        for seed in VIEW_SEEDS
        for node in fuzz_differential.generate_view_case(seed).spec.walk()
        if hasattr(node, "kind")
    }
    assert kinds == set(JoinKind)
    case = fuzz_differential.generate_view_case(VIEW_SEEDS[0])
    assert case == fuzz_differential.generate_view_case(VIEW_SEEDS[0])


@pytest.mark.xfail(strict=True, reason="InFine carries base FDs broken by outer-join padding")
@pytest.mark.parametrize("seed", OUTER_JOIN_DEFECT_SEEDS)
def test_outer_join_views_match_tane(seed):
    case = fuzz_differential.generate_view_case(seed)
    assert case.has_outer_join
    assert fuzz_differential.MatchesTane("default").check(case) == []
