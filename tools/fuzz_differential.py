"""Differential conformance fuzzer: one workload, every engine leg, same bytes.

The repo's central invariant is that *no engine knob changes artefacts*: the
python and numpy partition backends are bit-compatible, and a partition-cache
budget only trades memory for recomputation.  This tool makes that a
*fuzzed* invariant instead of a per-PR claim: a seed-replayable generator
produces adversarial relations (skew, constants, all-distinct runs, nulls,
long equal blocks, empty and single-row instances) and every registered
discovery algorithm is executed on every engine leg of the conformance grid

    {python, python-cache1, numpy}

where ``python-cache1`` bounds every algorithm-owned partition cache to one
position (FUN, HyFD and naive then evict and recompute cached partitions),
asserting, per seed:

* the canonical FD set of every algorithm is identical across legs;
* the full ``RunResult`` artefacts block is **byte**-identical (serialised
  with sorted keys) and the configuration-invariant
  ``artifact_fingerprint()`` agrees;
* the stripped partitions themselves (flat positions/offsets of every
  single attribute and of the full attribute combination) are identical.

The same seeds also drive an **InFine view axis**: a seed-replayable SPJ
view over two or three adversarial relations (shared or renamed join keys
with NULLs, dangling and duplicate keys; empty and single-row sides;
constant and all-distinct columns; every ``JoinKind``, an optional
selection, projection and nested inner join).  Each view is checked by one
class per invariant:

* :class:`LegsAgree` — InFine's artefacts are byte-identical, and its
  fingerprint equal, on every engine leg;
* :class:`MatchesTane` — InFine's FD set equals TANE's on the materialised
  view, with the default flags, ``use_theorem4=False`` and
  ``refine_inferred=False``.

InFine is known to carry base FDs that the NULL padding of an outer join
breaks, so on views with an outer join a :class:`MatchesTane` mismatch is
reported as a known defect and does not fail the run; every other
mismatch does.

Usage::

    PYTHONPATH=src python tools/fuzz_differential.py --seeds 25
    PYTHONPATH=src python tools/fuzz_differential.py --seed 17   # replay one

Every failure message names the seed, so a CI hit replays locally with
``--seed``.  Exit status is non-zero on any divergence.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.discovery.registry import available_algorithms  # noqa: E402
from repro.relational.algebra import JoinKind  # noqa: E402
from repro.relational.backend import numpy_available  # noqa: E402
from repro.relational.partition import StrippedPartition  # noqa: E402
from repro.relational.predicates import eq, lt, ne  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.relational.view import ViewSpec, base, join, proj, sel, validate_view  # noqa: E402
from repro.session import Session  # noqa: E402

#: Row counts the generator draws from — deliberately including the empty
#: relation and the single row.
ROW_COUNT_CHOICES = (0, 1, 2, 3, 5, 8, 13, 30, 60, 120)

#: Column shapes; each is an adversarial regime of the grouping kernel.
SHAPES = ("constant", "distinct", "skewed", "nulls", "blocks", "random")


def _column(rng: random.Random, n: int, shape: str) -> list:
    if shape == "constant":
        return ["k"] * n
    if shape == "distinct":
        return [f"v{i}" for i in range(n)]
    if shape == "skewed":
        # One dominant value: most pairs agree, a few cold stragglers.
        return ["hot" if rng.random() < 0.85 else f"cold{rng.randrange(3)}" for _ in range(n)]
    if shape == "nulls":
        return [None if rng.random() < 0.4 else f"v{rng.randrange(3)}" for _ in range(n)]
    if shape == "blocks":
        # Long equal runs: few, large groups.
        out: list = []
        value = 0
        while len(out) < n:
            run = min(n - len(out), rng.randrange(1, max(2, n // 2 + 1)))
            out.extend([f"b{value}"] * run)
            value += 1
        return out
    return [rng.randrange(max(1, n)) for _ in range(n)]


def generate_case(seed: int) -> tuple[tuple[str, ...], list[tuple], list[str]]:
    """The ``(attribute names, rows, column shapes)`` of one fuzz case.

    Pure function of ``seed`` — the replayability contract of the suite.
    """
    rng = random.Random(seed)
    n_rows = rng.choice(ROW_COUNT_CHOICES)
    n_columns = rng.randrange(2, 5)
    shapes = [rng.choice(SHAPES) for _ in range(n_columns)]
    columns = [_column(rng, n_rows, shape) for shape in shapes]
    names = tuple(chr(ord("a") + i) for i in range(n_columns))
    rows = [tuple(column[i] for column in columns) for i in range(n_rows)]
    return names, rows, shapes


def conformance_legs() -> list[tuple[str, dict]]:
    """The engine legs of the grid, as ``(label, Session overrides)`` pairs.

    Without numpy only the two python legs exist, which still differ in
    their partition-cache budget.
    """
    legs = [
        ("python", {"backend": "python"}),
        ("python-cache1", {"backend": "python", "partition_cache_max_positions": 1}),
    ]
    if numpy_available():
        legs.append(("numpy", {"backend": "numpy"}))
    return legs


def _observe_leg(
    names: tuple[str, ...], rows: list[tuple], overrides: dict, algorithms: list[str]
) -> dict:
    """Everything one leg produces, in a directly comparable form."""
    with Session(**overrides) as session:
        relation = Relation("fuzz", names, rows)
        partitions = {}
        for attribute in names:
            partitions[attribute] = StrippedPartition.from_column(relation, attribute).flat_lists()
        partitions["*combined*"] = StrippedPartition.from_columns(relation, names).flat_lists()
        runs = {}
        for algorithm in algorithms:
            result = session.discover(relation, algorithm=algorithm)
            runs[algorithm] = {
                "fds": sorted((sorted(fd.lhs), fd.rhs) for fd in result.fds),
                "artifact_bytes": json.dumps(result.artifacts, sort_keys=True),
                "artifact_fingerprint": result.artifact_fingerprint(),
            }
    return {"partitions": partitions, "runs": runs}


def check_case(label: str, names: tuple[str, ...], rows: list[tuple]) -> list[str]:
    """Run one case over the whole grid; returns human-readable mismatches."""
    algorithms = available_algorithms()
    mismatches: list[str] = []
    reference_leg: str | None = None
    reference: dict | None = None
    for leg, overrides in conformance_legs():
        observed = _observe_leg(names, rows, overrides, algorithms)
        if reference is None:
            reference_leg, reference = leg, observed
            continue
        if observed == reference:
            continue
        for attribute, flat in observed["partitions"].items():
            if flat != reference["partitions"][attribute]:
                mismatches.append(
                    f"{label}: partition({attribute!r}) differs on leg {leg} vs {reference_leg}"
                )
        for algorithm, run in observed["runs"].items():
            for key, value in run.items():
                if value != reference["runs"][algorithm][key]:
                    mismatches.append(
                        f"{label}: {algorithm} {key} differs on leg {leg} vs {reference_leg}"
                    )
    return mismatches


def check_seed(seed: int) -> list[str]:
    """Generate and check one seed; returns mismatch descriptions (empty = ok)."""
    names, rows, shapes = generate_case(seed)
    label = f"seed {seed} (rows={len(rows)}, shapes={shapes})"
    return check_case(label, names, rows)


# -- InFine view axis ---------------------------------------------------------

#: Row counts of one view input, the empty side and the single row included.
VIEW_ROW_CHOICES = (0, 1, 2, 3, 5, 8, 13, 21)

#: Shapes of a non-key column; ``derived`` is a function of an earlier
#: column of the same relation, so the inputs carry FDs to infer through.
VALUE_SHAPES = ("constant", "distinct", "skewed", "nulls", "random", "derived")

OUTER_JOINS = (JoinKind.LEFT_OUTER, JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER)


def _key_column(rng: random.Random, n: int) -> list:
    """A join-key column: duplicate or unique keys, some NULL, some dangling."""
    # A shifted domain leaves keys without a partner on the other side.
    offset = rng.choice((0, 0, 2))
    if rng.random() < 0.3:
        values = [offset + i for i in range(n)]
        rng.shuffle(values)
    else:
        domain = rng.choice((1, 2, 3, 5))
        values = [offset + rng.randrange(domain) for _ in range(n)]
    null_rate = rng.choice((0.0, 0.0, 0.25))
    return [None if rng.random() < null_rate else value for value in values]


def _value_column(rng: random.Random, n: int, shape: str, earlier: list[list]) -> list:
    if shape == "constant":
        return [7] * n
    if shape == "distinct":
        return list(range(n))
    if shape == "skewed":
        return [0 if rng.random() < 0.8 else rng.randrange(1, 4) for _ in range(n)]
    if shape == "nulls":
        return [None if rng.random() < 0.35 else rng.randrange(3) for _ in range(n)]
    if shape == "derived":
        source = rng.choice(earlier)
        modulus = rng.choice((2, 3))
        return [None if value is None else value % modulus for value in source]
    return [rng.randrange(3) for _ in range(n)]


def _view_relation(rng: random.Random, name: str, keys: tuple[str, ...], prefix: str) -> Relation:
    """One view input: its join-key columns, then one to three value columns."""
    n = rng.choice(VIEW_ROW_CHOICES)
    names = list(keys)
    columns = [_key_column(rng, n) for _ in keys]
    for index in range(rng.randrange(1, 4)):
        columns.append(_value_column(rng, n, rng.choice(VALUE_SHAPES), columns))
        names.append(f"{prefix}{index}")
    return Relation(name, tuple(names), [tuple(column[i] for column in columns) for i in range(n)])


def _join_keys(
    rng: random.Random, left_prefix: str, right_prefix: str, tag: str
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """One or two join keys, shared by name or renamed on each side."""
    count = rng.choice((1, 1, 2))
    if rng.random() < 0.5:
        shared = tuple(f"{tag}{i}" for i in range(count))
        return shared, shared
    return (
        tuple(f"{left_prefix}{tag}{i}" for i in range(count)),
        tuple(f"{right_prefix}{tag}{i}" for i in range(count)),
    )


@dataclass(frozen=True)
class ViewCase:
    """One generated view and the catalog it runs on."""

    seed: int
    catalog: dict[str, Relation]
    spec: ViewSpec

    @property
    def has_outer_join(self) -> bool:
        return any(getattr(node, "kind", None) in OUTER_JOINS for node in self.spec.walk())

    @property
    def label(self) -> str:
        rows = {name: len(relation) for name, relation in sorted(self.catalog.items())}
        return f"view seed {self.seed} ({self.spec.describe()}, rows={rows})"


def generate_view_case(seed: int) -> ViewCase:
    """The view case of ``seed``; a pure function of it, like :func:`generate_case`."""
    rng = random.Random(seed)
    kind = rng.choice(tuple(JoinKind))
    left_on, right_on = _join_keys(rng, "a", "b", "k")
    # Optionally a third relation, inner-joined below one input of the top join.
    nested_side = rng.choice((None, None, "left", "right"))
    host_prefix = "a" if nested_side == "left" else "b"
    nested_on, inner_on = _join_keys(rng, host_prefix, "c", "m") if nested_side else ((), ())
    left_keys = left_on + (nested_on if nested_side == "left" else ())
    right_keys = right_on + (nested_on if nested_side == "right" else ())
    catalog = {
        "R0": _view_relation(rng, "R0", left_keys, "a"),
        "R1": _view_relation(rng, "R1", right_keys, "b"),
    }
    left, right = base("R0"), base("R1")
    if rng.random() < 0.2:
        attribute = rng.choice(catalog["R1"].attribute_names)
        right = sel(right, rng.choice((eq, ne, lt))(attribute, rng.randrange(3)))
    if nested_side:
        catalog["R2"] = _view_relation(rng, "R2", inner_on, "c")
        if nested_side == "left":
            left = join(left, base("R2"), nested_on, inner_on)
        else:
            right = join(right, base("R2"), nested_on, inner_on)
    spec: ViewSpec = join(left, right, left_on, right_on, kind=kind)
    attributes = validate_view(spec, catalog)
    if rng.random() < 0.25:
        attribute = rng.choice(attributes)
        spec = sel(spec, rng.choice((eq, ne, lt))(attribute, rng.randrange(3)))
    if rng.random() < 0.35:
        kept = set(rng.sample(attributes, rng.randrange(1, len(attributes) + 1)))
        spec = proj(spec, [a for a in attributes if a in kept])
    return ViewCase(seed, catalog, spec)


def _fd_pairs(fds) -> frozenset:
    return frozenset((frozenset(dependency.lhs), dependency.rhs) for dependency in fds)


def _render(pairs) -> list[str]:
    return sorted(f"{','.join(sorted(lhs)) or '{}'}->{rhs}" for lhs, rhs in pairs)


class LegsAgree:
    """Invariant (i): InFine's artefacts are the same bytes on every engine leg."""

    name = "legs-agree"
    known_on_outer_joins = False

    def check(self, case: ViewCase) -> list[str]:
        observed = []
        for leg, overrides in conformance_legs():
            with Session(**overrides) as session:
                result = session.infine(case.spec, case.catalog)
            artefact = json.dumps(result.artifacts, sort_keys=True)
            observed.append((leg, artefact, result.artifact_fingerprint()))
        (reference_leg, reference, fingerprint), *others = observed
        mismatches = []
        for leg, artefact, leg_fingerprint in others:
            if artefact != reference:
                mismatches.append(
                    f"{case.label}: InFine artefact bytes differ on leg {leg} vs {reference_leg}"
                )
            if leg_fingerprint != fingerprint:
                mismatches.append(
                    f"{case.label}: InFine fingerprint differs on leg {leg} vs {reference_leg}"
                )
        return mismatches


class MatchesTane:
    """Invariant (ii): InFine's FD set equals TANE's on the materialised view."""

    known_on_outer_joins = True

    def __init__(self, name: str, **flags) -> None:
        self.name = f"matches-tane[{name}]"
        self.flags = flags

    def check(self, case: ViewCase) -> list[str]:
        with Session(backend="python") as session:
            attributes = validate_view(case.spec, case.catalog)
            view = case.spec.evaluate(case.catalog)
            reference = _fd_pairs(session.discover(view, "tane", attributes).fds)
            observed = _fd_pairs(session.infine(case.spec, case.catalog, **self.flags).fds)
        if observed == reference:
            return []
        return [
            f"{case.label}: {self.name} missing {_render(reference - observed)} "
            f"extra {_render(observed - reference)}"
        ]


VIEW_INVARIANTS = (
    LegsAgree(),
    MatchesTane("default"),
    MatchesTane("no-theorem4", use_theorem4=False),
    MatchesTane("no-refine", refine_inferred=False),
)


def check_view_seed(seed: int) -> tuple[list[str], list[str]]:
    """``(mismatches, known outer-join defects)`` of the view case of ``seed``."""
    case = generate_view_case(seed)
    mismatches: list[str] = []
    known: list[str] = []
    for invariant in VIEW_INVARIANTS:
        try:
            found = invariant.check(case)
        except Exception as exc:  # noqa: BLE001 - a crash is a finding, reported with its seed
            mismatches.append(f"{case.label}: {invariant.name} raised {exc!r}")
            continue
        if invariant.known_on_outer_joins and case.has_outer_join:
            known.extend(found)
        else:
            mismatches.extend(found)
    return mismatches, known


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds to sweep (0..N-1)")
    parser.add_argument("--seed", type=int, default=None, help="replay exactly one seed")
    args = parser.parse_args(argv)

    seeds = [args.seed] if args.seed is not None else list(range(args.seeds))
    legs = [leg for leg, _ in conformance_legs()]
    print(
        f"[fuzz_differential] seeds={seeds[0]}..{seeds[-1]} legs={legs} "
        f"algorithms={available_algorithms()} "
        f"view invariants={[invariant.name for invariant in VIEW_INVARIANTS]}"
    )
    failures = 0
    known_defects = 0
    for seed in seeds:
        view_mismatches, known = check_view_seed(seed)
        mismatches = check_seed(seed) + view_mismatches
        for line in known:
            print(f"  KNOWN outer-join defect {line}")
        known_defects += bool(known)
        if mismatches:
            failures += 1
            for line in mismatches:
                print(f"  MISMATCH {line}")
            print(f"  replay: PYTHONPATH=src python tools/fuzz_differential.py --seed {seed}")
        else:
            print(f"  seed {seed}: conforms")
    if known_defects:
        print(
            f"[fuzz_differential] {known_defects}/{len(seeds)} outer-join views "
            "hit the known defect"
        )
    if failures:
        print(f"[fuzz_differential] FAILED: {failures}/{len(seeds)} seeds diverged")
        return 1
    print(f"[fuzz_differential] all {len(seeds)} seeds conform")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
