"""Mining of *new* FDs on a reduced instance.

Algorithms 2 (``selectionFDs``) and 3 (``joinUpFDs``) of the paper both rely
on the same primitive: given an instance that has been reduced by a selection
or by a semi-join with the other input's join-attribute values, mine the
minimal FDs that hold on the reduced instance and keep those that are not
implied by the FDs known to hold on the *unreduced* input.

The mining runs the engine's single-table discovery algorithm (TANE unless
``InFine(base_algorithm=...)`` names another) on the whole reduced instance.
The known FDs do not prune that walk: they only filter its output, because
an FD they imply carries no new information for the view (lines #8–9 of
Algorithm 2 and #18–19 of Algorithm 3).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..discovery.base import FDDiscoveryAlgorithm
from ..discovery.tane import TANE
from ..fd.closure import FDIndex
from ..fd.fd import FD
from ..relational.relation import Relation


def mine_new_fds(
    reduced: Relation,
    attributes: Sequence[str],
    known_fds: Iterable[FD],
    algorithm: FDDiscoveryAlgorithm | None = None,
) -> tuple[list[FD], int]:
    """Minimal FDs of ``reduced`` (over ``attributes``) not implied by ``known_fds``.

    Parameters
    ----------
    reduced:
        The reduced instance (selection result or semi-joined input).
    attributes:
        Attributes to restrict the mining to (the projected attribute set
        ``AV`` intersected with the instance schema).
    known_fds:
        FDs already known to hold on the unreduced input; by Theorem 1 they
        keep holding on the reduced instance, so they are excluded from the
        output.
    algorithm:
        The discovery algorithm to mine with (default: TANE).

    Returns
    -------
    (new_fds, candidates_checked):
        The newly discovered minimal FDs and the number of candidate
        validations performed (for the statistics of the run).
    """
    known = list(known_fds)
    usable = [a for a in attributes if reduced.schema.has(a)]
    if not usable:
        return [], 0

    miner = algorithm if algorithm is not None else TANE()
    result = miner.discover(reduced, usable)

    new_fds: list[FD] = []
    known_index = FDIndex(known)
    closure_cache: dict[frozenset[str], frozenset[str]] = {}
    for dependency in result.fds:
        closure = closure_cache.get(dependency.lhs)
        if closure is None:
            closure = known_index.closure(dependency.lhs)
            closure_cache[dependency.lhs] = closure
        if dependency.rhs not in closure:
            new_fds.append(dependency)
    return new_fds, result.stats.candidates_checked
