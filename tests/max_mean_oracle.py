"""Brute-force maximum mean cycles: the reference Karp's recurrence is tested against.

The maximum mean over the cycles reachable from a node is attained on a
simple cycle, so listing every simple cycle and taking the best one that
meets the node's reachable set gives each node's value.  Nodes carry the
weights, as in :func:`eqdesign.zerosum.max_mean_value_function`.  Only
usable on small graphs: the simple cycles multiply with the edges.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def simple_cycles(succs: Sequence[Sequence[int]]) -> list[list[int]]:
    """Every simple cycle as its node list, starting at its least node."""
    cycles = []
    for root in range(len(succs)):
        stack = [[root]]
        while stack:
            path = stack.pop()
            for u in set(succs[path[-1]]):
                if u == root:
                    cycles.append(path)
                elif u > root and u not in path:
                    stack.append(path + [u])
    return cycles


def reachable(succs: Sequence[Sequence[int]], v: int) -> set[int]:
    seen, stack = {v}, [v]
    while stack:
        for u in succs[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def brute_force_max_mean(succs: Sequence[Sequence[int]],
                         weight: Sequence[int]) -> list[Fraction]:
    """Per node, the best mean of a simple cycle it can reach."""
    means = [(set(c), Fraction(sum(weight[u] for u in c), len(c)))
             for c in simple_cycles(succs)]
    values = []
    for v in range(len(succs)):
        reach = reachable(succs, v)
        values.append(max(mean for nodes, mean in means if nodes & reach))
    return values
