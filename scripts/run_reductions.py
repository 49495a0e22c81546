#!/usr/bin/env python3
"""Exercise the hardness-instance generators at desk scale.

Part one samples tour games and compares the approximated worst
equilibrium value against the brute-force optimal tour; part two runs the
strong/weak improvement decisions on digraphs of three and four vertices
with and without a Hamiltonian cycle, and checks each decision against a
brute-force Hamiltonian-cycle test.  Instances where equal-share multi-lap
walks undercut every tour are reported rather than hidden; a decision that
disagrees with the brute force makes the script exit with status 1.
"""

import argparse
import itertools
import math
import random
import sys
import time
from fractions import Fraction

from eqdesign.benchmarks import (
    CostDigraph,
    complete_digraph,
    gen_hamiltonian_complement_game,
    gen_hamiltonian_game,
    gen_tsp_game,
)
from eqdesign.design import ImprovementQuery, decide_improvement, epsilon_worst_ne


def optimal_tour(verts, costs) -> int:
    best = None
    for perm in itertools.permutations(verts[1:]):
        tour = [verts[0]] + list(perm)
        c = sum(costs[(tour[i], tour[(i + 1) % len(verts)])] for i in range(len(verts)))
        best = c if best is None else min(best, c)
    return best


def tour_experiment(seed: int, instances: int, cities: int) -> None:
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(1, cities + 1)]
    print(f"tour games: {instances} instances, {cities} cities, seed {seed}")
    for trial in range(instances):
        costs = {(u, v): rng.randint(1, 9) for u in verts for v in verts if u != v}
        game = gen_tsp_game(complete_digraph(cities, costs))
        start = time.monotonic()
        value = epsilon_worst_ne(game, Fraction(1))
        elapsed = time.monotonic() - start
        opt = optimal_tour(verts, costs)
        note = "" if math.floor(value) == opt else "  <- multi-lap walk undercuts tours"
        print(f"  #{trial}: optimal tour {opt:3d}, eps-worst {value} "
              f"({elapsed:.2f} s){note}")


V3 = ("v1", "v2", "v3")
V4 = (*V3, "v4")
# The graphs of part two, with three and four vertices.
GRAPHS = {
    "3-cycle": CostDigraph(V3, (("v1", "v2"), ("v2", "v3"), ("v3", "v1"))),
    "3-vertex fork": CostDigraph(V3, (("v1", "v2"), ("v1", "v3"))),
    "4-cycle + chord": CostDigraph(
        V4, (("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v1"), ("v1", "v3"))),
    "4-vertex fork": CostDigraph(V4, (("v1", "v2"), ("v1", "v3"), ("v1", "v4"))),
    "4-vertex path": CostDigraph(V4, (("v1", "v2"), ("v2", "v3"), ("v3", "v4"))),
    "two 2-cycles": CostDigraph(V4, (("v1", "v2"), ("v2", "v1"), ("v3", "v4"), ("v4", "v3"))),
}


def has_hamiltonian_cycle(graph: CostDigraph) -> bool:
    """Brute force: some order of the vertices closes into a cycle of edges."""
    edges = set(graph.edges)
    first, rest = graph.vertices[0], graph.vertices[1:]
    return any(all(e in edges for e in zip(tour, tour[1:] + tour[:1]))
               for tour in ((first, *perm) for perm in itertools.permutations(rest)))


def hamiltonian_experiment(max_vertices: int) -> int:
    """Decide both reductions on every graph of at most ``max_vertices``
    vertices, check each decision against the brute-force Hamiltonian-cycle
    test, and return the number of mismatches."""
    print("hamiltonian reductions (budget 1, delta 1/2, eps 1):")
    mismatches = 0
    for name, graph in GRAPHS.items():
        if len(graph.vertices) > max_vertices:
            continue
        cycle = has_hamiltonian_cycle(graph)
        # Strong improvement is possible exactly when a Hamiltonian cycle
        # exists; the complement construction flips the weak answer.
        for mode, make, expected in (("strong", gen_hamiltonian_game, cycle),
                                     ("weak", gen_hamiltonian_complement_game, not cycle)):
            query = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1),
                                     mode=mode)
            start = time.monotonic()
            decision = decide_improvement(make(graph), query).decision
            elapsed = time.monotonic() - start
            note = ""
            if decision != expected:
                mismatches += 1
                note = f"  <- MISMATCH: the graph {'has' if cycle else 'has no'} Hamiltonian cycle"
            print(f"  {name}, {mode}: {'yes' if decision else 'no'} ({elapsed:.2f} s){note}")
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--instances", type=int, default=3)
    parser.add_argument("--cities", type=int, default=4)
    parser.add_argument("--skip-hamiltonian", action="store_true")
    parser.add_argument("--max-vertices", type=int, default=4,
                        help="decide the reductions only on graphs this small")
    args = parser.parse_args(argv)
    tour_experiment(args.seed, args.instances, args.cities)
    if not args.skip_hamiltonian and hamiltonian_experiment(args.max_vertices):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
