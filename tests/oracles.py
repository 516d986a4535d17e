"""Independent oracles used to cross-check the solver.

Two routes to the minimum cycle mean of a window graph, both separate
from the solver's parametric Bellman-Ford search:

* enumeration of every simple cycle (Johnson's DFS via networkx),
  feasible whenever the graph is small or heavily constrained;
* a min-plus dynamic program over closed walks of every exact length
  up to the node count.  The minimum mean over closed walks equals the
  minimum over simple cycles (every closed walk decomposes into simple
  cycles, so its mean is a weighted average of cycle means), and this
  stays feasible on graphs whose cycle count explodes.

A third oracle reads the cycles no longer than the window off their
periodic words, one word at a time.  A fourth checks a 1D pattern
against a family by its definition, one translate at a time.

All arithmetic is exact, on integers or Fractions.
"""

from fractions import Fraction

import networkx as nx
import numpy as np

_INF = 1 << 40


def graph_edges(graph):
    full = (1 << graph.s) - 1
    nodeset = set(graph.nodes)
    for u in graph.nodes:
        for b in (0, 1):
            v = ((u << 1) & full) | b
            if v in nodeset:
                yield u, v, b


def min_mean_by_cycle_enumeration(graph) -> Fraction:
    """Minimum mean over all simple cycles, by exhaustive enumeration.

    Every edge into a node weighs that node's lowest bit, so a cycle's
    weight is the number of odd words on it.
    """
    g = nx.DiGraph()
    for u, v, _ in graph_edges(graph):
        g.add_edge(u, v)
    best_n = best_d = None
    for cycle in nx.simple_cycles(g):
        num = sum(w & 1 for w in cycle)
        den = len(cycle)
        if best_n is None or num * best_d < best_n * den:
            best_n, best_d = num, den
    if best_n is None:
        raise ValueError("graph has no cycle")
    return Fraction(best_n, best_d)


def min_mean_by_closed_walks(graph, max_length=None) -> Fraction:
    """Minimum mean over closed walks of every length 1..max_length,
    by default 1..|nodes|.

    dist[u, v] is the cheapest walk of the current exact length from u
    to v; its diagonal after L steps holds the cheapest closed L-walks.
    Each node has at most two predecessors, so one length step is two
    fancy-indexed column minimums rather than a matrix product.
    """
    nodes = list(graph.nodes)
    n = len(nodes)
    index = {w: i for i, w in enumerate(nodes)}
    w_in = np.array([w & 1 for w in nodes], dtype=np.int64)
    preds = [[] for _ in range(n)]
    for u, v, _ in graph_edges(graph):
        preds[index[v]].append(index[u])
    pred_a = np.array([p[0] if p else 0 for p in preds])
    has_a = np.array([len(p) >= 1 for p in preds])
    pred_b = np.array([p[1] if len(p) > 1 else 0 for p in preds])
    has_b = np.array([len(p) >= 2 for p in preds])

    dist = np.full((n, n), _INF, dtype=np.int64)
    dist[np.arange(n), np.arange(n)] = 0  # length-0 walks
    best_n = best_d = None
    for length in range(1, (n if max_length is None else max_length) + 1):
        dist = np.minimum(
            np.where(has_a, dist[:, pred_a], _INF),
            np.where(has_b, dist[:, pred_b], _INF),
        )
        dist = np.minimum(dist + w_in, _INF)
        closed = int(dist.diagonal().min())
        if closed < _INF and (
            best_n is None or closed * best_d < best_n * length
        ):
            best_n, best_d = closed, length
    if best_n is None:
        raise ValueError("graph has no cycle")
    return Fraction(best_n, best_d)


def brute_force_cycles_tiny(graph):
    """All simple cycles of a tiny graph by plain recursive DFS.

    Each cycle is reported rooted at its smallest node.  Only used for
    hand-checkable graphs; exponential in general.
    """
    adj = {}
    for u, v, _ in graph_edges(graph):
        adj.setdefault(u, []).append(v)
    cycles = []

    def extend(root, u, path):
        for v in adj.get(u, []):
            if v == root:
                cycles.append(path[:])
            elif v > root and v not in path:
                path.append(v)
                extend(root, v, path)
                path.pop()

    for root in graph.nodes:
        extend(root, root, [root])
    return cycles


def short_cycle_by_periodic_words(graph):
    """Least mean over the cycles of length at most s, and the cycle of
    the shortest, then smallest, periodic word u of that mean whose
    windows are all valid, in walk order from the window u u u ...

    Every L-bit word u is tried for L = 1..s: its windows are the s-bit
    prefixes of u u u ... and of its rotations.  A word with a shorter
    period loses to that period, so the pick is primitive.  Returns
    None if no word qualifies.
    """
    s = graph.s
    best = None
    for length in range(1, s + 1):
        for u in range(1 << length):
            bits = format(u, f"0{length}b")
            cycle = [int(((bits[k:] + bits[:k]) * s)[:s], 2) for k in range(length)]
            if all(graph.valid[w] for w in cycle):
                key = (Fraction(bits.count("1"), length), length, u)
                if best is None or key < best[0]:
                    best = key, cycle
    return None if best is None else (best[0][0], best[1])


def first_missed_translate_1d(pattern, family):
    """None if every translate of every ship hits a shot, else the first
    missed one as (ship index, anchor n), trying ships in order and each
    anchor n in [0, period) in turn."""
    p = pattern.period
    for i, ship in enumerate(family.ships):
        for n in range(p):
            if not any((n + a) % p in pattern.residues for a in ship.offsets):
                return (i, n)
    return None
