"""Known-good: the PR-2 fix — forwarding over a defined-order sequence.

``iter_neighbors`` yields edge-insertion order on every backend, so the
draw sequence is identical across adj/CSR.  Sets are still fine as
*membership* structures (``visited``), and ``sorted(...)`` defines an
order, so neither may be flagged.
"""


def forward_probabilistically(graph, node, rng, forward_probability):
    """Forward to each neighbor independently, in defined order."""
    forwarded = []
    for neighbor in graph.iter_neighbors(node):
        if rng.random() < forward_probability:
            forwarded.append(neighbor)
    return forwarded


def flood(graph, source, ttl, rng):
    """Membership sets and sorted() iteration are both allowed."""
    visited = {source}
    frontier = [source]
    for _ in range(ttl):
        next_frontier = []
        for node in frontier:
            for neighbor in graph.iter_neighbors(node):
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return sorted(visited)
