"""Signal-flow-graph solver for linear input-output networks.

A :class:`SignalFlowGraph` encodes a set of node-balance equations
``x_v = sum_u gain(u -> v, omega) * x_u`` with frequency-dependent complex
edge gains.  Any source-to-node transfer function can be evaluated two ways:

* :func:`mason_gain` -- path/loop enumeration and the graph determinant
  (inclusion-exclusion over non-touching loop sets), and
* :func:`linear_solve_gain` -- a direct dense solve of the node-balance
  system with unit injection at the source.

The two routes share no code and serve as mutual oracles.  Graphs are
immutable after construction; every solver operation is a pure function and
safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EdgeGainError, SingularityError, UnknownNodeError

GainFunction = Callable[[float], complex]

#: threshold scale for the determinant zero test, relative to loop-gain size
_SINGULARITY_RTOL = 1e-14


@dataclass(frozen=True)
class SfgEdge:
    """Directed edge with a complex gain as a function of angular frequency."""

    src: str
    dst: str
    gain: GainFunction
    label: str = ""

    def evaluate(self, omega: float) -> complex:
        try:
            return complex(self.gain(omega))
        except Exception as exc:  # noqa: BLE001 - re-raised with edge identity
            raise EdgeGainError(self.src, self.dst, exc) from exc


class SignalFlowGraph:
    """Immutable directed graph with at most one edge per ordered node pair.

    The nodes are the edge endpoints; a source is a node with no incoming edge.
    """

    def __init__(self, edges: Iterable[SfgEdge]):
        self._edges: dict[tuple[str, str], SfgEdge] = {}
        for e in edges:
            key = (e.src, e.dst)
            if key in self._edges:
                raise ValueError(f"multiple edges for pair {key}")
            self._edges[key] = e
        ids = sorted({nid for key in self._edges for nid in key})
        #: node id -> bit position in a loop or path mask; iterates in sorted id order
        self._index: dict[str, int] = {nid: k for k, nid in enumerate(ids)}
        succ: dict[str, list[str]] = {nid: [] for nid in ids}
        for u, v in self._edges:
            succ[u].append(v)
        self._succ: dict[str, tuple[str, ...]] = {nid: tuple(sorted(s)) for nid, s in succ.items()}

    @functools.cached_property
    def _loops(self) -> tuple[tuple[tuple[str, ...], int], ...]:
        """Every simple cycle, in :func:`enumerate_loops` order, with its node mask."""
        return tuple((loop, self._mask(loop)) for loop in enumerate_loops(self))

    def _mask(self, node_ids: Iterable[str]) -> int:
        """Bit set of ``node_ids``, which are distinct: a simple path or loop."""
        return sum(1 << self._index[nid] for nid in node_ids)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._index)

    @property
    def edges(self) -> tuple[SfgEdge, ...]:
        return tuple(self._edges[k] for k in sorted(self._edges))

    def edge(self, src: str, dst: str) -> SfgEdge:
        return self._edges[(src, dst)]

    def source_ids(self) -> tuple[str, ...]:
        has_in = {v for _, v in self._edges}
        return tuple(nid for nid in self._index if nid not in has_in)

    def _require(self, node_id: str):
        if node_id not in self._index:
            raise UnknownNodeError(node_id)

    def dump_adjacency(self) -> str:
        """Plain-text edge listing, one ``from -> to : label`` line per edge."""
        return "\n".join(f"{e.src} -> {e.dst} : {e.label or '(unlabelled)'}" for e in self.edges)


def _walk(g: SignalFlowGraph, start: str, allowed: Callable[[str], bool]):
    """Every simple path from ``start`` through ``allowed`` nodes, in lexicographic order."""
    stack = [start]

    def extend():
        yield tuple(stack)
        for nxt in g._succ[stack[-1]]:
            if allowed(nxt) and nxt not in stack:
                stack.append(nxt)
                yield from extend()
                stack.pop()

    return extend()


def enumerate_paths(g: SignalFlowGraph, src: str, dst: str) -> list[tuple[str, ...]]:
    """All simple paths from ``src`` to ``dst`` in lexicographic order."""
    g._require(src)
    g._require(dst)
    return [path for path in _walk(g, src, lambda nid: True) if path[-1] == dst]


def enumerate_loops(g: SignalFlowGraph) -> list[tuple[str, ...]]:
    """All simple cycles, each rotated to start at its smallest node id.

    Cycles are discovered rooted at their lexicographically smallest node,
    which makes the canonical form automatic and the output order
    deterministic.
    """
    return sorted(
        walk for root in g._index
        for walk in _walk(g, root, root.__lt__)  # through ids above the root only
        if (walk[-1], root) in g._edges
    )


def _gain(g: SignalFlowGraph, path: Sequence[str], omega: float) -> complex:
    """Product of the edge gains along ``path``; a loop is the path ``loop + loop[:1]``."""
    gain = 1 + 0j
    for u, v in zip(path, path[1:]):
        gain *= g.edge(u, v).evaluate(omega)
    return gain


def _loop_gains(g: SignalFlowGraph, omega: float) -> list[tuple[complex, int]]:
    """(gain, node mask) of every loop of ``g`` at ``omega``."""
    return [(_gain(g, loop + loop[:1], omega), mask) for loop, mask in g._loops]


def _delta(loops: Sequence[tuple[complex, int]]) -> complex:
    """Inclusion-exclusion sum over sets of pairwise non-touching loops."""
    n = len(loops)

    def rec(i: int, used: int) -> complex:
        if i == n:
            return 1 + 0j
        total = rec(i + 1, used)
        gain, mask = loops[i]
        if not (mask & used):
            total -= gain * rec(i + 1, used | mask)
        return total

    return rec(0, 0)


def graph_determinant(g: SignalFlowGraph, omega: float) -> complex:
    """Graph determinant: 1 - sum(loop gains) + sum(non-touching pair products) - ..."""
    return _delta(_loop_gains(g, omega))


def mason_gain(g: SignalFlowGraph, src: str, dst: str, omega: float) -> complex:
    """Transfer gain from ``src`` to ``dst`` at ``omega`` by Mason's rule.

    Returns 0 when ``dst`` is unreachable from ``src``.  Raises
    :class:`SingularityError` when the graph determinant vanishes (scale-aware
    zero test against the total loop-gain magnitude).
    """
    paths = enumerate_paths(g, src, dst)
    loops = _loop_gains(g, omega)
    delta = _delta(loops)
    scale = 1.0 + sum(abs(x) for x, _ in loops)
    if abs(delta) < _SINGULARITY_RTOL * scale:
        raise SingularityError(omega, "graph determinant vanished")
    if not paths:
        return 0j

    total = 0j
    for path in paths:
        pmask = g._mask(path)
        total += _gain(g, path, omega) * _delta([(x, m) for x, m in loops if not (m & pmask)])
    return total / delta


def linear_solve_gain(g: SignalFlowGraph, src: str, dst: str, omega: float) -> complex:
    """Direct-solve oracle for :func:`mason_gain`.

    Solves the node-balance system ``x_v - sum_u gain(u->v) x_u = delta_{v,src}``
    and returns ``x_dst``.  Algorithmically independent of the path/loop route.
    """
    g._require(src)
    g._require(dst)
    index = g._index
    n = len(index)
    mat = np.eye(n, dtype=complex)
    for (u, v), e in g._edges.items():
        mat[index[v], index[u]] -= e.evaluate(omega)
    rhs = np.zeros(n, dtype=complex)
    rhs[index[src]] = 1.0
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(omega, str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularityError(omega, "non-finite solution")
    return complex(sol[index[dst]])


@dataclass(frozen=True)
class SourceGains:
    """Per-source transfer gains into one node, with the total power diagnostic."""

    gains: dict[str, complex] = field(default_factory=dict)
    power_sum: float = 0.0


def all_source_gains(g: SignalFlowGraph, dst: str, omega: float) -> SourceGains:
    """Gain from every source node into ``dst``; also reports sum |G|^2.

    The power sum is a diagnostic only: networks whose loss ports are not all
    represented as explicit sources sum to less than one.
    """
    g._require(dst)
    gains = {s: mason_gain(g, s, dst, omega) for s in g.source_ids()}
    power = math.fsum(abs(v) ** 2 for v in gains.values())
    return SourceGains(gains=gains, power_sum=power)
