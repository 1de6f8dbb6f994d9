"""Simply-laced finite root systems, and words of reflections and folding automorphisms acting on them.

Roots are integer vectors in simple-root coordinates (index 0 unused so the
code matches the usual 1-based node labels).  Inner products always go
through the Cartan matrix; there is no Euclidean embedding anywhere.  The
positive roots are found height by height by the simply-laced rule: for a
positive root beta != alpha_i, beta + alpha_i is a root iff (beta, alpha_i)
= -1.  Each root carries its row of inner products (beta, alpha_k), which
one Cartan row updates, so the search costs O(|Delta+| n).  A word acts on
root coordinates in one way only: compiled into int steps (`compile_word`),
then run (`run_word`).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Iterable, Sequence, Union

from .scalars import QAffineError

Vec = tuple[int, ...]
# a word entry is a node index, or a diagram automorphism given as an
# image tuple (perm[i] = image of node i, perm[0] unused)
WordEntry = Union[int, tuple[int, ...]]


class RankOutOfRange(QAffineError):
    """Type letter or rank outside the legal range."""


def _chain_edges(rank: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, rank)]


def dynkin_edges(letter: str, rank: int) -> list[tuple[int, int]]:
    """Edges of the ADE diagram in Bourbaki labels (E: branch node 2 on 4)."""
    if letter == "A":
        return _chain_edges(rank)
    if letter == "D":
        if rank < 3:
            raise RankOutOfRange("D rank must be >= 3")
        return _chain_edges(rank - 1) + [(rank - 2, rank)]
    if letter == "E":
        if rank not in (6, 7, 8):
            raise RankOutOfRange("E rank must be 6, 7 or 8")
        chain = [(1, 3)] + [(i, i + 1) for i in range(3, rank)]
        return chain + [(2, 4)]
    raise RankOutOfRange(f"unknown simply-laced letter {letter!r}")


def diagram_adj(letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists of the ADE diagram (index 0 unused)."""
    adj: list[list[int]] = [[] for _ in range(rank + 1)]
    for a, b in dynkin_edges(letter, rank):
        adj[a].append(b)
        adj[b].append(a)
    return tuple(tuple(x) for x in adj)


def graph_distance(adj: Sequence[Sequence[int]], i: int, j: int) -> int:
    """BFS distance between nodes of a Dynkin diagram."""
    if i == j:
        return 0
    seen = {i}
    frontier = [i]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v == j:
                    return dist
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    raise ValueError(f"nodes {i} and {j} are not connected")


class FinRootSystem:
    """An ADE root system of given rank, all data exact and immutable."""

    def __init__(self, letter: str, rank: int):
        self.letter = letter
        self.rank = rank
        self.edges = dynkin_edges(letter, rank)
        self.adj = diagram_adj(letter, rank)
        cartan = [[0] * (rank + 1) for _ in range(rank + 1)]
        for i in range(1, rank + 1):
            cartan[i][i] = 2
        for a, b in self.edges:
            cartan[a][b] = cartan[b][a] = -1
        self.cartan = tuple(tuple(row[1:]) for row in cartan[1:])
        self.positive_roots = self._enumerate_positive_roots()
        self._positive_set = frozenset(self.positive_roots)

    def __repr__(self) -> str:
        return f"FinRootSystem({self.letter}{self.rank})"

    @property
    def type_name(self) -> str:
        return f"{self.letter}{self.rank}"

    def simple_root(self, i: int) -> Vec:
        return tuple(1 if k == i else 0 for k in range(1, self.rank + 1))

    def _enumerate_positive_roots(self) -> tuple[Vec, ...]:
        """The simple roots in node order, then the rest by (height, v) (see the module docstring)."""
        cartan = self.cartan
        layer = {self.simple_root(i): cartan[i - 1] for i in range(1, self.rank + 1)}
        out = list(layer)
        while layer:
            nxt: dict[Vec, Vec] = {}
            for v, row in layer.items():
                for i, x in enumerate(row):
                    if x == -1:
                        w = v[:i] + (v[i] + 1,) + v[i + 1:]
                        if w not in nxt:
                            nxt[w] = tuple(map(add, row, cartan[i]))
            layer = dict(sorted(nxt.items()))
            out += layer
        return tuple(out)

    def is_positive_root(self, v: Vec) -> bool:
        return v in self._positive_set

    def istar(self, i: int) -> int:
        """The involution alpha_{i*} = -w0(alpha_i)."""
        if self.letter == "A":
            return self.rank + 1 - i
        if self.letter == "D" and self.rank % 2 == 1 and i >= self.rank - 1:
            return 2 * self.rank - 1 - i
        if self.letter == "E" and self.rank == 6:
            return {1: 6, 6: 1, 3: 5, 5: 3}.get(i, i)
        return i


def identity_perm(rank: int) -> tuple[int, ...]:
    return tuple(range(rank + 1))


def perm_from_map(rank: int, mapping: dict[int, int]) -> tuple[int, ...]:
    return tuple(mapping.get(i, i) for i in range(rank + 1))


def compile_word(rs: FinRootSystem, word: Iterable[WordEntry]) -> list:
    """The word as int steps in acting order (rightmost first), the library's one word action on root
    coordinates: simply laced, s_i changes only c_i -> sum_{j~i} c_j - c_i, so its step is (i - 1, its
    neighbours' indices); an automorphism, alpha_i -> alpha_{perm(i)}, is the list of the index each
    coordinate is taken from."""
    return [(e - 1, tuple(j - 1 for j in rs.adj[e])) if isinstance(e, int)
            else [e.index(k) - 1 for k in range(1, len(e))] for e in reversed(tuple(word))]


def run_word(steps: list, v: Vec) -> Vec:
    """Apply the steps of `compile_word` to root coordinates."""
    out = list(v)
    for step in steps:
        if type(step) is list:
            out = [out[k] for k in step]
        else:
            i, nbrs = step
            c = -out[i]
            for j in nbrs:
                c += out[j]
            out[i] = c
    return tuple(out)


def apply_word_root(rs: FinRootSystem, word: Iterable[WordEntry], v: Vec) -> Vec:
    """Apply a word in W_fin x Aut right-to-left (rightmost entry acts first): compiled, then run."""
    return run_word(compile_word(rs, word), v)


@lru_cache(maxsize=None)
def root_system(letter: str, rank: int) -> FinRootSystem:
    """The shared root system of a finite type; unbounded; the library asks for at most 128 types."""
    return FinRootSystem(letter, rank)
