"""Frozen, seeded input generator for the benchmark.

Everything here uses only the standard library's ``random.Random`` seeded
from a string, so the same ``(workload, seed, label)`` always produces the
same bytes, whatever numpy version is installed and whatever the library
under test does to its own generators.  Nothing here imports ssc_toolkit.

A *family* is a chain partition of nodes ``1..n`` into ``m`` chains plus a
time function (sources at time 1, the other nodes at distinct times
``2..n-m+1`` increasing along each chain).  Its members contain every chain
edge and any subset of the admissible pairs ``(u, v)`` with
``tmax(u) >= t(v)``, where ``tmax`` is the successor's time minus one (the
last time ``n-m+1`` for sinks).
"""
from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass


def rng_for(*label) -> random.Random:
    """An independent stream per input, so adding one input moves no other."""
    return random.Random("/".join(str(x) for x in label))


def perfect_count(n: int, m: int) -> int:
    """Edge count of a family's maximal member: n(n+1)/2 + m(2n-m-1)/2."""
    return (n * (n + 1) + m * (2 * n - m - 1)) // 2


@dataclass(frozen=True)
class Family:
    n: int
    chains: tuple[tuple[int, ...], ...]
    times: dict

    @property
    def m(self) -> int:
        return len(self.chains)

    @property
    def gamma(self) -> int:
        return self.n - self.m + 1

    @property
    def sources(self) -> list[int]:
        return sorted(c[0] for c in self.chains)

    @property
    def chain_edges(self) -> list[tuple[int, int]]:
        return [(a, b) for c in self.chains for a, b in zip(c, c[1:])]

    def tmax(self) -> dict:
        out = {}
        for c in self.chains:
            for a, b in zip(c, c[1:]):
                out[a] = self.times[b] - 1
            out[c[-1]] = self.gamma
        return out

    def admissible_rows(self) -> list[tuple[int, list[int]]]:
        """Per source node u, the nodes v with t(v) <= tmax(u), by time.

        Self-loops are included; chain edges never are, because a chain
        successor's time is exactly tmax(u) + 1.
        """
        by_time = sorted(range(1, self.n + 1), key=lambda v: (self.times[v], v))
        stamps = [self.times[v] for v in by_time]
        tmax = self.tmax()
        rows = []
        for u in range(1, self.n + 1):
            k = bisect.bisect_right(stamps, tmax[u])
            rows.append((u, by_time[:k]))
        return rows


def family(rng: random.Random, n: int, m: int) -> Family:
    """Random partition of 1..n into m nonempty chains, random valid times."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n} m={m}")
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    cuts = sorted(rng.sample(range(1, n), m - 1))
    bounds = [0, *cuts, n]
    chains = tuple(tuple(perm[a:b]) for a, b in zip(bounds, bounds[1:]))
    slots = [i for i, c in enumerate(chains) for _ in c[1:]]
    rng.shuffle(slots)
    times = {c[0]: 1 for c in chains}
    progress = [1] * m
    for step, i in enumerate(slots):
        times[chains[i][progress[i]]] = step + 2
        progress[i] += 1
    fam = Family(n, chains, times)
    total = len(fam.chain_edges) + sum(len(vs) for _, vs in fam.admissible_rows())
    if total != perfect_count(n, m):  # generator self-check, not the program's
        raise AssertionError(f"family n={n} m={m} admits {total} edges")
    return fam


def _bernoulli_indices(rng: random.Random, size: int, p: float):
    """Indices in range(size) each kept with probability p, 0 < p < 1
    (geometric skips for small p)."""
    if p >= 0.25:
        for i in range(size):
            if rng.random() < p:
                yield i
        return
    log_q = math.log1p(-p)
    i = -1
    while True:
        i += int(math.log(1.0 - rng.random()) / log_q) + 1
        if i >= size:
            return
        yield i


def member(rng: random.Random, fam: Family, p: float) -> list[tuple[int, int]]:
    """Chain edges plus each admissible pair independently with probability p."""
    edges = list(fam.chain_edges)
    for u, vs in fam.admissible_rows():
        edges.extend((u, vs[i]) for i in _bernoulli_indices(rng, len(vs), p))
    return edges


def optional_pairs(fam: Family) -> list[tuple[int, int]]:
    return [(u, v) for u, vs in fam.admissible_rows() for v in vs]


def dag(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Random DAG on 1..n: a hidden random order, each forward pair with prob p."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = []
    for i in range(n - 1):
        rest = n - i - 1
        edges.extend((order[i], order[i + 1 + j]) for j in _bernoulli_indices(rng, rest, p))
    return edges


def network_text(
    n: int,
    edges,
    controls,
    fam: Family | None = None,
    prefix: str = "v",
) -> str:
    name = lambda v: f"{prefix}{v}"
    lines = ["NODES", " ".join(name(v) for v in range(1, n + 1)), "EDGES"]
    lines.extend(f"{name(u)} {name(v)}" for u, v in sorted(edges))
    if controls:
        lines += ["CONTROLS", " ".join(name(v) for v in sorted(controls))]
    if fam is not None:
        lines.append("CHAINS")
        lines.extend(" ".join(name(v) for v in c) for c in fam.chains)
        lines.append("TIMES")
        lines.extend(f"{name(v)} {fam.times[v]}" for v in range(1, n + 1))
    return "\n".join(lines) + "\n"


# -- networks of networks -------------------------------------------------


def merged_clock(blocks: list[Family], seq: list[int]) -> tuple[list[dict], list[dict]]:
    """Global times and tmax per block for a general-mode layout ``seq``.

    The j-th occurrence of block i (at 1-based position k) re-stamps the
    node that block i forced at local time j + 1 with global time k + 1;
    sources keep time 1.
    """
    gamma = len(seq) + 1
    times = []
    for i, fam in enumerate(blocks):
        by_local = {t: v for v, t in fam.times.items() if t > 1}
        glob = {v: 1 for v in fam.sources}
        j = 0
        for k, entry in enumerate(seq, start=1):
            if entry == i:
                j += 1
                glob[by_local[j + 1]] = k + 1
        times.append(glob)
    tmaxes = []
    for fam, glob in zip(blocks, times):
        tm = {}
        for c in fam.chains:
            for a, b in zip(c, c[1:]):
                tm[a] = glob[b] - 1
            tm[c[-1]] = gamma
        tmaxes.append(tm)
    return times, tmaxes


def admissible_inter_edges(
    rng: random.Random, blocks: list[Family], seq: list[int], count: int
) -> list[tuple[int, int, int, int]]:
    """Up to ``count`` distinct admissible cross-block edges, as
    (block_u, u, block_v, v) with 0-based blocks, by rejection sampling."""
    times, tmaxes = merged_clock(blocks, seq)
    chosen: set = set()
    for _ in range(count * 50):
        if len(chosen) >= count:
            break
        a, b = rng.sample(range(len(blocks)), 2)
        u = rng.randint(1, blocks[a].n)
        v = rng.randint(1, blocks[b].n)
        if tmaxes[a][u] >= times[b][v]:
            chosen.add((a, u, b, v))
    return sorted(chosen)


def shuffled_sequence(rng: random.Random, counts: list[int]) -> list[int]:
    seq = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(seq)
    return seq


def alternating_sequence(rng: random.Random, size: int) -> list[int]:
    """A dag-mode layout of two equal blocks (no equal neighbours), starting
    from a random block."""
    first = rng.randrange(2)
    return [(first + i) % 2 for i in range(2 * size)]


def schedule_text(rng: random.Random, fam: Family, pieces: int, p: float = 0.5) -> str:
    """Piecewise LTV schedule: breakpoints from 0 and, per piece, a random
    subset of the family's admissible optional edges."""
    bps = [0.0]
    for _ in range(pieces):
        bps.append(round(bps[-1] + rng.uniform(0.3, 1.2), 6))
    opts = optional_pairs(fam)
    lines = ["BREAKPOINTS", " ".join(repr(b) for b in bps)]
    for _ in range(pieces):
        lines.append("INTERVAL")
        lines.extend(f"v{u} v{v}" for u, v in opts if rng.random() < p)
    return "\n".join(lines) + "\n"
