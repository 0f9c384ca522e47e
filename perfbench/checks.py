"""Output checks that do not use the code under test.

Every expected value comes from a closed form or from the generator's own
bookkeeping: the perfect-member count n(n+1)/2 + m(2n-m-1)/2, the chain
skeleton size n - m, the number of subsets 2^k of a k-edge critical set,
and so on.  A check returns the list of mismatches; empty means correct.
"""
from __future__ import annotations

from .gen import perfect_count

BUDGET = 2**20  # the CLI's default --budget
SAMPLED_MIN = 10_000  # random subsets the sampled verification must test


def _edge_lines(document: str) -> int:
    """Number of edge lines in a document's EDGES section."""
    count, inside = 0, False
    for line in document.splitlines():
        word = line.strip()
        if word in ("NODES", "EDGES", "CONTROLS", "CHAINS", "TIMES"):
            inside = word == "EDGES"
        elif inside and word:
            count += 1
    return count


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_zfs(data: dict, n: int, m: int) -> list[str]:
    p: list[str] = []
    _expect(p, "zfs", data.get("zfs"), True)
    _expect(p, "derived size", len(data.get("derived", ())), n)
    _expect(p, "forces", len(data.get("forces", ())), n - m)
    _expect(p, "chains", len(data.get("chains", ())), m)
    return p


def check_stalled(data: dict, stalled: frozenset[str]) -> list[str]:
    p: list[str] = []
    _expect(p, "zfs", data.get("zfs"), False)
    _expect(p, "stalled white", frozenset(data.get("stalled_white", ())), stalled)
    return p


def check_robustness(
    data: dict, mode: str, n: int, m: int, edges: int, verify: bool
) -> list[str]:
    p: list[str] = []
    k = perfect_count(n, m) - edges if mode == "add" else edges - n + m
    _expect(p, "count", data.get("count"), k)
    _expect(p, "bound", data.get("bound"), k)
    _expect(p, "edge list", len(data.get("edges", ())), k)
    if not verify:
        _expect(p, "verification", "verification" in data, False)
        return p
    ver = data.get("verification") or {}
    _expect(p, "verification.passed", ver.get("passed"), True)
    exhaustive = 2**k <= BUDGET
    _expect(p, "verification.exhaustive", ver.get("exhaustive"), exhaustive)
    tested = ver.get("subsets_tested")
    if exhaustive:
        _expect(p, "verification.subsets_tested", tested, 2**k)
    elif not isinstance(tested, int) or tested < SAMPLED_MIN:
        p.append(f"verification.subsets_tested: got {tested!r}, want >= {SAMPLED_MIN}")
    return p


def check_schedules(data: dict, n: int, m: int, limit: int) -> list[str]:
    p: list[str] = []
    count = data.get("count")
    if not isinstance(count, int) or not 1 <= count <= limit:
        p.append(f"count: got {count!r}, want 1..{limit}")
    schedules = data.get("schedules", ())
    _expect(p, "schedules listed", len(schedules), count)
    bad = [i for i, s in enumerate(schedules) if len(s.get("forces", ())) != n - m]
    if bad:
        p.append(f"schedules {bad[:5]} do not have {n - m} forces")
    return p


def check_combine(
    data: dict,
    blocks: list[tuple[int, int, int]],
    sequence: list[int],
    inter: int,
) -> list[str]:
    """General mode: ``blocks`` holds (n, m, |E|) per block."""
    p: list[str] = []
    n = sum(b[0] for b in blocks)
    m = sum(b[1] for b in blocks)
    closed = perfect_count(n, m) - sum(perfect_count(bn, bm) for bn, bm, _ in blocks)
    _expect(p, "accepted", data.get("accepted"), True)
    _expect(p, "sequence", data.get("sequence"), sequence)
    _expect(p, "installed inter edges", data.get("installed_inter_edges"), inter)
    _expect(p, "max_inter_count", data.get("max_inter_count"), closed)
    _expect(p, "max_inter_bound", data.get("max_inter_bound"), closed)
    _expect(p, "max_inter listed", len(data.get("max_inter", ())), closed)
    _expect(
        p, "combined edges", _edge_lines(data.get("document", "")),
        sum(b[2] for b in blocks) + inter,
    )
    return p


def check_dag(data: dict, blocks: list[tuple[int, int]], sequence: list[int]) -> list[str]:
    """DAG mode: ``blocks`` holds (n, |E|) per block."""
    p: list[str] = []
    n = sum(b[0] for b in blocks)
    _expect(p, "sequence", data.get("sequence"), sequence)
    _expect(
        p, "combined edges", _edge_lines(data.get("document", "")),
        sum(b[1] for b in blocks) + n - 1,
    )
    return p


def check_oracle(data: dict, zfs: bool, trials: int, stalled: frozenset[str]) -> list[str]:
    p: list[str] = []
    _expect(p, "consistent", data.get("consistent"), True)
    _expect(p, "zfs", data.get("zfs"), zfs)
    _expect(p, "trials", data.get("trials"), trials)
    if zfs:
        _expect(p, "full_rank", data.get("full_rank"), trials)
    else:
        _expect(p, "stalled white", frozenset(data.get("stalled_white", ())), stalled)
    return p


def check_ltv(data: dict, n: int) -> list[str]:
    p: list[str] = []
    _expect(p, "consistent", data.get("consistent"), True)
    _expect(p, "controls cover sources", data.get("controls_cover_sources"), True)
    _expect(p, "nodes", data.get("nodes"), n)
    _expect(p, "gramian rank", data.get("gramian_rank"), n)
    return p
