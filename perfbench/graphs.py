"""Independent graph routines for checking domlab's outputs.

Nothing here imports domlab. A graph is ``(n, adj)`` with ``adj[v]`` the
neighbour bitmask of ``v``. Where domlab has a routine for the same
question, this module answers it by a different method (simplicial
elimination instead of maximum cardinality search, induced-path search
instead of twin/pendant pruning, per-edge BFS for girth, path counting for
cacti, Kirchhoff's determinant for spanning trees), so that one defect
cannot hide in both.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edge_count(adj) -> int:
    return sum(a.bit_count() for a in adj) // 2


# ---------------------------------------------------------------------------
# graph6 (one line per graph, n <= 62)


def graph6_encode(n: int, adj) -> str:
    out = [n]
    word = nbits = 0
    for v in range(1, n):
        for u in range(v):
            word = word << 1 | (adj[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                out.append(word)
                word = nbits = 0
    if nbits:
        out.append(word << (6 - nbits))
    return "".join(chr(63 + c) for c in out)


def graph6_decode(line: str) -> tuple[int, list[int]]:
    data = [ord(ch) - 63 for ch in line.strip().removeprefix(">>graph6<<")]
    n = data[0]
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 order {n} outside 1..62")
    adj = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            if data[1 + k // 6] >> (5 - k % 6) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    return n, adj


# ---------------------------------------------------------------------------
# distances and domination predicates


def bfs(adj, src: int, allowed: int) -> dict[int, int]:
    """Distances from ``src`` inside the vertex mask ``allowed``."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in bits(adj[v] & allowed):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_connected(n: int, adj, mask: int | None = None) -> bool:
    mask = (1 << n) - 1 if mask is None else mask
    if mask == 0:
        return False
    return len(bfs(adj, (mask & -mask).bit_length() - 1, mask)) == mask.bit_count()


def dominates(n: int, adj, x: int) -> bool:
    covered = x
    for v in bits(x):
        covered |= adj[v]
    return x != 0 and covered == (1 << n) - 1


def is_connected_dominating(n: int, adj, x: int) -> bool:
    return dominates(n, adj, x) and is_connected(n, adj, x)


def is_wcon_dominating(n: int, adj, x: int) -> bool:
    """Dominating, and distances inside G[X] equal distances in G."""
    if not dominates(n, adj, x):
        return False
    full = (1 << n) - 1
    for a in bits(x):
        inside = bfs(adj, a, x)
        whole = bfs(adj, a, full)
        if any(inside.get(b) != whole[b] for b in bits(x)):
            return False
    return True


# ---------------------------------------------------------------------------
# spanning-tree count (matrix-tree theorem, exact integers)


def determinant(matrix: list[list[int]]) -> int:
    """Bareiss fraction-free elimination: every division is exact."""
    m = [row[:] for row in matrix]
    k = len(m)
    sign, prev = 1, 1
    for i in range(k - 1):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if m[r][i] != 0), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[k - 1][k - 1] if k else 1


def spanning_tree_count(n: int, adj) -> int:
    laplacian_minor = [
        [adj[i].bit_count() if i == j else -(adj[i] >> j & 1) for j in range(n - 1)]
        for i in range(n - 1)
    ]
    return determinant(laplacian_minor)


# ---------------------------------------------------------------------------
# class membership, as the harness scopes its theorems


def girth(n: int, adj):
    """Shortest cycle via, for each edge uv, the u-v distance in G - uv."""
    best = None
    full = (1 << n) - 1
    for u in range(n):
        for v in bits(adj[u] >> (u + 1) << (u + 1)):
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            d = bfs(adj, u, full).get(v)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            if d is not None and (best is None or d + 1 < best):
                best = d + 1
    return best


def _paths_between(adj, u: int, v: int, avoid_edge: tuple[int, int], limit: int) -> int:
    """Number of simple u-v paths that avoid one edge, counted up to ``limit``."""
    found = 0

    def walk(x: int, seen: int) -> None:
        nonlocal found
        for w in bits(adj[x] & ~seen):
            if found >= limit:
                return
            if {x, w} == set(avoid_edge):
                continue
            if w == v:
                found += 1
            else:
                walk(w, seen | 1 << w)

    walk(u, 1 << u)
    return found


def is_cactus(n: int, adj) -> bool:
    """Every edge lies on at most one cycle."""
    for u in range(n):
        for v in bits(adj[u] >> (u + 1) << (u + 1)):
            if _paths_between(adj, u, v, (u, v), 2) > 1:
                return False
    return True


def is_chordal(n: int, adj) -> bool:
    """Repeatedly delete a simplicial vertex; chordal iff all get deleted."""
    alive = (1 << n) - 1
    while alive:
        for v in bits(alive):
            nbrs = adj[v] & alive
            if all(nbrs & ~adj[w] & ~(1 << w) == 0 for w in bits(nbrs)):
                alive &= ~(1 << v)
                break
        else:
            return False
    return True


def is_distance_hereditary(n: int, adj) -> bool:
    """Every induced path is a shortest path (Howorka's definition)."""
    full = (1 << n) - 1
    dist = [bfs(adj, s, full) for s in range(n)]

    def extend(start: int, last: int, members: int, length: int) -> bool:
        for w in bits(adj[last] & ~members):
            if adj[w] & members & ~(1 << last):
                continue  # w would add a chord
            if length + 1 > dist[start][w]:
                return False
            if not extend(start, w, members | 1 << w, length + 1):
                return False
        return True

    return all(extend(s, s, 1 << s, 0) for s in range(n))


def _induces_h_star(adj, s: int) -> bool:
    """G[s] is the gem (P4 a-b-c-d plus a vertex joined to all four) with
    a pendant on each of a, b, c, d: 9 vertices, 11 edges."""
    deg = {v: (adj[v] & s).bit_count() for v in bits(s)}
    if s.bit_count() != 9 or sum(deg.values()) != 22:
        return False
    leaves = [v for v in deg if deg[v] == 1]
    if len(leaves) != 4:
        return False
    supports = 0
    for v in leaves:
        supports |= adj[v] & s
    core = s & ~sum(1 << v for v in leaves)
    if supports.bit_count() != 4 or supports & ~core:
        return False
    hub = core & ~supports
    hub_v = hub.bit_length() - 1
    inner = sorted((adj[v] & supports).bit_count() for v in bits(supports))
    return adj[hub_v] & supports == supports and inner == [1, 1, 2, 2]


def is_h_star_free(n: int, adj) -> bool:
    return not any(
        _induces_h_star(adj, sum(1 << v for v in combo))
        for combo in combinations(range(n), 9)
    )


def is_complete(n: int, adj) -> bool:
    return edge_count(adj) == n * (n - 1) // 2


def cycle_has_chord(adj, cycle) -> bool:
    members = sum(1 << v for v in cycle)
    return any((adj[v] & members).bit_count() > 2 for v in cycle)


def h_star_edges() -> list[tuple[int, int]]:
    """The obstruction as the paper draws it: 5-cycle A-B-C-D-E, chords
    A-D and B-D, pendants on A, B, C and E."""
    return [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3), (1, 3),
            (0, 5), (1, 6), (2, 7), (4, 8)]
