"""Left-right planarity test (decision only).

Implements the path-addition planarity criterion of de Fraysseix and de
Mendez in Brandes' left-right formulation: orient the graph by DFS, sort
out-edges by nesting depth, then check that the back edges admit a
consistent left/right partition using a stack of conflict pairs.  Both DFS
passes are iterative, so edge sets of any size are handled without
touching the interpreter recursion limit.

Everything is kept in flat lists.  Vertices are renumbered ``0..nv-1`` in
first-seen order and edges by their position in the input.  Each per-edge
table (orientation ``src``/``dst``, ``lowpt``, ``lowpt2``, ``nesting``,
``lowpt_edge``, ``ref``, the stack bottom) is a list indexed by edge id;
``height`` and the parent edge are lists indexed by vertex id.  ``-1``
stands for "none": the parent edge of a root, an end of an empty
interval, an unset ``ref``.  A conflict pair is one list ``[left.low,
left.high, right.low, right.high]``.  It is swapped and trimmed in place,
so a stack bottom (the pair that was on top when an edge was started) can
still be compared by identity.  ``ref`` has one spare slot at the end:
the algorithm may set the ``ref`` of an empty interval end, and that
write lands at index -1, where no read looks.  Each DFS keeps an iterator
over the edges of every vertex on its path; lowpoints and nesting depths
are settled between the two, children before parents.

Only the boolean answer is produced; no embedding is constructed.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence


def _check(edges: Sequence[Sequence[Hashable]]) -> None:
    """Raise ``ValueError`` unless ``edges`` is a simple undirected edge
    list: every edge has two endpoints, no edge is a self-loop and no two
    edges join the same pair."""
    seen = set()
    for e in edges:
        try:
            u, v = e[0], e[1]
        except (IndexError, TypeError):
            raise ValueError(
                f"edge {e!r} is not a sequence of two endpoints") from None
        if u == v:
            raise ValueError(f"self-loop at vertex {u!r}")
        if (u, v) in seen or (v, u) in seen:
            raise ValueError(f"parallel edge between {u!r} and {v!r}")
        seen.add((u, v))


def _index(edges: Sequence[Sequence[Hashable]]):
    """Number an edge list that :func:`_check` accepts.

    Returns ``(tips, adj)``: the XOR of the two vertex ids of each edge,
    so that ``tips[x] ^ v`` is the end of edge x other than v, and the ids
    of the edges at each vertex, in input order.
    """
    ids: dict = {}
    tips = []
    adj: list[list[int]] = []
    for x, e in enumerate(edges):
        u, v = e[0], e[1]
        a = ids.get(u)
        if a is None:
            a = ids[u] = len(adj)
            adj.append([x])
        else:
            adj[a].append(x)
        b = ids.get(v)
        if b is None:
            b = ids[v] = len(adj)
            adj.append([x])
        else:
            adj[b].append(x)
        tips.append(a ^ b)
    return tips, adj


def planarity_check(edges: Iterable[Sequence[Hashable]]) -> bool:
    """True iff the graph consisting of exactly these edges is planar.

    ``edges`` is a simple undirected edge list; self-loops and parallel
    edges are rejected, and so is an edge with fewer than two endpoints
    (fields past the second are ignored).  Vertices are whatever hashable
    endpoints the edges mention, so isolated vertices never enter the
    picture (they cannot affect planarity).
    """
    edges = list(edges)
    _check(edges)
    return _is_planar(edges)


def _is_planar(edges: Sequence[Sequence[Hashable]]) -> bool:
    """:func:`planarity_check` of an edge list that :func:`_check`
    already accepted, such as a part of a planarity system's edges."""
    tips, adj = _index(edges)
    m = len(tips)
    nv = len(adj)
    if not m:
        return True
    if nv > 2 and m > 3 * nv - 6:
        return False

    # First DFS: orient every edge away from the root and list the
    # vertices in discovery order.
    height = [-1] * nv
    parent = [-1] * nv
    src = [-1] * m
    dst = [-1] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    out: list[list[int]] = [[] for _ in range(nv)]
    order = []
    for root in range(nv):
        if height[root] >= 0:
            continue
        height[root] = 0
        order.append(root)
        dfs = [(root, iter(adj[root]))]
        while dfs:
            v, todo = dfs[-1]
            hv = height[v]
            for x in todo:
                if src[x] >= 0:
                    continue  # oriented from its other end already
                w = tips[x] ^ v
                src[x] = v
                dst[x] = w
                out[v].append(x)
                lowpt2[x] = hv
                if height[w] < 0:
                    # tree edge: descend into w
                    lowpt[x] = hv
                    parent[w] = x
                    height[w] = hv + 1
                    order.append(w)
                    dfs.append((w, iter(adj[w])))
                    break
                lowpt[x] = height[w]
            else:
                dfs.pop()

    # Lowpoints and nesting depths, children before parents; then sort
    # each vertex's out-edges by nesting depth.
    nesting = [0] * m
    for v in reversed(order):
        e = parent[v]
        hv = height[v]
        edges_out = out[v]
        for x in edges_out:
            lx = lowpt[x]
            nesting[x] = 2 * lx + (lowpt2[x] < hv)
            if e >= 0:
                le = lowpt[e]
                if lx < le:
                    lowpt2[e] = le if le < lowpt2[x] else lowpt2[x]
                    lowpt[e] = lx
                elif lx > le:
                    if lx < lowpt2[e]:
                        lowpt2[e] = lx
                elif lowpt2[x] < lowpt2[e]:
                    lowpt2[e] = lowpt2[x]
        edges_out.sort(key=nesting.__getitem__)

    # Second DFS: visit out-edges by nesting depth and keep the conflict
    # pairs of the back edges seen so far.
    stack: list[list[int]] = []
    bottom: list = [None] * m
    lowpt_edge = [-1] * m
    ref = [-1] * (m + 1)

    def add_constraints(ei, e):
        """Fold the return edges of ``ei``, an out-edge of the head of
        ``e``, into the stack; False when they cannot be placed."""
        merged = [-1, -1, -1, -1]
        stop = bottom[ei]
        low_e = lowpt[e]
        # merge return edges of ei into the right interval
        while True:
            q = stack.pop()
            if q[0] != -1 or q[1] != -1:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if q[0] != -1 or q[1] != -1:
                    return False
            if lowpt[q[2]] > low_e:
                if merged[2] == -1 and merged[3] == -1:
                    merged[3] = q[3]
                else:
                    ref[merged[2]] = q[3]
                merged[2] = q[2]
            else:
                # all of q returns to lowpt(e): align with the parent chain
                ref[q[2]] = lowpt_edge[e]
            if (stack[-1] if stack else None) is stop:
                break
        # merge conflicting return edges of earlier siblings into the left
        low_i = lowpt[ei]
        while True:
            q = stack[-1]
            if not ((q[0] != -1 or q[1] != -1) and lowpt[q[1]] > low_i
                    or (q[2] != -1 or q[3] != -1) and lowpt[q[3]] > low_i):
                break
            stack.pop()
            if (q[2] != -1 or q[3] != -1) and lowpt[q[3]] > low_i:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if (q[2] != -1 or q[3] != -1) and lowpt[q[3]] > low_i:
                    return False
            ref[merged[2]] = q[3]
            if q[2] != -1:
                merged[2] = q[2]
            if merged[0] == -1 and merged[1] == -1:
                merged[1] = q[1]
            else:
                ref[merged[0]] = q[1]
            merged[0] = q[0]
        if merged != [-1, -1, -1, -1]:
            stack.append(merged)
        return True

    def trim_back_edges(e):
        """Drop back edges that return to the tail of ``e``."""
        u = src[e]
        height_u = height[u]
        while stack:
            q = stack[-1]
            if q[0] == -1 and q[1] == -1:
                lowest = lowpt[q[2]]
            elif q[2] == -1 and q[3] == -1:
                lowest = lowpt[q[0]]
            else:
                lowest = min(lowpt[q[0]], lowpt[q[2]])
            if lowest != height_u:
                break
            stack.pop()
        if stack:
            q = stack[-1]
            while q[1] != -1 and dst[q[1]] == u:
                q[1] = ref[q[1]]
            if q[1] == -1 and q[0] != -1:
                ref[q[0]] = q[2]
                q[0] = -1
            while q[3] != -1 and dst[q[3]] == u:
                q[3] = ref[q[3]]
            if q[3] == -1 and q[2] != -1:
                ref[q[2]] = q[0]
                q[2] = -1

    for root in order:
        if parent[root] >= 0:
            continue
        dfs = [(root, iter(out[root]))]
        while dfs:
            v, todo = dfs[-1]
            e = parent[v]
            for x in todo:
                bottom[x] = stack[-1] if stack else None
                w = dst[x]
                if parent[w] == x:
                    # tree edge: process the subtree first
                    dfs.append((w, iter(out[w])))
                    break
                lowpt_edge[x] = x
                stack.append([-1, -1, x, x])
                if lowpt[x] < height[v]:
                    # x returns below v
                    if x == out[v][0]:
                        lowpt_edge[e] = x
                    elif not add_constraints(x, e):
                        return False
            else:
                dfs.pop()
                if e < 0:
                    continue
                trim_back_edges(e)
                u = src[e]
                if lowpt[e] < height[u]:
                    # the subtree of e returns below u
                    if e == out[u][0]:
                        lowpt_edge[parent[u]] = lowpt_edge[e]
                    elif not add_constraints(e, parent[u]):
                        return False
    return True
