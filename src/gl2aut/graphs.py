"""Quotient graphs of the tree action, with stabilizer descriptors.

The quotient of the Bruhat-Tits tree by the unit group of an elliptic
coordinate ring is a finite core with one infinite valency-2 ray per cusp.
This module models such graphs with vertices, edges and ray markers (one
marker per cusp recording where the infinite ray was truncated), provides
hardcoded builders for the two F_2 elliptic examples, checks the
core-plus-rays structure, and exports DOT and JSON.

Stabilizers are recorded as abstract descriptors, not matrix groups: the
quotient graph only knows each stabilizer up to conjugacy, so the order and
shape (full matrix group over the constants, cyclic of order q^2-1, vector
group of a given dimension, or trivial) is all the graph can carry.

The tree is regular of valency q + 1.  At a lift of a vertex v, the tree
edges over one quotient edge e form a single G_v-orbit of |G_v|/|G_e|
edges, so these ratios sum to q + 1 over the edges at v (Serre, Trees,
ch. I; Bass, J. Pure Appl. Algebra 89, 1993).  `validate_graph` checks
this local count at every vertex except the ray cuts, which have lost
their onward edge.  On the infinity ray of the examples it fixes the
dimensions: c(inf,n) carries a unipotent group of dimension n, and the
edge c(inf,n-1)-c(inf,n) one of dimension n-1, as on every other ray.
"""

from __future__ import annotations

import json
import re

from .closure import closure
from .ffield import brief, prime_power
from .record import Record

# ---------------------------------------------------------------------------
# stabilizer descriptors

# kind -> printed name
_STAB_NAMES = {"trivial": "Trivial", "gl2": "GL2", "cyclic": "CyclicQsqMinus1",
               "unipotent": "UnipotentDim"}


class StabDescriptor(Record):
    """Conjugacy-class label for a vertex or edge stabilizer.

    kinds: "trivial" (order 1); "gl2" (all invertible constant matrices,
    order (q^2-1)(q^2-q)); "cyclic" (order q^2-1, the unit group of the
    quadratic extension); "unipotent" (vector group of dimension dim over
    F_q, order q^dim).
    """

    __slots__ = ("kind", "q", "dim")

    def __init__(self, kind: str, q: int = 0, dim: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "dim", dim)
        if kind not in _STAB_NAMES:
            raise ValueError(f"unknown stabilizer kind {brief(kind)}")
        if kind == "trivial":
            if q != 0 or dim != 0:
                raise ValueError("the trivial descriptor takes no parameters")
            return
        prime_power(q)
        if kind == "unipotent":
            if dim < 1:
                raise ValueError("dimension must be at least 1")
        elif dim != 0:
            raise ValueError(f"{kind} takes no dimension")

    def order(self) -> int:
        q = self.q
        if self.kind == "trivial":
            return 1
        if self.kind == "gl2":
            return (q * q - 1) * (q * q - q)
        if self.kind == "cyclic":
            return q * q - 1
        return q ** self.dim

    def text(self) -> str:
        name = _STAB_NAMES[self.kind]
        if self.kind == "trivial":
            return name
        if self.kind == "unipotent":
            return f"{name}(q={self.q},n={self.dim})"
        return f"{name}(q={self.q})"


def stab_trivial() -> StabDescriptor:
    return StabDescriptor("trivial")


def stab_gl2(q: int) -> StabDescriptor:
    return StabDescriptor("gl2", q)


def stab_cyclic(q: int) -> StabDescriptor:
    return StabDescriptor("cyclic", q)


def stab_unipotent(q: int, dim: int) -> StabDescriptor:
    return StabDescriptor("unipotent", q, dim)


# ---------------------------------------------------------------------------
# graph data model


class Vertex(Record):
    __slots__ = ("id", "label", "stab")


class Edge(Record):
    __slots__ = ("u", "v", "stab")


class RayMarker(Record):
    """Truncation record for one infinite cusp ray: its label, how many ray
    vertices were kept, and the vertex where the graph was cut."""

    __slots__ = ("cusp", "depth", "at")


class QuotientGraph(Record):
    __slots__ = ("vertices", "edges", "rays")

    def __init__(self, vertices: tuple = (), edges: tuple = (), rays: tuple = ()):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "rays", rays)

    def adjacency(self) -> dict:
        adj: dict = {v.id: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        return adj


def validate_graph(g: QuotientGraph) -> None:
    """Structural checks: unique ids, real endpoints, edge stabilizer order
    dividing both endpoint orders, connectivity, markers at real vertices;
    then the local count: at each vertex that is not a ray cut, |G_v|/|G_e|
    summed over its edges is q + 1, the valency of the tree."""
    ids = [v.id for v in g.vertices]
    if len(set(ids)) != len(ids):
        raise ValueError("vertex ids are not unique")
    by_id = {v.id: v for v in g.vertices}
    for e in g.edges:
        if e.u not in by_id or e.v not in by_id:
            raise ValueError(f"edge {e} references a missing vertex")
        if e.u == e.v:
            raise ValueError(f"edge {e} is a loop")
        for end in (e.u, e.v):
            if by_id[end].stab.order() % e.stab.order() != 0:
                raise ValueError(
                    f"edge stabilizer {e.stab.text()} does not divide the "
                    f"stabilizer of vertex {end}")
    if g.vertices:
        adj = g.adjacency()
        if len(closure([ids[0]], adj.__getitem__)) != len(ids):
            raise ValueError("graph is not connected")
    cusps = [r.cusp for r in g.rays]
    if len(set(cusps)) != len(cusps):
        raise ValueError("duplicate ray markers")
    for r in g.rays:
        if r.at not in by_id:
            raise ValueError(f"ray marker {r.cusp!r} sits at a missing vertex")
        if r.depth < 1:
            raise ValueError("ray depth must be at least 1")
    if not g.vertices:
        return
    qs = {s.q for s in (*(v.stab for v in g.vertices), *(e.stab for e in g.edges))
          if s.kind != "trivial"}
    if len(qs) != 1:
        raise ValueError("the stabilizers must name exactly one field size q")
    valency = qs.pop() + 1
    count = dict.fromkeys(by_id, 0)
    for e in g.edges:
        for end in (e.u, e.v):
            count[end] += by_id[end].stab.order() // e.stab.order()
    cuts = {r.at for r in g.rays}
    for v in g.vertices:
        if v.id not in cuts and count[v.id] != valency:
            raise ValueError(
                f"local count at vertex {v.label}: the orbit sizes |G_v|/|G_e| "
                f"sum to {count[v.id]}, not the valency {valency}")


class SerreParts(Record):
    """Finite core plus one truncated valency-2 tail per cusp ray."""

    # rays: (cusp label, tuple of tail vertex ids from the cut inward)
    __slots__ = ("core", "rays")


def validate_serre(g: QuotientGraph) -> SerreParts:
    """Split the graph into a finite core and the truncated cusp rays.

    Each ray tail is the maximal chain walking inward from the marker vertex
    while vertices have valency at most 2; a marker vertex of valency >= 3,
    or two rays sharing a vertex, mean the graph has no valid decomposition.
    """
    validate_graph(g)
    adj = g.adjacency()
    tails = []
    claimed: dict = {}
    for marker in g.rays:
        chain = []
        cur, prev = marker.at, None
        if len(adj[cur]) > 2:
            raise ValueError(f"ray marker {marker.cusp!r} sits on a branch vertex")
        while len(adj[cur]) <= 2:
            chain.append(cur)
            nxt = [nb for nb in adj[cur] if nb != prev]
            if len(nxt) != 1:
                break
            prev, cur = cur, nxt[0]
            if len(adj[cur]) > 2:
                break
        # a flush cut leaves no tail: the marker vertex itself branches the core
        if chain and len(adj[chain[0]]) == 2 and len(chain) == 1:
            chain = []
        for vid in chain:
            if vid in claimed:
                raise ValueError(
                    f"rays {claimed[vid]!r} and {marker.cusp!r} overlap at vertex {vid}")
            claimed[vid] = marker.cusp
        tails.append((marker.cusp, tuple(chain)))
    tail_ids = set(claimed)
    core = tuple(sorted(v.id for v in g.vertices if v.id not in tail_ids))
    return SerreParts(core, tuple(tails))


def isolated_cyclic(g: QuotientGraph) -> tuple:
    """Terminal core vertices whose stabilizer is cyclic of order q^2-1.

    These are the spike vertices: each contributes one conjugacy class of
    maximal-finite cyclic subgroups, so their number matches the elliptic
    point count r of the underlying curve.
    """
    parts = validate_serre(g)
    tail_ids = {vid for _cusp, tail in parts.rays for vid in tail}
    adj = g.adjacency()
    return tuple(v for v in g.vertices
                 if v.id not in tail_ids
                 and len(adj[v.id]) == 1
                 and v.stab.kind == "cyclic")


# ---------------------------------------------------------------------------
# hardcoded builders for the two F_2 elliptic examples


# deepest ray truncation built; stabilizer orders grow like q^depth and
# validation takes one order per edge
_MAX_DEPTH = 1000


def _example_graph(depth: int, cusps_over_0: tuple) -> QuotientGraph:
    """Quotient graph for an elliptic curve over F_2 with no rational point
    over x = 1 and the given affine cusps (rational points) over x = 0.

    Vertex stabilizers: e(inf) is the full constant matrix group; v(inf) is
    one-dimensional unipotent; c(inf,n) is unipotent of dimension n; o is
    trivial; v(1) is cyclic of order 3; v(0) is cyclic of order 3 when no
    cusp lies over it and trivial otherwise, with one ray c(P,n) of
    dimension n per cusp P.  Edges touching c(inf,1) carry its
    one-dimensional stabilizer; edges touching o or v(0) are trivial;
    consecutive ray edges carry the smaller endpoint stabilizer, so the
    edge c(inf,n-1)-c(inf,n) has dimension n-1.  Every vertex but the cuts
    then meets the local count 3 = q + 1.  Each ray is truncated at the
    given depth with a marker.
    """
    if not 1 <= depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be between 1 and {_MAX_DEPTH}")
    q = 2
    vertices, edges, ids = [], [], {}

    def add_vertex(label, stab):
        ids[label] = len(vertices) + 1
        vertices.append(Vertex(ids[label], label, stab))

    def add_edge(a, b, stab):
        edges.append(Edge(ids[a], ids[b], stab))

    u1 = stab_unipotent(q, 1)
    add_vertex("e(inf)", stab_gl2(q))
    add_vertex("c(inf,1)", u1)
    add_edge("e(inf)", "c(inf,1)", u1)
    prev = "c(inf,1)"
    for n in range(2, depth + 1):
        label = f"c(inf,{n})"
        add_vertex(label, stab_unipotent(q, n))
        add_edge(prev, label, stab_unipotent(q, n - 1))
        prev = label
    rays = [RayMarker("inf", depth, ids[prev])]
    add_vertex("v(inf)", u1)
    add_edge("c(inf,1)", "v(inf)", u1)
    add_vertex("o", stab_trivial())
    add_edge("v(inf)", "o", stab_trivial())
    add_vertex("v(1)", stab_cyclic(q))
    add_edge("o", "v(1)", stab_trivial())
    add_vertex("v(0)", stab_trivial() if cusps_over_0 else stab_cyclic(q))
    add_edge("o", "v(0)", stab_trivial())
    for cusp in cusps_over_0:
        prev = "v(0)"
        for n in range(1, depth + 1):
            label = f"c({cusp},{n})"
            add_vertex(label, stab_unipotent(q, n))
            add_edge(prev, label, stab_unipotent(q, n - 1) if n > 1 else stab_trivial())
            prev = label
        rays.append(RayMarker(cusp, depth, ids[prev]))
    g = QuotientGraph(tuple(vertices), tuple(edges), tuple(rays))
    validate_graph(g)
    return g


def build_graph_ex3(depth: int = 3) -> QuotientGraph:
    """Quotient graph for the curve y^2 + y = x^3 over F_2 (three cusps:
    infinity, (0,0) and (0,1)), so v(1) is the one spike vertex."""
    return _example_graph(depth, ("(0,0)", "(0,1)"))


def build_graph_ex1(depth: int = 3) -> QuotientGraph:
    """Quotient graph for the curve y^2 + y = x^3 + x + 1 over F_2 (one cusp):
    no rational point lies over x = 0 or 1, so v(0) and v(1) are both spike
    vertices with cyclic stabilizer of order 3, and infinity has the only ray."""
    return _example_graph(depth, ())


def graph_by_name(name: str, depth: int = 3) -> QuotientGraph:
    builders = {"ex1": build_graph_ex1, "ex3": build_graph_ex3}
    if name not in builders:
        raise ValueError(f"unknown graph {brief(name)} (choose from {sorted(builders)})")
    return builders[name](depth)


# ---------------------------------------------------------------------------
# export


def export_json(g: QuotientGraph) -> str:
    doc = {
        "vertices": [{"id": v.id, "label": v.label, "stab": v.stab.text()}
                     for v in sorted(g.vertices, key=lambda v: v.id)],
        "edges": [{"u": e.u, "v": e.v, "stab": e.stab.text()} for e in g.edges],
        "rays": [{"cusp": r.cusp, "depth": r.depth, "at": r.at} for r in g.rays],
    }
    return json.dumps(doc, indent=2)


def export_dot(g: QuotientGraph) -> str:
    lines = ["graph quotient {"]
    for v in sorted(g.vertices, key=lambda v: v.id):
        lines.append(f'  v{v.id} [label="{v.label} | {v.stab.text()}"];')
    for e in g.edges:
        lines.append(f'  v{e.u} -- v{e.v} [label="{e.stab.text()}"];')
    for r in g.rays:
        marker = f"ray_{r.cusp}"
        marker = re.sub(r"[^0-9A-Za-z_]", "_", marker)
        lines.append(f'  {marker} [shape=none, label="... toward {r.cusp}"];')
        lines.append(f"  v{r.at} -- {marker} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
