import json

import pytest

import helpers
from gl2aut.graphs import (_MAX_DEPTH, Edge, QuotientGraph, RayMarker,
                           StabDescriptor, Vertex, build_graph_ex1, build_graph_ex3,
                           export_dot, export_json, graph_by_name,
                           isolated_cyclic, stab_cyclic, stab_gl2, stab_trivial,
                           stab_unipotent, validate_graph, validate_serre)


# ------------------------------------------------------------- descriptors

def test_stab_orders():
    assert stab_trivial().order() == 1
    assert stab_gl2(2).order() == 6
    assert stab_gl2(3).order() == 48
    assert stab_cyclic(2).order() == 3
    assert stab_cyclic(4).order() == 15
    assert stab_unipotent(2, 3).order() == 8


def test_stab_text_parse_roundtrip():
    descriptors = [stab_trivial(), stab_gl2(2), stab_cyclic(5),
                   stab_unipotent(2, 4)]
    for d in descriptors:
        assert helpers.parse_stab(d.text()) == d


def test_stab_validation():
    with pytest.raises(ValueError):
        stab_gl2(6)  # not a prime power
    with pytest.raises(ValueError):
        stab_unipotent(2, 0)  # dimension must be positive
    with pytest.raises(ValueError):
        StabDescriptor("btype", q=3, dim=1)  # no builder makes the triangular kind
    with pytest.raises(ValueError):
        StabDescriptor("cyclic", q=0)


# ------------------------------------------------------- built-in examples

def test_single_cusp_example_shape():
    g = build_graph_ex1()
    assert len(g.vertices) == 8
    validate_graph(g)
    labels = {v.label for v in g.vertices}
    assert {"e(inf)", "c(inf,1)", "v(inf)", "o", "v(1)", "v(0)"} <= labels
    parts = validate_serre(g)
    assert len(parts.rays) == 1
    assert parts.rays[0][0] == "inf"
    # two terminal vertices with full quadratic-torus stabilizer
    iso = isolated_cyclic(g)
    assert sorted(v.label for v in iso) == ["v(0)", "v(1)"]


def test_three_cusp_example_shape():
    g = build_graph_ex3(depth=3)
    assert len(g.vertices) == 14
    validate_graph(g)
    parts = validate_serre(g)
    assert len(parts.rays) == 3
    assert [r[0] for r in parts.rays] == ["inf", "(0,0)", "(0,1)"]
    assert [len(r[1]) for r in parts.rays] == [2, 3, 3]
    iso = isolated_cyclic(g)
    assert [v.label for v in iso] == ["v(1)"]
    # the core is independent of ray depth
    core_labels = {v.label for v in g.vertices if v.id in parts.core}
    assert core_labels == {"e(inf)", "c(inf,1)", "v(inf)", "o", "v(1)", "v(0)"}


@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_examples_validate_at_other_depths(depth):
    for name in ("ex1", "ex3"):
        g = graph_by_name(name, depth=depth)
        validate_graph(g)
        parts = validate_serre(g)
        core_labels = {v.label for v in g.vertices if v.id in parts.core}
        assert core_labels == {"e(inf)", "c(inf,1)", "v(inf)", "o", "v(1)",
                               "v(0)"}
        for cusp, tail in parts.rays:
            expected = depth - 1 if cusp == "inf" else depth
            assert len(tail) == expected


def test_examples_refuse_depths_past_the_limit():
    assert len(build_graph_ex3(_MAX_DEPTH).rays) == 3
    for depth in (0, _MAX_DEPTH + 1):
        for name in ("ex1", "ex3"):
            with pytest.raises(ValueError, match="depth must be between"):
                graph_by_name(name, depth=depth)


def test_graph_by_name_unknown():
    with pytest.raises(ValueError):
        graph_by_name("ex2")


def test_edge_stabilizer_divides_endpoints():
    for g in (build_graph_ex1(), build_graph_ex3()):
        stab = {v.id: v.stab for v in g.vertices}
        for e in g.edges:
            eu = stab[e.u].order()
            ev = stab[e.v].order()
            assert eu % e.stab.order() == 0
            assert ev % e.stab.order() == 0


def test_infinity_ray_stabilizer_growth():
    # unipotent dimensions grow strictly along the cusp direction
    g = build_graph_ex3(depth=5)
    by_label = {v.label: v for v in g.vertices}
    by_id = {v.id: v for v in g.vertices}
    dims = [by_label[f"c(inf,{n})"].stab.dim for n in range(1, 6)]
    assert dims == sorted(dims)
    # the local count 3 = q + 1 at c(inf,1) and c(inf,2) fixes these
    assert dims[0] == 1 and dims[1] == 2
    edge_dims = {(by_id[e.u].label, by_id[e.v].label): e.stab.dim for e in g.edges}
    assert [edge_dims[f"c(inf,{n - 1})", f"c(inf,{n})"] for n in range(2, 6)] == [1, 2, 3, 4]
    for name in ("(0,0)", "(0,1)"):
        dims = [by_label[f"c({name},{n})"].stab.dim for n in range(1, 6)]
        assert dims == [1, 2, 3, 4, 5]


# ----------------------------------------------------------- validation

def small_graph(**overrides):
    vertices = overrides.get("vertices", (
        Vertex(1, "x", stab_gl2(2)),
        Vertex(2, "y", stab_unipotent(2, 1)),
    ))
    edges = overrides.get("edges", (Edge(1, 2, stab_unipotent(2, 1)),))
    rays = overrides.get("rays", ())
    return QuotientGraph(vertices, edges, rays)


def test_validate_rejects_duplicate_ids():
    g = small_graph(vertices=(Vertex(1, "x", stab_gl2(2)),
                              Vertex(1, "y", stab_gl2(2))))
    with pytest.raises(ValueError):
        validate_graph(g)


def test_validate_rejects_dangling_edges():
    g = small_graph(edges=(Edge(1, 9, stab_trivial()),))
    with pytest.raises(ValueError):
        validate_graph(g)


def test_validate_rejects_loops():
    g = small_graph(edges=(Edge(1, 1, stab_trivial()),))
    with pytest.raises(ValueError):
        validate_graph(g)


def test_validate_rejects_nondividing_edge_stabilizer():
    g = small_graph(edges=(Edge(1, 2, stab_unipotent(2, 3)),))
    with pytest.raises(ValueError):
        validate_graph(g)


def test_validate_rejects_disconnected_graphs():
    g = small_graph(vertices=(Vertex(1, "x", stab_gl2(2)),
                              Vertex(2, "y", stab_gl2(2)),
                              Vertex(3, "z", stab_gl2(2))),
                    edges=(Edge(1, 2, stab_trivial()),))
    with pytest.raises(ValueError):
        validate_graph(g)


def test_validate_rejects_duplicate_cusp_markers():
    g = small_graph(rays=(RayMarker("inf", 1, 2), RayMarker("inf", 1, 2)))
    with pytest.raises(ValueError):
        validate_graph(g)


def test_serre_rejects_marker_at_branch_vertex():
    # three spikes meet the local count; the hub is the cut, so it is not counted
    vertices = (Vertex(1, "a", stab_cyclic(2)),
                Vertex(2, "hub", stab_gl2(2)),
                Vertex(3, "b", stab_cyclic(2)),
                Vertex(4, "c", stab_cyclic(2)))
    edges = (Edge(1, 2, stab_trivial()), Edge(2, 3, stab_trivial()),
             Edge(2, 4, stab_trivial()))
    g = QuotientGraph(vertices, edges, (RayMarker("inf", 1, 2),))
    validate_graph(g)
    with pytest.raises(ValueError, match="branch vertex"):
        validate_serre(g)


def test_serre_rejects_overlapping_tails():
    # a path a - b with markers on both ends would claim shared vertices
    vertices = (Vertex(1, "a", stab_gl2(2)),
                Vertex(2, "b", stab_gl2(2)))
    edges = (Edge(1, 2, stab_trivial()),)
    g = QuotientGraph(vertices, edges,
                      (RayMarker("p", 1, 1), RayMarker("r", 1, 2)))
    with pytest.raises(ValueError, match="overlap"):
        validate_serre(g)


# ------------------------------------------------------------ local count

def serre_half_line(depth):
    """G\\T for G = GL2(F_2[t]) (Serre, Trees, II.1.6), cut at v_depth:
    G_{v0} = GL2(F_2), G_{vn} = {(1, b; 0, 1) : deg b <= n} of dimension
    n + 1, and G_{v(n-1)} and G_{vn} meet in dimension n."""
    vertices = [Vertex(0, "v0", stab_gl2(2))]
    edges = []
    for n in range(1, depth + 1):
        vertices.append(Vertex(n, f"v{n}", stab_unipotent(2, n + 1)))
        edges.append(Edge(n - 1, n, stab_unipotent(2, n)))
    return QuotientGraph(tuple(vertices), tuple(edges), (RayMarker("inf", depth, depth),))


@pytest.mark.parametrize("depth", [1, 2, 5])
def test_serre_half_line_passes_the_local_count(depth):
    g = serre_half_line(depth)
    validate_graph(g)
    assert [cusp for cusp, _tail in validate_serre(g).rays] == ["inf"]


def _order_changes(stab):
    """Descriptors over F_2 whose order differs from stab's."""
    if stab.kind == "unipotent":
        return [stab_unipotent(2, stab.dim + 1),
                stab_unipotent(2, stab.dim - 1) if stab.dim > 1 else stab_trivial()]
    return {"trivial": [stab_unipotent(2, 1), stab_cyclic(2)],
            "gl2": [stab_cyclic(2), stab_unipotent(2, 1)],
            "cyclic": [stab_gl2(2), stab_trivial()]}[stab.kind]


def _with_stab(g, vertex=None, edge=None):
    """g with the stabilizer of one vertex or edge, given as (index, stab),
    replaced."""
    vertices, edges = list(g.vertices), list(g.edges)
    if vertex:
        i, stab = vertex
        vertices[i] = Vertex(vertices[i].id, vertices[i].label, stab)
    if edge:
        i, stab = edge
        edges[i] = Edge(edges[i].u, edges[i].v, stab)
    return QuotientGraph(tuple(vertices), tuple(edges), g.rays)


@pytest.mark.parametrize("name", ["ex1", "ex3", "half-line"])
def test_validate_refuses_each_changed_stabilizer_order(name):
    g = serre_half_line(4) if name == "half-line" else graph_by_name(name, depth=4)
    validate_graph(g)
    cuts = {r.at for r in g.rays}
    changed = [_with_stab(g, vertex=(i, s)) for i, v in enumerate(g.vertices)
               if v.id not in cuts  # a cut has lost its onward edge: its count is open
               for s in _order_changes(v.stab)]
    changed += [_with_stab(g, edge=(i, s)) for i, e in enumerate(g.edges)
                for s in _order_changes(e.stab)]
    assert len(changed) > 2 * len(g.edges)
    for bad in changed:
        with pytest.raises(ValueError):
            validate_graph(bad)


def test_validate_refuses_the_old_infinity_ray():
    # dimension n + 1 at c(inf,n) for n >= 2 and a one-dimensional edge
    # c(inf,1)-c(inf,2), as built before: the edges at c(inf,2) count
    # 8/2 + 8/8 = 5, not 3, and divisibility alone passes
    g = build_graph_ex3(depth=4)
    ray = {v.id: int(v.label[6:-1]) for v in g.vertices if v.label.startswith("c(inf,")}
    for i, v in enumerate(g.vertices):
        if ray.get(v.id, 0) >= 2:
            g = _with_stab(g, vertex=(i, stab_unipotent(2, ray[v.id] + 1)))
    for i, e in enumerate(g.edges):
        if e.u in ray and e.v in ray and ray[e.v] >= 3:
            g = _with_stab(g, edge=(i, stab_unipotent(2, ray[e.v])))
    for e in g.edges:
        for end in (e.u, e.v):
            assert g.vertices[end - 1].stab.order() % e.stab.order() == 0
    with pytest.raises(ValueError, match=r"local count at vertex c\(inf,2\).* sum to 5,"):
        validate_graph(g)


def test_validate_refuses_mixed_or_missing_field_sizes():
    mixed = small_graph(vertices=(Vertex(1, "x", stab_gl2(2)),
                                  Vertex(2, "y", stab_unipotent(3, 1))),
                        edges=(Edge(1, 2, stab_trivial()),))
    bare = small_graph(vertices=(Vertex(1, "x", stab_trivial()),), edges=())
    for g in (mixed, bare):
        with pytest.raises(ValueError, match="exactly one field size"):
            validate_graph(g)


# ------------------------------------------------------------ serialization

def test_json_roundtrip():
    for g in (build_graph_ex1(), build_graph_ex3(depth=2)):
        text = export_json(g)
        again = helpers.parse_graph_json(text)
        assert again == g
        data = json.loads(text)
        assert set(data) == {"vertices", "edges", "rays"}


def test_dot_export_mentions_every_vertex_and_cusp():
    g = build_graph_ex3()
    dot = export_dot(g)
    assert dot.startswith("graph quotient {")
    for v in g.vertices:
        assert f"v{v.id} " in dot
        assert v.label in dot
    for marker in g.rays:
        assert f"toward {marker.cusp}" in dot
    assert dot.count("--") >= len(g.edges)


def test_dot_export_empty_graph():
    assert export_dot(QuotientGraph((), (), ())) == "graph quotient {\n}\n"
