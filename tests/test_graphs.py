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
    dims = [by_label[f"c(inf,{n})"].stab.dim for n in range(1, 6)]
    assert dims == sorted(dims)
    assert dims[0] == 1 and dims[1] == 3  # documented jump at the branch
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
    vertices = (Vertex(1, "a", stab_gl2(2)),
                Vertex(2, "hub", stab_gl2(2)),
                Vertex(3, "b", stab_gl2(2)),
                Vertex(4, "c", stab_gl2(2)))
    edges = (Edge(1, 2, stab_trivial()), Edge(2, 3, stab_trivial()),
             Edge(2, 4, stab_trivial()))
    g = QuotientGraph(vertices, edges, (RayMarker("inf", 1, 2),))
    with pytest.raises(ValueError):
        validate_serre(g)


def test_serre_rejects_overlapping_tails():
    # a path a - b with markers on both ends would claim shared vertices
    vertices = (Vertex(1, "a", stab_gl2(2)),
                Vertex(2, "b", stab_gl2(2)))
    edges = (Edge(1, 2, stab_trivial()),)
    g = QuotientGraph(vertices, edges,
                      (RayMarker("p", 1, 1), RayMarker("r", 1, 2)))
    with pytest.raises(ValueError):
        validate_serre(g)


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
