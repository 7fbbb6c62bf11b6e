import json

import pytest

from catchrec import extract_usage_graph, parse
from catchrec.errors import GraphUnavailable
from catchrec.graph import ApiUsageGraph, DependencyEdge


def test_listing2_object_nodes(listing2):
    graph = extract_usage_graph(listing2)
    assert len(graph.objects) == 4
    assert {o.type_name for o in graph.objects} == {
        "URL",
        "HttpURLConnection",
        "InputStreamReader",
        "BufferedReader",
    }


def test_listing2_dependency_edges(listing2):
    graph = extract_usage_graph(listing2)
    edges = {
        (
            graph.objects[e.consumer].type_name,
            graph.objects[e.producer].type_name,
            e.access_point,
        )
        for e in graph.dependencies
    }
    assert ("InputStreamReader", "HttpURLConnection", "getInputStream") in edges
    assert ("BufferedReader", "InputStreamReader", "") in edges
    assert len(edges) >= 2


def test_single_object_graph():
    graph = extract_usage_graph(parse("URL u = new URL(s);"))
    assert len(graph.objects) == 1
    obj = graph.objects[0]
    assert (obj.type_name, obj.ordinal, obj.variable_name) == ("URL", 0, "u")
    assert obj.methods == (("<init>", 1),)
    assert obj.fields == ()
    assert graph.dependencies == ()


def test_no_self_dependency(listing2):
    graph = extract_usage_graph(listing2)
    for edge in graph.dependencies:
        assert edge.consumer != edge.producer
    with pytest.raises(ValueError, match="distinct objects"):
        ApiUsageGraph(graph.objects, (DependencyEdge(0, 0, ""),))


def test_same_type_objects_stay_distinct():
    graph = extract_usage_graph(parse("A first = new A(); A second = new A();"))
    assert [(o.type_name, o.ordinal) for o in graph.objects] == [("A", 0), ("A", 1)]


def test_graph_unavailable_for_failed_parse():
    failed = parse("} catch }")
    with pytest.raises(GraphUnavailable):
        extract_usage_graph(failed)


def test_canonical_json_sorted_and_stable(listing2):
    graph = extract_usage_graph(listing2)
    first = graph.to_json()
    second = extract_usage_graph(parse(listing2.raw_text)).to_json()
    assert first == second
    payload = json.loads(first)
    names = [o["type_name"] for o in payload["objects"]]
    assert names == sorted(names)
    deps = [(d["consumer"], d["producer"], d["access_point"]) for d in payload["dependencies"]]
    assert deps == sorted(deps)


def test_methods_carry_multiplicities():
    graph = extract_usage_graph(parse("A a = new A(); a.f(); a.f(); a.g();"))
    methods = dict(graph.objects[0].methods)
    assert methods["f"] == 2
    assert methods["g"] == 1
    assert methods["<init>"] == 1


def test_dot_output_mentions_objects(listing2):
    dot = extract_usage_graph(listing2).to_dot()
    assert dot.startswith("digraph")
    for name in ("URL", "BufferedReader", "InputStreamReader"):
        assert name in dot
    assert "style=dashed" in dot
