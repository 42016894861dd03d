"""Tests for scenario parsing, validation messages, and result serialization."""

import json
from importlib.resources import files
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgossip as qg
from qgossip import scenario as scenario_module
from qgossip.scenario import (OUT_DIR_ENV, RepeatedRows, RunManifest, resolve_out_dir,
                              write_csv, write_json, write_manifest)

FIG3 = files("qgossip") / "scenarios" / "fig3.json"


def base_doc():
    return {
        "schema": 1,
        "shape": {"m": 3, "n": 2},
        "graph": {"edges": [[1, 2], [2, 3]]},
        "gossip": {"alpha": 0.5, "strategy": "cyclic", "steps": 10},
        "initial_state": "100",
        "sigma": "z",
    }


def write_doc(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_bundled_scenario():
    scn = qg.load_scenario(str(FIG3))
    assert scn.shape == qg.NetworkShape(4, 2)
    assert scn.graph.edges == ((1, 2), (2, 3), (3, 4))
    assert scn.config.strategy == "random"
    assert scn.config.steps == 300
    assert scn.seeds() == [7]
    assert scn.stem == "fig3"
    assert len(scn.sha256) == 64
    assert scn.rho0.shape.m == 4
    np.testing.assert_allclose(scn.obs.matrix, qg.PAULI["z"], atol=0)


def test_load_valid_minimal_scenario(tmp_path):
    scn = qg.load_scenario(write_doc(tmp_path, base_doc()))
    assert scn.stem == "scn"          # defaults to the file stem
    assert scn.out_directory == "."
    assert scn.seeds() == []


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(qg.ScenarioError, match="cannot read"):
        qg.load_scenario(tmp_path / "absent.json")
    p = tmp_path / "broken.json"
    p.write_text('{"schema": 1,,}')
    with pytest.raises(qg.ScenarioError, match=r"line 1, column"):
        qg.load_scenario(p)
    p2 = tmp_path / "list.json"
    p2.write_text("[1, 2]")
    with pytest.raises(qg.ScenarioError, match="JSON object"):
        qg.load_scenario(p2)


def test_schema_version_is_enforced(tmp_path):
    doc = base_doc()
    del doc["schema"]
    with pytest.raises(qg.ScenarioError, match=r"\$\.schema.*missing"):
        qg.load_scenario(write_doc(tmp_path, doc))
    doc = base_doc()
    doc["schema"] = 2
    with pytest.raises(qg.ScenarioError, match="unsupported version 2"):
        qg.load_scenario(write_doc(tmp_path, doc))


@pytest.mark.parametrize("mutate,pattern", [
    (lambda d: d["shape"].update(m=0), "shape:"),
    (lambda d: d["shape"].pop("n"), r"shape\.n"),
    (lambda d: d["graph"].update(edges=[[1, 5]]), "graph:"),
    (lambda d: d["graph"].update(weights=[0.9, 0.9]), "graph:"),
    (lambda d: d["graph"].update(edges=[[1.7, 2], [2, 3]]), "graph:"),
    (lambda d: d["graph"].update(edges=[[True, 2], [2, 3]]), "graph:"),
    (lambda d: d["graph"].update(edges=[["1", 2], [2, 3]]), "graph:"),
    (lambda d: d["graph"].update(edges=[[[1], 2], [2, 3]]), "graph:"),
    (lambda d: d["graph"].update(edges=[None, [2, 3]]), "graph:"),
    (lambda d: d["graph"].update(weights=["0.5", "0.5"]), "graph:"),
    (lambda d: d["graph"].update(weights=[True, 1e-13]), "graph:"),
    (lambda d: d["graph"].update(weights=[float("nan"), 0.5]), "graph:"),
    (lambda d: d["gossip"].update(alpha=1.5), "gossip:"),
    (lambda d: d["gossip"].update(strategy="turbo"), "gossip:"),
    (lambda d: d["gossip"].update(steps=-2), "gossip:"),
    (lambda d: d["gossip"].update(steps=True), r"gossip\.steps"),
    (lambda d: d["gossip"].update(strategy="random"), "gossip:"),  # seed missing
    (lambda d: d["gossip"].update(cycle_order=[0]), "gossip:"),
    (lambda d: d["gossip"].update(cycle_order=[[1, 2], [2, 3]]), "gossip:"),
    (lambda d: d["gossip"].update(cycle_order=["0", 1.7]), "gossip:"),
    (lambda d: d["gossip"].update(cycle_order=[0, 1.5]), "gossip:"),
    (lambda d: d["gossip"].update(cycle_order=[True, 0]), "gossip:"),
    (lambda d: d.update(initial_state="210"), "initial_state:"),
    (lambda d: d.update(sigma="w"), "sigma:"),
    (lambda d: d.update(sigma=17), r"\$\.sigma"),
])
def test_field_precise_validation_errors(tmp_path, mutate, pattern):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(qg.ScenarioError, match=pattern):
        qg.load_scenario(write_doc(tmp_path, doc))


def test_sigma_as_explicit_matrix(tmp_path):
    doc = base_doc()
    doc["sigma"] = {"real": [[0.0, 1.0], [1.0, 0.0]]}
    scn = qg.load_scenario(write_doc(tmp_path, doc))
    np.testing.assert_allclose(scn.obs.matrix, qg.PAULI["x"], atol=0)
    doc["sigma"] = {"real": [[0.0, 0.0], [0.0, 0.0]], "imag": [[0.0, -1.0], [1.0, 0.0]]}
    scn = qg.load_scenario(write_doc(tmp_path, doc))
    np.testing.assert_allclose(scn.obs.matrix, qg.PAULI["y"], atol=0)


def test_sigma_as_bare_list_is_built_once(tmp_path):
    doc = base_doc()
    doc["sigma"] = [[0.0, 1.0], [1.0, 0.0]]
    with mock.patch.object(scenario_module, "as_observable",
                           wraps=scenario_module.as_observable) as built:
        scn = qg.load_scenario(write_doc(tmp_path, doc))
        assert built.call_count == 0  # checked at load, built at the first read
        assert scn.obs is scn.obs
    assert built.call_count == 1
    np.testing.assert_allclose(scn.obs.matrix, qg.PAULI["x"], atol=0)


@pytest.mark.parametrize("sigma", [
    {"real": 1},
    {"imag": [[0.0, 1.0], [1.0, 0.0]]},
    {"real": [[1.0, 0.0], [0.0, -1.0]], "imag": None},
    {"real": [[float("nan"), 0.0], [0.0, 1.0]]},
    [[1.0, 0.0]],
    True,
])
def test_malformed_sigma_matrix_names_the_field(tmp_path, sigma):
    doc = base_doc()
    doc["sigma"] = sigma
    with pytest.raises(qg.ScenarioError, match=r"\$\.sigma"):
        qg.load_scenario(write_doc(tmp_path, doc))


def test_random_state_seed_is_reported(tmp_path):
    doc = base_doc()
    doc["initial_state"] = "random:31"
    doc["gossip"].update(strategy="random", seed=12)
    scn = qg.load_scenario(write_doc(tmp_path, doc))
    assert scn.seeds() == [12, 31]
    np.testing.assert_array_equal(scn.rho0.matrix,
                                  qg.random_density(scn.shape, 31).matrix)


def test_the_state_and_sigma_are_checked_at_load_and_built_at_first_read(tmp_path,
                                                                       monkeypatch):
    built = []

    def counting(build):
        def wrapped(*args):
            built.append(build.__name__)
            return build(*args)
        return wrapped
    monkeypatch.setattr(qg.states, "random_density", counting(qg.random_density))
    monkeypatch.setattr(qg.states.Observable, "__init__", counting(qg.Observable.__init__))
    doc = base_doc()
    doc["initial_state"] = "random:31"
    doc["sigma"] = {"real": [[0, 1], [1, 0]]}
    scn = qg.load_scenario(write_doc(tmp_path, doc))
    assert built == []
    assert scn.rho0 is scn.rho0 and scn.obs is scn.obs
    assert built == ["random_density", "__init__"]
    np.testing.assert_array_equal(scn.rho0.matrix, qg.random_density(scn.shape, 31).matrix)
    np.testing.assert_array_equal(scn.obs.matrix, qg.PAULI["x"])
    doc["initial_state"] = "rhoG:1.5"
    with pytest.raises(qg.ScenarioError, match=r"\$\.initial_state: p must lie in \[0, 1\]"):
        qg.load_scenario(write_doc(tmp_path, doc))
    doc["initial_state"] = "100"
    doc["sigma"] = {"real": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    with pytest.raises(qg.ScenarioError, match=r"\$\.sigma: observable dim 3 != n=2"):
        qg.load_scenario(write_doc(tmp_path, doc))
    assert len(built) == 2  # the two checks above built nothing


def test_a_suite_is_checked_before_any_state_is_built(tmp_path, monkeypatch):
    def forbidden(*_args):
        raise AssertionError("a state was built before the suite was checked")
    monkeypatch.setattr(qg.states, "_named_three_qubit", forbidden)
    doc = {"schema": 1, "suite": [{"state": "rhoA", "sigma": "z"},
                                  {"state": "rhoB", "sigma": "w"}]}
    with pytest.raises(qg.ScenarioError, match=r"\$\.suite\[1\]\.sigma"):
        scenario_module.load_suite(write_doc(tmp_path, doc))


# ---------------------------------------------------------------------------
# output resolution and writers
# ---------------------------------------------------------------------------

def test_out_dir_precedence(tmp_path, monkeypatch):
    cli_dir = tmp_path / "cli"
    env_dir = tmp_path / "env"
    scn_dir = tmp_path / "scn"
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    assert resolve_out_dir(str(scn_dir), str(cli_dir)) == cli_dir
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
    assert resolve_out_dir(str(scn_dir), str(cli_dir)) == cli_dir
    assert resolve_out_dir(str(scn_dir), None) == env_dir
    monkeypatch.delenv(OUT_DIR_ENV)
    assert resolve_out_dir(str(scn_dir), None) == scn_dir
    # resolution only chooses: the directory is created at the run's first write
    assert not any(d.exists() for d in (cli_dir, env_dir, scn_dir))


def test_write_csv_format_and_round_trip(tmp_path):
    p = tmp_path / "out.csv"
    third = 1.0 / 3.0
    write_csv(p, ["t", "edge", "v"], [[0, ""], [1, "1-2"]], np.array([[third], [-1.0]]),
              "run_manifest.json")
    lines = p.read_text().splitlines()
    assert lines[0] == "# manifest: run_manifest.json"
    assert lines[1] == "t,edge,v"
    assert lines[2].startswith("0,,")
    # 17 significant digits reproduce the double exactly
    assert float(lines[2].split(",")[2]) == third
    assert lines[3] == "1,1-2,-1"


def test_write_csv_matches_per_value_formatting(tmp_path):
    # labels, then the numbers of every row through one format: the same
    # bytes as formatting every value on its own
    rng = np.random.default_rng(5)
    floats = list(rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6))
    labels = [[0, ""], [7, "3-4"], [np.int64(12), "all"], ["x"], []]
    values = [floats, [-0.0, 5e-324, 1.7976931348623157e308, np.float64(1 / 3), 2,
                       np.int64(-5), True], [], [1.5], []]
    rows = [a + b for a, b in zip(labels, values)]
    p = tmp_path / "out.csv"
    write_csv(p, ["a", "b"], labels, values, "m.json")

    def one(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return v if isinstance(v, str) else format(float(v), ".17g")

    want = ["# manifest: m.json", "a,b"] + [",".join(one(v) for v in r) for r in rows]
    assert p.read_text() == "\n".join(want) + "\n"


def test_write_csv_rejects_non_finite(tmp_path):
    with pytest.raises(qg.ConsistencyError):
        write_csv(tmp_path / "bad.csv", ["v"], [[]], [[float("nan")]], "m.json")
    with pytest.raises(qg.ConsistencyError):
        write_csv(tmp_path / "bad.csv", ["v"], [[]], np.array([[float("inf")]]), "m.json")


def test_write_json_sorted_and_manifest_key(tmp_path):
    p = tmp_path / "out.json"
    write_json(p, {"zeta": 1, "alpha": 2}, "m.json")
    raw = p.read_text()
    data = json.loads(raw)
    assert data["manifest"] == "m.json"
    assert raw.index('"alpha"') < raw.index('"zeta"')
    with pytest.raises(qg.ConsistencyError):
        write_json(tmp_path / "bad.json", {"v": float("nan")}, "m.json")


JSON_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5]))
JSON_STRINGS = st.text() | st.sampled_from(['"', "\\", "\n", 'a "b" \\c\nd', "ünï©ødé ✓ 𝄞"])
JSON_SCALARS = (st.none() | st.booleans() | JSON_FLOATS | JSON_STRINGS
                | st.integers() | st.integers(2**63, 2**80))
# the rows a RepeatedRows lists: equal-length float rows, lists or tuples
FLOAT_ROWS = st.integers(1, 3).flatmap(lambda w: st.lists(
    st.lists(JSON_FLOATS, min_size=w, max_size=w) | st.tuples(*[JSON_FLOATS] * w),
    min_size=1, max_size=4))
JSON_DOCS = st.recursive(
    JSON_SCALARS | st.lists(JSON_FLOATS, max_size=6) | FLOAT_ROWS,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(JSON_STRINGS, kids, max_size=5)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(rows=FLOAT_ROWS, key=JSON_STRINGS, manifest=st.none() | JSON_STRINGS,
       others=st.dictionaries(JSON_STRINGS, JSON_DOCS, max_size=5), data=st.data())
def test_repeated_rows_are_json_dumps_of_the_expanded_list(tmp_path_factory, rows, key, others,
                                                          manifest, data):
    # the listing lands first, last or in between among drawn values, beside
    # two decoys of its placeholder: the same key nested, and a top-level string
    counts = data.draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
    placeholder = scenario_module._PLACEHOLDER
    doc = {**others, key + "!": {key: placeholder}, key + "?": placeholder}
    expanded = {**doc, key: [list(r) for r, c in zip(rows, counts) for _ in range(c)]}
    doc[key] = RepeatedRows(rows, counts)
    if manifest is not None:
        expanded["manifest"] = manifest
    p = tmp_path_factory.mktemp("json") / "out.json"
    write_json(p, doc, manifest)
    assert p.read_text() == json.dumps(expanded, indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_repeated_rows_reject_what_they_cannot_list(tmp_path):
    p = tmp_path / "out.json"
    write_json(p, {"a": RepeatedRows([], [])})
    assert p.read_text() == '{\n  "a": []\n}\n'
    for rows in ([[1.0], [1.0, 2.0]], [[1, 2.0]], [[np.float64(1.0)]], [1.0]):
        with pytest.raises(TypeError):
            write_json(p, {"a": RepeatedRows(rows, [1] * len(rows))})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("place", [lambda v: v, lambda v: {"b": v}, lambda v: [0.5, v, 1.5],
                                   lambda v: [["s"], [1, v]],
                                   lambda v: RepeatedRows([[0.5, 1.5], [0.5, v]], [1, 2])],
                         ids=["top", "dict_value", "float_list", "nested_list", "repeated_rows"])
def test_json_text_rejects_non_finite(bad, place, tmp_path):
    with pytest.raises(qg.ConsistencyError):
        write_json(tmp_path / "bad.json", {"a": place(bad)}, "m.json")


# np.int64 is no int subclass; a RepeatedRows is listed only as a top-level value
@pytest.mark.parametrize("doc", [{"a": np.int64(3)}, {"a": [1.0, np.int64(3)]}, {"a": {2}},
                                 {"a": [RepeatedRows([[1.0]], [1])]},
                                 {"a": {"b": RepeatedRows([[1.0]], [1])}}])
def test_json_text_rejects_unsupported_types(doc, tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", doc)


def test_write_manifest_round_trip(tmp_path):
    p = tmp_path / "run_manifest.json"
    manifest = RunManifest(scenario_hash="ab" * 32, tool_version="0.1.0",
                           command="evolve", seeds=[7], wall_time_s=0.25,
                           termination="steps_exhausted")
    write_manifest(p, manifest)
    data = json.loads(p.read_text())
    assert data["scenario_hash"] == "ab" * 32
    assert data["seeds"] == [7]
    assert data["termination"] == "steps_exhausted"


def test_write_manifest_rejects_non_finite(tmp_path):
    for bad in (float("nan"), float("inf"), -float("inf")):
        manifest = RunManifest(scenario_hash="ab" * 32, tool_version="0.1.0",
                               command="evolve", seeds=[7], wall_time_s=bad,
                               termination="steps_exhausted")
        with pytest.raises(qg.ConsistencyError):
            write_manifest(tmp_path / "run_manifest.json", manifest)
