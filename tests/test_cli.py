"""End-to-end tests of the command-line interface and its exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import qgossip.cli as cli
import qgossip.gossip as gossip
from qgossip.errors import CertificateError
from qgossip.scenario import OUT_DIR_ENV, load_scenario

FIG3 = str(files("qgossip") / "scenarios" / "fig3.json")
SUITE = str(files("qgossip") / "scenarios" / "example1_suite.json")


def write_scenario(tmp_path, name="scn.json", **overrides):
    doc = {
        "schema": 1,
        "shape": {"m": 3, "n": 2},
        "graph": {"edges": [[1, 2], [2, 3]]},
        "gossip": {"alpha": 0.5, "strategy": "cyclic", "steps": 40},
        "initial_state": "100",
        "sigma": "z",
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_single_state(capsys):
    assert cli.main(["classify", "--state", "rhoB", "--sigma", "z"]) == 0
    out = capsys.readouterr().out
    assert "rhoB" in out
    assert "sigma_ec=yes rsc=yes ssc=no smc=no" in out


def test_classify_interpolated_state(capsys):
    assert cli.main(["classify", "--state", "rhoG:0.3", "--sigma", "z"]) == 0
    assert "smc=yes" in capsys.readouterr().out


def test_classify_suite_table(tmp_path, capsys):
    out_file = tmp_path / "suite_report.json"
    assert cli.main(["classify", "--suite", SUITE, "--out", str(out_file)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "|" in l]
    assert len(lines) == 7  # six named states plus the interpolated one
    data = json.loads(out_file.read_text())
    byname = {item["state"]: item["report"] for item in data["results"]}
    assert byname["rhoA"]["rsc"] is False
    assert byname["rhoD"]["smc"] is True
    assert byname["rhoC"]["smc_defect"] == pytest.approx(0.75)


def test_the_parser_is_built_once_and_keeps_no_parsed_values(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "report.json"
    assert cli.main(["classify", "--state", "rhoB", "--sigma", "z", "--tol", "0.5",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerance"] == 0.5
    assert cli.main(["classify", "--state", "rhoB", "--sigma", "z", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerance"] == 1e-8


def test_classify_requires_arguments(capsys):
    assert cli.main(["classify"]) == 1
    assert "state" in capsys.readouterr().err


def test_classify_unknown_state(capsys):
    assert cli.main(["classify", "--state", "rhoQ", "--sigma", "z"]) == 1


def test_classify_random_state_with_shape(capsys):
    assert cli.main(["classify", "--state", "random:4", "--sigma", "z",
                     "--m", "2", "--n", "2"]) == 0
    assert cli.main(["classify", "--state", "random:4", "--sigma", "z",
                     "--m", "2"]) == 1  # --m without --n


def test_classify_past_the_cap_exits_3(capsys):
    assert cli.main(["classify", "--m", "1000000000", "--n", "2", "--state", "random:1",
                     "--sigma", "x"]) == 3
    assert "resource cap" in capsys.readouterr().err


def write_suite(tmp_path, entries):
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"schema": 1, "suite": entries}))
    return str(p)


@pytest.mark.parametrize("content,named", [
    (None, "cannot read suite file"),
    ('{"schema": 1,,}', "not valid JSON (line 1, column"),
    ("[1, 2]", "suite root must be a JSON object"),
    ({"schema": 2, "suite": [{"state": "rhoA", "sigma": "z"}]}, "$.schema"),
    ({"schema": 1, "suite": []}, "$.suite: expected a non-empty list"),
    ({"schema": 1, "suite": [{"state": "rhoA", "sigma": "z"}, 3]}, "$.suite[1]:"),
    ({"schema": 1, "suite": [{"sigma": "z"}]}, "$.suite[0].state: missing"),
    ({"schema": 1, "suite": [{"state": 5, "sigma": "z"}]}, "$.suite[0].state: expected str"),
    ({"schema": 1, "suite": [{"state": "rhoA", "sigma": 17}]}, "$.suite[0].sigma:"),
    ({"schema": 1, "suite": [{"state": "rhoA", "sigma": {"real": 1}}]}, "$.suite[0].sigma:"),
])
def test_classify_rejects_a_malformed_suite(tmp_path, capsys, content, named):
    p = tmp_path / "suite.json"
    if content is not None:
        p.write_text(content if isinstance(content, str) else json.dumps(content))
    assert cli.main(["classify", "--suite", str(p)]) == 1
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("extra,named", [
    (["--state", "rhoA"], "--state"),
    (["--sigma", "x"], "--sigma"),
    (["--m", "4", "--n", "3"], "--m, --n"),
    (["--m", "4", "--n", "3", "--state", "rhoA", "--sigma", "x"], "--state, --sigma, --m, --n"),
])
def test_classify_suite_rejects_single_state_flags(capsys, extra, named):
    assert cli.main(["classify", "--suite", SUITE] + extra) == 1
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_suite_sigma_forms_give_the_same_report(tmp_path):
    # a suite entry takes a scenario's {real, imag} matrix and a bare nested list
    z_forms = ["z", {"real": [[1, 0], [0, -1]]}, [[1, 0], [0, -1]]]
    y_forms = ["y", {"real": [[0, 0], [0, 0]], "imag": [[0, -1], [1, 0]]}]
    for forms in (z_forms, y_forms):
        for state in ("rhoC", "rhoF", "rhoG:0.3"):
            out = tmp_path / "report.json"
            suite = write_suite(tmp_path, [{"state": state, "sigma": f} for f in forms])
            assert cli.main(["classify", "--suite", suite, "--out", str(out)]) == 0
            reports = [item["report"] for item in json.loads(out.read_text())["results"]]
            assert all(r == reports[0] for r in reports)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_tolerance_flags_reject_non_finite_and_negative(tmp_path, capsys, value):
    assert cli.main(["classify", "--state", "rhoC", "--sigma", "z", "--tol", value]) == 1
    err = capsys.readouterr().err
    assert "--tol" in err and "Traceback" not in err
    scn = write_scenario(tmp_path, gossip={"strategy": "random", "seed": 11})
    assert cli.main(["ensemble", scn, "--trials", "2", "--horizon", "5",
                     "--eps", value, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "--eps" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_unwritable_outputs_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    assert cli.main(["classify", "--state", "rhoB", "--sigma", "z", "--out", str(missing)]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert cli.main(["evolve", write_scenario(tmp_path), "--out-dir", str(a_file)]) == 1
    err = capsys.readouterr().err
    assert str(a_file) in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_bundled_scenario(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["evolve", FIG3, "--out-dir", str(out)]) == 0
    csv_path = out / "fig3_trajectory.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# manifest: fig3_manifest.json"
    assert lines[1] == "t,edge,z_1,z_2,z_3,z_4,S_expect,ssc_gap,smc_defect"
    assert lines[2].split(",")[:6] == ["0", "", "-1", "1", "-1", "1"]
    assert len(lines) == 303  # comment + header + 301 samples
    summary = json.loads((out / "fig3_summary.json").read_text())
    assert summary["termination"] == "steps_exhausted"
    assert summary["final_distance_to_twirl"] < 1e-8
    assert summary["s_expect_final"] == pytest.approx(0.0, abs=1e-10)
    assert summary["manifest"] == "fig3_manifest.json"
    manifest = json.loads((out / "fig3_manifest.json").read_text())
    assert manifest["seeds"] == [7]
    assert manifest["command"] == "evolve"


def test_evolve_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["evolve", FIG3, "--out-dir", str(a)]) == 0
    assert cli.main(["evolve", FIG3, "--out-dir", str(b)]) == 0
    assert (a / "fig3_trajectory.csv").read_bytes() \
        == (b / "fig3_trajectory.csv").read_bytes()
    assert (a / "fig3_summary.json").read_bytes() \
        == (b / "fig3_summary.json").read_bytes()


def test_evolve_zero_steps(tmp_path):
    scn = write_scenario(tmp_path, gossip={"steps": 0})
    out = tmp_path / "out"
    assert cli.main(["evolve", scn, "--out-dir", str(out)]) == 0
    lines = (out / "scn_trajectory.csv").read_text().splitlines()
    assert len(lines) == 3  # comment + header + initial sample only


def test_evolve_honors_env_out_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "via_env"
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
    scn = write_scenario(tmp_path)
    assert cli.main(["evolve", scn]) == 0
    assert (env_dir / "scn_trajectory.csv").exists()
    # an explicit flag still wins over the environment
    flag_dir = tmp_path / "via_flag"
    assert cli.main(["evolve", scn, "--out-dir", str(flag_dir)]) == 0
    assert (flag_dir / "scn_trajectory.csv").exists()


def test_evolve_builds_random_initial_state_once(tmp_path, monkeypatch):
    import qgossip.states as states
    calls = []
    original = states.random_density

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(states, "random_density", counting)
    scn = write_scenario(tmp_path, initial_state="random:31",
                         gossip={"strategy": "random", "seed": 4, "steps": 5})
    assert cli.main(["evolve", scn, "--out-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["evolve", "correspond"])
def test_a_sigma_of_the_wrong_dimension_exits_1(tmp_path, capsys, command):
    scn = write_scenario(tmp_path, sigma=[[1, 0, 0], [0, 0, 0], [0, 0, -1]])
    assert cli.main([command, scn, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "$.sigma: observable dim 3 != n=2" in err
    assert not (tmp_path / "out").exists()


def test_evolve_builds_the_observable_once(tmp_path, monkeypatch):
    import qgossip.scenario as scenario
    calls = []
    original = scenario.as_observable

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(scenario, "as_observable", counting)
    assert cli.main(["evolve", write_scenario(tmp_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_evolve_single_site_runs_identity_steps(tmp_path):
    for strategy in ("random", "cyclic", "synchronous", "expected"):
        scn = write_scenario(tmp_path, shape={"m": 1}, graph={"edges": []},
                             initial_state="1",
                             gossip={"strategy": strategy, "seed": 3, "steps": 3})
        out = tmp_path / strategy
        assert cli.main(["evolve", scn, "--out-dir", str(out)]) == 0
        rows = [r.split(",") for r in
                (out / "scn_trajectory.csv").read_text().splitlines()[2:]]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert all(r[2:] == rows[0][2:] for r in rows)  # z_1, S, gaps unchanged


def test_evolve_rejects_edgeless_network(tmp_path, capsys):
    for strategy in ("random", "cyclic", "synchronous", "expected"):
        scn = write_scenario(tmp_path, graph={"edges": []},
                             gossip={"strategy": strategy, "seed": 3})
        assert cli.main(["evolve", scn]) == 1
        assert f"{strategy} strategy needs at least one edge" in capsys.readouterr().err


@pytest.mark.parametrize("command,overrides,code", [
    ("evolve", {"graph": {"edges": []}}, 1),
    ("correspond", {"gossip": {"strategy": "synchronous"}}, 1),
    ("ensemble", {}, 1),  # the cyclic scenario has no seed
    ("spectrum", {"shape": {"m": 9, "n": 2}, "initial_state": "100000000",
                  "graph": {"edges": [[i, i + 1] for i in range(1, 9)]}}, 3),
    ("evolve", {"gossip": {"stop_gap": float("nan")}}, 1),  # would run every step
])
def test_a_failed_run_creates_no_out_dir(tmp_path, command, overrides, code):
    scn = write_scenario(tmp_path, **overrides)
    out = tmp_path / "newdir"
    assert cli.main([command, scn, "--out-dir", str(out)]) == code
    assert not out.exists()


def test_evolve_creates_a_nested_out_dir(tmp_path):
    out = tmp_path / "a" / "b"
    assert cli.main(["evolve", write_scenario(tmp_path), "--out-dir", str(out)]) == 0
    assert (out / "scn_trajectory.csv").is_file()


def test_evolve_missing_scenario(tmp_path):
    assert cli.main(["evolve", str(tmp_path / "nope.json")]) == 1


def test_evolve_invalid_scenario(tmp_path):
    scn = write_scenario(tmp_path, gossip={"alpha": 2.0})
    assert cli.main(["evolve", scn]) == 1
    scn = write_scenario(tmp_path, gossip={"cycle_order": [[1, 2], [2, 3]]})
    assert cli.main(["evolve", scn]) == 1
    scn = write_scenario(tmp_path, graph={"weights": [float("nan"), 0.5]},
                         gossip={"strategy": "random", "seed": 3})
    assert cli.main(["evolve", scn]) == 1


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_reports_fixed_space(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["spectrum", scn, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "scn_spectrum.json").read_text())
    assert payload["disk_ok"] is True
    assert payload["unit_eigenvalue_count"] == 20
    assert payload["fixed_space_dimension"] == 20
    assert payload["spectral_gap"] == pytest.approx(0.25, abs=1e-9)
    assert payload["q0"] == pytest.approx(0.5)
    assert all(abs(im) <= 1e-9 for _re, im in payload["eigenvalues"])
    assert "20 unit eigenvalues" in capsys.readouterr().out


def test_spectrum_runs_without_the_commutant_oracle(tmp_path, monkeypatch):
    # the fixed space comes from the orbit count; the dense commutant is a test oracle
    def forbidden(*_args, **_kwargs):
        raise AssertionError("commutant_dimension called on the CLI path")
    monkeypatch.setattr(gossip, "commutant_dimension", forbidden)
    scn = write_scenario(tmp_path, shape={"m": 4, "n": 2},
                         graph={"edges": [[1, 2], [2, 3], [3, 4]]}, initial_state="1000")
    out = tmp_path / "out"
    assert cli.main(["spectrum", scn, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "scn_spectrum.json").read_text())
    assert payload["fixed_space_dimension"] == payload["unit_eigenvalue_count"] == 35


def test_spectrum_builds_no_dense_superoperator(tmp_path, monkeypatch):
    # the certificate solves the orbit blocks; the dense map is a test reference
    def forbidden(*_args, **_kwargs):
        raise AssertionError("synchronous_superoperator called on the CLI path")
    monkeypatch.setattr(gossip, "synchronous_superoperator", forbidden)
    monkeypatch.setattr(cli, "synchronous_superoperator", forbidden, raising=False)
    scn = write_scenario(tmp_path, shape={"m": 4, "n": 2},
                         graph={"edges": [[1, 2], [2, 3], [3, 4]]}, initial_state="1000")
    out = tmp_path / "out"
    assert cli.main(["spectrum", scn, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "scn_spectrum.json").read_text())
    assert payload["fixed_space_dimension"] == payload["unit_eigenvalue_count"] == 35


def fig3_variant(tmp_path, **overrides) -> str:
    doc = json.loads(Path(FIG3).read_text())
    doc.update(overrides)
    p = tmp_path / "fig3_variant.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("sigma", ["x", {"real": [[1, 0], [0, -1]]}])
@pytest.mark.parametrize("initial_state", ["1010", "random:31"])
def test_spectrum_builds_no_state_and_no_observable(tmp_path, monkeypatch, initial_state,
                                                    sigma):
    # the certificate depends on the graph, the weights and alpha alone: the
    # initial state and sigma are checked at load and never built
    import qgossip.states as states

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a state or observable was built on the spectrum path")
    monkeypatch.setattr(states.DensityOperator, "trusted", forbidden)
    monkeypatch.setattr(states, "random_density", forbidden)
    monkeypatch.setattr(states.Observable, "__init__", forbidden)
    states._pauli_observable.cache_clear()
    scn = fig3_variant(tmp_path, initial_state=initial_state, sigma=sigma)
    out = tmp_path / "out"
    assert cli.main(["spectrum", scn, "--out-dir", str(out)]) == 0
    assert (out / "fig3_spectrum.json").is_file()
    for lazy in ("rho0", "obs"):  # the patches do catch a build
        with pytest.raises(AssertionError, match="was built"):
            getattr(load_scenario(scn), lazy)


MALFORMED_SCENARIOS = {
    "digit-at-n": ({"initial_state": "1020"},
                   "$.initial_state: digit '2' invalid for local dimension 2"),
    "short-basis-string": ({"initial_state": "101"},
                           "$.initial_state: basis string '101' has 3 digits but m=4"),
    "negative-seed": ({"initial_state": "random:-1"},
                      "$.initial_state: expected non-negative integer"),
    "unknown-sigma": ({"sigma": "w"}, "$.sigma: observable name 'w' at n=2: the names "
                                      "are x, y, z, identity, for n=2 only"),
    "non-hermitian-sigma": ({"sigma": {"real": [[0, 1], [0, 0]]}},
                            "$.sigma: observable is not Hermitian: "
                            "max |x - x^dagger| = 1.000e+00 > 1.0e-09"),
}


@pytest.mark.parametrize("case", list(MALFORMED_SCENARIOS))
@pytest.mark.parametrize("command", ["spectrum", "evolve", "correspond", "ensemble"])
def test_a_malformed_scenario_exits_1_at_load(tmp_path, capsys, command, case):
    # every run checks the state and sigma at load, whether or not it builds them
    overrides, message = MALFORMED_SCENARIOS[case]
    out = tmp_path / "out"
    assert cli.main([command, fig3_variant(tmp_path, **overrides), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error (validation): {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["negative-seed", "non-hermitian-sigma"])
def test_a_malformed_scenario_exits_1_from_the_module_entry_point(tmp_path, case):
    overrides, message = MALFORMED_SCENARIOS[case]
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "qgossip.cli", "spectrum",
                           fig3_variant(tmp_path, **overrides), "--out-dir", str(out)],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (1, f"error (validation): {message}\n")
    assert not out.exists()


def test_spectrum_runs_without_the_fixed_point_basis(tmp_path, monkeypatch):
    # the fixed space dimension is the certified block count; the basis is a test oracle
    def forbidden(*_args, **_kwargs):
        raise AssertionError("fixed_point_space called on the CLI path")
    monkeypatch.setattr(gossip, "fixed_point_space", forbidden)
    monkeypatch.setattr(cli, "fixed_point_space", forbidden, raising=False)
    scn = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["spectrum", scn, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "scn_spectrum.json").read_text())
    assert payload["fixed_space_dimension"] == payload["unit_eigenvalue_count"] == 20


def test_spectrum_at_the_cap_allocates_little(tmp_path):
    # a dense m=6 superoperator alone is 4096 x 4096 complex, 256 MiB
    scn = write_scenario(tmp_path, shape={"m": 6, "n": 2},
                         graph={"edges": [[i, i + 1] for i in range(1, 6)]},
                         initial_state="100000")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main(["spectrum", scn, "--out-dir", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 32 * 2 ** 20


# Each case updates sections of fig3 (a 4-site path at alpha = 1/2).
LISTING_CASES = {
    "fig3": {},
    "fig3-split": {"graph": {"edges": [[1, 2], [3, 4]]}},
    # the benchmark's m = 5 certify shape, as the CI determinism run has it
    "bench-m5": {"shape": {"m": 5}, "initial_state": "00000",
                 "graph": {"edges": [[2, 5], [3, 5], [1, 3], [4, 5], [1, 5], [2, 4]],
                           "weights": [0.17, 0.06, 0.21, 0.12, 0.26, 0.18]},
                 "gossip": {"alpha": 0.363257}},
    # a 2-site path at alpha = 1/2: six eigenvalues are exactly zero
    "path2-half": {"shape": {"m": 2}, "initial_state": "10",
                   "graph": {"edges": [[1, 2]]}},
}


@pytest.mark.parametrize("case", sorted(LISTING_CASES))
def test_spectrum_listing_is_the_sorted_expanded_spectrum(case, tmp_path):
    # the listing is written from (value, multiplicity) groups; the oracle
    # expands each class block's eigenvalues once per orbit and sorts them,
    # sharing no code with the grouping. Should eigvalsh ever give -0.0 beside
    # +0.0 (not seen), a failure here shows the order the listing keeps
    doc = json.loads(Path(FIG3).read_text())
    for section, values in LISTING_CASES[case].items():
        if isinstance(values, dict):
            doc[section].update(values)
        else:
            doc[section] = values
    scn, out = tmp_path / "scn.json", tmp_path / "out"
    scn.write_text(json.dumps(doc))
    assert cli.main(["spectrum", str(scn), "--out-dir", str(out)]) == 0
    text = (out / "fig3_spectrum.json").read_text()
    scenario = load_scenario(scn)
    ev = np.sort_complex(np.concatenate(
        [np.tile(np.linalg.eigvalsh(c.block), c.count)
         for c in gossip.synchronous_classes(scenario.graph, scenario.config.alpha)]))
    assert len(ev) == scenario.shape.total_dim ** 2
    payload = json.loads(text)
    payload["eigenvalues"] = np.column_stack((ev.real, ev.imag)).tolist()
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_spectrum_rejects_a_disagreeing_fixed_space(tmp_path, monkeypatch, capsys):
    # the fixed-space dimension is the orbit count, one certified block per orbit
    real = cli.spectral_certificate

    def one_block_too_many(blocks, q0):
        cert = real(blocks, q0)
        return dataclasses.replace(cert, block_count=cert.block_count + 1)
    monkeypatch.setattr(cli, "spectral_certificate", one_block_too_many)
    scn = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["spectrum", scn, "--out-dir", str(out)]) == 2
    assert "disagrees with 20 unit eigenvalues" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_spectrum_resource_cap(tmp_path, capsys):
    scn = write_scenario(
        tmp_path, shape={"m": 9, "n": 2},
        graph={"edges": [[i, i + 1] for i in range(1, 9)]},
        initial_state="100000000")
    assert cli.main(["spectrum", scn]) == 3
    assert "resource cap" in capsys.readouterr().err


def laplacian_gap(m, edges, weights):
    lap = np.zeros((m, m))
    for (j, k), q in zip(edges, weights):
        u = np.zeros(m)
        u[[j - 1, k - 1]] = 1.0, -1.0
        lap += q * np.outer(u, u)
    return np.linalg.eigvalsh(lap)[1]


def test_spectrum_past_the_dense_cap(tmp_path):
    # m=7 has 4**7 eigenvalues; the largest class block has 630 rows
    m, alpha = 7, 0.7
    edges = [[i, i % m + 1] for i in range(1, m + 1)] + [[1, 4]]
    raw = np.arange(1.0, len(edges) + 1.0)
    weights = list(raw / raw.sum())
    scn = write_scenario(tmp_path, shape={"m": m, "n": 2},
                         graph={"edges": edges, "weights": weights},
                         gossip={"alpha": alpha}, initial_state="0" * m)
    out = tmp_path / "out"
    assert cli.main(["spectrum", scn, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "scn_spectrum.json").read_text())
    evals = np.array([re for re, _im in payload["eigenvalues"]])
    unit = np.abs(evals - 1.0) <= 1e-9
    assert len(evals) == 4 ** m and payload["max_imag"] == 0.0
    assert unit.sum() == payload["unit_eigenvalue_count"] == math.comb(m + 3, m) == 120
    assert payload["fixed_space_dimension"] == 120
    expected = 1.0 - alpha * laplacian_gap(m, edges, weights)
    assert evals[~unit].max() == pytest.approx(expected, abs=1e-12)
    assert payload["second_largest_eigenvalue"] == pytest.approx(expected, abs=1e-12)
    assert payload["disk_ok"] is True


def test_spectrum_rejects_a_second_eigenvalue_off_the_laplacian(tmp_path, monkeypatch, capsys):
    # raising the non-unit eigenvalues of one class block moves the top one
    # off 1 - alpha lambda_2(L_q) while the disk and the unit count still hold
    real = cli.synchronous_classes

    def perturbed(graph, alpha):
        classes = list(real(graph, alpha))
        k = max(range(len(classes)), key=lambda i: len(classes[i].rows))
        size = len(classes[k].rows)
        lift = 1e-6 * (np.eye(size) - np.full((size, size), 1.0 / size))
        classes[k] = classes[k]._replace(block=classes[k].block + lift)
        return iter(classes)
    monkeypatch.setattr(cli, "synchronous_classes", perturbed)
    scn = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["spectrum", scn, "--out-dir", str(out)]) == 2
    assert "second-largest eigenvalue" in capsys.readouterr().err
    assert not out.exists()


def test_memory_error_maps_to_exit_3(monkeypatch, capsys):
    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 16.0 GiB")
    monkeypatch.setattr(cli, "classify", exhausted)
    assert cli.main(["classify", "--state", "rhoB", "--sigma", "z"]) == 3
    err = capsys.readouterr().err
    assert "error (resource cap): out of memory" in err
    assert "Traceback" not in err


def test_certificate_failure_maps_to_exit_2(tmp_path, monkeypatch, capsys):
    # the certificate cannot fail for a well-formed gossip map, so the exit
    # path is exercised by injecting a failure
    def boom(*_args, **_kwargs):
        raise CertificateError("injected")
    monkeypatch.setattr(cli, "spectral_certificate", boom)
    scn = write_scenario(tmp_path)
    assert cli.main(["spectrum", scn]) == 2
    assert "certificate" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), -float("inf")])
def test_a_non_finite_result_maps_to_exit_2(tmp_path, monkeypatch, capsys, bad):
    # no well-formed run yields one, so the report is given one on its way
    # to the JSON writer
    real = cli.classify
    monkeypatch.setattr(cli, "classify",
                        lambda *args: dataclasses.replace(real(*args), ssc_gap=bad))
    out = tmp_path / "report.json"
    assert cli.main(["classify", "--state", "rhoB", "--sigma", "z", "--out", str(out)]) == 2
    assert "refusing to write a non-finite value" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# correspond
# ---------------------------------------------------------------------------

def test_correspond_writes_parallel_histories(tmp_path):
    scn = write_scenario(tmp_path, gossip={"strategy": "random", "seed": 5,
                                           "steps": 120})
    out = tmp_path / "out"
    assert cli.main(["correspond", scn, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "scn_correspondence.json").read_text())
    assert payload["max_deviation"] <= 1e-10
    assert payload["steps"] == 120
    qlines = (out / "scn_trajectory.csv").read_text().splitlines()
    clines = (out / "scn_classical.csv").read_text().splitlines()
    assert clines[1] == "t,edge,x_1,x_2,x_3,W"
    assert len(qlines) == len(clines) == 123
    # identical schedules: the edge column matches row by row
    for ql, cl in zip(qlines[2:], clines[2:]):
        assert ql.split(",")[1] == cl.split(",")[1]


def test_correspond_rejects_synchronous(tmp_path):
    scn = write_scenario(tmp_path, gossip={"strategy": "synchronous"})
    assert cli.main(["correspond", scn]) == 1


# ---------------------------------------------------------------------------
# nogo
# ---------------------------------------------------------------------------

def test_nogo_qubit_case(tmp_path, capsys):
    out_file = tmp_path / "nogo2.json"
    assert cli.main(["nogo", "2", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "feasible" in out and "infeasible" not in out
    assert "triple-Pauli" in out
    data = json.loads(out_file.read_text())
    assert data["feasible"] is True
    assert data["triple_pauli_fixed_dim"] == 0


def test_nogo_higher_dimensions(capsys):
    assert cli.main(["nogo", "5"]) == 0
    assert "infeasible" in capsys.readouterr().out
    assert cli.main(["nogo", "1"]) == 1
    assert cli.main(["nogo", "9"]) == 1


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def test_ensemble_small_run(tmp_path):
    scn = write_scenario(tmp_path, gossip={"strategy": "random", "seed": 11,
                                           "steps": 10})
    out = tmp_path / "out"
    assert cli.main(["ensemble", scn, "--trials", "10", "--horizon", "200",
                     "--out-dir", str(out)]) == 0
    payload = json.loads((out / "scn_ensemble.json").read_text())
    assert payload["successes"] == 10
    assert payload["empirical_probability"] == 1.0
    assert payload["max_distance_increase"] <= 1e-12


def test_ensemble_on_a_disconnected_graph_warns(tmp_path, capsys):
    scn = write_scenario(tmp_path, shape={"m": 4, "n": 2}, graph={"edges": [[1, 2], [3, 4]]},
                         gossip={"strategy": "random", "seed": 3}, initial_state="1100")
    with pytest.warns(UserWarning, match="disconnected"):
        code = cli.main(["ensemble", scn, "--trials", "3", "--horizon", "40",
                         "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert "0/3 trials within eps" in capsys.readouterr().out


def test_ensemble_requires_seed(tmp_path):
    scn = write_scenario(tmp_path)  # cyclic scenario carries no seed
    assert cli.main(["ensemble", scn, "--trials", "2", "--horizon", "10"]) == 1


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_unknown_command_exits_1():
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "classify" in capsys.readouterr().out
