import math
import re

import numpy as np
import pytest

from hullmle import batch, cli
from hullmle.cli import main, parse_document, render_document
from hullmle.estimate import EstimatorConfig, iterate_until_contained
from hullmle.expfam import Graph, ObservationMask, StatDef
from hullmle.hull import make_target_set, query

TRIANGLE_CSV = "-1,0\n2,1\n1,-1\n"
K4_GRAPH = "5\n2 3\n2 4\n2 5\n3 4\n3 5\n4 5\n"
K4_MASK = "1 4 0\n1 5 0\n2 3 1\n2 4 1\n2 5 1\n3 4 1\n3 5 1\n4 5 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_duration(text: str) -> str:
    return re.sub(r'"duration": [^,}]+', '"duration": _', text)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.csv"
    path.write_text(TRIANGLE_CSV)
    return str(path)


def point_file(tmp_path, name, coords):
    path = tmp_path / name
    path.write_text(",".join(repr(float(c)) for c in coords) + "\n")
    return str(path)


def matrix_file(tmp_path, name, rows):
    path = tmp_path / name
    lines = (",".join(repr(float(v)) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# document format

def test_render_parse_round_trip():
    doc = {
        "manifest": {"command": "x", "count": 3, "flag": True, "none": None},
        "result": {
            "third": 1.0 / 3.0,
            "plus": math.inf,
            "minus": -math.inf,
            "note": 'the infimum is written "inf" here',
            "rows": [[1.5, 2.0], [0.1, -0.0]],
        },
    }
    back = parse_document(render_document(doc))
    assert back == doc


def test_floats_render_with_17_significant_digits():
    rng = np.random.default_rng(11)
    values = list(rng.standard_normal(50)) + [1e-300, 1e300, 0.1, 2.0 / 3.0]
    for value in values:
        back = parse_document(render_document({"x": float(value)}))
        assert back["x"] == float(value)


def test_parse_document_keeps_inf_inside_strings():
    doc = parse_document('{"note": "inf to the left", "x": inf, "y": -inf}')
    assert doc["note"] == "inf to the left"
    assert doc["x"] == math.inf
    assert doc["y"] == -math.inf


# ---------------------------------------------------------------------------
# hull-test

def test_hull_test_interior(triangle_file, tmp_path, capsys):
    point = point_file(tmp_path, "p.csv", [1.0, 0.0])
    code, out, _ = run(capsys, "hull-test", triangle_file, point)
    assert code == 0
    doc = parse_document(out)
    assert doc["manifest"]["command"] == "hull-test"
    assert "version" in doc["manifest"]
    assert doc["manifest"]["parameters"]["centroid"] == "origin"
    result = doc["result"]
    assert result["status"] == "Interior"
    assert result["gamma"] == pytest.approx(1.5, rel=1e-12)
    assert result["boundaryPoint"] == pytest.approx([1.5, 0.0], rel=1e-9)
    assert result["hyperplane"] is None


def test_hull_test_exterior(triangle_file, tmp_path, capsys):
    point = point_file(tmp_path, "p.csv", [3.0, 2.0])
    code, out, _ = run(capsys, "hull-test", triangle_file, point)
    assert code == 1
    result = parse_document(out)["result"]
    assert result["status"] == "Exterior"
    assert result["gamma"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert result["boundaryPoint"] == pytest.approx([1.0, 2.0 / 3.0], rel=1e-9)
    assert result["hyperplane"]["offset"] == pytest.approx(1.0)
    assert result["hyperplane"]["normal"] == pytest.approx([1.0, -3.0], rel=1e-9)


def test_hull_test_boundary(triangle_file, tmp_path, capsys):
    point = point_file(tmp_path, "p.csv", [1.5, 0.0])
    code, out, _ = run(capsys, "hull-test", triangle_file, point)
    assert code == 2
    assert parse_document(out)["result"]["status"] == "Boundary"


def test_hull_test_boundary_tol_reaches_the_solver(triangle_file, tmp_path, capsys):
    # gamma = 1 / (1 + 1e-4): Exterior at the default band, Boundary in a wide one
    point = point_file(tmp_path, "p.csv", [1.5 * (1.0 + 1e-4), 0.0])
    code, out, _ = run(capsys, "hull-test", triangle_file, point)
    assert code == 1
    assert parse_document(out)["result"]["status"] == "Exterior"
    code, out, _ = run(capsys, "hull-test", triangle_file, point, "--boundary-tol", "1e-3")
    assert code == 2
    doc = parse_document(out)
    assert doc["result"]["status"] == "Boundary"
    assert doc["manifest"]["parameters"]["boundary_tol"] == 1e-3


def test_hull_test_degenerate(tmp_path, capsys):
    target = tmp_path / "line.csv"
    target.write_text("-1,0\n1,0\n2,0\n")
    point = point_file(tmp_path, "p.csv", [0.0, 1.0])
    code, out, _ = run(capsys, "hull-test", str(target), point)
    assert code == 3
    result = parse_document(out)["result"]
    assert result["status"] == "Degenerate"
    assert result["gamma"] == math.inf


def test_hull_test_mean_centroid_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(4)
    points = rng.standard_normal((40, 3)) + 2.0
    target_path = matrix_file(tmp_path, "cloud.csv", points)
    p = points.mean(axis=0) + np.array([0.05, -0.02, 0.01])
    point = point_file(tmp_path, "p.csv", list(p))
    code, out, _ = run(capsys, "hull-test", target_path, point, "--centroid", "mean")
    expected = query(make_target_set(points), p)
    assert code == 0
    assert parse_document(out)["result"]["gamma"] == expected.gamma


def test_hull_test_dimension_mismatch(triangle_file, tmp_path, capsys):
    point = point_file(tmp_path, "p.csv", [1.0, 0.0, 0.0])
    code, _, err = run(capsys, "hull-test", triangle_file, point)
    assert code == 65
    assert "coordinates" in err


def test_hull_test_point_file_must_be_single_row(triangle_file, tmp_path, capsys):
    point = tmp_path / "p.csv"
    point.write_text("1,0\n0,1\n")
    code, _, err = run(capsys, "hull-test", triangle_file, str(point))
    assert code == 65
    assert "single row" in err


def test_csv_parse_error_names_line(triangle_file, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0\n2,oops\n")
    code, _, err = run(capsys, "hull-test", str(bad), triangle_file)
    assert code == 65
    assert "line 2" in err


def test_missing_file_is_a_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "hull-test", str(tmp_path / "nope.csv"), str(tmp_path / "p.csv"))
    assert code == 65


def test_solver_arithmetic_error_is_internal_not_data(triangle_file, tmp_path, capsys,
                                                      monkeypatch):
    def failing(target, point, config=None):
        raise ArithmeticError("simplex basis solve failed: Singular matrix")

    monkeypatch.setattr(cli, "query", failing)
    point = point_file(tmp_path, "p.csv", [1.0, 0.0])
    code, _, err = run(capsys, "hull-test", triangle_file, point)
    assert code == 70
    assert "Singular matrix" in err


# ---------------------------------------------------------------------------
# min-scale and prune-curve

def write_tests(tmp_path):
    path = tmp_path / "tests.csv"
    path.write_text("1,0\n3,2\n0.1,0.1\n0,0\n")
    return str(path)


def cloud_files(tmp_path):
    # 40 points surrounding the origin; pruning to any default fraction
    # keeps the origin interior (checked when the values were frozen)
    rng = np.random.default_rng(12)
    target = matrix_file(tmp_path, "cloud.csv", rng.standard_normal((40, 2)))
    tests = matrix_file(tmp_path, "probes.csv",
                        [[0.4, 0.1], [-0.2, 0.3], [1.4, -0.6]])
    return target, tests


def test_min_scale_document(triangle_file, tmp_path, capsys):
    code, out, _ = run(capsys, "min-scale", triangle_file, write_tests(tmp_path))
    # exit reports the verdict of the least-scalable point, here Exterior
    assert code == 1
    result = parse_document(out)["result"]
    assert result["minScale"] == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert result["argmin"] == 1
    scales = result["perPointScales"]
    assert scales[0] == pytest.approx(1.5, rel=1e-9)
    assert scales[2] == pytest.approx(5.0, rel=1e-9)
    assert scales[3] == math.inf
    assert result["anyDegenerate"] is False
    assert result["targetPointsUsed"] == 3


def test_min_scale_echoes_solver_tolerances(triangle_file, tmp_path, capsys):
    tests = write_tests(tmp_path)
    _, default_out, _ = run(capsys, "min-scale", triangle_file, tests)
    code, out, _ = run(capsys, "min-scale", triangle_file, tests,
                       "--feas-tol", "1e-6", "--pivot-tol", "1e-10")
    assert code == 1
    doc = parse_document(out)
    parameters = doc["manifest"]["parameters"]
    assert parameters["feas_tol"] == 1e-6
    assert parameters["pivot_tol"] == 1e-10
    assert doc["result"] == parse_document(default_out)["result"]


def test_min_scale_deterministic_modulo_duration(triangle_file, tmp_path, capsys):
    tests = write_tests(tmp_path)
    _, first, _ = run(capsys, "min-scale", triangle_file, tests)
    _, second, _ = run(capsys, "min-scale", triangle_file, tests)
    assert strip_duration(first) == strip_duration(second)


def test_min_scale_rejects_the_removed_prune_fraction_flag(triangle_file, tmp_path,
                                                          capsys):
    code, _, err = run(capsys, "min-scale", triangle_file, write_tests(tmp_path),
                       "--prune-fraction", "0.5")
    assert code == 64
    assert "--prune-fraction" in err


def test_prune_curve_that_flattens_the_target_is_an_error(
        triangle_file, tmp_path, capsys):
    code, _, err = run(capsys, "prune-curve", triangle_file, write_tests(tmp_path),
                       "--fractions", "0.5")
    assert code == 65
    assert "rank-deficient" in err


def test_batch_commands_take_no_thread_count(triangle_file, tmp_path, capsys,
                                             monkeypatch):
    tests = write_tests(tmp_path)
    for command in ("min-scale", "prune-curve"):
        code, _, err = run(capsys, command, triangle_file, tests, "--threads", "2")
        assert code == 64
        assert "--threads" in err
    monkeypatch.setenv("HULLMLE_THREADS", "many")
    code, _, _ = run(capsys, "min-scale", triangle_file, tests)
    assert code == 1


def counted_queries(monkeypatch):
    """Record every hull query the batch layer and the CLI solve."""
    calls = []
    for module in (batch, cli):
        original = module.query

        def counting(*args, _original=original, **kwargs):
            calls.append(args[1])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "query", counting)
    return calls


def test_min_scale_solves_each_test_point_once(triangle_file, tmp_path, capsys,
                                               monkeypatch):
    calls = counted_queries(monkeypatch)
    code, _, _ = run(capsys, "min-scale", triangle_file, write_tests(tmp_path))
    assert code == 1
    assert len(calls) == 4


def test_prune_curve_monotone(tmp_path, capsys):
    target, tests = cloud_files(tmp_path)
    code, out, _ = run(capsys, "prune-curve", target, tests)
    assert code == 0
    curve = parse_document(out)["result"]["curve"]
    assert len(curve) == 10
    assert curve[0]["fraction"] == 1.0
    for left, right in zip(curve, curve[1:]):
        assert left["fraction"] > right["fraction"]
        assert right["minScale"] <= left["minScale"] + 1e-9

    _, full_out, _ = run(capsys, "min-scale", target, tests)
    assert curve[0]["minScale"] == parse_document(full_out)["result"]["minScale"]


def test_prune_curve_rejects_bad_fractions(triangle_file, tmp_path, capsys):
    code, _, err = run(capsys, "prune-curve", triangle_file, write_tests(tmp_path),
                       "--fractions", "1.0,half")
    assert code == 64
    assert "fraction" in err


@pytest.mark.parametrize("command, argv, message", [
    ("prune-curve", ("--fractions", "2"), "keep fraction must be in (0, 1], got 2.0"),
    ("prune-curve", ("--fractions", ","), "no fractions given"),
    ("estimate", ("--safety-factor", "2"), "safety factor must be in (0, 1)"),
    ("estimate", ("--r-target", "0"), "--r-target: must be an integer of at least 1"),
    ("estimate", ("--interval", "0"), "--interval: must be an integer of at least 1"),
    ("min-scale", ("--feas-tol", "-1"), "feas_tol must be positive"),
    ("demo-unbounded", ("--r-target", "0"), "--r-target: must be an integer of at least 1"),
], ids=["fractions", "no-fractions", "safety-factor", "estimate-r-target",
        "interval", "feas-tol", "demo-r-target"])
def test_out_of_range_flag_values_are_usage_errors(
        triangle_file, tmp_path, k4_files, capsys, command, argv, message):
    if command in ("min-scale", "prune-curve"):
        files = (triangle_file, write_tests(tmp_path))
    else:
        files = k4_files
    code, _, err = run(capsys, command, *files, *argv)
    assert code == 64
    assert message in err


# ---------------------------------------------------------------------------
# estimate

@pytest.fixture
def k4_files(tmp_path):
    graph = tmp_path / "k4.graph"
    graph.write_text(K4_GRAPH)
    mask = tmp_path / "k4.mask"
    mask.write_text(K4_MASK)
    return str(graph), str(mask)


def test_estimate_frozen_instance_matches_library(k4_files, capsys):
    graph, mask = k4_files
    code, out, _ = run(capsys, "estimate", graph, mask,
                       "--r-target", "75", "--s-test", "25",
                       "--safety-factor", "0.7", "--seed", "3",
                       "--max-iterations", "10")
    assert code == 0
    result = parse_document(out)["result"]
    assert result["converged"] is True
    trace = result["trace"]
    assert [row["iteration"] for row in trace] == list(range(1, len(trace) + 1))
    assert trace[0]["theta"] == [0.0, 0.0]
    assert trace[0]["multiplier"] < 1.0
    assert trace[-1]["multiplier"] >= 1.11

    cfg = EstimatorConfig(r_target=75, s_test=25, safety_factor=0.7,
                          max_outer_iterations=10, seed=3)
    g = Graph.from_pairs(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    observed = np.ones(10, dtype=bool)
    observed[[0, 1]] = False
    m = ObservationMask(observed_dyads=observed, observed_values=g.edges & observed)
    expected = iterate_until_contained(
        StatDef.from_names(["edges", "triangles"]), g, m, np.zeros(2), cfg
    )
    assert result["finalTheta"] == list(expected.final_theta)


def test_estimate_deterministic_modulo_duration(k4_files, capsys):
    graph, mask = k4_files
    argv = ("estimate", graph, mask, "--r-target", "75", "--s-test", "25",
            "--safety-factor", "0.7", "--seed", "3", "--max-iterations", "10")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert strip_duration(first) == strip_duration(second)


def test_estimate_fully_observed_converges(tmp_path, capsys):
    graph = tmp_path / "path.graph"
    graph.write_text("4\n1 2\n2 3\n3 4\n1 3\n")
    code, out, _ = run(capsys, "estimate", str(graph),
                       "--r-target", "300", "--s-test", "60", "--seed", "1")
    assert code == 0
    result = parse_document(out)["result"]
    assert result["converged"] is True
    assert result["trace"][-1]["multiplier"] >= 1.11
    assert len(result["finalTheta"]) == 2


def test_estimate_mask_value_must_match_graph(k4_files, tmp_path, capsys):
    graph, _ = k4_files
    mask = tmp_path / "bad.mask"
    mask.write_text("2 3 0\n")
    code, _, err = run(capsys, "estimate", graph, str(mask))
    assert code == 65
    assert "line 1" in err and "disagrees" in err


def test_estimate_mask_duplicate_dyad(k4_files, tmp_path, capsys):
    graph, _ = k4_files
    mask = tmp_path / "bad.mask"
    mask.write_text("2 3 1\n3 2 1\n")
    code, _, err = run(capsys, "estimate", graph, str(mask))
    assert code == 65
    assert "duplicate dyad" in err


def test_estimate_empty_mask_observes_nothing(k4_files, tmp_path, capsys):
    graph, _ = k4_files
    mask = tmp_path / "empty.mask"
    mask.write_text("\n")
    code, _, err = run(capsys, "estimate", graph, str(mask))
    assert code == 65
    assert "observes nothing" in err


def test_estimate_usage_errors(k4_files, capsys):
    graph, mask = k4_files
    code, _, err = run(capsys, "estimate", graph, mask, "--stats", "edges,cliques")
    assert code == 64
    assert "--stats" in err

    code, _, _ = run(capsys, "estimate", graph, mask, "--theta0", "1.0")
    assert code == 64

    code, out, err = run(capsys, "estimate", graph, mask, "--stop-threshold", "nan")
    assert code == 64
    assert out == ""
    assert "stop threshold must exceed 1" in err


@pytest.mark.parametrize("argv, message", [
    (("estimate", "--theta0", "0,x"), "bad --theta0: '0,x'"),
    (("estimate", "--theta0", "1.0"), "--theta0 needs 2 components"),
    (("demo-unbounded", "--theta", "0,0,0"), "--theta needs 2 components"),
    (("demo-unbounded", "--alphas", "1,two"), "bad --alphas: '1,two'"),
], ids=["bad-theta0", "theta0-count", "theta-count", "bad-alphas"])
def test_float_list_usage_errors(k4_files, capsys, argv, message):
    graph, mask = k4_files
    code, _, err = run(capsys, argv[0], graph, mask, *argv[1:])
    assert code == 64
    assert message in err


def test_float_lists_skip_empty_tokens(k4_files, capsys):
    graph, mask = k4_files
    results = []
    for theta in ("0,,0", "0,0"):
        code, out, _ = run(capsys, "demo-unbounded", graph, mask, "--theta", theta,
                           "--alphas", "1,,2,", "--r-target", "75", "--s-test", "25")
        assert code == 0
        results.append(parse_document(out)["result"])
    assert results[0] == results[1]
    assert results[0]["alphas"] == [1.0, 2.0]


def test_graph_file_errors(tmp_path, capsys):
    point = point_file(tmp_path, "p.csv", [0.0, 0.0])

    bad = tmp_path / "a.graph"
    bad.write_text("four\n1 2\n")
    code, _, err = run(capsys, "estimate", str(bad))
    assert code == 65 and "line 1" in err

    bad.write_text("4\n0 2\n")
    code, _, err = run(capsys, "estimate", str(bad))
    assert code == 65 and "bad edge" in err

    bad.write_text("4\n1 2\n2 1\n")
    code, _, err = run(capsys, "estimate", str(bad))
    assert code == 65 and "duplicate edge" in err

    bad.write_text("")
    code, _, err = run(capsys, "estimate", str(bad))
    assert code == 65


def test_cli_usage_exit(capsys):
    assert run(capsys, "no-such-command")[0] == 64
    assert run(capsys)[0] == 64


# ---------------------------------------------------------------------------
# demo-unbounded

def test_demo_unbounded_frozen_instance(k4_files, capsys):
    graph, mask = k4_files
    code, out, _ = run(capsys, "demo-unbounded", graph, mask,
                       "--r-target", "75", "--s-test", "25", "--seed", "0")
    assert code == 0
    result = parse_document(out)["result"]
    assert result["minScale"] < 1.0
    assert len(result["direction"]) == 2
    assert result["alphas"] == [1.0, 2.0, 4.0, 8.0, 16.0]
    estimates = result["logRatioEstimates"]
    assert len(estimates) == 5
    assert all(b > a for a, b in zip(estimates, estimates[1:]))
    assert result["strictlyIncreasing"] is True


def test_demo_unbounded_solves_each_test_point_once(k4_files, capsys, monkeypatch):
    calls = counted_queries(monkeypatch)
    code, _, _ = run(capsys, "demo-unbounded", *k4_files,
                     "--r-target", "75", "--s-test", "25", "--seed", "0")
    assert code == 0
    assert len(calls) == 25


def test_demo_unbounded_contained_case_is_an_error(tmp_path, capsys):
    graph = tmp_path / "path.graph"
    graph.write_text("4\n1 2\n2 3\n3 4\n1 3\n")
    code, _, err = run(capsys, "demo-unbounded", str(graph),
                       "--r-target", "300", "--s-test", "50", "--seed", "1")
    assert code == 65
    assert "contained" in err
