import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_chroma import cli, covering, geometry, graph_core, translate_coloring
from convex_chroma.cli import EXIT_CAPPED, EXIT_FAULT, EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main
from convex_chroma.constructions import pentagon_family, random_family
from convex_chroma.families import load_family, save_family, translates
from convex_chroma.geometry import ConsistencyError, ConvexBody
from convex_chroma.graph_core import build_graph, from_dimacs
from conftest import family_of, strip_family


def run(args: list[str]) -> int:
    return main(args)


@pytest.fixture
def pentagon2(tmp_path):
    path = tmp_path / "p2.json"
    assert run(["generate", "pentagon", "--k", "2", "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture
def grid2(tmp_path):
    path = tmp_path / "g2.json"
    assert run(["generate", "grid", "--body", "square", "--m", "2", "--out", str(path)]) == EXIT_OK
    return path


class TestGenerate:
    def test_pentagon_member_count(self, pentagon2):
        assert len(load_family(pentagon2)) == 10

    def test_grid_member_count(self, grid2):
        assert len(load_family(grid2)) == 16

    def test_random_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["generate", "random", "--body", "disk", "--count", "20", "--seed", "42"]
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bad_body(self, tmp_path):
        assert run(["generate", "grid", "--body", "pentagonzoid",
                    "--out", str(tmp_path / "x.json")]) == EXIT_INPUT

    def test_box_body_needs_sides(self, tmp_path):
        assert run(["generate", "grid", "--body", "box",
                    "--out", str(tmp_path / "x.json")]) == EXIT_INPUT
        assert run(["generate", "grid", "--body", "box", "--sides", "1,1,1", "--m", "1",
                    "--out", str(tmp_path / "b.json")]) == EXIT_OK


class TestColor:
    def test_grid_translates(self, grid2, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["color", "--in", str(grid2), "--method", "translates",
                    "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        colors = rep["outputs"]["coloring"]["colors_used"]
        assert 9 <= colors <= 18
        assert rep["all_passed"]
        assert "wall_time_ms" not in rep  # canonical bytes exclude volatile fields

    def test_homothets_on_random(self, tmp_path):
        fam = tmp_path / "h.json"
        out = tmp_path / "rep.json"
        assert run(["generate", "random", "--body", "square", "--count", "30",
                    "--scales", "1,3", "--seed", "7", "--out", str(fam)]) == EXIT_OK
        assert run(["color", "--in", str(fam), "--method", "homothets",
                    "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["outputs"]["coloring"]["kappa_ub"] == 4

    def test_translates_flag_on_mixed_scale_errors(self, tmp_path):
        fam = tmp_path / "h.json"
        assert run(["generate", "random", "--body", "square", "--count", "5",
                    "--scales", "1,3", "--seed", "1", "--out", str(fam)]) == EXIT_OK
        assert run(["color", "--in", str(fam), "--method", "translates",
                    "--out", str(tmp_path / "r.json")]) == EXIT_INPUT

    def test_symmetrized(self, pentagon2, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["color", "--in", str(pentagon2), "--method", "symmetrized",
                    "--seed", "5", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["outputs"]["coloring"]["method"] == "corollary1"
        assert rep["outputs"]["coloring"]["seed"] == rep["seed"] == 5


class TestPartition:
    def test_grid_translates(self, grid2, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["partition", "--in", str(grid2), "--method", "translates",
                    "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["outputs"]["partition"]["classes_used"] <= 8  # 2 * nu with nu = 4

    def test_homothets_on_pentagon_disjoint(self, tmp_path):
        fam = tmp_path / "pd2.json"
        out = tmp_path / "rep.json"
        assert run(["generate", "pentagon-disjoint", "--k", "2", "--out", str(fam)]) == EXIT_OK
        assert run(["partition", "--in", str(fam), "--method", "homothets",
                    "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        classes = rep["outputs"]["partition"]["classes_used"]
        assert 4 <= classes <= 4 * (4 - 1) + 1  # nu = 4, kappa = 4

    def test_empty_family(self, tmp_path):
        fam = tmp_path / "empty.json"
        fam.write_text('{"body": {"kind": "box", "sides": [1,1]}, "placements": [], "meta": {}}\n')
        out = tmp_path / "rep.json"
        assert run(["partition", "--in", str(fam), "--method", "translates",
                    "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["outputs"]["partition"]["classes_used"] == 0


class TestVerify:
    def test_pentagon_all_pass(self, pentagon2, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify", "--in", str(pentagon2), "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["oracles"]["chi"] == 5
        assert rep["all_passed"]

    def test_grid_pass_with_theta_equal_nu(self, grid2, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify", "--in", str(grid2), "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["oracles"]["theta"] == 4 and rep["oracles"]["nu"] == 4

    def test_corrupted_claim_fails(self, pentagon2, tmp_path, capsys):
        claim = tmp_path / "claim.json"
        claim.write_text('{"omega": 7}')
        out = tmp_path / "rep.json"
        assert run(["verify", "--in", str(pentagon2), "--expect", str(claim),
                    "--out", str(out)]) == EXIT_VIOLATION
        err = capsys.readouterr().err
        assert "claim mismatch" in err

    def test_correct_claims_pass(self, pentagon2, tmp_path):
        claim = tmp_path / "claim.json"
        claim.write_text('{"omega": 4, "chi": 5, "nu": 2, "theta": 3}')
        assert run(["verify", "--in", str(pentagon2), "--expect", str(claim),
                    "--out", str(tmp_path / "r.json")]) == EXIT_OK

    @pytest.mark.parametrize("text", [
        '{"omega": null}', '{"omega": [4]}', '[1, 2]', '{"omega": 4.5}', '{"chi": "5"}',
        '{"nu": true}', '"omega"', '{"alpha": 99}', '{"omega": 4, "thetta": 3}',
    ])
    def test_malformed_claims_exit_4_with_one_line(self, pentagon2, tmp_path, capsys, text):
        claim = tmp_path / "claim.json"
        claim.write_text(text)
        out = tmp_path / "rep.json"
        assert run(["verify", "--in", str(pentagon2), "--expect", str(claim),
                    "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_malformed_claims_exit_4_before_the_graph_is_built(self, pentagon2, tmp_path,
                                                               monkeypatch):
        claim = tmp_path / "claim.json"
        claim.write_text('{"omega": null}')
        calls = []

        def counted(family):
            calls.append(len(family))
            return build_graph(family)

        monkeypatch.setattr(cli, "build_graph", counted)
        assert run(["verify", "--in", str(pentagon2), "--expect", str(claim),
                    "--out", str(tmp_path / "rep.json")]) == EXIT_INPUT
        assert calls == []
        claim.write_text('{"omega": 4}')
        assert run(["verify", "--in", str(pentagon2), "--expect", str(claim),
                    "--out", str(tmp_path / "rep.json")]) == EXIT_OK
        assert calls == [10]

    def test_capped_exit(self, grid2, tmp_path):
        assert run(["verify", "--in", str(grid2), "--caps", "omega=100,chi=10",
                    "--out", str(tmp_path / "r.json")]) == EXIT_CAPPED

    def test_caps_env_override(self, grid2, tmp_path, monkeypatch):
        monkeypatch.setenv("CONVEX_CHROMA_CAPS", "omega=100,chi=10")
        assert run(["verify", "--in", str(grid2),
                    "--out", str(tmp_path / "r.json")]) == EXIT_CAPPED

    def test_explicit_caps_win_over_the_environment(self, grid2, tmp_path, monkeypatch):
        monkeypatch.setenv("CONVEX_CHROMA_CAPS", "omega=100,chi=10")
        assert run(["verify", "--in", str(grid2), "--caps", "omega=100,chi=45",
                    "--out", str(tmp_path / "r.json")]) == EXIT_OK

    def test_byte_identical_reports(self, pentagon2, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "--in", str(pentagon2), "--seed", "1", "--out", str(a)]) == EXIT_OK
        assert run(["verify", "--in", str(pentagon2), "--seed", "1", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        assert run(["verify", "--in", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "r.json")]) == EXIT_INPUT

    def test_searches_deeper_than_the_recursion_limit_end_in_an_exit_code(self, tmp_path):
        # pentagon k=3 plus 1,050 isolated squares: nu = 1,052, and the
        # colorings of the graph and its complement stack ~1,000 frames
        fam = pentagon_family(3)
        i = np.arange(1050)
        extra = np.column_stack([10.0 + 3 * (i % 35), 10.0 + 3 * (i // 35)])
        path = tmp_path / "big.json"
        save_family(translates(fam.body, np.vstack([fam.centers(), extra])), path)
        out = tmp_path / "r.json"
        assert run(["verify", "--in", str(path), "--caps", "omega=2000,chi=2000",
                    "--out", str(out)]) == EXIT_OK
        oracles = json.loads(out.read_text())["oracles"]
        assert (oracles["omega"], oracles["nu"], oracles["chi"], oracles["theta"]) == \
            (6, 1052, 8, 1053)


class TestSamples:
    """--samples is checked once, before anything is built, whether or not the
    command draws samples (translates and closed-form covers draw none)."""

    @pytest.mark.parametrize("command", [
        ["color", "--method", "translates"], ["color", "--method", "homothets"],
        ["color", "--method", "symmetrized"], ["partition", "--method", "translates"],
        ["partition", "--method", "homothets"], ["verify"],
    ])
    @pytest.mark.parametrize("samples", ["5", "999"])
    def test_too_few_exit_4_with_one_line(self, pentagon2, tmp_path, capsys, command, samples):
        out = tmp_path / "rep.json"
        assert run([*command, "--in", str(pentagon2), "--samples", samples,
                    "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "at least 1000" in err[0]
        assert not out.exists()

    def test_the_minimum_is_accepted(self, pentagon2, tmp_path):
        assert run(["color", "--in", str(pentagon2), "--method", "homothets",
                    "--samples", "1000", "--out", str(tmp_path / "r.json")]) == EXIT_OK


class TestMalformedInput:
    @pytest.mark.parametrize("placement", [
        '{"center": [0, 0], "scale": NaN}',
        '{"center": [Infinity, 0], "scale": 1}',
        '{"scale": 1}',
    ], ids=["nan-scale", "infinite-center", "no-center"])
    def test_exits_invalid_input_quickly(self, placement, tmp_path, capsys):
        fam = tmp_path / "bad.json"
        fam.write_text('{"body": {"kind": "polygon2d", "vertices": [[0, 0], [1, 0], [0, 1]]}, '
                       '"placements": [{"center": [0.5, 0.5], "scale": 1}, '
                       f'{placement}], "meta": {{}}}}\n')
        t0 = time.perf_counter()
        assert run(["verify", "--in", str(fam), "--out", str(tmp_path / "r.json")]) == EXIT_INPUT
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("placement, message", [
        ('{"center": ["1", 0], "scale": 1}', "centers must be lists of 2 numbers"),
        ('{"center": [0.5, 0.5], "scale": "2"}', "scales must be numbers"),
        ('{"center": [true, 0], "scale": 1}', "centers must be lists of 2 numbers"),
        ('{"center": [0.5, 0.5], "scale": true}', "scales must be numbers"),
        ('{"center": [0.5, 0.5, 0.5], "scale": 1}', "lists of 2 numbers, the body dimension"),
        ('{"center": [[0], [0]], "scale": 1}', "lists of 2 numbers, the body dimension"),
    ], ids=["string-coordinate", "string-scale", "boolean-coordinate", "boolean-scale",
            "ragged-centers", "nested-center"])
    def test_non_numbers_and_wrong_shapes_exit_4_with_one_line(self, placement, message,
                                                                 tmp_path, capsys):
        fam = tmp_path / "bad.json"
        fam.write_text('{"body": {"kind": "box", "sides": [1, 1]}, '
                       '"placements": [{"center": [0.5, 0.5], "scale": 1}, '
                       f'{placement}], "meta": {{}}}}\n')
        out = tmp_path / "r.json"
        assert run(["color", "--in", str(fam), "--method", "homothets",
                    "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert not out.exists()


def _raise(exc: Exception):
    def raising(*args, **kwargs):
        raise exc
    return raising


class TestExitCodes:
    """Every failure kind ends in its documented exit code with exactly one
    `error:` line on stderr, never a traceback."""

    @pytest.fixture
    def far(self, tmp_path):
        # centers at 1e300: beyond the float resolution of the lattice offsets
        path = tmp_path / "far.json"
        save_family(translates(ConvexBody.unit_square(), [(1e300, 1e300), (1e300, -1e300)]),
                    path)
        return path

    @pytest.fixture
    def mixed(self, tmp_path):
        path = tmp_path / "mixed.json"
        save_family(family_of(ConvexBody.unit_square(), [((0.0, 0.0), 1.0), ((0.5, 0.5), 2.0)]),
                    path)
        return path

    @pytest.fixture
    def deep(self, tmp_path):
        # nested deeper than the JSON parser's recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        return path

    @pytest.mark.parametrize("args,inject,code,message", [
        (["color", "--in", "{p2}", "--method", "bogus"], None, EXIT_INPUT, "invalid choice"),
        (["color", "--in", "{p2}", "--samples", "abc"], None, EXIT_INPUT, "invalid int"),
        (["verify"], None, EXIT_INPUT, "required: --in"),
        (["color", "--in", "{far}", "--method", "translates"], None, EXIT_INPUT,
         "beyond the int64 range of the line keys"),
        (["verify", "--in", "{far}"], None, EXIT_INPUT, "beyond the int64 range of the line keys"),
        (["color", "--in", "{mixed}", "--method", "translates"], None, EXIT_INPUT,
         "the translates method needs a uniform-scale family"),
        (["color", "--in", "{mixed}", "--method", "symmetrized"], None, EXIT_INPUT,
         "the symmetrized method needs a uniform-scale family"),
        (["verify", "--in", "{deep}"], None, EXIT_INPUT, "nested too deeply"),
        (["verify", "--in", "{p2}", "--expect", "{deep}"], None, EXIT_INPUT, "nested too deeply"),
        (["export", "--in", "{p2}", "--format", "svg", "--coloring", "{deep}"], None,
         EXIT_INPUT, "nested too deeply"),
        (["color", "--in", "{p2}"], ConsistencyError("injected"), EXIT_FAULT,
         "error: internal fault (ConsistencyError): injected"),
        (["color", "--in", "{p2}"], RecursionError("maximum recursion depth exceeded"),
         EXIT_FAULT, "error: internal fault (RecursionError): maximum recursion depth exceeded"),
    ], ids=["bad-choice", "bad-int", "missing-in", "far-color", "far-verify",
            "mixed-translates", "mixed-symmetrized", "deep-family", "deep-claims",
            "deep-coloring", "consistency-fault", "recursion-fault"])
    def test_failure_ends_in_its_code_with_one_error_line(
            self, pentagon2, far, mixed, deep, tmp_path, capsys, monkeypatch, args, inject,
            code, message):
        if inject is not None:
            monkeypatch.setattr(cli, "translate_pipeline", _raise(inject))
        out = tmp_path / "rep.json"
        argv = [a.format(p2=pentagon2, far=far, mixed=mixed, deep=deep)
                for a in args] + ["--out", str(out)]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if "error: " in line]
        assert len(lines) == 1 and message in lines[0]
        assert not out.exists()

    def test_augmenting_paths_deeper_than_the_recursion_limit_end_capped(self, tmp_path):
        # one class of 1,600 squares whose Kuhn matching walks 1,274 steps deep
        fam = strip_family()
        path, out = tmp_path / "strip.json", tmp_path / "r.json"
        save_family(fam, path)
        assert run(["verify", "--in", str(path), "--out", str(out)]) == EXIT_CAPPED
        rep = json.loads(out.read_text())
        assert rep["all_passed"]
        y = fam.centers()[:, 1]
        meets = np.abs(y[:, None] - y[None, :]) <= 1.0
        np.fill_diagonal(meets, False)
        colors = np.array(rep["outputs"]["coloring_translates"]["colors"])
        classes = np.array(rep["outputs"]["partition_translates"]["classes_assign"])
        same_class = classes[:, None] == classes[None, :]
        np.fill_diagonal(same_class, False)
        assert not (meets & (colors[:, None] == colors[None, :])).any()
        assert meets[same_class].all()

    @pytest.mark.parametrize("args", [["--help"], ["color", "--help"]])
    def test_help_exits_0(self, capsys, args):
        assert run(args) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ") and captured.err == ""

    def test_thin_triangle_is_rejected_before_it_exhausts_memory(self, tmp_path):
        # the lattice cover of this valid triangle would be a 72,009 x 101,000
        # boolean matrix (6.8 GiB); under a 2 GiB address-space limit it must
        # end in exit 4, quickly, not in a MemoryError
        pytest.importorskip("resource")
        path = tmp_path / "thin.json"
        save_family(translates(ConvexBody.polygon([(0, 0), (1, 0), (1, 0.001)]), [(0.0, 0.0)]),
                    path)
        limit = 2 << 30
        script = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))"
                  f"; from convex_chroma.cli import main; sys.exit(main(sys.argv[1:]))")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        for command in (["verify"], ["color", "--method", "symmetrized"]):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", script, *command, "--in", str(path),
                                   "--out", str(tmp_path / "r.json")],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert time.perf_counter() - t0 < 10.0
            assert proc.returncode == EXIT_INPUT, proc.stderr
            assert proc.stderr.splitlines() == [
                "error: lattice cover too large: 72009 lattice points x 101000 sample points "
                "exceed 268435456 coverage entries"]


_BODIES = [
    {"kind": "polygon2d", "vertices": [[0, 0], [1, 0], [0, 1]]},
    {"kind": "box", "sides": [1, 1]},
    {"kind": "disk"},
]
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.text(max_size=3),
                  st.just([]), st.just({}), st.just([1, "a"]),
                  st.sampled_from([math.nan, math.inf, -math.inf]))
_NUMBER = (int, float)


def _slots(node):
    """Every (container, key) slot under a parsed JSON node, depth first."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


@st.composite
def _malformed_family(draw) -> dict:
    """A valid family of at most 8 members with one structural defect."""
    uniform = draw(st.booleans())
    coord = st.floats(0, 4)
    fam = {
        "body": copy.deepcopy(draw(st.sampled_from(_BODIES))),
        "placements": [{"center": [draw(coord), draw(coord)],
                        "scale": 1.0 if uniform else draw(st.floats(0.5, 2))}
                       for _ in range(draw(st.integers(1, 8)))],
        "meta": {},
    }
    slots = list(_slots(fam))
    defect = draw(st.sampled_from(["missing", "retyped", "non-finite", "dimension",
                                   "clockwise", "non-convex", "no-placements"]))
    if defect == "missing":
        container, key = draw(st.sampled_from([s for s in slots if isinstance(s[0], dict)]))
        del container[key]
    elif defect == "retyped":
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(_JUNK)
    elif defect == "non-finite":
        container, key = draw(st.sampled_from(
            [s for s in slots if type(s[0][s[1]]) in _NUMBER]))
        container[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif defect == "dimension":
        vectors = [s[0][s[1]] for s in slots if isinstance(s[0][s[1]], list)
                   and s[0][s[1]] and all(type(x) in _NUMBER for x in s[0][s[1]])]
        vector = draw(st.sampled_from(vectors))
        if draw(st.booleans()):
            vector.append(0.5)
        else:
            vector.pop()
    elif defect == "clockwise":
        fam["body"] = {"kind": "polygon2d", "vertices": [[0, 0], [0, 1], [1, 0]]}
    elif defect == "non-convex":
        fam["body"] = {"kind": "polygon2d",
                       "vertices": [[0, 0], [1, 0], [0.2, 0.2], [0, 1]]}
    else:
        fam["placements"] = []
    return fam


class TestMalformedFamilyCorpus:
    @settings(max_examples=60)
    @given(fam=_malformed_family(), method=st.sampled_from(["translates", "homothets",
                                                            "symmetrized"]))
    def test_every_command_ends_in_a_documented_code(self, fam, method):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fam.json"
            path.write_text(json.dumps(fam))
            for command in (["color", "--method", method], ["partition", "--method", method],
                            ["verify"]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([*command, "--in", str(path), "--samples", "1000",
                                 "--out", str(Path(tmp) / "rep.json")])
                assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_CAPPED, EXIT_INPUT), err.getvalue()
                assert "Traceback" not in err.getvalue()
                if code == EXIT_INPUT:
                    assert err.getvalue().startswith("error: ")
                    assert len(err.getvalue().splitlines()) == 1


def _count_calls(monkeypatch, names: list[str], module=cli) -> dict[str, int]:
    """Count calls made through the module-global names of `module`."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def _exact_clique_values(monkeypatch) -> list[int]:
    """Record the value of every exact max_clique result, from the CLI or
    from inside graph_core."""
    exact = []
    original = graph_core.max_clique

    def counted(g, cap=graph_core.DEFAULT_OMEGA_CAP):
        res = original(g, cap=cap)
        if not res.capped:
            exact.append(res.value)
        return res

    monkeypatch.setattr(graph_core, "max_clique", counted)
    monkeypatch.setattr(cli, "max_clique", counted)
    return exact


class TestRunContext:
    def test_translate_verify_builds_each_artefact_once(self, tmp_path, monkeypatch):
        fam = tmp_path / "t.json"
        assert run(["generate", "random", "--body", "triangle", "--count", "12",
                    "--window", "0,3", "--seed", "3", "--out", str(fam)]) == EXIT_OK
        counts = _count_calls(monkeypatch, ["max_clique", "max_independent_set",
                                            "symmetrized_family", "translate_pipeline"])
        assert run(["verify", "--in", str(fam), "--samples", "20000",
                    "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert counts == dict.fromkeys(counts, 1)

    def test_translate_verify_builds_one_graph_and_one_complement(self, tmp_path, monkeypatch):
        fam = tmp_path / "t.json"
        assert run(["generate", "random", "--body", "triangle", "--count", "12",
                    "--window", "0,3", "--seed", "3", "--out", str(fam)]) == EXIT_OK
        original = graph_core.IntersectionGraph.from_matrix
        sizes = []

        def counted(adj):
            sizes.append(len(adj))
            return original(adj)

        monkeypatch.setattr(graph_core.IntersectionGraph, "from_matrix", staticmethod(counted))
        assert run(["verify", "--in", str(fam), "--samples", "20000",
                    "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert sizes == [12, 12]   # the graph, then the one complement nu and theta share

    def test_translate_color_computes_adjacency_once(self, tmp_path, monkeypatch):
        fam = tmp_path / "t.json"
        assert run(["generate", "random", "--body", "triangle", "--count", "40",
                    "--window", "0,5", "--seed", "3", "--out", str(fam)]) == EXIT_OK
        original = geometry.pairwise_adjacency
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return original(*args, **kwargs)

        for module in (geometry, graph_core, translate_coloring):
            if getattr(module, "pairwise_adjacency", None) is original:
                monkeypatch.setattr(module, "pairwise_adjacency", counted)
        rep = tmp_path / "r.json"
        assert run(["color", "--in", str(fam), "--method", "translates",
                    "--out", str(rep)]) == EXIT_OK
        classes = json.loads(rep.read_text())["outputs"]["coloring"]["classes"]
        assert len(classes) > 1
        assert calls == [40]

    def test_verify_searches_omega_and_nu_once_each(self, tmp_path, monkeypatch):
        fam = tmp_path / "p3.json"
        assert run(["generate", "pentagon", "--k", "3", "--out", str(fam)]) == EXIT_OK
        exact = _exact_clique_values(monkeypatch)
        assert run(["verify", "--in", str(fam), "--samples", "20000",
                    "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert sorted(exact) == [2, 6]  # nu = 2 and omega = 2k of C5[K_3]

    def test_csv_export_searches_omega_and_alpha_once_each(self, tmp_path, monkeypatch):
        fam = tmp_path / "p3.json"
        assert run(["generate", "pentagon", "--k", "3", "--out", str(fam)]) == EXIT_OK
        exact = _exact_clique_values(monkeypatch)
        assert run(["export", "--in", str(fam), "--format", "csv",
                    "--out", str(tmp_path / "inv.csv")]) == EXIT_OK
        assert sorted(exact) == [2, 6]  # alpha = 2 and omega = 2k of C5[K_3]

    def test_homothet_verify_builds_the_certificate_once(self, tmp_path, monkeypatch):
        fam = tmp_path / "h.json"
        assert run(["generate", "random", "--body", "triangle", "--count", "12",
                    "--scales", "0.5,2", "--seed", "5", "--out", str(fam)]) == EXIT_OK
        counts = _count_calls(monkeypatch, ["known_certificate", "cover_by_translates"],
                              module=covering)
        assert run(["verify", "--in", str(fam), "--samples", "20000",
                    "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert counts == {"known_certificate": 1, "cover_by_translates": 1}


class TestExport:
    def test_dimacs_c5(self, tmp_path):
        fam = tmp_path / "p1.json"
        out = tmp_path / "g.dimacs"
        assert run(["generate", "pentagon", "--k", "1", "--out", str(fam)]) == EXIT_OK
        assert run(["export", "--in", str(fam), "--format", "dimacs",
                    "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("p edge 5 5\n")

    def test_dimacs_grid_and_reimport(self, grid2, tmp_path):
        out = tmp_path / "g.dimacs"
        assert run(["export", "--in", str(grid2), "--format", "dimacs",
                    "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.startswith("p edge 16 ")
        again = from_dimacs(text)
        assert again.rows == build_graph(load_family(grid2)).rows

    def test_svg_with_five_fill_classes(self, pentagon2, tmp_path):
        rep = tmp_path / "rep.json"
        out = tmp_path / "fam.svg"
        assert run(["color", "--in", str(pentagon2), "--method", "translates",
                    "--out", str(rep)]) == EXIT_OK
        assert run(["export", "--in", str(pentagon2), "--format", "svg",
                    "--coloring", str(rep), "--out", str(out)]) == EXIT_OK
        fills = set(re.findall(r'fill="(#\w+)"', out.read_text()))
        used = json.loads(rep.read_text())["outputs"]["coloring"]["colors_used"]
        assert len(fills) == min(used, 12)

    def test_svg_via_explicit_color_list(self, pentagon2, tmp_path):
        colors = tmp_path / "colors.json"
        from convex_chroma.constructions import explicit_pentagon_coloring

        colors.write_text(json.dumps(list(explicit_pentagon_coloring(2))))
        out = tmp_path / "fam.svg"
        assert run(["export", "--in", str(pentagon2), "--format", "svg",
                    "--coloring", str(colors), "--out", str(out)]) == EXIT_OK
        fills = set(re.findall(r'fill="(#\w+)"', out.read_text()))
        assert len(fills) == 5

    @pytest.mark.parametrize("obj", [
        {"colors": [None] * 10}, {"outputs": []}, {"colors": 5}, [1.5] * 10,
        {"outputs": {"coloring": {"colors": [True] * 10}}}, {"outputs": {"coloring": 3}}, "0",
    ])
    def test_svg_malformed_coloring_exits_4_with_one_line(self, pentagon2, tmp_path, capsys,
                                                          obj):
        colors = tmp_path / "colors.json"
        colors.write_text(json.dumps(obj))
        assert run(["export", "--in", str(pentagon2), "--format", "svg",
                    "--coloring", str(colors), "--out", str(tmp_path / "x.svg")]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_svg_rejects_3d(self, tmp_path):
        fam = tmp_path / "b3.json"
        assert run(["generate", "grid", "--body", "box", "--sides", "1,1,1", "--m", "1",
                    "--out", str(fam)]) == EXIT_OK
        assert run(["export", "--in", str(fam), "--format", "svg",
                    "--out", str(tmp_path / "x.svg")]) == EXIT_INPUT

    # family_svg digests, pinned so that every drawn element keeps its bytes
    SVG_SHA256 = {
        ("disk", False): "b19d60115277866f0e1ef00b70025176287802147c20713e6cd29d1b9b7785e5",
        ("disk", True): "1915c1283bacf514268c951f82dc3513798c9dfe229f098bca3a2f1e476d5bb4",
        ("box", False): "f82ff4e08d3ebadd69f02a74c9c5705f41e6d892422d672feac9f50669116b39",
        ("box", True): "48657876201fa732ab7cd969a8382b69e4b611277944ad380bb01827e7a8f877",
        ("triangle", False): "25b963949798bcf3e7e587f86bd650b3921d06df66814d3a8a043112400058ad",
        ("triangle", True): "dea5d20442d5370de0f913abac009289c9169ef808ab79f3414b6bd082e10d79",
    }

    @pytest.mark.parametrize("colored", [False, True], ids=["plain", "colored"])
    @pytest.mark.parametrize("name", ["disk", "box", "triangle"])
    def test_svg_bytes_are_pinned(self, name, colored):
        body = {"disk": ConvexBody.disk(), "box": ConvexBody.box((2.0, 0.5)),
                "triangle": ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])}[name]
        fam = random_family(body, 9, (0, 4), scale_range=(0.5, 2.0), seed=11)
        colors = [(3 * i) % 13 for i in range(len(fam))] if colored else None
        digest = hashlib.sha256(cli.family_svg(fam, colors).encode()).hexdigest()
        assert digest == self.SVG_SHA256[name, colored]

    def test_csv(self, grid2, tmp_path):
        out = tmp_path / "inv.csv"
        assert run(["export", "--in", str(grid2), "--format", "csv",
                    "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "invariant,value,capped,lower,upper"
        values = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
        assert values["omega"] == "9" and values["theta"] == "4"

    def test_csv_capped_chi_and_theta_take_the_exact_omega_and_alpha(self, tmp_path):
        # chi-cap < n <= omega-cap: the capped rows' lower bound is the exact
        # omega (alpha), where a greedy clique gave 3 (5) before
        fam = tmp_path / "r.json"
        out = tmp_path / "inv.csv"
        assert run(["generate", "random", "--body", "triangle", "--count", "12",
                    "--window", "0,3", "--seed", "1", "--out", str(fam)]) == EXIT_OK
        assert run(["export", "--in", str(fam), "--format", "csv", "--caps", "omega=100,chi=5",
                    "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[1:5] == ["omega,4,False,,", "alpha,6,False,,",
                             "chi,,True,4,4", "theta,,True,6,6"]

    def test_disk_and_square_commands_import_no_scipy(self, grid2, tmp_path):
        # the disk's and the box's fits and covers are closed forms, so a
        # fresh process verifies and exports them without importing scipy
        disk = tmp_path / "disk.json"
        save_family(random_family(ConvexBody.disk(), 20, (0, 6), seed=3), disk)
        script = (
            "import sys\n"
            "from convex_chroma.cli import main\n"
            "disk, grid, out = sys.argv[1:]\n"
            "codes = [main(['verify', '--in', disk, '--out', out + '-disk.json']),\n"
            "         main(['verify', '--in', grid, '--out', out + '-grid.json']),\n"
            "         main(['export', '--in', disk, '--format', 'csv', '--out', out + '.csv'])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script, str(disk), str(grid2),
                               str(tmp_path / "r")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{[EXIT_OK] * 3} []"
        assert (tmp_path / "r.csv").read_text().startswith("invariant,value,capped")


class TestFamilyRoundTrip:
    def test_load_save_byte_stable(self, pentagon2, tmp_path):
        fam = load_family(pentagon2)
        path = tmp_path / "resaved.json"
        save_family(fam, path)
        assert path.read_bytes() == pentagon2.read_bytes()
