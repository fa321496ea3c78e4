import contextlib
import errno
import io
import os
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turncover import bench, pipeline
from turncover.cli import main, plan_record_text

STRIP = "00000\n00000\n"
BLOCKED = "11\n11\n"


@pytest.fixture
def strip_map(tmp_path):
    path = tmp_path / "strip.grid"
    path.write_text(STRIP)
    return str(path)


class TestTile:
    def test_strip_single_brick(self, strip_map, tmp_path, capsys):
        out = tmp_path / "tiling.txt"
        assert main(["tile", "--map", strip_map, "--out", str(out)]) == 0
        assert "R=1" in capsys.readouterr().out
        # 5-wide map pads to 6: the padded third mega cell is occupied
        assert out.read_text().split() == ["0", "0", "."]

    def test_fig_like_map_three_bricks(self, tmp_path, capsys):
        # 4x3 mega cells, all free: three one-row bricks
        path = tmp_path / "grid.map"
        path.write_text(("0" * 8 + "\n") * 6)
        assert main(["tile", "--map", str(path)]) == 0
        assert "S=12 T=9 R=3" in capsys.readouterr().out

    def test_all_obstacles_fails(self, tmp_path, capsys):
        path = tmp_path / "blocked.map"
        path.write_text(BLOCKED)
        assert main(["tile", "--map", str(path)]) == 1
        assert capsys.readouterr().err == (
            "planning error: map has no fully free mega cell\n")
        path.write_bytes(b"0\xe90\n00\n")  # non-ASCII glyph
        for command in ("tile", "tree", "plan"):
            assert main([command, "--map", str(path)]) == 1
            assert capsys.readouterr().err.startswith("parse error:")

    def test_missing_file(self, capsys):
        assert main(["tile", "--map", "/nonexistent.map"]) == 1
        assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tile", "tree", "plan"])
def test_map_errors_print_one_full_line(command, tmp_path, capsys):
    # a map that cannot be read or parsed: the category, then the error's
    # own text, and nothing on stdout
    missing, bad = tmp_path / "missing.grid", tmp_path / "bad.grid"
    bad.write_text("00\n0x\n")
    cases = [
        (missing, f"io error: [Errno {errno.ENOENT}] "
                  f"{os.strerror(errno.ENOENT)}: {str(missing)!r}\n"),
        (tmp_path, f"io error: [Errno {errno.EISDIR}] "
                   f"{os.strerror(errno.EISDIR)}: {str(tmp_path)!r}\n"),
        (bad, "parse error: unknown glyph 'x' in row 1\n"),
    ]
    for path, line in cases:
        assert main([command, "--map", str(path)]) == 1
        assert capsys.readouterr() == ("", line)


class TestTree:
    def test_edge_list_and_svg(self, strip_map, tmp_path, capsys):
        out = tmp_path / "tree.txt"
        svg = tmp_path / "tree.svg"
        code = main(
            ["tree", "--map", strip_map, "--out", str(out), "--svg", str(svg)]
        )
        assert code == 0
        assert out.read_text().count("\n") == 1  # 2 mega cells, 1 edge
        content = svg.read_text()
        assert content.count("tree-edge") == 1
        assert content.count('class="brick"') == 1

    def test_methods(self, strip_map, capsys):
        for method in ("tmstc", "dfs", "kruskal"):
            assert main(["tree", "--map", strip_map, "--method", method]) == 0


class TestPlan:
    def test_single_robot_plan(self, strip_map, tmp_path):
        out = tmp_path / "plan.txt"
        assert main(["plan", "--map", strip_map, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("robot=0 anchor=")
        assert "time=" in lines[0] and "waypoints=" in lines[0]

    def test_start_flag_count_mismatch(self, strip_map, capsys):
        code = main(
            ["plan", "--map", strip_map, "--robots", "3",
             "--start", "0,0", "--start", "1,0"]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_start_outside_free_space(self, tmp_path, capsys):
        path = tmp_path / "m.map"
        # an occupied start, then a free start in a partly occupied block
        for text, start in (("0010\n0000\n0000\n0000\n", "2,0"),
                            ("0000\n0000\n0010\n0000\n", "3,3")):
            path.write_text(text)
            code = main(["plan", "--map", str(path), "--robots", "1",
                         "--start", start])
            assert code == 1
            assert capsys.readouterr().err.startswith("planning error:")

    def test_deterministic_artifact(self, strip_map, tmp_path):
        out1 = tmp_path / "p1.txt"
        out2 = tmp_path / "p2.txt"
        args = ["plan", "--map", strip_map, "--robots", "2", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_nonpositive_robot_count(self, strip_map, tmp_path, capsys):
        # rejected before the map is read, so a missing file does not matter
        for path in (strip_map, str(tmp_path / "missing.grid")):
            for robots in ("0", "-2"):
                assert main(["plan", "--map", path, "--robots", robots]) == 1
                assert capsys.readouterr().err == (
                    "usage error: --robots must be at least 1\n")

    def test_too_many_robots(self, strip_map, capsys):
        code = main(["plan", "--map", strip_map, "--robots", "99"])
        assert code == 1
        assert "planning error" in capsys.readouterr().err

    def test_svg_arcs(self, strip_map, tmp_path):
        svg = tmp_path / "plan.svg"
        assert main(
            ["plan", "--map", strip_map, "--robots", "2", "--svg", str(svg)]
        ) == 0
        assert svg.read_text().count("robot-arc") == 2


class TestBench:
    def test_default_matrix(self, tmp_path):
        out = tmp_path / "report.txt"
        records = tmp_path / "records.txt"
        code = main(
            ["bench", "--maps", "2", "--mega", "4,4", "--robots", "1,2",
             "--out", str(out), "--records", str(records)]
        )
        assert code == 0
        text = out.read_text()
        assert "tmstc" in text and "kruskal" in text and "dfs" in text
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("scenario=") for line in lines)

    def test_zero_scenarios(self, tmp_path):
        out = tmp_path / "empty.txt"
        assert main(["bench", "--maps", "0", "--out", str(out)]) == 0
        assert out.exists()

    def test_nonpositive_robot_count(self, capsys):
        for robots in ("0", "2,-1"):
            assert main(["bench", "--maps", "1", "--robots", robots]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:")
            assert "Traceback" not in err

    def test_nonpositive_kinematics(self, strip_map, capsys):
        for flag, value in (("--vmax", "0"), ("--omega", "-1"),
                            ("--accel", "0"), ("--vmax", "nan")):
            for argv in (["bench", "--maps", "1", "--mega", "4,4",
                          "--robots", "2"],
                         ["plan", "--map", strip_map]):
                assert main(argv + [flag, value]) == 1
                err = capsys.readouterr().err
                assert err.startswith("usage error:")
                assert "Traceback" not in err

    def test_non_finite_times(self, strip_map, capsys):
        # legal flag values whose leg or rotation times leave the float
        # range: a planning error, never a traceback or time=inf
        bench = ["bench", "--maps", "1", "--mega", "4,4", "--robots", "2"]
        cases = [bench + ["--vmax", "1e-320"],
                 ["bench", "--maps", "1", "--mega", "2,2", "--robots", "100"]]
        for flag, value in (("--vmax", "1e-320"), ("--omega", "1e-320"),
                            ("--accel", "1e-320"), ("--d", "1e308")):
            for robots in ("1", "2"):
                cases.append(["plan", "--map", strip_map, "--robots", robots,
                              flag, value])
        for argv in cases:
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("planning error:"), (argv, captured)
            assert captured.out == ""

    def test_huge_vmax_is_never_reached(self, strip_map, capsys):
        # v_max ** 2 overflows: every leg is pure acceleration
        for robots in ("1", "2"):
            argv = ["plan", "--map", strip_map, "--robots", robots,
                    "--vmax", "1e308"]
            assert main(argv) == 0
            times = [float(line.split()[3][len("time="):])
                     for line in capsys.readouterr().out.splitlines()]
            assert len(times) == int(robots)
            assert all(0 < t < 100 for t in times)

    def test_bad_resolution_and_obstacle_ratio(self, strip_map, capsys):
        cases = [["bench", "--maps", "1", "--mega", "2,2", "--d", "0"],
                 ["bench", "--maps", "1", "--mega", "2,2",
                  "--obstacle-ratio", "1"],
                 ["bench", "--maps", "1", "--mega", "2,2",
                  "--obstacle-ratio", "-0.5"]]
        for command in ("tile", "tree", "plan"):
            for value in ("0", "-1", "nan", "inf"):
                cases.append([command, "--map", strip_map, "--d", value])
        for argv in cases:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("usage error:"), (argv, err)
            assert "Traceback" not in err

    def test_bad_mega_flag(self, capsys):
        for argv in (["bench", "--mega", "oops"],
                     ["bench", "--maps", "1", "--mega", "-1,5"]):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("usage error: "), captured.err
            assert captured.err.count("\n") == 1 and captured.out == ""

    def test_options_a_command_never_reads(self, strip_map, capsys):
        # tile reads no kinematics or seed, and tree no kinematics
        for argv in (["tile", "--seed", "1"], ["tile", "--vmax", "1"],
                     ["tree", "--omega", "1"]):
            assert main(argv + ["--map", strip_map]) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith(
                "usage error: unrecognized arguments"), captured.err
            assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: turncover bench")

    def test_mega_dimension_below_one(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a map was generated")

        monkeypatch.setattr(bench, "generate_random_map", refuse)
        for mega in ("0,5", "5,0", "-1,5"):
            assert main(["bench", "--maps", "1", f"--mega={mega}"]) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                "usage error: --mega dimensions must be at least 1\n")
            assert captured.out == ""


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


class TestOutputFiles:
    """Output files are replaced atomically, with the mode a plain write
    would give them."""

    def test_new_file_follows_umask(self, strip_map, tmp_path, umask_022):
        out = tmp_path / "plan.txt"
        assert main(["plan", "--map", strip_map, "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_existing_file_keeps_its_mode(self, strip_map, tmp_path,
                                          umask_022):
        out = tmp_path / "tiling.txt"
        out.write_text("old\n")
        out.chmod(0o664)
        assert main(["tile", "--map", strip_map, "--out", str(out)]) == 0
        assert out.read_text() != "old\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o664

    def test_failed_replace_keeps_old_file(self, strip_map, tmp_path, capsys,
                                           monkeypatch):
        out = tmp_path / "tiling.txt"
        out.write_bytes(b"old bytes\n")

        def fail(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", fail)
        assert main(["tile", "--map", strip_map, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("io error:")
        assert out.read_bytes() == b"old bytes\n"
        assert not list(tmp_path.glob(".turncover-*"))

    def test_dash_is_stdout_for_every_output(self, strip_map, tmp_path,
                                             capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["plan", "--map", strip_map, "--svg", "-",
                     "--out", "p.txt"]) == 0
        assert capsys.readouterr().out.startswith("<svg")
        assert main(["bench", "--maps", "1", "--mega", "4,4", "--robots", "1",
                     "--records", "-", "--out", "r.txt"]) == 0
        assert capsys.readouterr().out.startswith("scenario=random-0 ")
        assert not (tmp_path / "-").exists()

    def test_pipe_is_written_in_place(self, tmp_path):
        argv = ["bench", "--maps", "1", "--mega", "4,4", "--robots", "1",
                "--out", str(tmp_path / "r.txt"), "--records"]
        regular, fifo = tmp_path / "records.txt", tmp_path / "records.fifo"
        assert main(argv + [str(regular)]) == 0
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(argv + [str(fifo)]) == 0
            chunks = []
            while chunk := os.read(reader, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert b"".join(chunks) == regular.read_bytes()

    def test_symlink_keeps_pointing_at_the_new_output(self, strip_map,
                                                      tmp_path, umask_022):
        # the link's target is replaced, as a plain write would fill it,
        # and the link itself is left a link
        expected = tmp_path / "expected.txt"
        assert main(["tile", "--map", strip_map, "--out", str(expected)]) == 0
        (tmp_path / "sub").mkdir()
        target, link = tmp_path / "sub" / "target.txt", tmp_path / "link.txt"
        target.write_text("old\n")
        target.chmod(0o600)
        link.symlink_to(Path("sub") / "target.txt")
        assert main(["tile", "--map", strip_map, "--out", str(link)]) == 0
        assert link.is_symlink()
        assert os.readlink(link) == str(Path("sub") / "target.txt")
        assert target.read_bytes() == expected.read_bytes()
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert not list(tmp_path.rglob(".turncover-*"))

    @pytest.mark.parametrize("argv", [
        ["plan", "--out", ""], ["plan", "--svg", ""], ["tree", "--svg", ""],
        ["tile", "--out", ""],
        ["bench", "--maps", "1", "--mega", "2,2", "--records", ""],
        ["bench", "--maps", "1", "--mega", "2,2", "--records", "r.txt",
         "--out", ""]])
    def test_empty_path_is_a_usage_error(self, strip_map, tmp_path, capsys,
                                         monkeypatch, argv):
        # an empty path's directory, dirname(abspath('')), is the parent
        # of the working directory
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        if argv[0] != "bench":
            argv = argv + ["--map", strip_map]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error"), captured.err
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before
        assert not list(work.iterdir())


@pytest.mark.parametrize("d", [0.5, 0.3, 1.7, 0.05])
def test_record_text_formats_each_waypoint_as_before(d):
    grid = bench.generate_random_map((9, 7), 0.1, 2, d)
    result = pipeline.plan(grid, k=3)
    lines = plan_record_text(result, d).splitlines()
    for robot, line in zip(result.plan.robots, lines):
        waypoints = " ".join(f"{(x + 0.5) * d:.3f}:{(y + 0.5) * d:.3f}"
                             for x, y in robot.sequence)
        assert line.endswith(f" waypoints={waypoints}")


def test_movingai_format_flag(tmp_path):
    path = tmp_path / "m.map"
    path.write_text("type octile\nheight 4\nwidth 4\nmap\n....\n....\n....\n....\n")
    assert main(["tile", "--map", str(path), "--format", "movingai"]) == 0


CATEGORIES = ("usage error:", "io error:", "parse error:", "disconnected:",
              "planning error:")


@st.composite
def cli_calls(draw):
    """A small grid01 map, mostly free, a quarter of them with one or two
    arbitrary bytes written over, plus a tile/tree/plan command line."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    glyphs = st.lists(st.sampled_from(b"00000001"), min_size=width,
                      max_size=width)
    data = bytearray(b"".join(bytes(draw(glyphs)) + b"\n"
                              for _ in range(height)))
    if draw(st.integers(0, 3)) == 0:
        for _ in range(draw(st.integers(1, 2))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    command = draw(st.sampled_from(["plan", "tree", "tile"]))
    flags = []
    if command != "tile":
        flags += ["--method", draw(st.sampled_from(["tmstc", "dfs", "kruskal"]))]
    if command == "plan":
        robots = draw(st.integers(0, 4))
        flags += ["--robots", str(robots)]
        if draw(st.booleans()):
            # mostly one start per robot, sometimes one too many
            n = draw(st.sampled_from([robots, robots, robots, robots + 1]))
            coords = st.tuples(st.integers(-1, 8), st.integers(-1, 8))
            flags += [f"--start={x},{y}"
                      for x, y in draw(st.lists(coords, min_size=n, max_size=n))]
    return bytes(data), command, flags


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cli_calls())
def test_main_exits_cleanly(call):
    data, command, flags = call
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.grid"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--map", str(path), *flags])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith(CATEGORIES), err.getvalue()
