"""Pinned artifact digests: the CLI's outputs on three fixed maps.

Refactors must keep these bytes. A change that alters them on purpose
regenerates the table with ``PYTHONPATH=src python tests/test_artifacts.py``
and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from turncover import bench
from turncover.cli import main

MEGA = (12, 12)
RATIO = 0.15
SEED = 3
# the plan-large-* artifacts: long loops and many heap pops in the merge
LARGE_MEGA = (40, 40)
# the *-scale artifacts: a benchmark-sized map, where flat-id off-by-H
# faults show up
SCALE_MAP = ((80, 80), 0.1, 7)

PINNED = {
    "tile":
        "0ab04c1923ad0a43d64e5b23e01efedc58be5ba023912e53440a685bb5655583",
    "tree-tmstc":
        "51c5b79df7bd88dd8d3cbfb61b9baeea40841705515739ce0d7914c2c8666c3a",
    "tree-dfs":
        "5def47e8c54ef1f1bef76ff9bdfd5528ef8a285d18f37549c511dd626288d537",
    "tree-kruskal":
        "864a9b616c033f5bec19605aac95197142bc9eac422ec38aa85b41b12cb60cca",
    "plan-k3":
        "a95c7f5c93e81c4be00288afa8034743a5458fed71aebd9a435ae675d720dc2e",
    "plan-starts":
        "c576b449ca707428a1cc5f7fe267b150fa3344ac55416de470d9245ff5499382",
    "plan-large-k1":
        "2e921e521a860d55217eb55e27c99e4897e7f7d04fdd77859352bce215ff346c",
    "plan-large-k4":
        "2dcdf3cc650a5968fb3236f603d8365cb1ba6c0b002f2ca0d22b8da3b45b0638",
    "tile-scale":
        "45af65db92bb6e4f5a773e31c1d083b96192ba776980104454dc7f5200b51b44",
    "tree-dfs-scale":
        "679b4536e76396a1791ce0bbd21b60a0d5e6b16d45880ea4b4bcbaec96201e39",
    "tree-kruskal-scale":
        "b550f7d8c67991b078e7362d1688e4bcb6d6de1f179700ac9c651bbb79469f12",
    "plan-scale-k1":
        "f6299e263e8f736ee05d0edcaa7e35f2be8c55772d63e2279481854d1fd066b5",
    "bench-records":
        "ca88ee6d54f48da8e24aa72ab769b19fb8a32c3f905bb13a2fea005b641aec6f",
}


def _map_text(grid) -> str:
    return "".join(
        "".join("1" if grid.is_occupied(x, y) else "0" for x in range(grid.width))
        + "\n"
        for y in range(grid.height)
    )


def _argv(name: str, map_path: str, starts: list[tuple[int, int]]) -> list[str]:
    if name in ("tile", "tile-scale"):
        return ["tile", "--map", map_path]
    if name.startswith("tree-"):
        method = name[len("tree-"):].removesuffix("-scale")
        return ["tree", "--map", map_path, "--method", method]
    if name == "plan-k3":
        return ["plan", "--map", map_path, "--robots", "3"]
    if name == "plan-starts":
        flags = [f"--start={x},{y}" for x, y in starts]
        return ["plan", "--map", map_path, "--robots", "3", *flags]
    if name.startswith(("plan-large-k", "plan-scale-k")):
        robots = name.rsplit("-k", 1)[1]
        return ["plan", "--map", map_path, "--robots", robots]
    raise KeyError(name)


def artifact_digest(name: str, workdir) -> str:
    """sha256 over the written artifact and, except for bench, stdout.

    The bench report carries wall times, so only its records count.
    """
    if "-scale" in name:
        grid = bench.generate_random_map(*SCALE_MAP)
    else:
        mega = LARGE_MEGA if name.startswith("plan-large-") else MEGA
        grid = bench.generate_random_map(mega, RATIO, SEED)
    map_path = workdir / "map.grid"
    map_path.write_text(_map_text(grid))
    out_path = workdir / f"{name}.out"
    free = [(x, y) for y in range(grid.height) for x in range(grid.width)
            if grid.is_free(x, y)]
    starts = [free[0], free[len(free) // 2], free[-1]]
    if name == "bench-records":
        argv = ["bench", "--maps", "1", "--mega", f"{MEGA[0]},{MEGA[1]}",
                "--obstacle-ratio", str(RATIO), "--seed", str(SEED),
                "--robots", "1,3", "--out", str(workdir / "report.txt"),
                "--records", str(out_path)]
    else:
        argv = _argv(name, str(map_path), starts) + ["--out", str(out_path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    captured = b"" if name == "bench-records" else stdout.getvalue().encode()
    return hashlib.sha256(out_path.read_bytes() + b"\0" + captured).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_artifact_digest(name, tmp_path):
    assert artifact_digest(name, tmp_path) == PINNED[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for key in PINNED:
            print(f'    "{key}": "{artifact_digest(key, Path(tmp))}",')
