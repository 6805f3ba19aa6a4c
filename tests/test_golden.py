"""The reference outputs, byte for byte.

``tests/golden`` holds the 19 CSVs of ``tools/reference_csvs.py`` and the
digests of four fits above 256 points, where the solvers read their
kernel rows from row sources, which no CSV reaches, and of one
projected-mode weight learning, which no CSV runs.  Each test writes its
output in process and compares it with the committed copy.  Bits depend
on the numpy and BLAS build, so a mismatch names the build that wrote the
committed copies next to the one running the test.  A change that moves
an output on purpose rewrites the copies with ``reference_csvs.py
--update`` and lists each moved row in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "reference_csvs.py"
_SPEC = importlib.util.spec_from_file_location("reference_csvs", _PATH)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

GOLDEN = Path(tool.GOLDEN)


def _builds() -> str:
    committed = (GOLDEN / "environment.txt").read_text().strip()
    return f"committed: {committed}\nrunning:   {tool.environment()}"


@pytest.mark.parametrize("name", sorted(tool.commands()))
def test_reference_csv_bytes(name, tmp_path):
    out = tmp_path / name
    assert tool.main(tool.commands()[name] + ["--out", str(out)]) == 0
    got = out.read_bytes().splitlines()
    want = (GOLDEN / name).read_bytes().splitlines()
    for row, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, (f"{name}: row {row} differs\n  got:  {g!r}\n"
                        f"  want: {w!r}\n{_builds()}")
    assert len(got) == len(want), (
        f"{name}: {len(got)} rows, {len(want)} committed\n{_builds()}")


def test_fit_digests_above_one_block():
    want = json.loads((GOLDEN / "digests.json").read_text())
    got = tool.digests()
    assert sorted(got) == sorted(want)
    for fit in sorted(want):
        moved = [k for k in sorted(want[fit]) if got[fit][k] != want[fit][k]]
        assert not moved, f"{fit}: {', '.join(moved)} moved\n{_builds()}"
