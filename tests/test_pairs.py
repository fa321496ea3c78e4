"""The summary of ``tools/pairs.py`` on fixed numbers."""

import importlib.util
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_lower_is_better_gain_beyond_the_parent_iqr():
    parent = [38.0, 38.2, 38.1, 38.4, 37.9]
    change = [36.9, 37.0, 38.3, 36.8, 37.1]  # pair 3 lost
    s = pairs.summarize(parent, change, "lower")
    assert s["parent"] == (38.0, 38.1, 38.2)
    assert s["change"] == (36.9, 37.0, 37.1)
    assert (s["wins"], s["pairs"], s["beyond"]) == (4, 5, "better")


def test_higher_is_better_ties_count_for_neither():
    parent = [10.0, 10.0, 12.0, 11.0]
    change = [10.0, 9.0, 12.5, 11.0]
    s = pairs.summarize(parent, change, "higher")
    assert s["parent"] == (10.0, 10.5, 11.25)
    assert (s["wins"], s["beyond"]) == (1, "within")


def test_a_loss_beyond_the_iqr_reads_worse():
    s = pairs.summarize([1.0, 1.1, 1.0], [2.0, 2.1, 1.9], "lower")
    assert (s["wins"], s["beyond"]) == (0, "worse")
    assert pairs.summarize([5.0], [4.0], "lower")["beyond"] == "better"


def test_rejects_unpaired_values_and_an_unknown_direction():
    with pytest.raises(ValueError, match="one parent and one change"):
        pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError, match="one parent and one change"):
        pairs.summarize([], [], "lower")
    with pytest.raises(ValueError, match="better must be"):
        pairs.summarize([1.0], [1.0], "smaller")


def test_a_median_worse_by_more_than_the_bound_regressed():
    parent = [10.0, 10.1, 9.9]
    assert pairs.judge(parent, [13.0, 13.0, 13.0], "lower", 0.25) == (
        "regressed")
    # worse, but by less than a quarter of the parent's median
    assert pairs.judge(parent, [12.0, 12.4, 12.0], "lower", 0.25) == "held"
    assert pairs.judge([100.0] * 3, [70.0] * 3, "higher", 0.25) == (
        "regressed")
    assert pairs.judge([100.0] * 3, [80.0] * 3, "higher", 0.25) == "held"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [6.0, 8.0, 10.0, 14.0, 16.0]  # IQR 6 > 0.25 * median 10
    assert pairs.judge(parent, [9.0, 9.5, 10.0, 10.5, 11.0], "lower",
                       0.25) == "unresolved"
    # unless every change run reads better than every parent run
    assert pairs.judge(parent, [5.0, 4.0, 5.5, 5.0, 4.5], "lower",
                       0.25) == "held"
    assert pairs.judge(parent, [17.0] * 5, "higher", 0.25) == "held"
    assert pairs.judge(parent, [16.0] * 5, "higher", 0.25) == "unresolved"
    # a wide spread does not hide a median worse by more than the bound
    assert pairs.judge(parent, [13.0] * 5, "lower", 0.25) == "regressed"


def test_import_line_times_this_checkout_on_both_sides():
    root = Path(__file__).parents[1]
    times = pairs.import_times({"parent": root, "change": root}, 1)
    assert [len(times[side]) for side in ("parent", "change")] == [1, 1]
    assert all(0 < t < 10 for side in times for t in times[side])
    line = pairs.import_line(times)
    number = r"[0-9.e+-]+"
    assert re.fullmatch(
        rf"import turncover\.cli \(s, 1 fresh interpreters per side, "
        rf"alternating\): ({number} ){{2}}{number} \| ({number} ){{2}}{number} "
        rf"\| [01]/1 \| (within|better|worse)", line), line
