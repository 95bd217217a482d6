"""tools/compare.py reports what a run leaves behind, whatever the bytes: each case runs a stub program
that misbehaves as its first argument says."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("compare", Path(__file__).resolve().parents[1] / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)

_STUB = """\
import os, sys, time

what = sys.argv[1]
if what in ("x.tmp", "x.back"):
    open(what, "w").close()
elif what == "child":
    if os.fork() == 0:
        time.sleep(60)
        os._exit(0)
elif what == "hang":
    time.sleep(60)
elif what == "fifo":
    with open(sys.argv[2], "w") as fh:
        fh.write("written")
elif what == "removes-fifo":
    os.remove(sys.argv[2])
print(what)
"""


@pytest.fixture
def stub(tmp_path):
    """A tree whose bohmatom.cli is _STUB."""
    package = tmp_path / "src" / "bohmatom"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text(_STUB, encoding="utf-8")
    return tmp_path


def test_a_clean_run_has_no_failure(stub):
    assert compare.run_case(stub, compare.Case(["fine"]), timeout=10) == ((0, b"fine\n", b"", [], None), [])


@pytest.mark.parametrize(
    "what, failure",
    [("x.tmp", "left x.tmp"), ("x.back", "left x.back"), ("child", "left a process running")],
)
def test_what_a_run_leaves_behind_is_a_failure(stub, what, failure):
    end, failures = compare.run_case(stub, compare.Case([what]), timeout=10)
    assert end[:3] == (0, f"{what}\n".encode(), b"")
    assert failures == [failure]


def test_a_run_past_its_timeout_is_a_failure_not_an_exception(stub):
    end, failures = compare.run_case(stub, compare.Case(["hang"]), timeout=0.5)
    assert end[0] is None
    assert failures == ["ran past 0.5 s"]


@pytest.mark.parametrize("what, received", [("fifo", b"written"), ("never-opened", b""), ("removes-fifo", None)])
def test_a_fifo_receives_what_is_written_and_a_fifo_never_opened_ends(stub, what, received):
    # A FIFO that is gone can no longer be opened by anyone: its reader is left waiting, and the run ends.
    end, failures = compare.run_case(stub, compare.Case([what, compare.FIFO]), timeout=10)
    assert end == (0, f"{what}\n".encode(), b"", [], received)
    assert failures == []
