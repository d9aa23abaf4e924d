"""The CI workflow names only files and tests that exist.

The workflow is read as text, since PyYAML is not a test dependency: a
rename that leaves a stale path or test node in it would otherwise show only
when the workflow runs.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def stale_references(text: str) -> list[str]:
    """The config, script and test paths ``text`` names that are no file, and
    the ``file::test_name`` nodes whose test is no ``def`` in that file."""
    paths = set(re.findall(r"\b(?:configs/[\w.-]+\.cfg|(?:perfbench|tests)/[\w.-]+\.py)\b",
                           text))
    stale = sorted(p for p in paths if not (ROOT / p).is_file())
    for path, name in re.findall(r"\b((?:perfbench|tests)/[\w.-]+\.py)::(\w+)", text):
        source = ROOT / path
        if path not in stale and not re.search(rf"^def {name}\(",
                                               source.read_text(encoding="utf-8"), re.M):
            stale.append(f"{path}::{name}")
    return stale


def test_workflow_references_exist():
    text = WORKFLOW.read_text(encoding="utf-8")
    # the patterns still find what the workflow runs
    for named in ("configs/sweep-quick.cfg", "perfbench/run.py",
                  "tests/test_acceptance.py::test_criterion_2_outlier_transition"):
        assert named in text
    assert stale_references(text) == []
    # and a renamed file or test would be caught
    assert stale_references(text.replace("sweep-quick.cfg", "sweep-quik.cfg")
                            .replace("::test_criterion_2_", "::test_criterion_02_")) == [
        "configs/sweep-quik.cfg", "tests/test_acceptance.py::test_criterion_02_outlier_transition"]
