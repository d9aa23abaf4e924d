"""The public surface: every exported name resolves, and the README example runs."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import spikesim
import spikesim.harness
from spikesim import outlier_eigenvalue, overlap_limit, z2_mismatch_exact

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [spikesim, spikesim.harness], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = [[float(x) for x in line.split()] for line in out.getvalue().splitlines()]
    (eig, eig_limit), (ov, ov_limit), (loss,) = lines
    assert eig_limit == outlier_eigenvalue(2.0) and ov_limit == overlap_limit(2.0)
    assert abs(eig - eig_limit) < 0.1
    assert abs(ov - ov_limit) < 0.05
    assert abs(loss - z2_mismatch_exact(2.0)) < 0.005
