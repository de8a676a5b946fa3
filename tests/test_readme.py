"""The README's Python examples run as written: every ```python block, in
order, in one namespace, so a later block may use an earlier one's names."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)


def test_python_examples_run_in_order():
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    # the per-draw example's names and the multi-rule example's slopes
    assert len(namespace["snrs"]) == 2
    assert set(namespace["slopes"]) == set(namespace["RULES"])
