"""The Python examples of README.md run as written against the package."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _python_blocks():
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run(capsys):
    blocks = _python_blocks()
    assert len(blocks) == 2
    # the second block uses the names the first one defines
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    result = namespace["result"]
    assert result.converged and not result.flags
    assert capsys.readouterr().out.strip().endswith("[]")
    assert namespace["n"].shape == namespace["l_eff"].shape
