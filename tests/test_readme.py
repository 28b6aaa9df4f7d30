"""The Python examples and the CLI block of README.md run as written against
the package."""

import os
import re
import shlex

from popctrl.cli import run_command

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")


def _readme():
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", _readme(), flags=re.DOTALL | re.MULTILINE)


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


def test_readme_cli_block_exit_codes(tmp_path, monkeypatch):
    # validate exits 1 on the example's documented failed onset check; the
    # pipelines run regardless and exit 0
    lines = re.findall(r"^popctrl (.*)$", _readme(), flags=re.MULTILINE)
    assert len(lines) == 4
    monkeypatch.chdir(ROOT)  # the block's scenario paths are relative to the repo
    codes = {}
    for k, line in enumerate(lines):
        argv = shlex.split(line)
        if "--out" in argv:
            del argv[argv.index("--out"):argv.index("--out") + 2]
        codes[argv[0]] = run_command(argv + ["--out", str(tmp_path / str(k)), "--quiet"])
    assert codes == {"validate": 1, "simulate": 0, "control": 0, "solve": 0}
