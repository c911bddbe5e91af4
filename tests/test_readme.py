import ast
import importlib
import json
import re
from pathlib import Path

import numpy as np

import svrisk
from svrisk import cli, scenarios

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The Python block under README's "Library quick start" heading."""
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def stated_vertices(code, name):
    """The vertex list that the comment on `bundle.<name>.vertices` states,
    with fractions such as 1/3 evaluated."""
    line = re.search(rf"^bundle\.{name}\.vertices\s+#\s*(\[.*\])", code, re.M).group(1)
    tree = ast.parse(line, mode="eval")
    allowed = (ast.Expression, ast.List, ast.Load, ast.Constant, ast.UnaryOp, ast.USub,
               ast.BinOp, ast.Div)
    assert all(isinstance(node, allowed) for node in ast.walk(tree)), line
    return np.array(eval(compile(tree, "README", "eval")), dtype=float)


def test_quick_start_runs_and_states_its_vertices(capsys):
    code = quick_start()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out.startswith('{"inner":')
    bundle = namespace["bundle"]
    for name in ("outer", "inner"):
        stated = stated_vertices(code, name)
        got = getattr(bundle, name).vertices
        assert got.shape == stated.shape, name
        assert np.allclose(got, stated, rtol=0.0, atol=1e-12), (name, got)


def test_module_references_resolve():
    # Every backticked `module.name` of an svrisk module names something that
    # module defines; file names such as `markets.py` are skipped.
    modules = {path.stem for path in Path(svrisk.__file__).parent.glob("*.py")}
    refs = sorted({(module, name) for module, name in
                   re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", README.read_text())
                   if module in modules and name not in ("py", "csv", "json")})
    assert refs
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"svrisk.{module}"), name)]
    assert missing == []


def test_config_schema_lists_the_keys_the_reader_accepts():
    # The `run.json` block, less its `//` comments, is JSON; each object in
    # it but the portfolio, whose keys depend on its kind, names exactly
    # the keys that its block accepts.
    text = README.read_text()
    block = re.search(r"### Config schema \(`run\.json`\)\n+```jsonc\n(.*?)```", text, re.S)
    config = json.loads(re.sub(r"//.*", "", block.group(1)))
    generate = config["scenarios"]["generate"]
    for stated, keys in [
        (config, cli._CONFIG_KEYS),
        (config["scenarios"], cli._SCENARIOS_KEYS),
        (generate, scenarios._GENERATE_KEYS),
        (generate["rate"], scenarios._RATE_KEYS),
        (config["risk"], cli._RISK_KEYS),
    ]:
        assert sorted(stated) == sorted(keys)
