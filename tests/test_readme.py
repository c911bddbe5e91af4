import ast
import re
from pathlib import Path

import numpy as np

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
