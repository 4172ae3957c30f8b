"""The README's Library example runs against the package as it is."""
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = README.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("[PASS] homotopy system")
