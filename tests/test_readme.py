"""The README's examples run against the package as it is."""
import shlex
from pathlib import Path

from citaylor.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = README.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    code, scope = blocks[0].split("```")[0], {}
    exec(compile(code, "README.md", "exec"), scope)
    assert capsys.readouterr().out.startswith("[PASS] homotopy system")
    shown = dict(line.split("#", 1) for line in code.splitlines() if "#" in line)
    shown = {expr.strip(): comment.strip() for expr, comment in shown.items()}
    for expr in ("I.subset((1, 2))", "res.periodicity"):  # the records' reprs, as printed
        assert shown[expr] == repr(eval(expr, scope))


def test_readme_resolve_example_matches_the_program(capsys):
    """Each line the README shows for its resolve example, bar "...", is printed,
    in order, and the lines between two "..." markers are printed one after another."""
    blocks = README.read_text().split("```")[1::2]
    command = next(b for b in blocks if b.lstrip().startswith("citaylor resolve"))
    shown = blocks[blocks.index(command) + 1].strip("\n").splitlines()
    assert main(shlex.split(command.replace("\\\n", " "))[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    runs = [[]]
    for line in shown:
        if line == "...":
            runs.append([])
        else:
            runs[-1].append(line)
    start = 0
    for run in runs:
        hits = [i for i in range(start, len(printed) - len(run) + 1) if printed[i : i + len(run)] == run]
        assert hits, run
        start = hits[0] + len(run)
