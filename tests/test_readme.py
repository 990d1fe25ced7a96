"""The README's examples, run as written: its `Library` block, and its
`plan` example through `cli.main` with the output lines it shows."""

import re
from pathlib import Path

from mdsconv.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_examples_run_as_written(tmp_path, capsys):
    library = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S).group(1)
    exec(compile(library, "README.md", "exec"), {})

    pattern = r"cat > merge.json <<'EOF'\n(.*?)EOF\nmdsconv plan ([^\n]*)\n((?:#   [^\n]*\n)+)"
    example = re.search(pattern, README, re.S)
    config, argv, shown = example.groups()
    shown = [line.removeprefix("#   ") for line in shown.splitlines()]
    assert shown == ["field: GF(8)", "S: [1, 2]", "per-code read minimums: [2, 2]", "bound ρ = 6"]
    (tmp_path / "merge.json").write_text(config)
    argv = ["plan", *(str(tmp_path / a) if a.endswith(".json") else a for a in argv.split())]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[:4] == shown
    assert (tmp_path / "plan.json").exists()
