"""The README's examples, run as written: its `Library` block, and every
`mdsconv` line of its command-line block through `cli.main`, in order,
with the output lines it shows for `plan`."""

import re
import shlex
from pathlib import Path

from mdsconv.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_examples_run_as_written(tmp_path, capsys, monkeypatch):
    library = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S).group(1)
    exec(compile(library, "README.md", "exec"), {})

    block = re.search(r"## Command-line usage\n\n```sh\n(.*?)```", README, re.S).group(1)
    config = re.search(r"cat > merge.json <<'EOF'\n(.*?)EOF\n", block, re.S).group(1)
    (messages,) = re.findall(r"^printf '([^']*)' > messages.txt$", block, re.M)
    shown = re.search(r"^mdsconv plan [^\n]*\n((?:#   [^\n]*\n)+)", block, re.M).group(1)
    shown = [line.removeprefix("#   ") for line in shown.splitlines()]
    assert shown == ["field: GF(8)", "S: [1, 2]", "per-code read minimums: [2, 2]", "bound ρ = 6"]
    monkeypatch.chdir(tmp_path)
    Path("merge.json").write_text(config)
    Path("messages.txt").write_text(messages.replace("\\n", "\n"))
    argvs = [shlex.split(line)[1:] for line in re.findall(r"^mdsconv [^\n]*", block, re.M)]
    assert [argv[0] for argv in argvs] == ["plan", "encode", "convert", "verify", "bounds"]
    assert "--trace" in argvs[2]
    for argv in argvs:
        capsys.readouterr()
        assert main(argv) == 0, argv
        if argv[0] == "plan":
            assert capsys.readouterr().out.splitlines()[:4] == shown
    assert all(Path(name).exists() for name in ("plan.json", "codewords.txt", "final.txt"))
