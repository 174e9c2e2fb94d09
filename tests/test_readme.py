"""The README's examples hold: every `print(...)  # value` of the library
tour prints its value, and every CLI line marked `# -> output` prints
that output (the text before any comma after the arrow)."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from ftrees import cli

README = (Path(__file__).parents[1] / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the heading."""
    rest = README[README.index(heading) :]
    return re.search(rf"```{lang}\n(.*?)```", rest, re.S).group(1)


def run_line(argv: list[str]) -> str:
    """Stdout of one `ftrees` invocation, with `$(ftrees ...)` arguments
    replaced by their own output first."""
    args = []
    for arg in argv:
        inner = re.fullmatch(r"\$\((.*)\)", arg)
        args.append(run_line(shlex.split(inner.group(1))) if inner else arg)
    assert args[0] == "ftrees"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(args[1:]) == 0, args
    return out.getvalue().strip()


def test_library_tour_prints_what_its_comments_say():
    checked = []

    def check(value, comment):
        assert str(value) == comment
        checked.append(comment)

    source = re.sub(
        r"^print\((.*)\)\s+# (.*)$",
        lambda m: f"_check({m.group(1)}, {m.group(2)!r})",
        fenced_block("## Library quick tour", "python"),
        flags=re.M,
    )
    exec(source, {"_check": check})
    assert len(checked) == 6


def test_cli_examples_print_what_their_comments_say():
    examples = [
        line.split("# -> ")
        for line in fenced_block("## CLI", "sh").splitlines()
        if "# -> " in line
    ]
    for command, comment in examples:
        assert run_line(shlex.split(command)) == comment.split(",")[0].strip(), command
    assert len(examples) == 5
