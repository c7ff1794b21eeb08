"""Lines of ``src/stonework`` that the tier-1 tests never run.

Runs the tier-1 suite in this process under a ``sys.settrace`` line counter
(standard library only) and collects every executable line of
``src/stonework`` that no test reaches. Only this process is traced: a line
that only the tests' child processes run (``python -m stonework.cli``) counts
as unreached.

The run fails when the traced tier-1 run fails or leaves any line unreached,
and prints each such line as its file and stripped source text.

    PYTHONPATH=src python tools/unreached.py
"""

from __future__ import annotations

import os
import pathlib
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stonework"

#: Under a line tracer, gc.collect() after a command finds far more than the
#: 200 objects the collector test allows, so only the untraced tier-1 run
#: runs that test.
DESELECT = "not test_command_leaves_little_cyclic_garbage"


def executable_lines(path: pathlib.Path) -> set[int]:
    """Line numbers that carry bytecode, in the module and every nested code."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        # line 0 (or None) marks instructions with no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _line_tracer(add):
    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local
    return local


def traced_run(files) -> tuple[int, dict]:
    """Exit code of tier-1 and the line numbers it ran, per file."""
    hits = {str(path): set() for path in files}
    local_for = {name: _line_tracer(lines.add) for name, lines in hits.items()}
    by_filename = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            by_filename[filename] = local_for.get(os.path.realpath(filename))
        return by_filename[filename]

    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "-k", DESELECT, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(code), hits


def main() -> int:
    files = sorted(path.resolve() for path in SRC.glob("*.py"))
    code, hits = traced_run(files)
    import stonework

    if pathlib.Path(stonework.__file__).resolve().parent != SRC.resolve():
        print(f"stonework was imported from {stonework.__file__}, not {SRC}")
        return 1
    if code != 0:
        print(f"the traced tier-1 run failed with exit code {code}")
        return 1
    unreached, total = [], 0
    for path in files:
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        unreached += [f"{path.name}: {text[line - 1].strip()}" for line in lines - hits[str(path)]]
    print(f"{len(unreached)} of {total} executable lines in src/stonework unreached")
    for row in sorted(unreached):
        print(row)
    return int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main())
