"""Pytest plugin, run with ``PYTHONPATH=src:tests python -m pytest -p raise_trace``:
at session end, print each ``raise`` in ``capsintent`` that no test executed, as
``file:line: statement``. It never fails the session; subprocesses go untraced."""

import ast
import sys
from pathlib import Path

import capsintent

SOURCES = sorted(Path(capsintent.__file__).parent.glob("*.py"))
_files = {str(path) for path in SOURCES}
_ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename in _files else None


def pytest_configure(config):
    sys.settrace(_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    terminalreporter.write_sep("-", "raise statements no test executed")
    for path in SOURCES:
        source = path.read_text()
        raises = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)]
        for node in sorted(raises, key=lambda n: n.lineno):
            if (str(path), node.lineno) not in _ran:
                statement = ast.get_source_segment(source, node).splitlines()[0]
                terminalreporter.write_line(f"{path.name}:{node.lineno}: {statement}")
