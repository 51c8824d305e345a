import trace

import linecov


def test_each_allowed_line_occurs_once():
    """An allow-list entry matches one src line, so it cannot also excuse a
    second line of the same text."""
    counts = {
        (module, text): sum(line.strip() == text
                            for line in (linecov.SRC / f"{module}.py").read_text().splitlines())
        for module, text in linecov.ALLOWED
    }
    assert {entry: n for entry, n in counts.items() if n != 1} == {}


def test_no_src_line_hides_from_trace():
    # trace leaves a line carrying this pragma out of its unrun lines
    for path in linecov.SRC.glob("*.py"):
        assert trace.PRAGMA_NOCOVER not in path.read_text(), path.name
