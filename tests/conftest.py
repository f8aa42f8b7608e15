"""Fixtures shared by the parser tests."""

import pytest


@pytest.fixture
def line_end_variants(tmp_path):
    """`variants(text)` yields `text` with "\\n", "\\r\\n" and "\\r" line ends,
    each as a str and as a file opened in text mode, as the CLI opens it."""
    opened = []

    def variants(text):
        for end in ("\n", "\r\n", "\r"):
            t = text.replace("\n", end)
            yield t
            f = tmp_path / f"input-{len(opened)}"
            f.write_bytes(t.encode())
            opened.append(open(f, encoding="utf-8"))
            yield opened[-1]

    yield variants
    for fh in opened:
        fh.close()


@pytest.fixture
def lines_then_fail():
    """`lines_then_fail(lines)` yields `lines`, then fails the test if it is
    read further."""
    def lines_then_fail(lines):
        yield from lines
        pytest.fail("the parser read past the line that it refused")
    return lines_then_fail
