"""The README's Python examples run and print what the README says."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)

# per block, the lines it prints, each of which the README states
PRINTED = [
    ["1.618033988749895 1.6180339887498947", "(0, 1)"],
    ["PAdicMagnitude(p**0)", "(1,)"],
]


def test_readme_states_every_printed_line():
    text = README.read_text(encoding="utf-8")
    assert len(BLOCKS) == len(PRINTED)
    for lines in PRINTED:
        for line in lines:
            assert line in text, line


@pytest.mark.parametrize("index", range(len(PRINTED)))
def test_readme_example_prints_what_it_states(index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(BLOCKS[index], {})
    assert out.getvalue().splitlines() == PRINTED[index]
