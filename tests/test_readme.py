"""README's ``Library use`` example runs, and gives the values its comments
state, to the digits shown."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_gives_the_stated_values():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "(0.694, 0.381)" in block and "(2, 4)" in block
    namespace: dict = {}
    exec(block, namespace)
    report = namespace["report"]
    assert (round(report.conc[4], 3), round(report.assist[2], 3)) == (0.694, 0.381)
    assert report.blp_pair == (2, 4)
