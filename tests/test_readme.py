"""The README's Library example runs as written against the public surface."""

import re
from pathlib import Path

import etaq

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs_as_written():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library)", "exec"), namespace)
    assert namespace["f"][7] == -16744
    assert namespace["report"].verdict == "proved"
    assert namespace["report"].bound == 58


def test_every_public_name_resolves():
    assert all(hasattr(etaq, name) for name in etaq.__all__)
    assert not {"QQ", "reduce_mod", "eisenstein_E2"} & set(etaq.__all__)
