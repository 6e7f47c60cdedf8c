"""The README's `python` examples run as written, and give the values their
comments state."""

import re
from pathlib import Path

from cdga_config.sullivan import check_table

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _run(block):
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def _comments(block):
    """Each commented line's code, mapped to its comment."""
    pairs = (line.split("#", 1) for line in block.splitlines() if "#" in line)
    return {code.strip(): comment.strip() for code, comment in pairs}


def test_readme_has_three_python_examples():
    """The table example, the library example and the map example."""
    assert len(_python_blocks()) == 3


def test_the_table_example_loads_a_checked_table():
    table = _run(_python_blocks()[0])["table"]
    assert check_table(table).all_pass


def test_the_library_example_gives_the_values_in_its_comments():
    block = _python_blocks()[1]
    namespace = _run(block)
    comments = _comments(block)
    diagonal = "1⊗xy + x⊗y - y⊗x - xy⊗1"
    assert comments["diag = pd.diagonal"] == diagonal
    assert str(namespace["diag"]) == diagonal
    assert comments["cone = cc.cone_model(pd)"].startswith("20-dimensional CDGA")
    assert namespace["cone"].algebra.dim() == 20
    betti = "cc.quotient_by_diagonal(pd).betti(10)"
    assert comments[betti] == "[1, 0, 2, 2, 1, 3, 1, 1, 1, 0, 0]"
    assert eval(betti, namespace) == [1, 0, 2, 2, 1, 3, 1, 1, 1, 0, 0]
    assert comments["result.verdict"] == '"obstructed"'
    assert namespace["result"].verdict == "obstructed"


def test_the_map_example_gives_the_values_in_its_comments():
    block = _python_blocks()[2]
    namespace = _run(block)
    comments = _comments(block)
    image = "str(to_truncation(pd.diagonal))"
    assert comments[image] == "1⊗xy + x⊗y - y⊗x - xy⊗1" == eval(image, namespace)
    swapped = "swap(pd.diagonal) == pd.diagonal.scale(-1)"
    assert comments[swapped].startswith("True:") and eval(swapped, namespace) is True
    assert namespace["to_truncation"].target is namespace["quotient"].algebra
