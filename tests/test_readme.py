import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    """The README's Python examples run in order, in one namespace, and
    their assertions hold."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
