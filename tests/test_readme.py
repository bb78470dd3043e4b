import re
from pathlib import Path

from helpers import write_desk_files

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(section: str) -> list[str]:
    """The ```python blocks of the README section headed `## {section}`."""
    text = README.read_text("utf-8").split(f"\n## {section}\n", 1)[1]
    text = text.split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_library_use_example_runs(desk, tmp_path, monkeypatch):
    # the example reads corpus.txt, inventory.tsv and the resource files
    # from the working directory, as the desk fixture writes them
    write_desk_files(desk, tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_python_blocks("Library use")[0], str(README), "exec"), namespace)
    assert namespace["report"].ok
    assert namespace["model"].epoch_losses
