"""The README's table of key entry points names only calls that ``valgb``
exports, so the table and ``valgb/__init__.py`` cannot drift apart."""

import re
from pathlib import Path

import valgb

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_point_calls():
    """The call names in the first column of the "Key entry points" table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("Key entry points", 1)[1].split("\n\n")[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    return [name for row in rows for name in re.findall(r"`(\w+)\(", row.split("|")[1])]


def test_every_entry_point_in_the_readme_is_exported():
    names = entry_point_calls()
    assert len(names) >= 15
    missing = [name for name in names if not callable(getattr(valgb, name, None))]
    assert missing == []
