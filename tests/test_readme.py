"""The README's description of the container format against the code:
the version in its heading and the component names on its layout line."""

import re
from pathlib import Path

from plastore import PointSeq, build_optimal_pla, encode_c
from plastore.container import FORMAT_VERSION

README = Path(__file__).resolve().parent.parent / "README.md"


def format_section():
    """(version, text) of the README's `## Container format (version N)`
    section."""
    text = README.read_text(encoding="utf-8")
    heads = re.findall(r"^## Container format \(version (\d+)\)$", text, flags=re.M)
    assert len(heads) == 1, heads
    body = text.split(f"## Container format (version {heads[0]})", 1)[1].split("\n## ", 1)[0]
    return int(heads[0]), body


def test_readme_names_the_format_version():
    assert format_section()[0] == FORMAT_VERSION


def test_readme_lists_the_components_in_order():
    # the layout block ends with the component names, comma-separated
    block = format_section()[1].split("```")[1]
    listed = [name.strip().lower() for name in block.strip().splitlines()[-1].split(",")]
    points = PointSeq([1, 4, 9, 16, 25], setting="compression")
    assert listed == list(encode_c(build_optimal_pla(points, 1), points).components())
