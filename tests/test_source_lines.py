from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_source_line_exceeds_100_columns():
    # the package and its tests alike
    paths = sorted((ROOT / "src/sfqctrl").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    long = [f"{path.relative_to(ROOT)}:{number} ({len(line)})"
            for path in paths
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > 100]
    assert long == []
