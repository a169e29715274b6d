from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src/sfqctrl"


def test_no_source_line_exceeds_100_columns():
    long = [f"{path.relative_to(SRC)}:{number} ({len(line)})"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > 100]
    assert long == []
