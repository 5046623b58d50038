"""Values the README quotes, checked against the library that prints them."""

from pathlib import Path

from divfilt.asymptotics import example_model, multiplicity

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_multiplicity_comment():
    # the quick start's last line prints `mult, "~", mult.to_decimal(8)`;
    # its comment must be what that prints
    line = next(ln for ln in README.read_text(encoding="utf-8").splitlines()
                if ln.startswith('print(mult, "~", mult.to_decimal(8))'))
    mult = multiplicity(example_model())[1]
    assert line.split("#", 1)[1].strip() == f"{mult} ~ {mult.to_decimal(8)}"
