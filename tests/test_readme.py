"""README as a checked contract: each constant it names, and each bound of
its memo table, is the code's."""
import pathlib
import re
from decimal import Decimal

import pytest

import campana
from campana import arith, circuits, formulas, kernels, places

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

#: The constants README names, and the module that holds each.
CONSTANTS = {
    "POWER_BITS": arith, "CRT_PRIME_COUNT": kernels, "NORM_FORM_MAX_N": formulas,
    "OMEGA_CACHE_SIZE": places, "SCAN_TABLE_BUDGET": kernels,
    "TEXT_BYTES": circuits, "RHO_STEP_BUDGET": arith,
    "_MR_DETERMINISTIC_BOUND": arith, "TWIST_PLANS": kernels,
}

# 14, 16,384, 2^22 or 3.3·10^24
NUMBER = r"(\d+(?:,\d{3})*(?:\.\d+)?(?:·10\^\d+|\^\d+)?)"


def _equals(text: str, value: int) -> bool:
    """Whether README's figure is the value: exactly, or as a rounded
    m·10^e to m's digits."""
    if "·10^" in text:
        mantissa, e = text.split("·10^")
        return Decimal(value).scaleb(-int(e)).quantize(Decimal(mantissa)) == Decimal(mantissa)
    if "^" in text:
        base, e = text.split("^")
        return int(base) ** int(e) == value
    return int(text.replace(",", "")) == value


def _figures(name: str) -> list:
    """Every figure README gives a constant: `name` = N, `name` (N) or
    `name` (about N), and N (`name`) or N residues (`name`), the name
    with or without its module."""
    text = README.read_text()
    named = rf"`(?:\w+\.)?{name}`"
    return (re.findall(rf"{named}\s*(?:=|\((?:about\s+)?)\s*{NUMBER}", text)
            + re.findall(rf"{NUMBER}(?: \w+)? \({named}\)", text))


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_readme_constants_are_the_codes(name):
    value = getattr(CONSTANTS[name], name)
    figures = _figures(name)
    assert figures, f"README gives no figure for {name}"
    for text in figures:
        assert _equals(text, value), f"README says {name} is {text}, the code {value}"


def _memo_table() -> dict:
    """{memo name: the figure its bound column starts with, or None for none}."""
    lines = README.read_text().splitlines()
    rows = {}
    for line in lines[lines.index("| memo | key | bound | bytes |") + 2:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        name = re.fullmatch(r"\s*`([^`]+)`\s*", cells[1]).group(1)
        bound = cells[3].strip()
        rows[name] = None if bound.startswith("none") else re.match(NUMBER, bound).group(1)
    return rows


def test_readme_memo_table_bounds_are_the_memos():
    table, memos = _memo_table(), campana.memos()
    assert sorted(table) == sorted(memos)
    for name, text in table.items():
        bound = memos[name].bound
        assert (text is None) == (bound is None), name
        assert text is None or _equals(text, bound), f"README bounds {name} at {text}, not {bound}"


def test_the_figure_readers():
    assert _equals("2^22", 1 << 22) and not _equals("2^22", (1 << 22) + 1)
    assert _equals("105,097,564", 105_097_564)
    assert _equals("3.3·10^24", 3317044064679887385961981)
    assert not _equals("3.4·10^24", 3317044064679887385961981)
    assert _figures("TWIST_PLANS") == ["32"]
