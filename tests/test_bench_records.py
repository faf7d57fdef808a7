"""The committed BENCH_<n>.json records: from BENCH_16 on, each one loads as
JSON, holds its parent and change results and names the machine it ran on.
BENCH_6 to BENCH_15 came before that rule and are left as they are."""
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDS = sorted((p for p in ROOT.glob("BENCH_*.json")
                  if int(re.fullmatch(r"BENCH_(\d+)\.json", p.name).group(1)) >= 16),
                 key=lambda p: int(p.stem.split("_")[1]))


def test_there_are_records():
    assert RECORDS and RECORDS[0].name == "BENCH_16.json"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_bench_record_follows_the_rule(path):
    record = json.loads(path.read_text())
    assert {"parent", "change", "end_to_end"} <= record.keys()
    machine = record.get("machine")
    assert isinstance(machine, dict)
    for key in ("backend", "python", "numpy", "cpu_count"):
        assert machine.get(key) is not None, f"{path.name}: machine.{key} is missing or null"
