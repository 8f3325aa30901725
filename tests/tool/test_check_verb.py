"""The ``check`` verb: correctness harness from the command line."""

from __future__ import annotations

import random

import pytest

from repro.tool.cli import main


@pytest.fixture
def index_file(tmp_path):
    rng = random.Random(9)
    csv_path = tmp_path / "points.csv"
    rows = ["x,y"]
    for _ in range(120):
        rows.append(f"{rng.uniform(-5, 5):.6f},{rng.uniform(-5, 5):.6f}")
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "points.pht"
    assert (
        main(["build", str(csv_path), "-c", "x,y", "-o", str(out)]) == 0
    )
    return out


def test_check_requires_a_stage(capsys):
    rc = main(["check"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "nothing to do" in captured.err


def test_check_validate_index(index_file, capsys):
    rc = main(["check", "--validate", str(index_file)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "OK" in captured.out
    assert "PHTree" in captured.out


def test_check_validate_missing_file(tmp_path, capsys):
    rc = main(["check", "--validate", str(tmp_path / "absent.pht")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err


def test_check_fuzz_smoke(capsys):
    rc = main(
        [
            "check",
            "--fuzz",
            "--seed",
            "0",
            "--ops",
            "300",
            "--dims",
            "2,3",
            "--width",
            "12",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "dims=2" in captured.out
    assert "dims=3" in captured.out
    assert captured.out.count("OK") == 2


def test_check_fuzz_failure_prints_repro(capsys, monkeypatch):
    from repro.core.arena_tree import ArenaPHTree
    from repro.core.phtree import PHTree

    # Plant the lie in both storage engines (each defines its own
    # contains, so the layout in use always hits a patched method).
    for cls in (PHTree, ArenaPHTree):
        original = cls.__dict__["contains"]

        def lying_contains(self, key, _original=original):
            result = _original(self, key)
            if result and sum(key) % 5 == 0:
                return False
            return result

        monkeypatch.setattr(cls, "contains", lying_contains)
    rc = main(
        ["check", "--fuzz", "--ops", "1500", "--dims", "2", "--width", "8"]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAILED" in captured.err
    # The shrunk repro is paste-able: imports, ops, replay call.
    assert "from repro.check.fuzz import" in captured.err
    assert "replay(" in captured.err


def test_check_faults(capsys):
    rc = main(["check", "--faults"])
    captured = capsys.readouterr()
    assert rc == 0
    for fault in (
        "lock-timeout",
        "disk-flush-kill",
        "disk-compact-kill",
        "disk-torn-wal",
    ):
        assert f"PASS {fault}" in captured.out


def test_check_combined_stages(index_file, capsys):
    rc = main(
        [
            "check",
            "--validate",
            str(index_file),
            "--fuzz",
            "--ops",
            "150",
            "--dims",
            "2",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "validate:" in captured.out
    assert "fuzz:" in captured.out
