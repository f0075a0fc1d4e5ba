"""tools/report_identity.py: every subcommand's reports rerun byte-identical."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from menshov import cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "report_identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_identity", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_reports_rerun_byte_identical_on_every_subcommand():
    tool = load_tool()
    assert {sub for sub, _, _ in tool.CONFIGS.values()} == set(cli._COMMANDS)
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"same {name}"
                                        for name in tool.CONFIGS]


def test_differences_names_each_stream_and_file():
    tool = load_tool()
    a = {"exit code": 0, "stdout": b"", "stderr": b"w\n",
         "files": {"r.json": b"1", "s.csv": b"x"}}
    b = {**a, "exit code": 4, "files": {"r.json": b"2", "t.svg": b""}}
    assert tool.differences(a, dict(a)) == []
    assert tool.differences(a, b) == ["exit code", "r.json", "s.csv", "t.svg"]
