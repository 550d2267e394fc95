"""scripts/tape_information.py runs periodic tapes through the network into analysis.

The expected table was printed by the payload-per-cell form of cnets.eca,
so it pins the uint8 cell vector, the periodic wrap and the trace
measures end to end.
"""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "tape_information.py"

EXPECTED = """\
rule  per-cell bits  joint bits    excess
 204           0.00        0.00      0.00
  90          14.50        3.99     10.51
 110          14.98        4.95     10.03
  30          16.38        4.95     11.42
"""


def test_table_at_width_17_for_30_steps(capsys):
    spec = importlib.util.spec_from_file_location("tape_information", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--width", "17", "--steps", "30"]) == 0
    assert capsys.readouterr().out == EXPECTED
