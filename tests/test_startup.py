"""What a cold start imports: ``seqarea``, every CLI subcommand and
``--help`` run without ``dataclasses``, ``typing`` or ``inspect``, which
together take about 15 ms of a start on CPython 3.11, nor ``argparse``
(which loads ``gettext``) or the ``json`` package (``json.decoder``)."""

import subprocess
import sys
from pathlib import Path

import seqarea

SRC = str(Path(seqarea.__file__).resolve().parents[1])
UNWANTED = ("dataclasses", "typing", "inspect", "argparse", "gettext", "json.decoder")

# One argv per subcommand and one --help, run through cli.main with its
# output captured.
ARGVS = [
    ["gen", "padovan", "--count", "12", "--format", "json"],
    ["area", "pell", "--n", "30000", "--k", "5", "--m", "4", "--method", "both"],
    ["verify", "fibonacci", "--n", "0..3", "--k", "1..2", "--m", "3..4",
     "--format", "csv"],
    ["table", "third-order", "--k-max", "3"],
    ["area", "--help"],
]

CHILD = """
import io
import sys

sys.path.insert(0, {src!r})
import seqarea
from seqarea import cli

shown = sys.stdout
codes = []
for argv in {argvs!r}:
    sys.stdout = sys.stderr = io.StringIO()
    codes.append((cli.main(argv), len(sys.stdout.getvalue()) > 0))
sys.stdout = shown
print(codes, [name for name in {unwanted!r} if name in sys.modules])
"""


def test_cli_runs_without_dataclasses_typing_or_inspect():
    # -E and -S: no PYTHON* variable and no site packages add imports.
    code = CHILD.format(src=SRC, argvs=ARGVS, unwanted=UNWANTED)
    result = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{[(0, True)] * len(ARGVS)} []\n"
