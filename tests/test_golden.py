"""Golden outputs: every preset's files are pinned by their sha256.

A refactor that claims byte-identical outputs is checked here: the five
presets and the full-size demand-response run (n_der = 500) are run at their
configured seeds, and regret.csv, bounds.csv and summary.txt must hash to
the recorded values.  The hashes were recorded with numpy 2.4.6, scipy
1.17.1 and Python 3.11.7; another numpy may round differently in the last
bit, so the test is skipped there.
"""

import hashlib

import numpy as np
import pytest

from plgrad.cli import write_report
from plgrad.config import make_config
from plgrad.harness import run_experiment

RECORDED_NUMPY = "2.4.6"

# (preset, config sections) -> sha256 of regret.csv, bounds.csv, summary.txt
GOLDEN = {
    ("fig1-ls", None): (
        "7861f34a0a6b220f28247ff91c776e0311e1986014651ee3944e2695ba4839b0",
        "4e43e9a17171877ea990f6fa7c5cc2677f5a67ed8093ddf9fdc71faae7a2b0a9",
        "fa2b99c2a31ae6b8dbf00c228f2e04048ba5e8425b942cde530844ff37616617",
    ),
    ("static-ls", None): (
        "bf1a413bf29fa763e396c7f74beacc13af71b302a379f562253e2ce09cf38e16",
        "50ca523fd63db1f8676b7424e1244f25d5021498397b56a169bef9266f8b1496",
        "f9bfd9bd6d66e4c9a92970b664a8b78b7b3a8f7506f0a17f48761deaf372ab32",
    ),
    ("fig3-demand-response", None): (
        "4b36a81fcbe01232a1eccfe0ae87de746bbd4fdedff860c847572e5d5dfca41e",
        "37565d7ef521cd72087ccfba1dff3b5db39a19fe26381ad4a8250fcf581b461b",
        "c756eb22a8318286d63f182d4d655ada971c10333b145257597e4fa6c1609409",
    ),
    ("logistic", None): (
        "a98eddf43eadba0517eabe1f5080fe42120993f561c9f9eca405a609ddeecf12",
        "22700da6720facf8f65838218537d8f7c6c469f98e91d263d832ecf3a77330fa",
        "a060e3f2dfb6e7159c47e5dc60a5ad5b66ef87f88e1c1c770fd07f786b10bbbf",
    ),
    ("lti", None): (
        "07ac3ce09cc9ebeceedb8a1f0e169688dad142eb9f5d2f8131d61316d077facf",
        "23501348f69075782048a3b98d972312cb6f0011bf83e478366641792ddfb783",
        "7905954840ed8c8fcfee262f574305311b0d3dd46d69c9ee05b0f661c2e74d5b",
    ),
    ("fig3-demand-response", "n_der=500"): (
        "ae2b837a0cd99cfa902a0a1f7a7715e0acdaa0697fa69cdb013e6b9dbba25f1d",
        "4769aaf7c32a38b7424d59a67da0ce2ed78fb7b1c0e62bdea036dcdff71207e0",
        "60d7f8997772f54ee9f560f8890c26897d607e979b512a0bcd45af2cbecbe004",
    ),
}
SECTIONS = {None: {}, "n_der=500": {"problem": {"n_der": 500}}}
OUTPUTS = ("regret.csv", "bounds.csv", "summary.txt")


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"hashes recorded with numpy {RECORDED_NUMPY}, running {np.__version__}",
)
@pytest.mark.parametrize(
    "preset,variant", list(GOLDEN), ids=[f"{p}-{v}" if v else p for p, v in GOLDEN]
)
def test_outputs_match_recorded_hashes(preset, variant, tmp_path):
    cfg = make_config(SECTIONS[variant], {"preset": preset, "out": str(tmp_path)})
    write_report(run_experiment(cfg), tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in OUTPUTS)
    assert dict(zip(OUTPUTS, digests)) == dict(zip(OUTPUTS, GOLDEN[preset, variant]))
