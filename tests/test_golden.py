"""Golden outputs: every preset's files are pinned by their sha256.

A refactor that claims byte-identical outputs is checked here: the five
presets and the full-size demand-response run (n_der = 500) are run at their
configured seeds, and regret.csv, bounds.csv and summary.txt must hash to
the recorded values.  So must two `validate` verdict tables, as the command
prints them: validate_bounds on the run's report, and the gradient, pl and
prox checks of the battery, which sample their own points.  The hashes were recorded with numpy 2.4.6, scipy
1.17.1 and Python 3.11.7; another numpy may round differently in the last
bit, so the test is skipped there.
"""

import hashlib

import numpy as np
import pytest

from plgrad.cli import verdict_table, write_report
from plgrad.config import make_config
from plgrad.harness import run_experiment, run_validation_battery, validate_bounds

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
        "82cf02e8ea5fdfa877be5e06e9b2ec2c133fc4932e39a33b8da193913e2f2efd",
    ),
    ("fig3-demand-response", None): (
        "4b36a81fcbe01232a1eccfe0ae87de746bbd4fdedff860c847572e5d5dfca41e",
        "37565d7ef521cd72087ccfba1dff3b5db39a19fe26381ad4a8250fcf581b461b",
        "8464ed51587a35689f34ffd6803cc64f4260644e4a9692212c46f30345b11f29",
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
        "b9a54bae0f59781112e465f3c8cd5ff3a096adff633c3a98264a44c8e17fb98e",
    ),
}
# (preset, config sections) -> sha256 of the validate_bounds table and of the
# gradient, pl, prox battery table
VERDICTS = {
    ("fig1-ls", None): (
        "7babab289c37dc224943d293214c0b864c7b46798ddac1d86a1dd320a3bdb73f",
        "7b8c0288ac42bfd1d0cc8a66d6b35af62cee8a9777cf589df222aec71f865272",
    ),
    ("static-ls", None): (
        "453a884c7167d637b4412ecfc8e700be6127a2bb65157670bd375dd2c35cf1b0",
        "e09b999abff23ae6f3cb9123486798800b4c2b266fbb4e04086b072dec63a9d4",
    ),
    ("fig3-demand-response", None): (
        "65657d01cd2ddbc43da5531d07262075c567174491402d239c8d2f9c9b2dfbda",
        "9c7143fbf71248c2cd894ed4cf460411e6fd7be498a6defc803297b1216f8f75",
    ),
    ("logistic", None): (
        "2a4fb83e763906f7bf7660b195bb76525ee2fa06000e79ac129a2751a06007cf",
        "1d521b42f15c72cae0a8b02652240bd19c1cf15c549394a8c7643e2938d05281",
    ),
    ("lti", None): (
        "cac943cf4e25789ad0af667926d5e51201491cda3c65250c691e98b0fb5b07cd",
        "24e6f722cca8c56cb7d79386a4cec03b31710f653a03ea3a2cc199248fbdab98",
    ),
    ("fig3-demand-response", "n_der=500"): (
        "4213086235eb9e06bef2299c30454130822a0ec3c5cbb9c0065d212aa60e56a1",
        "b6cbb3df9bf1524f902eece9f8227d156859f1cbb573510ec456319b5be8ff1e",
    ),
}
SECTIONS = {None: {}, "n_der=500": {"problem": {"n_der": 500}}}
OUTPUTS = ("regret.csv", "bounds.csv", "summary.txt")
TABLES = ("validate_bounds", "battery")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"hashes recorded with numpy {RECORDED_NUMPY}, running {np.__version__}",
)
@pytest.mark.parametrize(
    "preset,variant", list(GOLDEN), ids=[f"{p}-{v}" if v else p for p, v in GOLDEN]
)
def test_outputs_match_recorded_hashes(preset, variant, tmp_path):
    cfg = make_config(SECTIONS[variant], {"preset": preset, "out": str(tmp_path)})
    report = run_experiment(cfg)
    write_report(report, tmp_path)
    digests = tuple(_sha256((tmp_path / name).read_bytes()) for name in OUTPUTS)
    assert dict(zip(OUTPUTS, digests)) == dict(zip(OUTPUTS, GOLDEN[preset, variant]))
    tables = (
        verdict_table(validate_bounds(report)),
        verdict_table(run_validation_battery(cfg, ("gradient", "pl", "prox"))),
    )
    digests = tuple(_sha256(table.encode()) for table in tables)
    assert dict(zip(TABLES, digests)) == dict(zip(TABLES, VERDICTS[preset, variant]))
