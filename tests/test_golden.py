"""Golden outputs: every preset's files are pinned by their sha256.

A refactor that claims byte-identical outputs is checked here: the five
presets and the full-size demand-response run (n_der = 500) are run at their
configured seeds, and regret.csv, bounds.csv and summary.txt must hash to
the recorded values.  So must two `validate` verdict tables, as the command
prints them: validate_bounds on the run's report, pinned by its sha256, and
the gradient, pl and prox checks of the battery, which sample their own
points, pinned by their text, so a change to one of them shows the line
that moved.  The values were recorded with numpy 2.4.6 and Python 3.11.7;
another numpy may round differently in the last bit, so the test is
skipped there.
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
        "0c70be637e73b8ad14105f4217d5490dc241a18c370107c6d5a63ea728b36c0c",
        "6a717430b2c48c98b4673c53d58e3095529becd33b31f31c621554eac47c3289",
        "6a17364f230e5c420b9c8fe094c112b886f3034a30b5a9db64e3c1d34cd8413d",
    ),
    ("logistic", None): (
        "a98eddf43eadba0517eabe1f5080fe42120993f561c9f9eca405a609ddeecf12",
        "22700da6720facf8f65838218537d8f7c6c469f98e91d263d832ecf3a77330fa",
        "1dd7e1744dad18e4394ae57edf2b6e262d011e042a3c2e4560f23bb2582a78b8",
    ),
    ("lti", None): (
        "07ac3ce09cc9ebeceedb8a1f0e169688dad142eb9f5d2f8131d61316d077facf",
        "23501348f69075782048a3b98d972312cb6f0011bf83e478366641792ddfb783",
        "7905954840ed8c8fcfee262f574305311b0d3dd46d69c9ee05b0f661c2e74d5b",
    ),
    ("fig3-demand-response", "n_der=500"): (
        "aeb09e1e96e1fcbf4f1ca910ef9c951848501399d81c9bedeed03b9805a48920",
        "54b11936e559767dcf3012a67756a9a4b78bef28ab756bee9548828e04b0c302",
        "309a61fb02a282de3b11c329de8ba1331850c396e3b429c6f920ca38a1e10b26",
    ),
}
# (preset, config sections) -> sha256 of the validate_bounds table
VERDICTS = {
    ("fig1-ls", None): (
        "7babab289c37dc224943d293214c0b864c7b46798ddac1d86a1dd320a3bdb73f"
    ),
    ("static-ls", None): (
        "453a884c7167d637b4412ecfc8e700be6127a2bb65157670bd375dd2c35cf1b0"
    ),
    ("fig3-demand-response", None): (
        "65657d01cd2ddbc43da5531d07262075c567174491402d239c8d2f9c9b2dfbda"
    ),
    ("logistic", None): (
        "87a4bfad53da88910df46f6be4f36e25ac52e32b09f3fca719b720f1ba9086eb"
    ),
    ("lti", None): (
        "cac943cf4e25789ad0af667926d5e51201491cda3c65250c691e98b0fb5b07cd"
    ),
    ("fig3-demand-response", "n_der=500"): (
        "4213086235eb9e06bef2299c30454130822a0ec3c5cbb9c0065d212aa60e56a1"
    ),
}
# (preset, config sections) -> the gradient, pl and prox battery table
BATTERIES = {
    ("fig1-ls", None): (
        "gradient_fd     PASS  max relative error 5.06e-09\n"
        "pl_certificate  PASS  sampled mu 0.306711 vs declared 0.1\n"
        "prox_grid       PASS  max |closed - grid| = 1.16e-09"
    ),
    ("static-ls", None): (
        "gradient_fd     PASS  max relative error 2.86e-09\n"
        "pl_certificate  PASS  sampled mu 0.293584 vs declared 0.1\n"
        "prox_grid       PASS  max |closed - grid| = 1.16e-09"
    ),
    ("fig3-demand-response", None): (
        "gradient_fd     PASS  max relative error 1.29e-08\n"
        "pl_certificate  PASS  sampled proximal mu 13.6926 vs declared 1\n"
        "prox_grid       PASS  max |closed - grid| = 1.16e-09"
    ),
    ("logistic", None): (
        "gradient_fd     PASS  max relative error 1.39e-09\n"
        "pl_certificate  PASS  sampled mu 0.763529 vs declared 0.429305\n"
        "prox_grid       PASS  max |closed - grid| = 1.16e-09"
    ),
    ("lti", None): (
        "gradient_fd     PASS  max relative error 1.82e-09\n"
        "pl_certificate  PASS  sampled mu 0.74082 vs declared 0.556454\n"
        "prox_grid       PASS  max |closed - grid| = 1.16e-09"
    ),
    ("fig3-demand-response", "n_der=500"): (
        "gradient_fd     PASS  max relative error 3.18e-08\n"
        "pl_certificate  PASS  sampled proximal mu 453.208 vs declared 1\n"
        "prox_grid       PASS  max |closed - grid| = 1.16e-09"
    ),
}
SECTIONS = {None: {}, "n_der=500": {"problem": {"n_der": 500}}}
OUTPUTS = ("regret.csv", "bounds.csv", "summary.txt")


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
    assert _sha256(verdict_table(validate_bounds(report)).encode()) == VERDICTS[preset, variant]
    battery = run_validation_battery(cfg, ("gradient", "pl", "prox"))
    assert verdict_table(battery) == BATTERIES[preset, variant]
