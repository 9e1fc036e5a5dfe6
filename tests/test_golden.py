"""Golden outputs: every preset's files are pinned by their sha256, and
each column and value by its own.

A refactor that claims byte-identical outputs is checked here: the five
presets and the full-size demand-response run (n_der = 500) are run at their
configured seeds, and regret.csv, bounds.csv and summary.txt must hash to
the recorded values.  Each file is pinned twice.  Its whole-file sha256
guards the row format and the line endings.  Its pins name its columns (or,
in summary.txt, its keys) in order and hash each one's cells, so a declared
change to one column shows as a diff of only that column's pins.
Two `validate` verdict tables are pinned by their text, one check line at
a time, as the command prints them: validate_bounds on the run's report,
and the gradient, pl and prox checks of the battery, which sample their own
points.  The values were recorded with numpy 2.4.6 and Python 3.11.7;
another numpy may round differently in the last bit, so the test is
skipped there.
"""

import csv
import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from plgrad.cli import _fmt, verdict_table, write_report
from plgrad.config import make_config
from plgrad.harness import run_experiment, run_validation_battery, validate_bounds

RECORDED_NUMPY = "2.4.6"

# (preset, config sections) -> sha256 of regret.csv, bounds.csv, summary.txt
GOLDEN = {
    ("fig1-ls", None): (
        "7861f34a0a6b220f28247ff91c776e0311e1986014651ee3944e2695ba4839b0",
        "4e43e9a17171877ea990f6fa7c5cc2677f5a67ed8093ddf9fdc71faae7a2b0a9",
        "296ad110e4a326ce50fa7ac1e656607605a1139f8f53eb5a469ec3ae34a362c7",
    ),
    ("static-ls", None): (
        "bf1a413bf29fa763e396c7f74beacc13af71b302a379f562253e2ce09cf38e16",
        "50ca523fd63db1f8676b7424e1244f25d5021498397b56a169bef9266f8b1496",
        "3162a7e53723ae046652b7eba502ebd6bbf86432a067005edb2f8b66c001b082",
    ),
    ("fig3-demand-response", None): (
        "0c70be637e73b8ad14105f4217d5490dc241a18c370107c6d5a63ea728b36c0c",
        "6a717430b2c48c98b4673c53d58e3095529becd33b31f31c621554eac47c3289",
        "fa656a307ec0d3526e408fe6c2b0b519b4f3b3b8f336a12e5f95b9ae7f9fb532",
    ),
    ("logistic", None): (
        "a98eddf43eadba0517eabe1f5080fe42120993f561c9f9eca405a609ddeecf12",
        "22700da6720facf8f65838218537d8f7c6c469f98e91d263d832ecf3a77330fa",
        "5779ebe6c1718f9ced45b7dc37495f8a3adb57bcb4dd4eaa852e80345b01cad0",
    ),
    ("lti", None): (
        "07ac3ce09cc9ebeceedb8a1f0e169688dad142eb9f5d2f8131d61316d077facf",
        "23501348f69075782048a3b98d972312cb6f0011bf83e478366641792ddfb783",
        "7f8b4a1b5d61e9066ae2c3bba1bcbf5f860bf8541e1782eb7242053d57c33753",
    ),
    ("fig3-demand-response", "n_der=500"): (
        "aeb09e1e96e1fcbf4f1ca910ef9c951848501399d81c9bedeed03b9805a48920",
        "54b11936e559767dcf3012a67756a9a4b78bef28ab756bee9548828e04b0c302",
        "22c335c56c011113588d5fb114687c9c44e523c361bcd415222b02dc5cce7747",
    ),
}
# (preset, config sections) -> the validate_bounds table
VERDICTS = {
    ("fig1-ls", None): (
        "theory_scope           PASS  step 1/L: the certificates apply\n"
        "recursion_pathwise     PASS  max step residual -2.876e-02 (tol 1e-09)\n"
        "expectation_dominance  PASS  max (mean - bound) = 0.000e+00 at t=0\n"
        "coverage_0.1           PASS  violations {125: 0, 250: 0, 500: 0} vs envelope 18 of 100\n"
        "coverage_0.05          PASS  violations {125: 0, 250: 0, 500: 0} vs envelope 11 of 100\n"
        "envelope_moments       PASS  max ||e||_k / (K k^theta) = 1.000 (limit 1.1)"
    ),
    ("static-ls", None): (
        "theory_scope           PASS  step 1/L: the certificates apply\n"
        "recursion_pathwise     PASS  max step residual -4.107e-04 (tol 1e-09)\n"
        "expectation_dominance  PASS  max (mean - bound) = 0.000e+00 at t=0\n"
        "coverage_0.1           PASS  violations {125: 0, 250: 0, 500: 0} vs envelope 18 of 100\n"
        "coverage_0.05          PASS  violations {125: 0, 250: 0, 500: 0} vs envelope 11 of 100\n"
        "envelope_moments       PASS  max ||e||_k / (K k^theta) = 1.000 (limit 1.1)"
    ),
    ("fig3-demand-response", None): (
        "theory_scope           PASS  step 1/L: the certificates apply\n"
        "recursion_pathwise     PASS  max step residual -1.324e+01 (tol 1e-09)\n"
        "expectation_dominance  PASS  max (mean - bound) = 0.000e+00 at t=0\n"
        "coverage_0.1           PASS  violations {150: 0, 300: 0, 600: 0} vs envelope 10 of 50\n"
        "coverage_0.05          PASS  violations {150: 0, 300: 0, 600: 0} vs envelope 7 of 50\n"
        "envelope_moments       PASS  max ||e||_k / (K k^theta) = 1.000 (limit 1.1)"
    ),
    ("logistic", None): (
        "theory_scope           PASS  step 1/L: the certificates apply\n"
        "recursion_pathwise     PASS  max step residual -1.309e-04 (tol 1e-09)\n"
        "expectation_dominance  PASS  max (mean - bound) = 0.000e+00 at t=0\n"
        "coverage_0.1           PASS  violations {12: 0, 25: 0, 50: 0} vs envelope 6 of 20\n"
        "envelope_moments       PASS  max ||e||_k / (K k^theta) = 1.000 (limit 1.1)"
    ),
    ("lti", None): (
        "theory_scope           PASS  step 1/L: the certificates apply\n"
        "recursion_pathwise     PASS  max step residual -1.131e-03 (tol 1e-09)\n"
        "expectation_dominance  PASS  max (mean - bound) = 0.000e+00 at t=0\n"
        "coverage_0.1           PASS  violations {75: 0, 150: 0, 300: 0} vs envelope 10 of 50\n"
        "coverage_0.05          PASS  violations {75: 0, 150: 0, 300: 0} vs envelope 7 of 50\n"
        "envelope_moments       PASS  max ||e||_k / (K k^theta) = 1.000 (limit 1.1)"
    ),
    ("fig3-demand-response", "n_der=500"): (
        "theory_scope           PASS  step 1/L: the certificates apply\n"
        "recursion_pathwise     PASS  max step residual -8.272e+01 (tol 1e-09)\n"
        "expectation_dominance  PASS  max (mean - bound) = 0.000e+00 at t=0\n"
        "coverage_0.1           PASS  violations {150: 0, 300: 0, 600: 0} vs envelope 10 of 50\n"
        "coverage_0.05          PASS  violations {150: 0, 300: 0, 600: 0} vs envelope 7 of 50\n"
        "envelope_moments       PASS  max ||e||_k / (K k^theta) = 1.000 (limit 1.1)"
    ),
}
# (preset, config sections) -> the gradient, pl and prox battery table
BATTERIES = {
    ("fig1-ls", None): (
        "gradient_fd     PASS  max relative error 1.52e-09\n"
        "pl_certificate  PASS  sampled mu 0.306711 vs declared 0.1\n"
        "prox_grid       PASS  no regularizer: nothing checked"
    ),
    ("static-ls", None): (
        "gradient_fd     PASS  max relative error 8.46e-10\n"
        "pl_certificate  PASS  sampled mu 0.293584 vs declared 0.1\n"
        "prox_grid       PASS  no regularizer: nothing checked"
    ),
    ("fig3-demand-response", None): (
        "gradient_fd     PASS  max relative error 2.00e-09\n"
        "pl_certificate  PASS  sampled proximal mu 13.6926 vs declared 1\n"
        "prox_grid       PASS  max |closed - grid| = 1.83e-09"
    ),
    ("logistic", None): (
        "gradient_fd     PASS  max relative error 1.24e-09\n"
        "pl_certificate  PASS  sampled mu 0.763529 vs declared 0.429305\n"
        "prox_grid       PASS  no regularizer: nothing checked"
    ),
    ("lti", None): (
        "gradient_fd     PASS  max relative error 8.47e-10\n"
        "pl_certificate  PASS  sampled mu 0.74082 vs declared 0.556454\n"
        "prox_grid       PASS  no regularizer: nothing checked"
    ),
    ("fig3-demand-response", "n_der=500"): (
        "gradient_fd     PASS  max relative error 2.86e-08\n"
        "pl_certificate  PASS  sampled proximal mu 453.208 vs declared 1\n"
        "prox_grid       PASS  max |closed - grid| = 2.05e-09"
    ),
}
# (preset, config sections, file) -> each column's (each summary value's)
# sha256, keyed by its name in the file's order; see pins()
PINS = {
    ("fig1-ls", None, "regret.csv"): {
        "t": "1e5c51f9dc431dd9a67246abe2f300980bc32ecaab6c74654d288ff3278954f4",
        "mean_regret": "24cf5845bcb7c8a7a3ec95207e452f51463abd216aad77d33d093fbe98269e1a",
        "std_regret": "0c3dfec223a492fae7314962d350d225fc0bce9efe7dfabc968ad62240b2a907",
        "band_lo": "19e8e7f053588c46ca7070484c6fb02e6e336c4bf936424b2fa4e6b925752523",
        "band_hi": "72fe91b32f7d0289b77b2df94b3d199768eb4e154a53cde15ada1747d460dd13",
        "band_lo_sem": "1896b81a8ebf5d2459960d3ea102dc10c9b30398a7514841eed2048b94a34de1",
        "band_hi_sem": "41471abe2eec3fdf22dd069b6dc35c0ecb90e859c842e8f4b0b752f6fb73803f",
        "bound_expectation": "db699480d6a1b4693331aeae2b9942ec66e20b944a758dc4dd436449e65f4c75",
        "bound_highprob_0.1": "881558e9c33c4a4bb290c8d6a268698b942e593059ab76cded720298c512a448",
        "bound_highprob_0.05": "99cacf498d8e19452f37621a72f42783c51b28991c8fd2d3a5f5c156210b55da",
    },
    ("fig1-ls", None, "bounds.csv"): {
        "t": "1e5c51f9dc431dd9a67246abe2f300980bc32ecaab6c74654d288ff3278954f4",
        "bound_expectation_empirical": "db699480d6a1b4693331aeae2b9942ec66e20b944a758dc4dd436449e65f4c75",
        "bound_highprob_0.05_empirical": "99cacf498d8e19452f37621a72f42783c51b28991c8fd2d3a5f5c156210b55da",
        "bound_highprob_0.1_empirical": "881558e9c33c4a4bb290c8d6a268698b942e593059ab76cded720298c512a448",
        "bound_markov_0.05_empirical": "1d73a27e5fefc77bd3dd1068d187d9ddf8753af0e2dfbcc2b42dc3e5a55b3500",
        "bound_markov_0.1_empirical": "f43139f13b80953b8b35325008101766e37cd9068595907ba67bc91df25753c6",
        "bound_expectation_analytic": "ea2df53f4e616572fa5636a512e27ed542411aef54e82c702429337cf577afcb",
        "bound_highprob_0.05_analytic": "d4faa92ba61397fe3de432489d3430281304b54273b1134c29e4d9a76c8ff528",
        "bound_highprob_0.1_analytic": "a93e0c2153dfbb713706eb420d5517561d8445fbf3f533c471ec1ba6b734782f",
        "bound_markov_0.05_analytic": "8e509dae03ab27f16025c24d5399125e04fa4869a934e76b9d46044a44f0d4d5",
        "bound_markov_0.1_analytic": "c118304f8dd2032ece285ee5ace9ebc95debcd29fdc56dc64ccb97fdc7d0cec5",
    },
    ("fig1-ls", None, "summary.txt"): {
        "preset": "d3defde093290649d6f05de65cc99d7ee21508b725faa4d129ea864c9ba54cf3",
        "problem": "6414edf40f063a8d56f20156923ca7fdf70d07192a8cb2fec9c48a18b7d56428",
        "solver": "ad43a7c293d6d555134ee174a329fa4b2a72ee0c0e7e09257acf41f12de09230",
        "n": "4a44dc15364204a80fe80e9039455cc1608281820fe2b24f1e5233ade6af1dd5",
        "horizon": "0604cd3138feed202ef293e062da2f4720f77a05d25ee036a7a01c9cfcdd1f0a",
        "trials": "ad57366865126e55649ecb23ae1d48887544976efea46a48eb5d85a6eeb4d306",
        "seed": "73475cb40a568e8da8a045ced110137e159f890ac4da883b6b17dc651b3a8049",
        "bound_inputs": "426e732d555fa291dbdf7a88f3c5d8ce9a9cbbb40f0b4963b49ecf9077356b72",
        "smoothness": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "pl_constant": "01bcb760af885969aa9d8bda4a5c9925a37eecb45aeac57c5068cef9805fa835",
        "zeta": "ca428a715e77f5f23f55c2c02a61e68a1abb9c8b5a33eb85f58ce79402f51add",
        "diameter": "3c8039c475fcac6f4e724f9b1913a1b1e3021af3abb2bb00c89751f06a954e3f",
        "r0": "0a553c6ec5def67756bc94f3d9e1a453c9adb06f8cb93f2948693a9b504b8f84",
        "fstar_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "mu_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "envelope_theta": "d2cbad71ff333de67d07ec676e352ab7f38248eb69c942950157220607c55e84",
        "envelope_k_max": "39f973e10e7ada4f51a3cdcdeb1e88bc321fcd31ef162a81f55ff33a058c8555",
        "e_bar": "c233f3c3e4120718a4b83b0935f95524b0ec124e26c2597e621648c11ed52c75",
        "psi_bar": "2cb526ae9d62fdefdc7865f35a27c2c0dd9923a49156bacca0795fa62d4736ef",
        "psi_bar_source": "4802ed757e5dc59819792a6fd7c8914f31dc46af90664ce20d9cbef4755e14b0",
        "asymptote": "867d83c3900ca24fda0b0ee78e1c2c411467271218bc379f88a9f54490bb1757",
        "recursion_max_violation": "4d5f4f0cc278d24df1900a6a0e7e76ff80157d3561c4855008e5b4c08d5f7443",
        "domain_excursions": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "outside_theory": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
        "min_raw_regret": "5190be36667d9a2a574aab1ed4d167d55b8586781ed9458acadfb800aa64f3fc",
        "final_mean_regret": "150cc7a46ddad253945e9854cecabdc47110502ab7f413e5a47e4b8452b16062",
        "violations_delta_0.1": "80ebff0c56ca55cd9342d5ef3725d8f3b5dd162472acc1a144e9e31c041786b6",
        "violations_delta_0.05": "80ebff0c56ca55cd9342d5ef3725d8f3b5dd162472acc1a144e9e31c041786b6",
    },
    ("static-ls", None, "regret.csv"): {
        "t": "1e5c51f9dc431dd9a67246abe2f300980bc32ecaab6c74654d288ff3278954f4",
        "mean_regret": "448de385ac8d4addf5fbc43b341ea2161049d8734e6622106c848a3bceaeee58",
        "std_regret": "7494411401243a15c48110f43d93eeb91a9781b9b6e3d53277bc44d372b0c63c",
        "band_lo": "dad678df3f17d913272375be27d4f80ff50639fc515c693e71082d2c40e6c23f",
        "band_hi": "bab490857c7d2b1f74f65cc3908fcf2474db0774dec7fe44665c98895a4d330c",
        "band_lo_sem": "84308d5403b5e10b152c566e11cb65ea5e647c31e287ac5b68dba3bca011b6c5",
        "band_hi_sem": "e123b0cc2cc9d0f458323c90ed5051c9e25dfa021410c7444c020bb25d5aafb7",
        "bound_expectation": "f901573aa66b184269ad639bf5e68394a4d98659837ebf8076d4a020341e519c",
        "bound_highprob_0.1": "4f3e55086903fe5263f7b14956e61d249c4e20accbb7a45382b4f45e0ffc249b",
        "bound_highprob_0.05": "db38fceb702a2ca47fc254df4449d05c01cb3b14f6b031629726977073061103",
    },
    ("static-ls", None, "bounds.csv"): {
        "t": "1e5c51f9dc431dd9a67246abe2f300980bc32ecaab6c74654d288ff3278954f4",
        "bound_expectation_empirical": "f901573aa66b184269ad639bf5e68394a4d98659837ebf8076d4a020341e519c",
        "bound_highprob_0.05_empirical": "db38fceb702a2ca47fc254df4449d05c01cb3b14f6b031629726977073061103",
        "bound_highprob_0.1_empirical": "4f3e55086903fe5263f7b14956e61d249c4e20accbb7a45382b4f45e0ffc249b",
        "bound_markov_0.05_empirical": "14c2de42366bc73bcffed362ade71c23b46a13fe31a2392c1f26452ff4704347",
        "bound_markov_0.1_empirical": "f66d2c3c7531a31c234ce3fd357464379250c63f0cc38016e21cbec245049a86",
        "bound_expectation_analytic": "83eb2cd04ed367fa99ba7c11db3a4b81183580500abc3436c75640eda8025567",
        "bound_highprob_0.05_analytic": "35596dd9d8e71e02f3a7f045ae01f7e925f6b21bb4588fde1613d4694806144e",
        "bound_highprob_0.1_analytic": "33996e8e93d0e37a3d73848c645956a9ccaa2a8c4f45ba698acdee5e67a3bb72",
        "bound_markov_0.05_analytic": "ad4ff68c9440e9af4f9b43dcf94596ded69d686f06ec6118df17abc565b2732e",
        "bound_markov_0.1_analytic": "76c20c411040432cde11168d9b25fb918ba16ae3f4c0669476e5cc4b820a42b0",
    },
    ("static-ls", None, "summary.txt"): {
        "preset": "ff3082d4c61bf54fd6e07cb96fc2c2b297e3fdc8b48e924b04d32b9b3dc10afa",
        "problem": "6414edf40f063a8d56f20156923ca7fdf70d07192a8cb2fec9c48a18b7d56428",
        "solver": "ad43a7c293d6d555134ee174a329fa4b2a72ee0c0e7e09257acf41f12de09230",
        "n": "4a44dc15364204a80fe80e9039455cc1608281820fe2b24f1e5233ade6af1dd5",
        "horizon": "0604cd3138feed202ef293e062da2f4720f77a05d25ee036a7a01c9cfcdd1f0a",
        "trials": "ad57366865126e55649ecb23ae1d48887544976efea46a48eb5d85a6eeb4d306",
        "seed": "73475cb40a568e8da8a045ced110137e159f890ac4da883b6b17dc651b3a8049",
        "bound_inputs": "426e732d555fa291dbdf7a88f3c5d8ce9a9cbbb40f0b4963b49ecf9077356b72",
        "smoothness": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "pl_constant": "01bcb760af885969aa9d8bda4a5c9925a37eecb45aeac57c5068cef9805fa835",
        "zeta": "ca428a715e77f5f23f55c2c02a61e68a1abb9c8b5a33eb85f58ce79402f51add",
        "diameter": "3c8039c475fcac6f4e724f9b1913a1b1e3021af3abb2bb00c89751f06a954e3f",
        "r0": "fcb4616289ca484b07644d2c874d02e9b06ecf8fc6ddeb74c0db22223602b215",
        "fstar_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "mu_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "envelope_theta": "d2cbad71ff333de67d07ec676e352ab7f38248eb69c942950157220607c55e84",
        "envelope_k_max": "39f973e10e7ada4f51a3cdcdeb1e88bc321fcd31ef162a81f55ff33a058c8555",
        "e_bar": "c233f3c3e4120718a4b83b0935f95524b0ec124e26c2597e621648c11ed52c75",
        "psi_bar": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "psi_bar_source": "4802ed757e5dc59819792a6fd7c8914f31dc46af90664ce20d9cbef4755e14b0",
        "asymptote": "6a3df382c995b865d0930c9b7dfed854ebecf1de0afada166e6992369d250b86",
        "recursion_max_violation": "436c97c2de4307892bdb9717a0e0df40e7d73b9cef8fb997825cc34e2d2ac7c7",
        "domain_excursions": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "outside_theory": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
        "min_raw_regret": "8d79d2b935278c4c5079ba00bcd7597113b1fb779cca0f6b0320b8003237ee3b",
        "final_mean_regret": "8550656856440804bebad83f130fa8cf50f62fa7c6a86c407dba52c817d486df",
        "violations_delta_0.1": "80ebff0c56ca55cd9342d5ef3725d8f3b5dd162472acc1a144e9e31c041786b6",
        "violations_delta_0.05": "80ebff0c56ca55cd9342d5ef3725d8f3b5dd162472acc1a144e9e31c041786b6",
    },
    ("fig3-demand-response", None, "regret.csv"): {
        "t": "fd03f8a78e28b2f1e037892539b977098ec0dd2434e982aeebf798ebeb74d329",
        "mean_regret": "1d03c4139cc03b11bdaae85c5e302734fb786871a80e9ccc245ed1e8d7f43ea4",
        "std_regret": "6601e5d657bdad83b6c7a1230bd2d1b178c6f143138263a43e47c2ad88006850",
        "band_lo": "dd1f1ff895cb2054866f120fd525e1e74014758cd7f1ff0707f565e4cf6eeabc",
        "band_hi": "850e6fcd203fc2f8cfed5c5bc0d65832346c2142819cd016bacf484f57ab7240",
        "band_lo_sem": "3e0f3c27761e472eee55338530782575dff4c514b47d63593a293ced05337b5f",
        "band_hi_sem": "f5bfea9d9e3a3543cafc5f676d7e668dbbda31c9536a703ee02ffef7b7ff3b85",
        "bound_expectation": "c8db619060412fe0fd6c0833e433511ecc7d55a00b7191e4d2d854aa833ad964",
        "bound_highprob_0.1": "137d062464aaad0b0c7c5050d4815c66d53ad23fdbcb4e728af2c0d1e8fe1c46",
        "bound_highprob_0.05": "ebfc8b8ba85cee1bb4d04846c4f289f14267199f4153d977b4327699db9989a2",
    },
    ("fig3-demand-response", None, "bounds.csv"): {
        "t": "fd03f8a78e28b2f1e037892539b977098ec0dd2434e982aeebf798ebeb74d329",
        "bound_expectation_empirical": "c8db619060412fe0fd6c0833e433511ecc7d55a00b7191e4d2d854aa833ad964",
        "bound_highprob_0.05_empirical": "ebfc8b8ba85cee1bb4d04846c4f289f14267199f4153d977b4327699db9989a2",
        "bound_highprob_0.1_empirical": "137d062464aaad0b0c7c5050d4815c66d53ad23fdbcb4e728af2c0d1e8fe1c46",
        "bound_markov_0.05_empirical": "f0530b6a58f6ae43179112d35d46e863ea2d056caf65eb37db7349ff2daf5d83",
        "bound_markov_0.1_empirical": "c917e780a2eeb96875692cc23ccf9c90bb08c9cc021f083f0ff7b86bb6ca25d9",
        "bound_expectation_analytic": "ea05bac33c1cf0a3db4e9828747d6bed068e55f0257deb202566568d9ceca008",
        "bound_highprob_0.05_analytic": "cb2449f8cf29c2abee582d4320ac38bc71d96149833137536366db4dac4941d2",
        "bound_highprob_0.1_analytic": "1936c447a3f9b51adaf4ebc541e7e6299b2af147a66cdb2073a3a25cb030b379",
        "bound_markov_0.05_analytic": "95b7d9578844820158aca2f5d82eda1c02e26f1ac3f46cc64dae76391d32b147",
        "bound_markov_0.1_analytic": "98060ffc2df0eabc3d4fec10251e5e6b09a2edb2d1ccc76ff79ba6ae90796cf3",
    },
    ("fig3-demand-response", None, "summary.txt"): {
        "preset": "74a3fb1f81cd6752498d9955dfa7fb052450574b9306d0a6495531f9a02afbeb",
        "problem": "02e3ad485cfa2b135483e903ab71bbe117aa948bf3473d83a89217feaf24b00f",
        "solver": "7d7864c4b301f349b6f0b7965ac34d4bba98f08a178f5f09af4de47530f757e8",
        "n": "f5ca38f748a1d6eaf726b8a42fb575c3c71f1864a8143301782de13da2d9202b",
        "horizon": "284b7e6d788f363f910f7beb1910473e23ce9d6c871f1ce0f31f22a982d48ad4",
        "trials": "1a6562590ef19d1045d06c4055742d38288e9e6dcd71ccde5cee80f1d5a774eb",
        "seed": "73475cb40a568e8da8a045ced110137e159f890ac4da883b6b17dc651b3a8049",
        "bound_inputs": "426e732d555fa291dbdf7a88f3c5d8ce9a9cbbb40f0b4963b49ecf9077356b72",
        "smoothness": "f5ca38f748a1d6eaf726b8a42fb575c3c71f1864a8143301782de13da2d9202b",
        "pl_constant": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "zeta": "a50d3529be74aa5c34de635b21278d7c88bd82fc64b44bf54367159bb69944f1",
        "diameter": "6385b2f84cdc918dabfbc63bba67d48001e174524435698bffcfb53d9f41f09c",
        "r0": "7daa41cb85831a3e30bb911757398d2ef0cfc02b488e0c6d1b528dd20c90bdb2",
        "fstar_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "mu_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "envelope_theta": "d2cbad71ff333de67d07ec676e352ab7f38248eb69c942950157220607c55e84",
        "envelope_k_max": "fe36583aa320587ea61c2946fff3b9b2f5fcb1438288349810ce82e583a536d9",
        "e_bar": "57a56a0b760e9276de3d4f474080f61e5c999817bbe3ab3311278e7dae7e9cca",
        "psi_bar": "1a578b99b4a1a5cf64ec8f739020bfc775f2c3ed86db0c0333e66c311186878c",
        "psi_bar_source": "4802ed757e5dc59819792a6fd7c8914f31dc46af90664ce20d9cbef4755e14b0",
        "asymptote": "b902766ac081c21b6b1e9f2220e0e00efba6274b576f148e7bb78156789febf0",
        "recursion_max_violation": "13a79f2666a643f11b6b922d07ec5debdbd6df9941cb2609f0a44254f04fe1f2",
        "domain_excursions": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "outside_theory": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
        "min_raw_regret": "241c207432d84c6096b8dbf7a8db3a119ff1e64076695ca5fb0f0516cc17c6fd",
        "final_mean_regret": "ac178a7cdd25ad04f461dfb342139c5fff9feb66a99b7fdb01ae8d5206857de0",
        "violations_delta_0.1": "35a7dae81b17949d599557ff598aabad92f36200314cf77410bbb59716f6c56a",
        "violations_delta_0.05": "35a7dae81b17949d599557ff598aabad92f36200314cf77410bbb59716f6c56a",
    },
    ("logistic", None, "regret.csv"): {
        "t": "eeab13db0435ae36361d92add9415b042e1de2fa41d53e8ab3b69708eda1c919",
        "mean_regret": "e918b7cdc0a79e48088674021a3cbd25d62ba0676c8f39973de55100d7df5a1f",
        "std_regret": "b562d76de2fcbeb62852e60df999b7c49b50c7b363f2e74bba2d43579b36c0eb",
        "band_lo": "f076fe608c888b84df7a5eecb3bb868db3b9f3aba1467aa29238786783ca1a71",
        "band_hi": "def53f5f10d4e2e4bdaa26c0646ebf82185d79b0e4ebec97f62b3f0839e04dc7",
        "band_lo_sem": "2e30746daa7d1a6c2e3d5cd6b487ed797e0a1e3872721cfb2125acdd3eb82fda",
        "band_hi_sem": "94e1d0b86810c664dc2ad3e55ca86ea2113729811a990d33842df5fd403c2ac7",
        "bound_expectation": "89ee3e89bb5158f14adf0309fa5f0482baa5a621b8957a66e7f622bf33efeef8",
        "bound_highprob_0.1": "4b6a4c8a8c9c50d0ec3fdd380475be868d89a52853f0864318adcc354eba74bc",
    },
    ("logistic", None, "bounds.csv"): {
        "t": "eeab13db0435ae36361d92add9415b042e1de2fa41d53e8ab3b69708eda1c919",
        "bound_expectation_empirical": "89ee3e89bb5158f14adf0309fa5f0482baa5a621b8957a66e7f622bf33efeef8",
        "bound_highprob_0.1_empirical": "4b6a4c8a8c9c50d0ec3fdd380475be868d89a52853f0864318adcc354eba74bc",
        "bound_markov_0.1_empirical": "f6738ac94d5cf68ee552cbb1bb5fa3bfa8b432a46a5bed89638a0d3ccd29f2e6",
        "bound_expectation_analytic": "839e5038e34dfeb0d95a04d8e9ecfabf89656c34105093633cf611b62ff6358f",
        "bound_highprob_0.1_analytic": "fa9a246ae78289863e329862d2bb454adbb77760dab0f248090834adfc941d50",
        "bound_markov_0.1_analytic": "3e8402604c8e55dc5ab6f000c36a5c23750ba6054b37f73ae1fb680569b6060a",
    },
    ("logistic", None, "summary.txt"): {
        "preset": "03a311656c69e0c01aa7783aafc272601311d5fafa4c053ad5c3d17de44badcd",
        "problem": "03a311656c69e0c01aa7783aafc272601311d5fafa4c053ad5c3d17de44badcd",
        "solver": "ad43a7c293d6d555134ee174a329fa4b2a72ee0c0e7e09257acf41f12de09230",
        "n": "4a44dc15364204a80fe80e9039455cc1608281820fe2b24f1e5233ade6af1dd5",
        "horizon": "1a6562590ef19d1045d06c4055742d38288e9e6dcd71ccde5cee80f1d5a774eb",
        "trials": "f5ca38f748a1d6eaf726b8a42fb575c3c71f1864a8143301782de13da2d9202b",
        "seed": "73475cb40a568e8da8a045ced110137e159f890ac4da883b6b17dc651b3a8049",
        "bound_inputs": "426e732d555fa291dbdf7a88f3c5d8ce9a9cbbb40f0b4963b49ecf9077356b72",
        "smoothness": "c82b56d776a85e7c57c3a4ec59f7908e0ed37a0da7736b087edce4358a34c386",
        "pl_constant": "3e07a1a13ea87732daa308c90cde0467557239a1cac000877f91017d3939bb69",
        "zeta": "7591dc59825c23cbaf0955a757627163a58ccb5323bb1f0eb05827dd0c26f05f",
        "diameter": "f5ca38f748a1d6eaf726b8a42fb575c3c71f1864a8143301782de13da2d9202b",
        "r0": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "fstar_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "mu_exact": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
        "envelope_theta": "d2cbad71ff333de67d07ec676e352ab7f38248eb69c942950157220607c55e84",
        "envelope_k_max": "6ede113a2d339c4a1ef73ae2178fc72b0a2ab778505f7a86ba0504e43e69ab53",
        "e_bar": "a7cd7fe3423af111c0977c8e1bd1f2ee2325e1ae0c9dfeed805acbcec53fb1f3",
        "psi_bar": "5d871d5f093c02d40379dce12664263a85369ea59cf3ebfa7605f38daae5990c",
        "psi_bar_source": "4802ed757e5dc59819792a6fd7c8914f31dc46af90664ce20d9cbef4755e14b0",
        "asymptote": "16ff04575a74eb79c1b37653681eac1c80e512e303886f0ee272f3c22c1e190f",
        "recursion_max_violation": "0cfd262356821a39d7415cd920382a3ed57e9146be4843918e2f6de71b8ebe2a",
        "domain_excursions": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "outside_theory": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
        "min_raw_regret": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "final_mean_regret": "3d2df5aa904a06467f883e91f71fdf03a7a70823239bb0e24d6ae3f7870336ca",
        "violations_delta_0.1": "68041ef8e5c27dc8220b0b2dd5f401455e070cfff981a2ecd49206781008b8b8",
    },
    ("lti", None, "regret.csv"): {
        "t": "d26b656536b722ba378df54ca5047f92a7dd69003434b36792665b19112cf549",
        "mean_regret": "498b688fef3dd4a4bbf20183c0676c41134c61044716630366a1e61bf8f4cf48",
        "std_regret": "f3517dd230bae4e9f782998ce1150076ea6d77f6c8b75bce253c5900d42cadde",
        "band_lo": "726536ba0304ff5cd35d88510bb2587d3d19361470a0b656194f85c125ed708e",
        "band_hi": "068212c769d3aa5626b3c69b09b1374ad6c4af95ff1e0b9c0df23f983a68296a",
        "band_lo_sem": "8437d803766aeff25c70740b300bfc93942df5b130afc5decf920e775caa6757",
        "band_hi_sem": "47331dd3216870e4f023865d2f3376f82d72dc785518e4fcc6f11dc3d75bd6f1",
        "bound_expectation": "784b3fbf47d74a0a3fbc9b2778144a0a0450d8f8c5627d91eec76ac2a2a75c33",
        "bound_highprob_0.1": "097b74e31e7ce115ec54df096a3052053a5b7c04250bde6efe65f8196e9219e3",
        "bound_highprob_0.05": "77cbd7248e42d80b812114412a763c92479fdd6ed9fba77380bbbf0af7693810",
    },
    ("lti", None, "bounds.csv"): {
        "t": "d26b656536b722ba378df54ca5047f92a7dd69003434b36792665b19112cf549",
        "bound_expectation_empirical": "784b3fbf47d74a0a3fbc9b2778144a0a0450d8f8c5627d91eec76ac2a2a75c33",
        "bound_highprob_0.05_empirical": "77cbd7248e42d80b812114412a763c92479fdd6ed9fba77380bbbf0af7693810",
        "bound_highprob_0.1_empirical": "097b74e31e7ce115ec54df096a3052053a5b7c04250bde6efe65f8196e9219e3",
        "bound_markov_0.05_empirical": "1453810e8ce3be9644de83fc304bb13088297e46ab9bae28cdd4c086bffd77d8",
        "bound_markov_0.1_empirical": "1aa5da3433d8b9aaf338cf0b6c7751792ca0cea052020891ede33670cea93d78",
        "bound_expectation_analytic": "006c596b7f3337c442d377c1e72155ec0d17dbefa305521563467afeb3328760",
        "bound_highprob_0.05_analytic": "06af8e2c313500d776de36e78b3c1ba27a560b8e107250400975471c8c37e359",
        "bound_highprob_0.1_analytic": "328388bde446e0c96f57f3304b9c06f0bc01f13b13aa870076c89a3f98d52b0b",
        "bound_markov_0.05_analytic": "ad625fb5d807250acf340f2d67853eda377f06b811255f3f03aa7f848eb5e4c3",
        "bound_markov_0.1_analytic": "7fb12248a45e7fe93009f6079169317835258578dbc8555742d5a4cd2fe1400e",
    },
    ("lti", None, "summary.txt"): {
        "preset": "413fc25cd8124b58995d23ed22a2bc1bffaf0f9cb0512e13636bec667ff99cd4",
        "problem": "bce7cc3eb122e076dc253759e3dc86e4e34d57e8dc52585da596315c4c82ea4b",
        "solver": "ad43a7c293d6d555134ee174a329fa4b2a72ee0c0e7e09257acf41f12de09230",
        "n": "2c624232cdd221771294dfbb310aca000a0df6ac8b66b696d90ef06fdefb64a3",
        "horizon": "983bd614bb5afece5ab3b6023f71147cd7b6bc2314f9d27af7422541c6558389",
        "trials": "1a6562590ef19d1045d06c4055742d38288e9e6dcd71ccde5cee80f1d5a774eb",
        "seed": "73475cb40a568e8da8a045ced110137e159f890ac4da883b6b17dc651b3a8049",
        "bound_inputs": "426e732d555fa291dbdf7a88f3c5d8ce9a9cbbb40f0b4963b49ecf9077356b72",
        "smoothness": "66a3220f9015c17635e7b348ab0df56c24c3819da8c9d89e4584d3014fae4f64",
        "pl_constant": "a10f1181858769af6dd14522e72787cdf99b978d3ed556181309490e451da770",
        "zeta": "916c357b71870e236ca2634aa4d0cf21e0d0958c49ab2d6b465b7f8c2b3483f3",
        "diameter": "cdad2e06e08f15fbf1a6fd8557a732805787a57ef86d3473616c1bf2d20083c3",
        "r0": "0f987dc035a5b39aabc674c1e065ff093dca145c980094bfd1687c262565227f",
        "fstar_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "mu_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "envelope_theta": "d2cbad71ff333de67d07ec676e352ab7f38248eb69c942950157220607c55e84",
        "envelope_k_max": "9ede7ecb4f9cad9ce358f80b7458cf9eb605e5782ab30056654ddd8997060b1e",
        "e_bar": "1ed0f2b7513ce2b07e0fb11059a922cc0317519a5e86ff4f9db5f8249cc0b916",
        "psi_bar": "5725a2e8d5a6ec1b276b29aee16d4d609bd15c9a4b5e6e071889021e34672672",
        "psi_bar_source": "4802ed757e5dc59819792a6fd7c8914f31dc46af90664ce20d9cbef4755e14b0",
        "asymptote": "a901259f4e598a9edc5492f3b89eb857c3ed397a64f87864e24ded185a040e58",
        "recursion_max_violation": "502b325c8b4e794ae1855af9cd0db7a70eddcbbea50a540ab04ef465e4d7a5d3",
        "domain_excursions": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "outside_theory": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
        "min_raw_regret": "dc1a3fb11d7f9c55ed63ab84a796d64f2893d0d96f46fdc778f4f511f17493d7",
        "final_mean_regret": "9d0e3e69b6d225cca1a1e7be3aea125ee9c5eb944846e8e59ad9b8c4b718bd00",
        "violations_delta_0.1": "a7dbd50cd6dfef3b7a388bc625a4b8d1c6adccd900116cc98139391c85fc10a4",
        "violations_delta_0.05": "a7dbd50cd6dfef3b7a388bc625a4b8d1c6adccd900116cc98139391c85fc10a4",
    },
    ("fig3-demand-response", "n_der=500", "regret.csv"): {
        "t": "fd03f8a78e28b2f1e037892539b977098ec0dd2434e982aeebf798ebeb74d329",
        "mean_regret": "9a2b2f257e696884da3356035ce72effc78825ca732cc73f54342bf5da12fd24",
        "std_regret": "f9fee864a5feffb159362840c9eff500e807b9653e867672fe19a736c61446b6",
        "band_lo": "dd1f1ff895cb2054866f120fd525e1e74014758cd7f1ff0707f565e4cf6eeabc",
        "band_hi": "58057189fcc8b9eb06ccb6758454e0751eaf2e4fef1fb45a212b65d9ebd2b8f3",
        "band_lo_sem": "6de7cfe33390fb59ccd517090b4f7eead5e9cfac903440a328f1f79b854a1dd1",
        "band_hi_sem": "8090a503c0af3e8c0af4d8cea2dd2cd923598bdd3613fe28c41f6f54f1e1e23f",
        "bound_expectation": "679c2157cb071dc32c8ba08428bd16b93577c61d679bd94876c9961fe5fc72ea",
        "bound_highprob_0.1": "3405b6f5a965db94944807bb3423f656d431b5124a49ec82796f59fff830ab3e",
        "bound_highprob_0.05": "737c58688c392a578749801b4b2a42af03efe605c1135b6020f927ec84b4e20c",
    },
    ("fig3-demand-response", "n_der=500", "bounds.csv"): {
        "t": "fd03f8a78e28b2f1e037892539b977098ec0dd2434e982aeebf798ebeb74d329",
        "bound_expectation_empirical": "679c2157cb071dc32c8ba08428bd16b93577c61d679bd94876c9961fe5fc72ea",
        "bound_highprob_0.05_empirical": "737c58688c392a578749801b4b2a42af03efe605c1135b6020f927ec84b4e20c",
        "bound_highprob_0.1_empirical": "3405b6f5a965db94944807bb3423f656d431b5124a49ec82796f59fff830ab3e",
        "bound_markov_0.05_empirical": "3623c0f7b2a1b6015666cce25135c2dc739346fc514c6bd2e0b92f866924dfc5",
        "bound_markov_0.1_empirical": "6f7486efa2446591500d1daacffd198e0c87564ccb84002af49061f1dc7ab1a8",
        "bound_expectation_analytic": "0b767fb534ddccd054380275f2f36e07ae0ea1bd102727c2a2b858eb7672c5e1",
        "bound_highprob_0.05_analytic": "151d1750e2571970058428b9060ad2fe1e9fdddfb0ed0f7efc3931e0c4d199cf",
        "bound_highprob_0.1_analytic": "6722763e939402462240cc2afcb4e89cf3ff0b9ceb09e34f814bcef54fb8b6d2",
        "bound_markov_0.05_analytic": "0a5c26b359249218b7b4fbcbcc6479281261643e380414c783a8912b44fc0f8d",
        "bound_markov_0.1_analytic": "b559a0e12da2ffa9f1d6c81ad1406902680065f01ae845a9f5ea11d4f91e5b60",
    },
    ("fig3-demand-response", "n_der=500", "summary.txt"): {
        "preset": "74a3fb1f81cd6752498d9955dfa7fb052450574b9306d0a6495531f9a02afbeb",
        "problem": "02e3ad485cfa2b135483e903ab71bbe117aa948bf3473d83a89217feaf24b00f",
        "solver": "7d7864c4b301f349b6f0b7965ac34d4bba98f08a178f5f09af4de47530f757e8",
        "n": "0604cd3138feed202ef293e062da2f4720f77a05d25ee036a7a01c9cfcdd1f0a",
        "horizon": "284b7e6d788f363f910f7beb1910473e23ce9d6c871f1ce0f31f22a982d48ad4",
        "trials": "1a6562590ef19d1045d06c4055742d38288e9e6dcd71ccde5cee80f1d5a774eb",
        "seed": "73475cb40a568e8da8a045ced110137e159f890ac4da883b6b17dc651b3a8049",
        "bound_inputs": "426e732d555fa291dbdf7a88f3c5d8ce9a9cbbb40f0b4963b49ecf9077356b72",
        "smoothness": "0604cd3138feed202ef293e062da2f4720f77a05d25ee036a7a01c9cfcdd1f0a",
        "pl_constant": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "zeta": "d969710f3aa73eee47370849ee48b1953cad65c94918b7c8bd89275d618f010b",
        "diameter": "d0d9beb91013893574fdc6b7972e9cbba918e289f00243d52801ef819d29df2d",
        "r0": "7daa41cb85831a3e30bb911757398d2ef0cfc02b488e0c6d1b528dd20c90bdb2",
        "fstar_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "mu_exact": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
        "envelope_theta": "d2cbad71ff333de67d07ec676e352ab7f38248eb69c942950157220607c55e84",
        "envelope_k_max": "136f5059a454cad2787b3b3fbff307049fa8707808dd5c760ee3e28007a0c1ad",
        "e_bar": "fb4b8278ea960a37afc4bd993491bf206b0778b75497fa17d16ec2ddd6ed0f96",
        "psi_bar": "1a578b99b4a1a5cf64ec8f739020bfc775f2c3ed86db0c0333e66c311186878c",
        "psi_bar_source": "4802ed757e5dc59819792a6fd7c8914f31dc46af90664ce20d9cbef4755e14b0",
        "asymptote": "d8a971f02eae3a3e2e428ebad523d0947577586b2ac005116102dbc0c8ce2e5b",
        "recursion_max_violation": "2a0dbe98ad9207cd960bb031191e6319ca3ab4cb6675825a6b11e95869e002e3",
        "domain_excursions": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "outside_theory": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
        "min_raw_regret": "d339a56ac068f0bee0fe7e9c4446e9c94022724130ef9959b104ca8dde8c2426",
        "final_mean_regret": "a981d4604f522be93d701b2e93f3228fce4b490e687978f765970800c087279e",
        "violations_delta_0.1": "35a7dae81b17949d599557ff598aabad92f36200314cf77410bbb59716f6c56a",
        "violations_delta_0.05": "35a7dae81b17949d599557ff598aabad92f36200314cf77410bbb59716f6c56a",
    },
}
SECTIONS = {None: {}, "n_der=500": {"problem": {"n_der": 500}}}
OUTPUTS = ("regret.csv", "bounds.csv", "summary.txt")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pins(out_dir: Path) -> dict:
    """{file: {name: sha256}} of a run's written files, names in file order.

    A CSV's names are its header and each hash is over the column's cells
    in row order, joined by newlines; summary.txt's names are its keys and
    each hash is over the value's text.
    """
    found = {}
    for name in OUTPUTS[:2]:
        with open(out_dir / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        found[name] = {h: _sha256("\n".join(col).encode()) for h, col in zip(header, zip(*rows))}
    lines = (out_dir / "summary.txt").read_text().splitlines()
    found["summary.txt"] = {
        key: _sha256(value.encode()) for key, value in (line.split(" = ", 1) for line in lines)
    }
    return found


def failed_pins(found: dict, preset: str, variant) -> set:
    """(file, "header") for each file whose ordered names differ from the
    recorded ones, and (file, name) for each recorded column or value whose
    hash differs."""
    failed = set()
    for name in OUTPUTS:
        recorded = PINS[preset, variant, name]
        if list(found[name]) != list(recorded):
            failed.add((name, "header"))
        failed |= {(name, c) for c, h in recorded.items() if found[name].get(c) != h}
    return failed


RECORDED_ONLY = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"hashes recorded with numpy {RECORDED_NUMPY}, running {np.__version__}",
)


@RECORDED_ONLY
@pytest.mark.parametrize(
    "preset,variant", list(GOLDEN), ids=[f"{p}-{v}" if v else p for p, v in GOLDEN]
)
def test_outputs_match_recorded_hashes(preset, variant, tmp_path):
    cfg = make_config(SECTIONS[variant], {"preset": preset, "out": str(tmp_path)})
    report = run_experiment(cfg)
    write_report(report, tmp_path)
    digests = tuple(_sha256((tmp_path / name).read_bytes()) for name in OUTPUTS)
    assert dict(zip(OUTPUTS, digests)) == dict(zip(OUTPUTS, GOLDEN[preset, variant]))
    assert failed_pins(pins(tmp_path), preset, variant) == set()
    assert verdict_table(validate_bounds(report)) == VERDICTS[preset, variant]
    battery = run_validation_battery(cfg, ("gradient", "pl", "prox"))
    assert verdict_table(battery) == BATTERIES[preset, variant]


@pytest.fixture(scope="module")
def static_ls_run(tmp_path_factory):
    """static-ls's written files, which each mutation test copies."""
    out = tmp_path_factory.mktemp("static-ls")
    write_report(run_experiment(make_config({}, {"preset": "static-ls"})), out)
    return out


@RECORDED_ONLY
def test_one_ulp_in_one_cell_fails_only_its_column_pin(static_ls_run, tmp_path):
    out = shutil.copytree(static_ls_run, tmp_path / "out")
    lines = (out / "regret.csv").read_text().split("\n")
    cells = lines[6].split(",")  # the row of t = 5
    col = lines[0].split(",").index("mean_regret")
    cells[col] = _fmt(np.nextafter(float(cells[col]), np.inf))
    lines[6] = ",".join(cells)
    (out / "regret.csv").write_text("\n".join(lines))
    assert failed_pins(pins(out), "static-ls", None) == {("regret.csv", "mean_regret")}


@RECORDED_ONLY
@pytest.mark.parametrize("mutation", ["swap", "rename"])
def test_a_moved_or_renamed_column_fails_the_header_pin(static_ls_run, tmp_path, mutation):
    out = shutil.copytree(static_ls_run, tmp_path / "out")
    rows = [line.split(",") for line in (out / "bounds.csv").read_text().splitlines()]
    if mutation == "swap":  # the first two series trade places, cells and names
        rows = [[row[0], row[2], row[1], *row[3:]] for row in rows]
        expected = {("bounds.csv", "header")}
    else:
        old = rows[0][1]
        rows[0][1] = old.replace("empirical", "plugin")
        expected = {("bounds.csv", "header"), ("bounds.csv", old)}
    (out / "bounds.csv").write_text("".join(",".join(row) + "\n" for row in rows))
    assert failed_pins(pins(out), "static-ls", None) == expected
