"""End-to-end acceptance checks, one test per numbered criterion.

Each test runs the corresponding criterion at the reference seed, prints its
one-line verdict to the live terminal, and fails with the exact sub-check
readings when the criterion is red.  Where a statistic is not yet Gaussian
at a pinned schedule point (criteria 7 and 8), its Monte Carlo estimate is
checked against the exact fourth moment at that point, and the target
records how far that exact value lies from the Gaussian one; see the
repository README.
"""

import tempfile

import numpy as np
import pytest

from chaoskit import chaos, tensors
from chaoskit.acceptance import (criterion_3, format_criterion, run_criteria,
                                 run_criterion)

SEED = 42


@pytest.fixture
def announce(capsys):
    # pytest captures stdout; the verdict lines are required to be visible in
    # a plain `pytest -v` run, so write them with capture suspended.
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def _check(number, announce):
    result = run_criterion(number, seed=SEED)
    announce(format_criterion(result))
    if not result.passed:
        lines = [
            f"  {c.name}: observed {c.observed!r}, target {c.target!r}"
            for c in result.checks
            if not c.passed
        ]
        pytest.fail(
            "criterion %d (%s) failing sub-checks:\n%s"
            % (result.number, result.name, "\n".join(lines)),
            pytrace=False,
        )


def test_criterion_01_product_formula_pointwise(announce):
    _check(1, announce)


def test_criterion_02_moments_match_oracle_and_simulation(announce):
    _check(2, announce)


def test_criterion_03_fourth_moment_convergence(announce):
    _check(3, announce)


def test_criterion_03_forms_one_spectrum_per_kernel(monkeypatch):
    # the excess and the draws read each kernel's one eigvalsh; only the
    # contraction check takes the tensor route
    calls = {"eigvalsh": 0, "contract": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counting("eigvalsh", np.linalg.eigvalsh))
    contract = counting("contract", tensors.contract)
    monkeypatch.setattr(tensors, "contract", contract)
    monkeypatch.setattr(chaos, "contract", contract)
    checks = criterion_3(SEED)
    assert calls == {"eigvalsh": 4, "contract": 4}
    assert [c.observed for c in checks] == [4.0, 4.0, 0.006818711877092154]


def test_criterion_04_non_gaussian_family_detected(announce):
    _check(4, announce)


def test_criterion_05_order_two_spectral_identities(announce):
    _check(5, announce)


def test_criterion_06_embedding_coupling_refines(announce):
    _check(6, announce)


def test_criterion_07_sheet_variance_and_near_critical_kurtosis(announce):
    _check(7, announce)


def test_criterion_08_fbm_sweeps_approach_gaussian(announce):
    _check(8, announce)


def test_criterion_09_quadratic_variation_projection(announce):
    _check(9, announce)


def test_criterion_10_cli_determinism_across_threads(announce, monkeypatch,
                                                    tmp_path):
    # the subprocesses' output directories are removed after the comparison
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _check(10, announce)
    assert not list(tmp_path.glob("chaoskit-validate-*"))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: run_criterion(11, 0), id="run_criterion"),
    pytest.param(lambda: run_criteria([11], 0), id="run_criteria"),
])
def test_unknown_criterion_is_refused(call):
    with pytest.raises(ValueError, match="no criterion 11"):
        call()
