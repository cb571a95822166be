import pytest

from conftest import probe_ladder

pytest.importorskip("mpmath")
import oracle  # noqa: E402


@pytest.mark.parametrize("n, seed, cap", [(64, 0, 0.7), (64, 1, 0.7), (64, 0, 0.9)])
def test_probe_phi_is_the_exact_recurrence_to_rounding(n, seed, cap):
    # every stored phi_k of the probe is the 60-digit recurrence on its own
    # poles and (lambda_k, rho_k) to within 5e-14 of its largest exact
    # coefficient: 3.8e-15, 1.3e-14 and 4.1e-15 at the worst level
    errors = oracle.coefficient_error(probe_ladder(n, seed, cap))
    assert len(errors) == n + 1
    assert max(errors) <= 5e-14
