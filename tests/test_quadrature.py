import math

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from bohmatom import make_atom
from oracles import gauss_genlaguerre


@pytest.mark.parametrize("n", [8, 48])
@pytest.mark.parametrize("z", [1, 80, 137])
def test_genlaguerre_rule_matches_scipy(n, z):
    # the weight exponent radial_nodes uses for this Z
    a = 2.0 * make_atom(z).gamma_exp
    nodes, weights = gauss_genlaguerre(n, a)
    want_nodes, want_weights = roots_genlaguerre(n, a)
    np.testing.assert_allclose(nodes, want_nodes, rtol=1e-12)
    # the tail weights are tiny and only their absolute error matters
    np.testing.assert_allclose(weights, want_weights, rtol=0.0, atol=1e-14 * math.gamma(a + 1.0))
    assert np.sum(weights) == pytest.approx(math.gamma(a + 1.0), rel=1e-14)
