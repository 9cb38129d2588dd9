"""Structural facts of the limit theory checked over random mixing laws
(atoms and sample clouds): the optimal acceptance rate stays below the
point-mass value 0.2338 with equality only at a point mass, and the optimum
is scale equivariant."""

import numpy as np
import pytest

from rwmscaling.asymptotics import (POINT_MASS_AOA, aoa_bound_check,
                                    mixing_atoms, mixing_point, mixing_samples,
                                    solve_aots)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings


@st.composite
def atom_laws(draw):
    """2 to 4 atoms, neighbouring values at least 1.5x apart, every
    normalized weight at least 0.1."""
    n = draw(st.integers(2, 4))
    start = draw(st.floats(1e-2, 1e2))
    ratios = draw(st.lists(st.floats(1.5, 10.0), min_size=n - 1, max_size=n - 1))
    values = start * np.cumprod([1.0] + ratios)
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    weights = 0.1 + (1.0 - 0.1 * n) * raw / raw.sum()
    return mixing_atoms(values, weights)


@st.composite
def sample_laws(draw):
    """2k to 5k radii of a lognormal law with a drawn spread and seed."""
    n = draw(st.integers(2_000, 5_000))
    sigma = draw(st.floats(0.05, 1.5))
    seed = draw(st.integers(0, 2**32 - 1))
    return mixing_samples(np.random.default_rng(seed).lognormal(0.0, sigma, n))


@settings(max_examples=100, deadline=None)
@given(atom_laws())
def test_spread_atom_laws_stay_strictly_below_point_mass(dist):
    rep = aoa_bound_check(dist)
    assert rep.aoa <= 0.2339 and not rep.equality
    assert rep.gap > 0.0 and rep.aoa < POINT_MASS_AOA


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-3, 1e3))
def test_point_mass_attains_the_bound_anywhere(value):
    rep = aoa_bound_check(mixing_point(value))
    assert rep.equality and rep.is_point_mass


@settings(max_examples=50, deadline=None)
@given(atom_laws(), st.floats(0.1, 10.0))
def test_optimum_is_scale_equivariant_over_atom_laws(dist, c):
    ref = solve_aots(dist)
    opt = solve_aots(dist.scaled(c))
    assert opt.mu_hat == pytest.approx(c * ref.mu_hat, rel=1e-9)
    assert opt.aoa == pytest.approx(ref.aoa, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(sample_laws(), st.floats(0.1, 10.0))
def test_optimum_is_scale_equivariant_over_sample_laws(dist, c):
    ref = solve_aots(dist)
    opt = solve_aots(dist.scaled(c))
    assert ref.aoa <= 0.2339
    assert opt.mu_hat == pytest.approx(c * ref.mu_hat, rel=1e-9)
    assert opt.aoa == pytest.approx(ref.aoa, abs=1e-10)
