"""Tests for the simulation oracles: the full Metropolis chain and the
direct Monte Carlo expectation."""

import math
import tracemalloc

import numpy as np
import pytest

from rwmscaling import simulate
from rwmscaling.elliptical import EllipticalSpec, parse_eigenvalue_rule
from rwmscaling.engine import (closed_form_gaussian_1d, get_marginal_table,
                               table_point)
from rwmscaling.simulate import (_group_draws, _grouped_lockstep, _nested_rhat,
                                 mc_expectation, run_rwm)
from rwmscaling.targets import (build_example_target, parse_target_spec,
                                sample_radius)
from test_elliptical import gaussian_elliptical_exact


def test_chain_is_reproducible():
    t = build_example_target("gaussian", 3)
    a = run_rwm(t, t, 1.2, n_iters=5_000, seed=42)
    b = run_rwm(t, t, 1.2, n_iters=5_000, seed=42)
    assert a == b
    c = run_rwm(t, t, 1.2, n_iters=5_000, seed=43)
    assert c.accept_rate != a.accept_rate


def test_chain_matches_gaussian_closed_form_1d():
    t = build_example_target("gaussian", 1)
    lam = 2.4264019
    stats = run_rwm(t, t, lam, n_iters=200_000, seed=11)
    ear_c, esjd_c = closed_form_gaussian_1d(lam)
    assert stats.accept_rate == pytest.approx(ear_c, abs=4 * stats.accept_se)
    assert stats.esjd == pytest.approx(esjd_c, abs=4 * stats.esjd_se)
    assert stats.accept_se < 0.01
    assert stats.flag == ""


def test_chain_matches_quadrature_d10():
    t = build_example_target("exponential", 10)
    p = build_example_target("gaussian", 10)
    lam = 0.45
    stats = run_rwm(t, p, lam, n_iters=150_000, seed=5)
    ref = table_point(get_marginal_table(t), p, lam)
    assert stats.accept_rate == pytest.approx(ref.ear, abs=4 * stats.accept_se)
    assert stats.esjd == pytest.approx(ref.esjd, abs=4 * stats.esjd_se)


def test_stationarity_of_squared_radius():
    # Started from an exact stationary draw, the chain average of R^2 must
    # sit near E[R^2] = d for the standard Gaussian target.
    t = build_example_target("gaussian", 5)
    stats = run_rwm(t, t, 1.06, n_iters=120_000, seed=9)
    assert stats.mean_sq_radius == pytest.approx(5.0, rel=0.05)


def test_degenerate_acceptance_flags():
    t = build_example_target("gaussian", 2)
    tiny = run_rwm(t, t, 1e-4, n_iters=2_000, seed=1)
    assert "near 1" in tiny.flag
    assert "not mixed" in tiny.flag
    assert tiny.accept_rate > 0.999
    huge = run_rwm(t, t, 500.0, n_iters=2_000, seed=1)
    assert "near 0" in huge.flag
    assert huge.accept_rate < 1e-3


def test_json_record_schema():
    t = build_example_target("gaussian", 2)
    stats = run_rwm(t, t, 1.5, n_iters=1_000, seed=3)
    record = stats.record()
    assert list(record) == ["target", "proposal", "d", "lambda", "n_iters",
                            "seed", "accept_rate", "accept_se", "esjd",
                            "esjd_se"]
    assert record["d"] == 2
    assert record["lambda"] == 1.5
    assert record["n_iters"] == 1_000
    assert record["seed"] == 3
    assert record["accept_rate"] == stats.accept_rate


def test_chain_validation_errors():
    t = build_example_target("gaussian", 2)
    p3 = build_example_target("gaussian", 3)
    with pytest.raises(ValueError):
        run_rwm(t, t, 0.0)
    with pytest.raises(ValueError):
        run_rwm(t, t, 1.0, n_iters=50)
    with pytest.raises(ValueError):
        run_rwm(t, p3, 1.0)


def test_elliptical_chain_proposes_from_its_spec():
    # elliptical_ear_esjd reads spec.proposal_core; a chain given any other
    # proposal model would answer a different question.
    core = build_example_target("gaussian", 2)
    spec = EllipticalSpec(d=2, eigenvalues=(1.0, 3.0), spherical_core=core,
                          proposal_core=core)
    with pytest.raises(ValueError, match="proposal_core"):
        run_rwm(spec, build_example_target("gaussian", 2), 0.4, n_iters=1_000)
    assert run_rwm(spec, core, 0.4, n_iters=1_000).n_iters == 1_000


def test_elliptical_uniform_stretch_equals_rescaled_spherical_chain():
    # nu = (c, ..., c) is one group of d coordinates: with a shared seed the
    # chain at nu = c and lambda draws what the spherical chain at c lambda
    # draws, its steps are those steps exactly (c = 2 scales exactly), and
    # the Mahalanobis metric absorbs c, so the summaries agree exactly.
    c, d, lam = 2.0, 3, 0.6
    core = build_example_target("gaussian", d)
    spec = EllipticalSpec(d=d, eigenvalues=(c,) * d, spherical_core=core,
                          proposal_core=core)
    ell = run_rwm(spec, core, lam, n_iters=20_000, seed=77)
    sph = run_rwm(core, core, c * lam, n_iters=20_000, seed=77)
    for name in ("accept_rate", "accept_se", "esjd", "esjd_se",
                 "mean_sq_radius", "rhat", "flag"):
        assert getattr(ell, name) == getattr(sph, name), name
    assert ell.target.startswith("elliptical(")


def _d_dimensional_chain(core, proposal, nus, lam, n_iters, seed, lanes=1000):
    """Reference for run_rwm: ``lanes`` independent lanes of the full
    d-dimensional walk, each from an exact stationary draw, with the state x
    kept where the target is spherical, so a proposal step is nu * (lam R_Y
    U), U uniform on the sphere.  Returns the acceptance rate and the
    Mahalanobis ESJD, each with the standard error of the lanes' means."""
    rng = np.random.default_rng(seed)
    nus = np.asarray(nus, dtype=float)

    def directions():
        u = rng.standard_normal((lanes, core.d))
        return u / np.linalg.norm(u, axis=1)[:, None]

    x = directions() * sample_radius(core, lanes, rng)[:, None]
    lp = core.log_pi(np.linalg.norm(x, axis=1))
    accepts, jumps = np.zeros(lanes), np.zeros(lanes)
    n_steps = n_iters // lanes
    for _ in range(n_steps):
        step = directions() * (lam * sample_radius(proposal, lanes, rng))[:, None]
        step *= nus
        xs = x + step
        lps = core.log_pi(np.linalg.norm(xs, axis=1))
        a = np.log(rng.random(lanes)) <= lps - lp
        x[a], lp[a] = xs[a], lps[a]
        accepts += a
        jumps += a * np.einsum("ij,ij->i", step, step)
    return [(v.mean() / n_steps, v.std(ddof=1) / n_steps / math.sqrt(lanes))
            for v in (accepts, jumps)]


def _assert_agrees_with_the_d_dimensional_chain(chain, ref):
    (ear, ear_se), (esjd, esjd_se) = ref
    assert abs(chain.accept_rate - ear) <= 3 * math.hypot(chain.accept_se, ear_se)
    assert abs(chain.esjd - esjd) <= 3 * math.hypot(chain.esjd_se, esjd_se)


@pytest.mark.parametrize("t_spec,p_spec,d,lam,seed", [
    ("gaussian", "gaussian", 10, 0.75, 101),
    ("exponential", "gaussian", 10, 0.45, 102),
    ("mixture:p=0.3", "gaussian", 2, 1.2, 103),
])
def test_radial_chain_agrees_with_the_d_dimensional_chain(t_spec, p_spec, d,
                                                          lam, seed):
    # The spherical chain keeps only each lane's radius; the reference moves
    # every coordinate, and both estimate the same EAR and ESJD.
    t, p = parse_target_spec(t_spec, d), parse_target_spec(p_spec, d)
    _assert_agrees_with_the_d_dimensional_chain(
        run_rwm(t, p, lam, n_iters=200_000, seed=seed),
        _d_dimensional_chain(t, p, np.ones(d), lam, 200_000, seed + 1000))


@pytest.mark.parametrize("rule,d,lam,seed", [
    ("iota", 10, 0.1, 111),
    ("spike:1", 10, 0.2, 112),
    ((1.0, 3.0), 2, 0.4, 113),
    ("file", 8, 0.3, 114),
])
def test_grouped_chain_agrees_with_the_d_dimensional_chain(rule, d, lam, seed,
                                                           tmp_path):
    # The elliptical chain keeps each lane's radius over every group of
    # equal eigenvalues: ten groups for iota, a group of 9 and one of 1 for
    # spike, and for the file rule (1, 1, 2, 2, 2, 0.5 padded to d = 8)
    # groups of 2, 3 and 3.
    if rule == "file":
        path = tmp_path / "nus.txt"
        path.write_text("1\n1\n2\n2\n2\n0.5\n")
        rule = f"file:{path}"
    nus = (tuple(parse_eigenvalue_rule(rule, d)) if isinstance(rule, str)
           else rule)
    core = build_example_target("gaussian", d)
    spec = EllipticalSpec(d=d, eigenvalues=nus, spherical_core=core,
                          proposal_core=core)
    _assert_agrees_with_the_d_dimensional_chain(
        run_rwm(spec, core, lam, n_iters=200_000, seed=seed),
        _d_dimensional_chain(core, core, nus, lam, 200_000, seed + 1000))


@pytest.mark.parametrize("rule,d,seed", [("spike:1", 100, 121), ("const:2", 10, 122)])
def test_grouped_chain_agrees_with_the_transformed_average(rule, d, seed):
    # Against the sampled |Y_*| average at lambda = 2.38 / sqrt(d mean nu^2).
    # At d = 100 the spiked chain's lanes are too short for nested R-hat, so
    # only agreement is asserted.
    from rwmscaling.elliptical import elliptical_ear_esjd

    core = build_example_target("gaussian", d)
    spec = EllipticalSpec(d=d, eigenvalues=tuple(parse_eigenvalue_rule(rule, d)),
                          spherical_core=core, proposal_core=core)
    lam = 2.38 / math.sqrt(d * spec.mean_sq)
    chain = run_rwm(spec, core, lam, n_iters=200_000, seed=seed)
    ref = elliptical_ear_esjd(spec, lam, n_draws=400_000)
    assert abs(chain.accept_rate - ref.ear) <= 3 * math.hypot(chain.accept_se, ref.ear_se)
    assert abs(chain.esjd - ref.esjd) <= 3 * math.hypot(chain.esjd_se, ref.esjd_se)


def test_radial_chain_matches_the_exact_gaussian_value_at_d_1000():
    # An independent large-d check: the spherical chain costs the same per
    # step at any d, and the Gaussian EAR and ESJD are exact one-dimensional
    # integrals, with no W table.  Only agreement is asserted: at 200k steps
    # each of the 1000 lanes takes 200 steps, far fewer than the squared
    # radius needs to decorrelate at d = 1000, so nested R-hat flags the run.
    d = 1000
    lam = 2.38 / math.sqrt(d)
    t = build_example_target("gaussian", d)
    stats = run_rwm(t, t, lam, n_iters=200_000, seed=0)
    ear, esjd = gaussian_elliptical_exact([1.0] * d, lam)
    assert stats.accept_rate == pytest.approx(ear, abs=3 * stats.accept_se)
    assert stats.esjd == pytest.approx(esjd, abs=3 * stats.esjd_se)


def test_elliptical_chain_matches_transformed_average():
    from rwmscaling.elliptical import elliptical_ear_esjd

    d = 2
    core = build_example_target("gaussian", d)
    spec = EllipticalSpec(d=d, eigenvalues=(1.0, 3.0), spherical_core=core,
                          proposal_core=core)
    lam = 0.4
    stats = run_rwm(spec, core, lam, n_iters=150_000, seed=21)
    ref = elliptical_ear_esjd(spec, lam, n_draws=300_000)
    ear_tol = 4 * (stats.accept_se + ref.ear_se)
    esjd_tol = 4 * (stats.esjd_se + ref.esjd_se)
    assert stats.accept_rate == pytest.approx(ref.ear, abs=ear_tol)
    assert stats.esjd == pytest.approx(ref.esjd, abs=esjd_tol)


def test_elliptical_chain_holds_bounded_memory_in_d():
    # iota has a group per coordinate, and a block of steps holds at most 2^18
    # normals (engine._NORMAL_BLOCK), so the peak stays near the chain's
    # (steps, lanes) records (~2 MB at 100k steps) at any d.
    core = build_example_target("gaussian", 300)
    spec = EllipticalSpec(d=300, eigenvalues=tuple(parse_eigenvalue_rule("iota", 300)),
                          spherical_core=core, proposal_core=core)
    tracemalloc.start()
    try:
        run_rwm(spec, core, 0.01, n_iters=100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_mc_expectation_matches_quadrature():
    t = build_example_target("gaussian", 5)
    for lam in (0.5, 1.1):
        mc = mc_expectation(t, t, lam, n_samples=400_000, seed=2)
        ref = table_point(get_marginal_table(t), t, lam)
        assert mc.ear == pytest.approx(ref.ear, abs=4 * mc.ear_se)
        assert mc.esjd == pytest.approx(ref.esjd, abs=4 * mc.esjd_se)


def test_mc_expectation_reproducible_and_validated():
    t = build_example_target("exponential", 4)
    a = mc_expectation(t, t, 0.8, n_samples=20_000, seed=6)
    b = mc_expectation(t, t, 0.8, n_samples=20_000, seed=6)
    assert a == b
    p5 = build_example_target("gaussian", 5)
    with pytest.raises(ValueError):
        mc_expectation(t, t, 0.8, n_samples=5_000)
    with pytest.raises(ValueError):
        mc_expectation(t, t, -0.8)
    with pytest.raises(ValueError):
        mc_expectation(t, p5, 0.8)


def test_mixture_target_chain_agrees_with_quadrature():
    # A low-dimensional mixture: at d = 2 the radial marginal's two modes
    # are separated by a shallow valley, so the chain hops between the
    # components often enough to equilibrate.  (At d >= 5 the valley is
    # many nats deep and a plain random-walk chain is metastable: it tracks
    # the component it starts in, and no feasible run length recovers the
    # full-mixture expectations.)
    t = parse_target_spec("mixture:p=0.3", 2)
    p = build_example_target("gaussian", 2)
    lam = 1.2
    stats = run_rwm(t, p, lam, n_iters=200_000, seed=31)
    ref = table_point(get_marginal_table(t), p, lam)
    assert stats.accept_rate == pytest.approx(ref.ear, abs=4 * stats.accept_se)
    assert stats.esjd == pytest.approx(ref.esjd, abs=4 * stats.esjd_se)
    assert stats.mean_sq_radius == pytest.approx(t.moment(2), rel=0.05)


def _scalar_grouped_metropolis(rho0, lp0, z, c, s, log_u, log_pi):
    """Reference kernel: one lane at a time, one proposal at a time, through
    the draws z (T, k, K) and c (T, n, K) and the group step scales s
    (T, k, K); returns the accept mask, the radius after each step and the
    final group radii."""
    n = c.shape[1]
    accepts = np.zeros(log_u.shape, dtype=bool)
    radii = np.empty(log_u.shape)
    final = np.empty_like(rho0)
    for lane in range(rho0.shape[1]):
        rho, lp = [float(v) for v in rho0[:, lane]], float(lp0[lane])
        r = math.sqrt(sum(v * v for v in rho))
        for t in range(len(z)):
            new, sq = [], []
            for g, v in enumerate(rho):
                sg = float(s[t, g, lane])
                x = v + sg * float(z[t, g, lane])
                if g < n:
                    sq.append(x * x + (sg * sg) * float(c[t, g, lane]))
                    new.append(math.sqrt(sq[-1]))
                else:
                    sq.append(x * x)
                    new.append(x)
            rs = math.sqrt(sum(sq))
            lps = float(log_pi(np.array([rs]))[0])
            if log_u[t, lane] <= lps - lp:
                accepts[t, lane] = True
                rho, r, lp = new, rs, lps
            radii[t, lane] = r
        final[:, lane] = rho
    return accepts, radii, final


@pytest.mark.parametrize("spec,sizes", [
    pytest.param("gaussian", (1,), id="gaussian-1"),
    pytest.param("gaussian", (3,), id="gaussian-3"),
    pytest.param("mixture:p=0.3", (3,), id="mixture:p=0.3-3"),
    pytest.param("gaussian", (1, 1, 1), id="gaussian-1,1,1"),
    pytest.param("gaussian", (2, 1), id="gaussian-2,1"),
])
def test_radial_kernel_matches_scalar_chains(spec, sizes):
    lanes, n_steps = 7, 400
    k, sizes = len(sizes), np.array(sizes)
    rng = np.random.default_rng(9)
    log_pi = parse_target_spec(spec, int(sizes.sum())).log_pi
    # Half-integer group radii square exactly, so the first proposal, a
    # step of 2 rho_g straight through each group's origin (z = -1, c = 0)
    # with log u = 0, lands back on the same radius: an exact tie that
    # log u <= log ratio must accept.
    rho0 = rng.integers(1, 9, size=(k, lanes)) * 0.5
    z, c, _ = _group_draws(rng, sizes, n_steps, lanes)
    s = 1.2 * np.abs(rng.standard_normal((n_steps, k, lanes)))
    s[0], z[0], c[0] = 2.0 * rho0, -1.0, 0.0
    log_u = np.log(rng.random((n_steps, lanes)))
    log_u[0] = 0.0
    r0 = np.sqrt(np.square(rho0).sum(axis=0))
    lp0 = log_pi(r0)

    want_acc, want_radii, want_rho = _scalar_grouped_metropolis(
        rho0, lp0, z, c, s, log_u, log_pi)
    r, lp = r0.copy(), lp0.copy()
    acc, radii = np.empty(log_u.shape, dtype=bool), np.empty(log_u.shape)
    rho = _grouped_lockstep(rho0.copy(), r, lp, s * z,
                            np.square(s[:, :c.shape[1]]) * c, log_u, log_pi,
                            acc, radii)
    assert acc[0].all()
    assert 0.2 < want_acc.mean() < 0.9
    np.testing.assert_array_equal(acc, want_acc)
    np.testing.assert_array_equal(radii, want_radii)
    np.testing.assert_array_equal(rho, want_rho)
    np.testing.assert_array_equal(r, radii[-1])
    np.testing.assert_array_equal(lp, log_pi(r))


def _scalar_metropolis(x0, steps, log_u, log_pi):
    """Reference d-dimensional chain: one lane at a time, one proposal at a
    time, x -> x + steps[t]; returns the accept mask, the radius after each
    step and the state before each step (T, K, d)."""
    accepts = np.zeros(log_u.shape, dtype=bool)
    radii = np.empty(log_u.shape)
    states = np.empty_like(steps)
    for lane in range(x0.shape[0]):
        x = x0[lane].copy()
        r = math.sqrt(float(x @ x))
        lp = float(log_pi(np.array([r]))[0])
        for t in range(len(steps)):
            states[t, lane] = x
            xs = x + steps[t, lane]
            rs = math.sqrt(float(xs @ xs))
            lps = float(log_pi(np.array([rs]))[0])
            if log_u[t, lane] <= lps - lp:
                accepts[t, lane] = True
                x, r, lp = xs, rs, lps
            radii[t, lane] = r
    return accepts, radii, states


@pytest.mark.parametrize("spec,nus", [
    ("gaussian", None),
    ("mixture:p=0.3", None),
    pytest.param("gaussian", (1.0, 1.0, 2.0), id="gaussian-1,1,2"),
])
def test_lockstep_kernel_matches_scalar_chains(spec, nus):
    # The grouped kernel, fed each d-dimensional step split along and across
    # every group's radius at the reference chain's state, takes the same
    # accept decisions and radii as the d-dimensional chain.
    d, lanes, n_steps = 3, 7, 400
    rng = np.random.default_rng(8)
    log_pi = parse_target_spec(spec, d).log_pi
    nus = np.ones(d) if nus is None else np.asarray(nus)
    # Groups of coordinates that share an eigenvalue, those of two or more
    # coordinates first, as run_rwm orders them.
    groups = sorted((np.flatnonzero(nus == v) for v in np.unique(nus)),
                    key=lambda idx: len(idx) == 1)
    n_big = sum(len(idx) > 1 for idx in groups)
    # Half-integer starts; the first proposal, a reflection x -> -x with
    # log u = 0, moves every group's radius straight through its origin and
    # back onto itself: an exact tie that log u <= log ratio must accept.
    x0 = (rng.integers(-4, 5, size=(lanes, d)) * 0.5 + 0.5) * nus
    steps = 0.9 * rng.standard_normal((n_steps, lanes, d)) * nus
    steps[0] = -2.0 * x0
    log_u = np.log(rng.random((n_steps, lanes)))
    log_u[0] = 0.0

    def split(x, step):
        """Group radii of x (k, ...), and step's part along each (k, ...)
        and the squared length of its rest in the first n_big groups."""
        rho, sz, q = [], [], []
        for idx in groups:
            xg, sg = x[..., idx], step[..., idx]
            if len(idx) == 1:
                rho.append(xg[..., 0])
                sz.append(sg[..., 0])
                continue
            norm = np.sqrt(np.einsum("...i,...i->...", xg, xg))
            along = np.einsum("...i,...i->...", sg, xg) / norm
            rest = sg - along[..., None] * xg / norm[..., None]
            rho.append(norm)
            sz.append(along)
            q.append(np.einsum("...i,...i->...", rest, rest))
        return (np.stack(rho), np.stack(sz, axis=-2),
                np.stack(q, axis=-2) if q else np.empty((*x.shape[:-2], 0, lanes)))

    rho0 = split(x0, x0)[0]
    r0 = np.sqrt(np.square(rho0).sum(axis=0))
    lp0 = log_pi(r0)
    want_acc, want_radii, states = _scalar_metropolis(x0, steps, log_u, log_pi)
    _, sz, q = split(states, steps)
    # The reflection lies along each radius, with nothing across it.
    sz[0], q[0] = -2.0 * rho0, 0.0

    r, lp = r0.copy(), lp0.copy()
    acc, radii = np.empty(log_u.shape, dtype=bool), np.empty(log_u.shape)
    rho = _grouped_lockstep(rho0.copy(), r, lp, sz, q, log_u, log_pi, acc,
                            radii)
    assert acc[0].all()
    assert 0.2 < want_acc.mean() < 0.9
    np.testing.assert_array_equal(acc, want_acc)
    np.testing.assert_allclose(radii, want_radii, rtol=1e-12)
    final = states[-1] + np.where(want_acc[-1, :, None], steps[-1], 0.0)
    np.testing.assert_allclose(rho, split(final, final)[0], rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_array_equal(r, radii[-1])
    np.testing.assert_array_equal(lp, log_pi(r))


@pytest.mark.parametrize("d", [1, 2, 3, 10, 1000])
def test_cosine_split_follows_the_uniform_direction_law(d):
    # With one group, V = z / |Z| is the cosine between a uniform direction
    # and an axis: E V^2 = 1/d and E V^4 = 3 / (d (d + 2)).
    n = 200_000
    z, _, sq = _group_draws(np.random.default_rng(d), np.array([d]), n, 1)
    v = (z / np.sqrt(sq.sum(axis=1, keepdims=True))).ravel()
    for power, want in ((2, 1.0 / d), (4, 3.0 / (d * (d + 2)))):
        vp = v ** power
        assert abs(vp.mean() - want) <= 4 * vp.std(ddof=1) / math.sqrt(n)
    if d == 1:
        assert set(np.unique(v)) == {-1.0, 1.0}
    else:
        assert np.all(np.abs(v) < 1.0)


def test_group_draws_share_the_squared_length_by_group_size():
    # Group g's share of |Z|^2 is Beta(d_g / 2, (d - d_g) / 2), mean d_g / d.
    sizes, n = np.array([4, 3, 1, 1, 1]), 100_000
    z, c, sq = _group_draws(np.random.default_rng(5), sizes, n, 1)
    assert z.shape == (n, 5, 1) and c.shape == (n, 2, 1)
    shares = (sq / sq.sum(axis=1, keepdims=True))[..., 0]
    for g, size in enumerate(sizes):
        mean, se = shares[:, g].mean(), shares[:, g].std(ddof=1) / math.sqrt(n)
        assert abs(mean - size / sizes.sum()) <= 4 * se


def test_chain_standard_errors_match_the_seed_to_seed_spread():
    t = build_example_target("gaussian", 5)
    runs = [run_rwm(t, t, 1.06, n_iters=20_000, seed=s) for s in range(40)]
    for est, se in (("accept_rate", "accept_se"), ("esjd", "esjd_se")):
        spread = np.std([getattr(r, est) for r in runs], ddof=1)
        median_se = np.median([getattr(r, se) for r in runs])
        assert 0.7 * median_se <= spread <= 1.4 * median_se, (est, spread,
                                                              median_se)


def test_budget_is_split_over_the_chains():
    t = build_example_target("gaussian", 2)
    stats = run_rwm(t, t, 1.5, n_iters=1_003, seed=4)
    assert stats.n_iters == 1_003
    # Every step counts: every acceptance rate is a multiple of 1/1003.
    assert math.isclose(stats.accept_rate * 1_003, round(stats.accept_rate * 1_003),
                        abs_tol=1e-9)


def test_mixed_gaussian_chains_are_not_flagged():
    t = build_example_target("gaussian", 10)
    stats = run_rwm(t, t, 0.7528, n_iters=400_000, seed=3)
    assert 1.0 <= stats.rhat < 1.01
    assert stats.flag == ""


def test_metastable_mixture_chains_are_flagged():
    # mixture:p=1/d^2 at d = 10: no lane crosses between the narrow component
    # and the wide one (weight 0.01), so the 50 superchains disagree by how
    # many of their 20 lanes started wide, and nested R-hat flags every run,
    # seed 2 as well as seed 0.  The kernel still keeps the target, so the
    # lanes' squared radii do not drift from their exact starts.
    t = parse_target_spec("mixture:p=1/d^2", 10)
    p = build_example_target("gaussian", 10)
    for seed in (0, 2):
        stats = run_rwm(t, p, 0.8, n_iters=400_000, seed=seed)
        assert stats.rhat > 1.015
        assert "not mixed" in stats.flag
        assert "does not keep" not in stats.flag


@pytest.mark.parametrize("seed", range(8))
def test_mixture_chain_error_bars_cover_the_rare_component(seed):
    # Each lane keeps the component its exact start fell in; with 1000
    # lanes about 10 start in the wide one, and the spread of the 50
    # superchain means sees how many did.  With 50 long chains none
    # started wide at ~60 % of seeds, and runs missed by up to 6.1 SE.
    t = parse_target_spec("mixture:p=1/d^2", 10)
    p = build_example_target("gaussian", 10)
    stats = run_rwm(t, p, 0.5, n_iters=200_000, seed=seed)
    ref = table_point(get_marginal_table(t), p, 0.5)
    assert abs(stats.accept_rate - ref.ear) <= 3 * stats.accept_se
    assert abs(stats.esjd - ref.esjd) <= 3 * stats.esjd_se


def test_stationarity_check_catches_a_kernel_that_misses_the_target(monkeypatch):
    # The accept rule log u <= 2 (log pi(r') - log pi(r)) keeps pi^2, not pi:
    # for the Gaussian the lanes' squared radii drift from their exact
    # starts, mean d, toward d / 2.  The mutant runs the true kernel on
    # 2 log pi.
    t = build_example_target("gaussian", 10)
    honest = [run_rwm(t, t, 0.75, n_iters=20_000, seed=s) for s in range(10)]
    true_kernel = simulate._grouped_lockstep

    def mutant(rho, r, lp, sz, q, log_u, log_pi, accepts, radii):
        lp *= 2.0
        rho = true_kernel(rho, r, lp, sz, q, log_u, lambda x: 2.0 * log_pi(x),
                          accepts, radii)
        lp /= 2.0
        return rho

    monkeypatch.setattr(simulate, "_grouped_lockstep", mutant)
    planted = [run_rwm(t, t, 0.75, n_iters=20_000, seed=s) for s in range(10)]
    for a, b in zip(honest, planted):
        assert "does not keep the target" not in a.flag
        assert "does not keep the target" in b.flag


def _nested_rhat_by_loops(draws):
    n, m, n_super = draws.shape
    super_means, within = [], []
    for k in range(n_super):
        lane_means = [sum(draws[:, j, k]) / n for j in range(m)]
        mean = sum(lane_means) / m
        super_means.append(mean)
        between = (sum((v - mean) ** 2 for v in lane_means) / (m - 1)
                   if m > 1 else 0.0)
        inside = (sum(sum((draws[:, j, k] - lane_means[j]) ** 2) / (n - 1)
                      for j in range(m)) / m if n > 1 else 0.0)
        within.append(between + inside)
    grand = sum(super_means) / n_super
    b = sum((v - grand) ** 2 for v in super_means) / (n_super - 1)
    return math.sqrt(1.0 + b / (sum(within) / n_super))


def test_nested_rhat_matches_the_formula():
    rng = np.random.default_rng(12)
    draws = rng.standard_normal((30, 4, 50))
    draws[:, :, 0] += 1.0  # one superchain off the others
    for case in (draws, draws[:, :1], draws[:1], draws[:, :, 1:]):
        assert _nested_rhat(case) == pytest.approx(_nested_rhat_by_loops(case),
                                                   rel=1e-12)
    assert _nested_rhat(draws) > 1.01
    # Frozen lanes: with one lane per superchain nothing is left within a
    # superchain to set the scale; with four, their spread does.
    frozen = np.repeat(rng.standard_normal((1, 4, 50)), 20, axis=0)
    assert _nested_rhat(frozen) == pytest.approx(
        _nested_rhat_by_loops(frozen), rel=1e-12)
    assert _nested_rhat(frozen[:, :1]) > 1e6
    assert math.isnan(_nested_rhat(np.ones((20, 4, 50))))
