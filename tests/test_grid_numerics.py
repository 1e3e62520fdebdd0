"""Quadrature and recursion contracts, checked against analytic oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_cascade import (
    GridFunction,
    GridMemoryError,
    UniformGrid,
    convolve_kernel,
    iterate_qn,
    iterate_qn_levels,
    iterate_vn,
    picard_v0,
    riccati_residual,
)
from riccati_cascade import grid_numerics
from riccati_cascade.grid_numerics import _advanced, _trapezoid_convolve

GRID = UniformGrid(8.0, 0.01)


def literal_v_deviations(alpha, n, work_t_max=32.0):
    """Max node gap between iterate_vn and the literal v-form, at steps 0.01 and 0.005.

    The literal form v <- clip(exp(-t) + K(v^2)) adds exp(-t) and convolves
    the square directly through convolve_kernel, on a working grid to
    work_t_max with flat tail 1.  It shares only the trapezoid scan and the
    seed with the complement-form chain (no extent schedule, advanced
    interpolation or q-step), so the gap is quadrature noise that shrinks
    like h^2.
    """
    diffs = []
    for step in (0.01, 0.005):
        base = UniformGrid(8.0, step)
        work = UniformGrid(work_t_max, step)
        v0 = picard_v0(alpha, base, 5)
        vv = v0(work.nodes)
        tail = v0.tail_value
        for _ in range(n):
            sq = GridFunction(work, np.clip(vv, 0, 1) ** 2, tail**2)
            g = convolve_kernel(sq, alpha, work)
            vv = np.clip(np.exp(-work.nodes) + g.values, 0.0, 1.0)
            tail = 1.0
        vn = iterate_vn(alpha, base, n, v0)
        diffs.append(float(np.max(np.abs(vn.values - vv[: base.node_count]))))
    return diffs


class TestUniformGrid:
    def test_node_layout(self):
        assert GRID.node_count == 801
        assert GRID.t_end == pytest.approx(8.0)
        coarse = UniformGrid(1.0, 0.3)
        assert coarse.node_count == 5  # ceil(1/0.3) = 4 intervals
        assert coarse.t_end == pytest.approx(1.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformGrid(8.0, 0.0)
        with pytest.raises(ValueError):
            UniformGrid(0.005, 0.01)

    def test_nodes_immutable(self):
        with pytest.raises(ValueError):
            GRID.nodes[0] = 1.0


class TestEvaluate:
    def test_constant(self):
        ones = GridFunction.constant(GRID, 1.0)
        for t in (0.0, 3.3333, 8.0, 100.0):
            assert ones(t) == 1.0
        assert type(ones(2.0)) is float  # a scalar in, a float out

    def test_linear_between_nodes(self):
        grid = UniformGrid(0.01, 0.01)
        f = GridFunction(grid, np.array([0.0, 0.01]), 0.01)
        assert f(0.005) == pytest.approx(0.005)

    def test_tail_policy(self):
        f = GridFunction(GRID, np.linspace(0, 1, GRID.node_count), 0.25)
        assert f(13.0) == 0.25

    def test_negative_rejected(self):
        ones = GridFunction.constant(GRID, 1.0)
        with pytest.raises(ValueError):
            ones(-0.1)

    def test_vectorized(self):
        ones = GridFunction.constant(GRID, 1.0)
        out = ones(np.array([0.0, 4.0, 9.0]))
        assert np.array_equal(out, np.ones(3))

    def test_range_bounds_validation(self):
        with pytest.raises(ValueError):
            GridFunction(GRID, np.full(GRID.node_count, 1.5), 1.0, range_bounds=True)


class TestConvolveKernel:
    def test_constant_one_analytic(self):
        ones = GridFunction.constant(GRID, 1.0)
        g = convolve_kernel(ones, 1.0, GRID)
        err = np.max(np.abs(g.values - (1.0 - np.exp(-GRID.nodes))))
        assert err < 1e-3
        assert g.values[0] == 0.0

    def test_zero_integrand(self):
        zero = GridFunction.constant(GRID, 0.0)
        g = convolve_kernel(zero, 2.0, GRID)
        assert np.all(g.values == 0.0)

    def test_matches_direct_composite_trapezoid(self):
        # independent oracle: the O(N^2) trapezoid sum, node by node
        grid = UniformGrid(2.0, 0.05)
        nodes = grid.nodes
        vals = 0.5 + 0.4 * np.sin(nodes) ** 2
        f = GridFunction(grid, vals, 0.3)
        alpha = 1.7
        g = convolve_kernel(f, alpha, grid)
        for i in (0, 1, 7, 23, len(nodes) - 1):
            s = nodes[: i + 1]
            integrand = np.exp(-s) * np.interp(alpha * (nodes[i] - s), nodes, vals, right=0.3)
            direct = np.trapezoid(integrand, dx=grid.step)
            assert g.values[i] == pytest.approx(direct, abs=1e-12)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            convolve_kernel(GridFunction.constant(GRID, 1.0), -1.0, GRID)

    # 4.5 exceeds the scan span, so every block is one node
    @pytest.mark.parametrize("step", [0.00025, 0.01, 0.05, 0.7, 4.5])
    def test_in_place_scan_matches_reference_expression(self, step):
        rng = np.random.default_rng(17)
        block = _scan_block(step)
        for size in sorted({1, 2, 3, 801, 32001, block, block + 1, 3 * block + 7}):
            phi = rng.random(size)
            np.testing.assert_allclose(
                _trapezoid_convolve(phi.copy(), step), _reference_trapezoid_convolve(phi, step),
                rtol=SCAN_RTOL, atol=0.0, err_msg=f"size {size}",
            )

    @pytest.mark.parametrize("step", [0.00025, 0.01, 0.3])
    def test_mixed_sign_scan_within_rounding_bound(self, step):
        # mixed signs cancel, so the bound is absolute: exp(h B) B eps max|b|
        rng = np.random.default_rng(23)
        block = _scan_block(step)
        grid = UniformGrid((3 * block + 7) * step, step)
        f = GridFunction(grid, rng.standard_normal(grid.node_count), 0.0)
        g = convolve_kernel(f, 0.8, grid)
        phi = np.interp(0.8 * grid.nodes, grid.nodes, f.values, right=0.0)
        b = _trapezoid_inputs(phi, step)
        bound = math.exp(step * block) * block * np.finfo(float).eps * np.max(np.abs(b))
        assert np.max(np.abs(g.values - _reference_trapezoid_convolve(phi, step))) <= bound


class TestPicard:
    def test_k0_is_constant_one(self):
        u0 = picard_v0(3.0, GRID, 0)
        assert np.all(u0.values == 1.0)
        assert u0.tail_value == 1.0

    def test_k1_analytic(self):
        u1 = picard_v0(3.0, GRID, 1)
        err = np.max(np.abs(u1.values - (1.0 - np.exp(-GRID.nodes))))
        assert err < 1e-3

    def test_reference_seed_is_a_distribution_profile(self):
        # the alpha=3, k=5 seed curve: values in [0,1], nondecreasing in t
        u5 = picard_v0(3.0, GRID, 5)
        assert float(np.min(u5.values)) >= 0.0
        assert float(np.max(u5.values)) <= 1.0
        assert np.all(np.diff(u5.values) >= -1e-12)

    def test_restriction_extent_stable(self):
        # the full expansion (eps_tail 0 certifies no shorter extent) must not
        # change the restricted values
        u_adaptive = picard_v0(1.5, GRID, 5)
        u_full = picard_v0(1.5, GRID, 5, eps_tail=0.0)
        assert np.max(np.abs(u_adaptive.values - u_full.values)) < 1e-9

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            picard_v0(0.0, GRID, 3)
        with pytest.raises(ValueError):
            picard_v0(1.5, GRID, -1)

    @pytest.mark.parametrize("alpha", [0.66, 1.0, 1.5, 3.0])
    def test_matches_u_form_reference(self, alpha, monkeypatch):
        # the q-chain with source 1 - K(1) is the U-form up to rounding, and
        # its certificate q[-1] < eps_tail accepts the same working grid
        runs = _spy_steps(monkeypatch)
        for k in (1, 5, 9):
            runs.clear()
            expected, tried = _reference_picard(alpha, GRID, k)
            u = picard_v0(alpha, GRID, k)
            assert np.max(np.abs(u.values - expected)) <= 1e-12, k
            assert u.tail_value == 1.0
            assert runs == [(nodes, 2, k) for nodes in tried], k

    @pytest.mark.parametrize("alpha", [0.66, 3.0])
    def test_level_one_is_the_clipped_source(self, alpha, monkeypatch):
        # K(0) = 0, so the zero seed costs no scan: each working grid tried
        # scans once for the source and once for each level from 2 to k
        real = grid_numerics._trapezoid_convolve
        for k in (1, 5):
            _, tried = _reference_picard(alpha, GRID, k)
            scans = []
            monkeypatch.setattr(grid_numerics, "_trapezoid_convolve",
                                lambda phi, step: scans.append(len(phi)) or real(phi, step))
            picard_v0(alpha, GRID, k)
            assert scans == [nodes for nodes in tried for _ in range(k)], k


def _reference_picard(alpha, grid, k, eps_tail=grid_numerics.DEFAULT_EPS_TAIL):
    """Picard by its own U-form loop, U <- clip(K(U^2)) with tail 1.

    Returns the values on `grid` and the node counts of the working grids
    tried, the accepted one last (accepted when 1 - U < eps_tail at its end).
    """
    extents = grid_numerics._extent_schedule(grid, alpha, k)
    tried = []
    for t_end in extents:
        work_nodes = grid_numerics._working_nodes(t_end, grid.step, grid_numerics.DEFAULT_NODE_CAP)
        tried.append(len(work_nodes))
        u = np.ones_like(work_nodes)
        for _ in range(k):
            g = np.interp(alpha * work_nodes, work_nodes, u, right=1.0)
            u = np.clip(_trapezoid_convolve(g * g, grid.step), 0.0, 1.0)
        if 1.0 - u[-1] < eps_tail:
            break
    return u[: grid.node_count], tried


class TestIterateVn:
    def test_n0_returns_seed_unchanged(self):
        v0 = picard_v0(1.5, GRID, 3)
        assert iterate_vn(1.5, GRID, 0, v0) is v0

    def test_zero_seed_one_step_is_exponential(self):
        zero = GridFunction.constant(GRID, 0.0)
        v1 = iterate_vn(1.5, GRID, 1, zero)
        assert np.max(np.abs(v1.values - np.exp(-GRID.nodes))) < 1e-4

    def test_constant_one_is_fixed_point(self):
        ones = GridFunction.constant(GRID, 1.0)
        v = iterate_vn(2.0, GRID, 6, ones)
        assert np.all(v.values == 1.0)

    def test_initial_value_exact(self):
        v0 = picard_v0(1.5, GRID, 5)
        for n in (1, 4, 9):
            assert iterate_vn(1.5, GRID, n, v0).values[0] == 1.0

    def test_matches_literal_recursion_at_quadrature_order(self):
        diffs = literal_v_deviations(1.5, 5)
        assert diffs[0] < 5e-4
        assert 2.5 <= diffs[0] / diffs[1] <= 5.5
        # the literal route's 32-wide working grid is no approximation: a
        # wider one gives the same deviations, at both identity-check alphas
        assert literal_v_deviations(1.5, 5, 64.0) == diffs
        assert literal_v_deviations(3.0, 10, 64.0) == literal_v_deviations(3.0, 10)


def _trapezoid_inputs(phi, step):
    """The scan's inputs b_i = (h/2)(a phi_{i-1} + phi_i), b_0 = 0."""
    a = math.exp(-step)
    b = np.empty_like(phi)
    b[0] = 0.0
    b[1:] = (step / 2.0) * (a * phi[:-1] + phi[1:])
    return b


def _reference_trapezoid_convolve(phi, step):
    """The trapezoid recurrence g_i = a g_{i-1} + b_i, one float at a time."""
    a = math.exp(-step)
    g, out = 0.0, []
    for b in _trapezoid_inputs(phi, step).tolist():
        g = a * g + b
        out.append(g)
    return np.array(out)


# relative bound between the blocked scan and the sequential recurrence for
# nonnegative inputs: both round within about 1e3 epsilons at 16,000-node blocks
SCAN_RTOL = 1e-12


def _scan_block(step):
    return max(1, int(grid_numerics._SCAN_SPAN / step))


class TestIterateQn:
    def test_supersolution_one_step_analytic(self):
        ones = GridFunction.constant(GRID, 1.0)
        q1 = iterate_qn(0.66, GRID, 1, ones)
        assert np.max(np.abs(q1.values - (1.0 - np.exp(-GRID.nodes)))) < 1e-4

    def test_zero_is_fixed_point(self):
        zero = GridFunction.constant(GRID, 0.0)
        q = iterate_qn(1.5, GRID, 7, zero)
        assert np.all(q.values == 0.0)

    def test_initial_value_exact(self):
        q0 = picard_v0(1.5, GRID, 5).complement()
        for n in (1, 3, 8):
            assert iterate_qn(1.5, GRID, n, q0).values[0] == 0.0

    @pytest.mark.parametrize("alpha", [0.66, 1.0, 1.2, 2.5])
    def test_blocked_interpolation_is_np_interp(self, alpha):
        rng = np.random.default_rng(5)
        for count in (2, 801, 16_384, 40_001):
            nodes = np.arange(count) * 0.00025
            q = rng.random(count)
            for tau in (0.0, 0.37):
                expected = np.interp(alpha * nodes, nodes, q, right=tau)
                assert np.array_equal(_advanced(q, nodes, alpha, tau), expected), count

    def test_in_place_step_matches_reference_expression(self):
        # alpha <= 1 runs one working grid, so this pins the step arithmetic
        q = np.ones(GRID.node_count)
        levels = dict(iterate_qn_levels(0.66, GRID, GridFunction.constant(GRID, 1.0), range(1, 7)))
        for j in range(1, 7):
            g = np.interp(0.66 * GRID.nodes, GRID.nodes, q, right=1.0 if j == 1 else 0.0)
            q = np.clip(_reference_trapezoid_convolve(2.0 * g - g * g, GRID.step), 0.0, 1.0)
            np.testing.assert_allclose(levels[j].values, q, rtol=SCAN_RTOL, atol=0.0,
                                       err_msg=f"level {j}")

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(0.3, 3.0),
        seed_level=st.floats(0.0, 1.0),
        n=st.integers(1, 4),
    )
    def test_range_preserved(self, alpha, seed_level, n):
        grid = UniformGrid(2.0, 0.05)
        q0 = GridFunction.constant(grid, seed_level)
        q = iterate_qn(alpha, grid, n, q0)
        assert float(np.min(q.values)) >= 0.0
        assert float(np.max(q.values)) <= 1.0
        assert q.values[0] == 0.0

    def test_rejects_out_of_range_seed(self):
        bad = GridFunction(GRID, np.full(GRID.node_count, 1.2), 1.0)
        with pytest.raises(ValueError):
            iterate_qn(1.5, GRID, 2, bad)


def _explosion_seed(alpha, grid):
    if alpha <= 1.0:
        return GridFunction.constant(grid, 1.0)
    return picard_v0(alpha, grid, 5).complement()


def _spy_steps(monkeypatch):
    """Record (working nodes, first level, last level) of every run of the step loop."""
    runs = []
    real = grid_numerics._run_q_iteration

    def spy(alpha, step, work_nodes, seed, source, q, tau, first, n):
        runs.append((len(work_nodes), first, n))
        return real(alpha, step, work_nodes, seed, source, q, tau, first, n)

    monkeypatch.setattr(grid_numerics, "_run_q_iteration", spy)
    return runs


@pytest.mark.parametrize("chain, first", [
    (lambda: picard_v0(1.5, GRID, 4), 2),  # level 1 of Picard is the clipped source
    (lambda: iterate_vn(1.5, GRID, 4, GridFunction.constant(GRID, 0.5)), 1),
    (lambda: iterate_qn(1.5, GRID, 4, GridFunction.constant(GRID, 0.5)), 1),
], ids=["picard_v0", "iterate_vn", "iterate_qn"])
def test_every_chain_steps_through_the_one_loop(chain, first, monkeypatch):
    # iterate_qn_levels is spied on in TestIterateQnLevels
    runs = _spy_steps(monkeypatch)
    chain()
    assert runs and runs[0][1] == first and runs[-1][2] == 4


class TestCarriedTail:
    """Beyond the working grid each level is extrapolated with the scalar
    tail tau_j = 2 tau_{j-1} - tau_{j-1}^2, so a seed with a nonzero tail
    certifies an extent short of the full expansion and still matches it."""

    @pytest.mark.parametrize("alpha, n", [(1.5, 8), (2.5, 6)])
    @pytest.mark.parametrize("q0", [1.0, 0.3])
    def test_default_matches_full_expansion(self, q0, alpha, n, monkeypatch):
        seed = GridFunction.constant(GRID, q0)
        runs = _spy_steps(monkeypatch)
        q = iterate_qn(alpha, GRID, n, seed)
        certified = runs[-1][0]
        full = iterate_qn(alpha, GRID, n, seed, eps_tail=0.0)
        assert np.max(np.abs(q.values - full.values)) < grid_numerics.DEFAULT_EPS_TAIL
        assert certified < runs[-1][0]  # a shorter extent than the full expansion

    def test_finiteness_chain_from_zero_matches_full_expansion(self):
        v0 = GridFunction.constant(GRID, 0.0)
        v = iterate_vn(3.0, GRID, 7, v0)
        full = iterate_vn(3.0, GRID, 7, v0, eps_tail=0.0)
        for t in (0.5, 2.0, 4.0):  # 0.770, 0.176 and 0.0238
            assert abs(v(t) - full(t)) < grid_numerics.DEFAULT_EPS_TAIL, t

    @staticmethod
    def _tau(tau0, n):
        for _ in range(n):
            tau0 = 2.0 * tau0 - tau0 * tau0
        return tau0

    @pytest.mark.parametrize("alpha", [0.66, 1.5, 2.5])
    @pytest.mark.parametrize("q0", [1.0, 0.3, 0.0])
    def test_results_carry_the_tail(self, q0, alpha):
        # past the grid's end an iterate reads tau_n, not a fixed 0 or 1
        seed = GridFunction.constant(GRID, q0)
        tau = self._tau(q0, 6)
        q = iterate_qn(alpha, GRID, 6, seed)
        assert q.tail_value == tau
        assert [f.tail_value for _, f in iterate_qn_levels(alpha, GRID, seed, (2, 3, 6))] == [
            self._tau(q0, 2), self._tau(q0, 3), tau]
        assert iterate_vn(alpha, GRID, 6, seed.complement()).tail_value == 1.0 - tau
        assert q(20.0) == tau

    def test_constant_one_seed_reads_one_past_the_grid(self):
        q = iterate_qn(1.5, GRID, 8, GridFunction.constant(GRID, 1.0))
        assert q(20.0) == 1.0
        assert iterate_vn(3.0, GRID, 7, GridFunction.constant(GRID, 0.0))(20.0) == 0.0

    def test_picard_seeded_chains_keep_a_zero_tail(self):
        q0 = picard_v0(1.5, GRID, 5).complement()
        assert iterate_qn(1.5, GRID, 6, q0).tail_value == 0.0
        assert iterate_vn(1.5, GRID, 6, q0.complement()).tail_value == 1.0


class TestIterateQnLevels:
    LEVELS = range(5, 41, 5)

    @pytest.mark.parametrize("alpha", [0.66, 1.2, 1.5, 2.5, 3.0])
    def test_every_level_equals_a_fresh_chain(self, alpha, monkeypatch):
        q0 = _explosion_seed(alpha, GRID)
        runs = _spy_steps(monkeypatch)
        results = list(iterate_qn_levels(alpha, GRID, q0, self.LEVELS))
        steps = list(runs)
        assert [n for n, _ in results] == list(self.LEVELS)
        for n, q in results:  # held past the later levels, so none was overwritten
            fresh = iterate_qn(alpha, GRID, n, q0)
            assert np.array_equal(q.values, fresh.values), n
            assert q.tail_value == fresh.tail_value
        # each extent continues from the level it last reached: no level twice
        reached = {}
        for nodes, first, n in steps:
            assert first == reached.get(nodes, 0) + 1
            reached[nodes] = n
        if alpha == 1.2:  # the n = 5 extent 8 * 1.2**5 is tried once, then dropped
            assert [nodes for nodes, _, _ in steps].count(1992) == 1
        if alpha == 2.5:  # 1601 nodes are needed up to n = 25, 801 suffice later
            assert (1601, 21, 25) in steps and (801, 26, 30) in steps

    def test_levels_need_not_start_at_five(self):
        q0 = _explosion_seed(1.5, GRID)
        levels = (1, 2, 7, 8, 20)
        for n, q in iterate_qn_levels(1.5, GRID, q0, levels):
            assert np.array_equal(q.values, iterate_qn(1.5, GRID, n, q0).values), n

    def test_abandoned_generator_computes_no_later_level(self, monkeypatch):
        q0 = _explosion_seed(1.5, GRID)
        runs = _spy_steps(monkeypatch)
        chain = iterate_qn_levels(1.5, GRID, q0, self.LEVELS)
        (n5, q5), (n10, q10) = next(chain), next(chain)
        chain.close()
        assert (n5, n10) == (5, 10)
        assert max(n for _, _, n in runs) == 10
        assert np.array_equal(q10.values, iterate_qn(1.5, GRID, 10, q0).values)
        again = dict(iterate_qn_levels(1.5, GRID, q0, (5, 10)))
        assert np.array_equal(again[5].values, q5.values)

    def test_node_cap_raises_at_the_same_level(self):
        # at alpha = 1.2, n = 5 fits in 1992 nodes and n = 10 needs 3201
        q0 = _explosion_seed(1.2, GRID)
        cap = 2000
        iterate_qn(1.2, GRID, 5, q0, node_cap=cap)
        with pytest.raises(GridMemoryError):
            iterate_qn(1.2, GRID, 10, q0, node_cap=cap)
        chain = iterate_qn_levels(1.2, GRID, q0, self.LEVELS, node_cap=cap)
        n, q = next(chain)
        assert n == 5
        assert np.array_equal(q.values, iterate_qn(1.2, GRID, 5, q0, node_cap=cap).values)
        with pytest.raises(GridMemoryError):
            next(chain)

    def test_levels_must_increase(self):
        q0 = _explosion_seed(1.5, GRID)
        with pytest.raises(ValueError):
            list(iterate_qn_levels(1.5, GRID, q0, (5, 5)))
        with pytest.raises(ValueError):
            list(iterate_qn_levels(1.5, GRID, q0, (0, 5)))

    def test_rejects_bad_alpha_and_seed_at_call(self):
        bad = GridFunction(GRID, np.full(GRID.node_count, 1.2), 1.0)
        with pytest.raises(ValueError):
            iterate_qn_levels(1.5, GRID, bad, self.LEVELS)
        with pytest.raises(ValueError):
            iterate_qn_levels(-1.0, GRID, GridFunction.constant(GRID, 1.0), self.LEVELS)


class TestIdentity:
    # iterate_vn against the literal v-form, which reaches v through none of
    # the complement-form code (measured: 1.5e-4 / 3.4e-5 at alpha 1.5 and
    # 6.3e-5 / 1.7e-5 at alpha 3, at steps 0.01 / 0.005)
    def test_weak_hyperexplosive_case(self):
        diffs = literal_v_deviations(1.5, 5)
        assert diffs[0] < 5e-4
        assert 2.5 <= diffs[0] / diffs[1] <= 5.5

    def test_strong_hyperexplosive_case(self):
        diffs = literal_v_deviations(3.0, 10)
        assert diffs[0] < 5e-4
        assert 2.5 <= diffs[0] / diffs[1] <= 5.5

    def test_trivial_seed(self):
        ones = GridFunction.constant(GRID, 1.0)
        v = iterate_vn(2.0, GRID, 4, ones)
        q = iterate_qn(2.0, GRID, 4, ones.complement())
        assert np.max(np.abs(v.values - (1.0 - q.values))) == 0.0


class TestResidual:
    def test_constant_one_solves_exactly(self):
        ones = GridFunction.constant(GRID, 1.0)
        report = riccati_residual(ones, 2.0)
        assert report.max_abs_residual == 0.0

    def test_exponential_profile_at_alpha_one(self):
        # v = e^-t at alpha=1: v' + v - v^2 = -e^-2t, so |r(0)| is about 1
        f = GridFunction(GRID, np.exp(-GRID.nodes), math.exp(-8.0))
        report = riccati_residual(f, 1.0)
        expected = -np.exp(-2.0 * GRID.nodes)
        assert abs(report.residual[0] - expected[0]) < 1e-3
        assert np.max(np.abs(report.residual - expected)) < 1e-3
        assert report.interior_range[1] == pytest.approx(8.0)

    def test_iterated_curve_residual_shrinks(self):
        v0 = picard_v0(1.5, GRID, 5)
        res_small_n = riccati_residual(iterate_vn(1.5, GRID, 5, v0), 1.5).max_abs_residual
        res_large_n = riccati_residual(iterate_vn(1.5, GRID, 20, v0), 1.5).max_abs_residual
        assert res_large_n < res_small_n

    def test_residual_shrinks_under_step_refinement(self):
        res = {}
        for step in (0.01, 0.005):
            grid = UniformGrid(8.0, step)
            v0 = picard_v0(1.5, grid, 5)
            res[step] = riccati_residual(iterate_vn(1.5, grid, 40, v0), 1.5).max_abs_residual
        assert res[0.005] < res[0.01]

    def test_interior_excludes_tail_arguments(self):
        v0 = picard_v0(3.0, GRID, 5)
        report = riccati_residual(v0, 3.0)
        assert report.interior_range[1] <= 8.0 / 3.0 + 0.011

    def test_small_grid_rejected(self):
        grid = UniformGrid(0.02, 0.01)
        f = GridFunction.constant(grid, 1.0)
        with pytest.raises(ValueError):
            riccati_residual(GridFunction(UniformGrid(0.01, 0.01), np.array([1.0, 1.0]), 1.0), 1.0)
        assert riccati_residual(f, 1.0).max_abs_residual == 0.0


class TestWorkingGridLimits:
    def test_node_cap_raises(self):
        q0 = GridFunction.constant(GRID, 1.0)
        with pytest.raises(GridMemoryError):
            iterate_qn(3.0, GRID, 8, q0, node_cap=1000)

    def test_overflowing_expansion_bound_still_runs_adaptively(self):
        # 3.0**700 overflows a float: the doubling schedule runs against an
        # infinite bound and certifies an extent
        grid = UniformGrid(8.0, 0.1)
        u = picard_v0(3.0, grid, 700)
        q = iterate_qn(3.0, grid, 700, u.complement())
        assert u.values[0] == 0.0 and q.values[0] == 0.0
        assert np.all(np.diff(u.values) >= -1e-12)
