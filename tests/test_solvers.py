import json
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from coreset_iht import (
    DivergenceError,
    SolverConfig,
    SparseRegressionProblem,
    Termination,
    estimate_rip,
    brute_force_optimum,
    gradient,
    line_search_step,
    make_planted_problem,
    momentum_coefficient,
    nnls_on_support,
    objective,
    project_topk_excluding,
    project_topk_nonneg,
    restrict,
    solve_aiht,
    solve_aiht_batched,
    solve_aiht_debias,
    solve_vanilla_iht,
    step_along,
    stochastic_gradient,
)
from coreset_iht import problem as problem_module
from coreset_iht import solvers as solvers_module
from coreset_iht.problem import _Columns
from coreset_iht.solvers import (
    TraceRecord,
    _converged,
    _exact_step,
    _expanded_support,
    _line_minimizer,
)
from conftest import random_problem, recovery_problem


def zero_target_problem(n=4):
    return SparseRegressionProblem(np.eye(n), np.zeros(n))


def small_recovery_instance():
    """12x10 Gaussian phi with planted weights 3 and 5 at indices 1 and 4."""
    rng = np.random.default_rng(7)
    phi = rng.standard_normal((12, 10))
    w = np.zeros(10)
    w[1], w[4] = 3.0, 5.0
    return SparseRegressionProblem(phi, phi @ w), w


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(k=0)
        with pytest.raises(ValueError):
            SolverConfig(k=1, max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(k=1, rel_tol=0.0)

    @pytest.mark.parametrize("field", [{"batch_fraction": 0.5}, {"rng_seed": 1}],
                             ids=["batch_fraction", "rng_seed"])
    def test_batched_settings_are_not_fields(self, field):
        # Only the batched solver reads them, so they are its arguments.
        with pytest.raises(TypeError):
            SolverConfig(k=1, **field)

    @staticmethod
    def ill_conditioned_problem():
        """A tall phi of condition number 1e6 with the coreset target."""
        rng = np.random.default_rng(0)
        u = np.linalg.qr(rng.standard_normal((20, 10)))[0]
        v = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        return SparseRegressionProblem.from_columns(u @ np.diag(np.logspace(0, -6, 10)) @ v.T)

    def test_default_iteration_caps(self):
        # No solver meets rel_tol 1e-15 within its cap. At k = n every f
        # falls strictly below the last, so no iteration counts toward a
        # cycle, and each solver runs to its own default, or to max_iters.
        problem = self.ill_conditioned_problem()
        solves = {"vanilla": partial(solve_vanilla_iht, step=0.1), "aiht": solve_aiht,
                  "aiht_debias": solve_aiht_debias,
                  "aiht_batched": partial(solve_aiht_batched, batch_fraction=0.5, seed=0)}
        for name, solve in solves.items():
            cap = 500 if name == "aiht_batched" else 300
            _, trace = solve(problem, SolverConfig(k=10, rel_tol=1e-15))
            assert (len(trace), trace.termination) == (cap, Termination.MAX_ITERS), name
            assert np.all(np.diff(trace.objectives()) < 0), name
            _, trace = solve(problem, SolverConfig(k=10, max_iters=7, rel_tol=1e-15))
            assert (len(trace), trace.termination) == (7, Termination.MAX_ITERS), name

    def test_cycle_stops_below_the_cap(self):
        # At k = 5 the batched solve revisits supports without lowering f
        # and stops long before its 500-iteration cap.
        _, trace = solve_aiht_batched(self.ill_conditioned_problem(),
                                      SolverConfig(k=5, rel_tol=1e-15),
                                      batch_fraction=0.5, seed=0)
        assert trace.termination is Termination.CYCLED
        assert len(trace) < 500


class TestLineSearch:
    def test_identity_matrix_gives_half(self):
        p = SparseRegressionProblem(np.eye(5), np.ones(5))
        rng = np.random.default_rng(0)
        for _ in range(5):
            d = rng.standard_normal(5)
            assert line_search_step(p, d) == 0.5

    def test_zero_direction(self):
        p = SparseRegressionProblem(np.eye(3), np.ones(3))
        assert line_search_step(p, np.zeros(3)) == 0.0

    def test_beats_grid(self):
        # the closed form is the argmin only along a gradient restriction
        # taken at the same point
        from coreset_iht import restrict

        rng = np.random.default_rng(1)
        for _ in range(10):
            p = random_problem(rng, 8, 6)
            z = rng.standard_normal(6)
            support = rng.choice(6, size=rng.integers(1, 7), replace=False)
            d = restrict(gradient(p, z), support)
            mu = line_search_step(p, d)
            f_star = objective(p, z - mu * d)
            for c in np.linspace(0.0, 4.0 * mu, 100):
                assert f_star <= objective(p, z - c * d) * (1 + 1e-10) + 1e-12


class TestMomentum:
    def test_zero_direction(self):
        p = SparseRegressionProblem(np.eye(3), np.ones(3))
        w = np.array([1.0, 0.0, 0.0])
        assert momentum_coefficient(p, w, w) == 0.0

    def test_argmin_beats_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_problem(rng, 8, 6)
            w_prev = np.abs(rng.standard_normal(6))
            w_next = np.abs(rng.standard_normal(6))
            tau = momentum_coefficient(p, w_next, w_prev)
            d = w_next - w_prev
            f_star = objective(p, w_next + tau * d)
            for c in np.linspace(-2.0, 2.0, 100):
                assert f_star <= objective(p, w_next + c * d) * (1 + 1e-10) + 1e-12


@pytest.mark.parametrize("call", [
    lambda p, full, short: line_search_step(p, short),
    lambda p, full, short: step_along(p, short, full),
    lambda p, full, short: step_along(p, full, short),
    lambda p, full, short: momentum_coefficient(p, short, full),
    lambda p, full, short: momentum_coefficient(p, full, short),
    lambda p, full, short: momentum_coefficient(p, short, 0.0 * short),
], ids=["line_search_direction", "step_along_point", "step_along_direction",
        "momentum_next", "momentum_prev", "momentum_both"])
def test_step_helpers_reject_wrong_length(call):
    # A 30-entry vector on a 40-column problem used to give a number.
    p = random_problem(np.random.default_rng(3), 12, 40)
    full, short = np.zeros(40), np.zeros(30)
    full[0] = short[0] = 1.0
    with pytest.raises(ValueError, match=r"expected \(40,\)"):
        call(p, full, short)


class TestVanillaIht:
    def test_zero_target_converges_immediately(self):
        w, trace = solve_vanilla_iht(zero_target_problem(), SolverConfig(k=2), step=0.1)
        assert not w.w.any()
        assert len(trace) == 1
        assert trace.termination is Termination.CONVERGED

    def test_exact_recovery_with_rip_step(self):
        problem, w_star = small_recovery_instance()
        rip = estimate_rip(problem, 2)
        step = 1.0 / (2.0 * rip.beta_at(6))
        cfg = SolverConfig(k=2, rel_tol=1e-14, max_iters=20000)
        w, trace = solve_vanilla_iht(problem, cfg, step)
        assert trace.records[-1].f < 1e-10
        assert w.support.tolist() == [1, 4]
        # brute force over all supports certifies the planted optimum is global
        w_opt, f_opt = brute_force_optimum(problem, 2)
        assert w_opt.support.tolist() == [1, 4]
        assert f_opt <= 1e-20
        np.testing.assert_allclose(w.w, w_star, atol=1e-8)

    def test_divergence_raises_and_names_iteration(self):
        problem, _ = small_recovery_instance()
        with pytest.raises(DivergenceError) as err:
            solve_vanilla_iht(problem, SolverConfig(k=2, max_iters=10000), step=1.0)
        assert err.value.iteration > 0
        # oracle: replay the iteration map; the objective must grow
        # monotonically until it overflows
        w = np.zeros(10)
        fs = []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(err.value.iteration + 1):
                g = -2.0 * (problem.phi.T @ (problem.y - problem.phi @ w))
                w = project_topk_nonneg(w - 1.0 * g, 2).w
                r = problem.y - problem.phi @ w
                f = float(r @ r)
                if not np.isfinite(f):
                    break
                fs.append(f)
        assert len(fs) == err.value.iteration
        assert np.all(np.diff(fs) > 0)

    def test_overflowing_step_raises_divergence(self):
        # The first projected step overflows to +inf.
        problem = SparseRegressionProblem.from_columns(
            np.random.default_rng(0).standard_normal((20, 50)))
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
            solve_vanilla_iht(problem, SolverConfig(k=5), step=1e307)
        assert err.value.iteration == 0

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_vanilla_iht(zero_target_problem(), SolverConfig(k=1), step=0.0)

    def test_step_must_be_finite(self):
        with pytest.raises(ValueError, match="step must be > 0 and finite"):
            solve_vanilla_iht(zero_target_problem(), SolverConfig(k=1), step=np.inf)


class TestAiht:
    def test_zero_target_one_iteration(self):
        w, trace = solve_aiht(zero_target_problem(), SolverConfig(k=2))
        assert not w.w.any()
        assert len(trace) == 1
        assert trace.termination is Termination.CONVERGED

    def test_recovers_global_optimum_faster_than_vanilla(self):
        problem, w_star = small_recovery_instance()
        cfg = SolverConfig(k=2, rel_tol=1e-14, max_iters=20000)
        w, trace = solve_aiht(problem, cfg)
        assert trace.records[-1].f < 1e-10
        w_opt, _ = brute_force_optimum(problem, 2)
        assert w.support.tolist() == w_opt.support.tolist()
        np.testing.assert_allclose(w.w, w_star, atol=1e-8)
        rip = estimate_rip(problem, 2)
        _, vanilla_trace = solve_vanilla_iht(problem, cfg, 1.0 / (2.0 * rip.beta_at(6)))
        assert len(trace) < len(vanilla_trace)

    def test_k_equals_n_solves_nnls(self):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((20, 8))
        y = 3.0 * rng.standard_normal(20)
        problem = SparseRegressionProblem(phi, y)
        w, _ = solve_aiht(problem, SolverConfig(k=8, rel_tol=1e-12, max_iters=5000))
        oracle = nnls_on_support(phi, y)
        np.testing.assert_allclose(w.w, oracle, atol=1e-6)
        reference, _ = scipy_nnls(phi, y)
        np.testing.assert_allclose(oracle, reference, atol=1e-9)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            solve_aiht(zero_target_problem(3), SolverConfig(k=4))

    def test_feasibility_and_expanded_support_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            problem = random_problem(rng, 15, 12, y_scale=4.0)
            k = int(rng.integers(1, 5))
            capture = []
            w, trace = solve_aiht(problem, SolverConfig(k=k, max_iters=60), capture=capture)
            assert w.sparsity <= k and np.all(w.w >= 0)
            for rec, cap in zip(trace.records, capture):
                assert len(rec.support) <= k
                assert cap["support_expanded"].size <= 3 * k
                assert np.all(cap["w_next"] >= 0)
                assert np.count_nonzero(cap["w_next"]) <= k

    def test_step_size_bracket_under_rip(self):
        rng = np.random.default_rng(5)
        problem, _ = recovery_problem(rng, 30, 10, 2)
        k = 2
        rip = estimate_rip(problem, k)
        lo = 1.0 / (2.0 * rip.beta_at(6))
        hi = 1.0 / (2.0 * rip.alpha_at(6))
        assert rip.alpha_at(6) > 0
        capture = []
        solve_aiht(problem, SolverConfig(k=k, max_iters=100), capture=capture)
        for cap in capture:
            if cap["mu"] != 0.0:
                assert lo - 1e-12 <= cap["mu"] <= hi + 1e-12

    def test_best_so_far_objective_decreases(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            problem = random_problem(rng, 12, 10, y_scale=5.0)
            _, trace = solve_aiht(problem, SolverConfig(k=3))
            fs = trace.objectives()
            best = np.minimum.accumulate(fs)
            assert np.all(np.diff(best) <= 0)
            assert best[-1] < objective(problem, np.zeros(10))

    def test_deterministic_traces(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng, 10, 8, y_scale=3.0)
        cfg = SolverConfig(k=3)
        _, t1 = solve_aiht(problem, cfg)
        _, t2 = solve_aiht(problem, cfg)
        assert json.dumps(t1.with_zeroed_time().to_dict()) == json.dumps(t2.with_zeroed_time().to_dict())


class TestAihtDebias:
    def test_zero_target(self):
        w, trace = solve_aiht_debias(zero_target_problem(), SolverConfig(k=2))
        assert not w.w.any()
        assert trace.termination is Termination.CONVERGED

    def test_recovery_not_slower_than_aiht(self):
        problem, w_star = small_recovery_instance()
        cfg = SolverConfig(k=2, rel_tol=1e-14, max_iters=20000)
        w, trace = solve_aiht_debias(problem, cfg)
        assert trace.records[-1].f < 1e-10
        np.testing.assert_allclose(w.w, w_star, atol=1e-8)
        _, plain = solve_aiht(problem, cfg)
        assert len(trace) <= len(plain)

    def test_debias_reaches_restricted_nnls_optimum(self):
        # Near-orthonormal phi: the very first projection finds the final
        # support, so convergence is down to the de-bias refinement.
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((30, 10)))
        w_true = np.zeros(10)
        w_true[[2, 7]] = [4.0, 2.5]
        y = q @ w_true + 0.01 * rng.standard_normal(30)
        problem = SparseRegressionProblem(q, y)
        capture = []
        w, trace = solve_aiht_debias(
            problem, SolverConfig(k=2, rel_tol=1e-12, max_iters=50), capture=capture)
        assert set(np.flatnonzero(capture[0]["w_next"]).tolist()) == {2, 7}
        assert len(trace) <= 50
        u = nnls_on_support(problem.phi[:, [2, 7]], problem.y)
        oracle = np.zeros(10)
        oracle[[2, 7]] = u
        np.testing.assert_allclose(w.w, oracle, atol=1e-8)

    def test_feasibility_every_iteration(self):
        rng = np.random.default_rng(8)
        problem = random_problem(rng, 15, 12, y_scale=4.0)
        capture = []
        w, trace = solve_aiht_debias(problem, SolverConfig(k=4, max_iters=60), capture=capture)
        assert w.sparsity <= 4 and np.all(w.w >= 0)
        for cap in capture:
            assert np.count_nonzero(cap["w_next"]) <= 4
            assert np.all(cap["w_next"] >= 0)
            assert cap["support_expanded"].size <= 12


class TestStochasticGradient:
    def test_full_batch_equals_gradient(self):
        rng = np.random.default_rng(9)
        problem = random_problem(rng, 5, 8)
        w = np.abs(rng.standard_normal(8))
        got = stochastic_gradient(problem, w, 1.0, np.random.default_rng(0))
        assert np.array_equal(got, gradient(problem, w))

    def test_unbiased_on_small_instance(self):
        rng = np.random.default_rng(10)
        problem = random_problem(rng, 5, 8)
        w = np.abs(rng.standard_normal(8))
        exact = gradient(problem, w)
        draws = np.empty((10_000, 8))
        gen = np.random.default_rng(123)
        for i in range(draws.shape[0]):
            draws[i] = stochastic_gradient(problem, w, 0.5, gen)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - exact) <= 3 * se)

    def test_zero_weights_mean(self):
        rng = np.random.default_rng(11)
        problem = random_problem(rng, 5, 8)
        exact = -2.0 * (problem.phi.T @ problem.y)
        gen = np.random.default_rng(7)
        draws = np.array([stochastic_gradient(problem, np.zeros(8), 0.5, gen)
                          for _ in range(10_000)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - exact) <= 3 * se)

    def test_matches_dense_formula_for_the_same_draws(self):
        # Wide problem, small batch: only the batch's columns are read.
        rng = np.random.default_rng(17)
        problem = random_problem(rng, 6, 200)
        w = np.zeros(200)
        w[rng.choice(200, size=40, replace=False)] = rng.uniform(0.5, 2.0, size=40)
        got = stochastic_gradient(problem, w, 0.05, np.random.default_rng(4))
        draws = np.random.default_rng(4)
        sel_inner = draws.choice(200, size=10, replace=False)
        sel_outer = draws.choice(200, size=10, replace=False)
        masked = np.zeros(200)
        masked[sel_inner] = 20.0 * w[sel_inner]
        full = 2.0 * (problem.phi.T @ (problem.phi @ masked - problem.y))
        expected = np.zeros(200)
        expected[sel_outer] = 20.0 * full[sel_outer]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(full).max())
        assert np.count_nonzero(got) <= 10

    def test_zero_batch_rejected(self):
        problem = zero_target_problem(4)
        with pytest.raises(ValueError):
            stochastic_gradient(problem, np.zeros(4), 0.1, np.random.default_rng(0))


class TestAihtBatched:
    def test_full_batch_trace_identical_to_exact(self):
        rng = np.random.default_rng(12)
        problem = random_problem(rng, 10, 8, y_scale=3.0)
        cfg = SolverConfig(k=3, max_iters=300)
        _, batched = solve_aiht_batched(problem, cfg, batch_fraction=1.0, seed=5)
        _, exact = solve_aiht(problem, cfg)
        assert (json.dumps(batched.with_zeroed_time().to_dict())
                == json.dumps(exact.with_zeroed_time().to_dict()))

    def test_tiny_batch_runs_to_termination(self):
        rng = np.random.default_rng(13)
        problem = random_problem(rng, 6, 5, y_scale=2.0)
        w, trace = solve_aiht_batched(problem, SolverConfig(k=2), batch_fraction=0.2, seed=3)
        assert w.sparsity <= 2 and np.all(w.w >= 0)
        assert trace.termination in (Termination.CONVERGED, Termination.MAX_ITERS,
                                     Termination.STALLED)
        assert len(trace) <= 500

    def test_converged_run_ends_below_zero_weights(self):
        # A stochastic run used to report `converged` at f = 2.6e11 here,
        # against f(0) = 3.2e3.
        problem, _ = make_planted_problem(20, 40, 3, seed=(4, 0))
        capture = []
        _, trace = solve_aiht_batched(problem, SolverConfig(k=3), batch_fraction=0.2, seed=0,
                                      capture=capture)
        assert trace.termination is Termination.CONVERGED
        assert trace.records[-1].f < objective(problem, np.zeros(problem.n))
        last = capture[-1]
        np.testing.assert_array_equal(last["grad"], gradient(problem, last["z"]))

    def test_stochastic_step_never_raises_objective(self):
        problem, _ = make_planted_problem(20, 40, 3, seed=(4, 1))
        capture = []
        solve_aiht_batched(problem, SolverConfig(k=3), batch_fraction=0.2, seed=1,
                           capture=capture)
        for c in capture:
            mu, d = c["mu"], c["grad_restricted"]
            assert mu >= 0
            assert objective(problem, c["z"] - mu * d) <= objective(problem, c["z"]) + 1e-9

    def test_batched_seed_reproducible(self):
        rng = np.random.default_rng(14)
        problem = random_problem(rng, 8, 6, y_scale=2.0)
        cfg = SolverConfig(k=2, max_iters=50)
        _, t1 = solve_aiht_batched(problem, cfg, batch_fraction=0.5, seed=9)
        _, t2 = solve_aiht_batched(problem, cfg, batch_fraction=0.5, seed=9)
        assert json.dumps(t1.with_zeroed_time().to_dict()) == json.dumps(t2.with_zeroed_time().to_dict())

    @pytest.mark.parametrize("batch_fraction", [0.0, 1.5, float("nan")])
    def test_batch_fraction_outside_unit_interval_refused(self, batch_fraction):
        # Above 1 would otherwise take the exact path without a word.
        problem = random_problem(np.random.default_rng(14), 8, 6, y_scale=2.0)
        with pytest.raises(ValueError, match=r"^batch_fraction must be in \(0, 1\], got "):
            solve_aiht_batched(problem, SolverConfig(k=2), batch_fraction=batch_fraction, seed=0)


def revisits(records, i):
    """Whether iteration i revisits an earlier support without going below
    the least f before it: the iterations the cycle stop counts."""
    earlier = records[:i]
    return (records[i].support in {r.support for r in earlier}
            and records[i].f >= min(r.f for r in earlier))


def saturated_problem():
    """The coreset target on a 50x10 Gaussian phi: at k = 6 the accelerated
    solvers revisit supports without lowering f and stop ``cycled``."""
    rng = np.random.default_rng(21)
    return SparseRegressionProblem.from_columns(rng.standard_normal((50, 10)))


class TestBestIterate:
    # The vanilla step 1 / ||phi||^2 is twice the safe one, so its f
    # oscillates, and every accelerated solve here ends ``cycled``: in each
    # case the trace minimum comes long before the last iteration.
    SOLVES = {
        "vanilla": lambda problem, cfg: solve_vanilla_iht(
            problem, cfg, step=1.0 / np.linalg.norm(problem.phi, 2) ** 2),
        "aiht": solve_aiht,
        "aiht_debias": solve_aiht_debias,
        "aiht_batched": partial(solve_aiht_batched, batch_fraction=0.5, seed=0),
    }

    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_returned_weights_are_the_first_trace_minimum(self, name):
        problem = saturated_problem()
        w, trace = self.SOLVES[name](problem, SolverConfig(k=6))
        fs = trace.objectives()
        best = int(np.argmin(fs))
        assert best < len(fs) - 1
        assert objective(problem, w.w) == pytest.approx(fs[best], rel=1e-12, abs=0.0)
        assert w.support.tolist() == list(trace.records[best].support)

    @pytest.mark.parametrize("name", ["aiht", "aiht_debias", "aiht_batched"])
    def test_cycled_solve_ends_on_revisits_that_do_not_lower_f(self, name):
        _, trace = self.SOLVES[name](saturated_problem(), SolverConfig(k=6))
        assert trace.termination is Termination.CYCLED
        records = trace.records
        start = len(records) - solvers_module.CYCLE_PATIENCE
        assert all(revisits(records, i) for i in range(start, len(records)))
        # The run that stopped the solve began there, not earlier.
        assert not revisits(records, start - 1)

    def test_stochastic_steps_do_not_count_toward_a_cycle(self):
        # The stochastic phase of this solve revisits supports without
        # lowering f for CYCLE_PATIENCE iterations in a row long before it
        # switches to the exact gradient, and the solve goes on to converge.
        problem = SparseRegressionProblem.from_columns(
            np.random.default_rng(0).standard_normal((30, 40)))
        capture = []
        _, trace = solve_aiht_batched(problem, SolverConfig(k=5), batch_fraction=0.5,
                                      seed=0, capture=capture)
        assert trace.termination is Termination.CONVERGED
        switch = next(t for t, c in enumerate(capture)
                      if np.allclose(c["grad"], gradient(problem, c["z"]), rtol=1e-9, atol=0.0))
        patience = solvers_module.CYCLE_PATIENCE
        assert any(all(revisits(trace.records, i) for i in range(start, start + patience))
                   for start in range(1, switch - patience + 1))


class TestStepAlong:
    def test_equals_line_search_for_exact_restricted_gradient(self):
        rng = np.random.default_rng(15)
        problem = random_problem(rng, 9, 7, y_scale=2.0)
        z = np.array([0.5, 0.0, 1.5, 0.0, 0.0, 0.2, 0.0])
        d = np.zeros(7)
        d[[0, 2, 3]] = gradient(problem, z)[[0, 2, 3]]
        assert step_along(problem, z, d) == pytest.approx(line_search_step(problem, d),
                                                           rel=1e-12)

    def test_minimizes_along_any_direction_and_clips_ascent(self):
        rng = np.random.default_rng(16)
        problem = random_problem(rng, 9, 7, y_scale=2.0)
        z = np.abs(rng.standard_normal(7))
        d = rng.standard_normal(7)
        mu = step_along(problem, z, d)
        if mu == 0.0:
            d = -d
            mu = step_along(problem, z, d)
        assert mu > 0

        def f(m):
            return objective(problem, z - m * d)

        assert f(mu) <= min(f(0.9 * mu), f(1.1 * mu))
        assert step_along(problem, z, -d) == 0.0

    def test_null_image_gives_zero(self):
        problem = SparseRegressionProblem(np.array([[1.0, 1.0]]), [1.0])
        assert step_along(problem, [1.0, 0.0], [1.0, -1.0]) == 0.0


class TestKernelCapture:
    # A tall problem, whose products all read the whole of phi, and a wide
    # one, whose products all use gathered columns (3k <= n / 16).
    @pytest.mark.parametrize("s_dim, n, k", [(300, 12, 3), (30, 2000, 5)])
    @pytest.mark.parametrize("solver", [solve_aiht, solve_aiht_debias])
    def test_steps_match_public_definitions(self, s_dim, n, k, solver):
        problem = random_problem(np.random.default_rng(20), s_dim, n, y_scale=3.0)
        capture = []
        _, trace = solver(problem, SolverConfig(k=k, max_iters=100), capture=capture)
        assert len(trace) > 3
        for rec, c in zip(trace.records, capture):
            assert np.array_equal(c["grad"], gradient(problem, c["z"]))
            assert c["mu"] == pytest.approx(line_search_step(problem, c["grad_restricted"]),
                                            rel=1e-10)
            assert c["tau"] == pytest.approx(
                momentum_coefficient(problem, c["w_next"], c["w_prev"]), rel=1e-10)
            assert rec.f == pytest.approx(objective(problem, c["w_next"]), rel=1e-10)
            if solver is solve_aiht_debias:
                x_support = np.flatnonzero(c["x"])
                np.testing.assert_allclose(
                    c["debias_grad"], restrict(gradient(problem, c["x"]), x_support),
                    rtol=1e-10, atol=1e-10 * np.abs(c["grad"]).max())
                if c["mu_debias"] is not None:
                    assert c["mu_debias"] == pytest.approx(
                        line_search_step(problem, c["debias_grad"]), rel=1e-10)


class TestStallTermination:
    def test_two_consecutive_degenerate_steps_stop(self, monkeypatch):
        # White-box: an exact-gradient stub whose later values lie in
        # null(phi) makes ||phi g|S|| = 0 twice in a row without the iterates
        # settling.
        phi = np.array([[1.0, -1.0, 2.0]])
        problem = SparseRegressionProblem(phi, [0.324543013039607])
        seq = [np.array(v, dtype=float) for v in
               ([1, -3, 0], [2, 0, -1], [2, 1, 1], [9, 3, -3], [6, 0, -3], [-2, 2, 2])]
        calls = {"i": 0}

        def stub(_problem, _r):
            i = min(calls["i"], len(seq) - 1)
            calls["i"] += 1
            return seq[i]

        monkeypatch.setattr(solvers_module, "_gradient", stub)
        w, trace = solve_aiht(problem, SolverConfig(k=1, max_iters=8))
        assert trace.termination is Termination.STALLED
        assert np.all(w.w >= 0)


class TestNonFiniteStep:
    def test_infinite_projected_step_is_divergence(self, monkeypatch):
        # White-box: phi's first column is so small that the exact step along
        # the stub gradient is 2.5e155, and mu * g overflows to -inf, so the
        # projected step selects +inf. Carried on, the debias products would
        # meet inf - inf in a matmul and warn before f is checked.
        problem = SparseRegressionProblem(np.array([[1e-78, 1.0], [-1e-78, 1.0]]),
                                          [1.0, 1.0])

        monkeypatch.setattr(solvers_module, "_gradient",
                            lambda _problem, _r: np.array([-1e153, 0.0]))
        for solver in (solve_aiht, solve_aiht_debias):
            with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
                solver(problem, SolverConfig(k=1, max_iters=5))
            assert err.value.iteration == 0

    @pytest.mark.parametrize("solver", [
        solve_aiht, solve_aiht_debias,
        pytest.param(partial(solve_aiht_batched, batch_fraction=1.0, seed=0),
                     id="solve_aiht_batched")])
    def test_overflowing_objective_is_divergence(self, solver):
        # y is finite, but ||y - phi w||^2 overflows at the first iterate; the
        # kernel stops there instead of carrying an infinite objective on.
        problem = SparseRegressionProblem(np.eye(3), np.full(3, 1e160))
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
            solver(problem, SolverConfig(k=2))
        assert err.value.iteration == 0


def reference_accelerated_iht(problem, cfg, *, debias, batch_fraction=None, seed=None):
    """The accelerated-IHT loop written with the public helpers and a dense
    scan for every support: the kernel must match it bit for bit. A
    ``batch_fraction`` makes it the batched solver's loop, its masks drawn
    from ``seed``. It returns the first iterate of least f, and stops as
    ``cycled`` after ``CYCLE_PATIENCE`` exact-gradient iterations in a row
    that revisit a support without going below the least f before them."""
    batched = batch_fraction is not None
    rng = np.random.default_rng(seed)
    stochastic = batched and batch_fraction < 1.0
    n = problem.n
    w = np.zeros(n)
    z = np.zeros(n)
    records, capture = [], []
    termination = Termination.MAX_ITERS
    stall_run = cycle_run = 0
    for t in range(cfg.max_iters or (500 if batched else 300)):
        if batched:  # until a stochastic run switches to the exact gradient
            grad = stochastic_gradient(problem, z, batch_fraction, rng)
        else:
            grad = gradient(problem, z)
        z_support = np.flatnonzero(z)
        support = np.union1d(project_topk_excluding(grad, cfg.k, z_support), z_support)
        grad_restricted = restrict(grad, support)
        if stochastic:
            mu = step_along(problem, z, grad_restricted)
        else:
            mu = line_search_step(problem, grad_restricted)
        x = project_topk_nonneg(z - mu * grad, cfg.k).w
        x_projected = x
        cols = _Columns(problem.phi, np.union1d(np.flatnonzero(x), np.flatnonzero(w)))
        mu_debias = debias_grad = None
        if debias:
            debias_grad = np.zeros(n)
            debias_grad[cols.idx] = cols.gradient(problem.y - cols.image(x))
            debias_grad[x == 0.0] = 0.0
            if float(debias_grad @ debias_grad) > 0.0:
                mu_debias = _exact_step(debias_grad, cols.image(debias_grad))
                x = np.maximum(x - mu_debias * debias_grad, 0.0)
        w_next = x
        step = w_next - w
        r_next = problem.y - cols.image(w_next)
        tau = _line_minimizer(r_next, cols.image(step))
        z_next = w_next + tau * step
        f = float(r_next @ r_next)
        records.append(TraceRecord(t, f, mu, tau,
                                   tuple(int(i) for i in np.flatnonzero(w_next)), 0))
        capture.append({
            "z": z.copy(), "grad": grad.copy(), "support_expanded": support.copy(),
            "grad_restricted": grad_restricted.copy(), "mu": mu,
            "x": x_projected.copy(), "debias_grad": debias_grad, "mu_debias": mu_debias,
            "w_prev": w.copy(), "w_next": w_next.copy(), "tau": tau,
        })
        done = _converged(w_next, w, cfg.rel_tol)
        w, z = w_next, z_next
        if stochastic:
            if done or mu == 0.0:
                stochastic = False
                batched = False
            continue
        if done:
            termination = Termination.CONVERGED
            break
        if mu == 0.0:
            stall_run += 1
            if stall_run >= 2:
                termination = Termination.STALLED
                break
        else:
            stall_run = 0
        cycle_run = cycle_run + 1 if revisits(records, t) else 0
        if cycle_run >= solvers_module.CYCLE_PATIENCE:
            termination = Termination.CYCLED
            break
    best = min(range(len(records)), key=lambda i: records[i].f)
    return capture[best]["w_next"], records, termination, capture


class TestKernelMatchesReference:
    # A wide problem whose products all use gathered columns (3k <= n / 8),
    # a wide one whose line-search support crosses the 1/8 crossover while
    # supp(x) and supp(w) stay below it, a tall one whose products all read
    # the whole of phi, and a saturated one (3k > n) where supp(z) leaves
    # fewer than k candidates for the expansion. Its target is the coreset
    # one, phi @ 1, whose fit keeps every support full. The tied one has the
    # coreset target and a 4-row phi of entries -1, 0 and 1, so only a few
    # gradient magnitudes occur and they tie at the k-th place of the
    # expansion in most iterations.
    PROBLEMS = {"wide": (30, 2000, 5), "crossing": (40, 120, 8), "tall": (300, 12, 3),
                "saturated": (50, 10, 6), "tied": (4, 60, 4)}

    @pytest.mark.parametrize("shape", sorted(PROBLEMS))
    @pytest.mark.parametrize("variant", ["aiht", "aiht_debias", "batched_1", "batched_0.2"])
    def test_bit_identical(self, shape, variant):
        s_dim, n, k = self.PROBLEMS[shape]
        rng = np.random.default_rng(21)
        if shape == "saturated":
            problem = SparseRegressionProblem.from_columns(rng.standard_normal((s_dim, n)))
        elif shape == "tied":
            problem = SparseRegressionProblem.from_columns(
                rng.integers(-1, 2, size=(s_dim, n)).astype(np.float64))
        else:
            problem = random_problem(rng, s_dim, n, y_scale=3.0)
        cfg = SolverConfig(k=k, max_iters=120, rel_tol=1e-10)
        debias = variant == "aiht_debias"
        batch = {}
        if variant.startswith("batched"):
            batch = {"batch_fraction": 0.2 if variant == "batched_0.2" else 1.0, "seed": 4}
        solver = solve_aiht_debias if debias else solve_aiht_batched if batch else solve_aiht
        capture = []
        w, trace = solver(problem, cfg, capture=capture, **batch)
        ref_w, ref_records, ref_termination, ref_capture = reference_accelerated_iht(
            problem, cfg, debias=debias, **batch)

        assert len(trace) > 3
        assert trace.with_zeroed_time().records == ref_records
        assert trace.termination is ref_termination
        assert np.array_equal(w.w, ref_w)
        assert len(capture) == len(ref_capture)
        for got, ref in zip(capture, ref_capture):
            assert got.keys() == ref.keys()
            for key, value in got.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, ref[key]), key
                else:
                    assert value == ref[key], key
        sizes = [c["support_expanded"].size for c in capture]
        if shape == "crossing":
            assert min(sizes) <= n / 8 < max(sizes)
        elif shape == "wide":
            assert max(sizes) <= n / 8
        elif shape == "saturated":
            assert max(np.count_nonzero(c["z"]) for c in capture) > n - k
        elif shape == "tied":
            # More than k candidates reach the k-th largest magnitude, so
            # the selection drops the highest-index ties.
            def tied_at_kth(c):
                magnitude = np.abs(c["grad"])
                magnitude[c["z"] != 0.0] = -1.0
                return np.count_nonzero(magnitude >= np.sort(magnitude)[-k]) > k
            assert any(tied_at_kth(c) for c in capture)

    @pytest.mark.parametrize("solver", [
        solve_aiht, solve_aiht_debias,
        pytest.param(partial(solve_aiht_batched, batch_fraction=0.5, seed=0),
                     id="solve_aiht_batched")])
    def test_one_weight_vector_per_solve(self, solver, monkeypatch):
        made = []
        post_init = problem_module.WeightVector.__post_init__

        def counting(self):
            made.append(1)
            post_init(self)

        monkeypatch.setattr(problem_module.WeightVector, "__post_init__", counting)
        problem = random_problem(np.random.default_rng(22), 30, 400, y_scale=3.0)
        cfg = SolverConfig(k=5, max_iters=30)
        _, trace = solver(problem, cfg)
        assert len(trace) > 3
        assert len(made) == 1

    @pytest.mark.parametrize("solver", [
        solve_aiht, solve_aiht_debias,
        pytest.param(partial(solve_aiht_batched, batch_fraction=0.5, seed=0),
                     id="solve_aiht_batched")])
    def test_no_union1d_per_solve(self, solver, monkeypatch):
        calls = []
        union1d = np.union1d

        def counting(*args, **kwargs):
            calls.append(1)
            return union1d(*args, **kwargs)

        monkeypatch.setattr(np, "union1d", counting)
        problem = random_problem(np.random.default_rng(22), 30, 400, y_scale=3.0)
        cfg = SolverConfig(k=5, max_iters=30)
        _, trace = solver(problem, cfg)
        assert len(trace) > 3
        assert not calls


@st.composite
def expansion_cases(draw):
    """A gradient over a few repeated magnitudes (ties at the k-th place)
    mixed with arbitrary finite floats, k up to n, and a supp(z) that may
    leave fewer than k candidates."""
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]) | st.floats(
        -1e6, 1e6, allow_nan=False, allow_subnormal=False)
    grad = np.array(draw(st.lists(values, min_size=1, max_size=30)))
    n = grad.shape[0]
    k = draw(st.integers(1, n))
    z_support = np.array(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))),
                         dtype=np.int64)
    return grad, k, z_support


class TestExpandedSupport:
    @settings(max_examples=300, deadline=None)
    @given(expansion_cases())
    @example((np.array([1.0, -1.0, 1.0, 1.0]), 2, np.array([0], dtype=np.int64)))
    @example((np.array([3.0, 1.0, 2.0]), 2, np.array([0, 2], dtype=np.int64)))
    @example((np.array([3.0, 1.0]), 1, np.array([0, 1], dtype=np.int64)))
    def test_equals_union_of_public_selection(self, case):
        grad, k, z_support = case
        got = _expanded_support(grad, k, z_support)
        assert got.dtype == np.int64
        assert np.array_equal(
            got, np.union1d(project_topk_excluding(grad, k, z_support), z_support))


class TestTraceSerialization:
    def test_json_field_names(self):
        problem, _ = small_recovery_instance()
        _, trace = solve_aiht(problem, SolverConfig(k=2, max_iters=5))
        payload = json.loads(json.dumps(trace.to_dict()))
        assert payload["termination"] in ("converged", "max_iters", "stalled", "cycled")
        assert payload["fields"] == ["iter", "f", "mu", "tau", "support", "ns"]
        assert len(payload["records"]) == len(trace)
        assert all(len(row) == len(payload["fields"]) for row in payload["records"])

    def test_records_decode_to_the_trace(self):
        # k = 4 here: the support changes at iteration 1, stays the same for
        # five iterations, then changes again.
        problem, _ = small_recovery_instance()
        _, trace = solve_aiht(problem, SolverConfig(k=4, max_iters=10))
        payload = json.loads(json.dumps(trace.to_dict()))
        rows = payload["records"]
        assert rows[0][4] is not None
        carried = [row[4] is None for row in rows]
        assert carried[:8] == [False, False, True, True, True, True, True, False]
        decoded, support = [], None
        for row in rows:
            values = dict(zip(payload["fields"], row))
            if values["support"] is None:
                values["support"] = support
            support = values["support"]
            decoded.append(TraceRecord(**dict(values, support=tuple(support))))
        assert decoded == trace.records

    def test_dict_is_the_parsed_json(self):
        problem, _ = small_recovery_instance()
        _, trace = solve_aiht(problem, SolverConfig(k=2, max_iters=5))
        assert len(trace) > 1
        assert trace.to_dict() == json.loads(json.dumps(trace.to_dict()))

    def test_csv_column_order(self):
        problem, _ = small_recovery_instance()
        _, trace = solve_aiht(problem, SolverConfig(k=2, max_iters=5))
        payload = trace.to_dict()
        assert payload["fields"] == ["iter", "f", "mu", "tau", "support", "ns"]
        assert len(payload["records"]) == len(trace)

    def test_trace_invariants(self):
        problem, _ = small_recovery_instance()
        cfg = SolverConfig(k=2, max_iters=40)
        _, trace = solve_aiht(problem, cfg)
        assert len(trace) <= 40
        fs = trace.objectives()
        assert np.all(np.isfinite(fs)) and np.all(fs >= 0)
