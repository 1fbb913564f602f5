import dataclasses
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscnav import (INFIDELITY_THRESHOLD, DescentConfig, EmptyProtocol,
                    NavigationConfig, NonFiniteEntry, NotASolution, Protocol,
                    RestartBudgetExhausted, SecondaryCost, TraceConfig, collapse,
                    descend, gradient, hessian, infidelity, navigate, null_projector,
                    refine, scan_levelset, solve, trace_levelset)
from oscnav import navigator, propagator
from oscnav import protocol as proto
from oscnav.navigator import trajectory_to_csv
from oracles import optimal_hessian

TASK = (1.0, 0.25, 1.8)
# the benchmark's pools of M = 3 and M = 48 solutions of TASK
POOL = pathlib.Path(__file__).parents[1] / "perfbench" / "pool"
POOL_M3 = sorted((POOL / "m3").glob("*.json"))


@pytest.fixture(scope="module")
def m3_solution():
    return solve(DescentConfig(seed=1), 3, TASK)


@pytest.fixture(scope="module")
def m8_solution():
    return solve(DescentConfig(seed=5), 8, TASK)


def _trajectory_csv_oracle(traj):
    """``trajectory_to_csv`` as written before it rendered the pulses as the
    Python floats a Protocol holds: every pulse through ``float``."""
    m_final = traj.records[-1].protocol.m
    lines = ["iter,I,cost,pgrad_norm," + ",".join(f"omega_{i+1}" for i in range(m_final))]
    for rec in traj.records:
        omegas = rec.protocol.omegas
        cells = list(map(repr, map(float, omegas)))
        if len(omegas) != m_final:
            k = m_final // len(omegas)
            cells = [c for c in cells for _ in range(k)]
        scalars = (rec.infidelity, rec.cost, rec.pgrad_norm)
        lines.append(",".join([str(rec.iteration), *(repr(float(x)) for x in scalars), *cells]))
    return "\n".join(lines) + "\n"


def _first_restart(seed, m):
    """(protocol, report) of restart 0 of ``solve(DescentConfig(seed=seed),
    m, TASK)``, rebuilt bit for bit: the descent from its uniform start."""
    p, report, _ = descend(_start(np.random.default_rng(seed).uniform(0.1, 2.0, m)),
                           DescentConfig())
    return p, report


class TestDescend:
    def test_starts_at_solution_returns_immediately(self, m3_solution):
        p, report, traj = descend(m3_solution.protocol, DescentConfig())
        assert report.classification == "solution"
        assert len(traj.records) == 1

    def test_no_pulses_is_an_empty_protocol(self):
        with pytest.raises(EmptyProtocol):
            descend(Protocol(1.0, 0.25, 0.6, ()), DescentConfig())

    def test_m1_lands_on_trap(self):
        # the 1-D scan over omega_1 in [0, 3] bottoms out at I ~ 0.145,
        # so every descent of the expansion task must end above threshold
        cfg = DescentConfig(seed=0, box=(0.0, 3.0))
        for seed in range(4):
            p0 = Protocol(1.0, 0.25, 1.8,
                          tuple(np.random.default_rng(seed).uniform(0, 3, 1)))
            _, report, _ = descend(p0, cfg)
            assert report.classification == "trap"
            assert report.infidelity >= 0.14

    def test_trapped_restart_ends_in_few_steps(self, monkeypatch):
        # the first restart of seed 253 at M = 3 lands on the trap at
        # I = 1.07e-2; a damping rule that cycles between rejected and
        # accepted trials there took 44 iterates and 103 forward passes,
        # and without the trap test on accepted steps it takes 19 and 25
        passes = []
        real = navigator.forward

        def counting(*args):
            passes.append(1)
            return real(*args)

        monkeypatch.setattr(navigator, "forward", counting)
        cfg = DescentConfig(seed=253)
        p0 = _start(np.random.default_rng(cfg.seed).uniform(*cfg.box, 3))
        _, report, traj = descend(p0, cfg)
        assert report.classification == "trap"
        assert len(traj.records) <= 11 and len(passes) <= 17

    def test_monotone_infidelity(self, m8_solution):
        vals = [r.infidelity for r in m8_solution.trajectory.records]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_no_gradient_is_evaluated_twice(self, monkeypatch):
        seen = []
        real = navigator.gradient

        def counting(p, *rest):
            seen.append(p.omegas)
            return real(p, *rest)

        monkeypatch.setattr(navigator, "gradient", counting)
        for seed in range(3):
            p0 = _start(np.random.default_rng(seed).uniform(0.1, 2.0, 4))
            seen.clear()
            _, _, traj = descend(p0, DescentConfig())
            assert len(seen) == len(set(seen)) == len(traj.records)

    def test_trajectory_csv_format(self, m8_solution):
        text = trajectory_to_csv(m8_solution.trajectory)
        lines = text.strip().split("\n")
        assert lines[0] == ("iter,I,cost,pgrad_norm,"
                            + ",".join(f"omega_{i}" for i in range(1, 9)))
        assert len(lines) == len(m8_solution.trajectory.records) + 1
        assert text == _trajectory_csv_oracle(m8_solution.trajectory)


class TestSolve:
    def test_finds_m3_solution(self, m3_solution):
        assert m3_solution.report.infidelity < 1e-5
        assert m3_solution.report.classification == "solution"

    def test_m2_direct_solution_with_wide_box(self):
        # M = M_min: solutions are isolated points at large amplitudes
        res = solve(DescentConfig(seed=3, box=(0.1, 8.0), max_restarts=64), 2, TASK)
        assert res.report.infidelity < 1e-5
        spec = np.linalg.eigvalsh(hessian(res.protocol).hess_infidelity)[::-1]
        assert spec[1] > 1e-8 * spec[0]

    def test_deterministic_replay(self):
        a = solve(DescentConfig(seed=11), 3, TASK)
        b = solve(DescentConfig(seed=11), 3, TASK)
        assert a.protocol == b.protocol  # bit-for-bit
        assert a.restarts == b.restarts

    @pytest.mark.parametrize("kwargs", [
        dict(box=(2.0, 0.1)), dict(max_iterations=-1), dict(max_restarts=-1),
    ])
    def test_out_of_range_settings_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DescentConfig(**kwargs)

    def test_restart_budget(self):
        with pytest.raises(RestartBudgetExhausted):
            solve(DescentConfig(seed=0, max_restarts=2), 1, TASK)

    def test_no_pulses_is_an_empty_protocol(self):
        with pytest.raises(EmptyProtocol):
            solve(DescentConfig(), 0, TASK)

    @pytest.mark.parametrize("m, seed", [(12, 2), (13, 3)], ids=["M12-seed2", "M13-seed3"])
    def test_critical_point_under_the_threshold_off_the_level_set_is_a_trap(self, m, seed):
        # restart 0 stops critical at I = 9.3e-6 or 3.05e-7, under the
        # threshold, with a Gauss-Newton step far above _TRAP_STEP: a trap,
        # so the solve restarts, and its result projects onto beta = 0
        p, report = _first_restart(seed, m)
        assert report.infidelity < INFIDELITY_THRESHOLD
        assert report.classification == "trap"
        res = solve(DescentConfig(seed=seed), m, TASK)
        assert res.restarts >= 1 and res.report.classification == "solution"
        status = navigator._project(res.protocol, navigator._NAV_TARGET,
                                    navigator._CORRECTOR_BUDGET)[3]
        assert status in navigator._ON_LEVEL_SET

    def test_budget_stop_under_the_threshold_is_no_solution(self):
        # restart 0 of seed 4 at M = 3 runs out of iterations at I = 4.86e-6,
        # under the threshold but at no critical point: ``non-critical``, so
        # a solve with one restart finds nothing
        p0 = _start(np.random.default_rng(4).uniform(0.1, 2.0, 3))
        _, report, traj = descend(p0, DescentConfig(max_iterations=3))
        assert traj.status == "budget_exhausted"
        assert report.infidelity < INFIDELITY_THRESHOLD
        assert report.classification == "non-critical"
        with pytest.raises(RestartBudgetExhausted):
            solve(DescentConfig(seed=4, max_iterations=3, max_restarts=1), 3, TASK)

    @pytest.mark.parametrize("m", [3, 12, 13, 24])
    def test_every_solution_passes_the_step_test(self, m):
        # seeds 0-19: a genuine solution's Gauss-Newton step |J^+ r| is at
        # most 3.2e-10 max(1, max|w|), a sub-threshold trap's 2.8e2 or more
        for seed in range(20):
            p = solve(DescentConfig(seed=seed), m, TASK).protocol
            bundle = gradient(p)
            jac = np.array([bundle.grad_beta.real, bundle.grad_beta.imag])
            step = np.linalg.lstsq(jac, [bundle.beta.real, bundle.beta.imag], rcond=None)[0]
            scale = max(1.0, np.max(np.abs(p.omegas)))
            assert np.linalg.norm(step) <= navigator._TRAP_STEP * scale


class TestNullProjector:
    def test_zero_gradient_gives_identity(self):
        assert np.array_equal(null_projector(np.zeros(5, complex)), np.eye(5))

    def test_projector_identities(self, m8_solution):
        gb = gradient(m8_solution.protocol).grad_beta
        p = null_projector(gb)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.T)) < 1e-14
        assert np.max(np.abs(p @ np.real(gb))) < 1e-10
        assert np.max(np.abs(p @ np.imag(gb))) < 1e-10

    def test_generic_rank_m_minus_2(self, m8_solution):
        gb = gradient(m8_solution.protocol).grad_beta
        assert np.trace(null_projector(gb)) == pytest.approx(6.0, abs=1e-10)

    def test_real_gradient_rank_m_minus_1(self):
        gb = np.array([1.0, 2.0, -0.5], dtype=complex)
        assert np.trace(null_projector(gb)) == pytest.approx(2.0, abs=1e-12)

    def test_collinear_parts_rank_m_minus_1(self):
        v = np.array([1.0, -2.0, 0.3])
        gb = v + 2.0j * v
        assert np.trace(null_projector(gb)) == pytest.approx(2.0, abs=1e-12)


class TestNavigate:
    def test_requires_solution(self):
        bad = Protocol(1.0, 0.25, 0.6, (1.0, 1.0, 1.0))
        with pytest.raises(NotASolution):
            navigate(bad, SecondaryCost("smoothness"), NavigationConfig())

    def test_smoothness_descent_contract(self, m8_solution):
        traj = navigate(m8_solution.protocol, SecondaryCost("smoothness"),
                        NavigationConfig())
        costs = [r.cost for r in traj.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert all(r.infidelity < 1e-5 for r in traj.records)
        assert costs[-1] < costs[0]
        assert traj.status == "completed"

    def test_rejected_trials_shrink_the_radius_and_keep_the_contract(self, monkeypatch):
        # from this M = 48 solution two trials are rejected: each shrinks
        # the radius to a quarter of its tangent step, and the step is
        # tried again
        start = solve(DescentConfig(seed=0, box=(0.1, 5.0)), 48, TASK).protocol
        projections = []
        real = navigator._project

        def counting(*args, **kwargs):
            projections.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(navigator, "_project", counting)
        traj = navigate(start, SecondaryCost("smoothness"), NavigationConfig())
        accepted = len(traj.records) - 1
        assert len(projections) > accepted
        costs = [r.cost for r in traj.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert all(r.infidelity < 1e-5 for r in traj.records)

    def test_accepted_trial_with_a_low_gain_ratio_shrinks_the_radius(self, monkeypatch):
        # from this M = 5 solution the third step's one trial is accepted
        # with an actual-to-predicted ratio of about 0.17: the next radius
        # is a quarter of its tangent step, which lies on the boundary
        start = solve(DescentConfig(seed=28), 5, TASK).protocol
        steps = []
        real_step, real_project = navigator._navigation_step, navigator._project
        real_tr = navigator._trust_region_step

        def recording_step(*args):
            # radius, tangent basis Z, trials, last trust-region u, next radius
            steps.append([args[-1], args[5], 0, None, None])
            result = real_step(*args)
            steps[-1][4] = None if result is None else result[1]
            return result

        def recording_tr(*args):
            steps[-1][3] = real_tr(*args)
            return steps[-1][3]

        def counting_project(*args, **kwargs):
            if steps:  # the start check projects before the first step
                steps[-1][2] += 1
            return real_project(*args, **kwargs)

        monkeypatch.setattr(navigator, "_navigation_step", recording_step)
        monkeypatch.setattr(navigator, "_trust_region_step", recording_tr)
        monkeypatch.setattr(navigator, "_project", counting_project)
        traj = navigate(start, SecondaryCost("compression", 1), NavigationConfig())
        assert traj.status == "completed"
        # one accepted trial keeps or doubles the radius unless its ratio is
        # below 0.25; then the next radius is a quarter of its tangent step
        # |Z u|, which on the boundary is 0.9 to 1 times the radius, up to
        # the rounding of |Z u|
        shrunk = [(before, float(np.linalg.norm(z @ u)), after)
                  for before, z, trials, u, after in steps
                  if trials == 1 and after is not None and after < before]
        assert shrunk
        eps = navigator._EPS
        for before, length, after in shrunk:
            assert after == 0.25 * length
            assert 0.9 * before <= length <= (1.0 + 4.0 * eps) * before
        costs = [r.cost for r in traj.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_definite_models_with_interior_newton_steps_skip_eigh(self, monkeypatch):
        # every subproblem of this M = 3 compression is positive definite
        # with its Newton step inside the radius
        start = proto.load(POOL / "m3" / "seed100.json")
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        traj = navigate(start, SecondaryCost("compression", 1),
                        NavigationConfig(max_iterations=20))
        assert traj.status == "completed" and len(traj.records) > 2
        assert calls == []

    def test_at_most_one_eigh_per_step(self, monkeypatch):
        # this M = 48 compression has indefinite models, Newton steps
        # outside the radius, steps whose second trial reuses the first
        # trial's eigendecomposition, and interior Newton steps
        start = proto.load(POOL / "m48" / "seed0.json")
        steps = []
        real_step, real_eigh = navigator._navigation_step, np.linalg.eigh
        real_region = navigator._trust_region_step

        def counting_step(*args):
            steps.append({"eigh": 0, "shifted": 0})
            return real_step(*args)

        def counting_eigh(a):
            steps[-1]["eigh"] += 1
            return real_eigh(a)

        def counting_region(*args):
            steps[-1]["shifted"] += 1
            return real_region(*args)

        monkeypatch.setattr(navigator, "_navigation_step", counting_step)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(navigator, "_trust_region_step", counting_region)
        traj = navigate(start, SecondaryCost("compression", 2),
                        NavigationConfig(max_iterations=80))
        assert traj.status == "completed"
        assert all(s["eigh"] == min(s["shifted"], 1) for s in steps)
        assert any(s["shifted"] > 1 for s in steps)
        assert any(s["eigh"] == 0 for s in steps)

    def test_at_most_one_newton_solve_per_step(self, monkeypatch):
        # this M = 48 smoothing has a definite step whose Newton step lies
        # inside the first trial's radius and whose first trial is
        # rejected: the second trial reuses that step's one solve
        start = proto.load(POOL / "m48" / "seed0.json")
        steps = []
        real_step, real_solve = navigator._navigation_step, np.linalg.solve
        real_project = navigator._project

        def counting_step(*args):
            steps.append({"solve": 0, "trials": 0})
            return real_step(*args)

        def counting_solve(*args):
            steps[-1]["solve"] += 1
            return real_solve(*args)

        def counting_project(*args, **kwargs):
            if steps:  # the admission check projects before the first step
                steps[-1]["trials"] += 1
            return real_project(*args, **kwargs)

        monkeypatch.setattr(navigator, "_navigation_step", counting_step)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(navigator, "_project", counting_project)
        traj = navigate(start, SecondaryCost("smoothness"), NavigationConfig())
        assert traj.status == "completed"
        assert all(s["solve"] <= 1 for s in steps)
        assert any(s["solve"] == 1 and s["trials"] > 1 for s in steps)

    @pytest.mark.parametrize("path", ["m3/seed100.json", "m48/seed2.json"],
                             ids=["m3", "m48"])
    def test_newton_steps_match_the_eigendecomposition_path(self, monkeypatch, path):
        # a Cholesky test that always fails sends every trial through the
        # eigendecomposition: the smoothing ends the same way
        start = proto.load(POOL / path)
        cost, cfg = SecondaryCost("smoothness"), NavigationConfig()
        fast = navigate(start, cost, cfg)
        calls = []
        real = np.linalg.eigh

        def failing(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        slow = navigate(start, cost, cfg)
        assert slow.status == fast.status == "completed"
        assert len(calls) >= len(slow.records) - 1
        assert fast.records[-1].cost == pytest.approx(slow.records[-1].cost, rel=1e-12, abs=0)

    def test_doubling_keeps_navigating(self, m8_solution):
        traj = navigate(m8_solution.protocol, SecondaryCost("smoothness"),
                        NavigationConfig(doubling_schedule=(2,)))
        assert traj.final_protocol.m == 16
        assert all(r.infidelity < 1e-5 for r in traj.records)

    def test_doubled_trajectory_csv_rows_are_the_refined_records(self, m8_solution):
        traj = navigate(m8_solution.protocol, SecondaryCost("smoothness"),
                        NavigationConfig(doubling_schedule=(2, 3)))
        assert {r.protocol.m for r in traj.records} == {8, 16, 48}
        text = trajectory_to_csv(traj)
        assert text == _trajectory_csv_oracle(traj)
        rows = text.splitlines()[1:]
        assert len(rows) == len(traj.records)
        for row, rec in zip(rows, traj.records):
            cells = row.split(",")
            assert int(cells[0]) == rec.iteration
            assert [float(c) for c in cells[1:4]] == [rec.infidelity, rec.cost,
                                                      rec.pgrad_norm]
            refined = refine(rec.protocol, 48 // rec.protocol.m)
            assert tuple(float(c) for c in cells[4:]) == refined.omegas

    def test_determinism(self, m8_solution):
        cfg = NavigationConfig(max_iterations=200)
        a = navigate(m8_solution.protocol, SecondaryCost("smoothness"), cfg)
        b = navigate(m8_solution.protocol, SecondaryCost("smoothness"), cfg)
        assert len(a.records) == len(b.records)
        assert a.final_protocol == b.final_protocol

    def test_smoothness_cost_holds_across_a_doubling(self):
        # a stall tolerance of 1e9 doubles at once: C1 of the refined
        # protocol must not exceed the record before it
        start = solve(DescentConfig(seed=1, box=(0.1, 5.0)), 16, TASK).protocol
        cfg = NavigationConfig(doubling_schedule=(2,), doubling_stall_tolerance=1e9,
                               max_iterations=2)
        traj = navigate(start, SecondaryCost("smoothness"), cfg)
        assert [r.protocol.m for r in traj.records[:2]] == [16, 32]
        costs = [r.cost for r in traj.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("cost", [SecondaryCost("smoothness"),
                                      SecondaryCost("compression", 2)])
    def test_completed_run_ends_stationary_on_the_level_set(self, m8_solution, cost):
        cfg = NavigationConfig()
        traj = navigate(m8_solution.protocol, cost, cfg)
        assert traj.status == "completed"
        assert traj.records[-1].infidelity <= 1e-12
        assert traj.records[-1].pgrad_norm < navigator._STALL_TOLERANCE

    @pytest.mark.parametrize("cost", [SecondaryCost("smoothness"),
                                      SecondaryCost("compression", 1)],
                             ids=["smoothness", "compression"])
    @pytest.mark.parametrize("m, seed, low", [(12, 2, 1e-6), (13, 3, 1e-7)],
                             ids=["M12-seed2", "M13-seed3"])
    def test_input_the_corrector_cannot_hold_is_refused(self, m, seed, low, cost,
                                                        monkeypatch):
        # the first restarts of the seed-2 solve at M = 12 and the seed-3
        # solve at M = 13 stop at a critical point of I = 9.3e-6 and 3.05e-7,
        # under the threshold but off beta = 0: admission's one projection
        # stalls there, and the input is refused before any step
        start = _first_restart(seed, m)[0]
        assert low < infidelity(start) < INFIDELITY_THRESHOLD
        projections, steps = [], []
        real_project, real_step = navigator._project, navigator._navigation_step

        def counting_project(*args, **kwargs):
            projections.append(args[0])
            return real_project(*args, **kwargs)

        def counting_step(*args):
            steps.append(args[0])
            return real_step(*args)

        monkeypatch.setattr(navigator, "_project", counting_project)
        monkeypatch.setattr(navigator, "_navigation_step", counting_step)
        with pytest.raises(NotASolution, match="stalled"):
            navigate(start, cost, NavigationConfig())
        assert projections == [start] and not steps

    @staticmethod
    def _reject_every_trial(start, monkeypatch, reject):
        """Navigate ``start`` with every trial's projection result passed
        through ``reject``; (trajectory, the one step, the trust-region radii)."""
        steps, radii = [], []
        real_step, real_project = navigator._navigation_step, navigator._project
        real_region = navigator._trust_region_step

        def recording_step(*args):
            w = np.asarray(args[0].omegas)
            steps.append({"radius": args[-1], "trials": 0,
                          "floor": navigator._EPS * max(1.0, float(np.abs(w).max()))})
            return real_step(*args)

        def rejecting_project(*args, **kwargs):
            result = real_project(*args, **kwargs)
            if not steps:  # the admission check
                return result
            steps[-1]["trials"] += 1
            return reject(*result)

        def recording_region(*args):
            radii.append(args[-1])
            return real_region(*args)

        monkeypatch.setattr(navigator, "_navigation_step", recording_step)
        monkeypatch.setattr(navigator, "_project", rejecting_project)
        monkeypatch.setattr(navigator, "_trust_region_step", recording_region)
        traj = navigate(start, SecondaryCost("smoothness"), NavigationConfig())
        [step] = steps
        return traj, step, radii

    def test_rejected_trials_stop_at_the_resolution_of_w(self, m8_solution, monkeypatch):
        # every trial's projection is reported at the threshold, so every
        # trial is rejected and quarters the radius: the step stalls once
        # the radius is at eps max(1, max|w|), and no trial runs below it
        traj, step, radii = self._reject_every_trial(
            m8_solution.protocol, monkeypatch,
            lambda q, ival, bundle, status: (q, INFIDELITY_THRESHOLD, bundle, status))
        assert traj.status == "completed" and len(traj.records) == 1
        assert step["trials"] <= math.ceil(math.log(step["radius"] / step["floor"], 4)) + 1
        assert radii and all(r > step["floor"] for r in radii)

    def test_trials_projected_off_the_level_set_are_rejected(self, m8_solution,
                                                             monkeypatch):
        # every trial's projection is reported stalled, off beta = 0: each
        # trial is an ordinary rejection, so the step stalls at the
        # resolution of w and the run completes at its held input
        traj, step, radii = self._reject_every_trial(
            m8_solution.protocol, monkeypatch,
            lambda q, ival, bundle, status: (q, ival, bundle, "stalled"))
        assert traj.status == "completed" and len(traj.records) == 1
        assert traj.final_protocol == m8_solution.protocol
        assert step["trials"] <= math.ceil(math.log(step["radius"] / step["floor"], 4)) + 1
        assert radii and all(r > step["floor"] for r in radii)

    def test_two_pulse_level_set_has_no_tangent_step(self, monkeypatch):
        # at M = 2 the level set is a point: with a stall tolerance of 0 the
        # step is still tried, in a tangent space of dimension 0, and stalls
        start = solve(DescentConfig(seed=2, box=(-10.0, 40.0)), 2, TASK).protocol
        monkeypatch.setattr(navigator, "_STALL_TOLERANCE", 0.0)
        traj = navigate(start, SecondaryCost("smoothness"), NavigationConfig())
        assert traj.status == "completed" and len(traj.records) == 1

    def test_projection_tells_the_rounding_floor_from_a_trap(self, m8_solution):
        # a correction onto a target below the rounding floor of I never
        # reaches it: the deep solution stops at that floor, the first
        # restart of the seed-2 M = 12 solve at its trap
        w, ival, _, status = navigator._project(m8_solution.protocol, 1e-300, 500)
        assert status == "floor" and ival < 1e-28
        trap = _first_restart(2, 12)[0]
        w, ival, _, status = navigator._project(trap, 1e-300, 500)
        assert status == "stalled" and ival > 1e-6

    def test_step_inside_the_gap_to_the_level_set_stalls(self):
        # a step that predicts no more decrease than the first-order gap
        # |nu^T r| in C between the point and the level set under it
        # stalls: without that bound this compression creeps on to its cap
        start = proto.load(POOL / "m3" / "seed103.json")
        traj = navigate(start, SecondaryCost("compression", 1),
                        NavigationConfig(max_iterations=20))
        assert traj.status == "completed" and len(traj.records) <= 5

    def test_target_below_the_rounding_floor_still_completes(self, monkeypatch):
        # seed 4, M = 6, C2 with 1 chunk stalls on the predicted decrease
        # while its pg is above the stall tolerance: the stall check then
        # projects a point at the rounding floor, above a 1e-40 target
        start = solve(DescentConfig(seed=4), 6, TASK).protocol
        monkeypatch.setattr(navigator, "_NAV_TARGET", 1e-40)
        traj = navigate(start, SecondaryCost("compression", 1), NavigationConfig())
        assert traj.status == "completed"
        assert traj.records[-1].infidelity > navigator._NAV_TARGET
        assert all(r.infidelity < 1e-28 for r in traj.records[1:])

    @pytest.mark.parametrize("kwargs", [
        dict(doubling_schedule=(0,)), dict(doubling_schedule=(2, -1)),
        dict(doubling_schedule=(2.0,)),
        dict(max_iterations=-1),
        dict(doubling_stall_tolerance=-1e-9), dict(doubling_stall_tolerance=math.nan),
        dict(doubling_schedule=(True,)), dict(doubling_schedule=(2, True)),
    ])
    def test_out_of_range_settings_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NavigationConfig(**kwargs)

    def test_quartic_infidelity_rise_of_projected_step(self, m8_solution, monkeypatch):
        # a tangent step of size eps lifts I by O(eps^4) from a deep solution
        monkeypatch.setattr(navigator, "_GRAD_TOLERANCE", 1e-12)
        p, report, _ = descend(m8_solution.protocol, DescentConfig())
        assert report.infidelity < 1e-22
        gb = gradient(p).grad_beta
        proj = null_projector(gb)
        direction = proj @ SecondaryCost("smoothness").grad(p.omegas)
        direction /= np.linalg.norm(direction)
        base = np.asarray(p.omegas)
        eps = np.array([1e-2, 1e-3, 1e-4])
        vals = np.array([infidelity(p.with_omegas(base + e * direction)) for e in eps])
        slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)


class TestProjectionEvaluations:
    """One forward pass per evaluated point: M kernel calls each."""

    @staticmethod
    def _count(monkeypatch):
        kernel, trials = [], []
        real_entries, real_with = propagator._step_entries, Protocol.with_omegas

        def counting_entries(*args):
            kernel.append(args[0])
            return real_entries(*args)

        def counting_with(self, omegas):
            trials.append(1)  # _project builds one Protocol per trial
            return real_with(self, omegas)

        monkeypatch.setattr(propagator, "_step_entries", counting_entries)
        monkeypatch.setattr(Protocol, "with_omegas", counting_with)
        return kernel, trials

    def test_descent(self, monkeypatch):
        p0 = _start(np.random.default_rng(2).uniform(0.1, 2.0, 8))
        kernel, trials = self._count(monkeypatch)
        iterates = []
        navigator._project(p0, 0.0, 20000, lambda *args: iterates.append(args[1].omegas))
        rejected = len(trials) - (len(iterates) - 1)
        assert rejected > 0 and len(set(iterates)) == len(iterates)
        assert len(kernel) == 8 * (1 + len(trials))

    def test_tracer_predictor_point(self, m3_solution, monkeypatch):
        p = m3_solution.protocol
        tangent = navigator._null_direction(gradient(p).grad_beta)
        pred = p.with_omegas(np.asarray(p.omegas) + 0.05 * np.asarray(tangent))
        kernel, trials = self._count(monkeypatch)
        iterates = []
        _, ival, _, status = navigator._project(
            pred, 1e-12, 300, on_step=lambda *args: iterates.append(1))
        assert status == "target" and ival < 1e-12
        assert iterates and trials
        assert len(kernel) == 3 * (1 + len(trials))

    def test_returned_bundle_is_the_gradient_of_the_last_iterate(self, m3_solution):
        p = m3_solution.protocol
        tangent = navigator._null_direction(gradient(p).grad_beta)
        pred = p.with_omegas(np.asarray(p.omegas) + 0.05 * np.asarray(tangent))
        descent = _start(np.random.default_rng(2).uniform(0.1, 2.0, 8))
        # a descent returns its last iterate; a projection that reaches its
        # target returns a point whose gradient it never evaluated
        for start, target, want_status in ((descent, 0.0, "critical"),
                                           (pred, 1e-12, "target")):
            seen = []
            _, _, bundle, status = navigator._project(
                start, target, 300, lambda it, q, *_: seen.append(q))
            assert status == want_status and seen
            want = gradient(seen[-1])
            assert bundle.beta == want.beta
            assert np.array_equal(bundle.grad_beta, want.grad_beta)
            assert np.array_equal(bundle.grad_infidelity, want.grad_infidelity)

    def test_no_bundle_when_the_start_is_below_the_target(self, m3_solution):
        seen = []
        _, _, bundle, status = navigator._project(
            m3_solution.protocol, 1.0, 300, on_step=lambda *args: seen.append(args))
        assert status == "target" and bundle is None and not seen


class TestEntryEvaluations:
    """The input's one order-1 forward pass gives the I that admits it and
    starts its projection; navigation's first iterate takes an order-2
    forward pass of its own, and a rejected input gets no backward pass."""

    @staticmethod
    def _count_backward(monkeypatch):
        calls = []
        real_backward, real_gradient = navigator._backward, navigator.gradient

        def counting_backward(*args, **kwargs):
            calls.append(1)
            return real_backward(*args, **kwargs)

        def counting_gradient(*args):
            calls.append(1)
            return real_gradient(*args)

        monkeypatch.setattr(navigator, "_backward", counting_backward)
        monkeypatch.setattr(navigator, "gradient", counting_gradient)
        return calls

    def test_navigation(self, m8_solution, monkeypatch):
        p = m8_solution.protocol
        kernel, _ = TestProjectionEvaluations._count(monkeypatch)
        traj = navigate(p, SecondaryCost("smoothness"), NavigationConfig(max_iterations=0))
        assert len(traj.records) == 1 and traj.records[0].infidelity < 1e-5
        # admission keeps this input: its order-1 pass, then the record's order-2 one
        assert traj.records[0].protocol is p
        assert len(kernel) == 2 * p.m

    def test_navigation_from_a_projected_input(self, monkeypatch):
        # pool m3/seed100 (I = 2.3e-19) is above the navigation target: the
        # first record is its admission projection, which costs one order-2
        # forward pass of its own on top of the input's and the trials'
        start = proto.load(POOL_M3[0])
        held = []
        real_project = navigator._project

        def recording(*args, **kwargs):
            result = real_project(*args, **kwargs)
            held.append(result[0])
            return result

        monkeypatch.setattr(navigator, "_project", recording)
        kernel, trials = TestProjectionEvaluations._count(monkeypatch)
        traj = navigate(start, SecondaryCost("smoothness"), NavigationConfig(max_iterations=0))
        [rec] = traj.records
        assert held[0] is not start and rec.protocol is held[0]
        assert rec.infidelity < navigator._NAV_TARGET
        assert len(kernel) == 3 * (2 + len(trials))

    def test_tracing(self, m3_solution, monkeypatch):
        kernel, trials = TestProjectionEvaluations._count(monkeypatch)
        curve = trace_levelset(m3_solution.protocol, TraceConfig(max_steps=0))
        assert len(curve.vertices) == 1
        assert len(kernel) == 3 * (1 + len(trials))

    def test_closed_trace_propagates_no_point_twice(self, m3_solution, monkeypatch):
        # every predictor point and every trial is built by with_omegas and
        # propagated once; a predictor point already below the target, which
        # this trace has, takes its tangent from the tracer's forward pass
        kernel, trials = TestProjectionEvaluations._count(monkeypatch)
        unprojected = []
        real_project = navigator._project

        def recording(*args, **kwargs):
            result = real_project(*args, **kwargs)
            unprojected.append(result[2] is None)
            return result

        monkeypatch.setattr(navigator, "_project", recording)
        curve = trace_levelset(m3_solution.protocol, TraceConfig())
        assert curve.closed and any(unprojected[1:])
        assert len(kernel) == 3 * (1 + len(trials))

    @pytest.mark.parametrize("run", [
        lambda p: navigate(p, SecondaryCost("smoothness"), NavigationConfig()),
        lambda p: trace_levelset(p, TraceConfig())], ids=["navigate", "trace"])
    @pytest.mark.parametrize("omegas, error", [
        pytest.param((1.0, 1.0, 1.0), NotASolution, id="above-threshold"),
        pytest.param((1e300, 1.0, 1.0), NonFiniteEntry, id="not-finite")])
    def test_non_solution_is_rejected_before_any_backward_pass(self, run, omegas, error,
                                                               monkeypatch):
        kernel, _ = TestProjectionEvaluations._count(monkeypatch)
        backward = self._count_backward(monkeypatch)
        with pytest.raises(error), np.errstate(all="ignore"):
            run(Protocol(1.0, 0.25, 0.6, omegas))
        assert len(kernel) == 3 and not backward

    @pytest.mark.parametrize("run", [
        lambda p: navigate(p, SecondaryCost("smoothness"), NavigationConfig()),
        lambda p: trace_levelset(p, TraceConfig())], ids=["navigate", "trace"])
    def test_input_the_corrector_cannot_hold_is_refused_alike(self, run, monkeypatch):
        # one admission rule for both drivers: an input under the threshold
        # (I = 1e-7) whose one projection runs out of budget is refused
        # before any navigation step or traced vertex
        solution = proto.load(POOL_M3[0])
        start = solution.with_omegas(np.asarray(solution.omegas) + 1e-4)
        assert 1e-8 < infidelity(start) < 1e-6
        projections, later = [], []
        real_project = navigator._project

        def counting_project(*args, **kwargs):
            projections.append(args[0])
            return real_project(*args, **kwargs)

        monkeypatch.setattr(navigator, "_CORRECTOR_BUDGET", 0)
        monkeypatch.setattr(navigator, "_project", counting_project)
        monkeypatch.setattr(navigator, "_navigation_step", lambda *args: later.append(args))
        monkeypatch.setattr(navigator, "_null_direction", lambda *args: later.append(args))
        with pytest.raises(NotASolution, match="budget"):
            run(start)
        assert projections == [start] and not later


class TestTraceLevelset:
    def test_closed_curve_with_rank_condition(self, m3_solution):
        curve = trace_levelset(m3_solution.protocol, TraceConfig())
        assert curve.closed, curve.status
        assert len(curve.vertices) >= 10
        assert np.all(curve.infidelities < 1e-5)
        base = Protocol(1.0, 0.25, 0.6, (0.0,) * 3)
        for vert in curve.vertices[:: max(1, len(curve.vertices) // 12)]:
            gb = gradient(base.with_omegas(vert)).grad_beta
            eigs = np.sort(np.linalg.eigvalsh(optimal_hessian(gb)))[::-1]
            assert eigs[2] < 1e-8 * eigs[0]
            assert eigs[1] > 1e-8 * eigs[0]

    def test_leaving_the_box_ends_open(self):
        # the closed curve through pool m3/seed100 does not fit in this box
        p = proto.load(POOL_M3[0].with_name("seed100.json"))
        cfg = TraceConfig(box=(-1.0, 4.0))
        curve = trace_levelset(p, cfg)
        assert curve.status == "open" and not curve.closed
        assert len(curve.vertices) == 31
        assert np.all((curve.vertices >= -1.0) & (curve.vertices <= 4.0))
        assert np.all(curve.infidelities < 1e-5)

    def test_reverse_traversal_same_curve(self, m3_solution):
        fwd = trace_levelset(m3_solution.protocol, TraceConfig())
        rev = trace_levelset(m3_solution.protocol, TraceConfig(initial_sign=-1.0))
        assert rev.closed
        # every reverse vertex lies near the forward polyline
        from oscnav.navigator import _polyline_distance
        dmax = max(_polyline_distance(v, fwd) for v in rev.vertices)
        assert dmax < 0.05

    def test_about_one_sweep_per_vertex(self, m3_solution, monkeypatch):
        # the corrector starts near Gauss-Newton and its last Jacobian gives
        # the next tangent; a secant predictor point already below the
        # target evaluates no gradient in the corrector and pays its one
        # sweep at the vertex instead. Either way a vertex costs one sweep:
        # with the start tangent's, at most two more than there are vertices.
        sweeps, outside, depth = [], [], []
        real_gradient, real_project = navigator.gradient, navigator._project

        def counting(p, *rest):
            (sweeps if depth else outside).append(p.omegas)
            return real_gradient(p, *rest)

        def nested(*args, **kwargs):
            depth.append(1)
            try:
                return real_project(*args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(navigator, "gradient", counting)
        monkeypatch.setattr(navigator, "_project", nested)
        curve = trace_levelset(m3_solution.protocol, TraceConfig())
        assert curve.closed, curve.status
        assert np.all(curve.infidelities < navigator._TRACE_TARGET)
        assert len(sweeps) + len(outside) <= len(curve.vertices) + 2

    @pytest.mark.filterwarnings("error")
    def test_no_tangent_where_the_jacobian_is_rank_deficient(self):
        assert navigator._null_direction(np.array([1 + 1j, 2 + 2j, 3 + 3j])) is None
        assert navigator._null_direction(np.zeros(3, dtype=complex)) is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1, 5])
    def test_rank_deficient_jacobian_ends_the_curve(self, m3_solution, monkeypatch, k):
        # the k-th sweep returns parallel Re and Im parts of grad beta, and
        # the curve ends instead of predicting from a NaN direction. The
        # start is below the target, so sweep 1 is the tracer's own sweep
        # there: the start has no tangent and is the whole curve. Sweep 5
        # runs inside the projection of the fourth predictor point, which
        # then fails: the curve ends through the corrector-failure branch
        # at the vertex before it
        calls = []
        real = navigator.gradient

        def parallel_at_k(p, *rest):
            bundle = real(p, *rest)
            calls.append(p.omegas)
            if len(calls) == k:
                return dataclasses.replace(bundle, grad_beta=bundle.grad_beta.real * (1 + 1j))
            return bundle

        monkeypatch.setattr(navigator, "gradient", parallel_at_k)
        curve = trace_levelset(m3_solution.protocol, TraceConfig())
        assert curve.status == "corrector_failed" and not curve.closed
        assert len(calls) == k
        assert 1 <= len(curve.vertices) <= k
        assert np.isfinite(curve.vertices).all()
        assert np.all(curve.infidelities < navigator._TRACE_TARGET)

    def test_start_the_corrector_cannot_hold_is_refused(self, m3_solution, monkeypatch):
        # a start under the threshold at I = 1e-7, above the tracer's
        # target, whose projection runs out of budget: no curve is built
        start = m3_solution.protocol.with_omegas(np.asarray(m3_solution.protocol.omegas) + 1e-4)
        assert navigator._TRACE_TARGET < infidelity(start) < INFIDELITY_THRESHOLD
        monkeypatch.setattr(navigator, "_CORRECTOR_BUDGET", 0)
        with pytest.raises(NotASolution, match="budget"):
            trace_levelset(start, TraceConfig())

    def test_vertex_without_a_tangent_ends_the_curve(self, m3_solution, monkeypatch):
        # the third tangent, at the second vertex after the start, does not
        # exist: the curve ends there, that vertex included
        calls = []
        real = navigator._null_direction

        def none_at_third(grad_beta):
            calls.append(grad_beta)
            return None if len(calls) == 3 else real(grad_beta)

        monkeypatch.setattr(navigator, "_null_direction", none_at_third)
        curve = trace_levelset(m3_solution.protocol, TraceConfig())
        assert curve.status == "corrector_failed" and not curve.closed
        assert len(calls) == 3 and len(curve.vertices) == 3
        assert np.all(curve.infidelities < navigator._TRACE_TARGET)

    @pytest.mark.parametrize("path", POOL_M3, ids=lambda path: path.stem)
    def test_every_pool_entry_closes_both_ways(self, path):
        p = proto.load(path)
        for sign in (1.0, -1.0):
            curve = trace_levelset(p, TraceConfig(step_size=0.3, initial_sign=sign))
            assert curve.status == "closed", sign
            assert all(infidelity(p.with_omegas(v)) < navigator._TRACE_TARGET
                       for v in curve.vertices)

    @pytest.mark.parametrize("path", [POOL / "m3" / "seed100.json",
                                      POOL / "m3" / "seed104.json"],
                             ids=lambda path: path.stem)
    def test_chord_steps_keep_coarse_traces_near_one_sweep_per_vertex(self, path,
                                                                      monkeypatch):
        # at step 0.3 most predictor points need a second corrector step; a
        # chord step reuses the Jacobian of the first, where a fresh one
        # costs 1.8-1.9 sweeps per vertex
        sweeps = []
        real = navigator.gradient
        monkeypatch.setattr(navigator, "gradient",
                            lambda *args: sweeps.append(1) or real(*args))
        p = proto.load(path)
        for sign in (1.0, -1.0):
            sweeps.clear()
            curve = trace_levelset(p, TraceConfig(step_size=0.3, initial_sign=sign))
            assert curve.status == "closed", sign
            assert np.all(curve.infidelities < navigator._TRACE_TARGET)
            assert len(sweeps) <= 1.15 * len(curve.vertices), sign

    def test_tangent_sign_is_continuous(self, m3_solution, monkeypatch):
        # every predictor point is the start of a projection; its offset
        # from the vertex before it is the predictor direction
        starts = []
        real = navigator._project

        def recording(p, *args, **kwargs):
            starts.append(np.asarray(p.omegas))
            return real(p, *args, **kwargs)

        monkeypatch.setattr(navigator, "_project", recording)
        curve = trace_levelset(m3_solution.protocol, TraceConfig())
        assert curve.closed, curve.status
        steps = np.asarray(starts[1:]) - curve.vertices[:len(starts) - 1]
        assert len(steps) == len(curve.vertices) - 1
        assert np.all(np.sum(steps[1:] * steps[:-1], axis=1) > 0.0)

    def test_rejects_wrong_dimension(self, m8_solution):
        with pytest.raises(ValueError):
            trace_levelset(m8_solution.protocol, TraceConfig())

    def test_corrector_targets_are_below_the_threshold(self):
        # a vertex or navigation record held only to a target at or above
        # the threshold need not be a solution
        assert navigator._TRACE_TARGET < INFIDELITY_THRESHOLD
        assert navigator._NAV_TARGET < INFIDELITY_THRESHOLD


def _closed_polyline_distance(point, vertices):
    """Distance from a point to the closed polyline through ``vertices``."""
    a, b = vertices, np.roll(vertices, -1, axis=0)
    ab = b - a
    t = np.clip(np.sum((point - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
    return float(np.min(np.linalg.norm(point - (a + t[:, None] * ab), axis=1)))


class TestScanLevelset:
    def test_distance_to_a_one_vertex_curve_is_to_its_vertex(self):
        # a trace whose start has no tangent returns this curve, and the
        # scan measures its points against it
        curve = navigator.LevelsetCurve(np.array([[1.0, 2.0, 3.0]]), np.array([1e-6]),
                                        "corrector_failed")
        point = np.array([4.0, 6.0, 3.0])
        assert navigator._polyline_distance(point, curve) == 5.0

    def test_small_scan_labels_everything(self):
        result = scan_levelset(TASK, DescentConfig(seed=100, box=(0.0, 2.0)),
                               TraceConfig(), 40)
        assert len(result.points) == 40
        assert np.all(result.infidelities < 1e-5)
        assert np.all(result.labels >= 0)
        used = sorted(set(result.labels.tolist()))
        assert all(result.curves[k].status == "closed" for k in used)
        for point, label in zip(result.points, result.labels):
            dist = _closed_polyline_distance(point, result.curves[label].vertices)
            assert dist <= navigator._ASSIGN_DISTANCE
        for i, j in itertools.combinations(used, 2):
            other = result.curves[j].vertices
            gap = min(_closed_polyline_distance(v, other)
                      for v in result.curves[i].vertices)
            assert gap > navigator._ASSIGN_DISTANCE
        # One component: no solution lies inside the box (smallest max|w| is
        # 2.316), and descent from box (0, 2) lands on a single closed curve,
        # w1 in [2.32, 4.93], w2 in [-1.75, 1.75], w3 in [0.77, 1.47], which an
        # independent Levenberg-Marquardt solver and tracer reproduce to 0.01.
        assert len(used) == 1

    def test_wide_box_scan_closes_every_curve(self):
        # from box (0, 5) the first-order corrector left four partial curves,
        # each minting its own label; every traced curve must close instead
        result = scan_levelset(TASK, DescentConfig(seed=100, box=(0.0, 5.0)),
                               TraceConfig(), 24)
        assert len(result.points) == 24
        assert np.all(result.infidelities < 1e-5)
        assert np.all(result.labels >= 0)
        used = sorted(set(result.labels.tolist()))
        assert all(result.curves[k].status == "closed" for k in used)
        for point, label in zip(result.points, result.labels):
            dist = _closed_polyline_distance(point, result.curves[label].vertices)
            assert dist <= navigator._ASSIGN_DISTANCE
        for i, j in itertools.combinations(used, 2):
            other = result.curves[j].vertices
            gap = min(_closed_polyline_distance(v, other)
                      for v in result.curves[i].vertices)
            assert gap > navigator._ASSIGN_DISTANCE

    def test_wide_scan_labels_every_point(self):
        # 500 seeds from box (-5, 5) need 80 curves; tracing stopped at 64
        # used to leave 19 points unlabeled. The first 64 curves and their
        # labels are those of a scan stopped there, replayed below.
        result = scan_levelset(TASK, DescentConfig(box=(-5.0, 5.0)), TraceConfig(), 500)
        labels = result.labels
        assert len(result.points) == 500 and np.all(labels >= 0)
        assert len(result.curves) == 80 and len(set(labels.tolist())) == 80
        capped = np.full(len(labels), -1)
        for idx, point in enumerate(result.points):
            if capped[idx] >= 0:
                continue
            label = int(capped.max()) + 1
            if label == 64:
                break
            curve = trace_levelset(_start(point), TraceConfig())
            assert result.curves[label].status == curve.status
            assert np.array_equal(result.curves[label].vertices, curve.vertices)
            near = [navigator._polyline_distance(q, curve) <= navigator._ASSIGN_DISTANCE
                    for q in result.points[idx:]]
            capped[idx:][(capped[idx:] < 0) & near] = label
        assert np.count_nonzero(capped < 0) == 19
        assert np.array_equal(labels[capped >= 0], capped[capped >= 0])

    def test_seeds_without_a_solution_are_skipped(self):
        # with no restarts every solve exhausts its budget: no point, no curve
        result = scan_levelset(TASK, DescentConfig(max_restarts=0), TraceConfig(), 3)
        assert result.points.shape == (0, 3)
        assert len(result.infidelities) == len(result.labels) == len(result.curves) == 0

    def test_determinism(self):
        cfg = DescentConfig(seed=100, box=(0.0, 2.0))
        a = scan_levelset(TASK, cfg, TraceConfig(), 12)
        b = scan_levelset(TASK, cfg, TraceConfig(), 12)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)


class TestCompressionPath:
    def test_compress_collapse_round_trip(self):
        res = solve(DescentConfig(seed=1, box=(0.1, 5.0)), 8, TASK)
        traj = navigate(res.protocol, SecondaryCost("compression", 2),
                        NavigationConfig())
        final = traj.final_protocol
        if traj.records[-1].cost < 1e-8:
            small = collapse(final, 2)
            assert infidelity(small) < 1e-5


def _start(omegas):
    return Protocol(TASK[0], TASK[1], TASK[2] / len(omegas), tuple(omegas))


def _navigate_or_refuse(start, cost, cfg):
    """The navigation of ``start``, or None when it is refused; a refusal is
    right only for an input whose projection ends off beta = 0."""
    try:
        return navigate(start, cost, cfg)
    except NotASolution:
        status = navigator._project(start, navigator._NAV_TARGET,
                                    navigator._CORRECTOR_BUDGET)[3]
        assert status not in navigator._ON_LEVEL_SET
        return None


starts = st.integers(1, 8).flatmap(
    lambda m: st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m)).map(_start)


class TestInvariantProperties:
    @given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=64),
           st.sampled_from([2, 3]))
    def test_refinement_keeps_smoothness_cost_exactly(self, omegas, k):
        p = _start(omegas)
        c1 = SecondaryCost("smoothness").value
        assert c1(refine(p, k).omegas) == c1(p.omegas)

    @given(starts)
    def test_descent_is_monotone_and_solutions_are_critical(self, p0):
        p, report, traj = descend(p0, DescentConfig())
        vals = [r.infidelity for r in traj.records]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert traj.final_protocol == p
        if report.classification == "solution":
            assert infidelity(p) < INFIDELITY_THRESHOLD
            assert np.max(np.abs(gradient(p).grad_infidelity)) < navigator._GRAD_TOLERANCE

    @given(st.sampled_from([3, 6, 12]).flatmap(
        lambda m: st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m)))
    # the first restart of seed 253 at M = 3, which stops on its gain
    @example([0.5846427559417524, 1.308606296965221, 0.25715791202884947])
    def test_a_descent_stopped_on_its_gain_is_at_a_trap(self, omegas):
        # a critical stop with the gradient above the tolerance is the trap
        # test's: the step into the last iterate lowered I, above the
        # threshold, by at most _TRAP_GAIN times I, from a point whose
        # Gauss-Newton step |J^+ r| exceeds _TRAP_STEP max(1, max|w|)
        statuses = []
        real = navigator._project

        def recording(*args, **kwargs):
            result = real(*args, **kwargs)
            statuses.append(result[3])
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(navigator, "_project", recording)
            _, report, traj = descend(_start(omegas), DescentConfig())
        if statuses != ["critical"] or report.grad_max_norm < navigator._GRAD_TOLERANCE:
            return
        assert report.classification == "trap"
        before, last = traj.records[-2], traj.records[-1]
        assert last.infidelity >= INFIDELITY_THRESHOLD
        assert before.infidelity - last.infidelity <= navigator._TRAP_GAIN * last.infidelity
        bundle = gradient(before.protocol)
        jac = np.array([bundle.grad_beta.real, bundle.grad_beta.imag])
        step = np.linalg.lstsq(jac, [bundle.beta.real, bundle.beta.imag], rcond=None)[0]
        w = np.asarray(before.protocol.omegas)
        assert np.linalg.norm(step) > navigator._TRAP_STEP * max(1.0, np.max(np.abs(w)))

    @settings(max_examples=25)
    @given(st.integers(3, 8), st.integers(0, 2 ** 16),
           st.sampled_from([SecondaryCost("smoothness"),
                            SecondaryCost("compression", 1)]))
    def test_navigation_keeps_cost_and_threshold(self, m, seed, cost):
        start = solve(DescentConfig(seed=seed), m, TASK).protocol
        cfg = NavigationConfig(max_iterations=20)
        traj = _navigate_or_refuse(start, cost, cfg)
        if traj is None:
            return
        costs = [r.cost for r in traj.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert all(r.infidelity < INFIDELITY_THRESHOLD for r in traj.records)

    @settings(max_examples=40)
    @given(st.integers(3, 13), st.integers(0, 2 ** 16),
           st.sampled_from([SecondaryCost("smoothness"),
                            SecondaryCost("compression", 1)]))
    def test_every_record_is_on_the_level_set(self, m, seed, cost):
        # every record, the first included, is a projection's end point:
        # below the corrector target, or at the rounding floor of I
        start = solve(DescentConfig(seed=seed), m, TASK).protocol
        ends = []
        real = navigator._project

        def recording(*args, **kwargs):
            result = real(*args, **kwargs)
            ends.append((result[0], result[3]))
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(navigator, "_project", recording)
            traj = _navigate_or_refuse(start, cost, NavigationConfig())
        if traj is None:
            return
        for rec in traj.records:
            status = next((s for q, s in ends if q is rec.protocol), None)
            assert rec.infidelity < navigator._NAV_TARGET or status == "floor"


def _accepted_steps(start, target, budget):
    """Run ``navigator._project`` from ``start``: (result, accepted steps,
    points of its gradient calls, points of its ``on_step`` calls). A trial
    is built from the current point, so the points trials are built from,
    then the returned one, change once per accepted step."""
    bases, sweeps, iterates = [], [], []
    real_with, real_gradient = Protocol.with_omegas, navigator.gradient

    def recording_with(self, omegas):
        bases.append(self)
        return real_with(self, omegas)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Protocol, "with_omegas", recording_with)
        mp.setattr(navigator, "gradient",
                   lambda p, *rest: sweeps.append(p) or real_gradient(p, *rest))
        result = navigator._project(start, target, budget,
                                    lambda it, q, *_: iterates.append(q))
    chain = [start]
    for q in bases + [result[0]]:
        if q is not chain[-1]:
            chain.append(q)
    return result, len(chain) - 1, sweeps, iterates


class TestChordSteps:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(POOL_M3), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1e-3),
           st.sampled_from([navigator._TRACE_TARGET, navigator._NAV_TARGET]))
    def test_the_target_sets_the_mode(self, path, seed, size, target):
        # a correction (target > 0) reaches beta = 0 and serves each
        # Jacobian to at most one chord trial after its own step; a descent
        # (target 0) of the same start evaluates every iterate's gradient
        solution = proto.load(path)
        direction = np.random.default_rng(seed).normal(size=3)
        start = solution.with_omegas(np.asarray(solution.omegas)
                                     + size * direction / np.linalg.norm(direction))
        (_, _, _, status), accepted, sweeps, _ = _accepted_steps(
            start, target, navigator._CORRECTOR_BUDGET)
        assert status in navigator._ON_LEVEL_SET
        assert accepted <= 2 * len(sweeps)
        (q, _, _, status), accepted, sweeps, iterates = _accepted_steps(start, 0.0, 20000)
        assert status != "budget"
        assert sweeps == iterates and iterates[-1] is q
        assert accepted == len(iterates) - 1

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(POOL_M3 + sorted((POOL / "m48").glob("*.json"))),
           st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.3),
           st.sampled_from([1e-12, 1e-28]))
    # a chord trial from these starts raises I
    @example(POOL / "m3" / "seed100.json", 6, 0.3, 1e-12)
    @example(POOL / "m3" / "seed106.json", 6, 0.3, 1e-28)
    def test_projection_reaches_the_level_set_and_chord_steps_lower_i(
            self, path, seed, size, target):
        # the events of a projection are the forward pass of each evaluated
        # point and the gradient of each iterate. A trial that follows an
        # accepted trial with no gradient between them is a chord trial; it
        # was accepted if the next gradient, or the returned point, is its
        events = []
        real_forward, real_gradient = navigator.forward, navigator.gradient

        def recording_forward(p, *rest):
            fw = real_forward(p, *rest)
            events.append(("F", p, abs(fw.beta) ** 2))
            return fw

        def recording_gradient(p, *rest):
            events.append(("G", p, None))
            return real_gradient(p, *rest)

        solution = proto.load(path)
        direction = np.random.default_rng(seed).normal(size=solution.m)
        start = solution.with_omegas(np.asarray(solution.omegas)
                                     + size * direction / np.linalg.norm(direction))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(navigator, "forward", recording_forward)
            mp.setattr(navigator, "gradient", recording_gradient)
            q, ival, _, status = navigator._project(start, target, navigator._CORRECTOR_BUDGET)
        assert status in navigator._ON_LEVEL_SET and ival < target

        _, current, val = events[0]
        mode, chord = "damped", None  # damped: the next trial is an LM trial
        for kind, point, value in events[1:] + [("G", q, None)]:
            if kind == "G":
                if chord is not None and point is chord[0]:
                    assert chord[1] < val
                    current, val = chord[0], chord[1]
                assert point is current
                mode, chord = "damped", None
            elif mode == "damped":
                if value < val:
                    current, val, mode = point, value, "accepted"
            else:
                assert mode == "accepted"
                chord, mode = (point, value), "chord"
        assert ival == val


def _tangent_model(n, seed, definite, lowest_weight, g_scale):
    """A symmetric model with eigenvalue magnitudes in [0.1, 10] and a gradient
    whose weight along the lowest eigenvector is ``lowest_weight``."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    evals = rng.uniform(0.1, 10.0, n)
    if not definite:
        evals *= rng.choice([-1.0, 1.0], n)
        evals[0] = -abs(evals[0])
    order = np.argsort(evals)
    evals, q = evals[order], q[:, order]
    h = (q * evals) @ q.T
    weights = rng.normal(size=n)
    weights[0] = 0.0
    rest = np.linalg.norm(weights)
    weights *= math.sqrt(1.0 - lowest_weight ** 2) / rest if rest else 0.0
    weights[0] = lowest_weight * rng.choice([-1.0, 1.0])
    return (h + h.T) / 2.0, g_scale * (q @ weights)


class TestTrustRegionStep:
    @settings(max_examples=300)
    @given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.one_of(st.just(-math.inf), st.floats(-6.0, 0.0)),
           st.floats(-8.0, 3.0),
           st.floats(math.log10(navigator._EPS), 2.0).map(lambda e: 10.0 ** e))
    def test_step_minimises_the_model_inside_the_radius(self, n, seed, definite,
                                                        lowest_exp, g_exp, radius):
        # lowest_exp = -inf draws a gradient orthogonal to the lowest
        # eigenvector: for an indefinite model, the hard case
        lowest_weight = 1.0 if n == 1 else 10.0 ** lowest_exp
        h, g = _tangent_model(n, seed, definite, lowest_weight, 10.0 ** g_exp)
        evals, evecs = np.linalg.eigh(h)
        u = navigator._trust_region_step(evals, evecs, g, radius)
        size = np.linalg.norm(u)
        assert np.all(np.isfinite(u))
        assert size <= radius * (1.0 + 1e-12)
        newton = np.linalg.solve(h, -g)
        if definite and np.linalg.norm(newton) <= radius:
            assert np.linalg.norm(u - newton) <= 1e-10 * np.linalg.norm(newton)
        else:
            assert size >= 0.9 * radius

    def test_hard_case_reaches_the_radius_at_the_exact_minimum(self):
        # g has no weight on the lowest eigenvector e_0, so the minimiser is
        # -(h + 2 I)^+ g = (0, -1/3, -1/5) plus tau e_0 on the boundary
        h, g, radius = np.diag([-2.0, 1.0, 3.0]), np.array([0.0, 1.0, 1.0]), 5.0
        evals, evecs = np.linalg.eigh(h)
        u = navigator._trust_region_step(evals, evecs, g, radius)
        tau_sq = radius ** 2 - 1.0 / 9.0 - 1.0 / 25.0
        best = -1.0 / 3.0 - 1.0 / 5.0 + 0.5 * (-2.0 * tau_sq + 1.0 / 9.0 + 3.0 / 25.0)
        assert np.linalg.norm(u) == pytest.approx(radius, rel=1e-12)
        assert g @ u + 0.5 * (u @ h @ u) == pytest.approx(best, rel=1e-10)
