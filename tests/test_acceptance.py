"""End-to-end checks of every stated deliverable at canonical scale.

Each test drives one named check suite on the default configuration,
prints exactly one pass/fail line for its criterion with capture
suspended (so the line is visible in a plain ``pytest -v`` log), and
asserts both the verdict and the runtime budget.
"""

from fracmv.verify import SUITE_BUDGETS, run_suites

CRITERIA = {
    1: "spectral",
    2: "wasserstein",
    3: "conditions",
    4: "energy",
    5: "picard",
    6: "smallnoise",
    7: "controlled",
    8: "tails",
    9: "rate",
    10: "weak",
    11: "determinism",
}


def run_criterion(cfg, criterion: int, capsys):
    name = CRITERIA[criterion]
    results = run_suites(cfg, [name])
    assert results, f"suite {name} produced no checks"
    assert all(r.criterion == criterion for r in results)
    total = sum(r.seconds for r in results)
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}: {r.measured}" for r in results)
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d} ({name}) "
        f"{detail}  ({total:.1f}s, budget {SUITE_BUDGETS[name]:.0f}s)"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line
    assert total < SUITE_BUDGETS[name], (
        f"criterion {criterion} exceeded its runtime budget: "
        f"{total:.1f}s >= {SUITE_BUDGETS[name]}s"
    )


def test_criterion_01_fractional_operator_exact_on_modes(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 1, capsys)


def test_criterion_02_assignment_distance_matches_bruteforce(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 2, capsys)


def test_criterion_03_structural_conditions_audit(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 3, capsys)


def test_criterion_04_energy_identity_first_order(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 4, capsys)


def test_criterion_05_fixed_point_iteration_contracts(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 5, capsys)


def test_criterion_06_small_noise_deviation_scales_linearly(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 6, capsys)


def test_criterion_07_controlled_dynamics_consistency(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 7, capsys)


def test_criterion_08_solution_mass_stays_inside_domain(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 8, capsys)


def test_criterion_09_action_floor_and_recovery(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 9, capsys)


def test_criterion_10_oscillatory_controls_wash_out(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 10, capsys)


def test_criterion_11_byte_identical_reruns(canonical_cfg, capsys):
    run_criterion(canonical_cfg, 11, capsys)
