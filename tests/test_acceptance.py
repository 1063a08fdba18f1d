"""Acceptance gate: every numbered requirement runs at its stated tolerance.

The checks live in siac.harness.verify (also behind `siac verify`); this
module reads them from the one `siac verify --out` run the session shares
(`verify_run` in conftest.py), one test per criterion, each over the checks
named `criterion-N/...`.
Each test prints a PASS/FAIL line; failures list every violated check.
"""

from siac.harness import verify


def run_criterion(verify_run, number):
    label, _ = verify.CRITERIA[number]
    _, summary = verify_run
    results = [c for c in summary["checks"] if c["name"].startswith(f"criterion-{number}/")]
    (counted,) = [c["checks"] for c in summary["criteria"] if c["criterion"] == number]
    assert results and len(results) == counted, f"criterion {number}: {len(results)} checks named, {counted} counted"
    ok = all(c["passed"] for c in results)
    print(f"\nACCEPTANCE criterion {number} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{len(results)} checks]")
    failures = [f"FAIL  {c['name']}: {c['detail']}" for c in results if not c["passed"]]
    for line in failures:
        print("  " + line)
    assert ok, f"criterion {number} ({label}) failed:\n" + "\n".join(failures)


def test_criterion_1_dg_convergence(verify_run):
    run_criterion(verify_run, 1)


def test_criterion_2_central_bspline_filtering(verify_run):
    run_criterion(verify_run, 2)


def test_criterion_3_raised_cosine_filtering(verify_run):
    run_criterion(verify_run, 3)


def test_criterion_4_compact_filtering(verify_run):
    run_criterion(verify_run, 4)


def test_criterion_5_boundary_filtering(verify_run):
    run_criterion(verify_run, 5)


def test_criterion_6_2d_filtering(verify_run):
    run_criterion(verify_run, 6)


def test_criterion_7_property_suite(verify_run):
    run_criterion(verify_run, 7)


def test_criterion_8_smoothness(verify_run):
    run_criterion(verify_run, 8)
