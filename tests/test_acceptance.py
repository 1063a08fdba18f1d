"""Acceptance gate: every numbered requirement runs at its stated tolerance.

The checks live in siac.harness.verify (also behind `siac verify`); this
module drives them through pytest, one test per criterion, sharing a single
context so each preset sweep behind the tables runs once.
Each test prints a PASS/FAIL line; failures list every violated check.
"""

import pytest

from siac.harness import verify


@pytest.fixture(scope="module")
def ctx():
    return verify.VerifyContext()


def run_criterion(ctx, number):
    label, fn = verify.CRITERIA[number]
    results = fn(ctx)
    ok = all(r.passed for r in results)
    print(f"\nACCEPTANCE criterion {number} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{len(results)} checks]")
    failures = [r.line() for r in results if not r.passed]
    for line in failures:
        print("  " + line)
    assert ok, f"criterion {number} ({label}) failed:\n" + "\n".join(failures)


def test_criterion_1_dg_convergence(ctx):
    run_criterion(ctx, 1)


def test_criterion_2_central_bspline_filtering(ctx):
    run_criterion(ctx, 2)


def test_criterion_3_raised_cosine_filtering(ctx):
    run_criterion(ctx, 3)


def test_criterion_4_compact_filtering(ctx):
    run_criterion(ctx, 4)


def test_criterion_5_boundary_filtering(ctx):
    run_criterion(ctx, 5)


def test_criterion_6_2d_filtering(ctx):
    run_criterion(ctx, 6)


def test_criterion_7_property_suite(ctx):
    run_criterion(ctx, 7)


def test_criterion_8_smoothness(ctx):
    run_criterion(ctx, 8)
