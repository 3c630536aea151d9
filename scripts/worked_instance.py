#!/usr/bin/env python3
"""Walk the two worked micro-instances end to end and print every artifact.

Covers: validating the 3-point space, certifying its contraction, locating
the fixed point from every start, and the full quantitative pipeline on the
squared-distance interval instance, asserting that the block index of
``m_epsilon`` is the one the Cauchy check used.
"""

import json

from gphi import (
    AffineMap,
    AnalyticSpace,
    FiniteMap,
    IdentityGauge,
    LinearPhi,
    certify_condition_G,
    enumerate_fixed_points,
    epsilon0,
    m_epsilon,
    picard_iterate,
    validate_finite_space,
    verify_cauchy_bound,
    verify_invariant_ball,
    verify_step_chaining,
)


def banner(text):
    print(f"\n== {text} ==")


def main():
    banner("finite 3-point instance")
    space = validate_finite_space([[0, 1, 2], [1, 0, 4], [2, 4, 0]])
    print(f"minimal constant s = {space.s} (= 4/3)")
    T = FiniteMap((0, 0, 1))
    cert = certify_condition_G(space, T, IdentityGauge(), LinearPhi(0.5))
    print(json.dumps(cert.to_json(), indent=2, sort_keys=True))
    print("fixed points:", enumerate_fixed_points(space, T))
    for x0 in space.points:
        trace = picard_iterate(space, T, x0)
        print(f"orbit from {x0}: {trace.orbit} -> {trace.fixed_point} "
              f"({trace.stop_reason})")

    banner("squared-distance interval instance")
    squared = AnalyticSpace(0.0, 1.0, 2.0)
    halving = AffineMap(0.5, 0.0)
    gauge, phi = IdentityGauge(), LinearPhi(0.25)
    cert = certify_condition_G(squared, halving, gauge, phi)
    print(f"certificate: {cert.verdict} ({cert.note}) over {cert.checked_pairs} pairs")
    trace = picard_iterate(squared, halving, 1.0)
    print(f"orbit stops at k = {trace.k_stop} ({trace.stop_reason}), "
          f"fixed point {trace.fixed_point}")
    eps = epsilon0(gauge) / 2.0
    diag = verify_cauchy_bound(trace, gauge, phi, eps)
    print(json.dumps(diag.to_json(), indent=2, sort_keys=True))
    # the public lemmas compose on the one trace: its block index is the
    # Cauchy check's m, and it names a ball centre the trace records
    m = m_epsilon(trace, diag.n, eps)
    assert m == diag.m, (m, diag.m)
    ball = verify_invariant_ball(halving, trace, eps, diag.n, m)
    m0, chain = verify_step_chaining(trace, diag.n, eps)
    print(f"invariant ball: {ball}, step chaining from block {m0}: {chain}")


if __name__ == "__main__":
    main()
