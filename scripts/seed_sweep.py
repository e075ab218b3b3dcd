"""Acceptance criteria 1 and 8 over a range of tree seeds.

Each of the two criteria checks a single forest seed (13 and 3), so a
change that moves forest or selection bits re-rolls them like a coin. This
script runs the bodies of both tests in ``tests/test_acceptance.py`` once
per tree seed and prints pass or fail with the test accuracy, the truth
rules recovered and the RMSEs, so that one seed's result is not read as a
change in quality. Seeds 1-10 take three to five minutes on two cores.

usage: python3 scripts/seed_sweep.py [--seeds 1 2 ...]
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import (  # noqa: E402 - needs the paths above
    recovery_passes,
    recovery_results,
    stratification_passes,
    stratification_results,
)


def criterion_1(seed: int) -> tuple[bool, str]:
    results = recovery_results(seed)
    parts = []
    for method, (acc, recovered) in results.items():
        rules = [rule for rule, hit in zip((1, 2, 3), recovered) if hit]
        parts.append(f"{method} acc={acc:.4f} rules={rules}")
    return recovery_passes(results), "  ".join(parts)


def criterion_8(seed: int) -> tuple[bool, str]:
    rmses = stratification_results(seed)
    detail = "degeneracy={:.1e}  stratified={:.4f}  flat={:.4f}".format(*rmses)
    return stratification_passes(*rmses), detail


CRITERIA = {1: criterion_1, 8: criterion_8}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)
    for criterion in CRITERIA:
        passed = []
        for seed in args.seeds:
            start = time.perf_counter()
            ok, detail = CRITERIA[criterion](seed)
            passed += [seed] if ok else []
            print(f"criterion {criterion} seed {seed}: {'PASS' if ok else 'FAIL'}  {detail}  "
                  f"({time.perf_counter() - start:.0f} s)", flush=True)
        print(f"criterion {criterion}: {len(passed)} of {len(args.seeds)} seeds pass {passed}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
