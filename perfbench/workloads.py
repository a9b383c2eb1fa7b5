"""Workload query lists and the verdict each query must produce.

Every workload is an explicit list of queries; the seed only permutes the
order in which a pass visits them. The expected verdict, exit code and
certificate kind of each query are the correctness gate, taken from the
program as it stood when the benchmark was defined: a change to the program
that alters a verdict must change this table too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WITNESS, OBSTRUCTED, UNKNOWN = "WITNESS", "OBSTRUCTED", "UNKNOWN"
EXIT_BY_VERDICT = {WITNESS: 0, OBSTRUCTED: 1, UNKNOWN: 2}


@dataclass(frozen=True)
class BenchQuery:
    manifold: str
    omega: str
    n: int
    verdict: str
    kind: str | None = None
    extra: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return EXIT_BY_VERDICT[self.verdict]

    def check_argv(self, out_path: str) -> list[str]:
        return ["check", self.manifold, "--omega", self.omega, "--n", str(self.n),
                *self.extra, "-o", out_path]

    def label(self) -> str:
        return f"{self.manifold} | {self.omega} | n={self.n}"


def _connsum(v: int, verdict: str, kind: str | None, extra=()) -> BenchQuery:
    return BenchQuery(f"connsum(s2xs2,{v}) * cp(2)", "vol(1)^sym(2)", 6,
                      verdict, kind, tuple(extra))


# Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS: dict[str, list[BenchQuery]] = {
    "enum_unknown": [
        _connsum(v, UNKNOWN, None, ("--enum-budget", "50000")) for v in range(2, 8)
    ],
    "obstruct_certify": [_connsum(v, OBSTRUCTED, "DualPair") for v in range(8, 13)]
    + [
        BenchQuery(f"surface({g}) * cp(2)", "vol(1)^sym(2)", 4, OBSTRUCTED, "H1Annihilator")
        for g in range(2, 11)
    ],
    "witness_roundtrip": [BenchQuery(f"torus({n})", "vol(1)", n, WITNESS) for n in range(5, 8)]
    + [
        BenchQuery("surface(1) * cp(2)", "vol(1)^sym(2)", 4, WITNESS),
        BenchQuery("s2xs2 * cp(2)", "vol(1)^sym(2)", 6, WITNESS),
        BenchQuery("cp(3)", "sym(1)^sym(1)^sym(1)", 6, WITNESS),
    ],
}


def pass_order(name: str, seed: int) -> list[BenchQuery]:
    """The workload's queries in the order the seed fixes for every pass."""
    queries = list(WORKLOADS[name])
    random.Random(seed).shuffle(queries)
    return queries
