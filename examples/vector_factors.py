#!/usr/bin/env python3
"""Vector-combinable job factors — the paper's sketched future work.

Section III-C ends with: "one interesting alternative is to reverse the
problem and instead investigate modeling other factors, such as job age,
using a representation combinable with the fairshare vectors."

This example builds fairshare vectors for a small hierarchy and combines
them with a job-age factor two ways:

* ``suffix`` — age appended below the fairshare levels: fairshare order is
  enforced strictly top-down, age only breaks exact fairshare ties;
* ``blend``  — age mixed into every element with a weight, reproducing the
  multifactor smoothing behaviour while staying in vector space (keeping
  unlimited precision and isolation, which scalar projections give up).

Run:  python examples/vector_factors.py
"""

from repro.core import (
    AgeVectorFactor,
    CompositeVectorPriority,
    FlatPolicy,
    PolicyTree,
)
from repro.rms.job import Job

policy = PolicyTree.from_dict({
    "chem": (1, {"anna": 1, "bert": 1}),
    "phys": (1, {"cara": 1}),
})
usage = {"/chem/anna": 500.0, "/chem/bert": 450.0, "/phys/cara": 1000.0}
vectors = FlatPolicy(policy).compute(usage).vectors()

NOW = 7200.0
jobs = {
    "/chem/anna": Job(system_user="anna", duration=60.0, submit_time=7100.0),
    "/chem/bert": Job(system_user="bert", duration=60.0, submit_time=0.0),
    "/phys/cara": Job(system_user="cara", duration=60.0, submit_time=3600.0),
}

print("== Fairshare vectors (no job factors) ==")
order = sorted(vectors, key=lambda p: vectors[p], reverse=True)
for path in order:
    print(f"  {path:<12} {vectors[path]!r}  wait={jobs[path].wait_time(NOW):>5.0f}s")
print()

for mode, note in [("suffix", "age breaks fairshare ties only"),
                   ("blend", "age smooths every level (weight 0.3)")]:
    comp = CompositeVectorPriority([(1.0, AgeVectorFactor(max_age=3600.0))],
                                   mode=mode, factor_weight=0.3)
    extended = {p: comp.extend(vectors[p], jobs[p], NOW) for p in vectors}
    ranking = sorted(extended, key=lambda p: extended[p], reverse=True)
    print(f"== Combined with job age ({mode}: {note}) ==")
    for path in ranking:
        print(f"  {path:<12} {extended[path]!r}")
    print()

print("The extended vectors are still compared lexicographically, so the")
print("combination keeps unlimited precision and subgroup isolation —")
print("the properties Table I shows every scalar projection giving up.")
