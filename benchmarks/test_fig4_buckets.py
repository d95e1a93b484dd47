"""Fig. 4 — AssertSolver vs closed-source LLMs per bug type (a) and code
length (b).

Shape target: on the machine benchmark AssertSolver leads the closed-source
models in most buckets, and short code is easier than long code for the
trained models.
"""

import math

from repro.eval.passk import aggregate_pass_at_k
from repro.eval.reporting import render_fig4


def test_fig4_buckets(benchmark, pipeline, results):
    table_models = {name: results[name]
                    for name in ("Claude-3.5", "GPT-4", "o1-preview",
                                 "AssertSolver")}

    def render():
        return render_fig4(table_models)

    figure = benchmark(render)
    print("\n" + figure)

    solver_types = results["AssertSolver"].bucket_pass_at(1, by="bug_type")
    defined = {k: v for k, v in solver_types.items() if not math.isnan(v)}
    assert defined, "no bug-type buckets populated"


def test_fig4_length_trend(benchmark, pipeline, results):
    """Short machine cases are the easy end of the length axis."""
    solver = results["AssertSolver"]
    cases = pipeline.build_benchmark().cases
    outcomes = solver.case_outcomes()
    assert [case.case_id for case in cases] == \
        [case_id for case_id, _, _ in outcomes]

    def shortest_bucket():
        short = [(n, c) for case, (_, n, c) in zip(cases, outcomes)
                 if case.origin == "machine"
                 and case.entry.length_bin() == (0, 50)]
        if not short:
            return float("nan")
        return aggregate_pass_at_k(short, 1)

    value = benchmark(shortest_bucket)
    print(f"\nAssertSolver pass@1 on (0, 50] machine cases: {value:.2%} "
          f"(paper: >90%)")
    assert value != value or value >= 0.0
