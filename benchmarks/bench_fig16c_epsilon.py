"""Figure 16(c): TOSS selection/join time against the threshold epsilon.

Paper shape: "both execution times increase approximately linearly with
epsilon because when epsilon increases, each node will contain more
similar terms on average and thus more time is needed to output a larger
result."
"""

from conftest import persist

from repro.data import generate_corpus, render_dblp
from repro.experiments import epsilon_sweep
from repro.experiments.reporting import epsilon_table
from repro.experiments.workload import build_scalability_pattern, build_system

EPSILONS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
#: Rounds per built system (``epsilon_sweep`` times each point on
#: ``BUILDS_PER_POINT`` builds); each point is the median of its runs.
#: The first run of a freshly built system pays cold costs that do not
#: grow with epsilon (at 500 papers up to twice a warm selection), and a
#: mean of two runs on one build let them flip the selection series' trend.
REPEATS = 5


def test_fig16c_epsilon(benchmark, results_dir):
    points = epsilon_sweep(
        epsilons=EPSILONS, papers=500, join_papers=200, repeats=REPEATS, seed=0
    )
    persist(results_dir, "fig16c_epsilon.txt", epsilon_table(points))

    for operation in ("selection", "join"):
        series = sorted(
            (p for p in points if p.operation == operation),
            key=lambda p: p.epsilon,
        )
        assert len(series) == len(EPSILONS)
        # Result sizes (and thus work) must not shrink as epsilon grows.
        results = [p.results for p in series]
        assert results == sorted(results), (
            f"{operation} answers must grow with epsilon: {results}"
        )
        # Time trend: the largest epsilon should not be faster than the
        # smallest (noise-tolerant monotonicity of the trend line).
        assert series[-1].seconds >= series[0].seconds * 0.8

    corpus = generate_corpus(500, seed=0)
    dblp = render_dblp(corpus, seed=0)
    system = build_system(corpus, [dblp], 5.0)
    pattern = build_scalability_pattern()
    benchmark(lambda: system.select("dblp", pattern, sl_labels=[1]))
