import pytest
from hypothesis import HealthCheck, settings

# heavy numeric properties: no deadline, and derandomize so the suite is
# reproducible run to run
settings.register_profile(
    "semijulia",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# the same with 2,000 examples, for one property at a time: CI runs the chain
# walker's two properties (random quadratics, random polynomials), the random
# cubics' property, the batch rows' property (in blocks of 1 to 7 rows), the
# block-edge property and the tree level's per-point property under it
# (pytest --hypothesis-profile thorough ...)
settings.register_profile("thorough", settings.get_profile("semijulia"), max_examples=2000)
settings.load_profile("semijulia")


@pytest.fixture(params=[1, 3], ids=["in-process", "pool"])
def cpus(request, monkeypatch):
    """The worker helper sees this many usable CPUs.  Returns the CPU count
    and the list of fork-context lookups, one per call that starts a worker
    pool."""
    import semijulia.workers as workers

    lookups = []
    real = workers._fork_context

    def fork_context():
        lookups.append(real())
        return lookups[-1]

    monkeypatch.setattr(workers, "_usable_cpus", lambda: request.param)
    monkeypatch.setattr(workers, "_fork_context", fork_context)
    return request.param, lookups


@pytest.fixture
def circle_start(monkeypatch):
    """Every cubic's Ehrlich-Aberth iteration starts from the circle instead of
    Cardano's roots, in the generic loop and the batch rows alike, and the
    chain walker hands every cubic step to the generic loop.  From Cardano's
    roots z^3 + 0.3 passes the stop test at sweep 0 and runs no sweep; from
    the circle it takes several sweeps, which the tests of the sweep
    machinery (the sweep budget, SolverDivergence) need."""
    import numpy as np

    import semijulia.ratmap as ratmap

    # _cardano is the per-point part of Cardano's start, which _cubic_start
    # and the chain walker's cubic step (_cubic_roots) both call
    monkeypatch.setattr(ratmap, "_cardano", lambda m0, *terms: None)
    monkeypatch.setattr(
        ratmap, "_cubic_start_rows", lambda mr, mi: (0.0, 0.0, np.zeros(mr.shape[0], dtype=bool))
    )
