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
# walker's property under it (pytest --hypothesis-profile thorough ...)
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
