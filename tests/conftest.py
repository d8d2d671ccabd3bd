import numpy as np
import pytest

from metamine.data_model import DescriptorTable, PerformanceMatrix


def make_tables(n=3, m=4, d=5, l=4, seed=0):
    rng = np.random.default_rng(seed)
    x = DescriptorTable(
        entity_ids=[f"ds{i}" for i in range(n)],
        features=rng.standard_normal((n, d)),
        feature_names=[f"f{k}" for k in range(d)],
    )
    a = DescriptorTable(
        entity_ids=[f"wf{j}" for j in range(m)],
        features=rng.standard_normal((m, l)),
        feature_names=[f"p{k}" for k in range(l)],
    )
    p = PerformanceMatrix(
        dataset_ids=x.entity_ids,
        workflow_ids=a.entity_ids,
        values=rng.uniform(0.4, 0.95, size=(n, m)),
    )
    return x, a, p


@pytest.fixture
def small_tables():
    return make_tables()
