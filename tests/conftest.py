import numpy as np
import pytest

from hullmle import expfam
from hullmle.expfam import Graph, ObservationMask, StatDef
from hullmle.hull import make_target_set


@pytest.fixture
def chain_sampler(monkeypatch):
    """mcmc_sample runs its chain on every space: a limit of 0 free dyads
    sends none to the exact route, so values pinned on chain-drawn samples
    hold byte for byte."""
    monkeypatch.setattr(expfam, "_CODE_TABLE_LIMIT", 0)


@pytest.fixture
def triangle():
    """The worked 2-D example: already centered, origin centroid."""
    points = np.array([[-1.0, 0.0], [2.0, 1.0], [1.0, -1.0]])
    return make_target_set(points, centroid=np.zeros(2))


@pytest.fixture
def edge_triangle_stats():
    return StatDef.from_names(["edges", "triangles"])


def masked_k4_instance():
    """n = 5, complete graph on vertices {1..4} observed, the two dyads
    touching vertex 0 and vertices 1, 2 unobserved.

    Exact MLE by enumeration: (-0.29842454, 0.81826213).  The four
    completions have statistics (6,4), (7,4), (7,4), (8,5), all
    strictly inside the attainable hull.
    """
    graph = Graph.from_pairs(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    observed = np.ones(10, dtype=bool)
    observed[[0, 1]] = False
    mask = ObservationMask(observed_dyads=observed, observed_values=graph.edges & observed)
    return graph, mask


MASKED_K4_MLE = np.array([-0.29842454, 0.81826213])


def random_target(rng, n_points, dim, centered=True):
    points = rng.standard_normal((n_points, dim))
    if centered:
        return make_target_set(points, centroid=np.zeros(dim))
    return make_target_set(points)
