import pytest

from delbisim import KripkeModel, PointedModel


def pm(worlds, edges=(), props=(), val=None, point=None):
    """Shorthand pointed-model builder used across the suite."""
    model = KripkeModel.make(worlds, edges, props, val or {})
    return PointedModel.make(model, point if point is not None else model.worlds[0])


@pytest.fixture
def relabelled():
    """``relabelled(rng, pointed)``: an isomorphic copy of ``pointed`` under a
    random bijection onto fresh world names."""

    def copy(rng, pointed):
        m = pointed.model
        names = [f"v{i}" for i in range(len(m.worlds))]
        rng.shuffle(names)
        to = dict(zip(m.worlds, names))
        model = KripkeModel.make(names, [(to[u], to[v]) for u, v in m.edges], m.propositions,
                                 {p: [to[w] for w in ws] for p, ws in m.valuation})
        return PointedModel.make(model, to[pointed.point])

    return copy


@pytest.fixture
def loop():
    """One world with a self-loop, p true."""
    return pm(["w"], [("w", "w")], ["p"], {"p": ["w"]})


@pytest.fixture
def cycle2():
    """Two worlds in a directed 2-cycle, p true everywhere."""
    return pm(["u", "v"], [("u", "v"), ("v", "u")], ["p"], {"p": ["u", "v"]}, "u")


@pytest.fixture
def golden_a():
    """x -> y with a loop at y, p everywhere, pointed at x."""
    return pm(["x", "y"], [("x", "y"), ("y", "y")], ["p"], {"p": ["x", "y"]}, "x")


@pytest.fixture
def golden_b():
    """Two disconnected self-loops, p everywhere, pointed at z."""
    return pm(["z", "u"], [("z", "z"), ("u", "u")], ["p"], {"p": ["z", "u"]}, "z")
