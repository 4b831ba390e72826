"""The seeded test-order shuffle keeps every module and class contiguous."""

from types import SimpleNamespace

import pytest

from tests.conftest import module_and_class, pytest_collection_modifyitems


def fake_config(seed):
    return SimpleNamespace(getoption=lambda name: seed)


def synthetic_items():
    """Two modules, each with two classes and module-level functions,
    collected interleaved (parametrize ids carrying ``::`` included)."""
    ids = []
    for module in ("tests/a/test_x.py", "tests/b/test_y.py"):
        for i in range(3):
            ids += [
                f"{module}::test_f{i}",
                f"{module}::TestOne::test_m{i}[p::{i}]",
                f"{module}::TestTwo::test_m{i}",
                f"{module}::TestTwo::TestInner::test_m{i}",
            ]
    return [SimpleNamespace(nodeid=nodeid) for nodeid in ids]


def assert_contiguous(labels):
    """Each label forms one unbroken run in ``labels``."""
    runs = [label for i, label in enumerate(labels) if i == 0 or labels[i - 1] != label]
    assert len(runs) == len(set(runs)), runs


@pytest.mark.parametrize("source", ["synthetic", "session"])
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_modules_and_classes_stay_contiguous(request, source, seed):
    items = synthetic_items() if source == "synthetic" else list(request.session.items)
    shuffled = list(items)
    pytest_collection_modifyitems(fake_config(seed), shuffled)

    assert sorted(map(id, shuffled)) == sorted(map(id, items))
    placed = [module_and_class(item) for item in shuffled]
    assert_contiguous([module for module, _ in placed])
    assert_contiguous([(module, cls) for module, cls in placed if cls])


def test_seed_decides_the_order():
    orders = []
    for seed in (0, 0, 1):
        items = synthetic_items()
        pytest_collection_modifyitems(fake_config(seed), items)
        orders.append([item.nodeid for item in items])
    assert orders[0] == orders[1] != orders[2]
    items = synthetic_items()
    pytest_collection_modifyitems(fake_config(-1), items)
    assert [item.nodeid for item in items] == [i.nodeid for i in synthetic_items()]
