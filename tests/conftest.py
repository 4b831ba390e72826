"""Shared fixtures: tiny geometries and traces sized for fast tests.

Also hosts the seeded test-order shuffle: tests run in a randomized
(but reproducible) order so hidden inter-test state dependencies are
flushed out instead of silently relied on.  ``--order-seed N`` picks
the shuffle; ``--order-seed -1`` restores plain collection order.
"""

from __future__ import annotations

import dataclasses
import random
from collections import defaultdict

import pytest

from repro.core.config import NemoConfig
from repro.flash.geometry import FlashGeometry
from repro.workloads.mixer import merged_twitter_trace
from repro.workloads.trace import Trace


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--order-seed",
        type=int,
        default=0,
        help="seed for the test-order shuffle (-1 runs collection order)",
    )


def pytest_report_header(config: pytest.Config) -> str:
    seed = config.getoption("--order-seed")
    if seed == -1:
        return "test order: collection order (--order-seed -1)"
    return f"test order: shuffled with --order-seed {seed}"


def module_and_class(item: pytest.Item) -> tuple[str, str]:
    """``(module, outermost class)`` of a test from its node id; the
    class is ``""`` for a module-level test function."""
    parts = item.nodeid.split("[", 1)[0].split("::")
    return parts[0], parts[1] if len(parts) > 2 else ""


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    """Shuffle test order, keeping each module and each class contiguous.

    Module and class locality are preserved (module- and class-scoped
    fixtures set up once) while the module order, the order of the
    classes (and the module-level functions, as one group) inside each
    module and the order within every group are randomized by the seed.
    """
    seed = config.getoption("--order-seed")
    if seed == -1:
        return
    rng = random.Random(seed)
    by_module: defaultdict[str, defaultdict[str, list[pytest.Item]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for item in items:
        module, cls = module_and_class(item)
        by_module[module][cls].append(item)
    modules = list(by_module.values())
    rng.shuffle(modules)
    shuffled: list[pytest.Item] = []
    for groups in modules:
        group_list = list(groups.values())
        rng.shuffle(group_list)
        for group in group_list:
            shuffled.extend(rng.sample(group, len(group)))
    items[:] = shuffled


@pytest.fixture
def tiny_geometry() -> FlashGeometry:
    """8 zones x 64 KiB (16 pages of 4 KiB each): fills in milliseconds."""
    return FlashGeometry(
        page_size=4096, pages_per_block=16, num_blocks=8, blocks_per_zone=1
    )


@pytest.fixture
def small_geometry() -> FlashGeometry:
    """16 zones x 256 KiB: enough structure for engine integration tests."""
    return FlashGeometry(
        page_size=4096, pages_per_block=64, num_blocks=16, blocks_per_zone=1
    )


@pytest.fixture
def nemo_test_config() -> NemoConfig:
    """Nemo config matched to the small test geometries."""
    return NemoConfig(
        flush_threshold=4,
        sgs_per_index_group=3,
        bf_capacity_per_set=20,
    )


_TRACE_CACHE: dict[tuple, Trace] = {}


def cached_twitter_trace(num_requests: int, wss_scale: float, seed: int = 0) -> Trace:
    key = (num_requests, wss_scale, seed)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = merged_twitter_trace(
            num_requests=num_requests, wss_scale=wss_scale, seed=seed
        )
    return _TRACE_CACHE[key]


@pytest.fixture
def small_trace() -> Trace:
    """~40k-request merged Twitter trace with a small working set."""
    return cached_twitter_trace(40_000, 1.0 / 2048)


@pytest.fixture
def pressure_trace() -> Trace:
    """Trace whose referenced working set exceeds the small geometries."""
    return cached_twitter_trace(60_000, 1.0 / 512)


@pytest.fixture
def kernel_advances(monkeypatch) -> list[tuple[int, int]]:
    """``(stop, reached)`` of every whole-trace kernel advance.

    Wraps each ``KERNEL_REGISTRY`` entry so the chunk executor it opens
    records its calls: an empty list means no kernel engaged, ``reached
    < stop`` is a bail.
    """
    import repro.harness.columnar as columnar

    calls: list[tuple[int, int]] = []

    def recording(spec):
        def opened(engine, trace, **kwargs):
            advance = spec.replay(engine, trace, **kwargs)

            def recorded(stop):
                reached = advance(stop)
                calls.append((stop, reached))
                return reached

            return recorded

        return dataclasses.replace(spec, replay=opened)

    for engine_type, spec in list(columnar.KERNEL_REGISTRY.items()):
        monkeypatch.setitem(columnar.KERNEL_REGISTRY, engine_type, recording(spec))
    return calls
