"""Synthetic Twitter cache-cluster traces (paper Table 5).

Each :class:`TwitterClusterSpec` carries the published characteristics of
one production cluster: key size, mean value size, working-set size, and
Zipf α.  :func:`generate_cluster_trace` turns a spec into a synthetic
trace at a chosen scale: the working set is scaled down by
``wss_scale`` (the simulated devices are MiB-, not GiB-, sized) while
preserving object sizes and skew, which are what the WA analysis depends
on.

The ``size_scale`` field implements §5.1's protocol: "we downscale object
sizes by 2× and 3× for clusters 14 and 29 … resulting in an average
object size of 246 B".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.workloads.sizes import LogNormalSizeModel
from repro.workloads.trace import OP_GET, OP_SET, Trace
from repro.workloads.zipf import ZipfGenerator

MIB = 1024 * 1024


@dataclass(frozen=True)
class TwitterClusterSpec:
    """Published characteristics of one Twitter cache cluster (Table 5)."""

    name: str
    key_size: int  # bytes
    value_size: int  # mean bytes
    wss_mb: float  # working-set size, MB (paper scale)
    zipf_alpha: float
    #: §5.1 object-size downscale (2x for cluster_14, 3x for cluster_29).
    size_scale: float = 1.0

    @property
    def scaled_object_size(self) -> float:
        """Mean object size after §5.1 downscaling (key + value)."""
        return (self.key_size + self.value_size) / self.size_scale


#: Table 5, with §5.1's downscaling factors applied via ``size_scale``.
TWITTER_CLUSTERS: dict[str, TwitterClusterSpec] = {
    "cluster_14": TwitterClusterSpec("cluster_14", 96, 414, 18333.0, 1.2959, 2.0),
    "cluster_29": TwitterClusterSpec("cluster_29", 36, 799, 40520.0, 1.2323, 3.0),
    "cluster_34": TwitterClusterSpec("cluster_34", 33, 322, 11552.0, 1.1401, 1.0),
    "cluster_52": TwitterClusterSpec("cluster_52", 20, 273, 14057.0, 1.2117, 1.0),
}


def generate_cluster_trace(
    spec: TwitterClusterSpec | str,
    *,
    num_requests: int,
    wss_scale: float = 1.0 / 1024,
    get_fraction: float = 0.97,
    seed: int = 0,
    key_base: int = 0,
    sigma: float = 0.45,
) -> Trace:
    """Generate a synthetic trace for one cluster.

    Parameters
    ----------
    spec:
        A :class:`TwitterClusterSpec` or a name in :data:`TWITTER_CLUSTERS`.
    num_requests:
        Trace length.
    wss_scale:
        Working-set scale factor versus the production cluster.  The
        default (1/1024) turns the multi-GB clusters into multi-MiB ones
        matched to the simulated devices.
    get_fraction:
        Fraction of GET requests (remainder are SETs).  Twitter cache
        clusters are read-dominant.
    seed:
        Deterministic RNG seed.
    key_base:
        Offset added to every key id — the mixer uses this to give each
        cluster a disjoint key space (§5.1).
    sigma:
        Log-space spread of the value-size distribution.
    """
    if isinstance(spec, str):
        try:
            spec = TWITTER_CLUSTERS[spec]
        except KeyError:
            raise TraceError(
                f"unknown cluster {spec!r}; known: {sorted(TWITTER_CLUSTERS)}"
            ) from None
    if num_requests <= 0:
        raise TraceError("num_requests must be positive")
    if not 0.0 <= get_fraction <= 1.0:
        raise TraceError("get_fraction must be in [0, 1]")
    if wss_scale <= 0:
        raise TraceError("wss_scale must be positive")

    mean_obj = spec.scaled_object_size
    wss_bytes = spec.wss_mb * MIB * wss_scale
    num_keys = max(64, int(round(wss_bytes / mean_obj)))

    # Peak rule: the only key-universe-sized array is the Zipf draw's
    # 4-byte-per-key rank-to-key permutation (cluster_29's 4.77M keys at
    # fig08's 1/32 scale: 19 MB).  The CDF and the size table are built a
    # block at a time, and the permutation is gone before the sizes are
    # drawn, so one cluster holds 4 B per key + O(block) + O(num_requests).
    keys = ZipfGenerator(num_keys, spec.zipf_alpha, seed=seed).sample(num_requests)
    rng = np.random.default_rng(seed)
    # Per-key sizes: fixed key size + lognormal value size, then the §5.1
    # downscale applied to the whole object.  Every step is elementwise,
    # so it runs on the sampled keys' sizes, not on the whole table.
    value_model = LogNormalSizeModel(spec.value_size, sigma=sigma, minimum=8)
    values = value_model.sizes_of(keys, num_keys, rng)
    values += spec.key_size
    scaled = np.divide(values, spec.size_scale)
    np.rint(scaled, out=scaled)
    np.maximum(scaled, 16, out=scaled)
    sizes = scaled.astype(np.int64)
    del values, scaled

    ops = np.where(rng.random(num_requests) < get_fraction, OP_GET, OP_SET).astype(
        np.uint8
    )
    keys += key_base
    return Trace(
        ops=ops,
        keys=keys,
        sizes=sizes,
        name=spec.name,
        num_keys=key_base + num_keys,
        meta={
            "cluster": spec.name,
            "zipf_alpha": spec.zipf_alpha,
            "mean_object_size": mean_obj,
            "wss_scale": wss_scale,
            "key_base": key_base,
            "cluster_num_keys": num_keys,
        },
    )
