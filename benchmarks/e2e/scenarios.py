"""The benchmark's four workloads.

Each workload touches the ``workloads``, ``harness``, ``baselines`` /
``core``, ``flash``, ``cluster`` and ``experiments`` layers only through
their public API.  Run discipline shared by all of them:

- inputs come from ``--seed`` (``merged_twitter_trace(seed=)``; arrival
  and class seeds are ``seed+7`` / ``seed+11``); the program only sees
  generated arrays;
- every timed pass builds fresh engines and wraps the same arrays in a
  fresh ``Trace``, so ``Trace.columns()`` and ``trace._kernel_cache``
  are cold — users pay that hashing and decision-pass cost on every
  run, and a warm kernel cache would silently measure a cache hit;
- before timing, each cell replays an untimed 50k-request prefix (the
  first replay in a process is otherwise ~20 % slower);
- load is generated from one process; the only parallel workload uses
  exactly 2 workers, never ``default_jobs()``.

Why these four (the README has the full interaction table):

``fig12_wa``       cache smaller than the working set, batched lane:
                   engine bulk paths + flash are ~95 % of wall.
``columnar_fill``  working set fits, columnar lane: the whole-trace
                   kernels are ~100 % of wall, engine bulk paths 0 —
                   the mirror image of ``fig12_wa``.
``fig15_qos``      the same engines used differently: per-GET latency
                   recording and scalar ops under a device model, the
                   devsim event loop and the frontend scheduler.
``figures_micro``  what a user waits on: every registered experiment
                   pooled over 2 spawn workers.
"""

from __future__ import annotations

import gc
import json
import math
import resource
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Mapping

import drive
from spans import NULL, SpanRecorder

from repro.baselines.fairywren import FairyWrenCache
from repro.baselines.log_structured import LogStructuredCache
from repro.cluster import CacheCluster, ClusterConfig
from repro.core.nemo import NemoCache
from repro.experiments.common import (
    geometry,
    nemo_config,
    scale_params,
    standard_geometry,
)
from repro.experiments.fig12_wa_main import PAPER_WA, build_engines
from repro.experiments.fig15_tail import (
    ARRIVAL_RATE_RPS,
    CLASS_NAMES,
    CLASS_SHARES,
    QUEUE_DEPTH,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    run_experiment,
    run_experiments,
)
from repro.flash import LatencyModel
from repro.flash.devsim import make_latency_model
from repro.harness.closed_loop import replay_closed_loop
from repro.harness.runner import replay
from repro.workloads.arrivals import assign_classes, bursty_arrivals
from repro.workloads.mixer import merged_twitter_trace
from repro.workloads.trace import OP_GET, Trace

#: The experiments' trace scale (``experiments.common.twitter_trace``).
WSS_SCALE = 1.0 / 128
WARMUP_REQUESTS = 50_000
#: Workers of the one parallel workload (this box has 2 cores).
POOL_JOBS = 2

ENGINE_MODULES = {
    "Log": "baselines.log_structured",
    "Set": "baselines.set_associative",
    "FW": "baselines.fairywren",
    "KG": "baselines.kangaroo",
    "Nemo": "core.nemo",
}
BULK_OPS = ("lookup_many", "insert_many", "delete_many")
SCALAR_OPS = ("lookup", "insert", "delete")

Totals = Mapping[tuple[str, str], Mapping[str, float]]


def cpu_seconds() -> float:
    """User+sys CPU of this process and its waited-for children, so
    wall bought with extra cores shows."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


@dataclass
class Cell:
    """Outcome of one cell of one pass."""

    name: str
    #: Units attempted: requests of a replay cell, 1 for an experiment.
    requests: int
    #: ``engine.metrics_snapshot()`` at end of trace (empty for experiments).
    final: dict[str, float]
    #: Simulated outputs beyond the snapshot (percentiles, bits/object...).
    sim: dict[str, Any]

    def fingerprint(self) -> str:
        """Every simulated output, as text: equal iff bit-identical."""
        return json.dumps([self.requests, self.final, self.sim], sort_keys=True)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    cells: list[Cell]

    def cell(self, name: str) -> Cell:
        return next(c for c in self.cells if c.name == name)


def check_replay_cell(cell: Cell, num_requests: int, num_gets: int) -> list[str]:
    """Accounting checks every replay cell must pass (no pinned golden
    values, so a model-fidelity change is not blocked by the benchmark)."""
    f = cell.final
    problems = []
    if cell.requests != num_requests:
        problems.append(f"replayed {cell.requests} of {num_requests} requests")
    if f["lookups"] != num_gets:
        problems.append(f"lookups {f['lookups']} != GETs {num_gets}")
    if f["hits"] > f["lookups"]:
        problems.append("hits exceed lookups")
    if f["flash_write_bytes"] < f["host_write_bytes"]:
        problems.append("flash bytes written below host bytes written")
    if not math.isfinite(f["wa"]):
        problems.append(f"write amplification is {f['wa']}")
    return problems


def engine_sim(engine: Any) -> dict[str, float]:
    """Simulated outputs the metrics snapshot does not carry."""
    return {
        "read_amp": engine.stats.read_amplification,
        "mem_bits": engine.memory_overhead_bits_per_object(),
    }


def wrap_ops(rec: SpanRecorder, engine: object, ops: tuple[str, ...]) -> None:
    for op in ops:
        rec.wrap(engine, op, f"engine.{op}", count_items=op in BULK_OPS)
    rec.wrap(engine, "metrics_snapshot", "engine.metrics_snapshot")


def engine_time(totals: Totals, cell: str, ops: tuple[str, ...]) -> tuple[float, float]:
    """(read-path seconds, write-path seconds) spent in a cell's wrapped
    engine ops.  GET runs admit on a miss, so the read path carries the
    read-through inserts; the write path is explicit SETs and DELETEs."""
    spent = [totals[cell, f"engine.{op}"]["total_s"] for op in ops]
    return spent[0], spent[1] + spent[2]


def generate_metrics(totals: Totals, num_requests: int) -> dict[str, float]:
    gen = totals["setup", "workloads.generate"]["total_s"]
    return {
        "workloads.generate_s": gen,
        "workloads.generate_mreq_per_s": num_requests / gen / 1e6,
    }


def flash_counts(engine_label: str, cell: Cell, page_size: int) -> dict[str, float]:
    f = cell.final
    return {
        f"flash.stats.flash_write_pages.{engine_label}": f["flash_write_bytes"] / page_size,
        f"flash.stats.erase_ops.{engine_label}": f["erase_ops"],
        f"flash.stats.gc_relocated_pages.{engine_label}": f["gc_relocated_pages"],
        f"sim_wa.{engine_label}": f["wa"],
    }


def paper_log_err(wa: Mapping[str, float]) -> float:
    """Mean over engines of ``abs(log10(WA / paper WA))``: the
    simulator's error against the paper's reference points."""
    return sum(abs(math.log10(wa[e] / PAPER_WA[e])) for e in wa) / len(wa)


class Workload:
    """What ``run.py`` drives: set up once, then timed passes."""

    name = ""
    seed_note = "inputs generated from --seed"

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick

    def setup(self, rec: SpanRecorder = NULL) -> None:
        raise NotImplementedError

    def run_cells(self, rec: SpanRecorder) -> list[Cell]:
        raise NotImplementedError

    def run_pass(self, rec: SpanRecorder = NULL) -> Pass:
        gc.collect()
        cpu0, t0 = cpu_seconds(), perf_counter()
        with rec.span("pass", cell="pass"):
            cells = self.run_cells(rec)
        return Pass(perf_counter() - t0, cpu_seconds() - cpu0, cells)

    def check_cell(self, cell: Cell) -> list[str]:
        """Problems with one cell's outputs."""
        return []

    def after_passes(self, passes: list[Pass], rec: SpanRecorder = NULL) -> dict[str, list[str]]:
        """Checks that need further (untimed) replays; cell -> problems."""
        return {}

    def headline(self, p: Pass) -> dict[str, float]:
        """The simulated end-to-end metrics."""
        raise NotImplementedError

    def trace_extras(self, rec: SpanRecorder) -> dict[str, float]:
        """Traced-only cells (never part of an end-to-end metric)."""
        return {}

    def layer_metrics(self, totals: Totals, rec: SpanRecorder, p: Pass) -> dict[str, float]:
        raise NotImplementedError


class ReplayWorkload(Workload):
    """Shared set-up, cells and checks of the three replay workloads."""

    cell_names: tuple[str, ...] = ()
    #: The cell whose engine supplies the Nemo headline metrics.
    nemo_cell = "Nemo"
    full_requests = 0

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.num_requests = self.full_requests // 10 if quick else self.full_requests

    # -- set-up ---------------------------------------------------------
    def setup(self, rec: SpanRecorder = NULL) -> None:
        with rec.span("workloads.generate", cell="setup"):
            trace = merged_twitter_trace(
                num_requests=self.num_requests, wss_scale=WSS_SCALE, seed=self.seed
            )
        self.ops, self.keys, self.sizes = trace.ops, trace.keys, trace.sizes
        self.num_gets = int((self.ops == OP_GET).sum())
        self.setup_inputs(rec)
        warm = min(WARMUP_REQUESTS // 10 if self.quick else WARMUP_REQUESTS, self.num_requests)
        with rec.span("warmup", cell="setup"):
            for name in self.cell_names:
                self.run_cell(name, NULL, limit=warm)

    def setup_inputs(self, rec: SpanRecorder) -> None:
        """Further generated inputs (arrival processes)."""

    def fresh_trace(self, limit: int | None = None) -> Trace:
        """The same arrays in a new ``Trace``: cold column/kernel caches."""
        return Trace(
            ops=self.ops[:limit], keys=self.keys[:limit], sizes=self.sizes[:limit]
        )

    # -- passes ---------------------------------------------------------
    def run_cell(self, name: str, rec: SpanRecorder, limit: int | None = None) -> Cell:
        raise NotImplementedError

    def run_cells(self, rec: SpanRecorder) -> list[Cell]:
        return [self.run_cell(name, rec) for name in self.cell_names]

    # -- checks and headline numbers -------------------------------------
    def check_cell(self, cell: Cell) -> list[str]:
        return check_replay_cell(cell, self.num_requests, self.num_gets)

    def headline(self, p: Pass) -> dict[str, float]:
        nemo = p.cell(self.nemo_cell)
        total = sum(c.requests for c in p.cells)
        return {
            "nemo_wa": nemo.final["wa"],
            "nemo_mem_bits_per_obj": nemo.sim["mem_bits"],
            "miss_ratio": sum(c.final["miss_ratio"] * c.requests for c in p.cells) / total,
        }


class Fig12WA(ReplayWorkload):
    """The five Table-4 engines on a device smaller than the working
    set, batched lane, no latency model (the paper's headline figure at
    the repo's ``small`` scale: 12 MiB device, 250k requests)."""

    name = "fig12_wa"
    cell_names = tuple(PAPER_WA)

    def __init__(self, seed: int, quick: bool) -> None:
        self.geometry, self.full_requests = scale_params("small")
        super().__init__(seed, quick)

    def run_cell(self, name: str, rec: SpanRecorder, limit: int | None = None) -> Cell:
        # The public helper builds all five (4 ms); one is kept per cell.
        with rec.span("experiments.build_engines", cell=name):
            engine = build_engines(self.geometry)[self.cell_names.index(name)]
        if engine.name != name:
            raise RuntimeError(f"build_engines order changed: {engine.name} at {name}")
        wrap_ops(rec, engine, BULK_OPS)
        with rec.span("harness.runner.replay", cell=name):
            result = replay(engine, self.fresh_trace(limit), kernel="batched")
        return Cell(name, result.num_requests, result.final, engine_sim(engine))

    def trace_extras(self, rec: SpanRecorder) -> dict[str, float]:
        if self.quick:
            return {}
        return {**drive.ftl(self.seed), **drive.zns()}

    def layer_metrics(self, totals: Totals, rec: SpanRecorder, p: Pass) -> dict[str, float]:
        m = generate_metrics(totals, self.num_requests)
        bulk_calls = 0
        build_s = 0.0
        for cell in p.cells:
            e = cell.name
            span = totals[e, "harness.runner.replay"]
            read_s, write_s = engine_time(totals, e, BULK_OPS)
            pages = cell.final["flash_write_bytes"] / self.geometry.page_size
            m[f"harness.runner.replay_s.{e}"] = span["total_s"]
            m[f"harness.runner.self_s.{e}"] = span["self_s"]
            m[f"{ENGINE_MODULES[e]}.lookup_s"] = read_s
            m[f"{ENGINE_MODULES[e]}.insert_s"] = write_s
            m[f"flash.host_us_per_page.{e}"] = (read_s + write_s) * 1e6 / pages
            m.update(flash_counts(e, cell, self.geometry.page_size))
            bulk_calls += sum(totals[e, f"engine.{op}"]["calls"] for op in BULK_OPS)
            build_s += totals[e, "experiments.build_engines"]["total_s"]
        m["harness.runner.bulk_calls"] = bulk_calls
        m["experiments.build_engines_s"] = build_s
        m["wa_paper_log_err"] = paper_log_err({c.name: c.final["wa"] for c in p.cells})
        m["nemo_read_amp"] = p.cell("Nemo").sim["read_amp"]
        return m


class ColumnarFill(ReplayWorkload):
    """Log and Nemo on the columnar lane with a device the working set
    fits in, so the whole-trace kernels never bail."""

    name = "columnar_fill"
    cell_names = ("Log", "Nemo")
    full_requests = 1_200_000
    fit_geometry = geometry(256)

    def build(self, name: str, geom: Any) -> Any:
        if name == "Log":
            return LogStructuredCache(geom)
        return NemoCache(geom, nemo_config())

    def run_cell(
        self,
        name: str,
        rec: SpanRecorder,
        limit: int | None = None,
        *,
        kernel: str = "columnar",
        geom: Any = None,
        label: str | None = None,
    ) -> Cell:
        """``label`` names the span cell of the untimed variants
        (``Log/batched``, ``Log/wrap``) so their spans and item counts
        stay apart from the timed cell's."""
        engine = self.build(name, geom or self.fit_geometry)
        wrap_ops(rec, engine, BULK_OPS)
        span = "harness.columnar.replay" if kernel == "columnar" else "harness.runner.replay"
        with rec.span(span, cell=label or name):
            result = replay(engine, self.fresh_trace(limit), kernel=kernel)
        return Cell(name, result.num_requests, result.final, engine_sim(engine))

    def after_passes(self, passes: list[Pass], rec: SpanRecorder = NULL) -> dict[str, list[str]]:
        """The repo's lane-parity invariant: columnar finals == batched
        finals (also yields ``harness.columnar.over_batched``)."""
        problems = {}
        for name in self.cell_names:
            batched = self.run_cell(name, rec, kernel="batched", label=f"{name}/batched")
            if batched.fingerprint() != passes[0].cell(name).fingerprint():
                problems[name] = ["columnar finals differ from batched finals"]
        return problems

    def trace_extras(self, rec: SpanRecorder) -> dict[str, float]:
        # The wrap regime: same trace on the 24 MiB device, where the
        # kernels bail to the batched lane at the first eviction.
        for name in self.cell_names:
            self.run_cell(name, rec, geom=standard_geometry(), label=f"{name}/wrap")
        nemo = self.build("Nemo", self.fit_geometry)
        trace = self.fresh_trace()
        with rec.span("workloads.columns", cell="Nemo"):
            trace.columns(*nemo.columnar_spec())
        return {} if self.quick else drive.splitmix(self.keys)

    def layer_metrics(self, totals: Totals, rec: SpanRecorder, p: Pass) -> dict[str, float]:
        m = generate_metrics(totals, self.num_requests)
        for cell in p.cells:
            e = cell.name
            span = totals[e, "harness.columnar.replay"]
            m[f"harness.columnar.replay_s.{e}"] = span["total_s"]
            m[f"harness.columnar.self_s.{e}"] = span["self_s"]
            m[f"harness.columnar.bail_share.{e}"] = self.bail_share(rec, e)
            m[f"harness.columnar.over_batched.{e}"] = (
                totals[f"{e}/batched", "harness.runner.replay"]["total_s"] / span["total_s"]
            )
            m[f"harness.columnar.wrap_replay_s.{e}"] = totals[
                f"{e}/wrap", "harness.columnar.replay"
            ]["total_s"]
            m[f"harness.columnar.wrap_bail_share.{e}"] = self.bail_share(rec, f"{e}/wrap")
            m.update(flash_counts(e, cell, self.fit_geometry.page_size))
        m["workloads.columns_s.Nemo"] = totals["Nemo", "workloads.columns"]["total_s"]
        m["nemo_read_amp"] = p.cell("Nemo").sim["read_amp"]
        return m

    def bail_share(self, rec: SpanRecorder, cell: str) -> float:
        """Requests that reached the engine's bulk calls / n: they were
        decided twice, so their share of the decision pass was wasted."""
        reached = sum(rec.items[cell, f"engine.{op}"] for op in BULK_OPS)
        return reached / self.num_requests


class Fig15QoS(ReplayWorkload):
    """Nemo and FW at ``small`` scale replayed open-loop with per-GET
    latency recording on the analytic lane, then Nemo closed-loop on the
    event lane with fig15_tail's bursty two-class arrivals.  FW's
    closed-loop cell (4 s) runs in the traced run only, so that three
    timed passes fit in a run."""

    name = "fig15_qos"
    cell_names = ("Nemo/open", "FW/open", "Nemo/closed")
    traced_only_cell = "FW/closed"
    nemo_cell = "Nemo/open"

    def __init__(self, seed: int, quick: bool) -> None:
        self.geometry, self.full_requests = scale_params("small")
        super().__init__(seed, quick)

    def setup_inputs(self, rec: SpanRecorder) -> None:
        with rec.span("workloads.arrivals", cell="setup"):
            self.arrival_us = bursty_arrivals(
                self.num_requests, ARRIVAL_RATE_RPS, seed=self.seed + 7
            )
            self.class_ids = assign_classes(
                self.num_requests, CLASS_SHARES, seed=self.seed + 11
            )

    def build(self, system: str, latency: LatencyModel) -> Any:
        if system == "Nemo":
            return NemoCache(self.geometry, nemo_config(), latency=latency)
        return FairyWrenCache(
            self.geometry, log_fraction=0.05, op_ratio=0.05, latency=latency
        )

    def run_cell(self, name: str, rec: SpanRecorder, limit: int | None = None) -> Cell:
        system, loop = name.split("/")
        trace = self.fresh_trace(limit)
        n = len(trace)
        if loop == "open":
            engine = self.build(system, LatencyModel(num_channels=8))
            wrap_ops(rec, engine, BULK_OPS)
            with rec.span("harness.runner.latency_replay", cell=name):
                result = replay(engine, trace, record_latency=True, mark_window_at=n // 2)
            with rec.span("harness.percentile.window", cell=name):
                after = result.latency.window_percentiles([99.0, 99.99])[1]
            sim = {"get_p99_us": after[99.0], "get_p9999_us": after[99.99]}
        else:
            engine = self.build(system, make_latency_model("event", num_channels=8))
            wrap_ops(rec, engine, SCALAR_OPS)
            with rec.span("harness.closed_loop.replay", cell=name):
                result = replay_closed_loop(
                    engine,
                    trace,
                    arrival_us=self.arrival_us[:limit],
                    class_ids=self.class_ids[:limit],
                    class_names=CLASS_NAMES,
                    queue_depth=QUEUE_DEPTH,
                )
            with rec.span("harness.percentile.window", cell=name):
                after = result.class_percentiles(
                    [99.0, 99.9], window=(n // 2, n), class_id=0, get_only_ops=trace.ops
                )
            sim = {
                "sojourn_p99_us": after[99.0],
                "sojourn_p999_us": after[99.9],
                "events_fired": result.events_fired,
            }
        return Cell(name, result.num_requests, result.final, {**sim, **engine_sim(engine)})

    def trace_extras(self, rec: SpanRecorder) -> dict[str, float]:
        self.fw_closed = self.run_cell(self.traced_only_cell, rec)
        return {} if self.quick else drive.latency_lanes(self.seed)

    def layer_metrics(self, totals: Totals, rec: SpanRecorder, p: Pass) -> dict[str, float]:
        m = generate_metrics(totals, self.num_requests)
        m["workloads.arrivals_s"] = totals["setup", "workloads.arrivals"]["total_s"]
        window_s = 0.0
        for cell in (*p.cells, self.fw_closed):
            system, loop = cell.name.split("/")
            window_s += totals[cell.name, "harness.percentile.window"]["total_s"]
            if loop == "open":
                span = totals[cell.name, "harness.runner.latency_replay"]
                read_s, _ = engine_time(totals, cell.name, BULK_OPS)
                m[f"harness.runner.latency_replay_s.{system}"] = span["total_s"]
                m[f"{ENGINE_MODULES[system]}.latency_lookup_s"] = read_s
                m.update(flash_counts(system, cell, self.geometry.page_size))
            else:
                span = totals[cell.name, "harness.closed_loop.replay"]
                service_s = sum(engine_time(totals, cell.name, SCALAR_OPS))
                m[f"harness.closed_loop.replay_s.{system}"] = span["total_s"]
                m[f"harness.closed_loop.events_per_s.{system}"] = (
                    cell.sim["events_fired"] / span["total_s"]
                )
                m[f"harness.closed_loop.service_s.{system}"] = service_s
                m[f"harness.closed_loop.frontend_self_s.{system}"] = span["self_s"]
        m["harness.percentile.window_s"] = window_s
        nemo_open, nemo_closed = p.cell("Nemo/open"), p.cell("Nemo/closed")
        m["sim_get_p99_us"] = nemo_open.sim["get_p99_us"]
        m["sim_get_p9999_us"] = nemo_open.sim["get_p9999_us"]
        m["sim_sojourn_p99_us"] = nemo_closed.sim["sojourn_p99_us"]
        m["sim_sojourn_p999_us"] = nemo_closed.sim["sojourn_p999_us"]
        m["sim_fw_sojourn_p99_us"] = self.fw_closed.sim["sojourn_p99_us"]
        m["nemo_read_amp"] = nemo_open.sim["read_amp"]
        return m


class FiguresMicro(Workload):
    """``run_experiments`` over every registered experiment at ``micro``
    scale, pooled over 2 spawn workers: the only workload that pays
    spawn, per-worker trace regeneration, cell pickling and ``assemble``,
    and the only one reaching the cluster, analysis and sweep paths."""

    name = "figures_micro"
    scale = "micro"
    quick_ids = ("fig12", "fig16", "table6", "appendixA")
    #: The registry exposes no seed, so this workload's inputs are fixed.
    seed_note = "seed-independent by construction (the registry exposes no seed)"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.ids = list(self.quick_ids if quick else EXPERIMENTS)

    def setup(self, rec: SpanRecorder = NULL) -> None:
        for exp_id in self.ids:
            get_experiment(exp_id)

    def run_cells(self, rec: SpanRecorder) -> list[Cell]:
        with rec.span("harness.parallel.pool", cell="pool"):
            results = run_experiments(self.ids, scale=self.scale, jobs=POOL_JOBS)
        return [
            Cell(exp_id, 1, {}, self.outputs(exp_id, result))
            for exp_id, result in zip(self.ids, results)
        ]

    @staticmethod
    def outputs(exp_id: str, result: Any) -> dict[str, Any]:
        if exp_id == "cluster":
            # Its table prints critical-path capacity, a host-time number.
            return {
                "grid": {
                    "/".join(map(str, k)): [v["wa"], v["miss"]]
                    for k, v in result.grid.items()
                }
            }
        out: dict[str, Any] = {"text": result.format()}
        if exp_id == "fig12":
            out["rows"] = {r["engine"]: r for r in result.main_rows}
        return out

    def headline(self, p: Pass) -> dict[str, float]:
        rows = p.cell("fig12").sim["rows"]
        return {
            "nemo_wa": rows["Nemo"]["wa"],
            "nemo_mem_bits_per_obj": rows["Nemo"]["mem_bits"],
            "miss_ratio": sum(r["miss"] for r in rows.values()) / len(rows),
        }

    def trace_extras(self, rec: SpanRecorder) -> dict[str, float]:
        for exp_id in self.ids:
            with rec.span("experiments.run", cell=exp_id):
                run_experiment(exp_id, scale=self.scale, jobs=1)
        # One 4-shard metered Nemo replay of the small-scale trace.
        self.cluster_requests = scale_params("small")[1] // (10 if self.quick else 1)
        with rec.span("workloads.generate", cell="setup"):
            trace = merged_twitter_trace(
                num_requests=self.cluster_requests, wss_scale=WSS_SCALE, seed=self.seed
            )
        cluster = CacheCluster(ClusterConfig(num_shards=4, engine="nemo", seed=self.seed))
        with rec.span("cluster.route", cell="cluster"):
            cluster.route_trace(trace)
        with rec.span("cluster.replay", cell="cluster"):
            result = cluster.replay(trace, jobs=POOL_JOBS)
        return {
            "cluster.shard_sum_s": sum(result.shard_wall_seconds),
            "cluster.capacity_rps": result.capacity_requests_per_sec,
        }

    def layer_metrics(self, totals: Totals, rec: SpanRecorder, p: Pass) -> dict[str, float]:
        pool_s = totals["pool", "harness.parallel.pool"]["total_s"]
        serial = {i: totals[i, "experiments.run"]["total_s"] for i in self.ids}
        m = generate_metrics(totals, self.cluster_requests)
        m.update({f"experiments.wall_s.{i}": s for i, s in serial.items()})
        m["harness.parallel.pool_wall_s"] = pool_s
        m["harness.parallel.serial_sum_s"] = sum(serial.values())
        m["harness.parallel.pool_efficiency"] = sum(serial.values()) / (POOL_JOBS * pool_s)
        m["cluster.route_s"] = totals["cluster", "cluster.route"]["total_s"]
        m["cluster.replay_s"] = totals["cluster", "cluster.replay"]["total_s"]
        rows = p.cell("fig12").sim["rows"]
        wa = {e: row["wa"] for e, row in rows.items()}
        m.update({f"sim_wa.{e}": v for e, v in wa.items()})
        m["wa_paper_log_err"] = paper_log_err(wa)
        m["nemo_read_amp"] = rows["Nemo"]["read_amp"]
        return m


WORKLOADS = {w.name: w for w in (Fig12WA, ColumnarFill, Fig15QoS, FiguresMicro)}
