"""Benchmark of the gnnase pipeline: the train and diagnose workloads.

Run from the repository root, one workload per process:

    python3 benchmark/run.py --workload train --seed 1 --seconds 6 --trace 0

The package is imported from ``src/`` of the same checkout and driven only
through its public functions and its in-process command line
(``gnnase.cli.main``). Scratch data lives under ``.bench_tmp/`` and is
deleted when the run ends; traced runs leave their spans in ``.bench_out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
self times, call counts and work counts of the workload's main segment,
taken from a traced repeat of it, plus the tracing overhead.

See README.md in this directory for what each workload does and why.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("train", "diagnose")

# Training length is the run length: ten epochs per second of --seconds.
EPOCHS_PER_SECOND = 10
# A diagnose round: the whole condition grid (25 faults x 4 loads), three
# of every four recordings 1 s long and one 4 s long.
SHORT_S, LONG_S = 1.0, 4.0
# The diagnose main segment: this many rounds of the grid, 200 requests.
DIAGNOSE_ROUNDS = 2
# Side latency probe: four recordings (three 1 s, one 4 s) sent 25 times.
PROBE_REPEATS = 25
# The diagnose workload trains on the default catalog, seed 0; its healthy
# requests come from this fixed catalog seed, its faulty ones from --seed.
TRAIN_CATALOG_SEED = 0
HEALTHY_CATALOG_SEED = 1

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "ingest_recordings_per_s": "1/s",
    "dataset_mb": "MB",
    "checkpoint_kb": "KB",
    "diagnose_ms_p50": "ms",
    "diagnose_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
TRACE_TOTALS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.outside_spans_s": "s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package to import)."""


def import_package():
    """Import gnnase from this checkout's src/, never from elsewhere."""
    init = SRC / "gnnase" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no package at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import gnnase

    if Path(gnnase.__file__).resolve() != init.resolve():
        raise SetupError(f"gnnase was imported from {gnnase.__file__}, not from src/")


@dataclass
class Ops:
    """Operations of the measured segments: each in-process command is one."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Request:
    name: str
    fault: object
    load: float
    duration: float
    seed: int
    path: Path | None = None
    recording: object = None


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        from gnnase import config, simulate

        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.epochs = EPOCHS_PER_SECOND * seconds
        self.defaults = config.RunConfig()
        self.noise = self.defaults.noise_snr_db
        self.pipeline = self.defaults.pipeline()
        self.simulate = simulate
        self.ops = Ops()
        self.metrics: dict[str, float] = {}
        self.tmp = ROOT / ".bench_tmp" / f"{workload}-{seed}-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=False)

    # ------------------------------------------------------------ commands

    def gnnase(self, *argv, counted=True) -> tuple[str | None, float]:
        """One in-process command: (stdout, or None when it failed; wall s)."""
        from gnnase import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main([str(a) for a in argv])
            except Exception:  # a crash is a failed operation, not a lost run
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
        if counted:
            self.ops.attempted += 1
        if code != 0:
            sys.stderr.write(f"gnnase {argv[0]} exited {code}: {err.getvalue()}")
            if counted:
                self.ops.failed += 1
            else:
                raise RuntimeError(f"set-up command gnnase {argv[0]} failed")
            return None, wall
        return out.getvalue(), wall

    def write_config(self, epochs: int) -> Path:
        path = self.tmp / f"config-{epochs}.json"
        path.write_text(json.dumps({"model": {"epochs": epochs}}))
        return path

    def train(self, dataset: Path, seed: int, epochs: int, counted=True):
        out = self.tmp / f"run-{epochs}"
        checkpoint = out / "model.json"
        _, wall = self.gnnase(
            "train", "--config", self.write_config(epochs), "--seed", seed,
            "--dataset", dataset, "--out", out, "--checkpoint", checkpoint, "--quiet",
            counted=counted,
        )
        return out, checkpoint, wall

    def ingest(self, dataset: Path, seed: int, counted=True):
        """simulate -> load_catalog -> split -> featurize_splits: (recordings, splits, featurized, wall)."""
        from gnnase import evaluate

        config = replace(self.defaults, seed=seed)
        start = time.perf_counter()
        self.gnnase("simulate", "--seed", seed, "--out", dataset, "--quiet", counted=counted)
        recordings, _, _ = self.simulate.load_catalog(dataset)
        splits = evaluate.split(recordings, config.ratios, seed=config.split_seed())
        featurized = evaluate.featurize_splits(splits, self.pipeline)
        return recordings, splits, featurized, time.perf_counter() - start

    # ------------------------------------------------------------ requests

    def requests(self, faulty_seed: int) -> list[Request]:
        """The condition grid as diagnose requests, one per fault and load."""
        from gnnase.numerics import derive_seed

        out = []
        for fi, fault in enumerate(self.simulate.catalog_faults()):
            for li, load in enumerate(self.simulate.LOAD_GRID):
                name = f"{fault.name()}-load{round(load)}"
                catalog = HEALTHY_CATALOG_SEED if fault.kind == "healthy" else faulty_seed
                out.append(
                    Request(
                        name=name,
                        fault=fault,
                        load=load,
                        duration=LONG_S if (fi + li) % 4 == 3 else SHORT_S,
                        seed=derive_seed(catalog, "recording", name),
                    )
                )
        return out

    def materialize(self, requests: list[Request]) -> None:
        """Synthesize each request's recording and write it as a CSV."""
        sim = self.simulate
        (self.tmp / "requests").mkdir(exist_ok=True)
        for req in requests:
            machine = sim.MachineSpec(duration=req.duration)
            req.recording = sim.synthesize(
                machine, sim.OperatingPoint.from_load(req.load), req.fault, self.noise, req.seed
            )
            req.path = self.tmp / "requests" / f"{req.name}.csv"
            write_csv(req.path, req.recording, sim.CHANNEL_NAMES)

    def probe_requests(self) -> list[Request]:
        """Three 1 s and one 4 s faulty recording, picked by the seed."""
        import numpy as np

        from gnnase.numerics import derive_seed

        grid = [r for r in self.requests(derive_seed(self.seed, "bench", "probe")) if r.fault.is_faulty]
        rng = np.random.default_rng(self.seed)
        short = [r for r in grid if r.duration == SHORT_S]
        long = [r for r in grid if r.duration == LONG_S]
        picked = [short[i] for i in rng.choice(len(short), 3, replace=False)]
        picked.append(long[int(rng.integers(len(long)))])
        self.materialize(picked)
        return picked

    def diagnose_rounds(self, requests, checkpoint, rounds, labelled=False):
        """Closed loop, one client: ``rounds`` whole rounds over ``requests``.

        Returns (latencies in ms, responses by request name).
        """
        latencies, responses = [], {}
        for _ in range(rounds):
            for req in requests:
                out, wall = self.gnnase("diagnose", req.path, "--checkpoint", checkpoint, "--quiet")
                latencies.append(wall * 1e3)
                response = parse_json(out)
                if response is None:
                    if out is not None:
                        self.ops.failed += 1
                    continue
                responses.setdefault(req.name, []).append(response)
                if labelled and (response.get("decision") != "healthy") != req.fault.is_faulty:
                    self.ops.failed += 1
        return latencies, responses

    # ------------------------------------------------------------ tracing

    def measured(self, segment):
        """Run the main segment; when tracing, again under spans.

        ``segment(repeat)`` returns a dict with its ``wall`` time; ``repeat``
        is None on the first call and that call's result on the traced one,
        so both passes do the same work.
        """
        first = segment(None)
        if not self.trace:
            return first
        from spans import Tracer, root_time, self_times, summarize

        tracer = Tracer()
        with tracer.installed():
            second = segment(first)
        untraced, traced = first["wall"], second["wall"]
        layers = summarize(tracer.spans, tracer.counts)
        outside = traced - root_time(tracer.spans)
        total = sum(self_times(tracer.spans)) + outside
        if abs(total - traced) > 1e-6:
            raise RuntimeError(f"self times add up to {total} s, traced wall is {traced} s")
        self.metrics.update(layers)
        self.metrics.update(
            {
                "trace.untraced_wall_s": untraced,
                "trace.traced_wall_s": traced,
                "trace.overhead_s": traced - untraced,
                "trace.outside_spans_s": outside,
            }
        )
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"spans-{self.workload}-seed{self.seed}.json").write_text(
            json.dumps([[s.name, s.start, s.end, s.parent] for s in tracer.spans])
        )
        return second

    # ------------------------------------------------------------ workloads

    def run_train(self):
        import checks

        probe = None if self.trace else self.probe_requests()
        self.metrics["setup_s"] = time.perf_counter() - PROCESS_START

        def segment(repeat):
            dataset = self.tmp / "dataset"
            if repeat is not None:
                shutil.rmtree(dataset)
            start = time.perf_counter()
            recordings, splits, featurized, ingest_wall = self.ingest(dataset, self.seed)
            out, checkpoint, train_wall = self.train(dataset, self.seed, self.epochs)
            return {
                "wall": time.perf_counter() - start,
                "ingest_wall": ingest_wall, "train_wall": train_wall,
                "dataset": dataset, "size": tree_bytes(dataset),
                "catalog": recordings, "splits": splits, "featurized": featurized,
                "out": out, "checkpoint": checkpoint,
            }

        result = self.measured(segment)
        checks.ingest_outputs(self, result)
        checks.train_outputs(self, result["out"], result["checkpoint"])
        if not self.trace:
            n_ingested = len(result.pop("catalog"))
            del result["splits"], result["featurized"]
            self.metrics["train_s"] = result["train_wall"]
            self.metrics["dataset_mb"] = result["size"] / 1e6
            self.metrics["checkpoint_kb"] = result["checkpoint"].stat().st_size / 1e3
            # Side segments: the latency probe in two halves around a second
            # ingest round, so that the rate and the percentiles each average
            # over two stretches of machine speed.
            half = PROBE_REPEATS // 2
            latencies = self.probe(probe, result["checkpoint"], half)
            more, _, _, wall = self.ingest(self.tmp / "dataset-again", self.seed)
            latencies += self.probe(probe, result["checkpoint"], PROBE_REPEATS - half)
            self.metrics["diagnose_ms_p50"], self.metrics["diagnose_ms_p90"] = percentiles(latencies)
            self.metrics["ingest_recordings_per_s"] = (
                (n_ingested + len(more)) / (result["ingest_wall"] + wall)
            )

    def run_diagnose(self):
        import checks

        from gnnase.numerics import derive_seed

        dataset = self.tmp / "dataset"
        recordings, _, _, ingest_wall = self.ingest(dataset, TRAIN_CATALOG_SEED, counted=False)
        n_ingested = len(recordings)
        del recordings
        _, checkpoint, train_wall = self.train(dataset, TRAIN_CATALOG_SEED, self.epochs, counted=False)
        requests = self.requests(derive_seed(self.seed, "bench", "requests"))
        self.materialize(requests)
        self.metrics["setup_s"] = time.perf_counter() - PROCESS_START

        def segment(_):
            start = time.perf_counter()
            latencies, responses = self.diagnose_rounds(
                requests, checkpoint, DIAGNOSE_ROUNDS, labelled=True
            )
            return {
                "wall": time.perf_counter() - start, "latencies": latencies,
                "responses": responses,
            }

        result = self.measured(segment)
        checks.diagnose_outputs(self, requests, result["responses"], checkpoint, graded=True)
        if not self.trace:
            self.metrics["diagnose_ms_p50"], self.metrics["diagnose_ms_p90"] = percentiles(
                result["latencies"]
            )
            self.metrics["train_s"] = train_wall
            self.metrics["checkpoint_kb"] = checkpoint.stat().st_size / 1e3
            self.metrics["dataset_mb"] = tree_bytes(dataset) / 1e6
            # Side segment: a second ingest round at the end of the run, so
            # the rate averages over two stretches of machine speed.
            more, _, _, wall = self.ingest(self.tmp / "dataset-again", TRAIN_CATALOG_SEED)
            self.metrics["ingest_recordings_per_s"] = (n_ingested + len(more)) / (ingest_wall + wall)

    def probe(self, requests, checkpoint, repeats) -> list[float]:
        """Side segment: each probe request sent ``repeats`` times in turn; latencies in ms."""
        import checks

        latencies, responses = self.diagnose_rounds(requests * repeats, checkpoint, 1)
        checks.diagnose_outputs(self, requests, responses, checkpoint, graded=False)
        return latencies

    def run(self) -> dict:
        getattr(self, f"run_{self.workload}")()
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = layer_units() if self.trace else END_TO_END
        return {name: {"value": self.metrics[name], "unit": unit} for name, unit in wanted.items()}


# ---------------------------------------------------------------- helpers


def write_csv(path: Path, recording, channels) -> None:
    """Recording CSV as ``diagnose`` reads it: t plus channels, repr floats."""
    import numpy as np

    t = np.arange(recording.n_samples) / recording.sample_rate
    table = np.column_stack([t] + [recording.channels[c] for c in channels])
    fields = map(repr, table.ravel().tolist())
    with open(path, "w") as fh:
        fh.write("t," + ",".join(channels) + "\n")
        fh.write("\n".join(map(",".join, zip(*[fields] * table.shape[1]))))
        fh.write("\n")


def parse_json(text: str | None):
    if text is None:
        return None
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


def percentiles(latencies) -> tuple[float, float]:
    from oracles import percentile

    return percentile(latencies, 50), percentile(latencies, 90)


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def layer_units() -> dict[str, str]:
    from spans import TRACED, WORK_COUNTS

    units = {}
    for name in TRACED:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    for counters in WORK_COUNTS.values():
        for counter, _ in counters:
            units[counter] = "count"
    units.update(TRACE_TOTALS)
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        import_package()
    except (SetupError, ImportError) as err:
        print(f"benchmark: cannot import the package: {err}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from oracles import CheckFailed

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = bench.run()
        correct = True
    except CheckFailed as err:
        print(f"benchmark: output check failed: {err}", file=sys.stderr)
        metrics, correct = {}, False
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.tmp.parent.rmdir()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.ops.attempted,
                "failed": bench.ops.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
