"""Output checks of each workload, run after its measured segments.

Each check either recomputes a result from its definition (``oracles``) or
tests a property the method must have; none compares against a saved copy
of an earlier output. A failed check raises ``oracles.CheckFailed``.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
from gnnase import model, simulate
from gnnase.features import extract_windows
from gnnase.graphs import KIND_TO_CLASS, TYPE_CLASSES
from gnnase.numerics import derive_seed
from gnnase.preprocess import filter_recording

from oracles import (
    check_features,
    check_filter,
    check_gradients,
    check_graph,
    dense_gcn,
    fault_tones,
    lowpass,
    require,
    tone_level,
    window_features,
)

CATALOG_MAKEUP = {"healthy": 4, "eccentricity": 48, "broken_bars": 12, "bearing": 36}
FEATURE_SAMPLE = 12  # windows whose features are recomputed
# Well above the 50 % of always answering "eccentricity".
MIN_TYPE_ACCURACY = 0.75


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------ ingest


def ingest_outputs(bench, result) -> None:
    loaded = result["catalog"]
    config = replace(bench.defaults, seed=bench.seed)
    generated = simulate.generate_catalog(config.machine, config.simulate_seed(0), bench.noise)

    # The store is lossless.
    require(
        [r.name for r in loaded] == [r.name for r in generated],
        "loaded catalog names differ from the generated ones",
    )
    for got, made in zip(loaded, generated):
        require(got.label == made.label, f"{got.name}: label changed in the store")
        for channel in simulate.CHANNEL_NAMES:
            require(
                _same_bits(got.channels[channel], made.channels[channel]),
                f"{got.name}/{channel}: loaded samples differ from the generated ones",
            )

    # Make-up of one replicate.
    counts: dict[str, int] = {}
    for rec in loaded:
        counts[rec.label.kind] = counts.get(rec.label.kind, 0) + 1
    require(counts == CATALOG_MAKEUP, f"catalog make-up {counts}, expected {CATALOG_MAKEUP}")

    # Each fault's tone sits at its formula frequency, above the healthy level.
    machine = config.machine
    healthy = {r.operating_point.load_torque: r for r in loaded if r.label.kind == "healthy"}
    for rec in loaded:
        if rec.label.kind == "healthy":
            continue
        channel, freqs = fault_tones(
            rec.label.kind, machine.supply_frequency, rec.operating_point.slip,
            machine.pole_pairs, rec.label.fv,
        )
        reference = healthy[rec.operating_point.load_torque].channels[channel]
        for f in freqs:
            level = tone_level(rec.channels[channel], rec.sample_rate, f)
            base = tone_level(reference, rec.sample_rate, f)
            require(
                level > base,
                f"{rec.name}: {channel} at {f:g} Hz is {level:.3g}, healthy level {base:.3g}",
            )

    # Filter, features and graphs on a seeded sample.
    fspec, wspec = bench.pipeline.filter, bench.pipeline.window
    rng = np.random.default_rng(bench.seed)
    sample = [loaded[i] for i in rng.choice(len(loaded), FEATURE_SAMPLE, replace=False)]
    sampled = {}
    for rec in sample:
        filtered = filter_recording(rec, fspec)
        for channel in simulate.CHANNEL_NAMES:
            check_filter(
                rec.channels[channel], filtered.channels[channel], rec.sample_rate,
                fspec.cutoff, fspec.order,
            )
        windows = extract_windows(filtered, wspec, bench.pipeline.include_frequency)
        sampled[rec.name] = windows
        w = int(rng.integers(len(windows)))
        own = np.stack([
            lowpass(rec.channels[c], rec.sample_rate, fspec.cutoff, fspec.order)
            for c in simulate.CHANNEL_NAMES
        ])[:, w * wspec.hop : w * wspec.hop + wspec.window_len]
        check_features(window_features(own, rec.sample_rate), windows[w].x, f"{rec.name} window {w}")

    train_g, val_g, test_g, standardizer = result["featurized"]
    splits = result["splits"]
    for graphs, recs in zip((train_g, val_g, test_g), splits):
        require(len(graphs) == len(recs), "featurize_splits dropped a recording")
        for graph, rec in zip(graphs, recs):
            x = graph.feature_matrix()
            check_graph(
                x, graph.edges, rec.n_samples, wspec.window_len, wspec.hop,
                bench.pipeline.neighbors, rec.name,
            )
            if rec.name in sampled:
                expected = np.stack([standardizer.transform(w.x) for w in sampled[rec.name]])
                require(_same_bits(x, expected), f"{rec.name}: graph nodes are not the standardized windows")

    # Standardized training features: mean 0 and deviation 1 per dimension;
    # a dimension constant over training (deviation at the floor) is all 0.
    stacked = np.concatenate([g.feature_matrix() for g in train_g])
    mean, std = stacked.mean(axis=0), stacked.std(axis=0)
    require(np.all(np.abs(mean) < 1e-9), f"standardized means {mean}")
    require(
        np.all((np.abs(std - 1.0) < 1e-9) | np.all(stacked == 0.0, axis=0)),
        f"standardized deviations {std}",
    )


# ------------------------------------------------------------------- train


def train_outputs(bench, out, checkpoint) -> None:
    require(checkpoint.is_file(), "train wrote no checkpoint")
    lines = (out / "training_log.csv").read_text().split()
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    require(len(losses) == bench.epochs, f"{len(losses)} logged epochs, expected {bench.epochs}")
    require(all(math.isfinite(v) for v in losses), "an epoch loss is not finite")
    tail = losses[-max(1, len(losses) // 10):]
    require(float(np.mean(tail)) < losses[0], f"loss did not fall: first {losses[0]}, last {tail}")

    state, config, pipeline, standardizer = model.load_checkpoint(checkpoint)
    require(state.epoch == bench.epochs and config.epochs == bench.epochs, "checkpoint epoch count")

    # A fresh catalog, scored by this code rather than evaluate.py.
    fresh = simulate.generate_catalog(
        simulate.MachineSpec(), derive_seed(bench.seed, "bench", "fresh"), bench.noise
    )
    graphs = [model.recording_to_graph(rec, pipeline, standardizer) for rec in fresh]
    hits, severities = 0, []
    for rec, graph in zip(fresh, graphs):
        if not rec.label.is_faulty:
            continue
        diagnosis, _ = model.forward(graph, state, config)
        hits += TYPE_CLASSES[int(np.argmax(diagnosis.type_distribution))] == KIND_TO_CLASS[rec.label.kind]
        severities.append(diagnosis.severity_score)
    faulty = len(severities)
    require(
        hits >= MIN_TYPE_ACCURACY * faulty,
        f"fault type right on {hits} of {faulty} fresh recordings",
    )
    # The severity head is a ReLU regression: scores are finite and >= 0.
    # Its rank correlation is not gated: on some training seeds the head
    # dies and scores every recording 0 (see README.md).
    require(all(math.isfinite(s) and s >= 0.0 for s in severities), "severity score below 0")

    # Analytic gradients against central differences at the trained state,
    # with the dropout mask and the severity input frozen.
    rng = np.random.default_rng(bench.seed)
    graph = graphs[int(rng.choice([i for i, r in enumerate(fresh) if r.label.is_faulty]))]
    keep = 1.0 - config.dropout_p
    mask = (rng.random((graph.n_nodes, config.gcn1_dim)) < keep) / keep
    _, cache = model.forward(graph, state, config, train_mode=True, dropout_mask=mask)
    frozen = cache["H2"]
    _, _, grads = model.loss_and_grads(
        graph, state, config, train_mode=True, dropout_mask=mask, frozen_severity_input=frozen
    )

    def loss(params):
        trial = model.ModelState(params=params, feature_dim=state.feature_dim)
        return model.loss_value(
            graph, trial, config, train_mode=True, dropout_mask=mask, frozen_severity_input=frozen
        )

    check_gradients(loss, state.params, grads, rng)

    # One graph convolution against a dense normalized adjacency.
    h = rng.normal(size=(graph.n_nodes, 16))
    W = rng.normal(size=(16, 8))
    require(
        np.allclose(model.gcn_layer(h, graph, W), dense_gcn(h, graph.n_nodes, graph.edges, W),
                    rtol=1e-10, atol=1e-12),
        "gcn_layer differs from the dense D^-1/2 (A+I) D^-1/2 H W",
    )

    # A short training run repeats exactly, and its checkpoint restores it bit for bit.
    short = replace(config, epochs=3)
    first, _ = model.train(graphs[:10], short)
    second, _ = model.train(graphs[:10], short)
    for name in first.params:
        require(_same_bits(first.params[name], second.params[name]), f"training is not repeatable: {name}")
    path = bench.tmp / "short.json"
    model.save_checkpoint(path, first, short, pipeline, standardizer)
    restored = model.load_checkpoint(path)[0]
    require(restored.params.keys() == first.params.keys(), "checkpoint tensors differ")
    for name in first.params:
        require(
            _same_bits(restored.params[name], first.params[name]),
            f"checkpoint does not restore {name} bit for bit",
        )


# ---------------------------------------------------------------- diagnose


def diagnose_outputs(bench, requests, responses, checkpoint, graded: bool) -> None:
    """Well-formed responses that equal in-memory inference float for float.

    ``graded`` also requires fault-type accuracy over the faulty requests.
    """
    state, config, pipeline, standardizer = model.load_checkpoint(checkpoint)
    hits = faulty = 0
    for req in requests:
        seen = responses.get(req.name)
        require(bool(seen), f"{req.name}: no valid response")
        require(all(r == seen[0] for r in seen), f"{req.name}: responses differ between repeats")
        response = seen[0]
        require(
            set(response) == {"anomaly_probability", "decision", "severity_score", "type_distribution"},
            f"{req.name}: response keys {sorted(response)}",
        )
        p = response["anomaly_probability"]
        dist = response["type_distribution"]
        require(0.0 <= p <= 1.0, f"{req.name}: anomaly probability {p}")
        require(set(dist) == set(TYPE_CLASSES), f"{req.name}: type classes {sorted(dist)}")
        require(all(v >= 0.0 for v in dist.values()), f"{req.name}: negative type probability")
        require(abs(sum(dist.values()) - 1.0) < 1e-9, f"{req.name}: type distribution sums to {sum(dist.values())}")
        argmax = max(TYPE_CLASSES, key=lambda c: (dist[c], -TYPE_CLASSES.index(c)))
        require(
            response["decision"] == ("healthy" if p <= 0.5 else argmax),
            f"{req.name}: decision {response['decision']} at probability {p}",
        )

        direct = model.diagnose(req.recording, state, config, pipeline, standardizer)
        expected = {
            "anomaly_probability": direct.anomaly_probability,
            "severity_score": direct.severity_score,
            "type_distribution": {c: float(v) for c, v in zip(TYPE_CLASSES, direct.type_distribution)},
            "decision": direct.predicted_type if direct.is_anomalous else "healthy",
        }
        require(
            json.loads(json.dumps(expected)) == response,
            f"{req.name}: the command's output differs from in-memory diagnose",
        )
        if req.fault.is_faulty:
            faulty += 1
            hits += argmax == KIND_TO_CLASS[req.fault.kind]
    if graded:
        require(
            hits >= MIN_TYPE_ACCURACY * faulty,
            f"fault type right on {hits} of {faulty} faulty requests",
        )

