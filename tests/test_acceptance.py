"""Acceptance gate: one test per shipped guarantee, at pinned tolerances.

Each test here pins one package-level contract end to end: numeric
oracles for the feature and transform layers, gradient agreement for the
model, physics of the injected fault frequencies, desk-scale training
thresholds, ablation ordering, and byte-level reproducibility. The
oracles are re-derived locally so this file does not depend on any other
test module. The end-to-end tests train real models; the whole gate
takes a few minutes.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from gnnase import cli, model, simulate
from gnnase import evaluate as ev
from gnnase.config import config_from_json
from gnnase.features import ALL_FEATURES, window_features
from gnnase.graphs import NodeTargets, build_graph, row_cosines, similarity_weight
from gnnase.numerics import derive_seed, finite_diff_grad, make_rng
from gnnase.preprocess import FilterSpec, butterworth_filter

FAMILIES = ("eccentricity", "bar_breakage", "bearing")


# ---------------------------------------------------------------------------
# shared end-to-end inputs

@pytest.fixture(scope="module")
def default_run():
    """Default configuration plus the 3-replicate catalog it implies."""
    config = config_from_json({"simulate": {"replicates": 3}})
    recordings = []
    for r in range(config.replicates):
        catalog = simulate.generate_catalog(
            config.machine, config.simulate_seed(r), config.noise_snr_db
        )
        for rec in catalog:
            rec.name = f"{rec.name}-rep{r}"
        recordings.extend(catalog)
    return config, recordings


def _one_sided(signal, sample_rate):
    signal = np.asarray(signal, dtype=float)
    return np.fft.rfftfreq(len(signal), d=1.0 / sample_rate), np.abs(np.fft.rfft(signal))


def _features(signal, sample_rate):
    """Named features of one single-channel window."""
    window = np.asarray(signal, dtype=float)[None, None, :]
    return dict(zip(ALL_FEATURES, window_features(window, sample_rate)[0]))


def _rms(signal):
    return float(np.sqrt(np.mean(np.square(signal))))


def _random_graph(n, d, seed):
    rng = make_rng(seed)
    x = rng.normal(size=(n, d)) + 0.5
    return build_graph(x, simulate.FaultSpec(kind="healthy"), k=2, source=f"acc{seed}")


def _mixed_graph(n, d, seed):
    """Graph whose nodes span healthy plus all three fault classes."""
    g = _random_graph(n, d, seed)
    kinds = [None, "eccentricity", "bar_breakage", "bearing"]
    g.node_targets = [
        NodeTargets(
            anomaly=0 if kinds[i % 4] is None else 1,
            severity=0.0 if kinds[i % 4] is None else 0.25 * (i % 4),
            fault_type=kinds[i % 4],
        )
        for i in range(n)
    ]
    return g


# ---------------------------------------------------------------------------
# 1. feature oracles

def test_01_feature_oracles():
    t0 = time.perf_counter()
    fs, n = 1024.0, 1024
    t = np.arange(n) / fs
    sine = np.sin(2.0 * np.pi * 8.0 * t)  # whole number of periods
    assert _features(sine, fs)["rms"] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    assert _features([1, 2, 3, 4], 4.0)["variance"] == 1.25

    assert _features(sine, fs)["h_spec"] == pytest.approx(0.0, abs=1e-9)
    two_bins = np.cos(2.0 * np.pi * 8.0 * t) + np.cos(2.0 * np.pi * 16.0 * t)
    assert _features(two_bins, fs)["h_spec"] == pytest.approx(np.log(2.0), abs=1e-9)

    fs2, n2 = 1000.0, 1000
    tone = np.cos(2.0 * np.pi * 50.0 * np.arange(n2) / fs2)
    assert _features(tone, fs2)["f_dom"] == 50.0
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. transform round-trip and energy conservation

def test_02_dft_round_trip_and_parseval():
    """The filter's FFT pair against an explicit exp(-2*pi*i*k*n/N) sum."""
    t0 = time.perf_counter()
    rng = make_rng(derive_seed(0, "acceptance", "dft"))
    spec = FilterSpec(cutoff=0.2, order=4)
    worst_round_trip = 0.0
    worst_parseval = 0.0
    for n in range(2, 1025):
        x = rng.normal(size=n)
        k = np.arange(n // 2 + 1)
        m = np.arange(n)
        # Bins 0..N/2 of exp(-2*pi*i*k*m/N) = cos - i*sin of 2*pi*(k*m mod N)/N,
        # looked up in exact tables; bin N-k is the conjugate of bin k.
        angle = 2.0 * np.pi * m / n
        index = np.outer(k, m) % n
        cos, sin = np.take(np.cos(angle), index), np.take(np.sin(angle), index)
        gain = spec.magnitude(k / n)  # |f_k| at a 1 Hz sample rate
        re, im = gain * (cos @ x), -gain * (sin @ x)
        # Every bin but DC and Nyquist stands for itself and its conjugate.
        pairs = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
        # x_m = (1/N) sum_k X_k exp(+2*pi*i*k*m/N), summed over conjugate pairs:
        oracle = ((pairs * re) @ cos - (pairs * im) @ sin) / n
        filtered = butterworth_filter(x, 1.0, spec)
        worst_round_trip = max(worst_round_trip, float(np.max(np.abs(filtered - oracle))))
        time_energy = float(np.sum(filtered * filtered))
        freq_energy = float(np.sum(pairs * (re * re + im * im))) / n
        worst_parseval = max(worst_parseval, abs(time_energy - freq_energy))
    assert worst_round_trip < 1e-9
    assert worst_parseval < 1e-9
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 3. filter contract

def test_03_filter_contract():
    t0 = time.perf_counter()
    fs, n = 10000.0, 10000
    t = np.arange(n) / fs
    spec = FilterSpec(cutoff=100.0, order=4)

    at_cutoff = np.cos(2.0 * np.pi * 100.0 * t)
    gain = _rms(butterworth_filter(at_cutoff, fs, spec)) / _rms(at_cutoff)
    assert gain == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-3)

    dc = butterworth_filter(np.ones(n), fs, spec)
    assert float(np.max(np.abs(dc - 1.0))) < 1e-9

    far = np.cos(2.0 * np.pi * 1000.0 * t)  # 10x the cutoff
    assert _rms(butterworth_filter(far, fs, spec)) / _rms(far) < 1e-4
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 4. convolution layer against a dense oracle

def _dense_gcn(h, graph, W):
    """Dense D^(-1/2) (A + I) D^(-1/2) H W with unit self-loops."""
    n = graph.n_nodes
    A = np.eye(n)
    for i, j, w in graph.edges:
        A[i, j] = A[j, i] = w
    d_inv_sqrt = np.diag(1.0 / np.sqrt(A.sum(axis=1)))
    return d_inv_sqrt @ A @ d_inv_sqrt @ h @ W


def test_04_gcn_matches_dense_oracle():
    t0 = time.perf_counter()
    rng = make_rng(derive_seed(0, "acceptance", "gcn"))
    for trial in range(100):
        n = int(rng.integers(2, 11))
        g = _random_graph(n=n, d=5, seed=trial)
        h = rng.normal(size=(n, 5))
        W = rng.normal(size=(5, 4))
        sparse = model.gcn_layer(h, g, W, activation="identity")
        assert float(np.max(np.abs(sparse - _dense_gcn(h, g, W)))) < 1e-10
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 5. analytic gradients against central differences, full-size model

def test_05_gradients_match_finite_differences():
    t0 = time.perf_counter()
    for variant_index, ablation in enumerate(
        ("full", "no_reweight", "no_severity", "no_freq_features")
    ):
        config = model.ModelConfig(ablation=ablation)  # shipping dimensions
        d = 12 if ablation == "no_freq_features" else 20
        graph = _mixed_graph(n=6, d=d, seed=41 + variant_index)
        state = model.init_state(d, config)
        mask = model._dropout_mask((6, config.gcn1_dim), config.dropout_p, seed=7)

        frozen = None
        if ablation != "no_severity":
            # The severity branch reads the trunk through a stop-gradient,
            # so differentiate with that input frozen at its unperturbed
            # value; that is the function the analytic gradients describe.
            _, cache = model.forward(graph, state, config, train_mode=True, dropout_mask=mask)
            frozen = cache["H2"]

        _, _, grads = model.loss_and_grads(
            graph, state, config, train_mode=True, dropout_mask=mask,
            frozen_severity_input=frozen,
        )
        for name, value in state.params.items():
            def objective(tensor, _name=name):
                trial = dict(state.params)
                trial[_name] = tensor
                return model.loss_value(
                    graph,
                    model.ModelState(params=trial, feature_dim=d),
                    config,
                    train_mode=True,
                    dropout_mask=mask,
                    frozen_severity_input=frozen,
                )

            fd = finite_diff_grad(objective, value.copy(), h=1e-6)
            analytic_norm = float(np.linalg.norm(grads[name]))
            fd_norm = float(np.linalg.norm(fd))
            if analytic_norm == 0.0:
                # The loss must genuinely not depend on this tensor.
                assert fd_norm < 1e-7, f"{ablation}/{name}: analytic zero but FD {fd_norm}"
                continue
            rel = float(np.linalg.norm(fd - grads[name])) / (analytic_norm + fd_norm)
            assert rel < 1e-4, f"{ablation}/{name}: relative error {rel}"
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 6. edge reweighting identities

def test_06_reweighting_identities():
    h = make_rng(derive_seed(0, "acceptance", "rw")).normal(size=(4, 8)) + 1.0
    edges = [(0, 1, 0.3), (1, 2, 0.9), (0, 3, 0.5)]

    assert model.reweight_edges(edges, h, 0.0) == edges  # bit-identical

    for (i, j, w) in model.reweight_edges(edges, h, 1.0):
        # similarity replaces the weight
        assert w == similarity_weight(row_cosines(h[i][None], h[j][None])[0])[0]

    # Rows (1,0) and (0.6,0.8) have cosine 0.6, so f = 0.8 exactly. The
    # doubles nearest 0.4 and 0.8 blend, in exact real arithmetic, to a
    # value half an ulp above the double nearest 0.6; round-to-even picks
    # the upper neighbor, so no double arithmetic can return the literal
    # 0.6. The result is the correctly rounded blend, one ulp away.
    h2 = np.array([[1.0, 0.0], [0.6, 0.8]])
    blended = model.reweight_edges([(0, 1, 0.4)], h2, 0.5)[0][2]
    assert blended == (1.0 - 0.5) * 0.4 + 0.5 * 0.8
    assert blended == pytest.approx(0.6, abs=np.spacing(0.6))


# ---------------------------------------------------------------------------
# 7. fault-frequency physics

def test_07_fault_frequency_physics():
    assert simulate.brb_sidebands(50.0, 0.05) == (55.0, 45.0)
    assert simulate.bearing_frequencies(50.0, 90.0, m_max=1) == {40.0, 140.0}

    machine = simulate.MachineSpec()
    snr = 30.0

    def peak_gain_db(fault, op, channel, freq):
        faulty = simulate.synthesize(machine, op, fault, snr, seed=5)
        healthy = simulate.synthesize(
            machine, op, simulate.FaultSpec(kind="healthy"), snr, seed=5
        )
        freqs, mag = _one_sided(faulty.channels[channel], machine.sample_rate)
        _, base = _one_sided(healthy.channels[channel], machine.sample_rate)
        k = int(np.where(freqs == freq)[0][0])
        return 20.0 * np.log10(mag[k] / base[k])

    brb = simulate.FaultSpec(kind="broken_bars", bar_count=3, severity=1.0)
    loaded = simulate.OperatingPoint.from_load(40.0)  # slip 0.05
    for f in (45.0, 55.0):
        assert peak_gain_db(brb, loaded, "phase_a", f) >= 10.0

    bearing = simulate.FaultSpec(kind="bearing", site="outer", severity=1.0)
    idle = simulate.OperatingPoint.from_load(0.0)
    for f in (40.0, 140.0):
        assert peak_gain_db(bearing, idle, "vibration", f) >= 10.0


# ---------------------------------------------------------------------------
# 8. desk-scale end-to-end thresholds

def test_08_end_to_end_thresholds(default_run):
    config, recordings = default_run
    splits = ev.split(recordings, config.ratios, seed=config.split_seed())
    train_graphs, val_graphs, test_graphs, _ = ev.featurize_splits(
        splits, config.pipeline()
    )

    t0 = time.perf_counter()
    state, _ = model.train(train_graphs, config.model, val_dataset=val_graphs)
    train_seconds = time.perf_counter() - t0
    assert train_seconds <= 600.0

    predictions = ev.predict(test_graphs, state, config.model)
    rows = ev.evaluate_predictions(predictions, "GNN-ASE")
    cells = {(dataset, metric): value for _, dataset, metric, value in rows}

    for family in FAMILIES:
        assert cells[(family, "accuracy")] >= 90.0, family
        assert cells[(family, "type_accuracy")] >= 85.0, family
    assert cells[("overall", "severity_spearman")] >= 0.8


# ---------------------------------------------------------------------------
# 9. ablation ordering under shared seeds

def test_09_ablation_directionality(default_run):
    config, recordings = default_run
    # Ordering claims need the full model at its ceiling on this catalog,
    # not the shipping training budget; a shorter constant-rate run gets
    # there and keeps four trainings affordable.
    base = replace(config.model, epochs=150, lr_schedule="constant")
    report = ev.run_ablation(
        recordings, base, config.pipeline(), config.ratios,
        split_seed=config.split_seed(),
    )

    def mean_family_f1(variant):
        """Mean anomaly F1 over the fault families that report one; None if none does."""
        values = [report.value(variant, family, "f1") for family in FAMILIES]
        present = [v for v in values if v is not None]
        return float(np.mean(present)) if present else None

    f1 = {variant: mean_family_f1(variant) for variant in report.variants()}
    assert f1["GNN-ASE@1"] <= f1["GNN-ASE"]
    assert f1["GNN-ASE@3"] <= f1["GNN-ASE"]
    assert f1["GNN-ASE@2"] == f1["GNN-ASE"]

    # The severity-free variant must match the full model exactly on every
    # anomaly and type cell, not merely on the aggregate.
    full_cells = [
        (dataset, metric, value)
        for variant, dataset, metric, value in report.rows
        if variant == "GNN-ASE" and metric != "severity_spearman"
    ]
    assert full_cells, "full model produced no comparable cells"
    for dataset, metric, value in full_cells:
        assert report.value("GNN-ASE@2", dataset, metric) == value


# ---------------------------------------------------------------------------
# 10. hand-computed confusion-matrix triple

def test_10_metrics_hand_triple():
    cm = ev.ConfusionMatrix(tp=8, tn=5, fp=2, fn=1)
    assert round(ev.accuracy(cm), 4) == 0.8125
    assert round(ev.recall(cm), 4) == 0.8889
    assert round(ev.f1_score(cm), 4) == 0.8421


# ---------------------------------------------------------------------------
# 11. byte-identical reruns

def test_11_reproducibility_byte_identical(tmp_path):
    blob = {
        "seed": 11,
        "machine": {"sample_rate": 2000, "duration": 0.5},
        "window": {"window_len": 256, "hop": 128},
        "filter": {"cutoff": 400.0, "order": 4},
        "model": {
            "embed_dim": 16,
            "gcn1_dim": 8,
            "gcn2_dim": 8,
            "severity_dim": 4,
            "epochs": 2,
            "batch_size": 8,
        },
        "graph": {"neighbors": 2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(blob))

    def dir_bytes(directory):
        return {
            p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
        }

    # Identical rerun means the same config, seed, and output paths.
    data = tmp_path / "data"
    snapshots = []
    for _ in range(2):
        assert cli.main(
            ["simulate", "--config", str(config_path), "--out", str(data), "--quiet"]
        ) == 0
        snapshots.append(dir_bytes(data))
    assert snapshots[0] == snapshots[1]

    out = tmp_path / "run"
    checkpoints = []
    for _ in range(2):
        assert cli.main(
            [
                "train",
                "--config", str(config_path),
                "--dataset", str(data),
                "--out", str(out),
                "--checkpoint", str(out / "model.json"),
                "--quiet",
            ]
        ) == 0
        checkpoints.append((out / "model.json").read_bytes())
    assert checkpoints[0] == checkpoints[1]
