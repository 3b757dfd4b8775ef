"""Command-line orchestration of the full workflow.

Subcommands: gen, train, dream, dream-neuron, entropy, activations,
shift, export. Every run writes its artifacts plus a `<artifact>.manifest`
recording the resolved config, inputs, and artifact checksums. Flags may
also be supplied through a flat key=value file via --config; explicit
flags win.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import analysis, dreaming, nn, states, tables
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import generate_dataset, read_dataset, write_dataset
from .dotexport import export_dot
from .manifest import parse_config, write_manifest


def _parse_layers(text):
    return [int(s) for s in text.split(",")]


def _parse_bool(text):
    if str(text).lower() in ("1", "true", "yes", "on"):
        return True
    if str(text).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", required=True, help="primary output path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qgdream",
        description="Quantum graph deep dreaming: data generation, training, "
                    "inverse training, and interpretability reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled graph dataset")
    _add_common(p)
    p.add_argument("--property", dest="prop")
    p.add_argument("--n", type=int)
    p.add_argument("--cap", help="label cap (float) or 'none'")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="train a network on a dataset file")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--layers", help="comma-separated layer sizes, e.g. 24,128,128,128,1")
    p.add_argument("--activation", choices=["relu", "elu"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--history", help="training-curve CSV path (default <out>.history.csv)")

    p = sub.add_parser("dream", help="inverse-train input graphs on a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--property", dest="prop")
    p.add_argument("--runs", type=int, help="1 = trajectory export, >1 = ensemble table")
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--stride", type=int)
    p.add_argument("--clamp")
    p.add_argument("--adam", dest="use_adam")
    p.add_argument("--seed", type=int)
    p.add_argument("--graph", help="start graph file (single-run only; default random)")

    p = sub.add_parser("dream-neuron", help="dream on one hidden neuron from many starts")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--neuron", type=int, required=True)
    p.add_argument("--inits", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("entropy", help="per-neuron/per-layer entropy profile")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--inits", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("activations", help="weighted-activation map for one input graph")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", help="input graph file (default: random from --seed)")
    p.add_argument("--threshold", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("shift", help="distribution-shift report from an ensemble table")
    _add_common(p)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--cap", type=float)

    p = sub.add_parser("export", help="DOT export of a graph file")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--threshold", type=float)

    return parser


def _resolve(args, defaults):
    """Defaults < config file < explicit flags; returns a plain dict."""
    resolved = dict(defaults)
    if args.config:
        file_values = parse_config(args.config)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, raw in file_values.items():
            default = defaults[key]
            if isinstance(default, bool):
                resolved[key] = _parse_bool(raw)
            elif isinstance(default, int):
                resolved[key] = int(raw)
            elif isinstance(default, float):
                resolved[key] = float(raw)
            else:
                resolved[key] = raw
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            if isinstance(defaults[key], bool) and not isinstance(value, bool):
                value = _parse_bool(value)
            resolved[key] = value
    return resolved


def _dream_config(cfg):
    return dreaming.DreamConfig(steps=cfg["steps"], lr=cfg["lr"],
                                snapshot_stride=cfg.get("stride", 10),
                                clamp=cfg.get("clamp", True),
                                use_adam=cfg.get("use_adam", False),
                                seed=cfg["seed"])


def cmd_gen(args):
    cfg = _resolve(args, {"prop": "ghz_fidelity", "n": 10000, "cap": "0.5",
                          "seed": 0})
    cap = None if str(cfg["cap"]).lower() == "none" else float(cfg["cap"])
    ds = generate_dataset(cfg["prop"], cfg["n"], cap=cap, seed=cfg["seed"])
    write_dataset(ds, args.out)
    return cfg, [], [args.out]


def cmd_train(args):
    cfg = _resolve(args, {"layers": "24,128,128,128,1", "activation": "relu",
                          "alpha": 1.0, "batch_size": 5000, "lr": 1e-3,
                          "max_epochs": 5000, "patience": 400, "seed": 0})
    ds = read_dataset(args.dataset)
    train_cfg = nn.TrainConfig(batch_size=cfg["batch_size"], lr_init=cfg["lr"],
                               max_epochs=cfg["max_epochs"],
                               convergence_patience=cfg["patience"],
                               seed=cfg["seed"])
    model, history = nn.train(ds.inputs, ds.labels, _parse_layers(cfg["layers"]),
                              train_cfg, activation=cfg["activation"],
                              alpha=cfg["alpha"])
    save_checkpoint(model, args.out)
    history_path = args.history or f"{args.out}.history.csv"
    tables.write_history(history, history_path)
    print(f"trained {cfg['layers']}: {history.epochs_run} epochs, "
          f"best test MSE {history.final_test_mse:.3e}")
    return cfg, [args.dataset], [args.out, history_path]


def cmd_dream(args):
    cfg = _resolve(args, {"prop": "ghz_fidelity", "runs": 1, "steps": 2000,
                          "lr": 1e-4, "stride": 10, "clamp": True,
                          "use_adam": False, "seed": 0})
    if args.graph and cfg["runs"] != 1:
        raise ValueError(f"--graph sets the start of a single run; got --runs {cfg['runs']}")
    model = load_checkpoint(args.checkpoint)
    dcfg = _dream_config(cfg)
    inputs = [args.checkpoint]
    if cfg["runs"] == 1:
        if args.graph:
            g0 = np.array(tables.read_graph_weights(args.graph))
            inputs.append(args.graph)
        else:
            g0 = states.random_graph(cfg["seed"])
        traj = dreaming.dream(model, g0, cfg["prop"], dcfg)
        tables.write_trajectory(traj, args.out)
        print(f"dream: predicted {traj.initial.predicted:.4f} -> "
              f"{traj.final.predicted:.4f}, true {traj.initial.true_value:.4f} "
              f"-> {traj.final.true_value:.4f}")
    else:
        result = dreaming.dream_ensemble(model, cfg["prop"], cfg["runs"], dcfg)
        tables.write_ensemble(result, args.out)
        print(f"ensemble of {cfg['runs']}: mean true {result.mean_initial:.4f} "
              f"-> {result.mean_final:.4f}, {len(result.failures)} failures")
    return cfg, inputs, [args.out]


def cmd_dream_neuron(args):
    cfg = _resolve(args, {"inits": 20, "steps": 2000, "lr": 1e-4, "seed": 0})
    model = load_checkpoint(args.checkpoint)
    results = dreaming.dream_neuron(model, (args.layer, args.neuron), cfg["inits"],
                                    _dream_config(cfg))
    tables.write_neuron_dreams(results, args.out)
    return dict(cfg, layer=args.layer, neuron=args.neuron), [args.checkpoint], [args.out]


def cmd_entropy(args):
    cfg = _resolve(args, {"inits": 20, "steps": 2000, "lr": 1e-4, "seed": 0})
    model = load_checkpoint(args.checkpoint)
    profile = analysis.entropy_profile(model, cfg["inits"], _dream_config(cfg))
    tables.write_entropy_profile(profile, args.out)
    means = ", ".join(f"{h:.3f}" for h in profile.per_layer)
    print(f"per-layer mean entropy: {means}")
    return cfg, [args.checkpoint], [args.out]


def cmd_activations(args):
    cfg = _resolve(args, {"threshold": 0.05, "seed": 0})
    model = load_checkpoint(args.checkpoint)
    inputs = [args.checkpoint]
    if args.graph:
        x = np.array(tables.read_graph_weights(args.graph))
        inputs.append(args.graph)
    else:
        x = states.random_graph(cfg["seed"])
    amap = analysis.weighted_activations(model, x, cfg["threshold"])
    tables.write_activation_map(amap, args.out)
    return cfg, inputs, [args.out]


def cmd_shift(args):
    cfg = _resolve(args, {"cap": 0.5})
    if not 0.0 <= cfg["cap"] <= 1.0:
        raise ValueError(f"--cap must be a number in [0, 1], got {cfg['cap']}")
    initial, final = tables.read_ensemble(args.ensemble)
    report = analysis.shift_report(initial, final, cap=cfg["cap"])
    tables.write_shift_report(report, args.out)
    print(f"mean shift {report.mean_final - report.mean_initial:.4f}, "
          f"fraction above {cfg['cap']:g}: {report.fraction_above_cap:.3f}")
    return cfg, [args.ensemble], [args.out]


def cmd_export(args):
    cfg = _resolve(args, {"threshold": 0.4})
    weights = tables.read_graph_weights(args.graph)
    with open(args.out, "w") as f:
        f.write(export_dot(weights, cfg["threshold"]))
    return cfg, [args.graph], [args.out]


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "dream": cmd_dream,
    "dream-neuron": cmd_dream_neuron,
    "entropy": cmd_entropy,
    "activations": cmd_activations,
    "shift": cmd_shift,
    "export": cmd_export,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        cfg, inputs, outputs = _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_manifest(f"{args.out}.manifest", args.command, cfg, inputs, outputs,
                   time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
