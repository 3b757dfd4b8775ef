"""Command-line orchestration of the full workflow.

Subcommands: gen, train, dream, dream-neuron, entropy, activations,
shift, export. Every run writes its artifacts plus a `<artifact>.manifest`
recording the resolved config, inputs, artifact checksums and the metrics
the command reports (`gen`: graphs drawn and kept). Flags may
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


def _layer_list(text):
    """--layers' type: the text as it is, once it parses; config.layers stays text."""
    _parse_layers(text)
    return text


def _parse_bool(text):
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# argparse names the type function in its message: "invalid boolean value: 'maybe'"
_parse_bool.__name__ = "boolean"
_layer_list.__name__ = "layer list"


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", required=True, help="primary output path")


def _add_ascent(parser):
    """The ascent options that dream, dream-neuron and entropy share."""
    parser.add_argument("--steps", type=int, default=dreaming.DreamConfig.steps)
    parser.add_argument("--lr", type=float, default=dreaming.DreamConfig.lr)
    parser.add_argument("--seed", type=int, default=dreaming.DreamConfig.seed)


def build_parser():
    """The qgdream parser. Each option that has a default is also a config key."""
    parser = argparse.ArgumentParser(
        prog="qgdream",
        description="Quantum graph deep dreaming: data generation, training, "
                    "inverse training, and interpretability reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled graph dataset")
    _add_common(p)
    p.add_argument("--property", dest="prop", default="ghz_fidelity")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--cap", default="0.5", help="label cap (float) or 'none'")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a network on a dataset file")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--layers", type=_layer_list, default="24,128,128,128,1",
                   help="comma-separated layer sizes, e.g. 24,128,128,128,1")
    p.add_argument("--activation", choices=nn._ACTIVATIONS, default="relu")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--batch-size", type=int, dest="batch_size",
                   default=nn.TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=nn.TrainConfig.lr_init)
    p.add_argument("--max-epochs", type=int, dest="max_epochs",
                   default=nn.TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=nn.TrainConfig.convergence_patience)
    p.add_argument("--seed", type=int, default=nn.TrainConfig.seed)
    p.add_argument("--history", help="training-curve CSV path (default <out>.history.csv)")

    p = sub.add_parser("dream", help="inverse-train input graphs on a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--property", dest="prop", default="ghz_fidelity")
    p.add_argument("--runs", type=int, default=1,
                   help="1 = trajectory export, >1 = ensemble table")
    _add_ascent(p)
    p.add_argument("--stride", type=int, default=dreaming.DreamConfig.snapshot_stride)
    p.add_argument("--clamp", type=_parse_bool, default=dreaming.DreamConfig.clamp)
    p.add_argument("--adam", type=_parse_bool, dest="use_adam",
                   default=dreaming.DreamConfig.use_adam)
    p.add_argument("--graph", help="start graph file (single-run only; default random)")

    p = sub.add_parser("dream-neuron", help="dream on one hidden neuron from many starts")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--neuron", type=int, required=True)
    p.add_argument("--inits", type=int, default=20)
    _add_ascent(p)

    p = sub.add_parser("entropy", help="per-neuron/per-layer entropy profile")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--inits", type=int, default=20)
    _add_ascent(p)

    p = sub.add_parser("activations", help="weighted-activation map for one input graph")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", help="input graph file (default: random from --seed)")
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("shift", help="distribution-shift report from an ensemble table")
    _add_common(p)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--cap", type=float, default=0.5)

    p = sub.add_parser("export", help="DOT export of a graph file")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--threshold", type=float, default=0.4)

    return parser, sub.choices


_PARSER, _SUBPARSERS = build_parser()


def _resolve(argv):
    """Defaults < config file < explicit flags; returns (args, config dict).

    A config file's values, converted and checked as the flags would be,
    pre-fill the namespace that the command's arguments are parsed into
    again; argparse fills only absent names with defaults, so explicit flags
    win. The config dict holds every option that has a default.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _PARSER.parse_args(argv)
    command = _SUBPARSERS[args.command]
    options = {a.dest: a for a in command._actions
               if a.default not in (None, argparse.SUPPRESS)}
    if args.config:
        file_values = parse_config(args.config)
        unknown = set(file_values) - set(options)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys: {sorted(unknown)}")
        namespace = argparse.Namespace(command=args.command, **{
            key: _convert(options[key], raw, args.config, key)
            for key, raw in file_values.items()})
        args = command.parse_args(argv[argv.index(args.command) + 1:], namespace)
    return args, {key: getattr(args, key) for key in options}


def _convert(option, raw, path, key):
    """A config value converted by its option's type and checked against its
    choices, as argparse does a flag's; the error names file and key."""
    try:
        value = option.type(raw) if option.type else raw
    except ValueError as exc:
        raise ValueError(f"{path}: {key}: {exc}") from exc
    if option.choices is not None and value not in option.choices:
        raise ValueError(f"{path}: {key}: invalid choice {value!r} "
                         f"(choose from {', '.join(map(repr, option.choices))})")
    return value


def _dream_config(cfg, **fields):
    """The shared ascent options plus a command's own fields; DreamConfig fills the rest."""
    return dreaming.DreamConfig(steps=cfg["steps"], lr=cfg["lr"], seed=cfg["seed"], **fields)


def _start_graph(args, cfg, inputs):
    """The --graph file's weights, recorded in inputs, or else random_graph(--seed)."""
    if args.graph:
        inputs.append(args.graph)
        return np.array(tables.read_graph_weights(args.graph))
    return states.random_graph(cfg["seed"])


def cmd_gen(args, cfg):
    cap = None if cfg["cap"].lower() == "none" else float(cfg["cap"])
    ds = generate_dataset(cfg["prop"], cfg["n"], cap=cap, seed=cfg["seed"])
    write_dataset(ds, args.out)
    metrics = {"drawn": ds.drawn, "kept": ds.kept, "accept_rate": f"{ds.kept / ds.drawn:.6g}"}
    return cfg, [], [args.out], metrics


def cmd_train(args, cfg):
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
    print(f"trained {cfg['layers']}: {history.epochs_run} epochs "
          f"(stopped by {history.stop_reason}), best test MSE "
          f"{history.final_test_mse:.3e} at epoch {history.best_epoch}")
    return cfg, [args.dataset], [args.out, history_path], {}


def cmd_dream(args, cfg):
    if args.graph and cfg["runs"] != 1:
        raise ValueError(f"--graph sets the start of a single run; got --runs {cfg['runs']}")
    model = load_checkpoint(args.checkpoint)
    dcfg = _dream_config(cfg, snapshot_stride=cfg["stride"], clamp=cfg["clamp"],
                         use_adam=cfg["use_adam"])
    inputs = [args.checkpoint]
    if cfg["runs"] == 1:
        traj = dreaming.dream(model, _start_graph(args, cfg, inputs), cfg["prop"], dcfg)
        if np.isnan([traj.initial.true_value, traj.final.true_value]).any():
            raise ValueError("the run failed: its start or end is degenerate or non-finite")
        tables.write_trajectory(traj, args.out)
        print(f"dream: predicted {traj.initial.predicted:.4f} -> "
              f"{traj.final.predicted:.4f}, true {traj.initial.true_value:.4f} "
              f"-> {traj.final.true_value:.4f}")
    else:
        result = dreaming.dream_ensemble(model, cfg["prop"], cfg["runs"], dcfg)
        tables.write_ensemble(result, args.out)
        report = analysis.shift_report(result.initial_true, result.final_true)
        print(f"ensemble of {cfg['runs']}: mean true {report.mean_initial:.4f} "
              f"-> {report.mean_final:.4f}, {len(result.failures)} failures")
    return cfg, inputs, [args.out], {}


def cmd_dream_neuron(args, cfg):
    model = load_checkpoint(args.checkpoint)
    results = dreaming.dream_neuron(model, (args.layer, args.neuron), cfg["inits"],
                                    _dream_config(cfg))
    tables.write_neuron_dreams(results, args.out)
    return dict(cfg, layer=args.layer, neuron=args.neuron), [args.checkpoint], [args.out], {}


def cmd_entropy(args, cfg):
    model = load_checkpoint(args.checkpoint)
    profile = analysis.entropy_profile(model, cfg["inits"], _dream_config(cfg))
    tables.write_entropy_profile(profile, args.out)
    means = ", ".join(f"{h:.3f}" for h in profile.per_layer)
    print(f"per-layer mean entropy: {means}")
    return cfg, [args.checkpoint], [args.out], {}


def cmd_activations(args, cfg):
    model = load_checkpoint(args.checkpoint)
    inputs = [args.checkpoint]
    amap = analysis.weighted_activations(model, _start_graph(args, cfg, inputs),
                                         cfg["threshold"])
    tables.write_activation_map(amap, args.out)
    return cfg, inputs, [args.out], {}


def cmd_shift(args, cfg):
    if not 0.0 <= cfg["cap"] <= 1.0:
        raise ValueError(f"--cap must be a number in [0, 1], got {cfg['cap']}")
    initial, final = tables.read_ensemble(args.ensemble)
    report = analysis.shift_report(initial, final, cap=cfg["cap"])
    tables.write_shift_report(report, args.out)
    print(f"mean shift {report.mean_final - report.mean_initial:.4f}, "
          f"fraction above {cfg['cap']:g}: {report.fraction_above_cap:.3f}")
    return cfg, [args.ensemble], [args.out], {}


def cmd_export(args, cfg):
    weights = tables.read_graph_weights(args.graph)
    with open(args.out, "w") as f:
        f.write(export_dot(weights, cfg["threshold"]))
    return cfg, [args.graph], [args.out], {}


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
    start = time.perf_counter()
    try:
        args, cfg = _resolve(argv)
        cfg, inputs, outputs, metrics = _COMMANDS[args.command](args, cfg)
    except (OSError, ValueError, RuntimeError, FloatingPointError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)  # a list's has no text
        return 1
    write_manifest(f"{args.out}.manifest", args.command, cfg, inputs, outputs,
                   time.perf_counter() - start, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
