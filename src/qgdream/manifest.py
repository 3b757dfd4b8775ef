"""Run manifests and flat key=value config files.

Every CLI run writes a manifest recording the subcommand, the resolved
configuration, seeds, input/output paths, wall time, a sha256 per
artifact and the metrics the command reports, so any artifact can be
reproduced from its manifest.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def parse_config(path):
    """Flat key=value file -> dict of strings. '#' starts a comment.

    Raises ValueError, naming the file, on bytes that are not text or a
    line that is not key=value.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(path, subcommand, config, inputs, outputs, wall_time_s, metrics):
    """key=value manifest; artifact checksums are computed here.

    metrics maps a name to what the run measured, written as metric.<name>.
    """
    lines = [f"subcommand={subcommand}"]
    for key in sorted(config):
        lines.append(f"config.{key}={config[key]}")
    for i, p in enumerate(inputs):
        lines.append(f"input.{i}={p}")
    for i, p in enumerate(outputs):
        lines.append(f"output.{i}={p}")
        lines.append(f"sha256.{Path(p).name}={sha256_file(p)}")
    for key in sorted(metrics):
        lines.append(f"metric.{key}={metrics[key]}")
    lines.append(f"wall_time_s={wall_time_s:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")
