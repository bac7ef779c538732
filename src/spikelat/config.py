"""Flat key=value configuration with a typed registry.

Every tunable lives in one registry of dotted keys with a type, a default,
and optionally a closed set of choices. The ``lif.*`` and ``train.*`` keys
are the fields of ``LifConfig`` and ``TrainConfig``, typed by their
defaults, and each choice list is the tuple the code itself checks. A
config file is plain text, one ``key = value`` pair per line, with ``#``
comments; parse errors carry the line number. Unknown keys are rejected
everywhere, including command-line overrides, and so are float values
that are not finite: every comparison with NaN is false, so a range check
such as ``lr <= 0`` would let it through. ``snapshot`` renders the fully
resolved configuration back into the same format, sorted, so a run
directory records exactly what ran and the file round-trips to an equal
configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import FormatError
from .lif import LifConfig
from .network import PRESETS
from .trainer import DECODE_MODES, LOSSES, TrainConfig


@dataclass(frozen=True)
class ConfigKey:
    name: str
    type: type
    default: object
    choices: tuple = ()


def _fields(prefix, cls, **choices):
    """One key per dataclass field, typed by its default; choices by field name."""
    return [ConfigKey(f"{prefix}.{f.name}", type(f.default), f.default,
                      choices.get(f.name, ()))
            for f in fields(cls)]


REGISTRY = [
    ConfigKey("data.source", str, "blobs", ("blobs", "digits", "idx")),
    ConfigKey("data.train_images", str, ""),
    ConfigKey("data.train_labels", str, ""),
    ConfigKey("data.eval_images", str, ""),
    ConfigKey("data.eval_labels", str, ""),
    ConfigKey("data.train_count", int, 512),
    ConfigKey("data.eval_count", int, 128),
    ConfigKey("data.classes", int, 4),
    ConfigKey("data.size", int, 8),
    ConfigKey("data.noise", float, 0.10),
    ConfigKey("data.jitter", float, 0.5),
    ConfigKey("data.label_noise", float, 0.0),
    ConfigKey("data.seed", int, 0),
    ConfigKey("model.preset", str, "mlp-mini", PRESETS),
    ConfigKey("model.timesteps", int, 8),
    ConfigKey("model.hidden", int, 128),
    ConfigKey("model.width", int, 8),
    ConfigKey("model.encoder_channels", int, 2),
    ConfigKey("model.seed", int, 0),
    *_fields("lif", LifConfig),
    *_fields("train", TrainConfig, loss=LOSSES),
    # accepted so older snapshots still load; no effect: the decoder has one rule
    ConfigKey("decode.tiebreak", str, "spikers", ("spikers", "all")),
    ConfigKey("decode.mode", str, "first", DECODE_MODES),
    ConfigKey("analyze.batch", int, 64),
    ConfigKey("analyze.robustness", bool, True),
    ConfigKey("analyze.seed", int, 0),
]

_BY_NAME = {k.name: k for k in REGISTRY}

_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}
# per type: what an error says a value should be, and the parser
_PARSERS = {bool: ("a boolean", lambda raw: _BOOLS[raw.lower()]),
            int: ("an integer", int), float: ("a number", float), str: ("text", str)}


def _convert(key: ConfigKey, raw: str, where: str):
    raw = raw.strip()
    what, parse = _PARSERS[key.type]
    try:
        value = parse(raw)
    except (KeyError, ValueError):
        raise FormatError(f"{where}: {key.name} expects {what}, got {raw!r}") from None
    if key.type is float and not math.isfinite(value):
        raise FormatError(f"{where}: {key.name} expects a finite number, got {raw!r}")
    if key.choices and value not in key.choices:
        raise FormatError(
            f"{where}: {key.name} must be one of {list(key.choices)}, got {value!r}"
        )
    return value


def section(cfg, prefix):
    """The ``prefix.*`` values keyed by the rest of their names."""
    return {name[len(prefix) + 1:]: value for name, value in cfg.items()
            if name.startswith(prefix + ".")}


def _parse_pairs(text, where_prefix):
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise FormatError(
                f"{where_prefix} line {lineno}: expected key = value, "
                f"got {body!r}"
            )
        name, raw = body.split("=", 1)
        pairs.append((name.strip(), raw, f"{where_prefix} line {lineno}"))
    return pairs


def load_config(path=None, overrides=()) -> dict:
    """Defaults, then the file (if given), then --set overrides, in order:
    a value for every registry key, keyed by its dotted name."""
    values = {k.name: k.default for k in REGISTRY}

    pairs = []
    if path is not None:
        with open(path) as f:
            pairs.extend(_parse_pairs(f.read(), str(path)))
    for i, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise FormatError(
                f"--set #{i}: expected key=value, got {item!r}"
            )
        name, raw = item.split("=", 1)
        pairs.append((name.strip(), raw, f"--set #{i}"))

    for name, raw, where in pairs:
        key = _BY_NAME.get(name)
        if key is None:
            raise FormatError(f"{where}: unknown key {name!r}")
        values[name] = _convert(key, raw, where)
    return values


def snapshot(cfg: dict) -> str:
    """Canonical text form of a resolved configuration; stable bytes."""
    lines = []
    for name, value in sorted(cfg.items()):
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"
