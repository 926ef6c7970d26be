"""Flat key=value configuration with dotted namespaces.

Files hold one ``section.key = value`` pair per line; ``#`` starts a comment.
Command-line overrides use the same syntax and win over file values. Values
stay strings until a typed getter pulls them out.
"""

from __future__ import annotations

import io


class ConfigError(Exception):
    pass


def parse_kv_lines(lines, source="<config>"):
    cfg = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def load_config(path=None, overrides=()):
    cfg = {}
    if path:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            text = data.decode("utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ConfigError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
        cfg.update(parse_kv_lines(io.StringIO(text, newline=None), source=path))
    cfg.update(parse_kv_lines(overrides, source="<override>"))
    return cfg


def get_str(cfg, key, default=None):
    value = cfg.get(key, default)
    if value is None:
        raise ConfigError(f"missing required config key {key}")
    return str(value)


def get_int(cfg, key, default=None):
    try:
        return int(get_str(cfg, key, None if default is None else str(default)))
    except ValueError:
        raise ConfigError(f"config key {key} must be an integer, got {cfg[key]!r}")


def get_float(cfg, key, default=None):
    try:
        return float(get_str(cfg, key, None if default is None else str(default)))
    except ValueError:
        raise ConfigError(f"config key {key} must be a float, got {cfg[key]!r}")


def get_bool(cfg, key, default=None):
    text = get_str(cfg, key, None if default is None else str(default)).lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"config key {key} must be a boolean, got {cfg[key]!r}")


def get_ints(cfg, key, default=None):
    text = get_str(cfg, key, default)
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"config key {key} must be comma-separated integers, got {text!r}")


def get_strs(cfg, key, default=""):
    text = get_str(cfg, key, default)
    return tuple(p.strip() for p in text.split(",") if p.strip())


def get_seed(cfg, key, default=0):
    """The seed at ``key``, or ``default`` when the config is silent; never negative."""
    seed = get_int(cfg, key, default)
    if seed < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {seed}")
    return seed
