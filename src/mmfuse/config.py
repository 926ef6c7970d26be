"""Flat key=value configuration with dotted namespaces, and the table of keys.

Files hold one ``section.key = value`` pair per line; ``#`` starts a comment.
Command-line overrides use the same syntax and win over file values. Values
stay strings until :func:`resolve` reads a verb's keys through :data:`KEYS`,
the one place where a key's parser, default and verbs are written.
"""

from __future__ import annotations

import difflib
import io
import math
from dataclasses import dataclass
from typing import Callable

from .fusion import InputMask


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


# ---------------------------------------------------------------------------
# parsers: text -> value, a ValueError saying what the text must be


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _at_least(least, what, step=1):
    def parse(text):
        value = _int(text)
        if value < least or value % step:
            raise ValueError(f"must be {what}, got {value}")
        return value

    return parse


def _float(text):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def _bool(text):
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"must be a boolean, got {text!r}")


def _ints(text):
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"must be comma-separated integers, got {text!r}") from None


def _strs(text):
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _mask(text):
    try:
        return InputMask.parse(text)
    except ValueError:
        raise ValueError(f"must name one or more of TT, IT and I, got {text!r}") from None


_seed = _at_least(0, "a non-negative integer")
_split_size = _at_least(0, "a non-negative even integer (half hate, half not-hate)", step=2)


# ---------------------------------------------------------------------------
# defaults that depend on the verb or on keys read before them; each
# docstring is the key's default as README's table of keys gives it


def _variant_default(values, verb):
    """`TKM`; `FCM` for ablate"""
    return "FCM" if verb == "ablate" else "TKM"


def _mask_default(values, verb):
    """`TT,IT,I`; `TT` for the LSTM"""
    return "TT" if values["model.variant"] == "LSTM" else "TT,IT,I"


def _fc_plan_default(values, verb):
    """`32,16,2`; `2` for the LSTM"""
    return "2" if values["model.variant"] == "LSTM" else "32,16,2"


def _name_default(values, verb):
    """the `model.variant`"""
    return values["model.variant"]


@dataclass(frozen=True)
class Key:
    """How the verbs that read a key parse its text and what they read when it is not set.

    ``parse`` turns the text into a value or raises ValueError. ``default``
    is a text; or a function of the values read so far and the verb that
    returns one; or None, when the verb must be given the key.
    """

    parse: Callable
    default: object
    verbs: tuple


_MODEL = ("train", "eval", "ablate")
_TRAIN = ("train", "ablate")

# Every key any verb reads, in the order a verb reads them.
KEYS = {
    "model.variant": Key(str, _variant_default, _MODEL),
    "model.image_side": Key(_int, "16", _MODEL),
    "model.backbone_channels": Key(_ints, "8,16", _MODEL),
    "model.embedding_dim": Key(_int, "16", _MODEL),
    "model.hidden_dim": Key(_int, "32", _MODEL),
    "model.tweet_kernels": Key(_int, "4", _MODEL),
    "model.imgtext_kernels": Key(_int, "2", _MODEL),
    "model.fc_plan": Key(_ints, _fc_plan_default, _MODEL),
    "model.fusion_channels": Key(_int, "16", _MODEL),
    "model.dropout_rate": Key(_float, "0.5", _MODEL),
    "model.share_text_encoder": Key(_bool, "true", _MODEL),
    "model.seed": Key(_seed, "0", _MODEL),
    "train.mask": Key(_mask, _mask_default, ("train", "eval")),
    "train.vocab_size": Key(_at_least(1, "a positive integer"), None, _MODEL),
    "train.lr": Key(_float, "1e-4", _TRAIN),
    "train.batch_size": Key(_int, "32", _TRAIN),
    "train.epochs": Key(_int, "3", _TRAIN),
    "train.seed": Key(_seed, "0", _TRAIN),
    "train.class_weight_mode": Key(str, "balanced", _TRAIN),
    "train.eval_every": Key(_int, "0", _TRAIN),
    "eval.name": Key(str, _name_default, ("eval",)),
    "synth.mode": Key(str, "crossmodal_xor", ("synth",)),
    "synth.n_train": Key(_int, "8000", ("synth",)),
    "synth.n_val": Key(_int, "1000", ("synth",)),
    "synth.n_test": Key(_int, "2000", ("synth",)),
    "synth.noise_rate": Key(_float, "0.0", ("synth",)),
    "synth.multimodal_fraction": Key(_float, "1.0", ("synth",)),
    "synth.image_side": Key(_int, "16", ("synth",)),
    "synth.seed": Key(_seed, "0", ("synth",)),
    "dataset.min_word_count": Key(_int, "3", ("prepare",)),
    "dataset.banned_terms": Key(_strs, "", ("prepare",)),
    "dataset.keywords": Key(_strs, "", ("prepare",)),
    "dataset.text_probability_threshold": Key(_float, "0.3", ("prepare",)),
    "dataset.min_duration": Key(_float, "3.0", ("prepare",)),
    "dataset.seed": Key(_seed, "0", ("prepare",)),
    "dataset.val_size": Key(_split_size, "0", ("prepare",)),
    "dataset.test_size": Key(_split_size, "0", ("prepare",)),
    "gradcheck.seed": Key(_seed, "0", ("gradcheck",)),
}


def default(name):
    """The parsed default of the key ``name``, whose default is a text."""
    return KEYS[name].parse(KEYS[name].default)


def check_keys(cfg, verb):
    """Raise a ConfigError at the first key of ``cfg`` that ``verb`` does not read.

    The message names the closest known key to one that no verb reads, and
    the verbs that read one that ``verb`` does not.
    """
    for key in cfg:
        if key not in KEYS:
            hint = "".join(f"; did you mean {c}?" for c in difflib.get_close_matches(key, KEYS, n=1))
            raise ConfigError(f"unknown key {key!r}{hint}")
        if verb not in KEYS[key].verbs:
            raise ConfigError(f"{verb} does not read {key}, a key of {', '.join(KEYS[key].verbs)}")


def resolve(cfg, verb):
    """``(texts, values)``: the text and the parsed value of every key ``verb`` reads.

    A key ``cfg`` does not set takes its default from :data:`KEYS`. A key
    ``verb`` does not read, a missing required key and a text its parser
    refuses raise a ConfigError.
    """
    check_keys(cfg, verb)
    texts, values = {}, {}
    for name, key in KEYS.items():
        if verb not in key.verbs:
            continue
        text = cfg.get(name)
        if text is None:
            text = key.default(values, verb) if callable(key.default) else key.default
        if text is None:
            raise ConfigError(f"missing required config key {name}")
        try:
            values[name] = key.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{name} {exc}") from None
        texts[name] = text
    return texts, values
