import re
from pathlib import Path

import pytest

from mmfuse.cli import COMMANDS
from mmfuse.config import KEYS, ConfigError, check_keys, resolve
from mmfuse.fusion import InputMask

README = Path(__file__).resolve().parent.parent / "README.md"


def one_char_edits(name):
    """Every deletion, substitution and adjacent transposition of ``name`` that is no key."""
    edits = set()
    for i in range(len(name)):
        edits.add(name[:i] + name[i + 1 :])
        edits.add(name[:i] + ("y" if name[i] == "x" else "x") + name[i + 1 :])
        edits.add(name[:i] + name[i + 1 : i + 2] + name[i] + name[i + 2 :])
    return sorted(edits - set(KEYS))


@pytest.mark.parametrize("name", sorted(KEYS))
def test_every_one_char_edit_names_its_key(name):
    verb = KEYS[name].verbs[0]
    for edit in one_char_edits(name):
        with pytest.raises(ConfigError) as caught:
            check_keys({edit: "1"}, verb)
        assert str(caught.value) == f"unknown key {edit!r}; did you mean {name}?"


def test_a_key_of_another_verb_names_the_verbs_that_read_it():
    message = "^synth does not read train.epochs, a key of train, ablate$"
    with pytest.raises(ConfigError, match=message):
        resolve({"train.epochs": "1"}, "synth")


def test_every_verb_in_the_table_is_a_command():
    assert {verb for key in KEYS.values() for verb in key.verbs} <= set(COMMANDS)


def test_defaults_fill_every_key_the_verb_reads():
    texts, values = resolve({"train.vocab_size": "19"}, "train")
    assert list(texts) == [name for name, key in KEYS.items() if "train" in key.verbs]
    assert texts["model.variant"] == "TKM" and texts["train.mask"] == "TT,IT,I"
    assert values["model.backbone_channels"] == (8, 16) and values["train.lr"] == 1e-4
    assert values["model.share_text_encoder"] is True


def test_defaults_that_depend_on_verb_or_keys():
    assert resolve({"train.vocab_size": "1"}, "ablate")[0]["model.variant"] == "FCM"
    lstm = resolve({"model.variant": "LSTM", "train.vocab_size": "1"}, "train")[1]
    assert lstm["train.mask"] == InputMask(image_text=False, image=False)
    named = resolve({"model.variant": "SCM", "train.vocab_size": "1"}, "eval")[0]
    assert named["eval.name"] == "SCM"


def test_required_key_without_a_value_is_an_error():
    with pytest.raises(ConfigError, match="^missing required config key train.vocab_size$"):
        resolve({}, "train")


def default_cell(name):
    """The default of ``name`` as README's table of keys writes it."""
    default = KEYS[name].default
    if default is None:
        return "none"
    if callable(default):
        return default.__doc__
    return f"`{default}`" if default else "empty"


def test_readme_table_of_keys_matches_the_table():
    rows = re.findall(r"^\| `([\w.]+)` \| (.+?) \| (.+?) \|$", README.read_text(), re.MULTILINE)
    assert rows == [
        (name, default_cell(name), ", ".join(key.verbs)) for name, key in KEYS.items()
    ]
