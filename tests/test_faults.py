"""Every faulty input ends in one line: two property tests through ``cli.main``.

(a) A mutated copy of a tiny synth corpus, or of a run trained on it, exits 0
(the data is still valid), 3 (a data fault) or 4 (a numeric failure). (b)
``--set`` draws over ``config.KEYS`` exit 0, 2, 3 or 4. Either way a non-zero
exit prints exactly one stderr line and no warning, and nothing raises out of
``main``. Every example runs in this process.

Sizes are drawn only at 64 or less, or at 10**18 or more, which are refused
before anything is allocated: no example may ask for an array between
physical memory and the address space. So an ``.npy`` header's numbers change
only to the fixed values of ``NUMBERS``, and byte flips stay past the header.
"""

import contextlib
import io
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mmfuse.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from mmfuse.config import KEYS

FIXTURE_CORPUS = Path(__file__).parent / "fixtures" / "corpus.jsonl"

TINY_SYNTH = ["synth.n_train=16", "synth.n_val=8", "synth.n_test=8", "synth.image_side=8"]
FAST_TRAIN = ["model.variant=FCM", "train.epochs=1"]

# what a number in a file may become
NUMBERS = ["0", "-1", "64", "1000000000000000000", "1e308", "nan"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

# the files a mutation may change, each with the verb that reads it
TARGETS = {
    "data/train.jsonl": ("train",),
    "data/val.jsonl": ("train",),
    "data/images/train.npy": ("train",),
    "data/images/val.npy": ("train",),
    "data/vocab.txt": ("train", "eval"),
    "data/test.jsonl": ("eval",),
    "data/images/test.npy": ("eval",),
    "run/checkpoint.mfuse": ("eval",),
    "run/manifest.json": ("eval",),
}

# hostile texts for any key
VALUES = [
    "", "-1", "0", "1", "2", "6_4", "64", "0.5", "1e30", "1e308", "nan", "inf",
    "1000000000000000000", "1000000000000000000000", "0x10", "8,0", "64,64", "TT,TT",
    "TT,IT", "I", "SCM", "TKM", "LSTM", "uniform", "unimodal_text", "true", "a b",
]
# a run of 10**18 epochs is valid and never ends, and 64 take seconds
EPOCHS = [v for v in VALUES if v not in ("6_4", "64") and not v.startswith("1000")]

PROPERTY = settings(
    derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def run_main(argv):
    """(exit code, stderr lines, warning messages) of ``main(argv)`` in this process."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    return rc, err.getvalue().splitlines(), [str(w.message) for w in caught]


def assert_one_line(rc, err, caught, allowed):
    assert rc in allowed, (rc, err)
    if rc != EXIT_OK:
        assert len(err) == 1 and not caught, (err, caught)


def sets(pairs):
    return [arg for pair in pairs for arg in ("--set", pair)]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """(root, pristine bytes of every target): a 16/8/8 synth corpus and one run on it."""
    root = tmp_path_factory.mktemp("faults")
    assert main(["synth", "--out", str(root / "data"), *sets(TINY_SYNTH)]) == EXIT_OK
    train = ["train", "--data", str(root / "data"), "--out", str(root / "run")]
    assert main([*train, *sets(FAST_TRAIN)]) == EXIT_OK
    return root, {name: (root / name).read_bytes() for name in TARGETS}


def npy_header_end(data):
    """Where a version-1 ``.npy`` header ends: its 10-byte preamble plus the length it gives."""
    return 10 + int.from_bytes(data[8:10], "little")


@st.composite
def mutations(draw, pristine):
    """(target, its mutated bytes): 1-3 flipped bytes, a truncation or one number replaced."""
    name = draw(st.sampled_from(sorted(pristine)))
    data = bytearray(pristine[name])
    header = npy_header_end(data) if name.endswith(".npy") else 0
    kind = draw(st.sampled_from(["flip", "truncate", "number"]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(header, len(data) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)) :]
    else:
        found = list(NUMBER.finditer(data, 10, header) if header else NUMBER.finditer(data))
        match = draw(st.sampled_from(found))
        data[match.start() : match.end()] = draw(st.sampled_from(NUMBERS)).encode()
    return name, bytes(data)


def base_argv(verb, root):
    """``verb``'s arguments on the tiny corpus and run, before any drawn key."""
    return {
        "synth": ["synth", *sets(TINY_SYNTH)],
        "train": ["train", "--data", str(root / "data"), *sets(FAST_TRAIN)],
        "eval": ["eval", "--checkpoint", str(root / "run" / "checkpoint.mfuse"),
                 "--data", str(root / "data")],
        "prepare": ["prepare", "--corpus", str(FIXTURE_CORPUS)],
    }[verb]


@PROPERTY
@given(data=st.data())
def test_a_mutated_corpus_or_run_exits_0_3_or_4(tiny, data):
    root, pristine = tiny
    name, mutated = data.draw(mutations(pristine), label="mutation")
    verb = data.draw(st.sampled_from(TARGETS[name]), label="verb")
    (root / name).write_bytes(mutated)
    try:
        result = run_main([*base_argv(verb, root), "--out", str(root / "out")])
    finally:
        (root / name).write_bytes(pristine[name])
    assert_one_line(*result, (EXIT_OK, EXIT_DATA, EXIT_NUMERIC))


@st.composite
def key_draws(draw):
    """(verb, ``key=value`` texts): one or two keys, most of them keys the verb reads."""
    verb = draw(st.sampled_from(["synth", "train", "eval", "prepare"]))
    read = [name for name, key in KEYS.items() if verb in key.verbs]
    names = draw(st.lists(st.one_of(st.sampled_from(read), st.sampled_from(list(KEYS))),
                          min_size=1, max_size=2, unique=True))
    return verb, [f"{n}={draw(st.sampled_from(EPOCHS if n == 'train.epochs' else VALUES))}"
                  for n in names]


@PROPERTY
@given(draw=key_draws())
@example(draw=("train", ["model.variant=SCM", "train.lr=1e30"]))  # diverges: exit 4
def test_set_draws_exit_0_2_3_or_4(tiny, draw):
    verb, pairs = draw
    root, _ = tiny
    argv = [*base_argv(verb, root), *sets(pairs), "--out", str(root / "out")]
    assert_one_line(*run_main(argv), (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC))
