"""perfbench's output checks read the scored split that ``score_dataset`` returns.

perfbench takes ``len()`` of it, reads ``.id``, ``.score`` and ``.hate`` of each
row, and passes it whole to ``evaluation.evaluate``. A change to the scored
split that breaks one of these fails here rather than in the benchmark. The
test loads ``perfbench/checks.py`` by path and changes nothing in it.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import build_model
from mmfuse import synth
from mmfuse.evaluation import evaluate
from mmfuse.training import ModelData, score_dataset

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = load_checks()


@pytest.fixture(scope="module")
def scored():
    """(scored split, split) of an untrained SCM over 40 synthetic examples with named ids."""
    vocab = synth.build_vocabulary()
    spec = synth.SynthSpec(n_train=40, n_val=0, n_test=0, image_side=8, seed=3)
    data = synth.to_model_data(synth.generate(spec)["train"], vocab)
    names = [f"test-{i:06d}" for i in range(len(data))]
    split = ModelData(data.images, data.tweet, data.imgtext, data.labels, names)
    model = build_model("SCM", vocab_size=len(vocab))
    return score_dataset(model, split), split


def test_score_dataset_output_passes_both_checks(scored):
    result, split = scored
    assert checks.check_scores(result, split) == []
    assert checks.check_auc(evaluate(result).auc, result) == []


def test_reversed_ids_are_reported(scored):
    result, split = scored
    reversed_ids = result.copy()
    reversed_ids.id = result.id[::-1]
    assert checks.check_scores(reversed_ids, split) == ["score ids do not follow the data order"]


def test_one_flipped_label_is_reported(scored):
    result, split = scored
    flipped = result.copy()
    flipped.hate[0] = not flipped.hate[0]
    assert checks.check_scores(flipped, split) == ["score labels do not match the data labels"]
    assert checks.check_auc(evaluate(result).auc, flipped) != []
