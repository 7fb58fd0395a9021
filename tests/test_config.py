import json

import pytest

from formcoach.config import (CorrectionRule, ExerciseConfig, PhaseConfig,
                              config_to_dict, load_exercise_config,
                              save_exercise_config)
from formcoach.skeleton import JointId, ValidationError
from formcoach.synth import TEMPLATES, MotionSpec, exercise_config, generate


def template_config(name):
    _, ann = generate(MotionSpec(template=name, n_frames=12), seed=0)
    primary = TEMPLATES[name].primary
    rules = (
        CorrectionRule(joint=primary, message="control the descent",
                       angle_below=95.5, deviation_above=0.3, phase="eccentric"),
        CorrectionRule(joint=primary, message="extend fully", angle_above=150.0),
        CorrectionRule(joint=JointId.LEFT_WRIST, message="keep the wrist in line"),
    )
    return exercise_config(name, ann, rules=rules, mistake_threshold=0.125)


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_save_load_roundtrip(tmp_path, name):
    cfg = template_config(name)
    assert cfg.rules and cfg.reference_angles
    path = tmp_path / "c.json"
    save_exercise_config(cfg, path)
    assert load_exercise_config(path) == cfg


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_dropped_keys_of_older_files_are_ignored(tmp_path, name):
    """Files that still carry ``rom_limits``, ``key_joint_threshold_deg``
    and ``phase.min_ratio`` load to the same config as files without them."""
    cfg = template_config(name)
    doc = config_to_dict(cfg)
    doc["rom_limits"] = {"left_knee": [30.0, 180.0], "left_elbow": [20.0, 180.0]}
    doc["key_joint_threshold_deg"] = 15.0
    doc["phase"]["min_ratio"] = 0.6
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    assert load_exercise_config(path) == cfg


def test_rejects_inverted_reference_range():
    with pytest.raises(ValidationError, match="left_knee"):
        ExerciseConfig(exercise_id="x", body_class="Lower",
                       phase=PhaseConfig(primary_joint=JointId.LEFT_KNEE),
                       targeted_joints=(JointId.LEFT_HIP, JointId.LEFT_KNEE),
                       reference_angles={JointId.LEFT_KNEE: (175.0, 90.0)})
