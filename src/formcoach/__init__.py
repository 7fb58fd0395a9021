"""formcoach: assess and correct exercise performances from 2D keypoints."""

from .skeleton import (Annotation, Frame, JointId, Sequence, ValidationError,
                       load_annotation, load_sequence, save_annotation,
                       save_sequence)
from .normalize import (DegenerateSkeletonError, OccludedJointError,
                        normalize_sequence)
from .kinematics import select_key_joints
from .alignment import PaceProfile, Phase, WarpPath, dtw_align, pace_profile
from .assessment import (AssessmentReport, AssessmentResult, Correction,
                         MistakeFlag, Prepared, assess_pair, flag_mistakes,
                         load_report, pace_score, prepare, range_score,
                         save_report, textual_feedback)
from .config import (CorrectionRule, ExerciseConfig, PhaseConfig,
                     load_exercise_config, save_exercise_config)
from .correction import Arrow, VisualAid, build_aid, local_root_for, render_svg
from .synth import InjectedError, MotionSpec, TEMPLATES, exercise_config, generate
from .sttf import (STTFConfig, STTFModel, TrainingDivergedError,
                   load_checkpoint, save_checkpoint, sequence_to_model_input,
                   train)

__version__ = "0.1.0"
