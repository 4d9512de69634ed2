"""K-step return estimation for RL-based distillation of sequence generators.

A teacher's pre-softmax logits define a Q-surface; inverting the Bellman
optimality recursion over one or K steps turns it into per-step learning
signals for REINFORCE training of a student generator.  Everything is sized
so that exhaustive enumeration oracles can verify the estimators' bias and
variance exactly.
"""

from .models import LogitModel, ModelArch, PolicyDistribution
from .returns import ReturnConfig, ReturnEstimate, actual_return, implied_baseline, kstep_return
from .seqmdp import State, Trajectory, Vocabulary, initial_state, rollout, step
from .teacher import FrozenModelTeacher, fit_teacher
from .trainer import TrainConfig, TrainLog, predistill, reinforce_step, train

__all__ = [
    "LogitModel",
    "ModelArch",
    "PolicyDistribution",
    "ReturnConfig",
    "ReturnEstimate",
    "State",
    "Trajectory",
    "Vocabulary",
    "FrozenModelTeacher",
    "TrainConfig",
    "TrainLog",
    "actual_return",
    "kstep_return",
    "implied_baseline",
    "initial_state",
    "rollout",
    "step",
    "fit_teacher",
    "predistill",
    "reinforce_step",
    "train",
]

__version__ = "0.1.0"
