"""K-step return estimation for RL-based distillation of sequence generators.

A teacher's pre-softmax logits define a Q-surface; inverting the Bellman
optimality recursion over one or K steps turns it into per-step learning
signals for REINFORCE training of a student generator.  Everything is sized
so that exhaustive enumeration oracles can verify the estimators' bias and
variance exactly.
"""

from .models import LogitModel, ModelArch
from .returns import ReturnConfig
from .seqmdp import State, Vocabulary, initial_state
from .teacher import FrozenModelTeacher, fit_teacher
from .trainer import TrainConfig, predistill, train_population

__all__ = [
    "LogitModel",
    "ModelArch",
    "ReturnConfig",
    "State",
    "Vocabulary",
    "FrozenModelTeacher",
    "TrainConfig",
    "initial_state",
    "fit_teacher",
    "predistill",
    "train_population",
]

__version__ = "0.1.0"
