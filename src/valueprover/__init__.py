"""Reward-free value-guided proof search in a toy Peano equational prover.

The package is organized bottom-up:

- terms / env: the deterministic proving environment (terms, obligations,
  tactics, scripts, replay and the discharge spans of a replay trace)
- oracle: brute-force shortest proofs and the gamma^L value of their length,
  from env alone
- corpus: theorem generation, persistence and splitting
- predictor: the supervised tactic predictor and the action space it bounds
  (the top-n actions that apply, their cache, and the task filter's check
  that they hold every step of a trace span)
- encoder: hashed obligation encodings
- value_model: the value estimator, its multiplicative update targets and
  the three experience buffers
- search: the table of the six strategies that eval and prove run by name
  (greedy, DFS, best-first and A*, each a priority, a depth cap and whether
  it backtracks) and the one priority loop they all expand through
- trainer: run_training, the one corpus-to-model pipeline; the training
  tasks cut from one replay of each proof, pretraining, the demonstration
  curriculum, the single-actor RL loop and checkpoints
- reports, cli: evaluation reports and the command-line interface
"""

from .env import (
    Hyperstate,
    Obligation,
    ProofScript,
    Tactic,
    TacticError,
    Theorem,
    apply_tactic,
    format_obligation,
    parse_obligation,
    parse_script,
    parse_tactic,
    replay_script,
    step_hyperstate,
)
from .terms import Term, parse_term, format_term, normalize
from .oracle import OracleResult, shortest_proof
from .corpus import CorpusEntry, CorpusSplit, generate_corpus, load_corpus, save_corpus, split_corpus
from .predictor import ActionCache, Predictor, TacticPrediction, featurize, predict_top_n, train_predictor
from .encoder import encode_hashed
from .value_model import ValueModel, bellman_target, pretrain, steps_estimate
from .search import (
    EVAL_STRATEGIES,
    SearchNode,
    SearchResult,
    run_strategy,
    search_from,
)
from .trainer import TrainerConfig, TrainingTask, demonstration_schedule, prepare_tasks, run_episode
from .trainer import fit_predictor, run_training, train

__version__ = "0.1.0"
