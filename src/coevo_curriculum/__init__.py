"""Co-evolutionary task curricula for sparse-reward cooperative grid worlds."""

from .config import ConfigError, ExperimentConfig, config_from_dict, load_config
from .evolution import (EvolutionParams, Generation, Population, TaskRecord, advance_toward,
                        assign_population_fitness, crossover, crossover_step, delete_bad_tasks,
                        evolve_generation, init_population, mutate, pair_generation,
                        sample_direction, soft_select)
from .fitness import FitnessParams, PrototypeSet, knn_estimate, linear_fitness, sigmoid_fitness
from .gridworld import EnvConfig, GridSpread, GridState, obs_index
from .harness import EpochMetrics, RunResult, run_ablation, run_experiment
from .tasks import (TaskDomain, TaskGenome, discretize, opposite_corner_target,
                    start_goal_distance)
from .trainer import LearnerParams, evaluate_target, greedy_success, train_on_tasks

__version__ = "0.1.0"
