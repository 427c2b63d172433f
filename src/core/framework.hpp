// The paper's Fig. 1 in code: a learning-based reliability manager is an
// agent observing states, taking actions (optimization knobs), and optimizing
// a reward built from resiliency models (MTTF, MWTF, SER, temperature). This
// module provides the generic loop; concrete environments live next door
// (crosslayer.hpp) and in src/os (the DVFS governor is the same pattern
// specialized for the simulator).
#pragma once

#include <functional>
#include <memory>
#include <map>
#include <string>
#include <vector>

#include "src/ml/qlearning.hpp"

namespace lore::core {

/// A discrete reliability-management environment.
class ReliabilityEnvironment {
 public:
  virtual ~ReliabilityEnvironment() = default;

  virtual std::size_t num_states() const = 0;
  virtual std::size_t num_actions() const = 0;
  /// Reset to an initial state; returns it.
  virtual std::size_t reset() = 0;

  struct StepResult {
    std::size_t next_state = 0;
    double reward = 0.0;
    bool terminal = false;
  };
  virtual StepResult step(std::size_t action) = 0;
  virtual std::string name() const = 0;
};

/// Registry of resiliency models (Fig. 1's "resiliency models" box): named
/// providers mapping an observation vector to a reliability figure of merit.
class ResiliencyModelRegistry {
 public:
  using Model = std::function<double(std::span<const double>)>;

  void register_model(const std::string& name, Model model);
  bool has(const std::string& name) const;
  double evaluate(const std::string& name, std::span<const double> observation) const;
  /// The model registered under `name` (which must exist), for callers that
  /// resolve it once and evaluate it many times. The reference stays valid
  /// while the registry lives; re-registering the name replaces its target.
  const Model& model(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  std::map<std::string, Model> models_;
};

struct TrainingReport {
  /// Mean reward per episode over training (the learning curve).
  std::vector<double> episode_rewards;

  /// Mean reward over the first / last `window` episodes — the improvement
  /// the Fig. 1 loop is supposed to deliver.
  double early_mean(std::size_t window = 10) const;
  double late_mean(std::size_t window = 10) const;
};

/// The learning controller of Fig. 1: tabular Q-learning over the
/// environment (the survey's most common choice for run-time management).
class LearningController {
 public:
  explicit LearningController(ml::QLearnerConfig cfg = {}) : cfg_(cfg) {}

  /// Train for `episodes` of at most `steps_per_episode` steps.
  TrainingReport train(ReliabilityEnvironment& env, std::size_t episodes,
                       std::size_t steps_per_episode);

  /// Greedy action for a state (after training).
  std::size_t policy(std::size_t state) const;
  /// Average reward of running the greedy policy.
  double evaluate(ReliabilityEnvironment& env, std::size_t episodes,
                  std::size_t steps_per_episode) const;

  bool trained() const { return learner_ != nullptr; }

 private:
  ml::QLearnerConfig cfg_;
  std::unique_ptr<ml::QLearner> learner_;
};

}  // namespace lore::core
