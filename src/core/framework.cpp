#include "src/core/framework.hpp"

#include <cassert>
#include <numeric>

namespace lore::core {

void ResiliencyModelRegistry::register_model(const std::string& name, Model model) {
  assert(model != nullptr);
  models_[name] = std::move(model);
}

bool ResiliencyModelRegistry::has(const std::string& name) const {
  return models_.count(name) > 0;
}

double ResiliencyModelRegistry::evaluate(const std::string& name,
                                         std::span<const double> observation) const {
  return model(name)(observation);
}

const ResiliencyModelRegistry::Model& ResiliencyModelRegistry::model(
    const std::string& name) const {
  const auto it = models_.find(name);
  assert(it != models_.end());
  return it->second;
}

std::vector<std::string> ResiliencyModelRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, model] : models_) out.push_back(name);
  return out;
}

double TrainingReport::early_mean(std::size_t window) const {
  if (episode_rewards.empty()) return 0.0;
  const std::size_t n = std::min(window, episode_rewards.size());
  return std::accumulate(episode_rewards.begin(),
                         episode_rewards.begin() + static_cast<std::ptrdiff_t>(n), 0.0) /
         static_cast<double>(n);
}

double TrainingReport::late_mean(std::size_t window) const {
  if (episode_rewards.empty()) return 0.0;
  const std::size_t n = std::min(window, episode_rewards.size());
  return std::accumulate(episode_rewards.end() - static_cast<std::ptrdiff_t>(n),
                         episode_rewards.end(), 0.0) /
         static_cast<double>(n);
}

TrainingReport LearningController::train(ReliabilityEnvironment& env, std::size_t episodes,
                                         std::size_t steps_per_episode) {
  learner_ = std::make_unique<ml::QLearner>(env.num_states(), env.num_actions(), cfg_);
  TrainingReport report;
  report.episode_rewards.reserve(episodes);
  for (std::size_t e = 0; e < episodes; ++e) {
    std::size_t state = env.reset();
    double total = 0.0;
    std::size_t steps = 0;
    for (; steps < steps_per_episode; ++steps) {
      const auto action = learner_->select_action(state);
      const auto result = env.step(action);
      learner_->update(state, action, result.reward, result.next_state, 0, result.terminal);
      total += result.reward;
      state = result.next_state;
      if (result.terminal) break;
    }
    learner_->end_episode();
    report.episode_rewards.push_back(total / static_cast<double>(std::max<std::size_t>(1, steps)));
  }
  return report;
}

std::size_t LearningController::policy(std::size_t state) const {
  assert(trained());
  return learner_->best_action(state);
}

double LearningController::evaluate(ReliabilityEnvironment& env, std::size_t episodes,
                                    std::size_t steps_per_episode) const {
  assert(trained());
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t e = 0; e < episodes; ++e) {
    std::size_t state = env.reset();
    for (std::size_t s = 0; s < steps_per_episode; ++s) {
      const auto result = env.step(learner_->best_action(state));
      total += result.reward;
      ++count;
      state = result.next_state;
      if (result.terminal) break;
    }
  }
  return count ? total / static_cast<double>(count) : 0.0;
}

}  // namespace lore::core
