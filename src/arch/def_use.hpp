// Def-use index of a golden run: when each register and data word is next
// read or written, and whether a program index is fetched again. The batched
// fault-injection body asks it whether a flip can still matter before
// simulating the rest of the program (DESIGN.md §11, "Dead sites").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/arch/cpu.hpp"

namespace lore::arch {

class DefUseIndex {
 public:
  /// The golden run's next access to a location.
  enum class Next : std::uint8_t { kNone, kRead, kWrite };

  DefUseIndex() = default;
  /// An empty index over the registers, memory words [0, data_words) and
  /// the instructions of `program`.
  DefUseIndex(const Program& program, std::size_t data_words);

  /// Record the accesses of the instruction `cpu` executes next. Call before
  /// every step of a golden replay, which never traps.
  void record(const Cpu& cpu);
  /// Sort the recorded accesses into the per-location index; call once,
  /// after the replay and before any query.
  void seal();

  /// First access at or after golden cycle `cycle` (the cycle count a Cpu
  /// holds just before the access executes). An instruction that reads and
  /// writes the same register reads it.
  Next next_register_access(std::size_t reg, std::uint64_t cycle) const {
    return next(reg, cycle);
  }
  /// As next_register_access, for a word < data_words().
  Next next_memory_access(std::size_t word, std::uint64_t cycle) const {
    return next(kNumRegisters + word, cycle);
  }
  /// True when program index `index` is fetched at or after `cycle`.
  bool fetched_from(std::size_t index, std::uint64_t cycle) const {
    return index < last_fetch_.size() && last_fetch_[index] > cycle;
  }

  std::size_t data_words() const { return data_words_; }
  /// A register's accesses in golden order, each `cycle << 1 | is_write`.
  std::span<const std::uint64_t> register_events(std::size_t reg) const {
    return {events_.data() + offsets_[reg], events_.data() + offsets_[reg + 1]};
  }

 private:
  /// One static instruction's register accesses, decoded once.
  struct Decoded {
    std::uint8_t reads[2] = {0, 0};
    std::uint8_t num_reads = 0;
    bool writes = false;  // writes `rd` without reading it
  };

  Next next(std::size_t key, std::uint64_t cycle) const;
  void add(std::size_t key, std::uint64_t event) {
    keys_.push_back(static_cast<std::uint32_t>(key));
    recorded_.push_back(event);
  }

  std::size_t data_words_ = 0;
  /// Every location's events, location by location (registers, then data
  /// words); location k owns [offsets_[k], offsets_[k + 1]).
  std::vector<std::uint64_t> events_;
  std::vector<std::size_t> offsets_;
  /// 1 + the last golden cycle each program index is fetched at; 0 = never.
  std::vector<std::uint64_t> last_fetch_;
  // Recording state, released by seal().
  std::vector<Decoded> decoded_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint64_t> recorded_;
};

}  // namespace lore::arch
