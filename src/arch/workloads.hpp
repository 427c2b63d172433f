// Benchmark kernels for the fault-injection campaigns, written in the LORE
// ISA. Each workload carries its memory image and declares where the result
// lives, so outcome classification can diff architectural results against a
// golden run. Scale parameters support the scale-dependent soft-error
// experiment (E6 / [21]).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/isa.hpp"
#include "src/common/rng.hpp"

namespace lore::arch {

struct Workload {
  std::string name;
  Program program;
  /// Initial memory image as (word address, value) pairs.
  std::vector<std::pair<std::size_t, std::uint32_t>> memory_init;
  /// Architectural result: the golden run's memory[output_base .. +words).
  std::size_t output_base = 0;
  std::size_t output_words = 1;
  /// Cycle budget: beyond this a run counts as hung.
  std::uint64_t max_cycles = 200000;
  std::size_t memory_words = 4096;
};

/// Words [0, n) of the workload's live data window: every initialized word
/// and the output region. Memory fault sites are drawn from it.
std::size_t data_window_words(const Workload& w);

/// result = sum(a[i] * b[i]); random vectors of length n.
Workload make_dot_product(std::size_t n, std::uint64_t seed);
/// c = a * b for n x n matrices (row-major).
Workload make_matmul(std::size_t n, std::uint64_t seed);
/// In-place ascending bubble sort of n random words.
Workload make_bubble_sort(std::size_t n, std::uint64_t seed);
/// Rolling xor/rotate checksum over n words.
Workload make_checksum(std::size_t n, std::uint64_t seed);
/// Iterative Fibonacci mod 2^32 up to index n.
Workload make_fibonacci(std::size_t n);
/// Largest element search over n random words.
Workload make_find_max(std::size_t n, std::uint64_t seed);

/// The standard suite at a given data scale.
std::vector<Workload> standard_workloads(std::size_t scale, std::uint64_t seed);

/// Random synthetic program: ALU/memory mix with occasional forward
/// branches, memory-safe addressing, stores spread across the output
/// window. Used for program-population experiments (E7) where the standard
/// kernels are too small to train graph models on.
Workload make_random_program(std::size_t num_instructions, std::uint64_t seed);

}  // namespace lore::arch
