#include "src/arch/workloads.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace lore::arch {
namespace {

Program must_assemble(const std::string& src) {
  std::string err;
  auto prog = assemble(src, &err);
  assert(prog.has_value() && "workload assembly failed");
  return *prog;
}

}  // namespace

Workload make_dot_product(std::size_t n, std::uint64_t seed) {
  assert(n >= 1);
  lore::Rng rng(seed);
  Workload w;
  w.name = "dot_product";
  const std::size_t base_a = 0, base_b = n, out = 2 * n;
  for (std::size_t i = 0; i < n; ++i) {
    w.memory_init.emplace_back(base_a + i, static_cast<std::uint32_t>(rng.uniform_index(1000)));
    w.memory_init.emplace_back(base_b + i, static_cast<std::uint32_t>(rng.uniform_index(1000)));
  }
  w.output_base = out;
  w.output_words = 1;
  std::ostringstream s;
  s << "  li r1, 0\n"                 // index
    << "  li r2, " << n << "\n"       // limit
    << "  li r3, 0\n"                 // acc
    << "loop:\n"
    << "  ld r4, " << base_a << "(r1)\n"
    << "  ld r5, " << base_b << "(r1)\n"
    << "  mul r6, r4, r5\n"
    << "  add r3, r3, r6\n"
    << "  addi r1, r1, 1\n"
    << "  blt r1, r2, loop\n"
    << "  li r7, " << out << "\n"
    << "  st r3, 0(r7)\n"
    << "  halt\n";
  w.program = must_assemble(s.str());
  w.max_cycles = 40 * n + 100;
  return w;
}

Workload make_matmul(std::size_t n, std::uint64_t seed) {
  assert(n >= 1);
  lore::Rng rng(seed);
  Workload w;
  w.name = "matmul";
  const std::size_t base_a = 0, base_b = n * n, base_c = 2 * n * n;
  for (std::size_t i = 0; i < n * n; ++i) {
    w.memory_init.emplace_back(base_a + i, static_cast<std::uint32_t>(rng.uniform_index(50)));
    w.memory_init.emplace_back(base_b + i, static_cast<std::uint32_t>(rng.uniform_index(50)));
  }
  w.output_base = base_c;
  w.output_words = n * n;
  std::ostringstream s;
  // r1=i, r2=j, r3=k, r4=n, r10=acc
  s << "  li r4, " << n << "\n"
    << "  li r1, 0\n"
    << "i_loop:\n"
    << "  li r2, 0\n"
    << "j_loop:\n"
    << "  li r10, 0\n"
    << "  li r3, 0\n"
    << "k_loop:\n"
    << "  mul r5, r1, r4\n"       // i*n
    << "  add r5, r5, r3\n"       // + k
    << "  ld r6, " << base_a << "(r5)\n"
    << "  mul r7, r3, r4\n"       // k*n
    << "  add r7, r7, r2\n"       // + j
    << "  ld r8, " << base_b << "(r7)\n"
    << "  mul r9, r6, r8\n"
    << "  add r10, r10, r9\n"
    << "  addi r3, r3, 1\n"
    << "  blt r3, r4, k_loop\n"
    << "  mul r5, r1, r4\n"
    << "  add r5, r5, r2\n"
    << "  st r10, " << base_c << "(r5)\n"
    << "  addi r2, r2, 1\n"
    << "  blt r2, r4, j_loop\n"
    << "  addi r1, r1, 1\n"
    << "  blt r1, r4, i_loop\n"
    << "  halt\n";
  w.program = must_assemble(s.str());
  w.max_cycles = 60 * n * n * n + 1000;
  return w;
}

Workload make_bubble_sort(std::size_t n, std::uint64_t seed) {
  assert(n >= 2);
  lore::Rng rng(seed);
  Workload w;
  w.name = "bubble_sort";
  for (std::size_t i = 0; i < n; ++i)
    w.memory_init.emplace_back(i, static_cast<std::uint32_t>(rng.uniform_index(100000)));
  w.output_base = 0;
  w.output_words = n;
  std::ostringstream s;
  // r1=i (outer), r2=j (inner), r3=n-1-i bound, r4=n-1
  s << "  li r4, " << n - 1 << "\n"
    << "  li r1, 0\n"
    << "outer:\n"
    << "  li r2, 0\n"
    << "  sub r3, r4, r1\n"
    << "inner:\n"
    << "  ld r5, 0(r2)\n"
    << "  ld r6, 1(r2)\n"
    << "  blt r5, r6, no_swap\n"
    << "  beq r5, r6, no_swap\n"
    << "  st r6, 0(r2)\n"
    << "  st r5, 1(r2)\n"
    << "no_swap:\n"
    << "  addi r2, r2, 1\n"
    << "  blt r2, r3, inner\n"
    << "  addi r1, r1, 1\n"
    << "  blt r1, r4, outer\n"
    << "  halt\n";
  w.program = must_assemble(s.str());
  w.max_cycles = 30 * n * n + 500;
  return w;
}

Workload make_checksum(std::size_t n, std::uint64_t seed) {
  assert(n >= 1);
  lore::Rng rng(seed);
  Workload w;
  w.name = "checksum";
  for (std::size_t i = 0; i < n; ++i)
    w.memory_init.emplace_back(i, static_cast<std::uint32_t>(rng.next_u64()));
  const std::size_t out = n;
  w.output_base = out;
  w.output_words = 1;
  std::ostringstream s;
  // acc = rotl(acc,1) ^ data[i], rotl via shl/shr/or.
  s << "  li r1, 0\n"      // index
    << "  li r2, " << n << "\n"
    << "  li r3, 0\n"      // acc
    << "  li r8, 1\n"
    << "  li r9, 31\n"
    << "loop:\n"
    << "  shl r4, r3, r8\n"
    << "  shr r5, r3, r9\n"
    << "  or r3, r4, r5\n"
    << "  ld r6, 0(r1)\n"
    << "  xor r3, r3, r6\n"
    << "  addi r1, r1, 1\n"
    << "  blt r1, r2, loop\n"
    << "  li r7, " << out << "\n"
    << "  st r3, 0(r7)\n"
    << "  halt\n";
  w.program = must_assemble(s.str());
  w.max_cycles = 30 * n + 100;
  return w;
}

Workload make_fibonacci(std::size_t n) {
  assert(n >= 2);
  Workload w;
  w.name = "fibonacci";
  const std::size_t out = 0;
  w.output_base = out;
  w.output_words = 1;
  std::ostringstream s;
  s << "  li r1, 0\n"   // fib(0)
    << "  li r2, 1\n"   // fib(1)
    << "  li r3, 1\n"   // i: after the loop body runs k times, r2 = fib(1+k)
    << "  li r4, " << n << "\n"
    << "loop:\n"
    << "  add r5, r1, r2\n"
    << "  add r1, r2, r0\n"
    << "  add r2, r5, r0\n"
    << "  addi r3, r3, 1\n"
    << "  blt r3, r4, loop\n"
    << "  li r6, " << out << "\n"
    << "  st r2, 0(r6)\n"
    << "  halt\n";
  w.program = must_assemble(s.str());
  w.max_cycles = 10 * n + 100;
  return w;
}

Workload make_find_max(std::size_t n, std::uint64_t seed) {
  assert(n >= 1);
  lore::Rng rng(seed);
  Workload w;
  w.name = "find_max";
  for (std::size_t i = 0; i < n; ++i)
    w.memory_init.emplace_back(i, static_cast<std::uint32_t>(rng.uniform_index(1u << 30)));
  const std::size_t out = n;
  w.output_base = out;
  w.output_words = 1;
  std::ostringstream s;
  s << "  li r1, 1\n"       // index
    << "  li r2, " << n << "\n"
    << "  ld r3, 0(r0)\n"   // current max = data[0]
    << "loop:\n"
    << "  ld r4, 0(r1)\n"
    << "  blt r4, r3, keep\n"
    << "  add r3, r4, r0\n"
    << "keep:\n"
    << "  addi r1, r1, 1\n"
    << "  blt r1, r2, loop\n"
    << "  li r5, " << out << "\n"
    << "  st r3, 0(r5)\n"
    << "  halt\n";
  w.program = must_assemble(s.str());
  w.max_cycles = 20 * n + 100;
  return w;
}

Workload make_random_program(std::size_t num_instructions, std::uint64_t seed) {
  assert(num_instructions >= 16);
  lore::Rng rng(seed);
  Workload w;
  w.name = "random_program_" + std::to_string(seed % 1000);
  constexpr std::size_t kDataWords = 48;
  constexpr std::size_t kOutWords = 8;
  for (std::size_t i = 0; i < kDataWords; ++i)
    w.memory_init.emplace_back(i, static_cast<std::uint32_t>(rng.next_u64()));
  w.output_base = kDataWords;
  w.output_words = kOutWords;

  Program prog;
  // Seed registers with immediates and loads.
  for (unsigned r = 1; r < kNumRegisters; ++r) {
    if (rng.bernoulli(0.5)) {
      prog.push_back(li(r, static_cast<std::int32_t>(rng.uniform_index(1000))));
    } else {
      prog.push_back(ld(r, 0, static_cast<std::int32_t>(rng.uniform_index(kDataWords))));
    }
  }
  const Opcode alu_ops[] = {Opcode::kAdd, Opcode::kSub, Opcode::kMul, Opcode::kAnd,
                            Opcode::kOr,  Opcode::kXor, Opcode::kShl, Opcode::kShr};
  std::size_t stores_emitted = 0;
  while (prog.size() + 2 < num_instructions) {
    const double dice = rng.uniform();
    auto reg = [&] { return static_cast<unsigned>(1 + rng.uniform_index(kNumRegisters - 1)); };
    if (dice < 0.62) {
      const Opcode op = alu_ops[rng.uniform_index(8)];
      prog.push_back(Instruction{op, static_cast<std::uint8_t>(reg()),
                                 static_cast<std::uint8_t>(reg()),
                                 static_cast<std::uint8_t>(reg()), 0});
    } else if (dice < 0.74) {
      prog.push_back(ld(reg(), 0, static_cast<std::int32_t>(rng.uniform_index(kDataWords))));
    } else if (dice < 0.90) {
      // Store into the output window (r0 stays 0 as the base).
      prog.push_back(st(reg(), 0,
                        static_cast<std::int32_t>(kDataWords + stores_emitted % kOutWords)));
      ++stores_emitted;
    } else {
      // Forward branch skipping 1-3 instructions: always terminates.
      const auto skip = 1 + rng.uniform_index(3);
      const auto target = static_cast<std::int32_t>(prog.size() + 1 + skip);
      if (static_cast<std::size_t>(target) + 2 < num_instructions)
        prog.push_back(blt(reg(), reg(), target));
    }
  }
  // Flush a couple of registers into the output and stop.
  prog.push_back(st(1, 0, static_cast<std::int32_t>(kDataWords)));
  prog.push_back(halt());
  w.program = std::move(prog);
  w.max_cycles = 4 * num_instructions + 100;
  w.memory_words = 256;
  return w;
}

std::size_t data_window_words(const Workload& w) {
  std::size_t hi = w.output_base + w.output_words;
  for (const auto& [addr, value] : w.memory_init) hi = std::max(hi, addr + 1);
  return hi;
}

std::vector<Workload> standard_workloads(std::size_t scale, std::uint64_t seed) {
  lore::Rng rng(seed);
  std::vector<Workload> out;
  out.push_back(make_dot_product(8 * scale, rng.next_u64()));
  out.push_back(make_matmul(2 + scale, rng.next_u64()));
  out.push_back(make_bubble_sort(6 * scale, rng.next_u64()));
  out.push_back(make_checksum(10 * scale, rng.next_u64()));
  out.push_back(make_fibonacci(10 * scale));
  out.push_back(make_find_max(12 * scale, rng.next_u64()));
  return out;
}

}  // namespace lore::arch
