#include "src/arch/features.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace lore::arch {

std::vector<double> register_features(const Workload& w, std::size_t reg) {
  assert(reg < kNumRegisters);
  // Dynamic counts from a clean run.
  Cpu cpu(w.memory_words);
  cpu.load_program(w.program);
  for (const auto& [addr, value] : w.memory_init) cpu.set_mem(addr, value);
  cpu.run(w.max_cycles);
  const double reads = static_cast<double>(cpu.register_reads()[reg]);
  const double writes = static_cast<double>(cpu.register_writes()[reg]);
  const double cycles = static_cast<double>(std::max<std::uint64_t>(1, cpu.cycles()));

  // Static usage.
  double fanout = 0.0, addr_use = 0.0, branch_use = 0.0, reader_fraction = 0.0;
  for (const auto& ins : w.program) {
    const auto sources = source_registers(ins);
    const bool reads_reg =
        std::find(sources.begin(), sources.end(), static_cast<unsigned>(reg)) != sources.end();
    if (reads_reg) {
      fanout += 1.0;
      reader_fraction += 1.0;
      if (is_memory(ins.op) && ins.rs1 == reg) addr_use += 1.0;
      if (is_branch(ins.op)) branch_use += 1.0;
    }
  }
  reader_fraction /= static_cast<double>(std::max<std::size_t>(1, w.program.size()));

  return {reads / cycles,
          writes / cycles,
          reads / std::max(1.0, writes),
          fanout,
          addr_use,
          branch_use,
          reader_fraction};
}

std::vector<double> instruction_features(const Program& p, std::size_t idx) {
  assert(idx < p.size());
  const auto& ins = p[idx];

  // Static result fan-out until redefinition (straight-line approximation).
  double fanout = 0.0;
  if (writes_register(ins.op)) {
    for (std::size_t j = idx + 1; j < p.size(); ++j) {
      const auto sources = source_registers(p[j]);
      if (std::find(sources.begin(), sources.end(), static_cast<unsigned>(ins.rd)) !=
          sources.end())
        fanout += 1.0;
      if (writes_register(p[j].op) && p[j].rd == ins.rd) break;  // redefined
    }
  }
  // Distance to the next store / branch after this instruction (observability
  // latency proxies). Capped at 32.
  auto distance_to = [&](auto pred) {
    for (std::size_t j = idx + 1; j < p.size() && j - idx <= 32; ++j)
      if (pred(p[j].op)) return static_cast<double>(j - idx);
    return 32.0;
  };

  return {ins.op == Opcode::kNop || ins.op == Opcode::kHalt ? 1.0 : 0.0,
          writes_register(ins.op) ? 1.0 : 0.0,
          is_memory(ins.op) ? 1.0 : 0.0,
          is_branch(ins.op) ? 1.0 : 0.0,
          static_cast<double>(source_registers(ins).size()),
          static_cast<double>(static_cast<unsigned>(ins.op)) / 18.0,
          fanout,
          distance_to([](Opcode op) { return op == Opcode::kSt; }),
          distance_to([](Opcode op) { return is_branch(op); }),
          static_cast<double>(idx) / static_cast<double>(p.size())};
}

ml::FeatureGraph build_program_graph(const Program& p) {
  ml::FeatureGraph g(kInstructionFeatureDim);
  for (std::size_t i = 0; i < p.size(); ++i) g.add_node(instruction_features(p, i));

  // Data-dependency edges, both directions: def -> use (type 0) carries
  // producer context; use -> def (type 1) tells a producer where its value
  // flows — the direction that determines SDC-proneness (a result consumed
  // by a store corrupts memory; one consumed by a branch diverts control).
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!writes_register(p[i].op)) continue;
    for (std::size_t j = i + 1; j < p.size(); ++j) {
      const auto sources = source_registers(p[j]);
      if (std::find(sources.begin(), sources.end(), static_cast<unsigned>(p[i].rd)) !=
          sources.end()) {
        g.add_edge(i, j, 0);
        g.add_edge(j, i, 1);
      }
      if (writes_register(p[j].op) && p[j].rd == p[i].rd) break;
    }
  }
  // Control adjacency, both directions: fall-through/branch target forward
  // (type 2) and backward (type 3).
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i + 1 < p.size() && p[i].op != Opcode::kJmp && p[i].op != Opcode::kHalt) {
      g.add_edge(i, i + 1, 2);
      g.add_edge(i + 1, i, 3);
    }
    if (is_branch(p[i].op) && p[i].imm >= 0 &&
        static_cast<std::size_t>(p[i].imm) < p.size()) {
      g.add_edge(i, static_cast<std::size_t>(p[i].imm), 2);
      g.add_edge(static_cast<std::size_t>(p[i].imm), i, 3);
    }
  }
  g.finalize();
  return g;
}

ml::Dataset register_vulnerability_dataset(const Workload& w,
                                           const std::vector<FaultRecord>& register_campaign,
                                           double threshold) {
  std::vector<std::size_t> fails(kNumRegisters, 0), totals(kNumRegisters, 0);
  for (const auto& r : register_campaign) {
    assert(r.site.target == FaultTarget::kRegister);
    ++totals[r.site.index];
    fails[r.site.index] += r.outcome == Outcome::kSdc || r.outcome == Outcome::kCrash ||
                           r.outcome == Outcome::kHang;
  }
  ml::Dataset d;
  for (std::size_t reg = 0; reg < kNumRegisters; ++reg) {
    if (totals[reg] == 0) continue;
    const double failure_rate =
        static_cast<double>(fails[reg]) / static_cast<double>(totals[reg]);
    d.add(register_features(w, reg), failure_rate > threshold ? 1 : 0, failure_rate);
  }
  return d;
}

std::vector<int> instruction_vulnerability_labels(
    const Program& p, const std::vector<FaultRecord>& instruction_campaign,
    double threshold) {
  std::vector<std::size_t> fails(p.size(), 0), totals(p.size(), 0);
  for (const auto& r : instruction_campaign) {
    assert(r.site.target == FaultTarget::kInstruction);
    if (r.site.index >= p.size()) continue;
    ++totals[r.site.index];
    fails[r.site.index] += r.outcome == Outcome::kSdc || r.outcome == Outcome::kCrash ||
                           r.outcome == Outcome::kHang;
  }
  std::vector<int> labels(p.size(), 0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (totals[i] == 0) continue;
    labels[i] =
        static_cast<double>(fails[i]) / static_cast<double>(totals[i]) > threshold ? 1 : 0;
  }
  return labels;
}

std::vector<int> instruction_outcome_labels(const Program& p,
                                            const std::vector<FaultRecord>& campaign) {
  std::vector<std::array<std::size_t, 3>> counts(p.size(), {0, 0, 0});
  for (const auto& r : campaign) {
    if (r.site.target != FaultTarget::kInstruction || r.site.index >= p.size()) continue;
    switch (r.outcome) {
      case Outcome::kBenign: ++counts[r.site.index][0]; break;
      case Outcome::kSdc: ++counts[r.site.index][1]; break;
      case Outcome::kCrash:
      case Outcome::kHang: ++counts[r.site.index][2]; break;
      case Outcome::kDetected: break;
    }
  }
  std::vector<int> labels(p.size(), -1);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const auto& c = counts[i];
    const std::size_t total = c[0] + c[1] + c[2];
    if (total == 0) continue;
    labels[i] = static_cast<int>(std::max_element(c.begin(), c.end()) - c.begin());
  }
  return labels;
}

FaultSiteFeaturizer::FaultSiteFeaturizer(const Workload& w, std::uint64_t golden_cycles) {
  inv_cycles_ = golden_cycles > 0 ? 1.0 / static_cast<double>(golden_cycles) : 0.0;
  // Same live data window as FaultInjector::random_site.
  const std::size_t mem_hi = data_window_words(w);
  inv_mem_ = mem_hi > 0 ? 1.0 / static_cast<double>(mem_hi) : 0.0;
  inv_prog_ = w.program.empty() ? 0.0 : 1.0 / static_cast<double>(w.program.size());
  reg_features_.reserve(kNumRegisters * kRegisterFeatureDim);
  for (std::size_t reg = 0; reg < kNumRegisters; ++reg) {
    const auto f = register_features(w, reg);
    reg_features_.insert(reg_features_.end(), f.begin(), f.end());
  }
}

void FaultSiteFeaturizer::featurize(const FaultSite& site, std::span<double> out) const {
  assert(out.size() >= kFaultSiteFeatureDim);
  std::fill(out.begin(), out.begin() + kFaultSiteFeatureDim, 0.0);
  double inv_index = 0.0;
  switch (site.target) {
    case FaultTarget::kRegister: inv_index = 1.0 / static_cast<double>(kNumRegisters); break;
    case FaultTarget::kMemory: inv_index = inv_mem_; break;
    case FaultTarget::kInstruction: inv_index = inv_prog_; break;
  }
  out[static_cast<std::size_t>(site.target)] = 1.0;
  out[3] = static_cast<double>(site.index) * inv_index;
  out[4] = static_cast<double>(site.bit) / 32.0;
  out[5] = static_cast<double>(site.cycle) * inv_cycles_;
  if (site.target == FaultTarget::kRegister && site.index < kNumRegisters) {
    const double* rf = reg_features_.data() + site.index * kRegisterFeatureDim;
    std::copy(rf, rf + kRegisterFeatureDim, out.begin() + 6);
  }
}

}  // namespace lore::arch
