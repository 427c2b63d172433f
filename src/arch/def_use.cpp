#include "src/arch/def_use.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace lore::arch {

DefUseIndex::DefUseIndex(const Program& program, std::size_t data_words)
    : data_words_(data_words), last_fetch_(program.size(), 0), decoded_(program.size()) {
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Instruction& ins = program[i];
    Decoded& d = decoded_[i];
    for (const unsigned r : source_registers(ins))
      if (d.num_reads == 0 || d.reads[0] != r) d.reads[d.num_reads++] = static_cast<std::uint8_t>(r);
    d.writes = writes_register(ins.op) &&
               std::find(d.reads, d.reads + d.num_reads, ins.rd) == d.reads + d.num_reads;
  }
}

void DefUseIndex::record(const Cpu& cpu) {
  const std::uint32_t pc = cpu.pc();
  if (pc >= decoded_.size()) return;
  const std::uint64_t read = cpu.cycles() << 1;
  const std::uint64_t write = read | 1;
  last_fetch_[pc] = cpu.cycles() + 1;
  const Decoded& d = decoded_[pc];
  const Instruction& ins = cpu.program()[pc];
  for (std::uint8_t k = 0; k < d.num_reads; ++k) add(d.reads[k], read);
  if (d.writes) add(ins.rd, write);
  if (is_memory(ins.op)) {
    const std::uint32_t addr = cpu.reg(ins.rs1) + static_cast<std::uint32_t>(ins.imm);
    if (addr < data_words_) add(kNumRegisters + addr, ins.op == Opcode::kLd ? read : write);
  }
}

void DefUseIndex::seal() {
  // Counting sort by location; the replay recorded each location's events
  // in ascending cycle order, and the sort is stable.
  offsets_.assign(kNumRegisters + data_words_ + 1, 0);
  for (const std::uint32_t key : keys_) ++offsets_[key + 1];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  events_.resize(recorded_.size());
  std::vector<std::size_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < keys_.size(); ++i) events_[fill[keys_[i]]++] = recorded_[i];
  keys_ = {};
  recorded_ = {};
  decoded_ = {};
}

DefUseIndex::Next DefUseIndex::next(std::size_t key, std::uint64_t cycle) const {
  assert(key + 1 < offsets_.size());
  const auto first = events_.begin() + static_cast<std::ptrdiff_t>(offsets_[key]);
  const auto last = events_.begin() + static_cast<std::ptrdiff_t>(offsets_[key + 1]);
  const auto it = std::lower_bound(first, last, cycle << 1);
  if (it == last) return Next::kNone;
  return (*it & 1) ? Next::kWrite : Next::kRead;
}

}  // namespace lore::arch
