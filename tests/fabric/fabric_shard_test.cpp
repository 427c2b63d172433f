// Shard partitioning, the work-stealing shard table, checkpoint-payload
// merge semantics (overlaps, duplicates), and the decode_checkpoint
// diagnostics — including the identity-mismatch message carrying BOTH the
// expected and found hashes plus the payload's build tag, and a CRC-valid
// frame whose entry count no payload could hold. The LORECKP1 bytes are
// pinned by a golden frame, every truncation and a forged payload length are
// rejected without throwing, and the slice-by-8 CRC-32 is checked against a
// bytewise oracle.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>

#include "src/arch/fault.hpp"
#include "src/arch/workloads.hpp"
#include "src/fabric/shard.hpp"
#include "src/obs/crc32.hpp"

namespace {

using namespace lore;
using namespace lore::fabric;

TEST(ShardRanges, PartitionCoversExactlyOnce) {
  for (const std::size_t trials : {0u, 1u, 7u, 100u, 101u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 200u}) {
      const auto ranges = shard_trial_ranges(trials, shards);
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (const auto& r : ranges) {
        EXPECT_EQ(r.begin, prev_end);  // contiguous, in order
        EXPECT_GT(r.end, r.begin);     // no empty shards
        covered += r.size();
        prev_end = r.end;
      }
      EXPECT_EQ(covered, trials);
      if (trials > 0) EXPECT_EQ(ranges.size(), std::min(trials, shards));
    }
  }
}

TEST(ShardRanges, NearEqualSplit) {
  const auto ranges = shard_trial_ranges(10, 4);
  ASSERT_EQ(ranges.size(), 4u);
  // 10 = 3 + 3 + 2 + 2: first trials%shards ranges are one longer.
  EXPECT_EQ(ranges[0].size(), 3u);
  EXPECT_EQ(ranges[1].size(), 3u);
  EXPECT_EQ(ranges[2].size(), 2u);
  EXPECT_EQ(ranges[3].size(), 2u);
}

TEST(ShardTable, PendingFirstThenStealsOldestStraggler) {
  using namespace std::chrono;
  ShardTable table(100, 3);
  const auto t0 = ShardTable::Clock::now();

  const auto a = table.acquire(t0, milliseconds(50));
  const auto b = table.acquire(t0 + milliseconds(10), milliseconds(50));
  const auto c = table.acquire(t0 + milliseconds(20), milliseconds(50));
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(table.inflight(), 3u);

  // Nothing stealable yet: every dispatch is younger than steal_after.
  EXPECT_FALSE(table.acquire(t0 + milliseconds(30), milliseconds(50)).has_value());

  // Past the deadline the OLDEST dispatch (shard a) is re-dispatched.
  const auto stolen = table.acquire(t0 + milliseconds(100), milliseconds(50));
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(*stolen, *a);
  EXPECT_EQ(table.steals(), 1u);
  EXPECT_EQ(table.info(*a).holders, 2u);

  // First completion wins; the loser abandoning afterwards must not revive it.
  table.complete(*stolen);
  EXPECT_EQ(table.done(), 1u);
  table.abandon(*a);
  EXPECT_EQ(table.done(), 1u);
  EXPECT_EQ(table.info(*a).state, ShardState::kDone);
}

TEST(ShardTable, AbandonReturnsToPendingOnlyWhenLastHolderDrops) {
  using namespace std::chrono;
  ShardTable table(10, 1);
  const auto t0 = ShardTable::Clock::now();
  const auto s = table.acquire(t0, milliseconds(0));
  ASSERT_TRUE(s);
  // steal_after = 0: the same shard is immediately re-dispatchable.
  const auto s2 = table.acquire(t0 + milliseconds(1), milliseconds(0));
  ASSERT_TRUE(s2);
  EXPECT_EQ(*s2, *s);
  EXPECT_EQ(table.info(*s).holders, 2u);

  table.abandon(*s);
  EXPECT_EQ(table.info(*s).state, ShardState::kInflight);  // one holder left
  table.abandon(*s);
  EXPECT_EQ(table.info(*s).state, ShardState::kPending);   // back in play
}

class MergeFixture : public ::testing::Test {
 protected:
  MergeFixture()
      : workload_(arch::make_dot_product(16, 7)), injector_(workload_) {
    CampaignSpec base;
    base.trials = 100;
    base.base_seed = 42;
    base.threads = 1;
    spec_ = injector_.resolved_spec(base, arch::FaultTarget::kRegister);
    reference_ = injector_.campaign_run(spec_, arch::FaultTarget::kRegister).records;
  }

  CampaignCheckpoint shard(std::size_t begin, std::size_t end) {
    return injector_.campaign_shard(spec_, {begin, end}, arch::FaultTarget::kRegister);
  }

  arch::Workload workload_;
  arch::FaultInjector injector_;
  CampaignSpec spec_;
  std::vector<arch::FaultRecord> reference_;
};

TEST_F(MergeFixture, OverlappingShardsMergeBitIdentical) {
  // Ranges [0,60) and [40,100) overlap on [40,60): merge must keep each
  // trial exactly once and reproduce the single-process records.
  CampaignCheckpoint merged = shard(0, 60);
  const CampaignCheckpoint other = shard(40, 100);

  std::vector<std::uint8_t> seen(spec_.trials, 0);
  for (const auto& e : merged.entries) seen[e.trial] = 1;
  const std::size_t fresh = merge_checkpoint_entries(merged, other, seen);
  EXPECT_EQ(fresh, 40u);                    // 20 of other's 60 were duplicates
  EXPECT_EQ(merged.entries.size(), 100u);

  const auto result =
      arch::FaultInjector::records_from_checkpoint(spec_, merged);
  EXPECT_EQ(result.report.completed, 100u);
  EXPECT_EQ(result.records, reference_);
}

TEST_F(MergeFixture, DuplicateShardFromStolenStragglerIsDiscarded) {
  CampaignCheckpoint merged = shard(0, 100);
  std::vector<std::uint8_t> seen(spec_.trials, 0);
  for (const auto& e : merged.entries) seen[e.trial] = 1;

  // A stolen-then-completed straggler delivers the same range again.
  const std::size_t fresh = merge_checkpoint_entries(merged, shard(30, 70), seen);
  EXPECT_EQ(fresh, 0u);
  EXPECT_EQ(merged.entries.size(), 100u);
  EXPECT_EQ(arch::FaultInjector::records_from_checkpoint(spec_, merged).records,
            reference_);
}

TEST_F(MergeFixture, EncodeDecodeRoundtrip) {
  const CampaignCheckpoint ck = shard(10, 30);
  const auto back = decode_checkpoint(encode_checkpoint(ck), spec_, "roundtrip");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->identity, ck.identity);
  EXPECT_EQ(back->trials, ck.trials);
  ASSERT_EQ(back->entries.size(), ck.entries.size());
  for (std::size_t i = 0; i < ck.entries.size(); ++i) {
    EXPECT_EQ(back->entries[i].trial, ck.entries[i].trial);
    EXPECT_EQ(back->payload(back->entries[i]), ck.payload(ck.entries[i]));
  }
}

TEST_F(MergeFixture, CorruptPayloadRejectedWithDiagnostic) {
  std::string wire = encode_checkpoint(shard(0, 20));
  wire[wire.size() / 2] ^= 0x40;  // torn mid-payload

  testing::internal::CaptureStderr();
  const auto back = decode_checkpoint(wire, spec_, "shard 0 from w1");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(back.has_value());
  EXPECT_NE(err.find("shard 0 from w1"), std::string::npos) << err;
  EXPECT_NE(err.find("CRC mismatch"), std::string::npos) << err;
}

TEST_F(MergeFixture, TruncatedPayloadRejected) {
  std::string wire = encode_checkpoint(shard(0, 20));
  wire.resize(wire.size() / 3);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(decode_checkpoint(wire, spec_, "truncated").has_value());
  testing::internal::GetCapturedStderr();
}

TEST_F(MergeFixture, IdentityMismatchMessageNamesBothHashes) {
  // A payload from a DIFFERENT campaign (other base_seed): the warning must
  // name the expected hash, the found hash, and the payload's build tag —
  // enough to debug a mis-wired fleet from the log line alone.
  CampaignSpec other = spec_;
  other.base_seed = spec_.base_seed + 1;
  const CampaignCheckpoint foreign =
      injector_.campaign_shard(other, {0, 5}, arch::FaultTarget::kRegister);

  testing::internal::CaptureStderr();
  const auto back = decode_checkpoint(encode_checkpoint(foreign), spec_, "shard 3");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(back.has_value());

  char expected_hex[32], found_hex[32];
  std::snprintf(expected_hex, sizeof expected_hex, "%016llx",
                static_cast<unsigned long long>(spec_.identity_hash()));
  std::snprintf(found_hex, sizeof found_hex, "%016llx",
                static_cast<unsigned long long>(other.identity_hash()));
  EXPECT_NE(err.find("identity mismatch"), std::string::npos) << err;
  EXPECT_NE(err.find(expected_hex), std::string::npos) << err;
  EXPECT_NE(err.find(found_hex), std::string::npos) << err;
  EXPECT_NE(err.find(checkpoint_build_tag()), std::string::npos) << err;
}

/// Bytewise CRC-32 (IEEE 802.3, reflected): the oracle for obs::crc32, and
/// the LORECKP1 trailer recomputed so a test can forge a frame that passes
/// the CRC check.
std::uint32_t crc32(std::string_view bytes) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    table[i] = c;
  }
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : bytes) crc = (crc >> 8) ^ table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xffu];
  return crc ^ 0xffffffffu;
}

/// A frame of `body` (possibly edited) with its CRC-32 trailer recomputed.
std::string recrc(std::string body) {
  const std::uint32_t crc = crc32(body);
  for (int i = 0; i < 4; ++i) body.push_back(static_cast<char>(crc >> (8 * i)));
  return body;
}

TEST_F(MergeFixture, HostileEntryCountIsRejectedWithoutAllocating) {
  // A CRC-valid frame claiming 2^60 entries: the count must be checked
  // against the bytes left before anything is reserved (reserve(2^60) throws
  // std::length_error, which would take down a coordinator handler thread).
  CampaignCheckpoint ck;
  ck.identity = spec_.identity_hash();
  ck.build_tag = checkpoint_build_tag();
  ck.trials = spec_.trials;
  std::string frame = encode_checkpoint(ck);
  std::string body = frame.substr(0, frame.size() - 4);
  const std::uint64_t count = std::uint64_t{1} << 60;
  for (int i = 0; i < 8; ++i)  // the entry count is the body's last u64
    body[body.size() - 8 + i] = static_cast<char>(count >> (8 * i));
  body = recrc(std::move(body));

  testing::internal::CaptureStderr();
  std::optional<CampaignCheckpoint> back;
  EXPECT_NO_THROW(back = decode_checkpoint(body, spec_, "hostile"));
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(back.has_value());
  EXPECT_NE(err.find("entry count exceeds payload"), std::string::npos) << err;

  // The checkpoint-file loader walks frames with the same bound.
  const std::string path = ::testing::TempDir() + "hostile_count.ckpt";
  std::ofstream(path, std::ios::binary) << body;
  testing::internal::CaptureStderr();
  EXPECT_NO_THROW(back = load_checkpoint(path, spec_));
  testing::internal::GetCapturedStderr();
  EXPECT_FALSE(back.has_value());
  std::filesystem::remove(path);
}

TEST_F(MergeFixture, EveryTruncatedFrameIsRejectedWithoutThrowing) {
  const std::string wire = encode_checkpoint(shard(0, 20));
  const std::string body = wire.substr(0, wire.size() - 4);
  testing::internal::CaptureStderr();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::optional<CampaignCheckpoint> back;
    // As cut (the CRC no longer matches) ...
    EXPECT_NO_THROW(back = decode_checkpoint(wire.substr(0, len), spec_, "cut"));
    EXPECT_FALSE(back.has_value()) << "prefix " << len;
    // ... and with the CRC forged, so the parser meets the short body.
    if (len < body.size()) {
      EXPECT_NO_THROW(back = decode_checkpoint(recrc(body.substr(0, len)), spec_, "cut"));
      EXPECT_FALSE(back.has_value()) << "body prefix " << len;
    }
  }
  testing::internal::GetCapturedStderr();
  ASSERT_TRUE(decode_checkpoint(wire, spec_, "whole").has_value());
}

TEST_F(MergeFixture, InflatedPayloadLengthIsRejectedWithoutThrowing) {
  const std::string wire = encode_checkpoint(shard(0, 3));
  const std::string body = wire.substr(0, wire.size() - 4);
  // Header: magic, version, identity, build tag, trials, entry count; each
  // entry is u64 trial, u32 length, payload.
  const std::size_t first_entry = 8 + 4 + 8 + 4 + checkpoint_build_tag().size() + 8 + 8;
  const std::size_t entry_bytes = (body.size() - first_entry) / 3;
  for (std::size_t entry = 0; entry < 3; ++entry) {
    const std::size_t at = first_entry + entry * entry_bytes + 8;
    for (const std::uint32_t delta : {1u, 0x7fffffffu}) {
      std::string forged = body;
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(forged[at + i])) << (8 * i);
      len += delta;
      for (int i = 0; i < 4; ++i) forged[at + i] = static_cast<char>(len >> (8 * i));
      testing::internal::CaptureStderr();
      std::optional<CampaignCheckpoint> back;
      EXPECT_NO_THROW(back = decode_checkpoint(recrc(forged), spec_, "forged"));
      testing::internal::GetCapturedStderr();
      EXPECT_FALSE(back.has_value()) << "entry " << entry << " +" << delta;
    }
  }

  // The file loader's frame walk bounds the same length field.
  std::string forged = body;
  forged[first_entry + 8 + 3] = 0x7f;
  const std::string path = ::testing::TempDir() + "inflated_length.ckpt";
  std::ofstream(path, std::ios::binary) << recrc(forged);
  testing::internal::CaptureStderr();
  std::optional<CampaignCheckpoint> back;
  EXPECT_NO_THROW(back = load_checkpoint(path, spec_));
  testing::internal::GetCapturedStderr();
  EXPECT_FALSE(back.has_value());
  std::filesystem::remove(path);
}

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[static_cast<std::uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<std::uint8_t>(c) & 0xf]);
  }
  return out;
}

TEST(CheckpointWire, GoldenFrameBytes) {
  // LORECKP1 is a file and wire format (DESIGN.md §9): these bytes must not
  // change with the in-memory layout. Entries keep their order, including an
  // empty payload and bytes that are not text.
  CampaignCheckpoint ck;
  ck.identity = 0x0123456789abcdefULL;
  ck.build_tag = "golden";
  ck.trials = 10;
  ck.add(2, "abc");
  ck.add(7, std::string("\x00\xff\x10zero", 7));
  ck.add(0, "");
  EXPECT_EQ(to_hex(encode_checkpoint(ck)),
            "4c4f5245434b503101000000efcdab896745230106000000676f6c64656e0a0000000000"
            "0000030000000000000002000000000000000300000061626307000000000000000700"
            "000000ff107a65726f00000000000000000000000061fcab39");
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(obs::crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(obs::crc32(nullptr, 0), 0u);
}

TEST(Crc32, SliceByEightEqualsBytewiseOracle) {
  std::mt19937_64 rng(20231018);
  std::string buf(4096 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  std::vector<std::size_t> lengths(65);
  std::iota(lengths.begin(), lengths.end(), 0);  // every tail length
  for (int i = 0; i < 200; ++i) lengths.push_back(rng() % 4097);
  lengths.push_back(4096);
  for (const std::size_t len : lengths)
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view view(buf.data() + offset, len);
      ASSERT_EQ(obs::crc32(view.data(), view.size()), crc32(view))
          << "length " << len << " offset " << offset;
    }
}

TEST_F(MergeFixture, TrialCountMismatchMessageNamesBothCounts) {
  CampaignSpec other = spec_;
  other.trials = 50;  // same identity fields except trials
  // trials is part of identity, so fix identity manually to isolate the
  // trial-count check: encode a checkpoint claiming the right identity but
  // the wrong total.
  CampaignCheckpoint ck = shard(0, 5);
  ck.trials = 50;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(decode_checkpoint(encode_checkpoint(ck), spec_, "src").has_value());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("trial count mismatch"), std::string::npos) << err;
  EXPECT_NE(err.find("100"), std::string::npos) << err;
  EXPECT_NE(err.find("50"), std::string::npos) << err;
}

}  // namespace
