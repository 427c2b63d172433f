// Transport-layer boundary cases for the fabric's socket helpers: recv_all
// against every flavor of early EOF (0, 1, n-1 bytes delivered), send_all
// through kernel-buffer back-pressure, the gathered send_all through a
// forced short write (the resume-inside-a-part path), and recv_frame
// against truncated and oversized wire prefixes — the exact failure shapes
// a SIGKILLed worker leaves on the coordinator's sockets.
//
// All tests run over AF_UNIX socketpairs: no ports, no listeners, and a
// closed peer is visible immediately.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/fabric/protocol.hpp"
#include "src/obs/netutil.hpp"
#include "src/obs/span.hpp"

namespace {

using namespace lore;
using namespace lore::fabric;

struct Pair {
  int a = -1, b = -1;
  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~Pair() {
    obs::close_fd(a);
    obs::close_fd(b);
  }
};

void put_u32_le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// Wire bytes of a valid frame with the given head JSON and body.
std::string wire_frame(const std::string& head, const std::string& body) {
  std::string wire;
  put_u32_le(wire, static_cast<std::uint32_t>(head.size()));
  put_u32_le(wire, static_cast<std::uint32_t>(body.size()));
  wire += head;
  wire += body;
  return wire;
}

TEST(FabricNetutil, RecvAllAssemblesFragmentedDelivery) {
  Pair p;
  const std::string msg = "the quick brown fox jumps over the lazy worker";
  std::thread sender([&] {
    // Drip the payload a byte at a time: every recv on the other side is a
    // partial read.
    for (const char c : msg) {
      ASSERT_TRUE(obs::send_all(p.a, &c, 1));
      std::this_thread::yield();
    }
  });
  std::string got(msg.size(), '\0');
  EXPECT_TRUE(obs::recv_all(p.b, got.data(), got.size()));
  EXPECT_EQ(got, msg);
  sender.join();
}

TEST(FabricNetutil, RecvAllFailsOnEarlyEofAtEveryBoundary) {
  const std::size_t n = 64;
  for (const std::size_t delivered : {std::size_t{0}, std::size_t{1}, n - 1}) {
    Pair p;
    const std::string partial(delivered, 'x');
    if (delivered) {
      ASSERT_TRUE(obs::send_all(p.a, partial.data(), delivered));
    }
    obs::close_fd(p.a);
    p.a = -1;
    std::vector<char> buf(n);
    EXPECT_FALSE(obs::recv_all(p.b, buf.data(), n)) << delivered << " bytes then EOF";
  }
  // Exactly n bytes then EOF is NOT an error.
  Pair p;
  const std::string full(n, 'x');
  ASSERT_TRUE(obs::send_all(p.a, full.data(), n));
  obs::close_fd(p.a);
  p.a = -1;
  std::vector<char> buf(n);
  EXPECT_TRUE(obs::recv_all(p.b, buf.data(), n));
}

TEST(FabricNetutil, SendAllSurvivesKernelBufferBackPressure) {
  Pair p;
  // Well past any default AF_UNIX buffer, so send(2) must block/short-write
  // and send_all must loop.
  const std::size_t n = 4u << 20;
  std::vector<char> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<char>(i * 131u);
  std::vector<char> in(n);
  std::thread reader([&] { EXPECT_TRUE(obs::recv_all(p.b, in.data(), n)); });
  EXPECT_TRUE(obs::send_all(p.a, out.data(), n));
  reader.join();
  EXPECT_EQ(std::memcmp(out.data(), in.data(), n), 0);
}

TEST(FabricNetutil, GatheredSendAllResumesInsideAPartAfterAShortWrite) {
  // Parts in order, one of them empty. A blocking send returns short only
  // when its send timeout fires with some bytes queued: the reader stalls
  // past the 200 ms timeout once, so the first sendmsg comes back partway
  // through `big`, then drains in time for the second call. send_all must
  // resume exactly where it stopped.
  Pair p;
  ASSERT_TRUE(obs::set_socket_timeout(p.a, 200));
  std::string big(3u << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 131u + i / 7);
  const std::string_view parts[] = {"head:", "", big, "tail"};
  const std::string expected = std::string("head:") + big + "tail";
  std::string in(expected.size(), '\0');
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_TRUE(obs::recv_all(p.b, in.data(), in.size()));
  });
  EXPECT_TRUE(obs::send_all(p.a, parts));
  reader.join();
  EXPECT_TRUE(in == expected);
}

TEST(FabricNetutil, SendAllFailsOnClosedPeerWithoutSigpipe) {
  Pair p;
  obs::close_fd(p.b);
  p.b = -1;
  // Large enough to overrun any buffering of the dead socket; MSG_NOSIGNAL
  // means this must come back as `false`, not kill the process.
  std::vector<char> out(1u << 20, 'x');
  EXPECT_FALSE(obs::send_all(p.a, out.data(), out.size()));
}

TEST(FabricNetutil, RecvFrameRejectsTruncatedPrefixAndHeadAndBody) {
  const std::string wire = wire_frame("{\"type\":\"ready\"}", "abc");
  // Cut the wire at every interesting boundary: nothing, a partial prefix,
  // exactly the prefix, a partial head, full head but a partial body.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{12}, wire.size() - 1}) {
    Pair p;
    ASSERT_TRUE(obs::send_all(p.a, wire.data(), cut));
    obs::close_fd(p.a);
    p.a = -1;
    EXPECT_FALSE(recv_frame(p.b).has_value()) << "cut at " << cut;
  }
  // The uncut wire decodes.
  Pair p;
  ASSERT_TRUE(obs::send_all(p.a, wire.data(), wire.size()));
  const auto f = recv_frame(p.b);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type(), "ready");
  EXPECT_EQ(std::string(f->body.begin(), f->body.end()), "abc");
}

TEST(FabricNetutil, RecvFrameRejectsOversizedLengthPrefixes) {
  // head_len / body_len one past the cap must be rejected from the prefix
  // alone — no attempt to allocate or read a poisoned length.
  for (const bool oversize_body : {false, true}) {
    Pair p;
    std::string prefix;
    put_u32_le(prefix, oversize_body ? 2u : kMaxHeadBytes + 1);
    put_u32_le(prefix, oversize_body ? kMaxBodyBytes + 1 : 0u);
    ASSERT_TRUE(obs::send_all(p.a, prefix.data(), prefix.size()));
    obs::close_fd(p.a);
    p.a = -1;
    EXPECT_FALSE(recv_frame(p.b).has_value());
  }
}

TEST(FabricNetutil, RecvFrameAcceptsHeadAtExactlyTheCap) {
  // A head of exactly kMaxHeadBytes is legal: pad a valid JSON object with
  // trailing spaces up to the cap.
  std::string head = "{\"type\":\"ready\"}";
  head.resize(kMaxHeadBytes, ' ');
  const std::string wire = wire_frame(head, "");
  Pair p;
  std::thread sender([&] { EXPECT_TRUE(obs::send_all(p.a, wire.data(), wire.size())); });
  const auto f = recv_frame(p.b);
  sender.join();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type(), "ready");
}

TEST(FabricNetutil, RecvFrameRejectsMalformedHeadJson) {
  for (const std::string& head : {std::string("{\"type\":"), std::string("[1,2]"),
                                  std::string("")}) {
    Pair p;
    const std::string wire = wire_frame(head, "");
    ASSERT_TRUE(obs::send_all(p.a, wire.data(), wire.size()));
    EXPECT_FALSE(recv_frame(p.b).has_value()) << "head: " << head;
  }
}

TEST(FabricNetutil, TraceEventsFromJsonToleratesMalformedEntries) {
  const obs::TraceId trace = obs::make_trace_id();
  obs::Json arr = obs::Json::array();
  arr.push_back(obs::Json("not an object"));
  obs::Json no_name = obs::Json::object();
  no_name["ts"] = 1.0;
  no_name["dur"] = 2.0;
  no_name["span"] = std::string("00000000000000aa");
  arr.push_back(std::move(no_name));
  obs::Json bad_ts = obs::Json::object();
  bad_ts["name"] = std::string("x");
  bad_ts["ts"] = std::string("soon");
  bad_ts["dur"] = 2.0;
  bad_ts["span"] = std::string("00000000000000aa");
  arr.push_back(std::move(bad_ts));
  obs::Json zero_span = obs::Json::object();
  zero_span["name"] = std::string("x");
  zero_span["ts"] = 1.0;
  zero_span["dur"] = 2.0;
  zero_span["span"] = std::string("0000000000000000");
  arr.push_back(std::move(zero_span));
  obs::Json good = obs::Json::object();
  good["name"] = std::string("fabric.shard/3");
  good["ts"] = 10.0;
  good["dur"] = 5.0;
  good["span"] = std::string("00000000000000ab");
  good["parent"] = std::string("00000000000000ac");
  arr.push_back(std::move(good));

  const auto events = trace_events_from_json(arr, trace);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "fabric.shard/3");
  EXPECT_EQ(events[0].span, 0xabu);
  EXPECT_EQ(events[0].parent, 0xacu);
  EXPECT_TRUE(events[0].trace == trace);
}

TEST(FabricNetutil, TraceEventsToJsonKeepsNewestUnderCap) {
  std::vector<obs::TraceEvent> events(kMaxSpanBatch + 5);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].name = "s" + std::to_string(i);
    events[i].span = i + 1;
  }
  const obs::Json arr = trace_events_to_json(events);
  ASSERT_EQ(arr.items().size(), kMaxSpanBatch);
  // The oldest 5 were dropped; the newest (the shard span, recorded last)
  // survives.
  EXPECT_EQ(arr.items().front().at("name").as_string(), "s5");
  EXPECT_EQ(arr.items().back().at("name").as_string(),
            "s" + std::to_string(events.size() - 1));
}

}  // namespace
