#include "src/fabric/protocol.hpp"

#include "src/obs/netutil.hpp"

namespace lore::fabric {

std::string Frame::type() const {
  const obs::Json* t =
      head.type() == obs::Json::Type::kObject ? head.find("type") : nullptr;
  return t && t->type() == obs::Json::Type::kString ? t->as_string() : std::string();
}

Frame make_frame(const std::string& type) {
  Frame f;
  f.head = obs::Json::object();
  f.head["type"] = type;
  return f;
}

namespace {

void put_u32_le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t get_u32_le(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

bool send_frame(int fd, const Frame& frame) {
  const std::string head = frame.head.dump();
  if (head.size() > kMaxHeadBytes || frame.body.size() > kMaxBodyBytes) return false;
  // Prefix and head in one small buffer; the body goes out from where it
  // lies, in the same gathered write.
  std::string prefix;
  prefix.reserve(8 + head.size());
  put_u32_le(prefix, static_cast<std::uint32_t>(head.size()));
  put_u32_le(prefix, static_cast<std::uint32_t>(frame.body.size()));
  prefix += head;
  const std::string_view parts[] = {prefix, frame.body};
  return obs::send_all(fd, parts);
}

std::optional<Frame> recv_frame(int fd) {
  unsigned char prefix[8];
  if (!obs::recv_all(fd, prefix, sizeof prefix)) return std::nullopt;
  const std::uint32_t head_len = get_u32_le(prefix);
  const std::uint32_t body_len = get_u32_le(prefix + 4);
  if (head_len > kMaxHeadBytes || body_len > kMaxBodyBytes) return std::nullopt;

  std::string head(head_len, '\0');
  if (head_len && !obs::recv_all(fd, head.data(), head_len)) return std::nullopt;
  Frame f;
  f.body.resize(body_len);
  if (body_len && !obs::recv_all(fd, f.body.data(), body_len)) return std::nullopt;
  try {
    f.head = obs::Json::parse(head);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (f.head.type() != obs::Json::Type::kObject) return std::nullopt;
  return f;
}

obs::Json spec_to_json(const CampaignSpec& spec) {
  obs::Json j = obs::Json::object();
  j["trials"] = static_cast<std::int64_t>(spec.trials);
  j["base_seed"] = static_cast<std::int64_t>(spec.base_seed);
  j["domain"] = spec.domain;
  j["threads"] = static_cast<std::int64_t>(spec.threads);
  j["max_retries"] = static_cast<std::int64_t>(spec.max_retries);
  j["retry_backoff_ms"] = static_cast<std::int64_t>(spec.retry_backoff.count());
  return j;
}

obs::Json trace_events_to_json(const std::vector<obs::TraceEvent>& events,
                               std::size_t max) {
  obs::Json arr = obs::Json::array();
  const std::size_t skip = events.size() > max ? events.size() - max : 0;
  for (std::size_t i = skip; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    obs::Json ev = obs::Json::object();
    ev["name"] = e.name;
    ev["cat"] = e.category;
    ev["ts"] = e.start_us;
    ev["dur"] = e.dur_us;
    ev["tid"] = static_cast<std::int64_t>(e.tid);
    ev["depth"] = static_cast<std::int64_t>(e.depth);
    ev["span"] = obs::span_id_hex(e.span);
    ev["parent"] = obs::span_id_hex(e.parent);
    arr.push_back(std::move(ev));
  }
  return arr;
}

std::vector<obs::TraceEvent> trace_events_from_json(const obs::Json& arr,
                                                    const obs::TraceId& trace) {
  std::vector<obs::TraceEvent> out;
  if (arr.type() != obs::Json::Type::kArray) return out;
  for (const obs::Json& ev : arr.items()) {
    if (ev.type() != obs::Json::Type::kObject) continue;
    const obs::Json* name = ev.find("name");
    const obs::Json* ts = ev.find("ts");
    const obs::Json* dur = ev.find("dur");
    const obs::Json* span = ev.find("span");
    if (!name || name->type() != obs::Json::Type::kString || !ts || !ts->is_number() ||
        !dur || !dur->is_number() || !span ||
        span->type() != obs::Json::Type::kString)
      continue;
    obs::TraceEvent e;
    e.name = name->as_string();
    if (const obs::Json* cat = ev.find("cat"))
      if (cat->type() == obs::Json::Type::kString) e.category = cat->as_string();
    e.start_us = ts->as_double();
    e.dur_us = dur->as_double();
    if (const obs::Json* tid = ev.find("tid"))
      if (tid->is_number()) e.tid = static_cast<std::uint32_t>(tid->as_int());
    if (const obs::Json* depth = ev.find("depth"))
      if (depth->is_number()) e.depth = static_cast<std::uint32_t>(depth->as_int());
    e.span = obs::span_id_from_hex(span->as_string());
    if (e.span == 0) continue;  // a span without identity cannot be stitched
    if (const obs::Json* parent = ev.find("parent"))
      if (parent->type() == obs::Json::Type::kString)
        e.parent = obs::span_id_from_hex(parent->as_string());
    e.trace = trace;
    out.push_back(std::move(e));
  }
  return out;
}

CampaignSpec spec_from_json(const obs::Json& j) {
  CampaignSpec spec;
  spec.trials = static_cast<std::size_t>(j.at("trials").as_int());
  spec.base_seed = static_cast<std::uint64_t>(j.at("base_seed").as_int());
  spec.domain = j.at("domain").as_string();
  spec.threads = static_cast<unsigned>(j.at("threads").as_int());
  spec.max_retries = static_cast<unsigned>(j.at("max_retries").as_int());
  spec.retry_backoff = std::chrono::milliseconds(j.at("retry_backoff_ms").as_int());
  return spec;
}

}  // namespace lore::fabric
