#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <tuple>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace isoee::obs {

TraceArg arg_num(std::string key, double value) {
  return TraceArg{std::move(key), util::num17(value)};
}

TraceArg arg_int(std::string key, long long value) {
  return TraceArg{std::move(key), std::to_string(value)};
}

TraceArg arg_str(std::string key, std::string_view value) {
  return TraceArg{std::move(key), util::json_quote(value)};
}

void TraceCollector::on_event(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::size_t TraceCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::vector<TraceEvent> TraceCollector::sorted() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = events_;
  }
  // Stable sort: events from different rank threads are totally ordered by the
  // key; same-key events necessarily come from one thread (each rank emits its
  // own timeline) and keep program order, so the result is host-schedule
  // independent.
  const auto key = [](const TraceEvent& e) {
    return std::make_tuple(e.t0, e.rank, static_cast<int>(e.kind), std::string_view(e.cat),
                           std::string_view(e.name), e.dur, e.flow_id);
  };
  std::stable_sort(out.begin(), out.end(),
                   [&key](const TraceEvent& a, const TraceEvent& b) { return key(a) < key(b); });
  return out;
}

std::string ChromeTraceWriter::render(
    std::span<const TraceEvent> sorted,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  // Exported flow ids are renumbered FIFO per emitted id: a multi-run sink
  // (bench --trace-out pools every engine run, and every run counts its
  // (src, dst, tag) channels from zero) reuses raw ids, but the Trace Event
  // Format needs file-unique ones for unambiguous s->f binding. Walking the
  // sorted stream keeps the renumbering deterministic.
  std::map<std::uint64_t, std::deque<std::uint64_t>> open_flows;
  std::uint64_t next_flow_id = 0;
  const auto export_flow_id = [&](const TraceEvent& e) {
    if (e.kind == TraceEvent::Kind::kFlowBegin) {
      const std::uint64_t fresh = ++next_flow_id;
      open_flows[e.flow_id].push_back(fresh);
      return fresh;
    }
    auto it = open_flows.find(e.flow_id);
    if (it == open_flows.end() || it->second.empty()) return ++next_flow_id;
    const std::uint64_t fresh = it->second.front();
    it->second.pop_front();
    return fresh;
  };

  std::string out;
  out.reserve(sorted.size() * 96 + 256);
  out += "{\"otherData\":{";
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + util::json_escape(metadata[i].first) + "\":\"" +
           util::json_escape(metadata[i].second) + '"';
  }
  out += "},\n\"traceEvents\":[\n";

  // Thread-name metadata rows so Perfetto labels each track "rank N".
  int max_rank = -1;
  for (const auto& e : sorted) max_rank = std::max(max_rank, e.rank);
  bool first = true;
  for (int r = 0; r <= max_rank; ++r) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" +
           std::to_string(r) + ",\"args\":{\"name\":\"rank " + std::to_string(r) +
           "\"}}";
  }

  for (const auto& e : sorted) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"" + util::json_escape(e.name) + "\",\"cat\":\"" +
           util::json_escape(e.cat) + "\",\"pid\":0,\"tid\":" + std::to_string(e.rank) +
           ",\"ts\":" + util::num17(e.t0 * 1e6);
    switch (e.kind) {
      case TraceEvent::Kind::kSpan:
        out += ",\"ph\":\"X\",\"dur\":" + util::num17(e.dur * 1e6);
        break;
      case TraceEvent::Kind::kInstant:
        out += ",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case TraceEvent::Kind::kFlowBegin:
        out += ",\"ph\":\"s\",\"id\":" + std::to_string(export_flow_id(e));
        break;
      case TraceEvent::Kind::kFlowEnd:
        out += ",\"ph\":\"f\",\"bp\":\"e\",\"id\":" + std::to_string(export_flow_id(e));
        break;
    }
    if (!e.args.empty()) {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ',';
        out += '"' + util::json_escape(e.args[i].key) + "\":" + e.args[i].json;
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool ChromeTraceWriter::write(
    std::span<const TraceEvent> sorted, const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  const std::string body = render(sorted, metadata);
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    ISOEE_ERROR("ChromeTraceWriter: cannot open %s", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = n == body.size() && std::fclose(f) == 0;
  if (!ok) ISOEE_ERROR("ChromeTraceWriter: short write to %s", path.c_str());
  return ok;
}

}  // namespace isoee::obs
