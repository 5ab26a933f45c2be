#include "benchtools/tracestats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "powerpack/profiler.hpp"

namespace isoee::benchtools {

// --- trace loading ---------------------------------------------------------

double ParsedEvent::arg_num(std::string_view key, double fallback) const {
  const util::JsonValue* v = args.find(key);
  return v != nullptr && v->is(util::JsonValue::Type::kNumber) ? v->number : fallback;
}

std::string ParsedEvent::arg_str(std::string_view key, std::string fallback) const {
  const util::JsonValue* v = args.find(key);
  return v != nullptr && v->is(util::JsonValue::Type::kString) ? v->str : fallback;
}

int LoadedTrace::nranks() const {
  int max_tid = -1;
  for (const auto& e : events) max_tid = std::max(max_tid, e.tid);
  return max_tid + 1;
}

double LoadedTrace::makespan_s() const {
  double end = 0.0;
  for (const auto& e : events) end = std::max(end, (e.ts_us + e.dur_us) * 1e-6);
  return end;
}

LoadedTrace parse_trace(std::string_view json) {
  const util::JsonValue doc = util::parse_json(json);
  if (!doc.is(util::JsonValue::Type::kObject)) throw std::runtime_error("trace: not an object");
  LoadedTrace out;
  if (const util::JsonValue* other = doc.find("otherData");
      other != nullptr && other->is(util::JsonValue::Type::kObject)) {
    for (const auto& [k, v] : other->object) {
      if (v.is(util::JsonValue::Type::kString)) out.metadata[k] = v.str;
    }
  }
  const util::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is(util::JsonValue::Type::kArray)) {
    throw std::runtime_error("trace: missing traceEvents array");
  }
  out.events.reserve(events->array.size());
  for (const util::JsonValue& ev : events->array) {
    if (!ev.is(util::JsonValue::Type::kObject)) {
      throw std::runtime_error("trace: non-object event");
    }
    ParsedEvent e;
    if (const util::JsonValue* v = ev.find("ph"); v && v->is(util::JsonValue::Type::kString)) {
      e.ph = v->str;
    }
    if (e.ph == "M") continue;  // metadata rows carry no timeline payload
    if (const util::JsonValue* v = ev.find("name"); v && v->is(util::JsonValue::Type::kString)) {
      e.name = v->str;
    }
    if (const util::JsonValue* v = ev.find("cat"); v && v->is(util::JsonValue::Type::kString)) {
      e.cat = v->str;
    }
    if (const util::JsonValue* v = ev.find("tid"); v && v->is(util::JsonValue::Type::kNumber)) {
      e.tid = static_cast<int>(v->number);
    }
    if (const util::JsonValue* v = ev.find("ts"); v && v->is(util::JsonValue::Type::kNumber)) {
      e.ts_us = v->number;
    }
    if (const util::JsonValue* v = ev.find("dur"); v && v->is(util::JsonValue::Type::kNumber)) {
      e.dur_us = v->number;
    }
    if (const util::JsonValue* v = ev.find("id"); v && v->is(util::JsonValue::Type::kNumber)) {
      e.flow_id = static_cast<std::uint64_t>(v->number);
    }
    if (const util::JsonValue* v = ev.find("args"); v && v->is(util::JsonValue::Type::kObject)) {
      e.args = *v;
    }
    out.events.push_back(std::move(e));
  }
  return out;
}

namespace {

/// The whole of `path`; `what` names the file in errors ("trace file").
std::string read_text(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(std::string("cannot open ") + what + ": " + path);
  std::ostringstream body;
  body << in.rdbuf();
  if (in.bad()) throw std::runtime_error(std::string("read error on ") + what + ": " + path);
  return body.str();
}

}  // namespace

LoadedTrace load_trace(const std::string& path) {
  const std::string body = read_text(path, "trace file");
  try {
    return parse_trace(body);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::vector<MetricRow> load_metrics(const std::string& path) {
  const util::JsonValue doc = util::parse_json(read_text(path, "metrics file"));
  if (!doc.is(util::JsonValue::Type::kObject)) {
    throw std::runtime_error(path + ": metrics snapshot is not an object");
  }
  std::vector<MetricRow> rows;
  rows.reserve(doc.object.size());
  for (const auto& [name, entry] : doc.object) {
    const util::JsonValue* kind = entry.find("kind");
    const util::JsonValue* value = entry.find("value");
    if (kind == nullptr || !kind->is(util::JsonValue::Type::kString) || value == nullptr ||
        !value->is(util::JsonValue::Type::kNumber)) {
      throw std::runtime_error(path + ": metric " + name + " lacks a kind or a value");
    }
    rows.push_back({name, kind->str, value->number});
  }
  std::stable_partition(rows.begin(), rows.end(), [](const MetricRow& r) {
    return r.name.starts_with("engine.");
  });
  return rows;
}

std::vector<std::string> validate_trace(const LoadedTrace& trace) {
  std::vector<std::string> problems;
  const auto complain = [&problems](std::size_t i, const std::string& what) {
    if (problems.size() < 32) {
      problems.push_back("event " + std::to_string(i) + ": " + what);
    }
  };
  std::set<std::uint64_t> flow_begins;
  std::set<std::uint64_t> flow_ends;
  double last_ts = -1.0;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const ParsedEvent& e = trace.events[i];
    if (e.ph != "X" && e.ph != "i" && e.ph != "s" && e.ph != "f") {
      complain(i, "unknown ph '" + e.ph + "'");
      continue;
    }
    if (e.name.empty()) complain(i, "missing name");
    if (e.cat.empty()) complain(i, "missing cat");
    if (!std::isfinite(e.ts_us) || e.ts_us < 0.0) complain(i, "bad ts");
    if (e.ph == "X" && (!std::isfinite(e.dur_us) || e.dur_us < 0.0)) {
      complain(i, "bad dur");
    }
    if (e.ph == "s") {
      if (!flow_begins.insert(e.flow_id).second) complain(i, "duplicate flow begin id");
    }
    if (e.ph == "f") {
      if (!flow_ends.insert(e.flow_id).second) complain(i, "duplicate flow end id");
    }
    if (e.ts_us < last_ts) complain(i, "events not sorted by ts");
    last_ts = e.ts_us;
  }
  for (std::uint64_t id : flow_begins) {
    if (flow_ends.count(id) == 0 && problems.size() < 32) {
      problems.push_back("flow " + std::to_string(id) + " begins but never ends");
    }
  }
  for (std::uint64_t id : flow_ends) {
    if (flow_begins.count(id) == 0 && problems.size() < 32) {
      problems.push_back("flow " + std::to_string(id) + " ends but never begins");
    }
  }
  return problems;
}

namespace {

sim::Activity activity_from_name(const std::string& name) {
  if (name == "compute") return sim::Activity::kCompute;
  if (name == "memory") return sim::Activity::kMemory;
  if (name == "network") return sim::Activity::kNetwork;
  if (name == "io") return sim::Activity::kIo;
  if (name == "idle") return sim::Activity::kIdle;
  throw std::runtime_error("trace: unknown activity span '" + name + "'");
}

}  // namespace

std::vector<std::vector<sim::Segment>> segments_of(const LoadedTrace& trace) {
  std::vector<std::vector<sim::Segment>> out(
      static_cast<std::size_t>(std::max(trace.nranks(), 0)));
  for (const auto& e : trace.events) {
    if (e.ph != "X" || e.cat != "sim") continue;
    sim::Segment seg;
    seg.start = e.t0_s();
    seg.duration = e.dur_s();
    seg.activity = activity_from_name(e.name);
    seg.ghz = e.arg_num("ghz");
    out[static_cast<std::size_t>(e.tid)].push_back(seg);
  }
  // The collector sorts globally by (t0, rank, ...), so each rank's segments
  // arrive time-ordered already; sort defensively for hand-built files.
  for (auto& rank : out) {
    std::stable_sort(rank.begin(), rank.end(),
                     [](const sim::Segment& a, const sim::Segment& b) {
                       return a.start < b.start;
                     });
  }
  return out;
}

std::vector<AttributionRow> attribute_category(const LoadedTrace& trace,
                                               const sim::MachineSpec& machine,
                                               std::string_view cat) {
  const auto segments = segments_of(trace);
  const powerpack::Profiler profiler(machine);
  std::map<std::string, AttributionRow> rows;
  for (const auto& e : trace.events) {
    if (e.ph != "X" || e.cat != cat) continue;
    AttributionRow& row = rows[e.name];
    row.name = e.name;
    row.count += 1;
    row.time_s += e.dur_s();
    const auto r = static_cast<std::size_t>(e.tid);
    if (r < segments.size()) {
      row.energy_j += profiler.energy_between_j(segments[r], e.t0_s(), e.t1_s());
    }
  }
  std::vector<AttributionRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  return out;  // map iteration: sorted by name, deterministic
}

TraceReport analyze(const LoadedTrace& trace, const sim::MachineSpec& machine) {
  TraceReport report;
  report.nranks = trace.nranks();
  report.events = trace.events.size();
  report.makespan_s = trace.makespan_s();
  report.activities = attribute_category(trace, machine, "sim");
  report.collectives = attribute_category(trace, machine, "smpi");
  report.phases = attribute_category(trace, machine, "phase");
  for (const auto& row : report.activities) report.total_energy_j += row.energy_j;
  for (const auto& e : trace.events) {
    if (e.ph == "i" && e.cat == "governor") {
      ++report.governor_decisions;
      if (e.name == "actuate") ++report.governor_actuations;
    }
    if (e.ph == "i" && e.cat == "sim" && e.name == "dvfs") ++report.dvfs_changes;
    if (e.ph == "s") ++report.messages;
  }
  return report;
}

std::vector<DiffRow> diff_rows(std::span<const AttributionRow> a,
                               std::span<const AttributionRow> b) {
  std::map<std::string, DiffRow> rows;
  for (const auto& row : a) {
    DiffRow& d = rows[row.name];
    d.name = row.name;
    d.count_a = row.count;
    d.time_a = row.time_s;
    d.energy_a = row.energy_j;
  }
  for (const auto& row : b) {
    DiffRow& d = rows[row.name];
    d.name = row.name;
    d.count_b = row.count;
    d.time_b = row.time_s;
    d.energy_b = row.energy_j;
  }
  std::vector<DiffRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  return out;
}

sim::MachineSpec machine_for_trace(const std::string& name, const LoadedTrace& trace) {
  std::string resolved = name;
  if (resolved == "auto" || resolved.empty()) {
    const auto it = trace.metadata.find("machine");
    resolved = it != trace.metadata.end() ? it->second : "system_g";
  }
  return sim::machine_preset(resolved);
}

// --- collapsed stacks (flamegraphs) ----------------------------------------

std::vector<CollapsedLine> parse_collapsed(std::string_view text) {
  std::vector<CollapsedLine> out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(pos, eol == std::string_view::npos
                                                 ? std::string_view::npos
                                                 : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;
    const auto where = [line_no] { return "collapsed line " + std::to_string(line_no); };

    const std::size_t sp = line.rfind(' ');
    if (sp == std::string_view::npos || sp == 0 || sp + 1 == line.size()) {
      throw std::runtime_error(where() + ": expected '<stack> <count>'");
    }
    const std::string count_str(line.substr(sp + 1));
    char* end = nullptr;
    const unsigned long long count = std::strtoull(count_str.c_str(), &end, 10);
    if (end == count_str.c_str() || *end != '\0' || count == 0) {
      throw std::runtime_error(where() + ": count '" + count_str +
                               "' is not a positive integer");
    }
    CollapsedLine cl;
    cl.samples = count;
    std::string_view stack = line.substr(0, sp);
    while (true) {
      const std::size_t semi = stack.find(';');
      const std::string_view frame =
          semi == std::string_view::npos ? stack : stack.substr(0, semi);
      if (frame.empty()) throw std::runtime_error(where() + ": empty frame");
      cl.frames.emplace_back(frame);
      if (semi == std::string_view::npos) break;
      stack.remove_prefix(semi + 1);
    }
    out.push_back(std::move(cl));
  }
  return out;
}

namespace {

std::string joined_stack(const CollapsedLine& cl) {
  std::string s;
  for (std::size_t i = 0; i < cl.frames.size(); ++i) {
    if (i != 0) s += ';';
    s += cl.frames[i];
  }
  return s;
}

bool known_sched_phase(const std::string& frame) {
  return frame == "fiber_run" || frame == "mailbox_wait" || frame == "heap_dispatch" ||
         frame == "idle";
}

}  // namespace

std::vector<std::string> validate_collapsed(const std::vector<CollapsedLine>& lines) {
  std::vector<std::string> problems;
  if (lines.empty()) {
    problems.push_back("no stacks (profiler collected zero samples?)");
    return problems;
  }
  std::string prev;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string stack = joined_stack(lines[i]);
    if (!seen.insert(stack).second) {
      problems.push_back("duplicate stack '" + stack + "'");
    }
    if (i > 0 && stack < prev) {
      problems.push_back("stacks not sorted: '" + stack + "' after '" + prev + "'");
    }
    prev = stack;
    if (lines[i].frames[0] != lines[0].frames[0]) {
      problems.push_back("stack '" + stack + "' does not share root frame '" +
                         lines[0].frames[0] + "'");
    }
    if (lines[i].frames[0] == "isoee_engine") {
      if (lines[i].frames.size() < 3) {
        problems.push_back("stack '" + stack + "' is too shallow (want worker;phase)");
      } else {
        if (lines[i].frames[1].rfind("worker_", 0) != 0) {
          problems.push_back("stack '" + stack + "': frame 2 is not a worker_<id>");
        }
        if (!known_sched_phase(lines[i].frames[2])) {
          problems.push_back("stack '" + stack + "': unknown scheduler phase '" +
                             lines[i].frames[2] + "'");
        }
      }
    }
  }
  return problems;
}

std::vector<std::pair<std::string, std::uint64_t>> collapsed_by_depth(
    const std::vector<CollapsedLine>& lines, std::size_t depth) {
  std::map<std::string, std::uint64_t> agg;
  for (const CollapsedLine& cl : lines) {
    agg[depth < cl.frames.size() ? cl.frames[depth] : std::string()] += cl.samples;
  }
  std::vector<std::pair<std::string, std::uint64_t>> out(agg.begin(), agg.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  return out;
}

}  // namespace isoee::benchtools
