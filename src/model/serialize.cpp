#include "model/serialize.hpp"

#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "util/table.hpp"

namespace isoee::model {

namespace {

using KeyValues = std::map<std::string, std::string>;

/// Parsed document: section header -> (key -> value).
struct Document {
  std::string machine_header;  // "machine" if present
  KeyValues machine;
  std::string workload_name;   // e.g. "FT" if a workload section is present
  KeyValues workload;
};

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::optional<Document> parse_document(const std::string& text) {
  Document doc;
  KeyValues* current = nullptr;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    if (line.front() == '[') {
      if (line.back() != ']') return std::nullopt;
      const std::string header = trim(line.substr(1, line.size() - 2));
      if (header == "machine") {
        doc.machine_header = header;
        current = &doc.machine;
      } else if (header.rfind("workload ", 0) == 0) {
        doc.workload_name = trim(header.substr(9));
        current = &doc.workload;
      } else {
        return std::nullopt;
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos || current == nullptr) return std::nullopt;
    (*current)[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }
  return doc;
}

/// Appends `key = value` for each field of `record`, in field-list order.
template <class Record>
void write_fields(const Record& record, std::string& out) {
  Record::fields(record, [&out](const char* key, const auto& value) {
    out += key;
    out += " = ";
    if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(value)>>) {
      util::append_num17(out, value);
    } else {
      out += value;
    }
    out += '\n';
  });
}

/// Assigns each field whose key is present. A missing key keeps the default
/// and a key no field claims is ignored.
template <class Record>
void read_fields(Record& record, const KeyValues& kv) {
  Record::fields(record, [&kv](const char* key, auto& member) {
    using T = std::remove_cvref_t<decltype(member)>;
    const auto it = kv.find(key);
    if (it == kv.end()) return;
    if constexpr (std::is_arithmetic_v<T>) {
      member = static_cast<T>(std::strtod(it->second.c_str(), nullptr));
    } else {
      member = it->second;
    }
  });
}

/// One built-in workload model type: its section name, and its field list
/// bound to the text format.
struct WorkloadType {
  const char* name;
  void (*write)(const WorkloadModel& workload, std::string& out);
  std::unique_ptr<WorkloadModel> (*parse)(const KeyValues& kv);  // from defaults
};

template <class W>
constexpr WorkloadType workload_type() {
  return {W::kName,
          [](const WorkloadModel& workload, std::string& out) {
            write_fields(dynamic_cast<const W&>(workload), out);  // std::bad_cast if foreign
          },
          [](const KeyValues& kv) -> std::unique_ptr<WorkloadModel> {
            auto w = std::make_unique<W>();
            read_fields(*w, kv);
            return w;
          }};
}

constexpr WorkloadType kWorkloadTypes[] = {
    workload_type<EpWorkload>(),   workload_type<FtWorkload>(),   workload_type<CgWorkload>(),
    workload_type<MgWorkload>(),   workload_type<IsWorkload>(),   workload_type<SweepWorkload>(),
    workload_type<CkptWorkload>(),
};

const WorkloadType* find_workload_type(const std::string& name) {
  for (const WorkloadType& type : kWorkloadTypes) {
    if (name == type.name) return &type;
  }
  return nullptr;
}

}  // namespace

std::string serialize(const MachineParams& m) {
  std::string out = "[machine]\n";
  write_fields(m, out);
  return out;
}

std::optional<MachineParams> parse_machine(const std::string& text) {
  const auto doc = parse_document(text);
  if (!doc || doc->machine_header.empty()) return std::nullopt;
  MachineParams m;
  read_fields(m, doc->machine);
  return m;
}

std::string serialize(const WorkloadModel& workload) {
  const WorkloadType* type = find_workload_type(workload.name());
  if (type == nullptr) {
    throw std::invalid_argument("serialize: unknown workload type " + workload.name());
  }
  std::string out = "[workload " + workload.name() + "]\n";
  type->write(workload, out);
  return out;
}

std::unique_ptr<WorkloadModel> parse_workload(const std::string& text) {
  const auto doc = parse_document(text);
  if (!doc || doc->workload_name.empty()) return nullptr;
  const WorkloadType* type = find_workload_type(doc->workload_name);
  return type != nullptr ? type->parse(doc->workload) : nullptr;
}

}  // namespace isoee::model
