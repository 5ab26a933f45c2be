#include "util/table.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/log.hpp"

namespace isoee::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }

  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      if (c + 1 < row.size()) out.append(width[c] - row[c].size() + 2, ' ');
    }
    out += '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + (c + 1 < width.size() ? 2 : 0);
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::to_csv() const {
  std::string out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += csv_escape(row[c]);
      if (c + 1 < row.size()) out += ',';
    }
    out += '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out;
}

bool Table::write_csv(const std::string& path) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) {
    fs::create_directories(parent, ec);
    if (ec && !fs::is_directory(parent)) {
      ISOEE_WARN("failed to create directory %s (%s)", parent.string().c_str(),
                 ec.message().c_str());
      return false;
    }
  }
  // Write to a per-writer temp file and atomically rename: a reader (or a
  // concurrently re-emitting case) never observes a torn CSV, and a failed
  // write never clobbers a previous good one.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) {
      ISOEE_WARN("failed to open %s for writing", tmp.c_str());
      return false;
    }
    out << to_csv();
    out.flush();
    if (!out) {
      ISOEE_WARN("short write to %s", tmp.c_str());
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    ISOEE_WARN("failed to rename %s -> %s (%s)", tmp.c_str(), path.c_str(),
               ec.message().c_str());
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::string num(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string sci(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", digits, value);
  return buf;
}

std::string num(long long value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", value);
  return buf;
}

std::string pct(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", value);
  return buf;
}

void append_num17(std::string& out, double value) {
  char buf[32];  // the longest is "-2.2250738585072014e-308", 24 chars
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

std::string num17(double value) {
  std::string out;
  append_num17(out, value);
  return out;
}

}  // namespace isoee::util
