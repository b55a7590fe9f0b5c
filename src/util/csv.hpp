// Minimal CSV writer for experiment outputs (benches and the CLI dump
// result tables for external plotting).
#pragma once

#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace torsim::util {

class CsvWriter {
 public:
  /// Writes rows to `sink`, which must outlive the writer. The CLI
  /// writes into a buffer and hands the bytes to its checked,
  /// temp-then-rename file writer; tests compare the buffer directly.
  explicit CsvWriter(std::ostream& sink) : out_(&sink) {}

  /// Opens `path` for writing in place; throws std::runtime_error on
  /// failure.
  explicit CsvWriter(const std::string& path);

  /// Writes one row; fields containing commas/quotes/newlines are quoted.
  void row(const std::vector<std::string>& fields);
  void row(std::initializer_list<std::string> fields) {
    row(std::vector<std::string>(fields));
  }

  /// Convenience for mixed field types.
  template <typename... Ts>
  void typed_row(const Ts&... fields) {
    std::vector<std::string> out;
    (out.push_back(to_field(fields)), ...);
    row(out);
  }

  std::size_t rows_written() const { return rows_; }

 private:
  static std::string to_field(const std::string& s) { return s; }
  static std::string to_field(std::string_view s) { return std::string(s); }
  static std::string to_field(const char* s) { return s; }
  template <typename T>
  static std::string to_field(const T& value) {
    std::ostringstream os;
    os << value;
    return os.str();
  }

  std::unique_ptr<std::ofstream> file_;  // owned sink of the path form
  std::ostream* out_;
  std::size_t rows_ = 0;
};

/// Escapes one CSV field per RFC 4180.
std::string csv_escape(const std::string& field);

}  // namespace torsim::util
