#include "util/csv.h"

#include "util/format.h"
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/string_util.h"

namespace gc {

int CsvTable::column_index(const std::string& name) const noexcept {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

CsvTable parse_csv(const std::string& text) {
  CsvTable table;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto fields = split(trimmed, ',');
    if (!have_header) {
      for (const auto f : fields) table.header.emplace_back(trim(f));
      have_header = true;
      continue;
    }
    if (fields.size() != table.header.size()) {
      throw std::runtime_error(gc::format(
          "csv line {}: {} fields, expected {}", line_no, fields.size(), table.header.size()));
    }
    std::vector<double> row;
    row.reserve(fields.size());
    for (const auto f : fields) {
      const auto value = parse_double(f);
      if (!value) {
        throw std::runtime_error(
            gc::format("csv line {}: non-numeric cell '{}'", line_no, std::string(f)));
      }
      row.push_back(*value);
    }
    table.rows.push_back(std::move(row));
  }
  if (!have_header) throw std::runtime_error("csv: no header line");
  return table;
}

CsvTable read_csv_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(gc::format("cannot open '{}'", path.string()));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_csv(buffer.str());
}

std::string to_csv_text(const CsvTable& table) {
  std::string out;
  std::size_t cells = 0;
  for (const auto& row : table.rows) cells += row.size();
  // Most cells are small integers or flags; a short guess costs one regrowth.
  out.reserve(16 * table.header.size() + 8 * cells);
  for (std::size_t i = 0; i < table.header.size(); ++i) {
    if (i != 0) out += ',';
    out += table.header[i];
  }
  out += '\n';
  for (const auto& row : table.rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out += ',';
      append_g(out, row[i], 15);
    }
    out += '\n';
  }
  return out;
}

void write_csv_file(const std::filesystem::path& path, const CsvTable& table) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(gc::format("cannot write '{}'", path.string()));
  out << to_csv_text(table);
  if (!out) throw std::runtime_error(gc::format("write failed for '{}'", path.string()));
}

}  // namespace gc
