// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "io/csv.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "data/record_batch.h"

namespace casm {
namespace {

std::string Trim(const std::string& text) {
  size_t begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  size_t end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream stream(line);
  while (std::getline(stream, cell, ',')) cells.push_back(Trim(cell));
  return cells;
}

}  // namespace

Result<Table> ReadTableCsv(SchemaPtr schema, std::string_view csv) {
  std::istringstream stream{std::string(csv)};
  std::string line;
  int line_number = 0;

  // Header: locate each schema attribute's column.
  std::vector<int> column_of_attr(
      static_cast<size_t>(schema->num_attributes()), -1);
  if (!std::getline(stream, line)) {
    return Status::InvalidArgument("CSV input is empty");
  }
  ++line_number;
  std::vector<std::string> header = SplitLine(line);
  for (int a = 0; a < schema->num_attributes(); ++a) {
    const std::string& name = schema->attribute(a).name();
    for (size_t c = 0; c < header.size(); ++c) {
      if (header[c] == name) {
        column_of_attr[static_cast<size_t>(a)] = static_cast<int>(c);
        break;
      }
    }
    if (column_of_attr[static_cast<size_t>(a)] < 0) {
      return Status::InvalidArgument("CSV header is missing attribute '" +
                                     name + "'");
    }
  }

  Table table(schema);
  // Parsed rows accumulate in a columnar RecordBatch and append to the
  // table one batch at a time (Table::AppendBatch) instead of row by row.
  RecordBatch batch(table.row_width(), kDefaultBatchRows);
  std::vector<int64_t> row(static_cast<size_t>(schema->num_attributes()));
  while (std::getline(stream, line)) {
    ++line_number;
    if (Trim(line).empty()) continue;
    std::vector<std::string> cells = SplitLine(line);
    for (int a = 0; a < schema->num_attributes(); ++a) {
      const int column = column_of_attr[static_cast<size_t>(a)];
      if (column >= static_cast<int>(cells.size())) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) + ": missing column " +
            std::to_string(column + 1));
      }
      const std::string& cell = cells[static_cast<size_t>(column)];
      char* end = nullptr;
      const int64_t value = std::strtoll(cell.c_str(), &end, 10);
      if (end == cell.c_str() || *end != '\0') {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": '" + cell +
                                       "' is not an integer");
      }
      const Hierarchy& h = schema->attribute(a);
      if (value < 0 || value >= h.cardinality()) {
        return Status::OutOfRange(
            "line " + std::to_string(line_number) + ": value " + cell +
            " outside the domain of '" + h.name() + "' [0, " +
            std::to_string(h.cardinality()) + ")");
      }
      row[static_cast<size_t>(a)] = value;
    }
    if (batch.num_rows() == batch.capacity()) {
      table.AppendBatch(batch);
      batch.Clear();
    }
    batch.AppendRows(row.data(), 1);
  }
  table.AppendBatch(batch);
  return table;
}

Result<Table> ReadTableCsvFile(SchemaPtr schema, const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream contents;
  contents << file.rdbuf();
  return ReadTableCsv(std::move(schema), contents.str());
}

std::string WriteMeasureCsv(const Workflow& wf,
                            const MeasureResultSet& results, int measure) {
  const Schema& schema = *wf.schema();
  const Measure& m = wf.measure(measure);
  std::ostringstream out;

  std::vector<int> attrs;
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (!schema.attribute(a).is_all(m.granularity.level(a))) {
      attrs.push_back(a);
    }
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i) out << ",";
    out << schema.attribute(attrs[i]).name() << ":"
        << schema.attribute(attrs[i]).level_name(
               m.granularity.level(attrs[i]));
  }
  if (!attrs.empty()) out << ",";
  out << "value\n";

  for (const MeasureResult& result : results.Sorted(measure)) {
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (i) out << ",";
      out << result.coords[static_cast<size_t>(attrs[i])];
    }
    if (!attrs.empty()) out << ",";
    out << result.value << "\n";
  }
  return out.str();
}

}  // namespace casm
